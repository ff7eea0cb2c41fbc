"""Each library module stays under the parser's 4,096-token mark.

A pass process compiles ``src/`` from source, and CPython's parser doubles
its token buffer when a module passes 4,096 tokens, which raises the peak
memory of every benchmark pass by more than its bound (ROADMAP.md, "Current
state").  Counted with ``tokenize``, leaving out ``NL`` and ``COMMENT``: a
comment costs nothing and a docstring one token, whatever its length."""

import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vermabranch"
MARK = 4096


def tokens(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for t in tokenize.tokenize(fh.readline)
                   if t.type not in (tokenize.NL, tokenize.COMMENT))


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_module_stays_under_the_parser_token_mark(name):
    count = tokens(SRC / name)
    assert count < MARK, (
        f"{name} has {count} tokens, not fewer than {MARK}: past this mark the parser's "
        f"token buffer doubles and peak_rss_mib rises past its bound; cut tokens or split "
        f"the module (ROADMAP.md, 'Current state', the note on the parser's token buffer)")
