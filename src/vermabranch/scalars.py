"""Exact coefficient field: rational functions in the formal parameters a, l, m.

There is no floating point anywhere.  The three parameter symbols are rendered
``a``, ``l``, ``m`` (for the spectral parameter, and the two inducing
characters).  A :class:`ParamPoly` is a sparse polynomial with Python ``int``
coefficients, and a :class:`ParamScalar` is a quotient ``num/den`` of two of
them, so the arithmetic path builds no ``fractions.Fraction``: rationals
appear only at the boundary (``ParamScalar.const``, ``rational_value`` and
``render``).

Both sides are polynomials in the packed monomial layout of
:mod:`~vermabranch.packed`, ``layout(3)``, and run on its kernel.

Canonical form: numerator and denominator have no common factor, the
denominator has a positive leading coefficient, and the integer content of
numerator and denominator together is 1.  Each quotient is divided by the gcd
of its two sides in Z[a, l, m], found by a recursive content/primitive-part
pseudo-remainder sequence over the symbols (Brown 1971); the common case, a
denominator whose primitive part divides the numerator, is one exact
division.  A value thus has one form, and equality and hashing compare forms.
``render`` divides both sides by the content of the denominator and so prints
a primitive denominator with positive leading coefficient over a numerator
with rational coefficients.

Every render writes its monomials with :func:`_monomial` and joins its signed
terms with :func:`_signed_sum`; each keeps its own coefficient rule.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Sequence, Tuple, Union
from zlib import crc32

from .packed import (FIELD, PTOP, SHIFTS, SYMBOLS, UNITS, Packed, add, divide, product,
                     unpack)

RationalLike = Union[int, Fraction]


def _monomial(names: Sequence[str], exps: Sequence[int], form: str = "{}") -> str:
    """The factors ``form(name)^e`` of the nonzero exponents joined by ``*``,
    exponent 1 left bare; "" for no factor."""
    return "*".join(form.format(s) + (f"^{x}" if x > 1 else "")
                    for s, x in zip(names, exps) if x)


def _text(c: RationalLike) -> str:
    """str(c), or where str() raises on a part of c past Python's int-to-str
    digit limit, that part as its digit count and the CRC-32 of its hex form."""
    try:
        return str(c)
    except ValueError:
        if c.denominator != 1:
            return f"{_text(c.numerator)}/{_text(c.denominator)}"
        x = abs(c.numerator)
        d = x.bit_length() * 3 // 10  # 3/10 < log10(2): at most the digit count
        while x >= 10 ** d:
            d += 1
        return f"{'-' * (c < 0)}[{d} digits, crc32 {crc32(hex(x).encode()):08x}]"


def _signed_sum(parts: List[str]) -> str:
    """The terms as ``t1 + t2 - t3``: the first as it is, a later one as
    ``+ t``, or as ``- t[1:]`` where it starts with a minus; "0" for none."""
    signed = [f"- {t[1:]}" if t[0] == "-" else f"+ {t}" for t in parts[1:]]
    return " ".join(parts[:1] + signed) or "0"


class ParamPoly:
    """Sparse polynomial in the parameters a, l, m over the integers.

    ``terms`` maps packed monomials to nonzero ints.  The constructor keeps the
    mapping it is given, so it must be clean and is not mutated afterwards.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Packed | None = None):
        self.terms = {} if terms is None else terms

    @staticmethod
    def const(c: int) -> "ParamPoly":
        return ParamPoly({0: c} if c else {})

    @staticmethod
    def symbol(name: str) -> "ParamPoly":
        return ParamPoly({UNITS[SYMBOLS.index(name)]: 1})

    def is_constant(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get(0, 0)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        return ParamPoly(add(self.terms, other.terms))

    def __neg__(self) -> "ParamPoly":
        return ParamPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        t = product(self.terms, other.terms, PTOP)
        return self if t is self.terms else other if t is other.terms else ParamPoly(t)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParamPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def exact_divide(self, divisor: "ParamPoly") -> "ParamPoly | None":
        """Quotient self/divisor in Z[a, l, m] if the division is exact, else None."""
        dt = divisor.terms
        if not dt:
            raise ZeroDivisionError("division by the zero polynomial")
        if divisor.is_constant():
            c = dt[0]
            if any(v % c for v in self.terms.values()):
                return None
            return self if c == 1 else ParamPoly({e: v // c for e, v in self.terms.items()})
        q = divide(dict(self.terms), list(dt.items()), PTOP)
        return None if q is None else ParamPoly(q)

    # -- rendering --------------------------------------------------------

    def render(self, div: int = 1) -> str:
        """The polynomial with every coefficient divided by ``div``."""
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k] if div == 1 else Fraction(self.terms[k], div)
            mono = _monomial(SYMBOLS, unpack(k, len(SYMBOLS)))
            if mono and abs(c) == 1:
                parts.append(mono if c > 0 else f"-{mono}")
            else:
                parts.append(f"{_text(c)}*{mono}" if mono else _text(c))
        return _signed_sum(parts)

    def __repr__(self):
        return f"ParamPoly({self.render()})"


_ZERO = ParamPoly()
_ONE = ParamPoly.const(1)


def _degree(p: ParamPoly, i: int) -> int:
    s = SHIFTS[i]
    return max(k >> s & FIELD for k in p.terms)


def _content(p: ParamPoly, i: int, g: ParamPoly | None = None) -> ParamPoly:
    """The gcd of g and of the coefficients of p as a polynomial in symbol i."""
    s, u = SHIFTS[i], UNITS[i]
    rows: Dict[int, Packed] = {}
    for k, c in p.terms.items():
        x = k >> s & FIELD
        rows.setdefault(x, {})[k - x * u] = c
    for t in rows.values():
        g = ParamPoly(t) if g is None else _gcd(g, ParamPoly(t))
    return g


def _prem(p: ParamPoly, q: ParamPoly, i: int) -> ParamPoly:
    """The pseudo-remainder of p by q in symbol i: lc(q)^k p minus a multiple
    of q, of lower degree in symbol i than q."""
    s, u = SHIFTS[i], UNITS[i]
    dq = _degree(q, i)
    lq = ParamPoly({k - dq * u: c for k, c in q.terms.items() if k >> s & FIELD == dq})
    while p.terms:
        dp = _degree(p, i)
        if dp < dq:
            break
        # lc(p) s^(dp - dq), with s symbol i
        lead = ParamPoly({k - dq * u: c for k, c in p.terms.items() if k >> s & FIELD == dp})
        p = p * lq + -(lead * q)
    return p


def _gcd(p: ParamPoly, q: ParamPoly) -> ParamPoly:
    """A greatest common divisor of the nonzero p and q in Z[a, l, m], up to sign.

    Recursive over the symbols (Brown 1971).  A symbol that only one side uses
    drops out through that side's content in it.  In a symbol both use, the
    gcd is the gcd of the contents times the last nonzero remainder of the
    primitive pseudo-remainder sequence.
    """
    if p.is_constant() or q.is_constant():
        return ParamPoly.const(gcd(*p.terms.values(), *q.terms.values()))
    shared = []
    for i in range(len(SYMBOLS)):
        dp, dq = _degree(p, i), _degree(q, i)
        if dp and not dq:
            return _content(p, i, q)
        if dq and not dp:
            return _content(q, i, p)
        if dp:
            shared.append((min(dp, dq), i))
    i = min(shared)[1]
    cp, cq = _content(p, i), _content(q, i)
    p, q = p.exact_divide(cp), q.exact_divide(cq)
    if _degree(p, i) < _degree(q, i):
        p, q = q, p
    while True:
        r = _prem(p, q, i)
        if not r.terms:
            return _gcd(cp, cq) * q
        if not _degree(r, i):
            return _gcd(cp, cq)
        p, q = q, r.exact_divide(_content(r, i))


def _cancel(num: ParamPoly, den: ParamPoly) -> Tuple[ParamPoly, ParamPoly]:
    """num and den divided by their gcd, up to an integer factor."""
    c = gcd(*den.terms.values())
    # the common case: the primitive part of den divides num
    q = num.exact_divide(ParamPoly({e: v // c for e, v in den.terms.items()}))
    if q is not None:
        return q, ParamPoly.const(c)
    g = _gcd(num, den)
    return num.exact_divide(g), den.exact_divide(g)


def _normalize(num: Packed, den: ParamPoly) -> Tuple[Packed, ParamPoly]:
    """The packed terms num over den, both divided by their integer content
    together, with the sign that makes den's leading coefficient positive."""
    dt = den.terms
    g = gcd(*num.values(), *dt.values())
    if dt[max(dt)] < 0:
        g = -g
    if g == 1:
        return num, den
    return {k: c // g for k, c in num.items()}, ParamPoly({k: c // g for k, c in dt.items()})


def _reduced(num: ParamPoly, den: ParamPoly) -> "ParamScalar":
    """The ParamScalar num/den of a num and den without a common factor."""
    s = ParamScalar.__new__(ParamScalar)
    if not num.terms:
        s.num, s.den = _ZERO, _ONE
        return s
    t, s.den = _normalize(num.terms, den)
    s.num = num if t is num.terms else ParamPoly(t)
    return s


class ParamScalar:
    """Element of the rational-function field Q(a, l, m)."""

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPoly, den: ParamPoly | None = None):
        if den is None:
            den = _ONE
        dt = den.terms
        if not dt:
            raise ZeroDivisionError("zero denominator in ParamScalar")
        if not num.terms:
            self.num, self.den = _ZERO, _ONE
            return
        if len(dt) == 1 and 0 in dt:
            if dt[0] == 1:
                self.num, self.den = num, _ONE
                return
        else:
            num, den = _cancel(num, den)
        t, self.den = _normalize(num.terms, den)
        self.num = num if t is num.terms else ParamPoly(t)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(c: RationalLike) -> "ParamScalar":
        return ParamScalar(ParamPoly.const(c.numerator), ParamPoly.const(c.denominator))

    @staticmethod
    def symbol(name: str) -> "ParamScalar":
        return ParamScalar(ParamPoly.symbol(name))

    @staticmethod
    def coerce(v: "ParamScalar | ParamPoly | RationalLike") -> "ParamScalar":
        if isinstance(v, ParamScalar):
            return v
        if isinstance(v, ParamPoly):
            return ParamScalar(v)
        return ParamScalar.const(v)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num.terms

    def is_rational(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def rational_value(self) -> Fraction:
        return Fraction(self.num.constant_value(), self.den.constant_value())

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "ParamScalar":
        other = ParamScalar.coerce(other)
        # both sides are canonical, so a zero summand leaves the other as is
        if not self.num.terms:
            return other
        if not other.num.terms:
            return self
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # both sides are reduced, so a common factor of the sum's two sides
        # divides g = gcd(d1, d2) (Knuth, TAOCP 2, 4.5.1)
        g = d1 if d1 == d2 else _gcd(d1, d2)
        if g.is_constant():
            return _reduced(n1 * d2 + n2 * d1, d1 * d2)
        s1, s2 = d1.exact_divide(g), d2.exact_divide(g)
        t, g = _cancel(n1 * s2 + n2 * s1, g)
        return _reduced(t, s1 * s2 * g)

    __radd__ = __add__

    def __neg__(self) -> "ParamScalar":
        return _reduced(-self.num, self.den)

    def __sub__(self, other) -> "ParamScalar":
        return self + (-ParamScalar.coerce(other))

    def __rsub__(self, other) -> "ParamScalar":
        return ParamScalar.coerce(other) - self

    def __mul__(self, other) -> "ParamScalar":
        other = ParamScalar.coerce(other)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # both sides are reduced, so only n1, d2 and n2, d1 can share a factor
        if not d2.is_constant():
            n1, d2 = _cancel(n1, d2)
        if not d1.is_constant():
            n2, d1 = _cancel(n2, d1)
        return _reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ParamScalar":
        other = ParamScalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero ParamScalar")
        return ParamScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "ParamScalar":
        return ParamScalar.coerce(other) / self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ParamScalar, int, Fraction)):
            return NotImplemented
        # both sides are canonical, so equal values have equal forms
        other = ParamScalar.coerce(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a rational value equals its int or Fraction, so it hashes as one
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.num, self.den))

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        dt = self.den.terms
        g = gcd(*dt.values())
        if len(dt) == 1 and 0 in dt:
            return self.num.render(g)
        return f"({self.num.render(g)})/({self.den.render(g)})"

    def __repr__(self):
        return f"ParamScalar({self.render()})"


# convenience symbols
ALPHA = ParamScalar.symbol("a")
LAMBDA = ParamScalar.symbol("l")
MU = ParamScalar.symbol("m")
