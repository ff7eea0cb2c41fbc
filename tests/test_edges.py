"""Degenerate inputs and failure paths that no scenario, benchmark pass or
golden run reaches, one case per branch."""

import random

import pytest

from oracles import gen_binomial, jacobi, jacobi_recursion_coeffs
from vermabranch.cli_report import hilbert_check
from vermabranch.orthopoly import gegenbauer
from vermabranch.polyring import GeoPoly, xi_vars
from vermabranch.properties import _rand_scalar, field_axioms
from vermabranch.scalars import ALPHA, LAMBDA, ParamPoly, ParamScalar
from vermabranch.so_pair import SoPairContext, singular_vector_F
from vermabranch.weylalg import proportionality

VS = xi_vars(2)
X1, X2 = GeoPoly.var(VS, "x1"), GeoPoly.var(VS, "x2")


def _failing_field_axioms(monkeypatch):
    """field_axioms with hashes that equal values do not share: its first
    case fails, and the record keeps the rendered draws as its witness."""
    monkeypatch.setattr(ParamScalar, "__hash__", lambda self: id(self))
    (rec,) = field_axioms(7, 3).records
    rng = random.Random(7)
    a, b, c = (_rand_scalar(rng).render() for _ in range(3))
    return rec.status, rec.witness == f"a={a}, b={b}, c={c}"


CASES = {
    "proportionality-no-multiple": (lambda mp: proportionality(X2, X1), None),
    "param-exact-divide-inexact-constant":
        (lambda mp: (LAMBDA * 3).num.exact_divide(ParamPoly.const(2)), None),
    "param-exact-divide-by-zero":
        (lambda mp: ParamPoly.const(1).exact_divide(ParamPoly.const(0)),
         ZeroDivisionError("division by the zero polynomial")),
    "param-scalar-zero-denominator":
        (lambda mp: ParamScalar(ParamPoly.const(1), ParamPoly.const(0)),
         ZeroDivisionError("zero denominator")),
    "param-scalar-rsub": (lambda mp: (3 - LAMBDA) + LAMBDA, ParamScalar.const(3)),
    "geopoly-eq-across-variable-sets":
        (lambda mp: GeoPoly.const(VS, 1) == GeoPoly.const(xi_vars(3), 1), False),
    "geopoly-negative-power": (lambda mp: X1 ** -1, ValueError("negative power")),
    "gen-binomial-negative-index":
        (lambda mp: gen_binomial(LAMBDA, -1), ValueError("nonnegative integer")),
    "gegenbauer-below-zero": (lambda mp: gegenbauer(-1, ALPHA).is_zero(), True),
    "jacobi-below-zero": (lambda mp: jacobi(-1, ALPHA, LAMBDA).is_zero(), True),
    "jacobi-recursion-vanishing-bracket":
        (lambda mp: jacobi_recursion_coeffs(2, LAMBDA, 1),
         ZeroDivisionError("vanishes at index 0")),
    "singular-vector-negative-degree":
        (lambda mp: singular_vector_F(SoPairContext.formal(2), -1),
         ValueError("degree must be nonnegative")),
    "hilbert-below-two-variables": (lambda mp: hilbert_check(1, 3), ValueError("need n >= 2")),
    "property-suite-failure": (_failing_field_axioms, ("fail", True)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rarely_reached_branch(name, monkeypatch):
    # an exception instance stands for: raises its type, with its message
    run, expected = CASES[name]
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=str(expected)):
            run(monkeypatch)
    else:
        assert run(monkeypatch) == expected
