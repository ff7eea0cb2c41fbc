"""Sparse geometric polynomials, curated-denominator coefficients, and the
homogenization helpers."""

from fractions import Fraction

import pytest

from vermabranch.polyring import (GeoPoly, RatCoeff, curated_factors,
                                  dehomogenize, gegen_tilde_convert,
                                  homogenize, quadratic_sum,
                                  substitute_linear, t_var, x_var,
                                  xi_eta_vars, xi_vars, xy_vars)
from vermabranch.scalars import LAMBDA, ParamScalar
from vermabranch.weylalg import DiffOp


def test_varsets():
    vs = xi_vars(3)
    assert vs.names == ("x1", "x2", "x3")
    assert xi_eta_vars().names == ("xi", "eta")
    assert xy_vars().names == ("x", "y")
    assert t_var().arity == 1


def test_basic_arithmetic():
    vs = xi_vars(2)
    x1 = GeoPoly.var(vs, "x1")
    x2 = GeoPoly.var(vs, "x2")
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert (p - p).is_zero()
    assert p.degree() == 2 and p.is_homogeneous()


def test_derive():
    vs = xi_vars(2)
    x1 = GeoPoly.var(vs, "x1")
    p = x1 ** 3
    assert p.derive("x1") == (x1 * x1).scale(3)
    assert p.derive("x2").is_zero()


def test_exact_divide():
    vs = xi_vars(3)
    q1 = quadratic_sum(vs, 2)
    x3 = GeoPoly.var(vs, "x3")
    prod = q1 * q1 * x3
    assert prod.exact_divide(q1) == q1 * x3
    assert prod.exact_divide(x3) == q1 * q1
    assert (q1 + x3).exact_divide(q1) is None


def test_curated_factors_per_kind():
    assert set(curated_factors(xi_vars(4))) == {"xn", "q1", "q"}
    assert set(curated_factors(xi_eta_vars())) == {"eta"}
    assert set(curated_factors(t_var())) == {"t"}
    assert curated_factors(x_var()) == {}


def test_ratcoeff_autoreduces():
    vs = xi_vars(3)
    q1 = quadratic_sum(vs, 2)
    x3 = GeoPoly.var(vs, "x3")
    r = RatCoeff(q1 * x3, {"q1": 1})
    assert r.is_polynomial()
    assert r.as_poly() == x3


def test_ratcoeff_keeps_irreducible_denominator():
    vs = xi_vars(3)
    x3 = GeoPoly.var(vs, "x3")
    r = RatCoeff(x3, {"q1": 1})
    assert not r.is_polynomial()
    with pytest.raises(ValueError):
        r.as_poly()


def test_ratcoeff_addition_common_denominator():
    vs = xi_vars(3)
    q1 = quadratic_sum(vs, 2)
    x3 = GeoPoly.var(vs, "x3")
    a = RatCoeff(x3, {"q1": 1})
    b = RatCoeff(q1 - x3, {"q1": 1})
    assert (a + b).as_poly() == GeoPoly.const(vs, 1)


def test_ratcoeff_quotient_rule():
    # d/dt (1/t) = -1/t^2
    tv = t_var()
    one = GeoPoly.const(tv, 1)
    r = RatCoeff(one, {"t": 1})
    d = r.derive(0)
    assert d == RatCoeff(-one, {"t": 2})


def test_rejects_non_curated_denominator():
    with pytest.raises(ValueError):
        RatCoeff(GeoPoly.const(xi_vars(2), 1), {"bogus": 1})


def test_homogenize_roundtrip():
    tv = t_var()
    q = GeoPoly(tv, {(0,): ParamScalar.const(2), (1,): LAMBDA, (3,): ParamScalar.const(-1)})
    p = homogenize(q, 5)
    assert p.is_homogeneous() and p.degree() == 5
    assert dehomogenize(p, 5) == q
    with pytest.raises(ValueError):
        homogenize(q, 2)


def test_substitute_linear():
    xv = x_var()
    x = GeoPoly.var(xv, "x")
    p = x * x
    q = substitute_linear(p, 2, 1)  # (2t+1)^2
    t = GeoPoly.var(t_var(), "t")
    assert q == (t * t).scale(4) + t.scale(4) + GeoPoly.const(t_var(), 1)


def test_gegen_tilde_convert_parity():
    xv = x_var()
    x = GeoPoly.var(xv, "x")
    # even-degree input with an odd-degree term is rejected
    with pytest.raises(ValueError):
        gegen_tilde_convert(x * x + x, 2)
    # x^2 - 1 at l=2 becomes 1 + t
    out = gegen_tilde_convert(x * x - GeoPoly.const(xv, 1), 2)
    t = GeoPoly.var(t_var(), "t")
    assert out == t + GeoPoly.const(t_var(), 1)


def test_render_is_stable():
    vs = xi_vars(2)
    p = GeoPoly(vs, {(1, 0): ParamScalar.const(1), (0, 1): LAMBDA})
    assert p.render() == p.render()
    assert p.render() == "x1 + l*x2"


def test_coefficient_lookup():
    vs = xi_eta_vars()
    p = GeoPoly(vs, {(2, 1): ParamScalar.const(Fraction(1, 2))})
    assert p.coefficient((2, 1)) == ParamScalar.const(Fraction(1, 2))
    assert p.coefficient((0, 0)).is_zero()


def test_from_terms_validates_and_coerces():
    vs = xi_vars(2)
    with pytest.raises(ValueError, match="exponent arity mismatch"):
        GeoPoly.from_terms(vs, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        GeoPoly.from_terms(vs, {(1, -1): 1})
    p = GeoPoly.from_terms(vs, {(1, 0): 2, (0, 1): Fraction(1, 3), (0, 0): 0})
    assert p.terms == {(1, 0): ParamScalar.const(2),
                       (0, 1): ParamScalar.const(Fraction(1, 3))}
    assert all(isinstance(c, ParamScalar) for c in p.terms.values())


def test_constructor_drops_zero_coefficients():
    vs = xi_vars(2)
    p = GeoPoly(vs, {(1, 0): ParamScalar.const(0), (0, 1): LAMBDA - LAMBDA,
                     (1, 1): LAMBDA})
    assert p.terms == {(1, 1): LAMBDA}
    assert GeoPoly(vs, {(2, 0): ParamScalar.const(0)}).is_zero()


@pytest.mark.parametrize("wrap", [lambda p: p, RatCoeff, DiffOp.mult],
                         ids=["GeoPoly", "RatCoeff", "DiffOp"])
def test_values_are_unhashable(wrap):
    # equal values with unequal hashes would break sets and dict keys, so the
    # classes define __eq__ without __hash__
    vs = xi_vars(2)
    unit = (LAMBDA * LAMBDA + 1) / (LAMBDA * LAMBDA + 1)
    v = wrap(GeoPoly.const(vs, unit))
    assert v == wrap(GeoPoly.const(vs, 1))
    with pytest.raises(TypeError):
        hash(v)
