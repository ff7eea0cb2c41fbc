"""Gegenbauer and Jacobi families: constructions, ODEs, ladder relations,
hypergeometric forms, and exact orthogonality."""

from fractions import Fraction

import pytest

from oracles import (derive, gegen_tilde_convert, gegenbauer_lower_op, gegenbauer_ode_op,
                     gegenbauer_raise_op, gegenbauer_recurrence, gegenbauer_tilde_raise_op,
                     gegenbauer_via_2f1, gen_binomial, hypergeom_2f1_terminating,
                     jacobi, jacobi_derivative, jacobi_norm_closed_form, jacobi_ode_op,
                     jacobi_recursion_coeffs, jacobi_via_2f1, orthogonality_integral)
from vermabranch.orthopoly import (falling_factorial, gegenbauer, gegenbauer_tilde,
                                   gegenbauer_tilde_lower_op, rising_factorial)
from vermabranch.polyring import T_LINE, X_LINE, GeoPoly
from vermabranch.scalars import ALPHA, LAMBDA, MU, ParamScalar
from vermabranch.weylalg import DiffOp


def test_factorial_helpers():
    assert rising_factorial(3, 0) == ParamScalar.const(1)
    assert rising_factorial(3, 3) == ParamScalar.const(60)
    assert falling_factorial(3, 3) == ParamScalar.const(6)
    assert gen_binomial(Fraction(1, 2), 2) == ParamScalar.const(Fraction(-1, 8))
    assert gen_binomial(3, 5).is_zero()  # vanishing continuation


def test_gegenbauer_low_degrees():
    x = GeoPoly.var(X_LINE, "x")
    assert gegenbauer(0, ALPHA) == GeoPoly.const(X_LINE, 1)
    assert gegenbauer(1, ALPHA) == x.scale(ALPHA * 2)
    c2 = gegenbauer(2, ALPHA)
    assert c2 == (x * x).scale(ALPHA * ALPHA * 2 + ALPHA * 2) - GeoPoly.const(
        X_LINE, ALPHA)


@pytest.mark.parametrize("l", range(13))
def test_gegenbauer_methods_agree(l):
    assert gegenbauer(l, ALPHA) == gegenbauer_recurrence(l, ALPHA)


@pytest.mark.parametrize("l", range(-1, 13))
def test_tilde_sum_matches_converted_recurrence(l):
    # the t-line sum against the three-term recurrence in x, moved to t
    # by the oracle's x -> t conversion
    assert gegenbauer_tilde(l, ALPHA) == gegen_tilde_convert(gegenbauer_recurrence(l, ALPHA), l)


@pytest.mark.parametrize("l", range(13))
def test_gegenbauer_ode(l):
    c = gegenbauer(l, ALPHA)
    assert gegenbauer_ode_op(l, ALPHA).apply(c).is_zero()


@pytest.mark.parametrize("l", range(11))
def test_jacobi_ode(l):
    p = jacobi(l, LAMBDA, MU)
    assert jacobi_ode_op(l, LAMBDA, MU).apply(p).is_zero()


@pytest.mark.parametrize("l", range(1, 9))
def test_gegenbauer_ladder(l):
    c_l = gegenbauer(l, ALPHA)
    c_dn = gegenbauer(l - 1, ALPHA)
    c_up = gegenbauer(l + 1, ALPHA)
    assert gegenbauer_lower_op(l).apply(c_l) == c_dn.scale(ALPHA * 2 + (l - 1))
    assert gegenbauer_raise_op(l, ALPHA).apply(c_l) == c_up.scale(-(l + 1))


@pytest.mark.parametrize("l", range(1, 7))
def test_tilde_ladder_transport(l):
    ct, dn, up = (gegenbauer_tilde(k, ALPHA) for k in (l, l - 1, l + 1))
    assert gegenbauer_tilde_lower_op(l).apply(ct) == dn.scale(ALPHA * 2 + (l - 1))
    assert gegenbauer_tilde_raise_op(l, ALPHA).apply(ct) == up.scale(-(l + 1))


def test_2f1_terminates():
    x = GeoPoly.var(X_LINE, "x")
    f = hypergeom_2f1_terminating(-2, LAMBDA, MU, x, terms=10)
    assert f.degree() == 2


@pytest.mark.parametrize("l", range(9))
def test_gegenbauer_via_2f1(l):
    assert gegenbauer_via_2f1(l, ALPHA) == gegenbauer(l, ALPHA)


@pytest.mark.parametrize("l", range(9))
def test_jacobi_via_2f1(l):
    assert jacobi_via_2f1(l, LAMBDA, MU) == jacobi(l, LAMBDA, MU)


@pytest.mark.parametrize("l", range(11))
def test_gegenbauer_jacobi_relation(l):
    scale = rising_factorial(ALPHA * 2, l) / rising_factorial(
        ALPHA + Fraction(1, 2), l)
    p = jacobi(l, ALPHA - Fraction(1, 2), ALPHA - Fraction(1, 2))
    assert gegenbauer(l, ALPHA) == p.scale(scale)


@pytest.mark.parametrize("k", range(4))
def test_jacobi_derivative_formula(k):
    direct = jacobi(5, LAMBDA, MU)
    for _ in range(k):
        direct = derive(direct, "x")
    assert jacobi_derivative(5, LAMBDA, MU, k) == direct


def test_jacobi_derivative_beyond_degree_is_zero():
    assert jacobi_derivative(2, LAMBDA, MU, 3).is_zero()


def test_recursion_matches_singular_polynomial():
    # the recursion-produced coefficients are those of the homogenized
    # solution; cross-checked in depth in the diagonal-pair tests
    coeffs = jacobi_recursion_coeffs(2, LAMBDA, MU)
    assert len(coeffs) == 3
    assert coeffs[2] == MU * (MU - 1) / 2


def test_orthogonality_exact():
    for alpha in range(4):
        for beta in range(4):
            for k in range(6):
                for l in range(6):
                    val = orthogonality_integral(k, l, alpha, beta)
                    if k != l:
                        assert val == 0, (k, l, alpha, beta)
                    else:
                        assert val == jacobi_norm_closed_form(l, alpha, beta)


def test_orthogonality_sample_values():
    # weight (1-x)^0 (1+x)^0: int_{-1}^{1} P_1^2 = 2/3 at (0,0)
    assert orthogonality_integral(1, 1, 0, 0) == Fraction(2, 3)
    assert orthogonality_integral(0, 1, 0, 0) == 0


# -- each operator literal against its composed form --------------------------

def _ref_ops(l):
    """The six operators composed from multiplication, derivative and scalar
    operators, in the order of the literals they check."""
    xv, tv = X_LINE, T_LINE
    x, one, d = GeoPoly.var(xv, "x"), GeoPoly.const(xv, 1), DiffOp.partial(xv, "x")
    t, t_one, dt = GeoPoly.var(tv, "t"), GeoPoly.const(tv, 1), DiffOp.partial(tv, "t")
    lin = GeoPoly.const(xv, MU - LAMBDA) - x.scale(LAMBDA + MU + 2)
    return [
        (DiffOp.mult(one - x * x) @ d @ d - DiffOp.mult(x.scale(ALPHA * 2 + 1)) @ d
         + DiffOp.scalar(xv, (ALPHA * 2 + l) * l)),
        (DiffOp.mult(one - x * x) @ d @ d + DiffOp.mult(lin) @ d
         + DiffOp.scalar(xv, (LAMBDA + MU + l + 1) * l)),
        DiffOp.mult(one - x * x) @ d + DiffOp.mult(x.scale(l)),
        DiffOp.mult(one - x * x) @ d - DiffOp.mult(x.scale(ALPHA * 2 + l)),
        DiffOp.mult((t + t_one).scale(-2)) @ dt + DiffOp.scalar(tv, l),
        (DiffOp.mult((t * (t + t_one)).scale(2)) @ dt - DiffOp.mult(t.scale(l))
         - DiffOp.scalar(tv, (ALPHA + l) * 2)),
    ]


@pytest.mark.parametrize("l", range(6))
def test_operator_literals_match_composed_forms(l):
    ops = [gegenbauer_ode_op(l, ALPHA), jacobi_ode_op(l, LAMBDA, MU),
           gegenbauer_lower_op(l), gegenbauer_raise_op(l, ALPHA),
           gegenbauer_tilde_lower_op(l), gegenbauer_tilde_raise_op(l, ALPHA)]
    for op, ref in zip(ops, _ref_ops(l), strict=True):
        assert op == ref and op.render() == ref.render()
