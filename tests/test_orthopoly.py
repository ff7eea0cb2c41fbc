"""Gegenbauer and Jacobi families: constructions, ODEs, ladder relations,
hypergeometric forms, and exact orthogonality."""

from fractions import Fraction

import pytest

from vermabranch.orthopoly import (GegenbauerSpec, JacobiSpec,
                                   falling_factorial, gegenbauer,
                                   gegenbauer_lower_op, gegenbauer_ode_op,
                                   gegenbauer_raise_op,
                                   gegenbauer_tilde_lower_op,
                                   gegenbauer_tilde_raise_op,
                                   gegenbauer_via_2f1, gen_binomial,
                                   hypergeom_2f1_terminating, jacobi,
                                   jacobi_derivative, jacobi_norm_closed_form,
                                   jacobi_ode_op, jacobi_recursion_coeffs,
                                   jacobi_via_2f1, orthogonality_integral,
                                   rising_factorial)
from vermabranch.polyring import GeoPoly, gegen_tilde_convert, x_var
from vermabranch.scalars import ALPHA, LAMBDA, MU, ParamScalar


def test_factorial_helpers():
    assert rising_factorial(3, 0) == ParamScalar.const(1)
    assert rising_factorial(3, 3) == ParamScalar.const(60)
    assert falling_factorial(3, 3) == ParamScalar.const(6)
    assert gen_binomial(Fraction(1, 2), 2) == ParamScalar.const(Fraction(-1, 8))
    assert gen_binomial(3, 5).is_zero()  # vanishing continuation


def test_gegenbauer_low_degrees():
    x = GeoPoly.var(x_var(), "x")
    assert gegenbauer(GegenbauerSpec(0, ALPHA)) == GeoPoly.const(x_var(), 1)
    assert gegenbauer(GegenbauerSpec(1, ALPHA)) == x.scale(ALPHA * 2)
    c2 = gegenbauer(GegenbauerSpec(2, ALPHA))
    assert c2 == (x * x).scale(ALPHA * ALPHA * 2 + ALPHA * 2) - GeoPoly.const(
        x_var(), ALPHA)


@pytest.mark.parametrize("l", range(13))
def test_gegenbauer_methods_agree(l):
    a = gegenbauer(GegenbauerSpec(l, ALPHA), method="explicit")
    b = gegenbauer(GegenbauerSpec(l, ALPHA), method="recurrence")
    assert a == b


@pytest.mark.parametrize("l", range(13))
def test_gegenbauer_ode(l):
    c = gegenbauer(GegenbauerSpec(l, ALPHA))
    assert gegenbauer_ode_op(l, ALPHA).apply(c).is_zero()


@pytest.mark.parametrize("l", range(11))
def test_jacobi_ode(l):
    p = jacobi(JacobiSpec(l, LAMBDA, MU))
    assert jacobi_ode_op(l, LAMBDA, MU).apply(p).is_zero()


@pytest.mark.parametrize("l", range(1, 9))
def test_gegenbauer_ladder(l):
    c_l = gegenbauer(GegenbauerSpec(l, ALPHA))
    c_dn = gegenbauer(GegenbauerSpec(l - 1, ALPHA))
    c_up = gegenbauer(GegenbauerSpec(l + 1, ALPHA))
    assert gegenbauer_lower_op(l).apply(c_l) == c_dn.scale(ALPHA * 2 + (l - 1))
    assert gegenbauer_raise_op(l, ALPHA).apply(c_l) == c_up.scale(-(l + 1))


@pytest.mark.parametrize("l", range(1, 7))
def test_tilde_ladder_transport(l):
    ct = gegen_tilde_convert(gegenbauer(GegenbauerSpec(l, ALPHA)), l)
    dn = gegen_tilde_convert(gegenbauer(GegenbauerSpec(l - 1, ALPHA)), l - 1)
    up = gegen_tilde_convert(gegenbauer(GegenbauerSpec(l + 1, ALPHA)), l + 1)
    assert gegenbauer_tilde_lower_op(l).apply(ct) == dn.scale(ALPHA * 2 + (l - 1))
    assert gegenbauer_tilde_raise_op(l, ALPHA).apply(ct) == up.scale(-(l + 1))


def test_2f1_terminates():
    x = GeoPoly.var(x_var(), "x")
    f = hypergeom_2f1_terminating(-2, LAMBDA, MU, x, terms=10)
    assert f.degree() == 2


@pytest.mark.parametrize("l", range(9))
def test_gegenbauer_via_2f1(l):
    assert gegenbauer_via_2f1(l, ALPHA) == gegenbauer(GegenbauerSpec(l, ALPHA))


@pytest.mark.parametrize("l", range(9))
def test_jacobi_via_2f1(l):
    spec = JacobiSpec(l, LAMBDA, MU)
    assert jacobi_via_2f1(spec) == jacobi(spec)


@pytest.mark.parametrize("l", range(11))
def test_gegenbauer_jacobi_relation(l):
    scale = rising_factorial(ALPHA * 2, l) / rising_factorial(
        ALPHA + Fraction(1, 2), l)
    p = jacobi(JacobiSpec(l, ALPHA - Fraction(1, 2), ALPHA - Fraction(1, 2)))
    assert gegenbauer(GegenbauerSpec(l, ALPHA)) == p.scale(scale)


@pytest.mark.parametrize("k", range(4))
def test_jacobi_derivative_formula(k):
    spec = JacobiSpec(5, LAMBDA, MU)
    p = jacobi(spec)
    direct = p
    for _ in range(k):
        direct = direct.derive("x")
    assert jacobi_derivative(spec, k) == direct


def test_jacobi_derivative_beyond_degree_is_zero():
    assert jacobi_derivative(JacobiSpec(2, LAMBDA, MU), 3).is_zero()


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
