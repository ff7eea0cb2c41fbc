"""Exact parametric Gegenbauer and Jacobi polynomials.

The Gegenbauer family is built on its t-line, C~_l = x^{-l} C_l^alpha(x) at
x^2 = -1/t (:func:`gegenbauer_tilde`), and C_l in x is one relabel of it.
All Gamma-function ratios are finite rising-factorial products, so every
value stays inside the rational-function field; half-integer parameter shifts
are ordinary field elements.  These are the families and the one ladder
operator that the scenarios build; the reference constructions that check
them (the three-term recurrence, the 2F1 forms, the differential equations,
the other ladder operators, exact orthogonality and the x -> t conversion)
are test oracles and live in ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .polyring import GeoPoly, t_var, x_var
from .scalars import ParamScalar
from .weylalg import DiffOp


def rising_factorial(z, k: int) -> ParamScalar:
    """(z)_k = z (z+1) ... (z+k-1); empty product for k = 0."""
    z = ParamScalar.coerce(z)
    out = ParamScalar.const(1)
    for i in range(k):
        out = out * (z + i)
    return out


def falling_factorial(z, k: int) -> ParamScalar:
    """z (z-1) ... (z-k+1) = (z-k+1)_k; empty product for k = 0."""
    return rising_factorial(ParamScalar.coerce(z) - (k - 1), k)


def gen_binomial(z, k: int) -> ParamScalar:
    """binom(z, k) = z(z-1)...(z-k+1)/k! for integer k >= 0.

    Agrees with the Gamma-quotient continuation wherever that is defined and
    vanishes automatically at the integer points where it must.
    """
    if k < 0:
        raise ValueError("lower index must be a nonnegative integer")
    return falling_factorial(z, k) / factorial(k)


def gegenbauer_tilde(l: int, alpha) -> GeoPoly:
    """C~_l = x^{-l} C_l^alpha(x) at x^2 = -1/t, a polynomial in t, from the
    explicit sum: t^k has (alpha)_{l-k} 2^{l-2k} / (k! (l-2k)!); C~_{-1} := 0."""
    alpha, tv = ParamScalar.coerce(alpha), t_var()
    if l < 0:
        return GeoPoly.zero(tv)
    # k runs down, so (alpha)_{l-k} gains one factor a step
    terms, rise = {}, rising_factorial(alpha, l - l // 2)
    for k in range(l // 2, -1, -1):
        terms[(k,)] = rise * Fraction(2 ** (l - 2 * k), factorial(k) * factorial(l - 2 * k))
        if k:
            rise = rise * (alpha + (l - k))
    return GeoPoly(tv, terms)


def gegenbauer(l: int, alpha) -> GeoPoly:
    """C_l^alpha in x: :func:`gegenbauer_tilde` relabelled, t^k -> (-1)^k x^{l-2k}."""
    return gegenbauer_tilde(l, alpha).relabel(x_var(), lambda e: ((l - 2 * e[0],), (-1) ** e[0]))


def jacobi(l: int, alpha, beta) -> GeoPoly:
    """P_l^(alpha,beta) via the binomial double sum; degree can drop under
    special parameter values."""
    alpha = ParamScalar.coerce(alpha)
    beta = ParamScalar.coerce(beta)
    if l < 0:
        return GeoPoly.zero(x_var())
    xv = x_var()
    x = GeoPoly.var(xv, "x")
    half = Fraction(1, 2)
    xm = (x - GeoPoly.const(xv, 1)).scale(half)
    xp = (x + GeoPoly.const(xv, 1)).scale(half)
    out = GeoPoly.zero(xv)
    for j in range(l + 1):
        c = gen_binomial(alpha + l, j) * gen_binomial(beta + l, l - j)
        if c.is_zero():
            continue
        out = out + (xm ** (l - j) * xp ** j).scale(c)
    return out


def jacobi_recursion_coeffs(l: int, lam, mu) -> list:
    """Coefficients a^l_0..a^l_l of the degree-l singular-vector polynomial
    in t, from the two-term recursion seeded at the top coefficient
    a^l_l = mu(mu-1)...(mu-l+1)/l!."""
    lam = ParamScalar.coerce(lam)
    mu = ParamScalar.coerce(mu)
    coeffs = [ParamScalar.const(0)] * (l + 1)
    coeffs[l] = falling_factorial(mu, l) / factorial(l)
    for i in range(l - 1, -1, -1):
        bracket = ParamScalar.const(i * i) + (mu + (1 - 2 * l)) * i + (ParamScalar.const(l * l) - mu * l - l)
        if bracket.is_zero():
            raise ZeroDivisionError(f"recursion coefficient vanishes at index {i}")
        coeffs[i] = -(ParamScalar.const(i) - lam) * (i + 1) * coeffs[i + 1] / bracket
    return coeffs


def gegenbauer_tilde_lower_op(l: int) -> DiffOp:
    """-2(t+1) d_t + l on the t-line."""
    tv = t_var()
    return DiffOp(tv, {(1,): GeoPoly(tv, {(1,): -2, (0,): -2}), (0,): l})
