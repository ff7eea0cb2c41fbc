"""Exact parametric Pochhammer symbols and the Gegenbauer family.

The Gegenbauer family is built on its t-line, C~_l = x^{-l} C_l^alpha(x) at
x^2 = -1/t (:func:`gegenbauer_tilde`), and C_l in x is one relabel of it.
All Gamma-function ratios are finite rising-factorial products, so every
value stays inside the rational-function field; half-integer parameter shifts
are ordinary field elements.  These are the family and the one ladder
operator that the scenarios build; the diagonal pair's Jacobi family is built
once, on its t-line, by :func:`vermabranch.diag_pair.jacobi_t_polynomial`.
The reference constructions that check both (the three-term recurrence, the
Jacobi double sum and top-seeded recursion, the 2F1 forms, the differential
equations, the other ladder operators, exact orthogonality and the x -> t
conversion) are test oracles and live in ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .polyring import T_LINE, X_LINE, GeoPoly
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


def gegenbauer_tilde(l: int, alpha) -> GeoPoly:
    """C~_l = x^{-l} C_l^alpha(x) at x^2 = -1/t, a polynomial in t, from the
    explicit sum: t^k has (alpha)_{l-k} 2^{l-2k} / (k! (l-2k)!); C~_{-1} := 0."""
    alpha = ParamScalar.coerce(alpha)
    if l < 0:
        return GeoPoly.zero(T_LINE)
    # k runs down, so (alpha)_{l-k} gains one factor a step
    terms, rise = {}, rising_factorial(alpha, l - l // 2)
    for k in range(l // 2, -1, -1):
        terms[(k,)] = rise * Fraction(2 ** (l - 2 * k), factorial(k) * factorial(l - 2 * k))
        if k:
            rise = rise * (alpha + (l - k))
    return GeoPoly(T_LINE, terms)


def gegenbauer(l: int, alpha) -> GeoPoly:
    """C_l^alpha in x: :func:`gegenbauer_tilde` relabelled, t^k -> (-1)^k x^{l-2k}."""
    return gegenbauer_tilde(l, alpha).relabel(X_LINE, lambda e: ((l - 2 * e[0],), (-1) ** e[0]))


def gegenbauer_tilde_lower_op(l: int) -> DiffOp:
    """-2(t+1) d_t + l on the t-line."""
    return DiffOp(T_LINE, {(1,): GeoPoly(T_LINE, {(1,): -2, (0,): -2}), (0,): l})
