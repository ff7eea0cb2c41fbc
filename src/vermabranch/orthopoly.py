"""Exact parametric Gegenbauer and Jacobi polynomials.

All Gamma-function ratios are finite rising-factorial products, so every
value stays inside the rational-function field; half-integer parameter shifts
are ordinary field elements.  Both Gegenbauer constructions (three-term
recurrence and the explicit sum) are provided and cross-checked in the test
suite, together with the differential equations, the ladder identities and
the hypergeometric representations.
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


def gegenbauer(l: int, alpha) -> GeoPoly:
    """C_l^alpha as a polynomial in x from the explicit sum; C_{-1} := 0."""
    alpha, xv = ParamScalar.coerce(alpha), x_var()
    if l < 0:
        return GeoPoly.zero(xv)
    # x^{l-2k} has (-1)^k (alpha)_{l-k} 2^{l-2k} / (k! (l-2k)!); k runs down
    terms, rise = {}, rising_factorial(alpha, l - l // 2)
    for k in range(l // 2, -1, -1):
        terms[(l - 2 * k,)] = rise * Fraction((-1) ** k * 2 ** (l - 2 * k),
                                              factorial(k) * factorial(l - 2 * k))
        if k:
            rise = rise * (alpha + (l - k))
    return GeoPoly(xv, terms)


def gegenbauer_recurrence(l: int, alpha) -> GeoPoly:
    """C_l^alpha from the three-term recurrence, the reference for
    :func:`gegenbauer`; C_{-1} := 0."""
    alpha, xv = ParamScalar.coerce(alpha), x_var()
    if l < 0:
        return GeoPoly.zero(xv)
    c_prev = GeoPoly.const(xv, 1)                       # C_0
    if l == 0:
        return c_prev
    x = GeoPoly.var(xv, "x")
    c_cur = x.scale(alpha * 2)                          # C_1
    for k in range(2, l + 1):
        nxt = (x * c_cur).scale((alpha + (k - 1)) * 2) - c_prev.scale(alpha * 2 + (k - 2))
        c_prev, c_cur = c_cur, nxt.scale(Fraction(1, k))
    return c_cur


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


def jacobi_derivative(l: int, alpha, beta, k: int) -> GeoPoly:
    """k-th derivative via the parameter-shift formula; zero once k > l."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k > l:
        return GeoPoly.zero(x_var())
    alpha = ParamScalar.coerce(alpha)
    beta = ParamScalar.coerce(beta)
    c = rising_factorial(alpha + beta + l + 1, k) * Fraction(1, 2 ** k)
    return jacobi(l - k, alpha + k, beta + k).scale(c)


def hypergeom_2f1_terminating(a, b, c, arg: GeoPoly, terms: int) -> GeoPoly:
    """Truncated 2F1(a, b; c; arg) with rising factorials; with a = -l the
    series terminates by itself after l+1 terms."""
    a = ParamScalar.coerce(a)
    b = ParamScalar.coerce(b)
    c = ParamScalar.coerce(c)
    out = GeoPoly.zero(arg.vars)
    power = GeoPoly.const(arg.vars, 1)
    for m in range(terms + 1):
        cm = rising_factorial(c, m)
        if cm.is_zero():
            raise ZeroDivisionError(f"lower parameter hits a nonpositive integer at term {m}")
        coeff = rising_factorial(a, m) * rising_factorial(b, m) / (cm * factorial(m))
        if not coeff.is_zero():
            out = out + power.scale(coeff)
        power = power * arg
    return out


def gegenbauer_via_2f1(l: int, alpha) -> GeoPoly:
    """(2a)_l / l! * 2F1(-l, 2a+l; a+1/2; (1-x)/2)."""
    alpha = ParamScalar.coerce(alpha)
    xv = x_var()
    arg = (GeoPoly.const(xv, 1) - GeoPoly.var(xv, "x")).scale(Fraction(1, 2))
    series = hypergeom_2f1_terminating(ParamScalar.const(-l), alpha * 2 + l,
                                       alpha + Fraction(1, 2), arg, l)
    return series.scale(rising_factorial(alpha * 2, l) / factorial(l))


def jacobi_via_2f1(l: int, alpha, beta) -> GeoPoly:
    """binom(l+a, l) * 2F1(-l, 1+a+b+l; a+1; (1-x)/2)."""
    alpha = ParamScalar.coerce(alpha)
    beta = ParamScalar.coerce(beta)
    xv = x_var()
    arg = (GeoPoly.const(xv, 1) - GeoPoly.var(xv, "x")).scale(Fraction(1, 2))
    series = hypergeom_2f1_terminating(ParamScalar.const(-l), alpha + beta + l + 1,
                                       alpha + 1, arg, l)
    return series.scale(gen_binomial(alpha + l, l))


def orthogonality_integral(k: int, l: int, alpha: int, beta: int) -> Fraction:
    """Exact integral of (1-x)^a (1+x)^b P_k P_l over [-1, 1] for integer
    nonnegative weights."""
    if alpha < 0 or beta < 0 or not isinstance(alpha, int) or not isinstance(beta, int):
        raise ValueError("only nonnegative integer weight parameters are supported")
    xv = x_var()
    one = GeoPoly.const(xv, 1)
    x = GeoPoly.var(xv, "x")
    weight = (one - x) ** alpha * (one + x) ** beta
    a = ParamScalar.const(alpha)
    b = ParamScalar.const(beta)
    prod = weight * jacobi(k, a, b) * jacobi(l, a, b)
    total = Fraction(0)
    for e, c in prod.coefficients().items():
        j = e[0]
        if j % 2 == 0:
            total += c.rational_value() * Fraction(2, j + 1)
    return total


def jacobi_norm_closed_form(l: int, alpha: int, beta: int) -> Fraction:
    """Right-hand side of the orthogonality relation at k = l, with the
    Gamma quotients expanded into factorials."""
    return (Fraction(2 ** (alpha + beta + 1), 2 * l + alpha + beta + 1)
            * Fraction(factorial(l + alpha) * factorial(l + beta),
                       factorial(l + alpha + beta) * factorial(l)))


# -- operators on the x-line -------------------------------------------------

def gegenbauer_ode_op(l: int, alpha) -> DiffOp:
    """(1-x^2) d^2 - (2a+1) x d + l(l+2a), annihilating C_l^a."""
    xv = x_var()
    return DiffOp(xv, {(2,): GeoPoly(xv, {(2,): -1, (0,): 1}),
                       (1,): GeoPoly(xv, {(1,): -(alpha * 2 + 1)}),
                       (0,): (alpha * 2 + l) * l})


def jacobi_ode_op(l: int, alpha, beta) -> DiffOp:
    """(1-x^2) d^2 + (b-a-(a+b+2)x) d + l(l+a+b+1), annihilating P_l^(a,b)."""
    xv = x_var()
    return DiffOp(xv, {(2,): GeoPoly(xv, {(2,): -1, (0,): 1}),
                       (1,): GeoPoly(xv, {(1,): -(alpha + beta + 2), (0,): beta - alpha}),
                       (0,): (alpha + beta + l + 1) * l})


def gegenbauer_lower_op(l: int) -> DiffOp:
    """(1-x^2) d + l x, sending C_l to (l+2a-1) C_{l-1}."""
    xv = x_var()
    return DiffOp(xv, {(1,): GeoPoly(xv, {(2,): -1, (0,): 1}), (0,): GeoPoly(xv, {(1,): l})})


def gegenbauer_raise_op(l: int, alpha) -> DiffOp:
    """(1-x^2) d - (l+2a) x, sending C_l to -(l+1) C_{l+1}."""
    xv = x_var()
    return DiffOp(xv, {(1,): GeoPoly(xv, {(2,): -1, (0,): 1}),
                       (0,): GeoPoly(xv, {(1,): -(alpha * 2 + l)})})


def gegenbauer_tilde_lower_op(l: int) -> DiffOp:
    """-2(t+1) d_t + l on the t-line."""
    tv = t_var()
    return DiffOp(tv, {(1,): GeoPoly(tv, {(1,): -2, (0,): -2}), (0,): l})


def gegenbauer_tilde_raise_op(l: int, alpha) -> DiffOp:
    """2t(t+1) d_t - l t - 2(l+a) on the t-line."""
    tv = t_var()
    return DiffOp(tv, {(1,): GeoPoly(tv, {(2,): 2, (1,): 2}),
                       (0,): GeoPoly(tv, {(1,): -l, (0,): -(alpha + l) * 2})})
