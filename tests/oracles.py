"""Test-side oracles: independent reference constructions for the library's
orthogonal polynomials (three-term recurrence, the Jacobi family in x as the
binomial double sum ``jacobi`` with ``gen_binomial``, its t-coefficients from
the top-seeded recursion ``jacobi_recursion_coeffs``, terminating 2F1 series,
ODEs, ladder operators, derivative formula, exact orthogonality, and the
x -> t conversion ``gegen_tilde_convert``), the specialization of a formal
scalar at a weight (``substitute``), the coefficient-wise derivative
(``derive``) and on it the reference fold of the operator products
(``ref_compose``, ``ref_apply``), the xi-model oracle of the
so-pair's ladder and Casimir in the n variables, with
the lowering operator and the Casimir cleared by q1 into polynomial
operators (``xi_ladder_ops``, ``xi_ladder_images``, ``casimir_composed``,
``casimir_closed_form``, and ``render_over_q1`` for the witness text of a
cleared value), the so-pair's singular-vector and t-line statements in the n
variables (``verify_singular``, ``t_model_poly``), and the builders of the
golden text tables ``goldens/*.txt``, keyed by file in ``GOLDEN_TABLES``.

Tests import it by name, as pytest puts ``tests/`` on the path;
``tools/deep_oracles.py`` imports it by path.
"""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, factorial, prod
from operator import mul

from vermabranch.cli import gegenbauer_lines
from vermabranch.diag_pair import (DiagContext, lowering_constant, op_F_fourier,
                                   singular_vector_Ptilde)
from vermabranch.orthopoly import falling_factorial, gegenbauer_tilde, rising_factorial
from vermabranch.packed import SYMBOLS, unpack
from vermabranch.polyring import (GeoPoly, curated_factors, invariant_expand, per_context,
                                  t_var, x_var)
from vermabranch.scalars import ALPHA, ParamPoly, ParamScalar
from vermabranch.so_pair import (XY, SoPairContext, casimir_ops, ladder_ops, model_ops,
                                 singular_vector_F)
from vermabranch.weylalg import DiffOp, proportionality
from vermabranch.xi_model import lowering_direction_op, op_P, op_Q


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


def gegen_tilde_convert(c: GeoPoly, l: int) -> GeoPoly:
    """x^{-l} C(x) as a polynomial in t via x^2 = -1/t, for C in x of degree
    l with the parity of l: the x^{l-2k} coefficient lands on (-t)^k.  The
    reference for :func:`gegenbauer_tilde`, which the library builds on the
    t-line directly."""
    def f(e):
        k, odd = divmod(l - e[0], 2)
        assert k >= 0 and not odd, f"degree-{e[0]} term in a degree-{l} polynomial"
        return (k,), (-1) ** k
    return c.relabel(t_var(), f)


def gen_binomial(z, k: int) -> ParamScalar:
    """binom(z, k) = z(z-1)...(z-k+1)/k! for integer k >= 0.

    Agrees with the Gamma-quotient continuation wherever that is defined and
    vanishes automatically at the integer points where it must.
    """
    if k < 0:
        raise ValueError("lower index must be a nonnegative integer")
    return falling_factorial(z, k) / factorial(k)


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


# -- operators on the x-line and the t-line ----------------------------------

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


def gegenbauer_tilde_raise_op(l: int, alpha) -> DiffOp:
    """2t(t+1) d_t - l t - 2(l+a) on the t-line."""
    tv = t_var()
    return DiffOp(tv, {(1,): GeoPoly(tv, {(2,): 2, (1,): 2}),
                       (0,): GeoPoly(tv, {(1,): -l, (0,): -(alpha + l) * 2})})


# -- the so-pair's ladder and Casimir in the xi-model ---------------------------
# The library checks these in the two-variable invariant model; here they act
# on the n Fourier variables.  The paper's lowering operator f(l) has
# coefficients over q1, and so has its Casimir; both enter cleared by q1, as
# the polynomial operators f~(l) = q1 f(l) and q1 Cas, and every identity
# with them is multiplied by q1.

@per_context
def xi_ladder_ops(ctx: SoPairContext, l: int):
    """(e, f~, h) at degree l: e = -q d_n - (2a+l) xn and the cleared
    f~ = q d_n - l xn of the localized f = (q/q1) d_n - l xn/q1; since
    q = q1 + xn^2, xn f~ = q (xn d_n - l) + l q1."""
    vs, n, xn, q = ctx.vars, ctx.n, ctx.xn(), ctx.q_full()
    dn, e0 = (0,) * (n - 1) + (1,), (0,) * n
    e_op = DiffOp(vs, {dn: -q, e0: xn.scale(-(ctx.alpha * 2 + l))})
    f_op = DiffOp(vs, {dn: q, e0: xn.scale(-l)})
    h_op = DiffOp.scalar(vs, (ctx.alpha + l) * 2)
    return e_op, f_op, h_op


@per_context
def xi_ladder_images(ctx: SoPairContext, l: int):
    """(e(l) F_l, f~(l) F_l, f~(l+1) e(l) F_l, e(l-1) f~(l) F_l), the last
    three cleared by q1; the last is zero at l = 0."""
    e_l, f_l, _ = xi_ladder_ops(ctx, l)
    f = singular_vector_F(ctx, l)
    ev, fv = e_l.apply(f), f_l.apply(f)
    return ev, fv, xi_ladder_ops(ctx, l + 1)[1].apply(ev), xi_ladder_ops(ctx, l - 1)[0].apply(fv)


def render_over_q1(p: GeoPoly) -> str:
    """The text of p / q1 for a polynomial p in the xi variables: the
    quotient where q1 divides p, else ``(p) / [q1]``."""
    q = p.exact_divide(curated_factors(p.vars)["q1"])
    return q.render() if q is not None else f"({p.render()}) / [q1]"


def casimir_closed_form(ctx: SoPairContext, l: int) -> DiffOp:
    """q1 times the displayed closed form of the Casimir at degree l,
    -2 (q^2 d_n^2 + (2a+1) q xn d_n + a q1 - (2a+l) l xn^2) + q1 2 (E+a)^2."""
    vs, n, alpha = ctx.vars, ctx.n, ctx.alpha
    xn, q, q1 = ctx.xn(), ctx.q_full(), ctx.q_prime()
    mid = q1.scale(alpha) - (xn * xn).scale((alpha * 2 + l) * l)
    d = (0,) * (n - 1)
    cleared = DiffOp(vs, {d + (2,): (q * q).scale(-2),
                          d + (1,): (q * xn).scale((alpha * 2 + 1) * -2),
                          d + (0,): mid.scale(-2)})
    return cleared + DiffOp.mult(q1) @ _euler_shift_square(ctx)


@per_context
def _euler_shift_square(ctx: SoPairContext) -> DiffOp:
    """2 (E+a)^2, the degree-free tail of the Casimir's closed form."""
    euler_shift = DiffOp.euler(ctx.vars) + DiffOp.scalar(ctx.vars, ctx.alpha)
    return (euler_shift @ euler_shift).scale(2)


def casimir_composed(ctx: SoPairContext, l: int) -> DiffOp:
    """q1 (f(l+1) e(l) + e(l-1) f(l) + (1/2) h(l)^2) = f~(l+1) e(l) +
    e(l-1) f~(l) + (1/2) q1 h(l)^2, as q1 commutes with e = -q d_n - (2a+l) xn;
    at l = 0 the leg e(-1) f~(0) annihilates the bottom weight F_0."""
    e_l, f_l, h_l = xi_ladder_ops(ctx, l)
    f_up, e_dn = xi_ladder_ops(ctx, l + 1)[1], xi_ladder_ops(ctx, l - 1)[0]
    return f_up @ e_l + e_dn @ f_l + DiffOp.mult(ctx.q_prime()) @ (h_l @ h_l).scale(Fraction(1, 2))


def model_operator_pairs(ctx: SoPairContext, degrees):
    """(name, reduced operator, xi-model operator, factor) for P, Q, E, the
    Laplacian, G once for each primed direction m, and e, f~, h and both
    cleared Casimirs at each degree, where the xi-model operator applied to
    the expansion is the factor times the expansion of the reduced image:
    f~ and the Casimirs are cleared by q1 on both sides, and G pairs with the
    primed lowering direction L_m and the factor x_m."""
    vs, ops = ctx.vars, model_ops(ctx)
    one = GeoPoly.const(vs, 1)
    pairs = [("P", ops["P"], op_P(ctx), one), ("Q", ops["Q"], op_Q(ctx), one),
             ("E", ops["E"], DiffOp.euler(vs), one),
             ("laplacian", ops["lap"], DiffOp.laplacian(vs), one)]
    pairs += [(f"G.{vs.names[m]}", ops["G"], lowering_direction_op(ctx, m),
               GeoPoly.var(vs, vs.names[m])) for m in range(ctx.n - 1)]
    for l in degrees:
        (e, f, h), (e_xi, f_xi, h_xi) = ladder_ops(ctx, l), xi_ladder_ops(ctx, l)
        composed, closed = casimir_ops(ctx, l)
        pairs += [(f"e({l})", e, e_xi, one), (f"f~({l})", f, f_xi, one),
                  (f"h({l})", h, h_xi, one),
                  (f"casimir({l})", composed, casimir_composed(ctx, l), one),
                  (f"closed-form({l})", closed, casimir_closed_form(ctx, l), one)]
    return pairs


def intertwining_failures(ctx: SoPairContext, weight: int, degrees):
    """(operator, i, k) for each pair of :func:`model_operator_pairs` and each
    model monomial x^i y^k of weight i + 2k <= weight where
    factor * expand(T_model x^i y^k) != T_xi expand(x^i y^k)."""
    out = []
    for name, t, t_xi, factor in model_operator_pairs(ctx, degrees):
        for k in range(weight // 2 + 1):
            for i in range(weight - 2 * k + 1):
                m = GeoPoly(XY, {(i, k): 1})
                if factor * invariant_expand(ctx.vars, t.apply(m)) \
                        != t_xi.apply(invariant_expand(ctx.vars, m)):
                    out.append((name, i, k))
    return out


# -- the so-pair's statements in the n variables ------------------------------
# The library checks the singular vectors and reads the t-line polynomials in
# the invariant model; these read the same statements off the expansion.

def verify_singular(ctx: SoPairContext, f: GeoPoly) -> bool:
    """True iff all n-1 primed-direction operators annihilate the vector."""
    return all(lowering_direction_op(ctx, m).apply(f).is_zero() for m in range(ctx.n - 1))


def t_model_poly(f: GeoPoly) -> GeoPoly:
    """Collapse F_l = sum c_k xn^{l-2k} q'^k to sum c_k t^k, reading c_k on
    x1^{2k} xn^{l-2k}, where q'^k has coefficient one, and dropping the rest."""
    return f.relabel(t_var(), lambda e: None if any(e[1:-1]) else ((e[0] // 2,), 1))


# -- specialization and derivatives -------------------------------------------
# The library specializes a family by building it at the weight itself; these
# specialize a formal result after the fact, and differentiate coefficient by
# coefficient, for the tests that compare the two ways.

def _substitute_poly(p: ParamPoly, bindings) -> ParamScalar:
    """p with bound symbols replaced, each power read from one table per symbol."""
    exps = {k: unpack(k, len(SYMBOLS)) for k in p.terms}
    tables = []
    for i, s in enumerate(SYMBOLS):
        base = ParamScalar.coerce(bindings.get(s, ParamPoly.symbol(s)))
        tables.append([ParamScalar.const(1)])
        for _ in range(max((e[i] for e in exps.values()), default=0)):
            tables[-1].append(tables[-1][-1] * base)
    out = ParamScalar.const(0)
    for k, c in p.terms.items():
        out = out + reduce(mul, (t[x] for t, x in zip(tables, exps[k]) if x),
                           ParamScalar.const(c))
    return out


def substitute(v: ParamScalar, bindings) -> ParamScalar:
    """v with the symbols bound in ``bindings`` (a name of a, l, m to an int,
    Fraction, ParamPoly or ParamScalar) replaced; unbound symbols stay formal.

    Raises KeyError on an unknown symbol, and ZeroDivisionError naming the
    binding if the denominator vanishes under it.
    """
    for s in bindings:
        if s not in SYMBOLS:
            raise KeyError(f"unknown parameter symbol {s!r}")
    num, den = _substitute_poly(v.num, bindings), _substitute_poly(v.den, bindings)
    if den.is_zero():
        names = ", ".join(f"{s}={ParamScalar.coerce(b).render()}" for s, b in bindings.items())
        raise ZeroDivisionError(f"denominator vanishes under binding {names}")
    return num / den


def derive(p: GeoPoly, var) -> GeoPoly:
    """d p / d var for a variable name or index, built coefficient by
    coefficient through the GeoPoly constructor."""
    i = var if isinstance(var, int) else p.vars.index(var)
    return GeoPoly(p.vars, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                            for e, c in p.coefficients().items() if e[i]})


# -- the reference fold of the operator products ------------------------------
# compose, commutator and apply_rat run one packed Leibniz loop.  The plain
# fold below enumerates k <= ea and its binomials itself, not from the
# library's table, takes D^k one :func:`derive` at a time, forms every
# product with GeoPoly.__mul__ and adds it through DiffOp.__add__; the two
# must agree term for term, down to the rendered form of every coefficient.

def ref_compose(a: DiffOp, b: DiffOp) -> DiffOp:
    out = DiffOp.zero(a.vars)
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            for k in product(*(range(x + 1) for x in ea)):
                binomial = prod(comb(x, ki) for x, ki in zip(ea, k))
                dc = cb
                for i, ki in enumerate(k):
                    for _ in range(ki):
                        dc = derive(dc, i)
                    if dc.is_zero():
                        break
                if dc.is_zero():
                    continue
                e = tuple(x - ki + y for x, ki, y in zip(ea, k, eb))
                out = out + DiffOp(a.vars, {e: (ca * dc).scale(binomial)})
    return out


def ref_apply(op: DiffOp, p: GeoPoly) -> GeoPoly:
    out = GeoPoly.zero(op.vars)
    for e, c in op.terms.items():
        dp = p
        for i, ei in enumerate(e):
            for _ in range(ei):
                dp = derive(dp, i)
        if not dp.is_zero():
            out = out + c * dp
    return out


# -- golden tables ------------------------------------------------------------

def f_vector_table(n: int, max_degree: int) -> str:
    ctx = SoPairContext.formal(n)
    lines = [f"F_{l} = {singular_vector_F(ctx, l).render()}"
             for l in range(max_degree + 1)]
    return "\n".join(lines) + "\n"


def gegenbauer_table(max_degree: int) -> str:
    lines = gegenbauer_lines(max_degree)
    for l in range(max_degree + 1):
        lines.append(f"C~_{l} = {gegenbauer_tilde(l, ALPHA).render()}")
    return "\n".join(lines) + "\n"


def q_action_table(n: int, max_degree: int) -> str:
    ctx = SoPairContext.formal(n)
    q = op_Q(ctx)
    lines = []
    for l in range(max_degree + 1):
        src = singular_vector_F(ctx, l)
        img = q.apply(src)
        c = proportionality(img, singular_vector_F(ctx, l + 1))
        lines.append(f"Q(F_{l}) = ({c.render()}) * F_{l + 1}")
        lines.append(f"       = {img.render()}")
    return "\n".join(lines) + "\n"


def jacobi_table(max_degree: int) -> str:
    ctx = DiagContext.formal()
    lines = [f"P~_{l} = {singular_vector_Ptilde(ctx, l).render()}"
             for l in range(max_degree + 1)]
    return "\n".join(lines) + "\n"


def lowering_table(max_degree: int) -> str:
    ctx = DiagContext.formal()
    f_hat = op_F_fourier(ctx)
    lines = []
    for l in range(1, max_degree + 1):
        img = f_hat.apply(singular_vector_Ptilde(ctx, l))
        c = lowering_constant(ctx, l)
        lines.append(f"F(P~_{l}) = ({c.render()}) * P~_{l - 1}")
        lines.append(f"        = {img.render()}")
    return "\n".join(lines) + "\n"


GOLDEN_TABLES = {
    "f_vectors.txt": lambda: f_vector_table(3, 4),
    "gegenbauer.txt": lambda: gegenbauer_table(3),
    "q_actions.txt": lambda: q_action_table(3, 3),
    "jacobi.txt": lambda: jacobi_table(3),
    "lowering.txt": lambda: lowering_table(3),
}
