"""The orthogonal-pair scenario: singular vectors built from Gegenbauer
polynomials in n Fourier variables, the degree-lowering operator P, the
enveloping-algebra raising operator Q, the localized sl(2) ladder e/f/h, the
Casimir, and the non-closure commutators.

The conventional global factor i on the nilradical action is dropped
throughout: all operators here are the rational-scalar versions, which leaves
every mapping statement and every recorded constant intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Tuple

from .orthopoly import GegenbauerSpec, gegenbauer
from .polyring import (GeoPoly, RatCoeff, VarSet, curated_factors,
                       gegen_tilde_convert, xi_vars)
from .report import DISCREPANCY, ReportBundle, VerificationRecord
from .scalars import ParamScalar
from .weylalg import DiffOp, proportionality

ALPHA_SYMBOL = "a"


@dataclass(frozen=True)
class SoPairContext:
    """Dimension n >= 2 and the inducing character (formal by default).
    ``_memo``, not a field, keeps the families built from this context."""

    n: int
    lam: ParamScalar

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})

    @staticmethod
    def formal(n: int) -> "SoPairContext":
        return SoPairContext(n, ParamScalar.symbol("l"))

    @staticmethod
    def at(n: int, lam) -> "SoPairContext":
        return SoPairContext(n, ParamScalar.coerce(lam))

    @property
    def vars(self) -> VarSet:
        return xi_vars(self.n)

    @property
    def alpha(self) -> ParamScalar:
        return -self.lam - Fraction(self.n - 1, 2)

    def xn(self) -> GeoPoly:
        return curated_factors(self.vars)["xn"]

    def q_prime(self) -> GeoPoly:
        return curated_factors(self.vars)["q1"]

    def q_full(self) -> GeoPoly:
        return curated_factors(self.vars)["q"]


@dataclass(frozen=True)
class SingularVector:
    l: int
    poly: GeoPoly


def _tilde_coeffs(ctx: SoPairContext, l: int) -> List[ParamScalar]:
    """Coefficients (in t) of the converted Gegenbauer polynomial, with the
    spectral parameter specialized to -lam-(n-1)/2."""
    c = gegenbauer(GegenbauerSpec(l, ParamScalar.symbol(ALPHA_SYMBOL)))
    tilde = gegen_tilde_convert(c, l)
    out = []
    for k in range(l // 2 + 1):
        out.append(tilde.coefficient((k,)).substitute({ALPHA_SYMBOL: ctx.alpha}))
    return out


def _top_normalization(l: int) -> Fraction:
    """Target coefficient l!/(2^k k!) at the highest quadratic-invariant
    power k = floor(l/2)."""
    k = l // 2
    return Fraction(factorial(l), 2 ** k * factorial(k))


def singular_vector_F(ctx: SoPairContext, l: int) -> SingularVector:
    """Normalized degree-l singular vector: the coefficient of
    xn^{l-2k} (sum' xi^2)^k at k = floor(l/2) equals l!/(2^k k!)."""
    hit = ctx._memo.get(("F", l))
    if hit is not None:
        return hit
    if l < 0:
        raise ValueError("degree must be nonnegative")
    coeffs = _tilde_coeffs(ctx, l)
    top = coeffs[l // 2]
    if top.is_zero():
        raise ZeroDivisionError(
            f"normalization divisor vanishes at degree {l} for lam={ctx.lam.render()}")
    scale = ParamScalar.const(_top_normalization(l)) / top
    xn = ctx.xn()
    q1 = ctx.q_prime()
    out = GeoPoly.zero(ctx.vars)
    for k, c in enumerate(coeffs):
        out = out + (xn ** (l - 2 * k) * q1 ** k).scale(c * scale)
    ctx._memo[("F", l)] = vec = SingularVector(l, out)
    return vec


def lowering_direction_op(ctx: SoPairContext, m: int) -> DiffOp:
    """Quadratic nilradical action in direction m (0-based index):
    (1/2) x_m Laplacian + (lam - Euler) d_m."""
    vs = ctx.vars
    xm = GeoPoly.var(vs, vs.names[m])
    return (DiffOp.mult(xm.scale(Fraction(1, 2))) @ DiffOp.laplacian(vs)
            + (DiffOp.scalar(vs, ctx.lam) - DiffOp.euler(vs)) @ DiffOp.partial(vs, m))


def op_P(ctx: SoPairContext) -> DiffOp:
    """Degree-lowering action of the complementary root space (the i-free
    version)."""
    return lowering_direction_op(ctx, ctx.n - 1)


def verify_singular(ctx: SoPairContext, v: SingularVector) -> bool:
    """True iff all n-1 primed-direction operators annihilate the vector."""
    for m in range(ctx.n - 1):
        if not lowering_direction_op(ctx, m).apply(v.poly).is_zero():
            return False
    return True


def op_Q(ctx: SoPairContext) -> DiffOp:
    """The enveloping-algebra raising operator
    (sum' xi^2) P - (lam - E + 2)(n + 2 lam - 2E + 1) xn."""
    vs = ctx.vars
    e = DiffOp.euler(vs)
    lam = ctx.lam
    first = DiffOp.mult(ctx.q_prime()) @ op_P(ctx)
    a = DiffOp.scalar(vs, lam + 2) - e
    b = DiffOp.scalar(vs, lam * 2 + (ctx.n + 1)) - e.scale(2)
    return first - (a @ b @ DiffOp.mult(ctx.xn()))


def ladder_ops(ctx: SoPairContext, l: int) -> Tuple[DiffOp, DiffOp, DiffOp]:
    """(e, f, h) at degree l; f carries the curated localized coefficients."""
    hit = ctx._memo.get(("ladder", l))
    if hit is not None:
        return hit
    vs = ctx.vars
    alpha = ctx.alpha
    xn = ctx.xn()
    q = ctx.q_full()
    e_op = -(DiffOp.mult(q) @ DiffOp.partial(vs, ctx.n - 1)) \
        - DiffOp.mult(xn.scale(alpha * 2 + l))
    inner = (DiffOp.mult_rat(RatCoeff(q, {"q1": 1}))
             @ (DiffOp.mult(xn) @ DiffOp.partial(vs, ctx.n - 1) - DiffOp.scalar(vs, l))
             + DiffOp.scalar(vs, l))
    f_op = DiffOp.mult_rat(RatCoeff(GeoPoly.const(vs, 1), {"xn": 1})) @ inner
    h_op = DiffOp.scalar(vs, (alpha + l) * 2)
    ctx._memo[("ladder", l)] = ops = (e_op, f_op, h_op)
    return ops


def e_euler_form(ctx: SoPairContext) -> DiffOp:
    """The raising operator with the degree index promoted to the Euler
    operator: -(sum xi^2) d_n - (E - 1 + 2a) xn."""
    vs = ctx.vars
    shift = DiffOp.euler(vs) + DiffOp.scalar(vs, ctx.alpha * 2 - 1)
    return -(DiffOp.mult(ctx.q_full()) @ DiffOp.partial(vs, ctx.n - 1)) \
        - (shift @ DiffOp.mult(ctx.xn()))


def expected_ladder_constants(ctx: SoPairContext, l: int) -> Tuple[ParamScalar, ParamScalar]:
    """(e-constant, f-constant) at degree l per the ladder diagram:
    even degrees raise by -(2a+l) and lower by l(2a+l-1); odd degrees raise
    by -1 and lower by l."""
    alpha = ctx.alpha
    if l % 2 == 0:
        return -(alpha * 2 + l), (alpha * 2 + (l - 1)) * l
    return ParamScalar.const(-1), ParamScalar.const(l)


@dataclass
class LadderReport:
    bundle: ReportBundle
    e_constants: Dict[int, str]
    f_constants: Dict[int, str]


def verify_sl2(ctx: SoPairContext, max_degree: int) -> LadderReport:
    """Check the ladder structure degree by degree by exact application."""
    bundle = ReportBundle()
    anchor = "so-pair:sl2-ladder"
    fs = [singular_vector_F(ctx, l) for l in range(max_degree + 2)]
    e_consts: Dict[int, str] = {}
    f_consts: Dict[int, str] = {}
    for l in range(max_degree + 1):
        e_l, f_l, h_l = ladder_ops(ctx, l)
        tag = f"n={ctx.n},l={l}"

        ev = e_l.apply(fs[l].poly)
        ce = proportionality(ev, fs[l + 1].poly)
        exp_e, exp_f = expected_ladder_constants(ctx, l)
        bundle.check(f"sl2.raise.{tag}", anchor, ce is not None and ce == exp_e,
                     witness=ev.render())
        if ce is not None:
            e_consts[l] = ce.render()
            bundle.check(f"sl2.raise-nonzero.{tag}", "so-pair:verma-structure",
                         not ce.is_zero(), witness=ce.render())

        fv = f_l.apply_rat(fs[l].poly)
        bundle.check(f"sl2.lower-polynomial.{tag}", "so-pair:localized-f",
                     fv.is_polynomial(), witness=fv.render())
        if l == 0:
            bundle.check(f"sl2.lower.{tag}", anchor, fv.is_polynomial() and fv.num.is_zero(),
                         witness=fv.render())
        elif fv.is_polynomial():
            cf = proportionality(fv.as_poly(), fs[l - 1].poly)
            bundle.check(f"sl2.lower.{tag}", anchor, cf is not None and cf == exp_f,
                         witness=fv.render())
            if cf is not None:
                f_consts[l] = cf.render()

        # bracket on the weight vector: (f(l+1) e(l) - e(l-1) f(l)) F_l = -h(l) F_l
        _, f_up, _ = ladder_ops(ctx, l + 1)
        bra = f_up.apply_rat(e_l.apply(fs[l].poly))
        if l > 0:
            e_dn, _, _ = ladder_ops(ctx, l - 1)
            sub = e_dn.apply(f_l.apply(fs[l].poly))
            bra = bra - RatCoeff(sub)
        ok = bra.is_polynomial() and bra.as_poly() == fs[l].poly.scale(-(ctx.alpha + l) * 2)
        bundle.check(f"sl2.bracket.{tag}", anchor, ok, witness=bra.render())

        # h eigenvalue and weight-space dimension bookkeeping
        bundle.check(f"sl2.h-eigenvalue.{tag}", anchor,
                     h_l.apply(fs[l].poly) == fs[l].poly.scale((ctx.alpha + l) * 2))
        bundle.check(f"sl2.homogeneous.{tag}", "so-pair:weight-spaces",
                     fs[l].poly.is_homogeneous() and fs[l].poly.degree() == l)

        # product of consecutive constants: (ef - fe) eigenvalue on F_l
        if l in e_consts:
            up = ParamScalar.coerce(0)
            cf_up = expected_ladder_constants(ctx, l + 1)[1]
            up = exp_e * cf_up
            down = ParamScalar.const(0)
            if l > 0:
                down = exp_f * expected_ladder_constants(ctx, l - 1)[0]
            bundle.check(f"sl2.weight-consistency.{tag}", "so-pair:ladder-diagram",
                         up - down == -(ctx.alpha + l) * 2,
                         witness=(up - down).render())
    return LadderReport(bundle, e_consts, f_consts)


def casimir_closed_form(ctx: SoPairContext, l: int) -> DiffOp:
    """The displayed closed form of the Casimir at degree l (with the
    Euler-squared tail)."""
    vs = ctx.vars
    alpha = ctx.alpha
    xn = ctx.xn()
    q = ctx.q_full()
    q1 = ctx.q_prime()
    dn = DiffOp.partial(vs, ctx.n - 1)
    term1 = DiffOp.mult_rat(RatCoeff(q * q, {"q1": 1})).scale(-2) @ dn @ dn
    term2 = DiffOp.mult_rat(RatCoeff(q * xn, {"q1": 1})).scale((alpha * 2 + 1) * -2) @ dn
    mid = q1.scale(alpha) - (xn * xn).scale((alpha * 2 + l) * l)
    term3 = DiffOp.mult_rat(RatCoeff(mid, {"q1": 1})).scale(-2)
    euler_shift = DiffOp.euler(vs) + DiffOp.scalar(vs, alpha)
    term4 = (euler_shift @ euler_shift).scale(2)
    return term1 + term2 + term3 + term4


def casimir_composed(ctx: SoPairContext, l: int) -> DiffOp:
    """f(l+1) e(l) + e(l-1) f(l) + (1/2) h(l)^2, with the l = 0 lowering leg
    dropped (it annihilates the bottom weight)."""
    e_l, f_l, h_l = ladder_ops(ctx, l)
    _, f_up, _ = ladder_ops(ctx, l + 1)
    out = f_up @ e_l
    if l >= 1:
        e_dn, _, _ = ladder_ops(ctx, l - 1)
        out = out + e_dn @ f_l
    return out + (h_l @ h_l).scale(Fraction(1, 2))


def casimir_check(ctx: SoPairContext, max_degree: int) -> ReportBundle:
    bundle = ReportBundle()
    anchor = "so-pair:casimir"
    eig = ctx.alpha * (ctx.alpha - 1) * 2
    for l in range(max_degree + 1):
        f = singular_vector_F(ctx, l)
        tag = f"n={ctx.n},l={l}"
        comp = casimir_composed(ctx, l).apply_rat(f.poly)
        ok = comp.is_polynomial() and comp.as_poly() == f.poly.scale(eig)
        bundle.check(f"casimir.scalar.{tag}", anchor, ok, witness=comp.render())
        closed = casimir_closed_form(ctx, l).apply_rat(f.poly)
        okc = closed.is_polynomial() and closed.as_poly() == f.poly.scale(eig)
        bundle.check(f"casimir.closed-form.{tag}", anchor, okc, witness=closed.render())
        # (ef + fe) F_l = (Cas - h^2/2) F_l: the computable shadow of the
        # relative Dirac square
        e_l, f_l, h_l = ladder_ops(ctx, l)
        _, f_up, _ = ladder_ops(ctx, l + 1)
        effe = f_up.apply_rat(e_l.apply(f.poly))
        if l >= 1:
            e_dn, _, _ = ladder_ops(ctx, l - 1)
            effe = effe + RatCoeff(e_dn.apply(f_l.apply(f.poly)))
        rhs = f.poly.scale(eig - (ctx.alpha + l) * (ctx.alpha + l) * 2)
        okd = effe.is_polynomial() and effe.as_poly() == rhs
        bundle.check(f"casimir.dirac-square.{tag}", "dirac:relative-square", okd,
                     witness=effe.render())
    return bundle


def pq_membership_check(ctx: SoPairContext, max_degree: int) -> ReportBundle:
    """P lowers and Q raises along the singular-vector family, with the
    t-model transport of the P constants."""
    bundle = ReportBundle()
    fs = [singular_vector_F(ctx, l) for l in range(max_degree + 2)]
    p = op_P(ctx)
    q = op_Q(ctx)
    for l in range(max_degree + 1):
        tag = f"n={ctx.n},l={l}"
        pv = p.apply(fs[l].poly)
        if l == 0:
            bundle.check(f"pq.lower.{tag}", "so-pair:lowering-operator", pv.is_zero(),
                         witness=pv.render())
        else:
            c = proportionality(pv, fs[l - 1].poly)
            bundle.check(f"pq.lower.{tag}", "so-pair:lowering-operator", c is not None,
                         witness=pv.render())
            if c is not None:
                bundle.data[f"pq.lower-constant.{tag}"] = c.render()
        qv = q.apply(fs[l].poly)
        c = proportionality(qv, fs[l + 1].poly)
        bundle.check(f"pq.raise.{tag}", "so-pair:raising-operator", c is not None,
                     witness=qv.render())
        if c is not None:
            bundle.data[f"pq.raise-constant.{tag}"] = c.render()
    return bundle


def t_model_poly(v: SingularVector) -> GeoPoly:
    """Collapse F_l = sum c_k xn^{l-2k} q'^k to sum c_k t^k."""
    from .polyring import t_var
    tv = t_var()
    arity = v.poly.vars.arity
    out: Dict[Tuple[int, ...], ParamScalar] = {}
    for k in range(v.l // 2 + 1):
        # the x1^{2k} xn^{l-2k} monomial carries the q'^k coefficient with
        # multiplicity one
        probe = [0] * arity
        probe[0] = 2 * k
        probe[-1] += v.l - 2 * k
        out[(k,)] = v.poly.coefficient(tuple(probe))
    return GeoPoly(tv, out)


def t_model_check(ctx: SoPairContext, max_degree: int) -> ReportBundle:
    """Commutativity of the square between the xi-model and the t-line
    operator -2(t+1) d_t + l.

    The t-line operator is the exact transport of the localized lowering
    operator f(l): its proportionality constant on the collapsed vectors
    matches the recorded f-ladder constant.  On the unnormalized converted
    Gegenbauer family it produces (l+2a-1).  The enveloping-algebra lowering
    operator maps along the same arrows; its constant picks up an extra
    factor, recorded as data.
    """
    from .orthopoly import gegenbauer, gegenbauer_tilde_lower_op
    bundle = ReportBundle()
    anchor = "so-pair:t-model"
    fs = [singular_vector_F(ctx, l) for l in range(max_degree + 1)]
    p = op_P(ctx)
    asym = ParamScalar.symbol(ALPHA_SYMBOL)
    for l in range(max_degree + 1):
        tag = f"n={ctx.n},l={l}"
        g_l = t_model_poly(fs[l])
        image = gegenbauer_tilde_lower_op(l).apply(g_l)
        pv = p.apply(fs[l].poly)
        # unnormalized family: the ladder constant (l+2a-1)
        tilde_l = gegen_tilde_convert(gegenbauer(GegenbauerSpec(l, asym)), l) \
            .substitute_params({ALPHA_SYMBOL: ctx.alpha})
        t_img = gegenbauer_tilde_lower_op(l).apply(tilde_l)
        if l == 0:
            bundle.check(f"tmodel.f-square.{tag}", anchor,
                         image.is_zero() and pv.is_zero())
            bundle.check(f"tmodel.tilde.{tag}", anchor, t_img.is_zero())
            continue
        tilde_dn = gegen_tilde_convert(gegenbauer(GegenbauerSpec(l - 1, asym)), l - 1) \
            .substitute_params({ALPHA_SYMBOL: ctx.alpha})
        c_tilde = proportionality(t_img, tilde_dn)
        bundle.check(f"tmodel.tilde.{tag}", anchor,
                     c_tilde is not None and c_tilde == ctx.alpha * 2 + (l - 1),
                     witness=t_img.render())
        g_dn = t_model_poly(fs[l - 1])
        c_t = proportionality(image, g_dn)
        exp_f = expected_ladder_constants(ctx, l)[1]
        bundle.check(f"tmodel.f-square.{tag}", anchor,
                     c_t is not None and c_t == exp_f,
                     witness=None if c_t is None else c_t.render())
        c_xi = proportionality(pv, fs[l - 1].poly)
        bundle.check(f"tmodel.p-membership.{tag}", "so-pair:lowering-operator",
                     c_xi is not None, witness=pv.render())
        if c_t is not None and c_xi is not None and not c_t.is_zero():
            bundle.data[f"tmodel.p-over-f-constant.{tag}"] = (c_xi / c_t).render()
    return bundle


def _pq_commutator_display(ctx: SoPairContext) -> DiffOp:
    """Transcription of the displayed right-hand side of [P, Q]."""
    vs = ctx.vars
    lam = ctx.lam
    n = ctx.n
    e = DiffOp.euler(vs)
    xn = ctx.xn()
    q1 = ctx.q_prime()
    dn = DiffOp.partial(vs, ctx.n - 1)
    lap = DiffOp.laplacian(vs)
    s = lambda c: DiffOp.scalar(vs, c)

    lam_m_e = s(lam) - e
    t1 = (s(lam * 4 + 10) + e.scale(2)).scale(Fraction(-1, 2)) @ DiffOp.mult(xn * xn) @ lap
    bracket = ((e.scale(2) + s(n - 3)) @ (s(lam + 1) - e)
               + (lam_m_e + s(2)) @ (s(lam * 2 + (n + 1)) - e.scale(2))
               - lam_m_e @ (s(lam * 4 + (n + 3)) - e.scale(4))
               - (s(lam * 4 + (n + 7)) + e.scale(4)))
    t2 = bracket @ DiffOp.mult(xn) @ dn
    t3 = -(DiffOp.mult(q1 + xn * xn) @ (DiffOp.mult(xn) @ dn + s(1)) @ lap)
    t4 = ((s(lam + 1) - e).scale(-2)) @ DiffOp.mult(q1 + xn * xn) @ dn @ dn
    t5 = -(lam_m_e @ ((lam_m_e + s(2)) @ (s(lam * 2 + (n + 1)) - e.scale(2))
                      - (s(lam * 4 + (n + 3)) - e.scale(4))))
    return t1 + t2 + t3 + t4 + t5


def _e_p_commutator_display(ctx: SoPairContext) -> DiffOp:
    """Transcription of the displayed [e-Euler-form, P] right-hand side."""
    vs = ctx.vars
    lam = ctx.lam
    n = ctx.n
    e = DiffOp.euler(vs)
    xn = ctx.xn()
    q1 = ctx.q_prime()
    dn = DiffOp.partial(vs, ctx.n - 1)
    lap = DiffOp.laplacian(vs)
    s = lambda c: DiffOp.scalar(vs, c)
    alpha = ctx.alpha
    return (DiffOp.mult(q1.scale(Fraction(-1, 2))) @ lap
            - DiffOp.mult(q1) @ dn @ dn
            + DiffOp.mult((xn * xn).scale(Fraction(1, 2))) @ lap
            + (s(lam + n) + e) @ DiffOp.mult(xn) @ dn
            + (e + s(alpha * 2)) @ (s(lam) - e))


def verify_nonclosure(ctx: SoPairContext, degrees=(0, 1, 2)) -> ReportBundle:
    """Exact non-closure checks plus term-level diffs against the displayed
    commutators (reported as data, never asserted)."""
    bundle = ReportBundle()
    p = op_P(ctx)
    q = op_Q(ctx)
    pq = p.commutator(q)
    # [P, Q] stabilizes every one-dimensional span <F_l>, so it acts on each
    # by some scalar; the sharp non-closure statement is that no single
    # scalar (and no affine-in-degree weight, as an sl(2) bracket would
    # require) fits the whole family.
    eigs: List[ParamScalar] = []
    for l in degrees:
        f = singular_vector_F(ctx, l)
        img = pq.apply(f.poly)
        c = proportionality(img, f.poly)
        tag = f"n={ctx.n},l={l}"
        bundle.check(f"nonclosure.pq-eigenvalue.{tag}", "so-pair:pq-commutator",
                     c is not None, witness=img.render())
        if c is not None:
            eigs.append(c)
            bundle.data[f"nonclosure.pq-eigenvalue.{tag}"] = c.render()
    for l, c in zip(degrees, eigs):
        others = [d for d in eigs if not (d == c)]
        bundle.check(f"nonclosure.pq.n={ctx.n},l={l}", "so-pair:pq-commutator",
                     len(others) > 0,
                     witness=f"eigenvalue {c.render()} shared by the whole family")
    if len(eigs) >= 3:
        second_diff = eigs[2] - eigs[1] * 2 + eigs[0]
        bundle.check(f"nonclosure.pq-not-affine.n={ctx.n}", "so-pair:pq-commutator",
                     not second_diff.is_zero(), witness=second_diff.render())
    bundle.check(f"nonclosure.pq-not-identity.n={ctx.n}", "so-pair:pq-commutator",
                 pq.order() > 0, witness=pq.render())
    ep = e_euler_form(ctx).commutator(p)
    bundle.check(f"nonclosure.ep-order.n={ctx.n}", "so-pair:ep-commutator",
                 ep.order() == 2, witness=ep.render())

    for name, computed, displayed in (
            ("pq", pq, _pq_commutator_display(ctx)),
            ("ep", ep, _e_p_commutator_display(ctx))):
        diff = computed - displayed
        status = "agrees" if diff.is_zero() else f"residual: {diff.render()}"
        bundle.data[f"nonclosure.display-diff.{name}.n={ctx.n}"] = status
        bundle.add(VerificationRecord(
            f"nonclosure.display-diff.{name}.n={ctx.n}",
            "so-pair:displayed-commutators",
            "pass" if diff.is_zero() else DISCREPANCY,
            None if diff.is_zero() else diff.render()))
    return bundle


def singular_family_check(ctx: SoPairContext, max_degree: int) -> ReportBundle:
    bundle = ReportBundle()
    for l in range(max_degree + 1):
        f = singular_vector_F(ctx, l)
        bundle.check(f"singular.annihilated.n={ctx.n},l={l}", "so-pair:singular-pde",
                     verify_singular(ctx, f), witness=f.poly.render())
    return bundle
