"""The orthogonal-pair scenario: singular vectors built from Gegenbauer
polynomials in n Fourier variables, the degree-lowering operator P, the
enveloping-algebra raising operator Q, the sl(2) ladder e/f/h, the Casimir,
and the non-closure commutators.

The operators commute with O(n-1), so F_l lies in the span of xn^{l-2k} q1^k
(Stein and Weiss 1971, ch. IV), and the ``singular.*``, ``sl2.*``,
``casimir.*``, ``pq.*`` and ``tmodel.*`` records run in the invariant model
C[x, y], x = xn and y = q1, with E = x d_x + 2y d_y and Laplacian
d_x^2 + 4y d_y^2 + 2(n-1) d_y.  Each of the n-1 primed directions acts there
as x_m times one operator G, and the localized f(l) enters cleared, as
f~(l) = y f(l), each identity with it multiplied by y.  The ``nonclosure.*``
records run on the operators of :mod:`~vermabranch.xi_model` in the n
variables; they, and a failed model record's witness, read the expansion
x -> xn, y -> q1 there.

The conventional global factor i on the nilradical action is dropped
throughout: all operators here are the rational-scalar versions, which leaves
every mapping statement and every recorded constant intact.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import Tuple

from .orthopoly import gegenbauer_tilde, gegenbauer_tilde_lower_op
from .polyring import (GeoPoly, RatCoeff, VarSet, curated_factors, invariant_expand,
                       per_context, t_var, xi_vars, xy_vars)
from .report import DISCREPANCY, ReportBundle, VerificationRecord
from .scalars import ParamScalar
from .weylalg import DiffOp, proportionality
from .xi_model import displayed_commutators, e_euler_form, op_P, op_Q, raising_op

XY = xy_vars()
_X, _Y = GeoPoly.var(XY, "x"), GeoPoly.var(XY, "y")
_Q = _Y + _X * _X


class SoPairContext(namedtuple("SoPairContext", "n lam")):
    """Dimension n >= 2 and the inducing character (formal by default).
    The fields are read-only; equality and hash are those of (n, lam).
    ``_memo``, ``vars`` and ``alpha`` sit in the instance dict, outside the
    fields, and keep what is built from this context (see
    :func:`~vermabranch.polyring.per_context`)."""

    @staticmethod
    def formal(n: int) -> "SoPairContext":
        return SoPairContext(n, ParamScalar.symbol("l"))

    @staticmethod
    def at(n: int, lam) -> "SoPairContext":
        return SoPairContext(n, ParamScalar.coerce(lam))

    @cached_property
    def vars(self) -> VarSet:
        return xi_vars(self.n)

    @cached_property
    def alpha(self) -> ParamScalar:
        return -self.lam - Fraction(self.n - 1, 2)

    def xn(self) -> GeoPoly:
        return curated_factors(self.vars)["xn"]

    def q_prime(self) -> GeoPoly:
        return curated_factors(self.vars)["q1"]

    def q_full(self) -> GeoPoly:
        return curated_factors(self.vars)["q"]


@per_context
def tilde_gegenbauer(ctx: SoPairContext, l: int) -> GeoPoly:
    """C~_l = x^{-l} C_l^alpha(x) in t (x^2 = -1/t), the explicit sum on the
    t-line built directly at the spectral parameter alpha = -lam-(n-1)/2."""
    return gegenbauer_tilde(l, ctx.alpha)


def _top_normalization(l: int) -> Fraction:
    """Target coefficient l!/(2^k k!) at the highest quadratic-invariant
    power k = floor(l/2)."""
    k = l // 2
    return Fraction(factorial(l), 2 ** k * factorial(k))


@per_context
def reduced_F(ctx: SoPairContext, l: int) -> GeoPoly:
    """Normalized degree-l singular vector in the invariant model,
    sum_k c_k x^{l-2k} y^k with c_k the t^k coefficient of the t-line
    Gegenbauer polynomial C~_l, scaled so that c_k at k = floor(l/2) is l!/(2^k k!).

    Raises ZeroDivisionError exactly where alpha = -lam-(n-1)/2 is one of
    0, -1, ..., 1 - ceil(l/2): the zeros of (alpha)_{ceil(l/2)}, the only
    parameter factor of the top coefficient of C_l^alpha read here."""
    if l < 0:
        raise ValueError("degree must be nonnegative")
    tilde = tilde_gegenbauer(ctx, l)
    top = tilde.coefficient((l // 2,))
    if top.is_zero():
        raise ZeroDivisionError(
            f"normalization divisor vanishes at degree {l} for lam={ctx.lam.render()}")
    # each coefficient reduced on its own, most to a polynomial in lam: one
    # scale of the whole would keep top's numerator as the shared denominator
    scale = ParamScalar.const(_top_normalization(l)) / top
    return GeoPoly(XY, {(l - 2 * k, k): c * scale for (k,), c in tilde.coefficients().items()})


@per_context
def singular_vector_F(ctx: SoPairContext, l: int) -> GeoPoly:
    """F_l = sum_k c_k xn^{l-2k} q1^k, the expansion of :func:`reduced_F`,
    which raises where it does."""
    return invariant_expand(ctx.vars, reduced_F(ctx, l))


def _xi(ctx: SoPairContext, g: GeoPoly, k: int = 0):
    """The witness of a failed model record: the xi-model value g / q1^k,
    k = 1 for a cleared identity, built only on failure."""
    return lambda: RatCoeff(ctx.vars, g, k)


@per_context
def model_ops(ctx: SoPairContext) -> dict:
    """The operators of the invariant model by name: E, the Laplacian, P, Q,
    the primed directions' G = (1/2) d_x^2 - 2y d_y^2 - 2x d_x d_y - 2(a+1) d_y
    (:func:`singular_family_check`) and the degree-free part of the cleared
    closed-form Casimir, -2 (q^2 d_n^2 + (2a+1) q xn d_n + a q1) + y 2 (E+a)^2."""
    a, euler = ctx.alpha, DiffOp(XY, {(1, 0): _X, (0, 1): _Y.scale(2)})
    lap = DiffOp(XY, {(2, 0): 1, (0, 2): _Y.scale(4), (0, 1): 2 * (ctx.n - 1)})
    dn, shift = DiffOp.partial(XY, 0), euler + DiffOp.scalar(XY, a)
    p = DiffOp.mult(_X.scale(Fraction(1, 2))) @ lap + (DiffOp.scalar(XY, ctx.lam) - euler) @ dn
    cas = DiffOp(XY, {(2, 0): (_Q * _Q).scale(-2), (1, 0): (_Q * _X).scale(a * -4 - 2),
                      (0, 0): _Y.scale(a * -2)})
    g = DiffOp(XY, {(2, 0): Fraction(1, 2), (0, 2): _Y.scale(-2), (1, 1): _X.scale(-2),
                    (0, 1): a * -2 - 2})
    return {"E": euler, "lap": lap, "P": p, "Q": raising_op(ctx, p, _X, _Y, euler), "G": g,
            "cas": cas + DiffOp.mult(_Y.scale(2)) @ shift @ shift}


@per_context
def ladder_ops(ctx: SoPairContext, l: int) -> Tuple[DiffOp, DiffOp, DiffOp]:
    """(e, f~, h) at degree l in the invariant model: e = -q d_n - (2a+l) xn,
    the cleared f~ = q1 f = q d_n - l xn of the localized
    f = (q/q1) d_n - l xn/q1, and h = 2(a+l)."""
    return (DiffOp(XY, {(1, 0): -_Q, (0, 0): _X.scale(-(ctx.alpha * 2 + l))}),
            DiffOp(XY, {(1, 0): _Q, (0, 0): _X.scale(-l)}), DiffOp.scalar(XY, (ctx.alpha + l) * 2))


@per_context
def ladder_images(ctx: SoPairContext, l: int) -> Tuple[GeoPoly, GeoPoly, GeoPoly, GeoPoly]:
    """(e(l) F_l, f~(l) F_l, f~(l+1) e(l) F_l, e(l-1) f~(l) F_l) in the
    model: the raise image, the cleared lower image, and the two legs of the
    cleared bracket and Casimir.  The last is zero at l = 0."""
    e_l, f_l, _ = ladder_ops(ctx, l)
    f = reduced_F(ctx, l)
    ev, fv = e_l.apply(f), f_l.apply(f)
    return ev, fv, ladder_ops(ctx, l + 1)[1].apply(ev), ladder_ops(ctx, l - 1)[0].apply(fv)


@per_context
def p_image(ctx: SoPairContext, l: int) -> Tuple[GeoPoly, ParamScalar | None]:
    """(P F_l, c) in the model with P F_l = c F_{l-1}, read by both checks that
    P lowers: c is None where P F_l is no multiple of F_{l-1}, and at l = 0."""
    pv = model_ops(ctx)["P"].apply(reduced_F(ctx, l))
    return pv, proportionality(pv, reduced_F(ctx, l - 1)) if l else None


def expected_ladder_constants(ctx: SoPairContext, l: int) -> Tuple[ParamScalar, ParamScalar]:
    """(e-constant, f-constant) at degree l per the ladder diagram:
    even degrees raise by -(2a+l) and lower by l(2a+l-1); odd degrees raise
    by -1 and lower by l."""
    alpha = ctx.alpha
    if l % 2 == 0:
        return -(alpha * 2 + l), (alpha * 2 + (l - 1)) * l
    return ParamScalar.const(-1), ParamScalar.const(l)


def verify_sl2(ctx: SoPairContext, max_degree: int) -> ReportBundle:
    """Check the ladder structure degree by degree by exact application in
    the model.  f(l) F_l is a polynomial iff y divides f~(l) F_l, and the
    bracket is checked cleared, (f~(l+1) e(l) - e(l-1) f~(l)) F_l = -h y F_l."""
    bundle = ReportBundle()
    anchor = "so-pair:sl2-ladder"
    fs = [reduced_F(ctx, l) for l in range(max_degree + 2)]
    for l in range(max_degree + 1):
        h_l = ladder_ops(ctx, l)[2]
        tag = f"n={ctx.n},l={l}"

        ev, fv, up, down = ladder_images(ctx, l)
        ce = proportionality(ev, fs[l + 1])
        exp_e, exp_f = expected_ladder_constants(ctx, l)
        bundle.check(f"sl2.raise.{tag}", anchor, ce is not None and ce == exp_e,
                     witness=_xi(ctx, ev))
        if ce is not None:
            bundle.check(f"sl2.raise-nonzero.{tag}", "so-pair:verma-structure",
                         not ce.is_zero(), witness=ce)

        low, w = fv.exact_divide(_Y), _xi(ctx, fv, 1)
        bundle.check(f"sl2.lower-polynomial.{tag}", "so-pair:localized-f", low is not None,
                     witness=w)
        if l == 0:
            bundle.check(f"sl2.lower.{tag}", anchor, fv.is_zero(), witness=w)
        elif low is not None:
            cf = proportionality(low, fs[l - 1])
            bundle.check(f"sl2.lower.{tag}", anchor, cf is not None and cf == exp_f, witness=w)

        # bracket on the weight vector, cleared by y:
        # (f~(l+1) e(l) - e(l-1) f~(l)) F_l = -h(l) y F_l
        bra = up - down
        bundle.check(f"sl2.bracket.{tag}", anchor,
                     bra == (_Y * fs[l]).scale(-(ctx.alpha + l) * 2), witness=_xi(ctx, bra, 1))

        # h eigenvalue and weight-space dimension bookkeeping
        bundle.check(f"sl2.h-eigenvalue.{tag}", anchor,
                     h_l.apply(fs[l]) == fs[l].scale((ctx.alpha + l) * 2))
        # F_l is nonzero and homogeneous of degree l in the n variables iff
        # every model term x^i y^k has weight i + 2k = l (y = q1 has degree 2)
        bundle.check(f"sl2.homogeneous.{tag}", "so-pair:weight-spaces",
                     {i + 2 * k for i, k in fs[l].coefficients()} == {l})

        # product of consecutive constants: (ef - fe) eigenvalue on F_l
        if ce is not None:
            c_up = exp_e * expected_ladder_constants(ctx, l + 1)[1]
            c_down = ParamScalar.const(0)
            if l > 0:
                c_down = exp_f * expected_ladder_constants(ctx, l - 1)[0]
            bundle.check(f"sl2.weight-consistency.{tag}", "so-pair:ladder-diagram",
                         c_up - c_down == -(ctx.alpha + l) * 2, witness=c_up - c_down)
    return bundle


def casimir_ops(ctx: SoPairContext, l: int) -> Tuple[DiffOp, DiffOp]:
    """y times the Casimir at degree l in the model: the composed
    f~(l+1) e(l) + e(l-1) f~(l) + 2 (a+l)^2 y, and the displayed closed form
    -2 (q^2 d_n^2 + (2a+1) q xn d_n + a q1 - (2a+l) l xn^2) + y 2 (E+a)^2."""
    e_l, f_l, _ = ladder_ops(ctx, l)
    a = ctx.alpha
    return (ladder_ops(ctx, l + 1)[1] @ e_l + ladder_ops(ctx, l - 1)[0] @ f_l
            + DiffOp.mult(_Y.scale((a + l) * (a + l) * 2)),
            model_ops(ctx)["cas"] + DiffOp.mult((_X * _X).scale((a * 2 + l) * l * 2)))


def casimir_check(ctx: SoPairContext, max_degree: int) -> ReportBundle:
    """The Casimir's two forms and the relative Dirac square on F_l, each
    cleared by y in the model: the target is eig y F_l."""
    bundle, eig = ReportBundle(), ctx.alpha * (ctx.alpha - 1) * 2
    for l in range(max_degree + 1):
        f = reduced_F(ctx, l)
        tag = f"n={ctx.n},l={l}"
        yf = _Y * f
        for name, op in zip(("scalar", "closed-form"), casimir_ops(ctx, l)):
            img = op.apply(f)
            bundle.check(f"casimir.{name}.{tag}", "so-pair:casimir", img == yf.scale(eig),
                         witness=_xi(ctx, img, 1))
        # (ef + fe) F_l = (Cas - h^2/2) F_l: the computable shadow of the
        # relative Dirac square
        _, _, up, down = ladder_images(ctx, l)
        effe = up + down
        rhs = yf.scale(eig - (ctx.alpha + l) * (ctx.alpha + l) * 2)
        bundle.check(f"casimir.dirac-square.{tag}", "dirac:relative-square", effe == rhs,
                     witness=_xi(ctx, effe, 1))
    return bundle


def pq_membership_check(ctx: SoPairContext, max_degree: int) -> ReportBundle:
    """P lowers and Q raises along the singular-vector family, in the model."""
    bundle, q = ReportBundle(), model_ops(ctx)["Q"]
    for l in range(max_degree + 1):
        tag = f"n={ctx.n},l={l}"
        pv, c = p_image(ctx, l)
        bundle.check(f"pq.lower.{tag}", "so-pair:lowering-operator",
                     pv.is_zero() if l == 0 else c is not None, witness=_xi(ctx, pv))
        if l and c is not None:
            bundle.data[f"pq.lower-constant.{tag}"] = c.render()
        qv = q.apply(reduced_F(ctx, l))
        c = proportionality(qv, reduced_F(ctx, l + 1))
        bundle.check(f"pq.raise.{tag}", "so-pair:raising-operator", c is not None,
                     witness=_xi(ctx, qv))
        if c is not None:
            bundle.data[f"pq.raise-constant.{tag}"] = c.render()
    return bundle


def t_model_check(ctx: SoPairContext, max_degree: int) -> ReportBundle:
    """Commutativity of the square between the xi-model and the t-line
    operator -2(t+1) d_t + l.

    The t-line operator is the exact transport of the localized lowering
    operator f(l): its proportionality constant on the collapsed vectors
    matches the recorded f-ladder constant.  On the unnormalized t-line
    Gegenbauer family C~_l it produces (l+2a-1).  The enveloping-algebra lowering
    operator maps along the same arrows; its constant picks up an extra
    factor, recorded as data.
    """
    bundle = ReportBundle()
    anchor = "so-pair:t-model"
    # F_l = sum c_k xn^{l-2k} q1^k collapses to sum c_k t^k: x^i y^k -> t^k
    ts = [reduced_F(ctx, l).relabel(t_var(), lambda e: (e[1:], 1)) for l in range(max_degree + 1)]
    for l in range(max_degree + 1):
        tag = f"n={ctx.n},l={l}"
        lower = gegenbauer_tilde_lower_op(l)
        image = lower.apply(ts[l])
        pv, c_xi = p_image(ctx, l)
        # unnormalized family: the ladder constant (l+2a-1)
        t_img = lower.apply(tilde_gegenbauer(ctx, l))
        if l == 0:
            bundle.check(f"tmodel.f-square.{tag}", anchor,
                         image.is_zero() and pv.is_zero())
            bundle.check(f"tmodel.tilde.{tag}", anchor, t_img.is_zero())
            continue
        c_tilde = proportionality(t_img, tilde_gegenbauer(ctx, l - 1))
        bundle.check(f"tmodel.tilde.{tag}", anchor,
                     c_tilde is not None and c_tilde == ctx.alpha * 2 + (l - 1), witness=t_img)
        c_t = proportionality(image, ts[l - 1])
        exp_f = expected_ladder_constants(ctx, l)[1]
        bundle.check(f"tmodel.f-square.{tag}", anchor,
                     c_t is not None and c_t == exp_f, witness=c_t)
        bundle.check(f"tmodel.p-membership.{tag}", "so-pair:lowering-operator",
                     c_xi is not None, witness=_xi(ctx, pv))
        if c_t is not None and c_xi is not None and not c_t.is_zero():
            bundle.data[f"tmodel.p-over-f-constant.{tag}"] = (c_xi / c_t).render()
    return bundle


def verify_nonclosure(ctx: SoPairContext) -> ReportBundle:
    """Exact non-closure checks plus term-level diffs against the displayed
    commutators (reported as data, never asserted)."""
    bundle = ReportBundle()
    p = op_P(ctx)
    pq = p.commutator(op_Q(ctx))
    # [P, Q] stabilizes every one-dimensional span <F_l>, so it acts on each
    # by some scalar; the sharp non-closure statement is that no single
    # scalar (and no affine-in-degree weight, as an sl(2) bracket would
    # require) fits the whole family.
    eigs = []
    for l in range(3):
        f = singular_vector_F(ctx, l)
        img = pq.apply(f)
        c = proportionality(img, f)
        tag = f"n={ctx.n},l={l}"
        bundle.check(f"nonclosure.pq-eigenvalue.{tag}", "so-pair:pq-commutator",
                     c is not None, witness=img)
        if c is not None:
            eigs.append(c)
            bundle.data[f"nonclosure.pq-eigenvalue.{tag}"] = c.render()
    for l, c in enumerate(eigs):
        others = [d for d in eigs if not (d == c)]
        bundle.check(f"nonclosure.pq.n={ctx.n},l={l}", "so-pair:pq-commutator",
                     len(others) > 0,
                     witness=lambda: f"eigenvalue {c.render()} shared by the whole family")
    if len(eigs) >= 3:
        second_diff = eigs[2] - eigs[1] * 2 + eigs[0]
        if second_diff.is_zero():
            # formally -6(4 lam + n - 3): at lam = (3-n)/4, l = 3 decides (a
            # degenerate F_3 raises ZeroDivisionError, a precondition error)
            f3 = singular_vector_F(ctx, 3)
            c3 = proportionality(pq.apply(f3), f3)
            second_diff = None if c3 is None else c3 - eigs[2] * 2 + eigs[1]
        bundle.check(f"nonclosure.pq-not-affine.n={ctx.n}", "so-pair:pq-commutator",
                     second_diff is not None and not second_diff.is_zero(),
                     witness=("F_3 is not an eigenvector of [P, Q]" if second_diff is None
                              else second_diff))
    bundle.check(f"nonclosure.pq-not-identity.n={ctx.n}", "so-pair:pq-commutator",
                 pq.order() > 0, witness=pq)
    ep = e_euler_form(ctx).commutator(p)
    bundle.check(f"nonclosure.ep-order.n={ctx.n}", "so-pair:ep-commutator",
                 ep.order() == 2, witness=ep)

    for name, computed, displayed in zip(("pq", "ep"), (pq, ep), displayed_commutators(ctx)):
        diff = computed - displayed
        residual = None if diff.is_zero() else diff.render()
        key = f"nonclosure.display-diff.{name}.n={ctx.n}"
        bundle.data[key] = "agrees" if residual is None else f"residual: {residual}"
        bundle.add(VerificationRecord(key, "so-pair:displayed-commutators",
                                      "pass" if residual is None else DISCREPANCY, residual))
    return bundle


def singular_family_check(ctx: SoPairContext, max_degree: int) -> ReportBundle:
    """The n-1 primed directions L_m = (1/2) x_m Lap + (lam - E) d_m
    annihilate F_l, checked in the model once for all m: on F(x, y),
    d_m F = 2 x_m d_y F and E x_m = x_m (E + 1), so L_m F = x_m G F with G of
    :func:`model_ops`, and as multiplication by x_m and the expansion are
    injective, every L_m kills F_l iff G kills :func:`reduced_F`."""
    bundle = ReportBundle()
    for l in range(max_degree + 1):
        f = reduced_F(ctx, l)
        bundle.check(f"singular.annihilated.n={ctx.n},l={l}", "so-pair:singular-pde",
                     model_ops(ctx)["G"].apply(f).is_zero(), witness=_xi(ctx, f))
    return bundle
