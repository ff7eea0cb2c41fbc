"""The diagonal-pair scenario: commuting nilradical operators in the
function, Fourier and inhomogeneous models, Jacobi singular vectors, the
lowering identity with its proportionality constants, and the branching
combinatorics for the tensor product of two scalar Verma modules.

As in the orthogonal scenario the global factor i on the Fourier-model
operators is dropped; all displayed proportionality constants come out
verbatim for the i-free versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .orthopoly import JacobiSpec, jacobi, jacobi_recursion_coeffs
from .polyring import (GeoPoly, dehomogenize, homogenize, substitute_linear,
                       t_var, xi_eta_vars, xy_vars)
from .report import DISCREPANCY, ReportBundle, VerificationRecord
from .scalars import ParamScalar
from .weylalg import DiffOp, proportionality


@dataclass(frozen=True)
class DiagContext:
    """The two inducing weights (formal by default).
    ``_memo``, not a field, keeps the t-polynomials built from this context."""

    lam: ParamScalar
    mu: ParamScalar

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})

    @staticmethod
    def formal() -> "DiagContext":
        return DiagContext(ParamScalar.symbol("l"), ParamScalar.symbol("m"))

    @staticmethod
    def at(lam, mu) -> "DiagContext":
        return DiagContext(ParamScalar.coerce(lam), ParamScalar.coerce(mu))


# -- operators in the three models ------------------------------------------

def op_X_fourier(ctx: DiagContext) -> DiffOp:
    """-lam d_xi + xi d_xi^2 - mu d_eta + eta d_eta^2 on C[xi, eta]."""
    vs = xi_eta_vars()
    dxi = DiffOp.partial(vs, "xi")
    deta = DiffOp.partial(vs, "eta")
    return (dxi.scale(-ctx.lam) + DiffOp.mult(GeoPoly.var(vs, "xi")) @ dxi @ dxi
            + deta.scale(-ctx.mu) + DiffOp.mult(GeoPoly.var(vs, "eta")) @ deta @ deta)


def op_F_fourier(ctx: DiagContext) -> DiffOp:
    """Same as op_X_fourier with the second summand's sign flipped."""
    vs = xi_eta_vars()
    dxi = DiffOp.partial(vs, "xi")
    deta = DiffOp.partial(vs, "eta")
    return (dxi.scale(-ctx.lam) + DiffOp.mult(GeoPoly.var(vs, "xi")) @ dxi @ dxi
            + deta.scale(ctx.mu) - DiffOp.mult(GeoPoly.var(vs, "eta")) @ deta @ deta)


def op_X_function(ctx: DiagContext) -> DiffOp:
    """lam x + x^2 d_x + mu y + y^2 d_y on C[x, y]."""
    vs = xy_vars()
    x = GeoPoly.var(vs, "x")
    y = GeoPoly.var(vs, "y")
    return (DiffOp.mult(x.scale(ctx.lam)) + DiffOp.mult(x * x) @ DiffOp.partial(vs, "x")
            + DiffOp.mult(y.scale(ctx.mu)) + DiffOp.mult(y * y) @ DiffOp.partial(vs, "y"))


def op_F_function(ctx: DiagContext) -> DiffOp:
    vs = xy_vars()
    x = GeoPoly.var(vs, "x")
    y = GeoPoly.var(vs, "y")
    return (DiffOp.mult(x.scale(ctx.lam)) + DiffOp.mult(x * x) @ DiffOp.partial(vs, "x")
            - DiffOp.mult(y.scale(ctx.mu)) - DiffOp.mult(y * y) @ DiffOp.partial(vs, "y"))


def op_X_t(ctx: DiagContext, l: int) -> DiffOp:
    """t(t+1) d^2 + (t(mu-2(l-1)) - lam) d + l(l-1-mu) at homogeneity l."""
    tv = t_var()
    t = GeoPoly.var(tv, "t")
    one = GeoPoly.const(tv, 1)
    d = DiffOp.partial(tv, "t")
    lin = t.scale(ctx.mu - 2 * (l - 1)) - one.scale(ctx.lam)
    return (DiffOp.mult(t * (t + one)) @ d @ d + DiffOp.mult(lin) @ d
            + DiffOp.scalar(tv, (ParamScalar.const(l - 1) - ctx.mu) * l))


def op_F_t(ctx: DiagContext, l: int) -> DiffOp:
    """-t(t-1) d^2 + (t(2l-mu-2) - lam) d + l(mu-l+1) at homogeneity l."""
    tv = t_var()
    t = GeoPoly.var(tv, "t")
    one = GeoPoly.const(tv, 1)
    d = DiffOp.partial(tv, "t")
    lin = t.scale(ParamScalar.const(2 * l - 2) - ctx.mu) - one.scale(ctx.lam)
    return (DiffOp.mult(-(t * (t - one))) @ d @ d + DiffOp.mult(lin) @ d
            + DiffOp.scalar(tv, (ctx.mu - (l - 1)) * l))


# -- singular vectors --------------------------------------------------------

def jacobi_t_polynomial(ctx: DiagContext, l: int) -> GeoPoly:
    """P_l^(-lam-1, mu+lam-2l+1)(2t+1) as a polynomial in t."""
    hit = ctx._memo.get(l)
    if hit is not None:
        return hit
    spec = JacobiSpec(l, -ctx.lam - 1, ctx.mu + ctx.lam - (2 * l - 1))
    p = ctx._memo[l] = substitute_linear(jacobi(spec), 2, 1)
    return p


def singular_vector_Ptilde(ctx: DiagContext, l: int) -> GeoPoly:
    """Homogeneous degree-l singular vector eta^l P_l(2 xi/eta + 1)."""
    return homogenize(jacobi_t_polynomial(ctx, l), l)


def lowering_constant(ctx: DiagContext, l: int) -> ParamScalar:
    """2(l-1-lam)(mu-l+1)."""
    return (ParamScalar.const(l - 1) - ctx.lam) * (ctx.mu - (l - 1)) * 2


# -- verification suites -----------------------------------------------------

def annihilation_check(ctx: DiagContext, max_degree: int) -> ReportBundle:
    bundle = ReportBundle()
    x_hat = op_X_fourier(ctx)
    for l in range(max_degree + 1):
        p = singular_vector_Ptilde(ctx, l)
        bundle.check(f"diag.annihilation.l={l}", "diag-pair:singular-solutions",
                     x_hat.apply(p).is_zero(), witness=p.render())
        bundle.check(f"diag.homogeneous.l={l}", "diag-pair:singular-solutions",
                     p.is_homogeneous() and p.degree() == l)
    return bundle


def t_annihilation_check(ctx: DiagContext, max_degree: int) -> ReportBundle:
    bundle = ReportBundle()
    for l in range(max_degree + 1):
        q = jacobi_t_polynomial(ctx, l)
        img = op_X_t(ctx, l).apply(q)
        bundle.check(f"diag.t-annihilation.l={l}", "diag-pair:hypergeometric-ode",
                     img.is_zero(), witness=img.render())
    return bundle


def verify_lowering(ctx: DiagContext, max_degree: int) -> ReportBundle:
    """F-hat maps the degree-l solution to 2(l-1-lam)(mu-l+1) times the
    degree-(l-1) solution, in both the Fourier and the t model."""
    bundle = ReportBundle()
    anchor = "diag-pair:lowering-theorem"
    f_hat = op_F_fourier(ctx)
    vecs = [singular_vector_Ptilde(ctx, l) for l in range(max_degree + 1)]
    for l in range(1, max_degree + 1):
        c = lowering_constant(ctx, l)
        img = f_hat.apply(vecs[l])
        ok = img == vecs[l - 1].scale(c)
        bundle.check(f"diag.lowering.fourier.l={l}", anchor, ok,
                     witness=img.render())
        q = jacobi_t_polynomial(ctx, l)
        timg = op_F_t(ctx, l).apply(q)
        okt = timg == jacobi_t_polynomial(ctx, l - 1).scale(c)
        bundle.check(f"diag.lowering.t.l={l}", anchor, okt, witness=timg.render())
        bundle.data[f"diag.lowering-constant.l={l}"] = c.render()
    return bundle


def commutation_check(ctx: DiagContext) -> ReportBundle:
    bundle = ReportBundle()
    anchor = "diag-pair:commuting-operators"
    xf = op_X_fourier(ctx).commutator(op_F_fourier(ctx))
    bundle.check("diag.commute.fourier", anchor, xf.is_zero(), witness=xf.render())
    xy = op_X_function(ctx).commutator(op_F_function(ctx))
    bundle.check("diag.commute.function", anchor, xy.is_zero(), witness=xy.render())
    return bundle


def model_transport_check(ctx: DiagContext, max_degree: int) -> ReportBundle:
    """Dehomogenizing the Fourier action at degree l reproduces the t-model
    operator on arbitrary degree-l inputs, not just on solutions."""
    bundle = ReportBundle()
    anchor = "diag-pair:homogenization"
    x_hat = op_X_fourier(ctx)
    tv = t_var()
    for l in range(max_degree + 1):
        for probe_deg in range(l + 1):
            q = GeoPoly(tv, {(k,): ParamScalar.const(k + 1) for k in range(probe_deg + 1)})
            lhs = x_hat.apply(homogenize(q, l))
            rhs = op_X_t(ctx, l).apply(q)
            ok = (lhs.is_zero() and rhs.is_zero()) or \
                (not lhs.is_zero() and dehomogenize(lhs, l - 1) == rhs)
            if not ok and lhs.is_zero():
                ok = rhs.is_zero()
            bundle.check(f"diag.transport.l={l},deg={probe_deg}", anchor, ok)
    return bundle


def recursion_crosscheck(ctx: DiagContext, max_degree: int) -> ReportBundle:
    """(a) The two-term recursion reproduces the dehomogenized singular
    vectors; (b) the bracket identity behind the lowering proof holds as a
    polynomial identity in formal (i, l, mu)."""
    bundle = ReportBundle()
    anchor = "diag-pair:coefficient-recursion"
    for l in range(max_degree + 1):
        coeffs = jacobi_recursion_coeffs(l, ctx.lam, ctx.mu)
        q = jacobi_t_polynomial(ctx, l)
        got = [q.coefficient((i,)) for i in range(l + 1)]
        ok = all(a == b for a, b in zip(coeffs, got))
        bundle.check(f"diag.recursion.l={l}", anchor, ok,
                     witness=" , ".join(c.render() for c in got))
    # formal bracket identity, with i and l as free symbols
    i = ParamScalar.symbol("a")
    l = ParamScalar.symbol("l")
    m = ParamScalar.symbol("m")
    lhs = i * (i - l * 2 + m + 3) + (l - 1) * (l - m - 2)
    rhs = -((i + 1) * (-i + l * 2 - m - 2) + l * (m - l + 1))
    bundle.check("diag.recursion.bracket-identity", anchor, lhs == rhs,
                 witness=f"{lhs.render()} vs {rhs.render()}")
    return bundle


def top_coefficient_check(ctx: DiagContext, max_degree: int) -> ReportBundle:
    """The t^l coefficient of the lowered polynomial cancels:
    -l(l-1) + l(2l-mu-2) + l(mu-l+1) = 0."""
    bundle = ReportBundle()
    for l in range(1, max_degree + 1):
        c = (ParamScalar.const(-l * (l - 1)) + (ParamScalar.const(2 * l - 2) - ctx.mu) * l
             + (ctx.mu - (l - 1)) * l)
        bundle.check(f"diag.top-cancellation.l={l}", "diag-pair:lowering-theorem",
                     c.is_zero(), witness=c.render())
    return bundle


# -- branching combinatorics -------------------------------------------------

IOTA = lambda nu: -nu - 2


@dataclass
class BranchingSets:
    N: int
    cutoff: int
    lambda_all: List[int]
    lambda_s: List[int]
    iota_lambda_s: List[int]
    lambda_r_definitional: List[int]
    lambda_r_displayed: List[int]

    def diff(self) -> Dict[str, List[int]]:
        return {
            "definitional-only": sorted(set(self.lambda_r_definitional)
                                        - set(self.lambda_r_displayed), reverse=True),
            "displayed-only": sorted(set(self.lambda_r_displayed)
                                     - set(self.lambda_r_definitional), reverse=True),
        }


def branching_sets(N: int, cutoff: int) -> BranchingSets:
    """Materialize the weight sets down to N - 2*cutoff."""
    if N < 0 or cutoff < 1:
        raise ValueError("need N >= 0 and cutoff >= 1")
    lam_all = [N - 2 * l for l in range(cutoff + 1)]
    lam_s = [N - 2 * l for l in range(cutoff + 1) if 2 * l <= N]
    iota_s = [IOTA(nu) for nu in lam_s]
    removed = set(lam_s) | set(iota_s)
    lam_r_def = [nu for nu in lam_all if nu not in removed]
    lowest = lam_all[-1]
    displayed = [nu for nu in range(-N, lowest - 1, -2)]
    if N % 2 == 0:
        displayed = [-1] + displayed
    return BranchingSets(N, cutoff, lam_all, lam_s, iota_s, lam_r_def, displayed)


@dataclass
class DecompositionReport:
    bundle: ReportBundle
    verma_summands: List[int] = field(default_factory=list)
    projective_summands: List[Tuple[int, int, int]] = field(default_factory=list)


def grothendieck_check(N: int, cutoff: int) -> DecompositionReport:
    """Multiset bookkeeping for the tensor-product decomposition at total
    weight N: the reducible summands indexed by the symmetric set contribute
    both of their composition factors, and together with the remaining
    irreducible summands these must exhaust {N - 2j} down to the cutoff."""
    bundle = ReportBundle()
    sets = branching_sets(N, cutoff)
    rep = DecompositionReport(bundle)
    rep.verma_summands = list(sets.lambda_r_definitional)
    rep.projective_summands = [(nu, nu, IOTA(nu)) for nu in sets.lambda_s]
    lowest = N - 2 * cutoff
    expanded: List[int] = [nu for nu in rep.verma_summands if nu >= lowest]
    for (_, sub, quot) in rep.projective_summands:
        for nu in (sub, quot):
            if nu >= lowest:
                expanded.append(nu)
    expected = [N - 2 * j for j in range(cutoff + 1)]
    ok = sorted(expanded) == sorted(expected)
    bundle.check(f"branch.grothendieck.N={N},cutoff={cutoff}",
                 "diag-pair:tensor-decomposition", ok,
                 witness=f"got {sorted(expanded, reverse=True)}, "
                         f"expected {sorted(expected, reverse=True)}")
    d = sets.diff()
    has_diff = bool(d["definitional-only"] or d["displayed-only"])
    bundle.add(VerificationRecord(
        f"branch.lambda-r-diff.N={N}", "diag-pair:weight-set-case-analysis",
        DISCREPANCY if has_diff else "pass",
        str(d) if has_diff else None))
    bundle.data[f"branch.sets.N={N}"] = {
        "Lambda_s": sets.lambda_s,
        "iota(Lambda_s)": sets.iota_lambda_s,
        "Lambda_r definitional": sets.lambda_r_definitional,
        "Lambda_r displayed": sets.lambda_r_displayed,
    }
    return rep


def decomposition_report(ctx: DiagContext, cutoff: int) -> DecompositionReport:
    """Theorem-style decomposition for lam + mu a nonnegative integer with
    lam, mu themselves non-integral; includes the Grothendieck-group
    multiset cross-check."""
    if not ctx.lam.is_rational() or not ctx.mu.is_rational():
        raise ValueError("decomposition requires rational specializations of lam and mu")
    lam = ctx.lam.rational_value()
    mu = ctx.mu.rational_value()
    for name, v in (("lam", lam), ("mu", mu)):
        if v.denominator == 1 and v >= 0:
            raise ValueError(f"{name} = {v} lies in N_0; the factors must be irreducible")
    s = lam + mu
    if s.denominator != 1 or s < 0:
        raise ValueError(f"lam + mu = {s} is not a nonnegative integer")
    return grothendieck_check(int(s), cutoff)


def involution_check(cutoff: int = 10) -> ReportBundle:
    bundle = ReportBundle()
    anchor = "diag-pair:weight-involution"
    ok = all(IOTA(IOTA(nu)) == nu for nu in range(-cutoff, cutoff + 1))
    bundle.check("branch.involution", anchor, ok)
    fixed = [nu for nu in range(-cutoff, cutoff + 1) if IOTA(nu) == nu]
    bundle.check("branch.involution-fixed-point", anchor, fixed == [-1],
                 witness=str(fixed))
    return bundle


def character_check(max_order: int) -> ReportBundle:
    """Graded-dimension shadow of the branching: sum_l q^l / (1-q) matches
    1/(1-q)^2 through the requested order."""
    bundle = ReportBundle()
    lhs = [0] * (max_order + 1)
    for l in range(max_order + 1):
        for k in range(max_order + 1 - l):
            lhs[l + k] += 1
    rhs = [k + 1 for k in range(max_order + 1)]
    bundle.check(f"branch.character.order={max_order}", "diag-pair:tensor-decomposition",
                 lhs == rhs, witness=f"{lhs} vs {rhs}")
    return bundle
