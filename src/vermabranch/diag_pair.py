"""The diagonal-pair scenario: commuting nilradical operators in the
function, Fourier and inhomogeneous models, Jacobi singular vectors, the
lowering identity with its proportionality constants, and the branching
combinatorics for the tensor product of two scalar Verma modules.

As in the orthogonal scenario the global factor i on the Fourier-model
operators is dropped; all displayed proportionality constants come out
verbatim for the i-free versions.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, factorial
from typing import Dict, List

from .orthopoly import falling_factorial
from .polyring import (GeoPoly, dehomogenize, homogenize, per_context, t_var,
                       xi_eta_vars, xy_vars)
from .report import DISCREPANCY, ReportBundle, VerificationRecord
from .scalars import ParamScalar
from .weylalg import DiffOp


class DiagContext(namedtuple("DiagContext", "lam mu")):
    """The two inducing weights (formal by default).  The fields are
    read-only; equality and hash are those of (lam, mu).  ``_memo`` sits in
    the instance dict, outside the fields, and keeps the families built from
    this context (see :func:`~vermabranch.polyring.per_context`)."""

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
    return DiffOp(vs, {(1, 0): -ctx.lam, (2, 0): GeoPoly.var(vs, "xi"),
                       (0, 1): -ctx.mu, (0, 2): GeoPoly.var(vs, "eta")})


def op_F_fourier(ctx: DiagContext) -> DiffOp:
    """-lam d_xi + xi d_xi^2 + mu d_eta - eta d_eta^2: op_X_fourier with the
    second summand's sign flipped."""
    vs = xi_eta_vars()
    return DiffOp(vs, {(1, 0): -ctx.lam, (2, 0): GeoPoly.var(vs, "xi"),
                       (0, 1): ctx.mu, (0, 2): -GeoPoly.var(vs, "eta")})


def op_X_function(ctx: DiagContext) -> DiffOp:
    """lam x + x^2 d_x + mu y + y^2 d_y on C[x, y]."""
    vs = xy_vars()
    return DiffOp(vs, {(0, 0): GeoPoly(vs, {(1, 0): ctx.lam, (0, 1): ctx.mu}),
                       (1, 0): GeoPoly.var(vs, "x", 2), (0, 1): GeoPoly.var(vs, "y", 2)})


def op_F_function(ctx: DiagContext) -> DiffOp:
    """lam x + x^2 d_x - mu y - y^2 d_y on C[x, y]."""
    vs = xy_vars()
    return DiffOp(vs, {(0, 0): GeoPoly(vs, {(1, 0): ctx.lam, (0, 1): -ctx.mu}),
                       (1, 0): GeoPoly.var(vs, "x", 2), (0, 1): -GeoPoly.var(vs, "y", 2)})


def op_X_t(ctx: DiagContext, l: int) -> DiffOp:
    """t(t+1) d^2 + (t(mu-2(l-1)) - lam) d + l(l-1-mu) at homogeneity l."""
    tv = t_var()
    return DiffOp(tv, {(2,): GeoPoly(tv, {(2,): 1, (1,): 1}),
                       (1,): GeoPoly(tv, {(1,): ctx.mu - 2 * (l - 1), (0,): -ctx.lam}),
                       (0,): (ParamScalar.const(l - 1) - ctx.mu) * l})


def op_F_t(ctx: DiagContext, l: int) -> DiffOp:
    """-t(t-1) d^2 + (t(2l-mu-2) - lam) d + l(mu-l+1) at homogeneity l."""
    tv = t_var()
    return DiffOp(tv, {(2,): GeoPoly(tv, {(2,): -1, (1,): 1}),
                       (1,): GeoPoly(tv, {(1,): ParamScalar.const(2 * l - 2) - ctx.mu,
                                          (0,): -ctx.lam}),
                       (0,): (ctx.mu - (l - 1)) * l})


# -- singular vectors --------------------------------------------------------

@per_context
def jacobi_t_polynomial(ctx: DiagContext, l: int) -> GeoPoly:
    """P_l^(-lam-1, mu+lam-2l+1)(2t+1) in t, built from its 2F1 terms
    a^l_i = binom(l, i) (i-lam)_{l-i} (mu-l+1)_i / l!: the suffix products
    S_i = (i-lam) S_{i+1} (S_l = 1) and prefix products R_i = (mu-l+1)_i give
    all l+1 of them in O(l) products, dividing by nothing that depends on lam, mu."""
    suffix = [ParamScalar.const(1)]
    for i in range(l - 1, -1, -1):
        suffix.append(suffix[-1] * (ParamScalar.const(i) - ctx.lam))
    terms, prefix = {}, ParamScalar.const(1)
    for i in range(l + 1):
        if i:
            prefix = prefix * (ctx.mu - (l - i))
        terms[(i,)] = suffix[l - i] * prefix * comb(l, i) / factorial(l)
    return GeoPoly(t_var(), terms)


@per_context
def singular_vector_Ptilde(ctx: DiagContext, l: int) -> GeoPoly:
    """Homogeneous degree-l singular vector eta^l P_l(2 xi/eta + 1)."""
    return homogenize(jacobi_t_polynomial(ctx, l), l)


def _fourier_vectors(ctx: DiagContext, max_degree: int) -> list:
    """P~_0..P~_max_degree, with None at each l where jacobi_t_polynomial(ctx, l)
    has a term above t^l: homogenize raises there, so the records that read
    P~_l fail instead, with the t-polynomial as witness."""
    return [singular_vector_Ptilde(ctx, l) if jacobi_t_polynomial(ctx, l).degree() <= l
            else None for l in range(max_degree + 1)]


def lowering_constant(ctx: DiagContext, l: int) -> ParamScalar:
    """2(l-1-lam)(mu-l+1)."""
    return (ParamScalar.const(l - 1) - ctx.lam) * (ctx.mu - (l - 1)) * 2


# -- verification suites -----------------------------------------------------

def annihilation_check(ctx: DiagContext, max_degree: int) -> ReportBundle:
    bundle = ReportBundle()
    x_hat = op_X_fourier(ctx)
    for l, p in enumerate(_fourier_vectors(ctx, max_degree)):
        witness = jacobi_t_polynomial(ctx, l) if p is None else p
        bundle.check(f"diag.annihilation.l={l}", "diag-pair:singular-solutions",
                     p is not None and x_hat.apply(p).is_zero(), witness=witness)
        bundle.check(f"diag.homogeneous.l={l}", "diag-pair:singular-solutions",
                     p is not None and p.is_homogeneous() and p.degree() == l,
                     witness=witness)
    return bundle


def t_annihilation_check(ctx: DiagContext, max_degree: int) -> ReportBundle:
    bundle = ReportBundle()
    for l in range(max_degree + 1):
        q = jacobi_t_polynomial(ctx, l)
        img = op_X_t(ctx, l).apply(q)
        bundle.check(f"diag.t-annihilation.l={l}", "diag-pair:hypergeometric-ode",
                     img.is_zero(), witness=img)
    return bundle


def verify_lowering(ctx: DiagContext, max_degree: int) -> ReportBundle:
    """F-hat maps the degree-l solution to 2(l-1-lam)(mu-l+1) times the
    degree-(l-1) solution, in both the Fourier and the t model."""
    bundle = ReportBundle()
    anchor = "diag-pair:lowering-theorem"
    f_hat = op_F_fourier(ctx)
    vecs = _fourier_vectors(ctx, max_degree)
    for l in range(1, max_degree + 1):
        c = lowering_constant(ctx, l)
        q = jacobi_t_polynomial(ctx, l)
        img = None if vecs[l] is None else f_hat.apply(vecs[l])
        ok = img is not None and vecs[l - 1] is not None and img == vecs[l - 1].scale(c)
        bundle.check(f"diag.lowering.fourier.l={l}", anchor, ok,
                     witness=q if img is None else img)
        timg = op_F_t(ctx, l).apply(q)
        okt = timg == jacobi_t_polynomial(ctx, l - 1).scale(c)
        bundle.check(f"diag.lowering.t.l={l}", anchor, okt, witness=timg)
        bundle.data[f"diag.lowering-constant.l={l}"] = c.render()
    return bundle


def commutation_check(ctx: DiagContext) -> ReportBundle:
    bundle = ReportBundle()
    anchor = "diag-pair:commuting-operators"
    xf = op_X_fourier(ctx).commutator(op_F_fourier(ctx))
    bundle.check("diag.commute.fourier", anchor, xf.is_zero(), witness=xf)
    xy = op_X_function(ctx).commutator(op_F_function(ctx))
    bundle.check("diag.commute.function", anchor, xy.is_zero(), witness=xy)
    return bundle


def model_transport_check(ctx: DiagContext, max_degree: int) -> ReportBundle:
    """Dehomogenizing the Fourier action at degree l reproduces the t-model
    operator on arbitrary degree-l inputs, not just on solutions."""
    bundle = ReportBundle()
    anchor = "diag-pair:homogenization"
    x_hat = op_X_fourier(ctx)
    tv = t_var()
    for l in range(max_degree + 1):
        x_t = op_X_t(ctx, l)
        for probe_deg in range(l + 1):
            q = GeoPoly(tv, {(k,): k + 1 for k in range(probe_deg + 1)})
            lhs = x_hat.apply(homogenize(q, l))
            rhs = x_t.apply(q)
            # dehomogenize raises on an image of another degree: fail it here
            ok = (lhs.is_zero() or lhs.is_homogeneous() and lhs.degree() == l - 1) \
                and dehomogenize(lhs, l - 1) == rhs
            bundle.check(f"diag.transport.l={l},deg={probe_deg}", anchor, ok)
    return bundle


def recursion_crosscheck(ctx: DiagContext, max_degree: int) -> ReportBundle:
    """(a) The coefficients a^l_0..a^l_l of jacobi_t_polynomial satisfy the
    two-term recursion, by multiplication alone: the seed a^l_l =
    mu(mu-1)...(mu-l+1)/l!, and for each i < l a nonzero bracket
    (l-i)(l-i-1-mu) = i^2 + (mu+1-2l) i + l^2 - mu l - l with
    a^l_i (l-i)(l-i-1-mu) = (lam-i)(i+1) a^l_{i+1}.  As no bracket vanishes,
    these fix every a^l_i, so a record passes exactly where the top-seeded
    recursion rebuilds the polynomial; a term above t^l fails it too.
    (b) The bracket identity behind the lowering proof holds as a polynomial
    identity in formal (i, l, mu)."""
    bundle = ReportBundle()
    anchor = "diag-pair:coefficient-recursion"
    zero = ParamScalar.const(0)
    for l in range(max_degree + 1):
        q = jacobi_t_polynomial(ctx, l)
        cs = q.coefficients()
        # a term above t^l lengthens got, which fails the record and shows it
        got = [cs.get((i,), zero) for i in range(max(l, q.degree()) + 1)]
        ok = len(got) == l + 1 and got[l] == falling_factorial(ctx.mu, l) / factorial(l)
        for i in range(l):
            bracket = (ParamScalar.const(l - i - 1) - ctx.mu) * (l - i)
            ok = ok and not bracket.is_zero() \
                and got[i] * bracket == (ctx.lam - i) * (i + 1) * got[i + 1]
        bundle.check(f"diag.recursion.l={l}", anchor, ok,
                     witness=lambda: " , ".join(c.render() for c in got))
    # formal bracket identity, with i and l as free symbols
    i = ParamScalar.symbol("a")
    l = ParamScalar.symbol("l")
    m = ParamScalar.symbol("m")
    lhs = i * (i - l * 2 + m + 3) + (l - 1) * (l - m - 2)
    rhs = -((i + 1) * (-i + l * 2 - m - 2) + l * (m - l + 1))
    bundle.check("diag.recursion.bracket-identity", anchor, lhs == rhs,
                 witness=lambda: f"{lhs.render()} vs {rhs.render()}")
    return bundle


def top_coefficient_check(ctx: DiagContext, max_degree: int) -> ReportBundle:
    """The t^l coefficient of the lowered polynomial cancels:
    -l(l-1) + l(2l-mu-2) + l(mu-l+1) = 0."""
    bundle = ReportBundle()
    for l in range(1, max_degree + 1):
        c = (ParamScalar.const(-l * (l - 1)) + (ParamScalar.const(2 * l - 2) - ctx.mu) * l
             + (ctx.mu - (l - 1)) * l)
        bundle.check(f"diag.top-cancellation.l={l}", "diag-pair:lowering-theorem",
                     c.is_zero(), witness=c)
    return bundle


# -- branching combinatorics -------------------------------------------------

IOTA = lambda nu: -nu - 2


class BranchingSets(namedtuple("BranchingSets", "lambda_s iota_lambda_s "
                                 "lambda_r_definitional lambda_r_displayed")):
    """The weight sets of the branching, each a list of ints."""

    __slots__ = ()

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
    return BranchingSets(lam_s, iota_s, lam_r_def, displayed)


def grothendieck_check(N: int, cutoff: int) -> ReportBundle:
    """Multiset bookkeeping for the tensor-product decomposition at total
    weight N: the reducible summands indexed by the symmetric set contribute
    both of their composition factors, and together with the remaining
    irreducible summands these must exhaust {N - 2j} down to the cutoff."""
    bundle = ReportBundle()
    sets = branching_sets(N, cutoff)
    lowest = N - 2 * cutoff
    expanded = [nu for nu in sets.lambda_r_definitional + sets.lambda_s + sets.iota_lambda_s
                if nu >= lowest]
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
    return bundle


def decomposition_report(ctx: DiagContext, cutoff: int) -> ReportBundle:
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
