"""Diagonal-pair scenario: singular solutions, lowering identity, model
transport, coefficient recursion, and the branching bookkeeping."""

from fractions import Fraction

import pytest

from oracles import jacobi
from vermabranch.diag_pair import (DiagContext, annihilation_check,
                                   branching_sets, character_check,
                                   commutation_check, decomposition_report,
                                   grothendieck_check, involution_check,
                                   jacobi_t_polynomial, lowering_constant,
                                   model_transport_check, op_F_fourier,
                                   op_F_function, op_F_t, op_X_fourier,
                                   op_X_function, op_X_t,
                                   recursion_crosscheck,
                                   singular_vector_Ptilde,
                                   t_annihilation_check,
                                   top_coefficient_check, verify_lowering)
from vermabranch.polyring import T_LINE, X_LINE, XI_ETA, XY, GeoPoly
from vermabranch.report import DISCREPANCY
from vermabranch.scalars import LAMBDA, MU, ParamScalar
from vermabranch.weylalg import DiffOp

CTX = DiagContext.formal()


def test_low_degree_solutions():
    xi = GeoPoly.var(XI_ETA, "xi")
    eta = GeoPoly.var(XI_ETA, "eta")
    assert singular_vector_Ptilde(CTX, 0) == GeoPoly.const(XI_ETA, 1)
    assert singular_vector_Ptilde(CTX, 1) == xi.scale(MU) - eta.scale(LAMBDA)
    p2 = singular_vector_Ptilde(CTX, 2)
    assert p2.coefficient((2, 0)) == (MU * MU - MU) / 2
    assert p2.coefficient((0, 2)) == (LAMBDA * LAMBDA - LAMBDA) / 2
    assert p2.coefficient((1, 1)) == -(LAMBDA - 1) * (MU - 1)


def test_operators_commute():
    assert op_X_fourier(CTX).commutator(op_F_fourier(CTX)).is_zero()
    assert op_X_function(CTX).commutator(op_F_function(CTX)).is_zero()
    assert commutation_check(CTX).ok()


@pytest.mark.parametrize("l", range(11))
def test_annihilation(l):
    assert op_X_fourier(CTX).apply(singular_vector_Ptilde(CTX, l)).is_zero()


def test_t_model_annihilation():
    assert t_annihilation_check(CTX, 8).ok()


def test_displayed_lowering_constants():
    assert lowering_constant(CTX, 1) == LAMBDA * MU * -2
    assert lowering_constant(CTX, 2) == (LAMBDA - 1) * (MU - 1) * -2
    assert lowering_constant(CTX, 3) == (LAMBDA - 2) * (MU - 2) * -2


def test_lowering_identity():
    f_hat = op_F_fourier(CTX)
    for l in range(1, 7):
        img = f_hat.apply(singular_vector_Ptilde(CTX, l))
        expected = singular_vector_Ptilde(CTX, l - 1).scale(
            lowering_constant(CTX, l))
        assert img == expected
    assert verify_lowering(CTX, 6).ok()


def test_model_transport():
    assert model_transport_check(CTX, 5).ok()


def test_recursion_crosscheck():
    bundle = recursion_crosscheck(CTX, 6)
    assert bundle.ok()


_PERTURB_P3 = {**{f"t^{e}+1": lambda q, e=e: q + GeoPoly(T_LINE, {(e,): 1}) for e in range(4)},
               "twice": lambda q: q.scale(2)}


@pytest.mark.parametrize("name", _PERTURB_P3)
def test_recursion_record_pins_every_coefficient(name, monkeypatch):
    # one coefficient of P_3 off by 1 breaks the seed (t^3) or a relation,
    # and 2 P_3 keeps every relation but the seed: the record of l = 3
    # fails, and only it
    import vermabranch.diag_pair as diag_pair
    build, perturb = diag_pair.jacobi_t_polynomial, _PERTURB_P3[name]
    monkeypatch.setattr(diag_pair, "jacobi_t_polynomial",
                        lambda ctx, l: perturb(build(ctx, l)) if l == 3 else build(ctx, l))
    failed = [r.check_id for r in recursion_crosscheck(DiagContext.formal(), 4).failed]
    assert failed == ["diag.recursion.l=3"]


def test_top_coefficient_cancellation():
    assert top_coefficient_check(CTX, 10).ok()


def test_top_coefficient_record_reads_the_operator(monkeypatch):
    # a stray -t^2 d^2 in op_F_t adds -l(l-1) to the t^l coefficient of its
    # image of t^l: the records of l >= 2 fail, l = 1 still cancels
    import vermabranch.diag_pair as diag_pair
    build, stray = diag_pair.op_F_t, DiffOp(T_LINE, {(2,): -GeoPoly.var(T_LINE, "t", 2)})
    monkeypatch.setattr(diag_pair, "op_F_t", lambda ctx, l: build(ctx, l) + stray)
    failed = [r.check_id for r in top_coefficient_check(DiagContext.formal(), 4).failed]
    assert failed == [f"diag.top-cancellation.l={l}" for l in (2, 3, 4)]


def test_jacobi_t_polynomial_degree():
    for l in range(7):
        assert jacobi_t_polynomial(CTX, l).degree() == l


def _at_2t_plus_1(p):
    """The univariate p(x) at x = 2t + 1, by Horner's rule."""
    image = GeoPoly.var(T_LINE, "t").scale(2) + GeoPoly.const(T_LINE, 1)
    cs = p.coefficients()
    out = GeoPoly.zero(T_LINE)
    for k in range(p.degree(), -1, -1):
        out = out * image + GeoPoly.const(T_LINE, cs.get((k,), 0))
    return out


def test_affine_substitution_helper():
    x = GeoPoly.var(X_LINE, "x")
    t = GeoPoly.var(T_LINE, "t")
    assert _at_2t_plus_1(x * x) == (t * t).scale(4) + t.scale(4) + GeoPoly.const(T_LINE, 1)
    assert _at_2t_plus_1(GeoPoly.zero(X_LINE)).is_zero()


@pytest.mark.parametrize("l", range(13))
def test_closed_form_matches_jacobi_double_sum(l):
    # the terms a^l_i = binom(l, i) (i-lam)_{l-i} (mu-l+1)_i / l! against
    # the binomial double sum of P_l^(-lam-1, mu+lam-2l+1), formally
    p = jacobi(l, -LAMBDA - 1, MU + LAMBDA - (2 * l - 1))
    assert jacobi_t_polynomial(DiagContext.formal(), l) == _at_2t_plus_1(p)


def test_involution():
    assert involution_check().ok()


def test_character():
    assert character_check(20).ok()


def test_branching_sets_odd():
    s = branching_sets(3, 8)
    assert s.lambda_s == [3, 1]
    assert s.iota_lambda_s == [-5, -3]
    assert s.lambda_r_definitional == [-1, -7, -9, -11, -13]
    # the displayed case analysis disagrees with the definition
    d = s.diff()
    assert -1 in d["definitional-only"]
    assert d["displayed-only"] == [-3, -5]


def test_branching_sets_even():
    s = branching_sets(4, 8)
    assert s.lambda_s == [4, 2, 0]
    assert s.lambda_r_definitional == [-8, -10, -12]
    assert -1 in s.lambda_r_displayed


def test_grothendieck_multiset():
    for N in range(7):
        for cutoff in (4, 10):
            bundle = grothendieck_check(N, cutoff)
            by_id = {r.check_id: r.status for r in bundle.records}
            assert by_id[f"branch.grothendieck.N={N},cutoff={cutoff}"] == "pass"
            assert by_id[f"branch.lambda-r-diff.N={N}"] == DISCREPANCY


def test_decomposition_report():
    ctx = DiagContext.at(Fraction(1, 2), Fraction(5, 2))
    rep = decomposition_report(ctx, 8)
    assert rep.ok()
    sets = rep.data["branch.sets.N=3"]
    assert sets["Lambda_s"] == [3, 1] and sets["iota(Lambda_s)"] == [-5, -3]
    assert sets["Lambda_r definitional"][0] == -1


def test_decomposition_preconditions():
    with pytest.raises(ValueError, match="lam = 2"):
        decomposition_report(DiagContext.at(2, 1), 4)
    with pytest.raises(ValueError, match="not a nonnegative integer"):
        decomposition_report(DiagContext.at(Fraction(1, 2), Fraction(1, 3)), 4)
    with pytest.raises(ValueError, match="rational specializations"):
        decomposition_report(CTX, 4)


def test_suite_bundles_pass():
    assert annihilation_check(CTX, 6).ok()


# -- each operator literal against its composed form --------------------------
# The operators are written as their normal-form terms; the references below
# compose the same displayed formulas from multiplication, derivative and
# scalar operators.

def _ref_fourier(ctx, sign):
    dxi, deta = DiffOp.partial(XI_ETA, "xi"), DiffOp.partial(XI_ETA, "eta")
    eta_part = deta.scale(-ctx.mu) + DiffOp.mult(GeoPoly.var(XI_ETA, "eta")) @ deta @ deta
    return (dxi.scale(-ctx.lam) + DiffOp.mult(GeoPoly.var(XI_ETA, "xi")) @ dxi @ dxi
            + eta_part.scale(sign))


def _ref_function(ctx, sign):
    x, y = GeoPoly.var(XY, "x"), GeoPoly.var(XY, "y")
    y_part = DiffOp.mult(y.scale(ctx.mu)) + DiffOp.mult(y * y) @ DiffOp.partial(XY, "y")
    return (DiffOp.mult(x.scale(ctx.lam)) + DiffOp.mult(x * x) @ DiffOp.partial(XY, "x")
            + y_part.scale(sign))


def _ref_X_t(ctx, l):
    t, one, d = GeoPoly.var(T_LINE, "t"), GeoPoly.const(T_LINE, 1), DiffOp.partial(T_LINE, "t")
    lin = t.scale(ctx.mu - 2 * (l - 1)) - one.scale(ctx.lam)
    return (DiffOp.mult(t * (t + one)) @ d @ d + DiffOp.mult(lin) @ d
            + DiffOp.scalar(T_LINE, (ParamScalar.const(l - 1) - ctx.mu) * l))


def _ref_F_t(ctx, l):
    t, one, d = GeoPoly.var(T_LINE, "t"), GeoPoly.const(T_LINE, 1), DiffOp.partial(T_LINE, "t")
    lin = t.scale(ParamScalar.const(2 * l - 2) - ctx.mu) - one.scale(ctx.lam)
    return (DiffOp.mult(-(t * (t - one))) @ d @ d + DiffOp.mult(lin) @ d
            + DiffOp.scalar(T_LINE, (ctx.mu - (l - 1)) * l))


@pytest.mark.parametrize("ctx", [CTX, DiagContext.at(Fraction(1, 3), Fraction(2, 5))],
                         ids=["formal", "at-1/3-2/5"])
def test_operator_literals_match_composed_forms(ctx):
    pairs = [(op_X_fourier(ctx), _ref_fourier(ctx, 1)),
             (op_F_fourier(ctx), _ref_fourier(ctx, -1)),
             (op_X_function(ctx), _ref_function(ctx, 1)),
             (op_F_function(ctx), _ref_function(ctx, -1))]
    for l in range(7):
        pairs += [(op_X_t(ctx, l), _ref_X_t(ctx, l)), (op_F_t(ctx, l), _ref_F_t(ctx, l))]
    for op, ref in pairs:
        assert op == ref and op.render() == ref.render()
