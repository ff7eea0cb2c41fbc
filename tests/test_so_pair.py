"""Orthogonal-pair scenario: singular vectors, ladder structure, Casimir,
membership of the raising/lowering pair, and the non-closure records."""

from fractions import Fraction

import pytest

from oracles import (casimir_closed_form, casimir_composed, render_over_q1, substitute,
                     t_model_poly, verify_singular, xi_ladder_ops)
from vermabranch import so_pair
from vermabranch.orthopoly import gegenbauer_tilde
from vermabranch.polyring import XY, GeoPoly, quadratic_sum
from vermabranch.report import DISCREPANCY
from vermabranch.scalars import ALPHA, LAMBDA, ParamScalar
from vermabranch.so_pair import (SoPairContext, casimir_check,
                                 expected_ladder_constants, pq_membership_check,
                                 singular_family_check, singular_vector_F,
                                 t_model_check, tilde_gegenbauer,
                                 verify_nonclosure, verify_sl2)
from vermabranch.weylalg import DiffOp, proportionality
from vermabranch.xi_model import op_P, op_Q

CTX3 = SoPairContext.formal(3)


def test_low_degree_vectors():
    vs = CTX3.vars
    x3 = GeoPoly.var(vs, "x3")
    q1 = quadratic_sum(vs, 2)
    assert singular_vector_F(CTX3, 0) == GeoPoly.const(vs, 1)
    assert singular_vector_F(CTX3, 1) == x3
    assert singular_vector_F(CTX3, 2) == q1 - (x3 * x3).scale(LAMBDA * 2)
    assert singular_vector_F(CTX3, 3) == (q1 * x3).scale(3) - (x3 ** 3).scale(
        LAMBDA * 2 - 2)


def test_embedded_fourth_vector():
    vs = CTX3.vars
    x3 = GeoPoly.var(vs, "x3")
    q1 = quadratic_sum(vs, 2)
    expected = (q1 * q1).scale(3) - (x3 * x3 * q1).scale(12 * LAMBDA - 12) \
        + (x3 ** 4).scale(LAMBDA * LAMBDA * 4 - LAMBDA * 12 + 8)
    assert singular_vector_F(CTX3, 4) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_singular_annihilation(n):
    # the primed directions on F_l in the n variables, the statement that
    # singular_family_check reads in the invariant model, to degree 8
    ctx = SoPairContext.formal(n)
    for l in range(9):
        assert verify_singular(ctx, singular_vector_F(ctx, l))


def test_q_action_constants():
    # the four displayed raising constants at n = 3
    q = op_Q(CTX3)
    expected = {
        0: -(LAMBDA + 1) * (LAMBDA * 2 + 2),
        1: LAMBDA,
        2: -(LAMBDA - 1) * (LAMBDA * 2),
        3: LAMBDA - 2,
    }
    for l, c in expected.items():
        img = q.apply(singular_vector_F(CTX3, l))
        assert proportionality(img, singular_vector_F(CTX3, l + 1)) == c


def test_p_lowers():
    p = op_P(CTX3)
    assert p.apply(singular_vector_F(CTX3, 0)).is_zero()
    assert p.apply(singular_vector_F(CTX3, 1)) == GeoPoly.const(
        CTX3.vars, LAMBDA)


def test_ladder_constants_match_diagram():
    # a passing sl2.raise or sl2.lower record means the measured constant
    # equals the expected one
    assert verify_sl2(CTX3, 4).ok()
    consts = [expected_ladder_constants(CTX3, l) for l in range(5)]
    assert [e.render() for e, _ in consts] == ['2*l + 2', '-1', '2*l', '-1', '2*l - 2']
    assert [f.render() for _, f in consts[1:]] == ['1', '-4*l - 2', '3', '-8*l + 4']


def test_expected_constants_parity_rule():
    alpha = CTX3.alpha
    e0, _ = expected_ladder_constants(CTX3, 0)
    assert e0 == -(alpha * 2)
    e1, f1 = expected_ladder_constants(CTX3, 1)
    assert e1 == ParamScalar.const(-1) and f1 == ParamScalar.const(1)
    _, f2 = expected_ladder_constants(CTX3, 2)
    assert f2 == (alpha * 2 + 1) * 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sl2_suite(n):
    assert verify_sl2(SoPairContext.formal(n), 5).ok()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_casimir(n):
    assert casimir_check(SoPairContext.formal(n), 5).ok()


def test_localized_lowering_is_polynomial_on_family():
    # f(l) F_l is a polynomial iff q1 divides the cleared image f~(l) F_l
    q1 = CTX3.q_prime()
    for l in range(1, 6):
        _, f_l, _ = xi_ladder_ops(CTX3, l)
        assert f_l.apply(singular_vector_F(CTX3, l)).exact_divide(q1) is not None


def _failed_casimir_witnesses(monkeypatch, stray):
    """The witnesses of casimir_check at n = 3, l <= 2, with stray added to
    the model's composed (cleared) Casimir."""
    casimir_ops = so_pair.casimir_ops
    monkeypatch.setattr(so_pair, "casimir_ops",
                        lambda ctx, l: (casimir_ops(ctx, l)[0] + stray, casimir_ops(ctx, l)[1]))
    bundle = casimir_check(CTX3, 2)
    return {r.check_id: r.witness for r in bundle.failed}


@pytest.mark.parametrize("stray, over_q1", [("y", False), ("x", True)])
def test_failed_cleared_identity_witness_sheds_q1_where_it_divides(monkeypatch, stray, over_q1):
    # a residual that y divides (a stray y) is a polynomial witness; one that
    # y does not divide (a stray x) is a witness over q1.  Both texts are the
    # cleared xi-model's image over q1, the stray term expanded to q1 or xn
    var = GeoPoly.var(XY, stray)
    witness = _failed_casimir_witnesses(monkeypatch, DiffOp.mult(var))
    assert witness.keys() == {f"casimir.scalar.n=3,l={l}" for l in range(3)}
    term = CTX3.xn() if stray == "x" else CTX3.q_prime()
    for l in range(3):
        f = singular_vector_F(CTX3, l)
        want = render_over_q1(casimir_composed(CTX3, l).apply(f) + term * f)
        text = witness[f"casimir.scalar.n=3,l={l}"]
        assert text == want and text.endswith(" / [q1]") == over_q1


def test_pq_membership():
    bundle = pq_membership_check(CTX3, 5)
    assert bundle.ok()
    assert bundle.data["pq.raise-constant.n=3,l=1"] == "l"


def test_t_model():
    bundle = t_model_check(CTX3, 5)
    assert bundle.ok()
    # the xi-model operator realizes (l - lambda + 1) times the t-line arrows
    assert bundle.data["tmodel.p-over-f-constant.n=3,l=2"] == "l - 1"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_t_model_poly_is_the_normalized_tilde_gegenbauer(n):
    # F_l collapses to the t-line Gegenbauer polynomial C~_l times the
    # normalization l!/(2^k k!) over its top coefficient, k = floor(l/2)
    ctx = SoPairContext.formal(n)
    for l in range(7):
        tilde = tilde_gegenbauer(ctx, l)
        top = tilde.coefficient((l // 2,))
        scale = ParamScalar.const(Fraction(so_pair._top_normalization(l))) / top
        assert t_model_poly(singular_vector_F(ctx, l)) == tilde.scale(scale)


@pytest.mark.parametrize("n", [3, 4])
def test_nonclosure(n):
    bundle = verify_nonclosure(SoPairContext.formal(n))
    assert bundle.ok()
    statuses = {r.check_id: r.status for r in bundle.records}
    # the display-comparison records are discrepancies, never failures
    disc = [cid for cid, s in statuses.items() if s == DISCREPANCY]
    assert disc, "expected discrepancy-reported display diffs"
    assert all("display" in cid for cid in disc)


@pytest.mark.parametrize("n", [2, 3])
def test_tilde_gegenbauer_matches_formal_alpha_build(n):
    # C_l^alpha built at alpha = -lam-(n-1)/2 against C_l^a built with a
    # formal a on the t-line, and then specialized coefficient by coefficient
    ctx = SoPairContext.formal(n)
    for l in range(11):
        formal = gegenbauer_tilde(l, ALPHA)
        expected = GeoPoly(formal.vars, {
            e: substitute(c, {"a": ctx.alpha}) for e, c in formal.coefficients().items()})
        assert tilde_gegenbauer(ctx, l) == expected


@pytest.mark.parametrize("n, lam", [(2, Fraction(1, 4)), (4, Fraction(-1, 4)),
                                    (5, Fraction(-1, 2)), (6, Fraction(-3, 4))])
def test_nonclosure_where_low_eigenvalues_are_collinear(n, lam):
    # at lam = (3-n)/4 the [P, Q] eigenvalues at l = 0, 1, 2 lie on a line;
    # the check then reads l = 3, where the family leaves it
    ctx = SoPairContext.at(n, lam)
    bundle = verify_nonclosure(ctx)
    eigs = [ParamScalar.coerce(Fraction(bundle.data[f"nonclosure.pq-eigenvalue.n={n},l={l}"]))
            for l in range(3)]
    assert (eigs[2] - eigs[1] * 2 + eigs[0]).is_zero()
    assert bundle.ok()
    assert f"nonclosure.pq-not-affine.n={n}" in {r.check_id for r in bundle.records}


def test_nonclosure_with_degenerate_third_vector_is_a_precondition_error(monkeypatch):
    build = so_pair.singular_vector_F

    def degenerate_at_3(ctx, l):
        if l == 3:
            raise ZeroDivisionError("normalization divisor vanishes at degree 3")
        return build(ctx, l)

    monkeypatch.setattr(so_pair, "singular_vector_F", degenerate_at_3)
    with pytest.raises(ZeroDivisionError):
        verify_nonclosure(SoPairContext.at(2, Fraction(1, 4)))
    # away from the collinear weight, l = 3 is never built
    assert verify_nonclosure(SoPairContext.at(2, Fraction(1, 3))).ok()


def test_nonclosure_eigenvalues_cubic():
    bundle = verify_nonclosure(CTX3)
    eig = {l: bundle.data[f"nonclosure.pq-eigenvalue.n=3,l={l}"]
           for l in range(3)}
    assert eig[0] == "-2*l^3 - 4*l^2 - 2*l"
    assert eig[1] == "-2*l^3 + 6*l^2 + 4*l"
    assert eig[2] == "-2*l^3 + 16*l^2 - 14*l"


def test_singular_vector_raises_exactly_at_the_documented_weights():
    # the normalization divides by (alpha)_{ceil(l/2)}, alpha = -lam-(n-1)/2
    cases = []
    for n in range(2, 7):
        for k in range(-16, 17):
            ctx = SoPairContext.at(n, Fraction(k, 4))
            alpha = -Fraction(k, 4) - Fraction(n - 1, 2)
            for l in range(7):
                expected = alpha.denominator == 1 and 1 - (l + 1) // 2 <= alpha <= 0
                try:
                    singular_vector_F(ctx, l)
                    raised = False
                except ZeroDivisionError:
                    raised = True
                cases.append((n, k, l, raised, expected))
    assert len(cases) == 1155 and sum(c[4] for c in cases) == 60
    assert [c for c in cases if c[3] != c[4]] == []


def test_family_check():
    assert singular_family_check(CTX3, 6).ok()


def test_high_degree_vector_is_fully_reduced():
    # the normalizer of F_l carries the factors 2l + n - 1 - 2i; from degree 43
    # on (n = 2) some fall outside any fixed family of linear factors, and only
    # a full gcd cancels them all
    f = singular_vector_F(SoPairContext.formal(2), 44)
    assert f.coefficients()
    assert all(c.den.is_constant() for c in f.coefficients().values())


# -- the ladder and Casimir literals against their composed forms -------------

def _ref_e_f(ctx, l):
    """e = -q o d_n - (2a+l) xn, and xn o f~ = q o (xn d_n - l) + l q1, the
    cleared form of xn o f = (q/q1) o (xn d_n - l) + l."""
    vs, xn, q = ctx.vars, ctx.xn(), ctx.q_full()
    dn, s = DiffOp.partial(vs, ctx.n - 1), lambda c: DiffOp.scalar(vs, c)
    e = -(DiffOp.mult(q) @ dn) - DiffOp.mult(xn.scale(ctx.alpha * 2 + l))
    return e, DiffOp.mult(q) @ (DiffOp.mult(xn) @ dn - s(l)) + DiffOp.mult(ctx.q_prime().scale(l))


def _ref_casimir(ctx, l):
    """q1 times the closed form, composed from its displayed factors."""
    vs, alpha, xn, q, q1 = ctx.vars, ctx.alpha, ctx.xn(), ctx.q_full(), ctx.q_prime()
    dn, mult = DiffOp.partial(vs, ctx.n - 1), DiffOp.mult
    mid = q1.scale(alpha) - (xn * xn).scale((alpha * 2 + l) * l)
    euler_shift = DiffOp.euler(vs) + DiffOp.scalar(vs, alpha)
    return (mult(q * q).scale(-2) @ dn @ dn
            + mult(q * xn).scale((alpha * 2 + 1) * -2) @ dn
            + mult(mid).scale(-2) + (mult(q1) @ euler_shift @ euler_shift).scale(2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ladder_and_casimir_literals_match_composed_forms(n):
    ctx = SoPairContext.formal(n)
    for l in range(5):
        e, f, _ = xi_ladder_ops(ctx, l)
        for op, ref in zip((e, DiffOp.mult(ctx.xn()) @ f), _ref_e_f(ctx, l)):
            assert op == ref and op.render() == ref.render()
        cas, ref = casimir_closed_form(ctx, l), _ref_casimir(ctx, l)
        assert cas == ref and cas.render() == ref.render()
