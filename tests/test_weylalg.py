"""Normal ordering, composition, and the action of differential operators."""

import random
from fractions import Fraction
from math import perm

import pytest

from oracles import casimir_closed_form, ref_apply, ref_compose, xi_ladder_ops
from vermabranch.diag_pair import (DiagContext, jacobi_t_polynomial, op_F_fourier, op_F_t,
                                   op_X_fourier, op_X_t, singular_vector_Ptilde)
from vermabranch.polyring import T_LINE, XY, GeoPoly, RatCoeff, quadratic_sum, xi_vars
from vermabranch.properties import (apply_compose, associativity,
                                    field_axioms, jacobi_identity,
                                    normal_order_confluence)
from vermabranch.scalars import ALPHA, LAMBDA, MU, ParamScalar
from vermabranch.so_pair import SoPairContext
from vermabranch.weylalg import DiffOp, proportionality
from vermabranch.xi_model import op_P, op_Q

VS = xi_vars(2)
X1 = GeoPoly.var(VS, "x1")
X2 = GeoPoly.var(VS, "x2")
D1 = DiffOp.partial(VS, "x1")
D2 = DiffOp.partial(VS, "x2")


def test_canonical_commutation():
    # [d_1, x1] = 1, [d_1, x2] = 0
    assert D1.commutator(DiffOp.mult(X1)) == DiffOp.scalar(VS, 1)
    assert D1.commutator(DiffOp.mult(X2)).is_zero()


def test_normal_ordering_moves_coefficients_left():
    # d_1 o x1 = x1 d_1 + 1
    op = D1 @ DiffOp.mult(X1)
    assert op == DiffOp.mult(X1) @ D1 + DiffOp.scalar(VS, 1)


def test_higher_leibniz():
    # d_1^2 o x1^2 = x1^2 d_1^2 + 4 x1 d_1 + 2
    op = (D1 @ D1) @ DiffOp.mult(X1 * X1)
    expected = (DiffOp.mult(X1 * X1) @ D1 @ D1
                + (DiffOp.mult(X1) @ D1).scale(4) + DiffOp.scalar(VS, 2))
    assert op == expected


def test_euler_measures_degree():
    e = DiffOp.euler(VS)
    p = X1 * X1 * X2
    assert e.apply(p) == p.scale(3)


def test_laplacian():
    lap = DiffOp.laplacian(VS)
    q = quadratic_sum(VS, 2)
    assert lap.apply(q) == GeoPoly.const(VS, 4)


def test_order():
    assert DiffOp(VS).order() == -1
    assert DiffOp.mult(X1).order() == 0
    assert (D1 @ D2).order() == 2


def test_proportionality():
    assert proportionality(X1.scale(LAMBDA), X1) == LAMBDA
    assert proportionality(GeoPoly.zero(VS), X1) == ParamScalar.const(0)
    assert proportionality(X1 + X2, X1) is None
    with pytest.raises(ValueError):
        proportionality(X1, GeoPoly.zero(VS))


def test_scalar_coefficient_operators():
    op = D1.scale(LAMBDA)
    assert op.apply(X1 * X1) == X1.scale(LAMBDA * 2)


def test_randomized_property_suites_small():
    # tiny seeds here; the full 200-case suites run in the acceptance tests
    for suite in (field_axioms, associativity, apply_compose,
                  jacobi_identity, normal_order_confluence):
        bundle = suite(7, 20)
        assert bundle.ok(), suite.__name__


# -- against the reference fold (tests/oracles.py) ------------------------------

def _assert_matches_reference(a: DiffOp, b: DiffOp, p: GeoPoly):
    assert a.compose(b).render() == ref_compose(a, b).render()
    assert a.commutator(b).render() == (ref_compose(a, b) - ref_compose(b, a)).render()
    assert a.commutator(a).is_zero()
    assert a.apply_rat(p).render() == ref_apply(a, p).render()


@pytest.mark.parametrize("l", range(5))
def test_ladder_products_match_reference(l):
    ctx = SoPairContext.formal(3)
    e, f, h = xi_ladder_ops(ctx, l)
    p = quadratic_sum(ctx.vars, 3) * ctx.xn() ** l
    for a, b in ((e, f), (f, e), (f, f), (h, e)):
        _assert_matches_reference(a, b, p)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_op_q_products_match_reference(n):
    ctx = SoPairContext.formal(n)
    q, p_op = op_Q(ctx), op_P(ctx)
    probe = quadratic_sum(ctx.vars, n) * ctx.xn()
    _assert_matches_reference(q, p_op, probe)
    _assert_matches_reference(p_op, q, probe)


# -- polynomial and fractional operands --------------------------------------

def _assert_same(x, y):
    assert x == y and x.render() == y.render()


def _rand_param_poly(rng: random.Random, vs, max_deg: int = 2) -> GeoPoly:
    """Up to four terms with coefficients in Z[a, l, m]."""
    cs = (1, -3, 7, ALPHA, LAMBDA * 2 - 1, ALPHA * MU + LAMBDA, MU * MU - 5)
    return GeoPoly(vs, {tuple(rng.randint(0, max_deg) for _ in range(vs.arity)):
                        rng.choice(cs) for _ in range(rng.randint(1, 4))})


def _rand_poly_op(rng: random.Random, vs) -> DiffOp:
    return DiffOp(vs, {tuple(rng.randint(0, 2) for _ in range(vs.arity)):
                       _rand_param_poly(rng, vs) for _ in range(rng.randint(1, 3))})


@pytest.mark.parametrize("n", [2, 3])
def test_polynomial_products_match_the_reference_fold(n):
    rng = random.Random(100 + n)
    vs = xi_vars(n)
    for _ in range(40):
        a, b = _rand_poly_op(rng, vs), _rand_poly_op(rng, vs)
        p = _rand_param_poly(rng, vs, max_deg=3)
        # the same polynomial over a parameter denominator
        p_over = p.scale(ParamScalar.const(1) / (LAMBDA * 3 + ALPHA))
        assert p_over.den.terms != {0: 1}
        _assert_same(a @ b, ref_compose(a, b))
        _assert_same(a.commutator(b), ref_compose(a, b) - ref_compose(b, a))
        _assert_same(a.apply_rat(p), ref_apply(a, p))
        _assert_same(a.apply_rat(p_over), ref_apply(a, p_over))


@pytest.mark.parametrize("l", range(9))
def test_action_on_long_parameter_rows(l):
    # the diagonal pair's vectors at formal lam, mu carry a polynomial in
    # (l, m) on each geometric monomial, 25 packed terms on the longest at
    # l = 8: the action runs each as one row, compose and the reference fold
    # term by term, and compose is checked against the fold as well.  X kills P~_l and P_l, so X also meets xi P~_l and P_l
    # meets the t-model X of l + 1; d_xi^2 kills the rows xi^0 and xi^1 of
    # P~_l and keeps the others
    ctx = DiagContext.formal()
    p_fourier, p_t = singular_vector_Ptilde(ctx, l), jacobi_t_polynomial(ctx, l)
    vs = p_fourier.vars
    d2 = DiffOp.partial(vs, "xi", 2)
    cases = [(op, p) for op in (op_X_fourier(ctx), op_F_fourier(ctx))
             for p in (p_fourier, GeoPoly.var(vs, "xi") * p_fourier)]
    cases += [(op, p_t) for op in (op_X_t(ctx, l), op_F_t(ctx, l), op_X_t(ctx, l + 1))]
    # the same vector over a parameter denominator
    over = p_fourier.scale(1 / (LAMBDA - MU * 2 + 3))
    assert len(over.den.terms) > 1
    cases.append((op_F_fourier(ctx), over))
    cases.append((d2, p_fourier))
    for op, p in cases:
        got, product = op.apply_rat(p), op @ DiffOp.mult(p)
        _assert_same(got, ref_apply(op, p))
        _assert_same(product, ref_compose(op, DiffOp.mult(p)))
        _assert_same(got, product.apply(GeoPoly.const(p.vars, 1)))
    assert op_X_fourier(ctx).apply_rat(p_fourier).is_zero()
    assert op_X_t(ctx, l).apply_rat(p_t).is_zero()
    assert not op_X_t(ctx, l + 1).apply_rat(p_t).is_zero()
    assert op_F_fourier(ctx).apply_rat(p_fourier).is_zero() == (l == 0)
    kept = {e for e in p_fourier.coefficients() if e[0] >= 2}
    assert len(kept) == max(l - 1, 0) and len(p_fourier.coefficients()) == l + 1
    assert {(e[0] + 2, e[1]) for e in d2.apply_rat(p_fourier).coefficients()} == kept


def test_localized_and_fractional_products_match_the_reference_fold():
    # the ladder's f~, the localized f cleared by q1, half the parameter
    # denominators 2 and 1 on its two coefficients, and nested the parameter
    # denominators l+1, (l+1)(m-1), l+1 again and 2, which its operands
    # share only after the dedup and the nesting of their lcm
    ctx = SoPairContext.formal(3)
    vs = ctx.vars
    x1, x2, x3 = (GeoPoly.var(vs, name) for name in vs.names)
    f = xi_ladder_ops(ctx, 2)[1]
    half = DiffOp(vs, {(1, 0, 0): x3.scale(Fraction(1, 2)), (0, 0, 0): LAMBDA})
    nested = DiffOp(vs, {(1, 0, 0): x2.scale(1 / (LAMBDA + 1)),
                         (0, 1, 0): (x1 + x3).scale(MU / ((LAMBDA + 1) * (MU - 1))),
                         (0, 0, 1): x3.scale(LAMBDA / (LAMBDA + 1)),
                         (0, 0, 0): Fraction(3, 2)})
    poly = DiffOp(vs, {(0, 1, 1): quadratic_sum(vs, 3), (0, 0, 1): MU})
    probe = quadratic_sum(vs, 2) * ctx.xn() ** 2
    assert f.terms[(0, 0, 1)] == ctx.q_full()
    assert half.terms[(1, 0, 0)].den.terms == {0: 2}
    dens = [c.den for c in nested.terms.values()]
    assert dens[0] == dens[2] != dens[1] and dens[3].terms == {0: 2}
    assert dens[1].exact_divide(dens[0]) is not None
    for a in (f, half, nested):
        for x, y in ((a, poly), (poly, a), (a, a), (a, f), (f, a), (a, half), (half, a)):
            _assert_same(x @ y, ref_compose(x, y))
            _assert_same(x.commutator(y), ref_compose(x, y) - ref_compose(y, x))
        _assert_same(a.apply_rat(probe), ref_apply(a, probe))


def test_products_past_the_exponent_limit_are_rejected():
    # half * half reaches 2^15 in the t field or in the l field, as a product
    # of coefficients or through a derivative: half d/dt (t half) = half^2 + ...
    for half in (GeoPoly.var(T_LINE, "t", 2 ** 14), GeoPoly.const(T_LINE, LAMBDA) ** 2 ** 14):
        mult, op = DiffOp.mult(half), DiffOp(T_LINE, {(1,): half})
        big = half * GeoPoly.var(T_LINE, "t")
        for product in (lambda: mult @ mult, lambda: mult.apply_rat(half), lambda: op @ op,
                        lambda: op.commutator(DiffOp.mult(big)), lambda: op.apply_rat(big)):
            with pytest.raises(ValueError, match="exponent of 32768"):
                product()
    # just below the limit the product is built
    below = DiffOp(T_LINE, {(1,): GeoPoly.var(T_LINE, "t", 2 ** 14 - 1)})
    assert (below @ below).order() == 2
    # derivative monomials are packed the same way: D^(2^14-1) squared is
    # built, while an operand or a product whose derivative exponent or degree
    # reaches 2^15 raises instead of carrying into a neighbouring field
    d = DiffOp.partial(T_LINE, "t", 2 ** 14 - 1)
    assert (d @ d).order() == 2 ** 15 - 2
    assert (d @ d).terms == {(2 ** 15 - 2,): GeoPoly.const(T_LINE, 1)}
    assert (d @ DiffOp.mult(GeoPoly.var(T_LINE, "t"))).terms.keys() == {(2 ** 14 - 1,), (2 ** 14 - 2,)}
    for op in (DiffOp.partial(T_LINE, "t", 2 ** 15), DiffOp.partial(VS, "x2", 2 ** 15),
               DiffOp(VS, {(2 ** 14, 2 ** 14): 1})):
        one = GeoPoly.const(op.vars, 1)
        for product in (lambda: op @ op, lambda: op.commutator(op), lambda: op.apply_rat(one)):
            with pytest.raises(ValueError, match="exponent of 32768"):
                product()
    high = DiffOp.partial(VS, "x2", 2 ** 15 - 1)
    for low in (D2, D1):  # the x2 field, then the degree field, reaches 2^15
        with pytest.raises(ValueError, match="exponent of 32768"):
            low @ high
    assert (D1 @ DiffOp.partial(VS, "x2", 2 ** 15 - 2)).terms == {
        (1, 2 ** 15 - 2): GeoPoly.const(VS, 1)}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_derivatives_vanish_by_the_borrow_at_the_field_edges(n):
    # D^k x^g = (g)_k x^(g-k), and 0 where g_i = k_i - 1: the subtracted key
    # borrows in one field's top bit.  With the missing degree made up in
    # the variable just above the degree field equals |k|, so for the last
    # variable xn's field alone borrows.  apply_rat takes the one row k of D^k, checked
    # against the closed form up to 2^15 - 1; compose runs every sub-monomial
    # of k, so it takes the small orders alone
    vs = xi_vars(n)
    for i, other in ((0, n - 1), (n - 1, n - 2)):
        def mono(gi, go=0):
            e = [0] * n
            e[i], e[other] = gi, go
            return tuple(e)
        for ki in (1, 2, 7, 2 ** 14, 2 ** 15 - 1):
            d, small = DiffOp(vs, {mono(ki): 1}), ki < 8
            for gi in sorted({ki, min(ki + 3, 2 ** 15 - 1), 2 ** 15 - 1}):
                # by value: a render of (2^15 - 1)! passes Python's digit limit
                x, want = GeoPoly(vs, {mono(gi): 1}), GeoPoly(vs, {mono(gi - ki): perm(gi, ki)})
                assert d.apply_rat(x) == want
                if small:
                    assert (d @ DiffOp.mult(x)).terms[(0,) * n] == want
            for go in (0, 1):
                x = GeoPoly(vs, {mono(ki - 1, go): 1})
                assert x.degree() == ki - 1 + go
                assert d.apply_rat(x).is_zero()
                if small:
                    assert (0,) * n not in (d @ DiffOp.mult(x)).terms
    # k in the first and the last variable at once, one of them short
    k = (2,) + (0,) * (n - 2) + (3,)
    d = DiffOp(vs, {k: 1})
    assert d.apply_rat(GeoPoly(vs, {(4,) + (0,) * (n - 2) + (3,): 1})) == GeoPoly(
        vs, {(2,) + (0,) * (n - 1): perm(4, 2) * perm(3, 3)})
    for g in ((1,) + (0,) * (n - 2) + (4,), (5,) + (0,) * (n - 2) + (2,)):
        assert d.apply_rat(GeoPoly(vs, {g: 1})).is_zero()


# -- the checked constructor ---------------------------------------------------

def test_constructor_rejects_malformed_terms():
    # a coefficient over another variable set, a negative exponent, and
    # exponents of the wrong arity
    with pytest.raises(ValueError, match="variable-set"):
        DiffOp(VS, {(1, 0): GeoPoly.var(T_LINE, "t")})
    for e in ((-1, 0), (0, 1, 1), (1,)):
        with pytest.raises(ValueError):
            DiffOp(VS, {e: 1})


@pytest.mark.parametrize("c", [3, Fraction(-2, 3), LAMBDA, LAMBDA / (LAMBDA + 1)])
def test_scalar_coefficients_coerce(c):
    op = DiffOp(VS, {(0, 0): c, (1, 0): c})
    assert op.terms == {(0, 0): GeoPoly.const(VS, c), (1, 0): GeoPoly.const(VS, c)}
    assert op == DiffOp.scalar(VS, c) + D1.scale(c)


def test_polynomial_and_localized_coefficients():
    # every coefficient is a polynomial: a localized value, such as the
    # witness form x / y of the invariant model, is no coefficient
    op = DiffOp(VS, {(0, 0): X1, (0, 1): X2})
    assert op.terms == {(0, 0): X1, (0, 1): X2}
    assert op == DiffOp.mult(X1) + DiffOp.mult(X2) @ D2
    assert all(type(c) is GeoPoly for c in (op @ op).terms.values())
    witness = RatCoeff(VS, GeoPoly.var(XY, "x"), 1)
    assert witness.k == 1
    for c in (witness, "x1", 1.5):
        with pytest.raises(TypeError):
            DiffOp(VS, {(0, 1): c})


def test_zero_coefficients_are_dropped():
    op = DiffOp(VS, {(1, 0): 0, (0, 1): GeoPoly.zero(VS), (0, 0): ParamScalar.const(0),
                     (2, 0): 1})
    assert list(op.terms) == [(2, 0)] and op == D1 @ D1


def test_algebra_results_skip_the_constructor(monkeypatch):
    a, b = D1 @ DiffOp.mult(X1 * X2), DiffOp.mult(X2) @ D2
    monkeypatch.setattr(DiffOp, "__init__", lambda *args: pytest.fail("checked"))
    for op in (a + b, -a, a - b, a.scale(LAMBDA), a @ b, a.commutator(b)):
        assert not op.is_zero()


# -- witness renders -------------------------------------------------------------
# A failing sl2 or Casimir check prints these operators and coefficients.

def test_render_of_a_coefficient_past_the_int_to_str_limit():
    # 2000! has 5,736 digits, past Python's 4,300-digit limit for str(int):
    # it renders as its digit count and a digest of its hex form, and a
    # Fraction part past the limit does too
    big = DiffOp.partial(T_LINE, "t", 2000).apply(GeoPoly.var(T_LINE, "t", 2000))
    assert big.render() == "([5736 digits, crc32 71f04888])"
    x = big.coefficient((0,)).num.constant_value()
    half = GeoPoly(T_LINE, {(1,): Fraction(1, 2 * x + 1), (0,): -x})
    assert half.render() == ("(1/[5736 digits, crc32 6b7b30cc])*t"
                             " + (-[5736 digits, crc32 71f04888])")


def test_witness_renders_are_pinned():
    ctx = SoPairContext.formal(3)
    f = xi_ladder_ops(ctx, 2)[1]
    assert f.render() == "(x1^2 + x2^2 + x3^2) D[x3] + (-2*x3)"
    assert (f @ f).render() == (
        "(x1^4 + 2*x1^2*x2^2 + 2*x1^2*x3^2 + x2^4 + 2*x2^2*x3^2 + x3^4) D[x3]^2"
        " + (-2*x1^2*x3 - 2*x2^2*x3 - 2*x3^3) D[x3]"
        " + (-2*x1^2 - 2*x2^2 + 2*x3^2)")
    assert casimir_closed_form(ctx, 2).render() == (
        "(2*x1^4 + 2*x1^2*x2^2) D[x1]^2 + (4*x1^3*x2 + 4*x1*x2^3) D[x1]*D[x2]"
        " + (4*x1^3*x3 + 4*x1*x2^2*x3) D[x1]*D[x3] + (2*x1^2*x2^2 + 2*x2^4) D[x2]^2"
        " + (4*x1^2*x2*x3 + 4*x2^3*x3) D[x2]*D[x3]"
        " + (-2*x1^4 - 4*x1^2*x2^2 - 2*x1^2*x3^2 - 2*x2^4 - 2*x2^2*x3^2 - 2*x3^4) D[x3]^2"
        " + ((-4*l - 2)*x1^3 + (-4*l - 2)*x1*x2^2) D[x1]"
        " + ((-4*l - 2)*x1^2*x2 + (-4*l - 2)*x2^3) D[x2] + ((4*l + 2)*x3^3) D[x3]"
        " + ((2*l^2 + 6*l + 4)*x1^2 + (2*l^2 + 6*l + 4)*x2^2 - 8*l*x3^2)")
    x, y = GeoPoly.var(XY, "x"), GeoPoly.var(XY, "y")
    assert RatCoeff(ctx.vars, x.scale(LAMBDA) + GeoPoly.const(XY, 1), 1).render() \
        == "(l*x3 + 1) / [q1]"
    assert RatCoeff(ctx.vars, x, 1).render() == "(x3) / [q1]"
    assert RatCoeff(ctx.vars, x * y, 1).render() == "x3"
    # every branch of the shared term formatter: a leading -1, a later
    # parenthesized rational-function coefficient, a later minus, a bare
    # monomial and a parenthesized constant term
    g = GeoPoly(VS, {(2, 0): -1, (1, 1): LAMBDA / (MU + 1), (1, 0): -2, (0, 1): 1,
                     (0, 0): LAMBDA + 2})
    assert g.render() == "-x1^2 + ((l)/(m + 1))*x1*x2 - 2*x1 + x2 + (l + 2)"
    num = (ALPHA * MU * -4 + LAMBDA * LAMBDA * 6 - LAMBDA * 4 + MU * 4 - 5).num
    assert num.render() == "-4*a*m + 6*l^2 - 4*l + 4*m - 5"
    assert num.render(4) == "-a*m + 3/2*l^2 - l + m - 5/4"
    op = DiffOp(VS, {(1, 0): 1, (0, 2): X1.scale(LAMBDA), (0, 0): -2})
    assert op.render() == "(l*x1) D[x2]^2 + D[x1] + (-2)"
    assert [z.render() for z in (GeoPoly.zero(VS), DiffOp(VS), ParamScalar.const(0))] \
        == ["0", "0", "0"]
