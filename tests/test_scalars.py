"""Field arithmetic and canonical reduction in the parameter scalars."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import substitute
from vermabranch.scalars import ALPHA, LAMBDA, MU, ParamPoly, ParamScalar


def test_constants_and_rendering():
    assert ParamScalar.const(0).is_zero()
    assert ParamScalar.const(Fraction(3, 4)).render() == "3/4"
    assert LAMBDA.render() == "l"
    assert (LAMBDA * 2 + 1).render() == "2*l + 1"
    assert ((-LAMBDA) * MU).render() == "-l*m"


def test_rational_detection():
    assert ParamScalar.const(5).is_rational()
    assert ParamScalar.const(5).rational_value() == 5
    assert not LAMBDA.is_rational()
    # a quotient that collapses to a rational
    assert ((LAMBDA * 2) / LAMBDA).is_rational()


def test_cancellation_of_linear_factors():
    num = LAMBDA * LAMBDA - 1
    den = LAMBDA + 1
    assert num / den == LAMBDA - 1
    # every quotient is reduced, so equal values have one form
    a = (LAMBDA * MU + MU) / MU
    assert a == LAMBDA + 1


def test_half_integer_factor_reduction():
    # (l + 1/2)(l - 3) / (l + 1/2) should come out as a plain polynomial
    half = LAMBDA + Fraction(1, 2)
    val = (half * (LAMBDA - 3)) / half
    assert val.render() == "l - 3"


def test_common_factors_outside_linear_half_integers_cancel():
    # factors outside the family s + k/2, -40 <= k <= 40: 2l - 41 is l + k/2
    # with k = -41, and 3l - 2 is no l + k/2 at all
    x = (LAMBDA * 2 - 41) * (LAMBDA + 1) / (LAMBDA * 2 - 41)
    assert x.render() == "l + 1"
    assert x == LAMBDA + 1 and hash(x) == hash(LAMBDA + 1)
    y = (LAMBDA * 3 - 2) * MU / ((LAMBDA * 3 - 2) * (MU + 1))
    assert y.render() == "(m)/(m + 1)"
    assert y == MU / (MU + 1) and hash(y) == hash(MU / (MU + 1))


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        LAMBDA / ParamScalar.const(0)


def test_substitute():
    expr = (LAMBDA + 1) / (MU - 2)
    v = substitute(expr, {"l": 3, "m": 4})
    assert v.rational_value() == 2
    with pytest.raises(ZeroDivisionError):
        substitute(expr, {"l": 0, "m": 2})


def test_substitute_alpha_relation():
    # the weight relation alpha = -lambda - (n-1)/2 at n = 3
    expr = ALPHA * 2
    assert substitute(expr, {"a": Fraction(-5, 2)}).rational_value() == -5


# -- the packed kernel ---------------------------------------------------------

def test_exact_division_of_parameter_polynomials():
    a, l, m = (ParamPoly.symbol(s) for s in "alm")
    one = ParamPoly.const(1)
    # l does not divide a*m: the leading exponents leave a borrow
    assert (a * m).exact_divide(l) is None
    assert (l * m + l).exact_divide(m + one) == l
    assert (a * a * l + -(m * m * l)).exact_divide(a + m) == a * l + -(m * l)
    assert (l * l + one).exact_divide(l + one) is None
    # dividing f^2 (l - 1) by f cancels the remainder key l^2 m at one step
    # and creates it again at a later one; plus 1, the division fails
    two = ParamPoly.const(2)
    f = l * m + two * l + two * m
    assert (f * f * (l + -one)).exact_divide(f) == f * (l + -one)
    assert (f * f * (l + -one) + one).exact_divide(f) is None


def test_parameter_degree_stays_below_the_field_limit():
    def power(s, e):  # s^(2^e) by repeated squaring
        for _ in range(e):
            s = s * s
        return s

    lam, alpha = power(LAMBDA, 14), power(ALPHA, 14)
    assert lam.render() == f"l^{2 ** 14}"
    assert (lam * (lam / LAMBDA)).render() == f"l^{2 ** 15 - 1}"
    with pytest.raises(ValueError):
        lam * lam
    # the total degree has a field of its own
    with pytest.raises(ValueError):
        lam * alpha


def test_render_orders_terms_graded_lexicographically():
    p = ALPHA * ALPHA + LAMBDA * MU * MU * MU - MU * 3 + 1
    assert p.render() == "l*m^3 + a^2 - 3*m + 1"
    assert (p / (ALPHA * LAMBDA * LAMBDA - MU * 2 + 7)).render() == \
        "(l*m^3 + a^2 - 3*m + 1)/(a*l^2 - 2*m + 7)"


def test_equality_is_symmetric_and_agrees_with_hashing():
    values = [ParamScalar.const(0), ParamScalar.const(1), ParamScalar.const(Fraction(3, 4)),
              LAMBDA, LAMBDA / (MU + 1), ParamPoly.const(0), ParamPoly.const(1),
              ParamPoly.symbol("l"), 0, 1, 3, Fraction(3, 4), Fraction(2, 1)]
    for x in values:
        for y in values:
            assert (x == y) == (y == x), (x, y)
            if x == y:
                assert hash(x) == hash(y), (x, y)
    assert ParamScalar(ParamPoly.symbol("l")) != ParamPoly.symbol("l")
    assert ParamPoly.symbol("l") != ParamScalar(ParamPoly.symbol("l"))
    assert {1: "v"}.get(ParamScalar.const(1)) == "v"
    assert {Fraction(3, 4): "v"}.get(ParamScalar.const(Fraction(3, 4))) == "v"


scalars = st.builds(
    lambda c, kl, km: ParamScalar.const(c) + LAMBDA * kl + MU * km,
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
    st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars)
def test_division_inverts_multiplication(a, b):
    if not b.is_zero():
        assert (a / b) * b == a


# -- reference oracle ----------------------------------------------------------
# The earlier Fraction-coefficient implementation, kept here as a test-only
# reference: a ParamPoly with one Fraction per term.  A quotient is brought to
# lowest terms by sympy.cancel; the integer core must print exactly what this
# reference prints for every quotient.

def _ref_key(e):
    return (sum(e), e)


class _RefPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {tuple(e): Fraction(c) for e, c in (terms or {}).items() if c}

    def is_constant(self):
        return all(e == (0, 0, 0) for e in self.terms)

    def constant_value(self):
        return self.terms.get((0, 0, 0), Fraction(0))

    def leading(self):
        e = max(self.terms, key=_ref_key)
        return e, self.terms[e]

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return _RefPoly(out)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return _RefPoly(out)

    def scale(self, c):
        return _RefPoly({e: c * v for e, v in self.terms.items()})

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_ref_key, reverse=True):
            c = self.terms[e]
            mono = "*".join("alm"[i] + (f"^{e[i]}" if e[i] > 1 else "")
                            for i in range(3) if e[i])
            ac = abs(c)
            body = (mono if ac == 1 else f"{ac}*{mono}") if mono else str(ac)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


def _ref_reduce(num, den):
    one = _RefPoly({(0, 0, 0): 1})
    if not num.terms:
        return _RefPoly(), one
    if den.is_constant():
        return num.scale(1 / den.constant_value()), one
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("a l m")

    def to_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(
            s ** k for s, k in zip(syms, e))) for e, c in p.terms.items())

    def from_sympy(e):
        return _RefPoly({k: Fraction(int(c.p), int(c.q))
                         for k, c in sympy.Poly(e, *syms).terms()})
    p, q = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
    num, den = from_sympy(p), from_sympy(q)
    if den.is_constant():
        return num.scale(1 / den.constant_value()), one
    # denominator primitive with positive leading coefficient
    g, lcm = 0, 1
    for c in den.terms.values():
        g = math.gcd(g, c.numerator)
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    content = Fraction(g, lcm) if den.leading()[1] > 0 else -Fraction(g, lcm)
    return num.scale(1 / content), den.scale(1 / content)


def _ref_render(num, den):
    num, den = _ref_reduce(num, den)
    if den.terms == {(0, 0, 0): 1}:
        return num.render()
    return f"({num.render()})/({den.render()})"


# A quotient is given by factor lists: each factor a dict from (a, l, m)
# exponents to Fraction coefficients.  N = scale * prod(num factors) and
# D = prod(den factors).

def _linear(i, c):
    e = [0, 0, 0]
    e[i] = 1
    return {tuple(e): Fraction(1), (0, 0, 0): Fraction(c)}


_L_PLUS_50 = _linear(1, 50)
_L_SQUARED_PLUS_1 = {(0, 2, 0): Fraction(1), (0, 0, 0): Fraction(1)}

fractions_ = st.fractions(min_value=-30, max_value=30, max_denominator=7)
big_fractions = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30).filter(bool),
                          st.integers(1, 10 ** 25))


@st.composite
def quotients(draw):
    syms = draw(st.sampled_from([(1,), (1, 2)]))
    exps = [(0, i, j) for i in range(3) for j in range(3 if 2 in syms else 1)]

    def linear():
        half = draw(st.booleans())
        c = Fraction(draw(st.integers(-40, 40)), 2) if half else draw(fractions_)
        return _linear(draw(st.sampled_from(syms)), c)

    def poly():
        return {e: draw(fractions_) for e in draw(st.lists(st.sampled_from(exps),
                                                         min_size=1, max_size=4))}

    def side():
        return [draw(st.one_of(st.builds(linear), st.builds(poly)))
                for _ in range(draw(st.integers(0, 2)))]

    common = [linear() for _ in range(draw(st.integers(0, 3)))]
    common += draw(st.lists(st.sampled_from([_L_PLUS_50, _L_SQUARED_PLUS_1]), max_size=1))
    num, den = side() + common, side() + common
    scale = draw(st.one_of(fractions_, big_fractions))
    den_scale = draw(st.one_of(st.just(Fraction(1)), big_fractions))
    return scale, num, den_scale, den


def _ref_product(scale, factors):
    out = _RefPoly({(0, 0, 0): scale})
    for f in factors:
        out = out * _RefPoly(f)
    return out


def _new_poly(terms):
    """Sum of c * a^i l^j m^k over ((i, j, k), c) pairs, in ParamScalar arithmetic."""
    out = ParamScalar.const(0)
    for e, c in terms:
        mono = ParamScalar.const(c)
        for sym, k in zip((ALPHA, LAMBDA, MU), e):
            for _ in range(k):
                mono = mono * sym
        out = out + mono
    return out


def _new_product(scale, factors):
    out = ParamScalar.const(scale)
    for f in factors:
        out = out * _new_poly(f.items())
    return out


def _new_quotient(q):
    scale, num, den_scale, den = q
    return _new_product(scale, num) / _new_product(den_scale, den)


@settings(max_examples=150, deadline=None)
@given(quotients())
def test_render_matches_fraction_reference(q):
    scale, num, den_scale, den = q
    assume(_ref_product(den_scale, den).terms)
    expected = _ref_render(_ref_product(scale, num), _ref_product(den_scale, den))
    assert _new_quotient(q).render() == expected


@pytest.mark.parametrize("num, den, expected", [
    ([_L_PLUS_50], [_L_PLUS_50], "1"),
    ([_L_SQUARED_PLUS_1], [_L_SQUARED_PLUS_1], "1"),
    ([_linear(1, Fraction(3, 2)), _linear(2, -2)], [_linear(1, Fraction(3, 2))], "m - 2"),
    ([_linear(1, Fraction(1, 2))], [_linear(1, Fraction(1, 2)), _linear(1, 7)],
     "(1)/(l + 7)"),
    ([_linear(2, Fraction(-1, 2))], [_linear(1, 1), {(0, 0, 0): Fraction(3, 4)}],
     "(4/3*m - 2/3)/(l + 1)"),
])
def test_reference_cases(num, den, expected):
    q = (Fraction(1), num, Fraction(1), den)
    assert _ref_render(_ref_product(1, num), _ref_product(1, den)) == expected
    assert _new_quotient(q).render() == expected


# Sums and products of reduced quotients cancel crosswise: a common factor of
# a sum divides gcd(d1, d2), one of a product pairs n1 with d2 or n2 with d1.

_L = _linear(1, 0)
_M = _linear(2, 0)


def _ref_sum_and_product(x, y):
    (n1, d1), (n2, d2) = ((_ref_product(s, f), _ref_product(ds, g)) for s, f, ds, g in (x, y))
    return (_ref_render(n1 * d2 + n2 * d1, d1 * d2), _ref_render(n1 * n2, d1 * d2))


@pytest.mark.parametrize("x, y, total, product", [
    # 1/(l(l+1)) + 1/(l(l+2))
    ((1, [], 1, [_L, _linear(1, 1)]), (1, [], 1, [_L, _linear(1, 2)]),
     "(2*l + 3)/(l^3 + 3*l^2 + 2*l)", "(1)/(l^4 + 3*l^3 + 2*l^2)"),
    # 1/(l(l-1)) + 1/(l(l+1)) = 2/((l-1)(l+1)): the sum's numerator shares l
    ((1, [], 1, [_L, _linear(1, -1)]), (1, [], 1, [_L, _linear(1, 1)]),
     "(2)/(l^2 - 1)", "(1)/(l^4 - l^2)"),
    # (l+1)/(l+2) * (l+2)/(l+3), and l/(l+2) - l/(l+2)
    ((1, [_linear(1, 1)], 1, [_linear(1, 2)]), (1, [_linear(1, 2)], 1, [_linear(1, 3)]),
     "(2*l^2 + 8*l + 7)/(l^2 + 5*l + 6)", "(l + 1)/(l + 3)"),
    ((1, [_L], 1, [_linear(1, 2)]), (-1, [_L], 1, [_linear(1, 2)]),
     "0", "(-l^2)/(l^2 + 4*l + 4)"),
    # (l^2+1)/m * 3m/(2(l+50)): both cross pairs cancel, one by a constant
    ((1, [_L_SQUARED_PLUS_1], 1, [_M]), (3, [_M], 2, [_L_PLUS_50]),
     "(l^3 + 50*l^2 + 3/2*m^2 + l + 50)/(l*m + 50*m)", "(3/2*l^2 + 3/2)/(l + 50)"),
    # a constant denominator against a non-constant one
    ((Fraction(1, 3), [_L], 1, []), (1, [], 1, [_L, _linear(1, Fraction(1, 2))]),
     "(2/3*l^3 + 1/3*l^2 + 2)/(2*l^2 + l)", "(2/3)/(2*l + 1)"),
])
def test_crosswise_cancellation_matches_reference(x, y, total, product):
    assert _ref_sum_and_product(x, y) == (total, product)
    a, b = _new_quotient(x), _new_quotient(y)
    assert ((a + b).render(), (a * b).render()) == (total, product)
    assert ((b + a).render(), (b * a).render()) == (total, product)


@settings(max_examples=40, deadline=None)
@given(quotients(), quotients())
def test_sums_and_products_match_reference(x, y):
    assume(_ref_product(x[2], x[3]).terms and _ref_product(y[2], y[3]).terms)
    a, b = _new_quotient(x), _new_quotient(y)
    assert ((a + b).render(), (a * b).render()) == _ref_sum_and_product(x, y)


def test_large_constants_match_reference():
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 30))
        b = Fraction(rng.randint(-10 ** 40, 10 ** 40) or 1, rng.randint(1, 10 ** 30))
        expected = _ref_render(_RefPoly({(0, 0, 0): a}), _RefPoly({(0, 0, 0): b}))
        value = ParamScalar.const(a) / ParamScalar.const(b)
        assert value.render() == expected == str(a / b)
        assert value.rational_value() == a / b
        assert (LAMBDA * a / b).render() == _ref_render(
            _RefPoly({(0, 1, 0): a}), _RefPoly({(0, 0, 0): b}))


@settings(max_examples=60, deadline=None)
@given(quotients())
def test_quotient_equals_sympy_cancel(q):
    sympy = pytest.importorskip("sympy")
    a, l, m = sympy.symbols("a l m")

    def expr(scale, factors):
        out = sympy.Rational(scale.numerator, scale.denominator)
        for f in factors:
            out *= sum(sympy.Rational(c.numerator, c.denominator) * a ** e[0] * l ** e[1] * m ** e[2]
                       for e, c in f.items())
        return out

    scale, num, den_scale, den = q
    den_expr = expr(den_scale, den)
    assume(den_expr != 0)
    expected = sympy.cancel(expr(scale, num) / den_expr)
    value = _new_quotient(q)
    assert sympy.cancel(sympy.sympify(value.render().replace("^", "**")) - expected) == 0
    p, r = sympy.fraction(expected)

    def from_sympy(e):
        return _new_poly((k, Fraction(int(c.p), int(c.q)))
                         for k, c in sympy.Poly(e, a, l, m).terms())
    assert value == from_sympy(p) / from_sympy(r)


# common factors outside the family s + k/2, -40 <= k <= 40: l + k/2 with
# |k| > 40, k s + c with k in 3..7, l m + c and l^2 + 1
extra_factors = st.one_of(
    st.builds(lambda k: _linear(1, Fraction(k, 2)),
              st.one_of(st.integers(-200, -41), st.integers(41, 200))),
    st.builds(lambda i, k, c: {(0, 2 - i, i - 1): Fraction(k), (0, 0, 0): Fraction(c)},
              st.sampled_from([1, 2]), st.integers(3, 7), st.integers(-9, 9).filter(bool)),
    st.builds(lambda c: {(0, 1, 1): Fraction(1), (0, 0, 0): Fraction(c)},
              st.integers(-5, 5).filter(bool)),
    st.just(_L_SQUARED_PLUS_1),
)


@settings(max_examples=80, deadline=None)
@given(quotients(), st.lists(extra_factors, min_size=1, max_size=2), quotients())
def test_equal_values_hash_equal(q, extra, other):
    scale, num, den_scale, den = q
    assume(_ref_product(den_scale, den).terms)
    assume(_ref_product(other[2], other[3]).terms)
    a = _new_quotient(q)
    b = _new_quotient((scale, num + extra, den_scale, den + extra))
    c = _new_quotient(other)
    assert a == b and hash(a) == hash(b) and (a - b).is_zero()
    for x, y in ((a, c), (b, c), (c, a)):
        assert (x == y) == (x - y).is_zero()
        if x == y:
            assert hash(x) == hash(y)
