"""Sparse geometric polynomials, the witness form of a cleared model
identity, and the homogenization helpers."""

import random
from fractions import Fraction

import pytest

from vermabranch import polyring, properties, weylalg
from vermabranch.cli import main
from vermabranch.polyring import (T_LINE, X_LINE, XI_ETA, XY, GeoPoly, RatCoeff, VarSet,
                                  curated_factors, dehomogenize, homogenize,
                                  invariant_expand, quadratic_sum, xi_vars)
from oracles import derive
from vermabranch.packed import PBITS, PTOP, layout, pack, product, unpack
from vermabranch.scalars import _ONE, ALPHA, LAMBDA, MU, ParamPoly, ParamScalar
from vermabranch.weylalg import DiffOp


def test_varsets():
    vs = xi_vars(3)
    assert vs.names == ("x1", "x2", "x3")
    assert XI_ETA.names == ("xi", "eta")
    assert XY.names == ("x", "y")
    assert T_LINE.arity == 1
    assert xi_vars(3) is xi_vars(3)
    with pytest.raises(ValueError, match="n >= 2"):
        xi_vars(1)


def test_every_varset_check_meets_one_object(monkeypatch, capsys):
    # the package builds each variable set once, so no check of a run
    # compares two equal copies; a hand-built equal set still passes
    same, calls, copies = polyring._same_vars, [], []

    def counting(a, b):
        calls.append(a)
        if a is not b and a == b:
            copies.append(a)
        return same(a, b)

    for module in (polyring, weylalg):
        monkeypatch.setattr(module, "_same_vars", counting)
    assert main(["verify-so", "--n", "3", "--max-degree", "3"]) == 0
    assert main(["verify-diag", "--max-degree", "3"]) == 0
    assert properties.run_all(7, 2).ok()
    capsys.readouterr()
    assert calls and copies == []
    vs = xi_vars(3)
    assert same(vs, VarSet("xi", ("x1", "x2", "x3"))) is vs
    with pytest.raises(ValueError, match="variable-set mismatch"):
        same(vs, VarSet("t", vs.names))


def test_basic_arithmetic():
    vs = xi_vars(2)
    x1 = GeoPoly.var(vs, "x1")
    x2 = GeoPoly.var(vs, "x2")
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert (p - p).is_zero()
    assert p.degree() == 2 and p.is_homogeneous()


def test_derive():
    vs = xi_vars(2)
    x1 = GeoPoly.var(vs, "x1")
    p = x1 ** 3
    assert derive(p, "x1") == (x1 * x1).scale(3)
    assert derive(p, "x2").is_zero()


def test_exact_divide():
    vs = xi_vars(3)
    q1 = quadratic_sum(vs, 2)
    x3 = GeoPoly.var(vs, "x3")
    prod = q1 * q1 * x3
    assert prod.exact_divide(q1) == q1 * x3
    assert prod.exact_divide(x3) == q1 * q1
    assert (q1 + x3).exact_divide(q1) is None


def test_curated_factors_per_kind():
    assert set(curated_factors(xi_vars(4))) == {"xn", "q1", "q"}
    assert curated_factors(XI_ETA) == {}
    assert curated_factors(T_LINE) == {}
    assert curated_factors(X_LINE) == {}


# -- the witness form of a cleared model identity ------------------------------

X, Y = GeoPoly.var(XY, "x"), GeoPoly.var(XY, "y")


def test_ratcoeff_autoreduces():
    # y divides the cleared value y x, so the witness is the polynomial xn
    vs = xi_vars(3)
    r = RatCoeff(vs, Y * X, 1)
    assert r.k == 0 and r.num == GeoPoly.var(vs, "x3")
    assert r.render() == "x3"


def test_ratcoeff_keeps_irreducible_denominator():
    vs = xi_vars(3)
    r = RatCoeff(vs, X + Y.scale(LAMBDA), 1)
    assert r.k == 1 and r.num == GeoPoly.var(vs, "x3") + quadratic_sum(vs, 2).scale(LAMBDA)
    assert r.render() == "(l*x1^2 + l*x2^2 + x3) / [q1]"


def test_ratcoeff_equality_compares_reduced_forms():
    # a value has one form: g over 1 and y g over y give the same witness,
    # also at n = 2, where q1 = x1^2 is not irreducible, and g over y differs
    g = X * X + Y.scale(LAMBDA / (LAMBDA + 1))
    for n in (2, 3):
        vs = xi_vars(n)
        a, b = RatCoeff(vs, g), RatCoeff(vs, Y * g, 1)
        assert a.num == b.num and a.k == b.k == 0 and a.render() == b.render()
        c = RatCoeff(vs, g, 1)
        assert c.k == 1 and c.num == a.num and c.render() == f"({a.render()}) / [q1]"
        # over 1 nothing is divided out
        d = RatCoeff(vs, Y * g)
        assert d.k == 0 and d.num == invariant_expand(vs, Y * g)


def _reduce_by_exact_divide(num, k):
    """A test-only reference for the witness form: q1 divided out of the
    expansion num in the xi variables by GeoPoly.exact_divide, one power at
    a time."""
    q1 = curated_factors(num.vars)["q1"]
    while k and (q := num.exact_divide(q1)) is not None:
        num, k = q, k - 1
    return num.render(), k


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ratcoeff_reduction_matches_trial_division_reference(n):
    # dividing y out of the model value is dividing q1 out of its expansion
    rng = random.Random(30 + n)
    vs = xi_vars(n)
    over = (MU - 1) / (LAMBDA * 2 - 3)
    outcomes = set()
    for _ in range(30):
        a = _rand_pair(rng, XY)[0] * Y ** rng.randint(0, 2)
        b = a.scale(over)
        assert not b.den.is_constant()
        for g in (a, b):
            r = RatCoeff(vs, g, 1)
            assert (r.num.render(), r.k) == _reduce_by_exact_divide(invariant_expand(vs, g), 1)
            outcomes.add(r.k)
    # some values shed q1 and some keep it
    assert outcomes == {0, 1}
    zero = RatCoeff(vs, GeoPoly.zero(XY), 1)
    assert (zero.num.render(), zero.k) == _reduce_by_exact_divide(GeoPoly.zero(vs), 1) == ("0", 0)


@pytest.mark.parametrize("other", [xi_vars(4), T_LINE, XI_ETA],
                         ids=lambda vs: f"{vs.kind}{vs.arity}")
def test_mixing_variable_sets_raises_value_error(other):
    vs = xi_vars(3)
    x3, y = GeoPoly.var(vs, "x3"), GeoPoly.var(other, other.names[-1])
    for f in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a.exact_divide(b)):
        for a, b in ((x3, y), (y, x3)):
            with pytest.raises(ValueError, match="variable-set mismatch"):
                f(a, b)
    a, b = DiffOp.mult(x3) @ DiffOp.partial(vs, 0), DiffOp.partial(other, 0)
    for f in (lambda a, b: a + b, lambda a, b: a @ b, lambda a, b: a.commutator(b)):
        for x, z in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="variable-set mismatch"):
                f(x, z)
    for op, p in ((a, y), (b, x3)):
        with pytest.raises(ValueError, match="variable-set mismatch"):
            op.apply_rat(p)
    with pytest.raises(ValueError, match="variable-set mismatch"):
        DiffOp(vs, {(1, 0, 0): y})


def test_homogenize_roundtrip():
    q = GeoPoly(T_LINE, {(0,): ParamScalar.const(2), (1,): LAMBDA, (3,): ParamScalar.const(-1)})
    p = homogenize(q, 5)
    assert p.is_homogeneous() and p.degree() == 5
    assert dehomogenize(p, 5) == q
    with pytest.raises(ValueError, match="degree 3 exceeds homogeneity 2"):
        homogenize(q, 2)
    with pytest.raises(ValueError, match="homogenize expects a univariate polynomial"):
        homogenize(GeoPoly.var(xi_vars(2), "x1"), 2)
    with pytest.raises(ValueError, match="input is not homogeneous of the stated degree"):
        dehomogenize(p + GeoPoly.var(XI_ETA, "xi"), 5)
    with pytest.raises(ValueError, match="input is not homogeneous of the stated degree"):
        dehomogenize(p, 4)
    assert dehomogenize(GeoPoly.zero(XI_ETA), 3).is_zero()


def test_render_is_stable():
    vs = xi_vars(2)
    p = GeoPoly(vs, {(1, 0): ParamScalar.const(1), (0, 1): LAMBDA})
    assert p.render() == p.render()
    assert p.render() == "x1 + l*x2"


def test_coefficient_lookup():
    p = GeoPoly(XI_ETA, {(2, 1): ParamScalar.const(Fraction(1, 2))})
    assert p.coefficient((2, 1)) == ParamScalar.const(Fraction(1, 2))
    assert p.coefficient((0, 0)).is_zero()


def test_constructor_validates_and_coerces():
    vs = xi_vars(2)
    with pytest.raises(ValueError, match="exponent arity mismatch"):
        GeoPoly(vs, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        GeoPoly(vs, {(1, -1): 1})
    p = GeoPoly(vs, {(1, 0): 2, (0, 1): Fraction(1, 3), (0, 0): 0})
    assert p.coefficients() == {(1, 0): ParamScalar.const(2),
                                (0, 1): ParamScalar.const(Fraction(1, 3))}
    assert all(isinstance(c, ParamScalar) for c in p.coefficients().values())


def test_one_pass_constructor_keeps_the_canonical_form():
    # the constructor lifts every numerator to one lcm of the denominators;
    # it must give the very terms and denominator that adding the
    # single-term polynomials one by one gives
    rng = random.Random(5)
    dens = [ParamScalar.const(1), ParamScalar.const(6), LAMBDA + 1, LAMBDA * 2 - 3,
            (LAMBDA + 1) * (MU - 1), ALPHA * MU + 2]
    for vs in (T_LINE, xi_vars(3), XI_ETA):
        for _ in range(20):
            coeffs = {}
            for _ in range(rng.randint(1, 8)):
                e = tuple(rng.randint(0, 3) for _ in range(vs.arity))
                num = LAMBDA * rng.randint(-3, 3) + MU * rng.randint(-2, 2) + rng.randint(-4, 4)
                coeffs[e] = num / rng.choice(dens)
            one_pass = GeoPoly(vs, coeffs)
            folded = GeoPoly.zero(vs)
            for e, c in coeffs.items():
                folded = folded + GeoPoly(vs, {e: c})
            assert (one_pass.terms, one_pass.den) == (folded.terms, folded.den)
            assert one_pass.coefficients() == {e: c for e, c in coeffs.items()
                                               if not c.is_zero()}


def test_constructor_drops_zero_coefficients():
    vs = xi_vars(2)
    p = GeoPoly(vs, {(1, 0): ParamScalar.const(0), (0, 1): LAMBDA - LAMBDA,
                     (1, 1): LAMBDA})
    assert p.coefficients() == {(1, 1): LAMBDA}
    assert GeoPoly(vs, {(2, 0): ParamScalar.const(0)}).is_zero()


def test_int_coefficients_match_the_coerced_path(monkeypatch):
    # an exact int is packed as its own numerator over 1; the value must be
    # the one ParamScalar.const gives, down to terms, den and render, and a
    # bool still takes the coerced path
    vs = xi_vars(3)
    big = 2 ** 64 + 7
    cases = [
        {(1, 0, 0): 3, (0, 2, 1): -5, (0, 0, 0): 0},
        {(2, 0, 0): big, (0, 1, 0): -big * 3, (0, 0, 4): 1},
        {(1, 1, 0): True, (0, 0, 1): False, (0, 0, 0): -1},
        {(0, 0, 0): 0, (1, 0, 0): False},
        {(1, 0, 0): 4, (0, 1, 0): Fraction(-2, 3), (0, 0, 1): 0, (0, 0, 0): big},
        {(2, 0, 0): -6, (0, 1, 1): LAMBDA / (LAMBDA + 1), (0, 0, 2): MU * 2 - 1,
         (1, 0, 1): Fraction(5, 4)},
    ]
    coerced = [GeoPoly(vs, {e: c if isinstance(c, ParamScalar) else ParamScalar.const(c)
                            for e, c in terms.items()}) for terms in cases]
    assert [p.den.terms != {0: 1} for p in coerced] == [False] * 4 + [True] * 2
    got = [GeoPoly(vs, terms) for terms in cases]
    for p, q, terms in zip(got, coerced, cases):
        assert (p.terms, p.den, p.render()) == (q.terms, q.den, q.render())
        if all(type(c) in (int, bool) for c in terms.values()):
            assert p.den is _ONE
    assert got[3].is_zero() and got[0].coefficients()[(0, 2, 1)] == ParamScalar.const(-5)
    # ints and zeros alone never reach the coercion
    monkeypatch.setattr(ParamScalar, "coerce", staticmethod(lambda v: pytest.fail("coerced")))
    for terms, p in zip(cases[:2], got):
        assert GeoPoly(vs, terms).terms == p.terms


@pytest.mark.parametrize("wrap", [lambda p: p, DiffOp.mult], ids=["GeoPoly", "DiffOp"])
def test_values_are_unhashable(wrap):
    # equal values with unequal hashes would break sets and dict keys, so the
    # classes define __eq__ without __hash__
    vs = xi_vars(2)
    unit = (LAMBDA * LAMBDA + 1) / (LAMBDA * LAMBDA + 1)
    v = wrap(GeoPoly.const(vs, unit))
    assert v == wrap(GeoPoly.const(vs, 1))
    with pytest.raises(TypeError):
        hash(v)


# -- the packed kernel ---------------------------------------------------------

def test_exponents_stay_below_the_field_limit():
    with pytest.raises(ValueError):
        GeoPoly.var(T_LINE, "t", 2 ** 15)
    with pytest.raises(ValueError):
        GeoPoly(T_LINE, {(2 ** 15,): ParamScalar.const(1)})
    with pytest.raises(ValueError):
        GeoPoly(xi_vars(2), {(2 ** 14, 2 ** 14): 1})
    with pytest.raises(ValueError):
        GeoPoly.const(T_LINE, ParamPoly({pack((0, 2 ** 15, 0)): 1}))
    half = GeoPoly.var(T_LINE, "t", 2 ** 14)
    with pytest.raises(ValueError):
        half * half
    # the parameter fields are guarded too
    lam = GeoPoly.const(T_LINE, ParamPoly({pack((0, 2 ** 14, 0)): 1}))
    with pytest.raises(ValueError):
        lam * lam
    with pytest.raises(ValueError):
        lam.scale(lam.coefficient((0,)))
    top = GeoPoly.var(T_LINE, "t", 2 ** 15 - 1)
    assert top.degree() == 2 ** 15 - 1
    assert (top * GeoPoly.const(T_LINE, 3)).degree() == 2 ** 15 - 1


def test_equal_values_with_different_shared_denominators():
    vs = xi_vars(2)
    x1 = GeoPoly.var(vs, "x1")
    a = x1.scale(LAMBDA / (LAMBDA + 1))
    b = x1.scale(LAMBDA / (LAMBDA + 1)).scale(LAMBDA + 2).scale(1 / (LAMBDA + 2))
    assert a.den != b.den
    assert a == b and b == a
    assert a.render() == b.render() == "((l)/(l + 1))*x1"
    assert a != b.scale(2) and (a - b).is_zero()


def test_exact_divide_needs_constant_coefficients():
    vs = xi_vars(3)
    x3 = GeoPoly.var(vs, "x3")
    with pytest.raises(ValueError):
        (x3 * x3).exact_divide(x3.scale(LAMBDA))
    with pytest.raises(ValueError):
        (x3 * x3).exact_divide(x3.scale(1 / (LAMBDA + 1)))
    # rational constant coefficients are fine
    assert (x3 * x3).exact_divide(x3.scale(Fraction(2, 3))) == x3.scale(Fraction(3, 2))


@pytest.mark.parametrize("n, base", [(3, 0), (1, PBITS), (2, PBITS), (4, PBITS)])
def test_pack_and_unpack_round_trip(n, base):
    rng = random.Random(n + base)
    shifts, units, dshift, top = layout(n, base)
    for _ in range(50):
        e = tuple(rng.randint(0, 2 ** 15 // n - 1) for _ in range(n))
        k = pack(e, base)
        assert unpack(k, n, base) == e
        assert k >> dshift == sum(e) and not k & ((1 << base) - 1) and not k & top
        assert k == sum(x * u for x, u in zip(e, units))


def test_pack_rejects_a_negative_exponent():
    for e in [(0, -1, 0), (-1, 2, 0)]:
        with pytest.raises(ValueError, match="negative exponent"):
            pack(e)
    with pytest.raises(ValueError, match="negative exponent"):
        pack((2, -1), PBITS)


def test_product_is_the_sum_of_term_products():
    rng = random.Random(13)
    vs = xi_vars(2)
    top = layout(vs.arity, PBITS)[3]
    polys = [_rand_pair(rng, vs)[0].terms for _ in range(6)] + [{0: 3}, {0: 1}]
    for _ in range(20):
        a, b = rng.choice(polys), rng.choice(polys)
        want = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                want[k1 + k2] = want.get(k1 + k2, 0) + c1 * c2
        assert product(a, b, top) == {k: c for k, c in want.items() if c}
    a = polys[0]
    assert product(a, {0: 1}, top) is a and product({0: 1}, a, top) is a


def test_geometric_top_mask_covers_the_parameter_fields():
    for n in range(1, 6):
        shifts, _, dshift, top = layout(n, PBITS)
        assert top & PTOP == PTOP
        assert top == PTOP | sum(1 << (s + 15) for s in shifts + (dshift,))


# A test-only reference: the earlier per-coefficient GeoPoly arithmetic, one
# ParamScalar per geometric monomial.  The kernel must render exactly what it
# renders.  It orders monomials by its own graded-lexicographic key.

def _grlex(e):
    return (sum(e), e)


class _RefGeo:
    def __init__(self, vars, terms):
        self.vars = vars
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return _RefGeo(self.vars, out)

    def __neg__(self):
        return _RefGeo(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                p = c1 * c2
                s = out.get(e)
                out[e] = p if s is None else s + p
        return _RefGeo(self.vars, out)

    def scale(self, c):
        c = ParamScalar.coerce(c)
        return _RefGeo(self.vars, {e: c * v for e, v in self.terms.items()})

    def derive(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return _RefGeo(self.vars, out)

    def exact_divide(self, divisor):
        rem = dict(self.terms)
        quot = {}
        de = max(divisor.terms, key=_grlex)
        dc = divisor.terms[de]
        while rem:
            e = max(rem, key=_grlex)
            q = tuple(a - b for a, b in zip(e, de))
            if min(q) < 0:
                return None
            c = rem[e] / dc
            s = quot.get(q)
            quot[q] = c if s is None else s + c
            for e2, c2 in divisor.terms.items():
                t = tuple(a + b for a, b in zip(q, e2))
                s = rem.get(t)
                s = -(c * c2) if s is None else s - c * c2
                if s.is_zero():
                    rem.pop(t, None)
                else:
                    rem[t] = s
        return _RefGeo(self.vars, quot)

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            mono = "*".join(self.vars.names[i] + (f"^{e[i]}" if e[i] > 1 else "")
                            for i in range(len(e)) if e[i])
            cs = self.terms[e].render()
            simple = " " not in cs and "/" not in cs
            if mono:
                body = (mono if cs == "1" else f"-{mono}" if cs == "-1"
                        else f"{cs}*{mono}" if simple else f"({cs})*{mono}")
            else:
                body = cs if simple else f"({cs})"
            if not parts:
                parts.append(body)
            else:
                parts.append("- " + body[1:] if body.startswith("-") else "+ " + body)
        return " ".join(parts)


_COEFFS = [ParamScalar.const(1), ParamScalar.const(-2), ParamScalar.const(Fraction(3, 4)),
           ParamScalar.const(Fraction(-5, 6)), LAMBDA, MU - ALPHA * 3,
           LAMBDA / (LAMBDA + 1), (MU - 1) / (LAMBDA * 2 - 3),
           (ALPHA * LAMBDA + Fraction(1, 2)) / (MU * MU + 1), Fraction(7, 2) / (LAMBDA + 1)]


def _rand_pair(rng, vs, max_terms=4, max_deg=2):
    """One random polynomial as a kernel GeoPoly and as a reference."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(vs.arity))
        terms[e] = rng.choice(_COEFFS) * rng.choice(_COEFFS[:4])
    return GeoPoly(vs, terms), _RefGeo(vs, terms)


_VARSETS = [xi_vars(2), xi_vars(3), xi_vars(4), XI_ETA, T_LINE]


@pytest.mark.parametrize("vs", _VARSETS, ids=lambda vs: f"{vs.kind}{vs.arity}")
def test_kernel_matches_per_coefficient_reference(vs):
    rng = random.Random(8)
    divisors = list(curated_factors(vs).values()) or [GeoPoly.var(vs, vs.names[-1])]
    divisors.append(GeoPoly(vs, {(1,) + (0,) * (vs.arity - 1): 2,
                                 (0,) * vs.arity: Fraction(-1, 3)}))
    for _ in range(40):
        (a, ra), (b, rb) = _rand_pair(rng, vs), _rand_pair(rng, vs)
        c = rng.choice(_COEFFS)
        cases = [(a + b, ra + rb), (a - b, ra + -rb), (a * b, ra * rb),
                 (a + (-a), ra + -ra), ((a + b) - b, (ra + rb) + -rb),
                 (a.scale(c), ra.scale(c)), (a * b + (-(b * a)), ra * rb + -(rb * ra))]
        cases += [(derive(a, i), ra.derive(i)) for i in range(vs.arity)]
        for got, want in cases:
            assert got.render() == want.render()
        assert ((a + (-a)).is_zero() and (a * b - b * a).is_zero()
                and (a - b).is_zero() == (a == b))
        assert a * b == b * a and (a + b) - b == a
        for f in divisors:
            rf = _RefGeo(vs, f.coefficients())
            # in a*f*f remainder keys cancel and are then created again
            for num, rnum in ((a * f, ra * rf), (a, ra), (a * b * f, ra * rb * rf),
                              (a * f * f, ra * rf * rf), (a * f * f + b, ra * rf * rf + rb)):
                got, want = num.exact_divide(f), rnum.exact_divide(rf)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.render() == want.render()
    # fixed dividends that surely cancel a remainder key and create it again
    x, one = GeoPoly.var(vs, vs.names[0]), GeoPoly.const(vs, 1)
    if vs.arity > 1:
        y = GeoPoly.var(vs, vs.names[1])
        f, a = x * y + (x + y).scale(2), x - one
    else:
        f, a = x * x - x - one, x
    rf = _RefGeo(vs, f.coefficients())
    for num in (a * f * f, a * f * f + one):
        got, want = num.exact_divide(f), _RefGeo(vs, num.coefficients()).exact_divide(rf)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.render() == want.render()
    assert (a * f * f).exact_divide(f) == a * f and (a * f * f + one).exact_divide(f) is None


# -- relabelling monomials between models --------------------------------------

def _relabel_by_coefficients(p, target, f):
    """The earlier model change, a test-only reference: each coefficient read
    as a reduced ParamScalar, and the image built from them."""
    out = {}
    for e, c in p.coefficients().items():
        m = f(e)
        if m is not None:
            out[m[0]] = out.get(m[0], ParamScalar.const(0)) + c * m[1]
    return GeoPoly(target, out)


_RELABELS = {
    # onto the t-line by total degree, signed by the first exponent: images
    # collide, and their sums can cancel
    "collapse": lambda vs: (T_LINE, lambda e: ((sum(e),), (-1) ** e[0])),
    "drop-odd": lambda vs: (vs, lambda e: None if e[0] % 2 else (e, 1)),
    "reverse": lambda vs: (vs, lambda e: (e[::-1], (-1) ** sum(e))),
    "homogenize": lambda vs: (XI_ETA, lambda e: ((e[0], 8 - e[0]), 1)),
}


@pytest.mark.parametrize("name", sorted(_RELABELS))
@pytest.mark.parametrize("vs", _VARSETS, ids=lambda vs: f"{vs.kind}{vs.arity}")
def test_relabel_matches_coefficient_round_trip(vs, name):
    rng = random.Random(12)
    target, f = _RELABELS[name](vs)
    for _ in range(40):
        # a sum of two random polynomials has a shared denominator such as
        # (l + 1)(2l - 3) over coefficients l/(l + 1) and (m - 1)/(2l - 3)
        p = _rand_pair(rng, vs)[0] + _rand_pair(rng, vs)[0]
        got, want = p.relabel(target, f), _relabel_by_coefficients(p, target, f)
        assert got == want and got.render() == want.render()


def test_relabel_keeps_coefficients_and_denominator():
    vs = xi_vars(3)
    p = _rand_pair(random.Random(3), vs, max_terms=6)[0]
    assert not p.den.is_constant()
    q = p.relabel(vs, lambda e: (e[::-1], 1))
    assert q.den == p.den and sorted(q.terms.values()) == sorted(p.terms.values())
    assert q.relabel(vs, lambda e: (e[::-1], 1)).terms == p.terms


def test_relabel_adds_colliding_images_and_drops_what_cancels():
    vs, tv = xi_vars(2), T_LINE
    x1, x2 = GeoPoly.var(vs, "x1"), GeoPoly.var(vs, "x2")
    c, d = LAMBDA / (LAMBDA + 1), (MU - 1) / (LAMBDA * 2 - 3)
    flip = lambda e: ((sum(e),), -1 if e == (0, 1) else 1)
    # c*x1 and -c*x2 both land on t and cancel; d*x1*x2 lands on t^2
    out = ((x1 + x2).scale(c) + (x1 * x2).scale(d)).relabel(tv, flip)
    assert out == GeoPoly.var(tv, "t", 2).scale(d)
    assert out.render() == "((m - 1)/(2*l - 3))*t^2"
    gone = (x1 + x2).scale(c).relabel(tv, flip)
    assert gone.is_zero() and not gone.terms and gone.den.is_constant()
    both = (x1 + x2).scale(c).relabel(tv, lambda e: ((sum(e),), 1))
    assert both == GeoPoly.var(tv, "t").scale(c * 2)
    assert (x1 + x2).relabel(vs, lambda e: None).is_zero()
