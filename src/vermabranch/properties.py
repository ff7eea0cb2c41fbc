"""Seeded randomized property suites over the scalar field, the polynomial
ring and the operator algebra.  Everything is exact, so each case is a hard
equality check, not an approximation."""

from __future__ import annotations

import random
from fractions import Fraction

from .polyring import GeoPoly, xi_vars
from .report import ReportBundle
from .scalars import ParamScalar
from .weylalg import DiffOp

_SYMBOLS = ("l", "m")


def _rand_scalar(rng: random.Random) -> ParamScalar:
    """A random element of the parameter field: small polynomials in the
    formal weights over small rationals, occasionally divided."""
    def poly() -> ParamScalar:
        out = ParamScalar.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for s in _SYMBOLS:
            if rng.random() < 0.4:
                out = out + ParamScalar.symbol(s) * rng.randint(-3, 3)
        return out

    num = poly()
    if rng.random() < 0.3:
        den = poly()
        if not den.is_zero():
            return num / den
    return num


def _rand_poly(rng: random.Random, vars, max_terms: int = 3, max_deg: int = 2) -> GeoPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(vars.arity))
        terms[e] = rng.randint(-5, 5)
    return GeoPoly(vars, terms)


def _rand_op(rng: random.Random, vars, max_terms: int = 2) -> DiffOp:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, 2) for _ in range(vars.arity))
        p = _rand_poly(rng, vars)
        terms[e] = terms[e] + p if e in terms else p
    return DiffOp(vars, terms)


def _run(stem: str, anchor: str, seed: int, cases: int, case) -> ReportBundle:
    """Draw up to ``cases`` cases with ``case(rng)``; the first witness it
    returns (None means the case held) fails the check."""
    rng = random.Random(seed)
    witness = None
    for _ in range(cases):
        witness = case(rng)
        if witness is not None:
            break
    bundle = ReportBundle()
    bundle.check(f"property.{stem}.seed={seed}", anchor, witness is None,
                 witness=witness)
    return bundle


def field_axioms(seed: int, cases: int) -> ReportBundle:
    """Commutativity, associativity, distributivity and inverses in the
    parameter field, each with equal hashes for the equal sides."""
    def case(rng):
        a, b, c = (_rand_scalar(rng) for _ in range(3))
        pairs = [
            (a + b, b + a),
            ((a + b) + c, a + (b + c)),
            (a * b, b * a),
            ((a * b) * c, a * (b * c)),
            (a * (b + c), a * b + a * c),
            (a + (-a), ParamScalar.const(0)),
        ]
        if not a.is_zero():
            pairs.append((a / a, ParamScalar.const(1)))
            pairs.append(((b / a) * a, b))
        # equal values must also hash equal
        if not all(x == y and hash(x) == hash(y) for x, y in pairs):
            return f"a={a.render()}, b={b.render()}, c={c.render()}"
    return _run("field-axioms", "engine:scalar-field", seed, cases, case)


def _op_case(rng: random.Random, max_terms: int = 2):
    vars = xi_vars(2)
    return vars, *(_rand_op(rng, vars, max_terms) for _ in range(3))


def associativity(seed: int, cases: int) -> ReportBundle:
    def case(rng):
        _, a, b, c = _op_case(rng, max_terms=1)
        if (a @ b) @ c != a @ (b @ c):
            return f"{a.render()} ; {b.render()} ; {c.render()}"
    return _run("compose-associative", "engine:normal-ordering", seed, cases, case)


def apply_compose(seed: int, cases: int) -> ReportBundle:
    """(A o B)(p) agrees with A(B(p))."""
    def case(rng):
        vars, a, b, _ = _op_case(rng)
        p = _rand_poly(rng, vars, max_terms=3, max_deg=3)
        if (a @ b).apply(p) != a.apply(b.apply(p)):
            return f"{a.render()} ; {b.render()} ; {p.render()}"
    return _run("apply-compose", "engine:normal-ordering", seed, cases, case)


def jacobi_identity(seed: int, cases: int) -> ReportBundle:
    def case(rng):
        _, a, b, c = _op_case(rng, max_terms=1)
        s = (a.commutator(b.commutator(c)) + b.commutator(c.commutator(a))
             + c.commutator(a.commutator(b)))
        if not s.is_zero():
            return s.render()
    return _run("jacobi-identity", "engine:normal-ordering", seed, cases, case)


def normal_order_confluence(seed: int, cases: int) -> ReportBundle:
    """Folding a product of elementary factors in any association order
    lands on the same normal form."""
    def case(rng):
        vars = xi_vars(2)
        factors = []
        for _ in range(4):
            if rng.random() < 0.5:
                factors.append(DiffOp.mult(_rand_poly(rng, vars, max_terms=2)))
            else:
                factors.append(DiffOp.partial(vars, rng.randrange(2),
                                              rng.randint(1, 2)))
        left = factors[0]
        for f in factors[1:]:
            left = left @ f
        right = factors[-1]
        for f in reversed(factors[:-1]):
            right = f @ right
        mid = (factors[0] @ factors[1]) @ (factors[2] @ factors[3])
        if not (left == right == mid):
            return " ; ".join(f.render() for f in factors)
    return _run("normal-order-confluence", "engine:normal-ordering", seed, cases, case)


ALL_SUITES = (field_axioms, associativity, apply_compose, jacobi_identity,
              normal_order_confluence)


def run_all(seed: int, cases: int) -> ReportBundle:
    bundle = ReportBundle()
    for i, suite in enumerate(ALL_SUITES):
        bundle.extend(suite(seed + i, cases))
    return bundle
