"""Run the independent oracles at formal weights to degrees past the suite's
caps, and count what they find.

    python3 tools/deep_oracles.py

Run from anywhere; it imports ``vermabranch`` from the ``src/`` next to
this directory and the reference constructions from ``tests/oracles.py``.
At the formal weights (lambda, mu and alpha symbolic):

- ``diag_pair.model_transport_check`` to degree 30 (``verify-diag`` caps it
  at ``min(max_degree, 5)``): the dehomogenized Fourier action against the
  t-model operator;
- ``diag_pair.t_annihilation_check`` to degree 40 (capped at
  ``min(max_degree, 8)``): the t-model Jacobi polynomials against their
  hypergeometric operator;
- the Gegenbauer polynomials C_l^alpha for l <= 40 from the explicit sum,
  the three-term recurrence and the 2F1 series, which must be equal;
- the whole ``verify-so`` suite (``cli_report.so_suite``) at n = 5 and 6 to
  degree 14 (Tier-1 runs its ladder and Casimir checks there to degree 10,
  the benchmark stops at n = 4), and beside it the statement that its
  ``singular.*`` records read in the invariant model, in the n variables:
  all n-1 primed directions annihilate F_l (``verify_singular`` of
  ``tests/oracles.py``; Tier-1 runs it at n <= 5 to degree 8);
- associativity ``(a@b)@c == a@(b@c)`` and the Jacobi identity on seeded
  polynomial operators at n = 3, 4 and 5, with coefficients over parameter
  denominators and derivatives in every variable (the ``ops_random``
  benchmark workload and the property suites stop at n = 2);
- the action on a polynomial, ``a.apply_rat(c) ==
  (a @ DiffOp.mult(c)).apply_rat(1)``, on operators a drawn as above and
  coefficients c drawn as theirs, at n = 3, 4 and 5;
- ``compose``, ``commutator`` and ``apply_rat`` against the reference fold
  of ``tests/oracles.py``, term for term and render for render, on seeded
  polynomial operators at n = 5 and 6 with derivatives of order up to 3 on
  coefficients of degree up to 2, where most lowerings D^k vanish on the
  right coefficient (Tier-1 compares them at n <= 4);
- the so-pair's invariant model C[x, y] against the xi-model oracle of
  ``tests/oracles.py``: each model operator (P, Q, E, the Laplacian, G,
  and e, f~, h and both cleared Casimirs at l <= 5) intertwines the
  expansion x -> xn, y -> q1 on every monomial x^i y^k with i + 2k <= 12 at
  n = 7 and 8, G with each primed direction L_m up to the factor x_m
  (Tier-1 stops at n = 6 and weight 8); and the values that the
  ``pq.*``, ``sl2.*`` and ``casimir.*`` records read in the model, expanded,
  equal the xi-model's at n = 5 and 6 for l <= 14: P F_l, Q F_l, the four
  ladder images and both Casimir images, the cleared ones cleared by q1 on
  both sides.

The tool prints the number of records (for the seeded operators, two per
case for the laws, one for the action and three for the reference fold) and
the time of each oracle, one line each, and each failure, and exits 1 if
there was any.  It is not part of Tier-1.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import (casimir_closed_form, casimir_composed, gegenbauer_recurrence,  # noqa: E402
                     gegenbauer_via_2f1, intertwining_failures, ref_apply, ref_compose,
                     verify_singular, xi_ladder_images)
from vermabranch import cli_report, diag_pair  # noqa: E402
from vermabranch.orthopoly import gegenbauer  # noqa: E402
from vermabranch.polyring import GeoPoly, invariant_expand, xi_vars  # noqa: E402
from vermabranch.so_pair import (SoPairContext, casimir_ops, ladder_images,  # noqa: E402
                                 model_ops, p_image, reduced_F, singular_vector_F)
from vermabranch.report import ReportBundle  # noqa: E402
from vermabranch.scalars import ALPHA, LAMBDA  # noqa: E402
from vermabranch.weylalg import DiffOp  # noqa: E402
from vermabranch.xi_model import op_P, op_Q  # noqa: E402

TRANSPORT_DEGREE = 30
T_ANNIHILATION_DEGREE = 40
GEGENBAUER_DEGREE = 40
SO_DIMENSIONS = (5, 6)
SO_DEGREE = 14
OPERATOR_DIMENSIONS = (3, 4, 5)
OPERATOR_CASES = 40
COEFFS = (1, -2, 3, LAMBDA, LAMBDA + 1, Fraction(1, 2), LAMBDA / (LAMBDA + 1))
REFERENCE_DIMENSIONS = (5, 6)
REFERENCE_CASES = 40
INVARIANT_DIMENSIONS = (7, 8)
INVARIANT_WEIGHT = 12
INVARIANT_DEGREES = range(6)
MODEL_DIMENSIONS = (5, 6)
MODEL_DEGREE = 14


def gegenbauer_check(max_degree: int) -> ReportBundle:
    bundle = ReportBundle()
    for l in range(max_degree + 1):
        c = gegenbauer(l, ALPHA)
        for name, other in (("recurrence", gegenbauer_recurrence(l, ALPHA)),
                            ("2f1", gegenbauer_via_2f1(l, ALPHA))):
            bundle.check(f"gegenbauer.sum={name}.l={l}", "orthopoly:gegenbauer",
                         c == other, witness=lambda: (c - other).render())
    return bundle


def _exponents(rng: random.Random, n: int, order: int) -> tuple:
    """Exponents of up to ``order`` variables drawn with repetition."""
    e = [0] * n
    for _ in range(rng.randint(0, order)):
        e[rng.randrange(n)] += 1
    return tuple(e)


def _coefficient(rng: random.Random, vs, degree: int, terms: int) -> GeoPoly:
    """One to ``terms`` terms of degree <= ``degree``, with coefficients
    over parameter denominators."""
    return GeoPoly(vs, {_exponents(rng, vs.arity, degree): rng.choice(COEFFS)
                        for _ in range(rng.randint(1, terms))})


def _op(rng: random.Random, vs) -> DiffOp:
    """One or two terms c D^e: c of degree <= 2 and e of order <= 3."""
    return DiffOp(vs, {_exponents(rng, vs.arity, 3): _coefficient(rng, vs, 2, 3)
                       for _ in range(rng.randint(1, 2))})


def operator_laws(n: int, cases: int) -> ReportBundle:
    """Associativity and the Jacobi identity on ``cases`` seeded triples of
    operators in n variables."""
    rng, vs, bundle = random.Random(n), xi_vars(n), ReportBundle()
    for i in range(cases):
        a, b, c = (_op(rng, vs) for _ in range(3))
        jacobi = (a.commutator(b.commutator(c)) + b.commutator(c.commutator(a))
                  + c.commutator(a.commutator(b)))
        witness = lambda: f"{a.render()} ; {b.render()} ; {c.render()}"  # noqa: E731
        bundle.check(f"operators.associativity.n={n}.case={i}", "engine:normal-ordering",
                     (a @ b) @ c == a @ (b @ c), witness=witness)
        bundle.check(f"operators.jacobi.n={n}.case={i}", "engine:normal-ordering",
                     jacobi.is_zero(), witness=witness)
    return bundle


def operator_action(n: int, cases: int) -> ReportBundle:
    """The action of a seeded operator on a seeded polynomial c against the
    D^0 coefficient of its product with c, on ``cases`` pairs in n variables."""
    rng, vs, bundle = random.Random(n), xi_vars(n), ReportBundle()
    one = GeoPoly.const(vs, 1)
    for i in range(cases):
        a, c = _op(rng, vs), _coefficient(rng, vs, 2, 3)
        got, want = a.apply_rat(c), (a @ DiffOp.mult(c)).apply_rat(one)
        bundle.check(f"operators.apply.n={n}.case={i}", "engine:normal-ordering", got == want,
                     witness=lambda: f"{a.render()} ; {c.render()}")
    return bundle


def reference_products(n: int, cases: int) -> ReportBundle:
    """compose, commutator and apply_rat against the reference fold on
    ``cases`` seeded pairs of polynomial operators in n variables: one to
    three terms c D^e, c of degree <= 2 and e of order <= 3, applied to a
    polynomial of degree <= 3."""
    rng, vs, bundle = random.Random(100 + n), xi_vars(n), ReportBundle()

    def op() -> DiffOp:
        return DiffOp(vs, {_exponents(rng, n, 3): _coefficient(rng, vs, 2, 4)
                           for _ in range(rng.randint(1, 3))})

    for i in range(cases):
        a, b, p = op(), op(), _coefficient(rng, vs, 3, 4)
        ab, ba = ref_compose(a, b), ref_compose(b, a)
        witness = lambda: f"{a.render()} ; {b.render()} ; {p.render()}"  # noqa: E731
        for name, got, want in (("compose", a @ b, ab), ("commutator", a.commutator(b), ab - ba),
                                ("apply_rat", a.apply_rat(p), ref_apply(a, p))):
            bundle.check(f"reference.{name}.n={n}.case={i}", "engine:normal-ordering",
                         got == want and got.render() == want.render(), witness=witness)
    return bundle


def singular_in_n_variables(n: int, max_degree: int) -> ReportBundle:
    """The primed directions on F_l in the n variables at l <= max_degree,
    one record a degree."""
    ctx, bundle = SoPairContext.formal(n), ReportBundle()
    for l in range(max_degree + 1):
        f = singular_vector_F(ctx, l)
        bundle.check(f"xi.singular.n={n},l={l}", "so-pair:singular-pde",
                     verify_singular(ctx, f), witness=f)
    return bundle


def intertwining(n: int, weight: int, degrees) -> ReportBundle:
    """One record: every model operator intertwines the expansion on every
    monomial x^i y^k with i + 2k <= weight, in n variables."""
    bundle, bad = ReportBundle(), intertwining_failures(SoPairContext.formal(n), weight, degrees)
    bundle.check(f"invariant.intertwining.n={n}", "so-pair:invariant-model", not bad,
                 witness=lambda: ", ".join(f"{op} on x^{i} y^{k}" for op, i, k in bad))
    return bundle


def model_records(n: int, max_degree: int) -> ReportBundle:
    """The expanded model values of the pq, sl2 and casimir records against
    the xi-model oracle at l <= max_degree in n variables, one record each."""
    ctx, bundle = SoPairContext.formal(n), ReportBundle()
    names = ("P", "Q", "raise", "lower", "up", "down", "casimir", "closed-form")
    for l in range(max_degree + 1):
        f, f_xi = reduced_F(ctx, l), singular_vector_F(ctx, l)
        model = [p_image(ctx, l)[0], model_ops(ctx)["Q"].apply(f), *ladder_images(ctx, l),
                 *(op.apply(f) for op in casimir_ops(ctx, l))]
        oracle = [op_P(ctx).apply(f_xi), op_Q(ctx).apply(f_xi), *xi_ladder_images(ctx, l),
                  casimir_composed(ctx, l).apply(f_xi), casimir_closed_form(ctx, l).apply(f_xi)]
        for name, g, want in zip(names, model, oracle):
            # the lower image, its legs and the Casimirs are cleared by q1 on both sides
            got = invariant_expand(ctx.vars, g)
            bundle.check(f"invariant.{name}.n={n},l={l}", "so-pair:invariant-model", got == want,
                         witness=lambda: f"{got.render()} ; {want.render()}")
    return bundle


def main() -> int:
    ctx = diag_pair.DiagContext.formal()
    oracles = [
        (f"model_transport_check to degree {TRANSPORT_DEGREE}",
         lambda: diag_pair.model_transport_check(ctx, TRANSPORT_DEGREE)),
        (f"t_annihilation_check to degree {T_ANNIHILATION_DEGREE}",
         lambda: diag_pair.t_annihilation_check(ctx, T_ANNIHILATION_DEGREE)),
        (f"gegenbauer sum = recurrence = 2F1 to degree {GEGENBAUER_DEGREE}",
         lambda: gegenbauer_check(GEGENBAUER_DEGREE)),
    ] + [
        (f"so_suite at n = {n} to degree {SO_DEGREE}",
         lambda n=n: cli_report.so_suite(cli_report.RunConfig("so_pair", n=n, max_degree=SO_DEGREE)))
        for n in SO_DIMENSIONS
    ] + [
        (f"primed directions on F_l in the n variables to degree {SO_DEGREE} at n = {n}",
         lambda n=n: singular_in_n_variables(n, SO_DEGREE))
        for n in SO_DIMENSIONS
    ] + [
        (f"associativity and Jacobi on {OPERATOR_CASES} operator cases at n = {n}",
         lambda n=n: operator_laws(n, OPERATOR_CASES))
        for n in OPERATOR_DIMENSIONS
    ] + [
        (f"apply_rat on {OPERATOR_CASES} polynomials at n = {n}",
         lambda n=n: operator_action(n, OPERATOR_CASES))
        for n in OPERATOR_DIMENSIONS
    ] + [
        (f"compose, commutator and apply_rat against the reference fold on "
         f"{REFERENCE_CASES} polynomial cases at n = {n}",
         lambda n=n: reference_products(n, REFERENCE_CASES))
        for n in REFERENCE_DIMENSIONS
    ] + [
        (f"model operators intertwine the expansion to weight {INVARIANT_WEIGHT} at n = {n}",
         lambda n=n: intertwining(n, INVARIANT_WEIGHT, INVARIANT_DEGREES))
        for n in INVARIANT_DIMENSIONS
    ] + [
        (f"model records against the xi-model oracle to degree {MODEL_DEGREE} at n = {n}",
         lambda n=n: model_records(n, MODEL_DEGREE))
        for n in MODEL_DIMENSIONS
    ]
    n_fail = 0
    for name, run in oracles:
        start = time.perf_counter()
        bundle = run()
        failed = bundle.failed
        print(f"{name}: {len(bundle.records)} records, {len(failed)} failed "
              f"in {time.perf_counter() - start:.2f} s")
        for rec in failed:
            print(f"    {rec.status} {rec.check_id}: {rec.witness}")
        n_fail += len(failed)
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
