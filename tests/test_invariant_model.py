"""The so-pair's invariant model C[x, y], x = xn and y = q1, against the
xi-model in n variables: each reduced operator intertwines the expansion
x -> xn, y -> q1, the cleared ones with the cleared xi-model operator of
``tests/oracles.py`` and G with each primed direction L_m up to the factor
x_m, and the reduced vectors, ladder constants and Casimir eigenvalues are
the xi-model's."""

from fractions import Fraction
from math import factorial

import pytest

from oracles import (casimir_closed_form, casimir_composed, intertwining_failures,
                     verify_singular, xi_ladder_ops)
from vermabranch.polyring import XY, GeoPoly, invariant_expand
from vermabranch.so_pair import (SoPairContext, casimir_ops, ladder_images, model_ops,
                                 p_image, reduced_F, singular_vector_F)
from vermabranch.weylalg import proportionality
from vermabranch.xi_model import op_P, op_Q

LADDER_DEGREES = range(4)
SPECIALIZED = ((3, Fraction(1, 3)), (4, Fraction(-1, 4)), (6, Fraction(-3, 4)))


@pytest.mark.parametrize("n", range(2, 7))
def test_reduced_operators_intertwine_the_expansion(n):
    # every model monomial x^i y^k of weight i + 2k <= 8
    assert intertwining_failures(SoPairContext.formal(n), 8, LADDER_DEGREES) == []


@pytest.mark.parametrize("n, lam", SPECIALIZED)
def test_reduced_operators_intertwine_the_expansion_at_specialized_weights(n, lam):
    assert intertwining_failures(SoPairContext.at(n, lam), 8, LADDER_DEGREES) == []


def reduced_mismatches(ctx, max_degree):
    """The names of the reduced constants and eigenvalues at degrees
    l <= max_degree that differ from the xi-model's, and of the expanded
    vectors that are not the normalized singular vector in n variables."""
    eig, bad = ctx.alpha * (ctx.alpha - 1) * 2, []
    y, q, top = GeoPoly.var(XY, "y"), op_Q(ctx), ctx.vars.arity - 1
    for l in range(max_degree + 1):
        f, f_xi, f_up = reduced_F(ctx, l), singular_vector_F(ctx, l), singular_vector_F(ctx, l + 1)
        k = l // 2
        lead = (2 * k,) + (0,) * (top - 1) + (l - 2 * k,)
        if invariant_expand(ctx.vars, f) != f_xi or not verify_singular(ctx, f_xi) \
                or f_xi.coefficient(lead) != Fraction(factorial(l), 2 ** k * factorial(k)):
            bad.append(f"F_{l}")
        e_xi, f_op_xi, _ = xi_ladder_ops(ctx, l)
        ev, fv, _, _ = ladder_images(ctx, l)
        if proportionality(ev, reduced_F(ctx, l + 1)) != proportionality(e_xi.apply(f_xi), f_up):
            bad.append(f"e-constant.{l}")
        qv = model_ops(ctx)["Q"].apply(f)
        if proportionality(qv, reduced_F(ctx, l + 1)) != proportionality(q.apply(f_xi), f_up):
            bad.append(f"Q-constant.{l}")
        if l:
            f_dn = singular_vector_F(ctx, l - 1)
            low, low_xi = fv.exact_divide(y), f_op_xi.apply(f_xi).exact_divide(ctx.q_prime())
            if low is None or low_xi is None \
                    or proportionality(low, reduced_F(ctx, l - 1)) != proportionality(low_xi, f_dn):
                bad.append(f"f-constant.{l}")
            if p_image(ctx, l)[1] != proportionality(op_P(ctx).apply(f_xi), f_dn):
                bad.append(f"P-constant.{l}")
        for name, op, op_xi in zip(("casimir", "closed-form"), casimir_ops(ctx, l),
                                   (casimir_composed(ctx, l), casimir_closed_form(ctx, l))):
            c_xi = proportionality(op_xi.apply(f_xi), ctx.q_prime() * f_xi)
            if c_xi != eig or proportionality(op.apply(f), y * f) != c_xi:
                bad.append(f"{name}-eigenvalue.{l}")
    return bad


@pytest.mark.parametrize("n", range(2, 7))
def test_reduced_vectors_constants_and_eigenvalues_are_the_xi_models(n):
    assert reduced_mismatches(SoPairContext.formal(n), 6) == []


def test_reduced_constants_at_specialized_weights():
    for n, lam in SPECIALIZED:
        assert reduced_mismatches(SoPairContext.at(n, lam), 4) == []
