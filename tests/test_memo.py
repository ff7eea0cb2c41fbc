"""Caching contract: curated factors are built once per variable set, and each
context builds its singular-vector families once."""

import dataclasses
import inspect
from fractions import Fraction

import pytest

from vermabranch import diag_pair, polyring, so_pair
from vermabranch.diag_pair import DiagContext, jacobi_t_polynomial
from vermabranch.polyring import curated_factors, quadratic_sum, xi_vars
from vermabranch.so_pair import SoPairContext, ladder_ops, singular_vector_F


def test_curated_factors_shared_per_varset():
    a, b = xi_vars(3), xi_vars(3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert curated_factors(a) is curated_factors(b)
    facs = curated_factors(a)
    assert facs["q1"] == quadratic_sum(a, 2)
    assert facs["q"] == quadratic_sum(a, 3)
    assert curated_factors(xi_vars(4)) is not facs


def test_curated_factors_read_only():
    facs = curated_factors(xi_vars(2))
    with pytest.raises(TypeError):
        facs["q"] = quadratic_sum(xi_vars(2), 1)


def test_context_quadratics_are_the_curated_entries():
    ctx = SoPairContext.formal(3)
    facs = curated_factors(ctx.vars)
    assert ctx.xn() is facs["xn"]
    assert ctx.q_prime() is facs["q1"]
    assert ctx.q_full() is facs["q"]


def test_singular_vector_built_once_per_context():
    ctx = SoPairContext.formal(3)
    assert singular_vector_F(ctx, 3) is singular_vector_F(ctx, 3)
    assert ladder_ops(ctx, 2) is ladder_ops(ctx, 2)
    fresh = SoPairContext.formal(3)
    assert singular_vector_F(fresh, 3).poly == singular_vector_F(ctx, 3).poly


def test_jacobi_built_once_per_context():
    ctx = DiagContext.formal()
    assert jacobi_t_polynomial(ctx, 4) is jacobi_t_polynomial(ctx, 4)
    assert jacobi_t_polynomial(DiagContext.formal(), 4) == jacobi_t_polynomial(ctx, 4)


def test_formal_and_specialized_contexts_do_not_share():
    formal = SoPairContext.formal(3)
    special = SoPairContext.at(3, Fraction(1, 2))
    f2, s2 = singular_vector_F(formal, 2), singular_vector_F(special, 2)
    assert f2 is not s2 and f2.poly != s2.poly
    assert s2.poly == singular_vector_F(SoPairContext.at(3, Fraction(1, 2)), 2).poly
    a = DiagContext.at(Fraction(1, 2), Fraction(5, 2))
    assert jacobi_t_polynomial(a, 2) != jacobi_t_polynomial(DiagContext.formal(), 2)


def test_degenerate_build_is_not_memoized():
    ctx = SoPairContext.at(2, Fraction(-1, 2))
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            singular_vector_F(ctx, 1)


def test_context_fields_unchanged():
    assert [f.name for f in dataclasses.fields(SoPairContext)] == ["n", "lam"]
    assert [f.name for f in dataclasses.fields(DiagContext)] == ["lam", "mu"]
    ctx = SoPairContext.formal(3)
    singular_vector_F(ctx, 1)
    assert ctx == SoPairContext.formal(3)
    assert repr(ctx) == repr(SoPairContext.formal(3))


@pytest.mark.parametrize("fn", [polyring.curated_factors, so_pair.singular_vector_F,
                                so_pair.ladder_ops, diag_pair.jacobi_t_polynomial])
def test_traced_functions_stay_plain(fn):
    assert inspect.isfunction(fn)
