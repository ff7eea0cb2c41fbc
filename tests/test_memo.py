"""Caching contract: curated factors are built once per variable set, and each
context builds its singular-vector families, operators and ladder images
once."""

import inspect
import sys
from fractions import Fraction

import pytest

from vermabranch import diag_pair, polyring, so_pair, xi_model
from vermabranch.diag_pair import (DiagContext, jacobi_t_polynomial,
                                   singular_vector_Ptilde)
from vermabranch.polyring import (curated_factors, per_context, quadratic_sum,
                                  xi_vars)
from vermabranch.so_pair import (SoPairContext, ladder_images, ladder_ops, model_ops,
                                 p_image, pq_membership_check, reduced_F, singular_vector_F,
                                 t_model_check, tilde_gegenbauer)
from vermabranch.weylalg import proportionality
from vermabranch.xi_model import lowering_direction_op, op_P, op_Q

SO_BUILDS = [(lowering_direction_op, (1,)), (op_Q, ()), (ladder_images, (0,)),
             (ladder_images, (3,)), (tilde_gegenbauer, (3,)), (p_image, (2,))]


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
    assert singular_vector_F(fresh, 3) == singular_vector_F(ctx, 3)


@pytest.mark.parametrize("fn, args", SO_BUILDS,
                         ids=[f"{fn.__name__}{args}" for fn, args in SO_BUILDS])
def test_so_builds_once_per_context(fn, args):
    ctx = SoPairContext.formal(3)
    first = fn(ctx, *args)
    assert fn(ctx, *args) is first
    assert fn(SoPairContext.formal(3), *args) == first


def test_op_P_is_the_memoized_last_direction():
    ctx = SoPairContext.formal(3)
    assert op_P(ctx) is lowering_direction_op(ctx, 2)


def test_ladder_images_match_direct_application():
    ctx = SoPairContext.formal(3)
    f = reduced_F(ctx, 2)
    (e_l, f_l, _), (e_dn, _, _) = ladder_ops(ctx, 2), ladder_ops(ctx, 1)
    ev, fv, up, down = ladder_images(ctx, 2)
    assert ev == e_l.apply(f) and fv == f_l.apply(f)
    assert up == ladder_ops(ctx, 3)[1].apply(ev)
    assert down == e_dn.apply(fv)
    assert ladder_images(ctx, 0)[3].is_zero()


def test_p_image_matches_direct_application():
    ctx = SoPairContext.formal(3)
    pv, c = p_image(ctx, 2)
    assert pv == model_ops(ctx)["P"].apply(reduced_F(ctx, 2))
    f1 = reduced_F(ctx, 1)
    assert c == proportionality(pv, f1) and pv == f1.scale(c)
    pv0, c0 = p_image(ctx, 0)
    assert pv0.is_zero() and c0 is None


def test_both_lowering_checks_read_one_p_image(monkeypatch):
    # pq.lower and tmodel.p-membership state one claim: P F_l is applied
    # once per context and degree
    ctx, applied = SoPairContext.formal(3), []
    p = model_ops(ctx)["P"]
    apply = type(p).apply
    monkeypatch.setattr(type(p), "apply", lambda op, f: applied.append(op is p) or apply(op, f))
    pq_membership_check(ctx, 3)
    t_model_check(ctx, 3)
    assert applied.count(True) == 4


def test_jacobi_built_once_per_context():
    ctx = DiagContext.formal()
    assert jacobi_t_polynomial(ctx, 4) is jacobi_t_polynomial(ctx, 4)
    assert jacobi_t_polynomial(DiagContext.formal(), 4) == jacobi_t_polynomial(ctx, 4)
    assert singular_vector_Ptilde(ctx, 4) is singular_vector_Ptilde(ctx, 4)
    assert singular_vector_Ptilde(DiagContext.formal(), 4) == singular_vector_Ptilde(ctx, 4)


def test_formal_and_specialized_contexts_do_not_share():
    formal = SoPairContext.formal(3)
    special = SoPairContext.at(3, Fraction(1, 2))
    f2, s2 = singular_vector_F(formal, 2), singular_vector_F(special, 2)
    assert f2 is not s2 and f2 != s2
    assert s2 == singular_vector_F(SoPairContext.at(3, Fraction(1, 2)), 2)
    a = DiagContext.at(Fraction(1, 2), Fraction(5, 2))
    assert jacobi_t_polynomial(a, 2) != jacobi_t_polynomial(DiagContext.formal(), 2)


def test_degenerate_build_is_not_memoized():
    ctx = SoPairContext.at(2, Fraction(-1, 2))
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            singular_vector_F(ctx, 1)
        with pytest.raises(ZeroDivisionError):
            ladder_images(ctx, 1)
    assert not [k for k in vars(ctx)["_memo"] if k[1] == (1,)
                and k[0] in ("singular_vector_F", "ladder_images")]


def test_raising_build_stores_nothing():
    calls = []

    @per_context
    def build(ctx, k):
        calls.append(k)
        if k < 0:
            raise ValueError("negative")
        return [k]

    ctx = SoPairContext.formal(2)
    for _ in range(2):
        with pytest.raises(ValueError):
            build(ctx, -1)
    assert build(ctx, 1) is build(ctx, 1)
    assert calls == [-1, -1, 1]
    assert build.__name__ == "build" and inspect.isfunction(build)


def test_context_fields_unchanged():
    assert list(SoPairContext._fields) == ["n", "lam"]
    assert list(DiagContext._fields) == ["lam", "mu"]
    ctx, fresh = SoPairContext.formal(3), SoPairContext.formal(3)
    singular_vector_F(ctx, 1)
    # alpha is computed once and kept in the instance dict beside the memo;
    # equality, hashing and repr see neither
    assert ctx.alpha is ctx.alpha and "alpha" not in vars(fresh)
    assert ctx == fresh and hash(ctx) == hash(fresh)
    assert repr(ctx) == repr(fresh)


@pytest.mark.parametrize("fn", [polyring.curated_factors, so_pair.singular_vector_F,
                                so_pair.ladder_ops, diag_pair.jacobi_t_polynomial,
                                xi_model.lowering_direction_op, xi_model.op_Q,
                                so_pair.ladder_images, so_pair.tilde_gegenbauer,
                                diag_pair.singular_vector_Ptilde])
def test_traced_functions_stay_plain(fn):
    # the benchmark tracer wraps plain functions of the module they belong to
    assert inspect.isfunction(fn)
    assert getattr(sys.modules[fn.__module__], fn.__name__) is fn
