"""The orthogonal pair's operators in the n Fourier variables x1..xn, the
xi-model: the nilradical action in each direction, the degree-lowering
operator P, the enveloping-algebra raising operator Q, the raising operator
with its degree index promoted to the Euler operator, and the displayed
right-hand sides of the two non-closure commutators.

:mod:`~vermabranch.so_pair` runs its ``nonclosure.*`` records on these, and
builds the invariant model's Q with :func:`raising_op`; every other so-pair
record runs in the model C[x, y].  Each builder reads only the attributes of
its context (``n``, ``lam``, ``alpha``, ``vars`` and the curated quadratics
``xn()``, ``q_prime()``, ``q_full()``) and never imports
:mod:`~vermabranch.so_pair`, so the import goes one way.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .polyring import GeoPoly, per_context
from .weylalg import DiffOp


def raising_op(ctx, p: DiffOp, xn: GeoPoly, q1: GeoPoly, euler: DiffOp) -> DiffOp:
    """q1 P - (lam - E + 2)(n + 2 lam - 2E + 1) xn, in the xi-model or the model."""
    vs, lam = xn.vars, ctx.lam
    return DiffOp.mult(q1) @ p - (DiffOp.scalar(vs, lam + 2) - euler) @ (
        DiffOp.scalar(vs, lam * 2 + (ctx.n + 1)) - euler.scale(2)) @ DiffOp.mult(xn)


@per_context
def lowering_direction_op(ctx, m: int) -> DiffOp:
    """Quadratic nilradical action in direction m (0-based index):
    (1/2) x_m Laplacian + (lam - Euler) d_m."""
    vs = ctx.vars
    xm = GeoPoly.var(vs, vs.names[m])
    return (DiffOp.mult(xm.scale(Fraction(1, 2))) @ DiffOp.laplacian(vs)
            + (DiffOp.scalar(vs, ctx.lam) - DiffOp.euler(vs)) @ DiffOp.partial(vs, m))


def op_P(ctx) -> DiffOp:
    """Degree-lowering action of the complementary root space (the i-free
    version)."""
    return lowering_direction_op(ctx, ctx.n - 1)


@per_context
def op_Q(ctx) -> DiffOp:
    """The enveloping-algebra raising operator
    (sum' xi^2) P - (lam - E + 2)(n + 2 lam - 2E + 1) xn."""
    return raising_op(ctx, op_P(ctx), ctx.xn(), ctx.q_prime(), DiffOp.euler(ctx.vars))


def e_euler_form(ctx) -> DiffOp:
    """The raising operator with the degree index promoted to the Euler
    operator: -(sum xi^2) d_n - (E - 1 + 2a) xn."""
    vs = ctx.vars
    shift = DiffOp.euler(vs) + DiffOp.scalar(vs, ctx.alpha * 2 - 1)
    return -(DiffOp.mult(ctx.q_full()) @ DiffOp.partial(vs, ctx.n - 1)) \
        - (shift @ DiffOp.mult(ctx.xn()))


def displayed_commutators(ctx) -> Tuple[DiffOp, DiffOp]:
    """Transcriptions of the displayed right-hand sides of [P, Q] and of
    [e-Euler-form, P]."""
    vs, lam, n, xn, q1 = ctx.vars, ctx.lam, ctx.n, ctx.xn(), ctx.q_prime()
    e, dn, lap = DiffOp.euler(vs), DiffOp.partial(vs, ctx.n - 1), DiffOp.laplacian(vs)
    s = lambda c: DiffOp.scalar(vs, c)

    lam_m_e = s(lam) - e
    # (lam - E + 2)(2 lam + n + 1 - 2E) and 4 lam + n + 3 - 4E, each twice
    r, w = (lam_m_e + s(2)) @ (s(lam * 2 + (n + 1)) - e.scale(2)), s(lam * 4 + (n + 3)) - e.scale(4)
    t1 = (s(lam * 4 + 10) + e.scale(2)).scale(Fraction(-1, 2)) @ DiffOp.mult(xn * xn) @ lap
    bracket = ((e.scale(2) + s(n - 3)) @ (s(lam + 1) - e) + r - lam_m_e @ w
               - (s(lam * 4 + (n + 7)) + e.scale(4)))
    t2 = bracket @ DiffOp.mult(xn) @ dn
    t3 = -(DiffOp.mult(q1 + xn * xn) @ (DiffOp.mult(xn) @ dn + s(1)) @ lap)
    t4 = ((s(lam + 1) - e).scale(-2)) @ DiffOp.mult(q1 + xn * xn) @ dn @ dn
    t5 = -(lam_m_e @ (r - w))
    ep = (DiffOp.mult(q1.scale(Fraction(-1, 2))) @ lap
          - DiffOp.mult(q1) @ dn @ dn
          + DiffOp.mult((xn * xn).scale(Fraction(1, 2))) @ lap
          + (s(lam + n) + e) @ DiffOp.mult(xn) @ dn
          + (e + s(ctx.alpha * 2)) @ (s(lam) - e))
    return t1 + t2 + t3 + t4 + t5, ep
