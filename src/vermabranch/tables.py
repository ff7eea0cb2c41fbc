"""Stable text renderings of the small examples: the normalized singular
vectors, the Gegenbauer and Jacobi tables, the raising-operator actions and
the lowering actions.  These are what the golden files freeze, and
:func:`ortho_table` is what ``vermabranch ortho-tables`` prints."""

from __future__ import annotations

from .diag_pair import (DiagContext, lowering_constant, op_F_fourier,
                        singular_vector_Ptilde)
from .orthopoly import gegenbauer, jacobi
from .polyring import gegen_tilde_convert
from .scalars import ALPHA, LAMBDA, MU
from .so_pair import SoPairContext, op_Q, singular_vector_F
from .weylalg import proportionality


def f_vector_table(n: int, max_degree: int) -> str:
    ctx = SoPairContext.formal(n)
    lines = [f"F_{l} = {singular_vector_F(ctx, l).render()}"
             for l in range(max_degree + 1)]
    return "\n".join(lines) + "\n"


def _gegenbauer_lines(max_degree: int) -> list:
    return [f"C_{l} = {gegenbauer(l, ALPHA).render()}" for l in range(max_degree + 1)]


def gegenbauer_table(max_degree: int) -> str:
    lines = _gegenbauer_lines(max_degree)
    for l in range(max_degree + 1):
        ct = gegen_tilde_convert(gegenbauer(l, ALPHA), l)
        lines.append(f"C~_{l} = {ct.render()}")
    return "\n".join(lines) + "\n"


def ortho_table(max_degree: int) -> str:
    lines = _gegenbauer_lines(max_degree)
    for l in range(max_degree + 1):
        p = jacobi(l, -LAMBDA - 1, MU + LAMBDA - (2 * l - 1))
        lines.append(f"P_{l} = {p.render()}")
    return "\n".join(lines) + "\n"


def q_action_table(n: int, max_degree: int) -> str:
    ctx = SoPairContext.formal(n)
    q = op_Q(ctx)
    lines = []
    for l in range(max_degree + 1):
        src = singular_vector_F(ctx, l)
        img = q.apply(src)
        c = proportionality(img, singular_vector_F(ctx, l + 1))
        lines.append(f"Q(F_{l}) = ({c.render()}) * F_{l + 1}")
        lines.append(f"       = {img.render()}")
    return "\n".join(lines) + "\n"


def jacobi_table(max_degree: int) -> str:
    ctx = DiagContext.formal()
    lines = [f"P~_{l} = {singular_vector_Ptilde(ctx, l).render()}"
             for l in range(max_degree + 1)]
    return "\n".join(lines) + "\n"


def lowering_table(max_degree: int) -> str:
    ctx = DiagContext.formal()
    f_hat = op_F_fourier(ctx)
    lines = []
    for l in range(1, max_degree + 1):
        img = f_hat.apply(singular_vector_Ptilde(ctx, l))
        c = lowering_constant(ctx, l)
        lines.append(f"F(P~_{l}) = ({c.render()}) * P~_{l - 1}")
        lines.append(f"        = {img.render()}")
    return "\n".join(lines) + "\n"


GOLDEN_TABLES = {
    "f_vectors.txt": lambda: f_vector_table(3, 4),
    "gegenbauer.txt": lambda: gegenbauer_table(3),
    "q_actions.txt": lambda: q_action_table(3, 3),
    "jacobi.txt": lambda: jacobi_table(3),
    "lowering.txt": lambda: lowering_table(3),
}
