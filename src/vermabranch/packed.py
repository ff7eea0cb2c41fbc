"""The one packed monomial layout of the package and its kernel (Monagan and
Pearce, CASC 2007).

A monomial is one int of 16-bit fields, highest first: the total degree, then
one exponent per variable.  :func:`layout` places n variables above a given
bit: the parameter symbols of ``SYMBOLS`` take ``layout(3)``, and the
geometric variables of :mod:`~vermabranch.polyring` take ``layout(n, PBITS)``,
so a parameter monomial is the low ``PBITS`` of a geometric one.  Integer
order is thus the graded-lexicographic order, and a monomial product is one
integer addition.  Every exponent and degree stays below 2^15, so two fields
never carry into their neighbour; a product that reaches 2^15 in a field
raises ValueError.

The parameter polynomials of :mod:`~vermabranch.scalars` and the geometric
ones of :mod:`~vermabranch.polyring` pack with :func:`pack`, add with
:func:`add`, multiply with :func:`product` and divide with :func:`divide`.
The operator algebra of :mod:`~vermabranch.weylalg` runs a second
multiply-accumulate loop, the packed Leibniz rule, on the same keys, and
tests its sums with :func:`checked` as :func:`product` does.

This module imports nothing from the package: it owns the key format that the
three layers share.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from operator import neg, or_
from typing import Dict, List, Optional, Sequence, Tuple

Packed = Dict[int, int]                  # packed monomial key -> nonzero int

SYMBOLS = ("a", "l", "m")

_W = 16                                  # bits per packed field
FIELD = (1 << _W) - 1
LIMIT = 1 << (_W - 1)                    # every exponent stays below this
OVERFLOW = f"exponent of {LIMIT} or more in a polynomial"


@lru_cache(maxsize=None)
def layout(n: int, base: int = 0) -> Tuple[Tuple[int, ...], Tuple[int, ...], int, int]:
    """For n variables packed above bit base: the shift of each one's field,
    the key of each one's unit monomial, the shift of their degree field, and
    the mask of the top bit of every field from bit 0 up to theirs."""
    shifts = tuple(base + _W * i for i in reversed(range(n)))
    dshift = base + _W * n
    units = tuple(1 << s | 1 << dshift for s in shifts)
    top = sum(1 << s for s in range(_W - 1, dshift + _W, _W))
    return shifts, units, dshift, top


SHIFTS, UNITS, _DSHIFT, PTOP = layout(len(SYMBOLS))
PBITS = _DSHIFT + _W                     # the parameter fields, degree included
PMASK = (1 << PBITS) - 1


def pack(e: Sequence[int], base: int = 0) -> int:
    """The key of the exponents e packed above bit base."""
    if min(e) < 0:
        raise ValueError("negative exponent")
    if sum(e) >= LIMIT:
        raise ValueError(OVERFLOW)
    return sum(x * u for x, u in zip(e, layout(len(e), base)[1]))


def unpack(k: int, n: int, base: int = 0) -> Tuple[int, ...]:
    """The n exponents packed above bit base in the key k."""
    return tuple(k >> s & FIELD for s in layout(n, base)[0])


def add(a: Packed, b: Packed) -> Packed:
    """The sum of two packed polynomials."""
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def checked(out: Packed, top: int) -> Tuple[Packed, int]:
    """The accumulated packed sum out without its zero terms, and the OR of
    their keys, tested against ``top``, the mask of the top bit of each of
    its fields."""
    out = {k: c for k, c in out.items() if c}
    bits = reduce(or_, out, 0)
    if bits & top:
        raise ValueError(OVERFLOW)
    return out, bits


def product(a: Packed, b: Packed, top: int) -> Packed:
    """The product of two packed polynomials, tested by :func:`checked`; a
    constant factor scales the other, which a factor 1 returns as it is."""
    if len(b) == 1 and 0 in b:
        a, b = b, a
    if len(a) == 1 and 0 in a:
        c = a[0]
        return b if c == 1 else {k: c * v for k, v in b.items()}
    out: Packed = {}
    get = out.get
    b = b.items()
    for k1, c1 in a.items():
        for k2, c2 in b:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return checked(out, top)[0]


def divide(rem: Packed, div: List[Tuple[int, int]], top: int) -> Optional[Packed]:
    """The quotient of the packed polynomial rem by div in integers if the
    division is exact, else None; consumes rem.

    A leading monomial of rem that the divisor's does not divide leaves a
    borrow in the top bit of some field of the difference of their keys.  Each
    leading key is popped from a heap of negated keys (Monagan and Pearce,
    J. Symb. Comput. 46, 2011), skipped if it has cancelled meanwhile.
    """
    de, dc = max(div)
    quot: Packed = {}
    heap = list(map(neg, rem))
    heapify(heap)
    while heap:
        e = -heappop(heap)
        if e not in rem:
            continue
        q = e - de
        if q & top:
            return None
        c, r = divmod(rem[e], dc)
        if r:
            return None
        quot[q] = c
        for k, v in div:
            t = q + k
            s = rem.get(t, 0) - c * v
            if s:
                if t not in rem:
                    heappush(heap, -t)
                rem[t] = s
            else:
                del rem[t]
    return quot
