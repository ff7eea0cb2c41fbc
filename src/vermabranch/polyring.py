"""Sparse multivariate polynomials in the geometric variables, the one
coefficient ring of the operators of :mod:`~vermabranch.weylalg`.

Variable sets are small and fixed by the two scenarios: ``x1..xn`` for the
orthogonal pair, ``xi, eta`` for the diagonal pair, ``x, y`` for the
orthogonal pair's O(n-1)-invariant model, and the one-variable lines ``t``
and ``x`` for the inhomogeneous models.  Each is one shared object: the
constants ``XI_ETA``, ``XY``, ``T_LINE`` and ``X_LINE``, and ``xi_vars(n)``,
cached per n.  So :func:`_same_vars` is an identity test for the package's
own sets; a hand-built equal set still passes by equality.  Coefficients
live in the exact parameter field Q(a, l, m) (:mod:`~vermabranch.scalars`).

A :class:`GeoPoly` is an integer polynomial in the geometric variables and
the parameters over one shared denominator ``den`` in Z[a, l, m] (FLINT's
``fmpq_poly`` form), with the integer content of both sides divided out and a
positive leading coefficient in ``den``.  A monomial is one int in the packed
layout of :mod:`~vermabranch.packed`, ``layout(n, PBITS)``: 16-bit fields
for the total geometric degree and g_1..g_n sit above the parameter fields,
whose bits are a ParamPoly key, so both layers share one kernel and its 2^15
bound.  Integer order is graded-lexicographic in the geometric part, the last
variable least significant, which keeps rendered output stable for the golden
files.  The one constructor ``GeoPoly(vars, terms)`` checks its terms and
coerces each coefficient but an exact int, and :meth:`GeoPoly.relabel`
moves a value between models, among them the Gegenbauer family from its
t-line to x.  Only the read-only view (``coefficients``, ``coefficient``,
``leading``) builds per-monomial ParamScalars, in the canonical form of
:mod:`scalars`.

The constructor, ``+`` and the operator products of :mod:`~vermabranch.weylalg`
put numerators over the lcm of their parameter denominators in one routine,
:func:`_over_common`.

:func:`invariant_expand` writes a value of the invariant model in the xi
variables, x -> xn and y -> q1 = x1^2 + ... + x_{n-1}^2.  A :class:`RatCoeff`
is the render-only witness of a failed model identity cleared by y: the
value over q1^k, k = 0 or 1, in the xi variables.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, wraps
from math import gcd
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from .packed import PBITS, PMASK, add, divide, layout, pack, product, unpack
from .scalars import _ONE, _gcd, _monomial, _normalize, _signed_sum, ParamPoly, ParamScalar

Expts = Tuple[int, ...]


class VarSet(namedtuple("VarSet", "kind names")):
    """The kind and the names of a set of variables.  The fields are
    read-only; equality and hash are those of the tuple (kind, names)."""

    __slots__ = ()

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


def _same_vars(a: VarSet, b: VarSet) -> VarSet:
    """a, if b is the same variable set; the one check that raises on a
    mismatch, for the arithmetic here and the operators of weylalg."""
    if a is b or a == b:
        return a
    raise ValueError(f"variable-set mismatch: {a} vs {b}")


@lru_cache(maxsize=None)
def xi_vars(n: int) -> VarSet:
    """The variables x1..xn of the orthogonal pair, one shared set per n."""
    if n < 2:
        raise ValueError("the orthogonal-pair scenario needs n >= 2")
    return VarSet("xi", tuple(f"x{i}" for i in range(1, n + 1)))


XI_ETA = VarSet("xi_eta", ("xi", "eta"))
XY = VarSet("xy", ("x", "y"))
T_LINE = VarSet("t", ("t",))
X_LINE = VarSet("x", ("x",))


def _over_common(vars: VarSet, nums: List[Dict[int, int]],
                 dens: List[ParamPoly]) -> Tuple[ParamPoly, List[Dict[int, int]]]:
    """The lcm D of the parameter denominators dens, and each packed numerator
    of nums lifted to D, so that nums[i]/dens[i] is lifted[i]/D.  Where every
    denominator equals the first, as in nearly every call, it returns at once
    with nums itself."""
    d0 = dens[0] if dens else _ONE
    if dens.count(d0) == len(dens):
        return d0, nums
    den, lift = _ONE, dict.fromkeys(dens)
    for d in lift:
        den = den * d.exact_divide(_gcd(den, d))
    lift, top = {d: den.exact_divide(d).terms for d in lift}, layout(vars.arity, PBITS)[3]
    return den, [product(t, lift[d], top) for t, d in zip(nums, dens)]


def _new(vars: VarSet, terms: Dict[int, int], den: ParamPoly = _ONE) -> "GeoPoly":
    """The GeoPoly of packed nonzero terms over den, brought to kernel form.
    Every internal result is built here, not by the constructor."""
    if not terms or den.terms == _ONE.terms:
        den = _ONE
    else:
        terms, den = _normalize(terms, den)
    p = GeoPoly.__new__(GeoPoly)
    p.vars, p.terms, p.den = vars, terms, den
    return p


class GeoPoly:
    """Sparse polynomial in geometric variables over Q(a, l, m): ``terms``
    maps packed monomials to nonzero ints over the shared denominator ``den``."""

    __slots__ = ("vars", "terms", "den")

    def __init__(self, vars: VarSet, terms: Mapping[Expts, object] | None = None):
        """The polynomial with coefficients ``terms``: int, Fraction, ParamPoly
        or ParamScalar on exponent tuples of the arity of vars, each numerator
        lifted to the lcm of the denominators by :func:`_over_common`.  An
        exact int (not a bool) is its own numerator over 1, packed without
        :meth:`ParamScalar.coerce`."""
        gs, nums, dens = [], [], []
        for e, c in (terms or {}).items():
            if len(e) != vars.arity:
                raise ValueError("exponent arity mismatch")
            g = pack(e, PBITS)
            if type(c) is int:
                num, den = {0: c} if c else {}, _ONE
            else:
                c = ParamScalar.coerce(c)
                num, den = c.num.terms, c.den
            if num:
                gs.append(g)
                nums.append(num)
                dens.append(den)
        den, nums = _over_common(vars, nums, dens)
        p = _new(vars, {g + k: v for g, t in zip(gs, nums) for k, v in t.items()}, den)
        self.vars, self.terms, self.den = vars, p.terms, p.den

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(vars: VarSet, c) -> "GeoPoly":
        c = ParamScalar.coerce(c)
        return _new(vars, c.num.terms, c.den)

    @staticmethod
    def var(vars: VarSet, name: str, power: int = 1) -> "GeoPoly":
        e = [0] * vars.arity
        e[vars.index(name)] = power
        return GeoPoly(vars, {tuple(e): 1})

    @staticmethod
    def zero(vars: VarSet) -> "GeoPoly":
        return _new(vars, {})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(self.terms) >> layout(self.vars.arity, PBITS)[2] if self.terms else -1

    def is_homogeneous(self) -> bool:
        dshift = layout(self.vars.arity, PBITS)[2]
        return len({k >> dshift for k in self.terms}) <= 1

    def coefficients(self) -> Dict[Expts, ParamScalar]:
        """The read-only view: the coefficient of each geometric monomial as a
        canonical ParamScalar, highest monomial first.  Built on each call."""
        rows: Dict[int, Dict[int, int]] = {}
        for k, c in self.terms.items():
            rows.setdefault(k >> PBITS, {})[k & PMASK] = c
        n = self.vars.arity
        return {unpack(g << PBITS, n, PBITS): ParamScalar(ParamPoly(rows[g]), self.den)
                for g in sorted(rows, reverse=True)}

    def coefficient(self, e: Expts) -> ParamScalar:
        g = pack(tuple(e), PBITS) >> PBITS
        row = {k & PMASK: c for k, c in self.terms.items() if k >> PBITS == g}
        return ParamScalar(ParamPoly(row), self.den)

    def leading(self) -> Tuple[Expts, ParamScalar]:
        e = unpack(max(self.terms), self.vars.arity, PBITS)
        return e, self.coefficient(e)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "GeoPoly") -> "GeoPoly":
        _same_vars(self.vars, other.vars)
        if not other.terms:
            return self
        if not self.terms:
            return other
        den, (a, b) = _over_common(self.vars, [self.terms, other.terms], [self.den, other.den])
        return _new(self.vars, add(a, b), den)

    def __neg__(self) -> "GeoPoly":
        return _new(self.vars, {k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other: "GeoPoly") -> "GeoPoly":
        return self + (-other)

    def __mul__(self, other: "GeoPoly") -> "GeoPoly":
        _same_vars(self.vars, other.vars)
        top = layout(self.vars.arity, PBITS)[3]
        return _new(self.vars, product(self.terms, other.terms, top), self.den * other.den)

    def __pow__(self, k: int) -> "GeoPoly":
        if k < 0:
            raise ValueError("negative power")
        out = GeoPoly.const(self.vars, 1)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c) -> "GeoPoly":
        c, top = ParamScalar.coerce(c), layout(self.vars.arity, PBITS)[3]
        return _new(self.vars, product(self.terms, c.num.terms, top), self.den * c.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeoPoly) or self.vars != other.vars:
            return False
        if self.den == other.den:
            return self.terms == other.terms
        top = layout(self.vars.arity, PBITS)[3]
        return product(self.terms, other.den.terms, top) == product(other.terms, self.den.terms, top)

    def exact_divide(self, divisor: "GeoPoly") -> Optional["GeoPoly"]:
        """Quotient self/divisor when the division is exact, else None.

        The divisor must have rational constant coefficients, as q1 has.
        By Gauss's lemma, division by its primitive part runs in integers and
        fails at the first inexact step.
        """
        _same_vars(self.vars, divisor.vars)
        dt = divisor.terms
        if not dt:
            raise ZeroDivisionError("division by the zero polynomial")
        if not divisor.den.is_constant() or any(k & PMASK for k in dt):
            raise ValueError("exact_divide needs a divisor with constant coefficients")
        if not self.terms:
            return self
        cont, top = gcd(*dt.values()), layout(self.vars.arity, PBITS)[3]
        quot = divide(dict(self.terms), [(k, c // cont) for k, c in dt.items()], top)
        if quot is None:
            return None
        # self / divisor = quot * den(divisor) / (den(self) * cont)
        return _new(self.vars, product(quot, divisor.den.terms, top),
                    self.den * ParamPoly.const(cont))

    def relabel(self, target: VarSet, f) -> "GeoPoly":
        """The polynomial in target with sign * c on image for each monomial e
        with coefficient c, where f(e), asked highest e first, is (image, sign)
        with sign +-1, or None to drop e.  Only the geometric bits of each key
        change: the integer coefficients and shared denominator stay, and
        colliding images add."""
        moves = {}
        for g in sorted({k >> PBITS for k in self.terms}, reverse=True):
            m = f(unpack(g << PBITS, self.vars.arity, PBITS))
            if m is not None:
                moves[g] = (pack(m[0], PBITS) - (g << PBITS), m[1])
        out: Dict[int, int] = {}
        for k, c in self.terms.items():
            if (m := moves.get(k >> PBITS)) is not None:
                out[k + m[0]] = out.get(k + m[0], 0) + m[1] * c
        return _new(target, {k: c for k, c in out.items() if c}, self.den)

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        parts = []
        for e, c in self.coefficients().items():
            mono = _monomial(self.vars.names, e)
            cs = c.render()
            if " " in cs or "/" in cs:
                cs = f"({cs})"
            if mono and cs in ("1", "-1"):
                parts.append(mono if cs == "1" else f"-{mono}")
            else:
                parts.append(f"{cs}*{mono}" if mono else cs)
        return _signed_sum(parts)

    def __repr__(self):
        return f"GeoPoly({self.render()})"


# ---------------------------------------------------------------------------
# the shared quadratics, and the witness form of a cleared model identity
# ---------------------------------------------------------------------------

def quadratic_sum(vars: VarSet, upto: int) -> GeoPoly:
    """x1^2 + ... + x_upto^2 in the given variable set."""
    return GeoPoly(vars, {tuple(2 * (j == i) for j in range(vars.arity)): 1
                          for i in range(upto)})


_CURATED: Dict[VarSet, Mapping[str, GeoPoly]] = {}


def curated_factors(vars: VarSet) -> Mapping[str, GeoPoly]:
    """The polynomials xn, q1 and q of the xi variables, none on the others.
    q1 is the image of y under :func:`invariant_expand`.

    Built on first use of each variable set and shared read-only after that.
    """
    facs = _CURATED.get(vars)
    if facs is None:
        if vars.kind == "xi":
            n = vars.arity
            d = {
                "xn": GeoPoly.var(vars, vars.names[-1]),
                "q1": quadratic_sum(vars, n - 1),
                "q": quadratic_sum(vars, n),
            }
        else:
            d = {}
        facs = _CURATED[vars] = MappingProxyType(d)
    return facs


def per_context(build):
    """Memoize ``build(ctx, *args)`` in the context's instance dict, keyed by
    the function name and the positional arguments.

    The context's fields, equality, hash and repr are untouched.  A build
    that raises (a degenerate weight) stores nothing.
    """
    @wraps(build)
    def cached(ctx, *args):
        memo = vars(ctx).setdefault("_memo", {})
        key = (build.__name__, args)
        if key not in memo:
            memo[key] = build(ctx, *args)
        return memo[key]
    return cached


@lru_cache(maxsize=None)
def _q1_power(vars: VarSet, e: int) -> GeoPoly:
    """q1^e, the image of y^e under :func:`invariant_expand`."""
    return curated_factors(vars)["q1"] ** e


class RatCoeff:
    """The witness form of a failed cleared identity of the invariant model:
    a model value g over y^k, k = 0 or 1, written in the xi variables as
    ``num / q1^k``.  Where y divides g (one :meth:`GeoPoly.exact_divide`),
    the quotient is taken and k drops to 0; the value is then expanded by
    :func:`invariant_expand`.  As y divides g iff q1 divides its expansion,
    the form is reduced.  Built only on failure, and only rendered."""

    __slots__ = ("num", "k")

    def __init__(self, vars: VarSet, g: GeoPoly, k: int = 0):
        if k and (q := g.exact_divide(GeoPoly.var(g.vars, "y"))) is not None:
            g, k = q, 0
        self.num, self.k = invariant_expand(vars, g), k

    def render(self) -> str:
        return f"({self.num.render()}) / [q1]" if self.k else self.num.render()


# ---------------------------------------------------------------------------
# homogenization machinery for the xi/eta model
# ---------------------------------------------------------------------------

def homogenize(q: GeoPoly, l: int) -> GeoPoly:
    """eta^l * Q(xi/eta) for a polynomial Q(t) of degree <= l."""
    if q.vars.arity != 1:
        raise ValueError("homogenize expects a univariate polynomial")
    if q.degree() > l:
        raise ValueError(f"degree {q.degree()} exceeds homogeneity {l}")
    return q.relabel(XI_ETA, lambda e: ((e[0], l - e[0]), 1))


def dehomogenize(p: GeoPoly, l: int) -> GeoPoly:
    """Inverse of :func:`homogenize` on homogeneous degree-l polynomials."""
    if p.terms and not (p.is_homogeneous() and p.degree() == l):
        raise ValueError("input is not homogeneous of the stated degree")
    return p.relabel(T_LINE, lambda e: ((e[0],), 1))


def invariant_expand(vars: VarSet, g: GeoPoly) -> GeoPoly:
    """The polynomial in the xi variables vars of a polynomial g in x, y of
    the O(n-1)-invariant model: x^i y^k becomes xn^i q1^k.  q1 has integer
    coefficients and no xn, so each packed term of g times each term of q1^k
    lands on a key of its own."""
    out, xn = {}, layout(vars.arity, PBITS)[1][-1]
    for key, c in g.terms.items():
        i, k = unpack(key, 2, PBITS)
        base = (key & PMASK) + i * xn
        for m, d in _q1_power(vars, k).terms.items():
            out[base + m] = c * d
    return _new(vars, out, g.den)

