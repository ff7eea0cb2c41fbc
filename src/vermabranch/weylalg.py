"""Normal-ordered differential operators with localized coefficients.

A :class:`DiffOp` is a finite sum of terms ``coefficient * D^e`` where the
coefficient is a :class:`~vermabranch.polyring.RatCoeff` and ``D^e`` a
derivative monomial.  An operator is written as its normal-form terms,
``DiffOp(vars, {e: c, ...})``, the one constructor, which checks and coerces
them; results of the algebra skip that check.  Composition is used only for
operators the paper states as compositions.

All coefficients stand to the left of all derivatives; composition
re-establishes that normal form via the Leibniz rule

    D^a (c g) = sum_{k <= a} binom(a, k) (D^k c) (D^{a-k} g),

which works verbatim for localized coefficients since RatCoeff knows its own
quotient-rule derivative.  ``compose``, ``commutator`` and ``apply_rat`` add
every product ``binom * c * D^k g`` under the derivative monomial it lands
on, both orders of a commutator with opposite signs into the same sums, on
one of two paths that the input alone picks:

- packed, when every coefficient of both operands (of the operator, for
  ``apply_rat``) is a polynomial over the parameter denominator 1: one loop
  over packed integer terms, where ``D^k`` of a term ``c x^g`` is
  ``prod_i (g_i)_{k_i} c x^(g-k)`` with g read from the fields of its key
  (:func:`~vermabranch.scalars._layout`).  Each output coefficient is built
  once, after the overflow test;
- generic, for any curated denominator or a parameter denominator other
  than 1: ``D^k c`` is read from one derivative table per coefficient, and
  each output coefficient is one :meth:`RatCoeff.sum_of_products`, one
  packed sum and one reduction against the curated denominator.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, perm
from operator import add, sub
from typing import Dict, List, Optional, Tuple

from .polyring import GeoPoly, RatCoeff, VarSet, _new, _rat
from .scalars import _FIELD, _ONE, _PBITS, _checked, _layout, ParamPoly, ParamScalar

DerivMono = Tuple[int, ...]


@lru_cache(maxsize=None)
def _iter_sub(e: DerivMono) -> Tuple[Tuple[DerivMono, int], ...]:
    """All k with 0 <= k <= e componentwise, with the product of binomials."""
    if not e:
        return (((), 1),)
    head = e[0]
    return tuple(((k,) + tail, comb(head, k) * c)
                 for tail, c in _iter_sub(e[1:]) for k in range(head + 1))


def _leibniz(a: "DiffOp", b: "DiffOp", sign: int,
             out: Dict[DerivMono, list]) -> Dict[DerivMono, list]:
    """Append the triple (sign * binomial, ca, D^k cb) of every Leibniz
    product of a o b to out[e], e the product's derivative monomial."""
    derivs = [(eb, _Derivatives(cb)) for eb, cb in b.terms.items()]
    for ea, ca in a.terms.items():
        for eb, dcb in derivs:
            ab = tuple(map(add, ea, eb))
            for k, binomial in _iter_sub(ea):
                dc = dcb[k]
                if not dc.is_zero():
                    out.setdefault(tuple(map(sub, ab, k)), []).append((sign * binomial, ca, dc))
    return out


Packed = List[Tuple[DerivMono, Dict[int, int]]]


def _packed(op: "DiffOp") -> Optional[Packed]:
    """The (e, packed terms) of each coefficient of op, or None unless every
    one is a polynomial over the parameter denominator 1."""
    out = []
    for e, c in op.terms.items():
        if c.den or c.num.den.terms != _ONE.terms:
            return None
        out.append((e, c.num.terms))
    return out


@lru_cache(maxsize=None)
def _lowerings(e: DerivMono, whole: bool) -> Tuple[tuple, ...]:
    """(k, binomial, fields, drop) for each k <= e, or for k = e alone if
    whole: fields holds the packed field shift and order of each variable
    that k differentiates, and drop is the key D^k subtracts from a monomial."""
    shifts, units = _layout(len(e), _PBITS)[:2]
    return tuple((k, binomial, tuple((s, ki) for s, ki in zip(shifts, k) if ki),
                  sum(ki * u for ki, u in zip(k, units)))
                 for k, binomial in (((e, 1),) if whole else _iter_sub(e)))


def _packed_leibniz(a: Packed, b: Packed, sign: int, whole: bool,
                    out: Dict[DerivMono, Dict[int, int]]) -> Dict[DerivMono, Dict[int, int]]:
    """Add sign * binomial * c1 * D^k(c2 g) for every left term c1 g of a
    coefficient at ea, right term c2 g of a coefficient at eb, and k <= ea
    (k = ea alone if whole) into out[ea + eb - k].  D^k of a monomial with
    exponents g is prod_i (g_i)_{k_i} times the monomial with g - k."""
    for ea, t1 in a:
        t1, subs = t1.items(), _lowerings(ea, whole)
        for eb, t2 in b:
            t2, ab = t2.items(), tuple(map(add, ea, eb))
            for k, binomial, fields, drop in subs:
                acc = out.setdefault(tuple(map(sub, ab, k)), {})
                get, m = acc.get, sign * binomial
                for k2, c in t2:
                    c *= m
                    for s, ki in fields:
                        c *= perm(k2 >> s & _FIELD, ki)
                    if c:
                        k2 -= drop
                        for k1, c1 in t1:
                            key = k1 + k2
                            acc[key] = get(key, 0) + c1 * c
    return out


def _poly(vs: VarSet, t: Dict[int, int], den: ParamPoly = _ONE) -> RatCoeff:
    """The polynomial coefficient of accumulated packed terms t over den."""
    return _rat(_new(vs, _checked(t, _layout(vs.arity, _PBITS)[3]), den), {})


class _Derivatives(dict):
    """``D^k x`` for one coefficient or polynomial ``x``, filled on demand and
    dropped with the call that builds it.  ``D^k x`` is one more derive of
    ``D^(k - e_i) x``, i the last variable in k, so each entry takes the chain
    of derives, first variable first, that differentiating x directly takes.
    A zero stays zero."""

    def __init__(self, x):
        super().__init__({(0,) * x.vars.arity: x})

    def __missing__(self, k: DerivMono):
        i = max(j for j, kj in enumerate(k) if kj)
        prev = self[k[:i] + (k[i] - 1,) + k[i + 1:]]
        d = self[k] = prev if prev.is_zero() else prev.derive(i)
        return d


def _op(vars: VarSet, terms: Dict[DerivMono, RatCoeff]) -> "DiffOp":
    """The operator of RatCoeff ``terms`` in vars, zero coefficients dropped.
    Every internal result is built here, not by the constructor."""
    op = DiffOp.__new__(DiffOp)
    op.vars, op.terms = vars, {e: c for e, c in terms.items() if c.num.terms}
    return op


def _unit(vars: VarSet, i: int, order: int = 1) -> DerivMono:
    """The derivative monomial d_i^order in vars."""
    return tuple(order if j == i else 0 for j in range(vars.arity))


class DiffOp:
    """Element of the localized Weyl algebra in normal form."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarSet, terms: Dict[DerivMono, object] | None = None):
        """The operator sum c * D^e over ``terms``: e a tuple of arity(vars)
        nonnegative ints, c a RatCoeff or GeoPoly in vars or a Q(a, l, m)
        scalar (int, Fraction or ParamScalar).  Zero coefficients are dropped."""
        clean: Dict[DerivMono, RatCoeff] = {}
        for e, c in (terms or {}).items():
            if len(e) != vars.arity:
                raise ValueError("derivative exponent arity mismatch")
            if min(e, default=0) < 0:
                raise ValueError("negative derivative exponent")
            if not isinstance(c, RatCoeff):
                c = RatCoeff(c if isinstance(c, GeoPoly) else GeoPoly.const(vars, c))
            if c.vars is not vars and c.vars != vars:
                raise ValueError(f"coefficient variable-set mismatch: {c.vars} vs {vars}")
            if c.num.terms:
                clean[tuple(e)] = c
        self.vars, self.terms = vars, clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(vars: VarSet) -> "DiffOp":
        return DiffOp(vars)

    @staticmethod
    def scalar(vars: VarSet, c) -> "DiffOp":
        return DiffOp(vars, {(0,) * vars.arity: c})

    @staticmethod
    def mult(c: GeoPoly | RatCoeff) -> "DiffOp":
        """Multiplication by a polynomial or a localized coefficient."""
        return DiffOp(c.vars, {(0,) * c.vars.arity: c})

    @staticmethod
    def partial(vars: VarSet, var: str | int, order: int = 1) -> "DiffOp":
        i = var if isinstance(var, int) else vars.index(var)
        return DiffOp(vars, {_unit(vars, i, order): 1})

    @staticmethod
    def euler(vars: VarSet) -> "DiffOp":
        """sum_i x_i d/dx_i"""
        return DiffOp(vars, {_unit(vars, i): GeoPoly.var(vars, name)
                             for i, name in enumerate(vars.names)})

    @staticmethod
    def laplacian(vars: VarSet) -> "DiffOp":
        """sum_i d^2/dx_i^2"""
        return DiffOp(vars, {_unit(vars, i, 2): 1 for i in range(vars.arity)})

    # -- algebra ----------------------------------------------------------

    def _check(self, other: "DiffOp"):
        if self.vars != other.vars:
            raise ValueError("variable-set mismatch")

    def __add__(self, other: "DiffOp") -> "DiffOp":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return _op(self.vars, out)

    def __neg__(self) -> "DiffOp":
        return _op(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def scale(self, c) -> "DiffOp":
        return _op(self.vars, {e: v.scale(c) for e, v in self.terms.items()})

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Normal-ordered product self o other."""
        self._check(other)
        pa, pb = _packed(self), _packed(other)
        if pa is None or pb is None:
            return self._sum(_leibniz(self, other, 1, {}))
        return self._packed_sum(_packed_leibniz(pa, pb, 1, False, {}))

    def __matmul__(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        """self o other - other o self, both orders summed per coefficient."""
        self._check(other)
        pa, pb = _packed(self), _packed(other)
        if pa is None or pb is None:
            return self._sum(_leibniz(other, self, -1, _leibniz(self, other, 1, {})))
        return self._packed_sum(
            _packed_leibniz(pb, pa, -1, False, _packed_leibniz(pa, pb, 1, False, {})))

    def _sum(self, products: Dict[DerivMono, list]) -> "DiffOp":
        s = RatCoeff.sum_of_products
        return _op(self.vars, {e: s(self.vars, t) for e, t in products.items()})

    def _packed_sum(self, products: Dict[DerivMono, Dict[int, int]]) -> "DiffOp":
        return _op(self.vars, {e: _poly(self.vars, t) for e, t in products.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        # zero coefficients are dropped and RatCoeff equality compares forms
        return self.vars == other.vars and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        """Highest total derivative order; -1 for the zero operator."""
        return max((sum(e) for e in self.terms), default=-1)

    # -- action -----------------------------------------------------------

    def apply_rat(self, p: GeoPoly) -> RatCoeff:
        """Exact action on a polynomial; the result may keep a curated
        denominator when a localized coefficient fails to divide out."""
        vs = self.vars
        if vs != p.vars:
            raise ValueError("variable-set mismatch")
        pa = _packed(self)
        if pa is None:
            dp = _Derivatives(p)
            return RatCoeff.sum_of_products(
                vs, [(1, c, RatCoeff(dp[e])) for e, c in self.terms.items()])
        e0 = (0,) * vs.arity
        return _poly(vs, _packed_leibniz(pa, [(e0, p.terms)], 1, True, {}).get(e0, {}), p.den)

    def apply(self, p: GeoPoly) -> GeoPoly:
        """Action on a polynomial, demanding a polynomial result."""
        return self.apply_rat(p).as_poly()

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            dmono = "*".join(
                f"D[{self.vars.names[i]}]" + (f"^{e[i]}" if e[i] > 1 else "")
                for i in range(len(e))
                if e[i]
            )
            cs = c.render()
            if dmono:
                parts.append(f"({cs}) {dmono}" if cs != "1" else dmono)
            else:
                parts.append(f"({cs})")
        return " + ".join(parts)

    def __repr__(self):
        return f"DiffOp({self.render()})"


def proportionality(p: GeoPoly, q: GeoPoly) -> ParamScalar | None:
    """The scalar c with p = c*q, or None if p is not a multiple of q.

    q must be nonzero; p = 0 gives c = 0.
    """
    if q.is_zero():
        raise ValueError("reference polynomial is zero")
    if p.is_zero():
        return ParamScalar.const(0)
    e, qc = q.leading()
    pc = p.coefficient(e)
    if pc.is_zero():
        return None
    c = pc / qc
    return c if p == q.scale(c) else None
