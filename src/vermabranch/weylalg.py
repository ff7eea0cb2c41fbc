"""Normal-ordered differential operators with coefficients over a power of q1.

A :class:`DiffOp` is a finite sum of terms ``coefficient * D^e`` where the
coefficient is a :class:`~vermabranch.polyring.RatCoeff` ``num / q1^k`` and
``D^e`` a derivative monomial.  An operator is written as its normal-form
terms, ``DiffOp(vars, {e: c, ...})``, the one constructor, which checks and
coerces them; results of the algebra skip that check.  Composition is used
only for operators the paper states as compositions.

All coefficients stand to the left of all derivatives; composition
re-establishes that normal form via the Leibniz rule

    D^a (c g) = sum_{k <= a} binom(a, k) (D^k c) (D^{a-k} g).

``compose``, ``commutator`` and ``apply_rat`` run it for every operand in one
loop over packed integer terms:

- each operand's numerators are lifted to one shared Z[a, l, m] denominator,
  the lcm of its coefficients', by :func:`~vermabranch.polyring._over_common`,
  once per operand (:func:`_lifted`), so the loop multiplies integers and a
  result's parameter denominator is the product of its operands';
- a right coefficient n/q1^j is differentiated as

      D^k (n q1^-j) = sum_{m <= k} binom(k, m) D^(k-m) n R_{m,j} / q1^(j+|m|),

  with R_{m,j} = q1^(j+|m|) D^m q1^-j a polynomial cached per (vars, m, j),
  zero where m differentiates xn and, for j = 0, everywhere but at m = 0.
  The left term c becomes c R_{m,j} and binom(a, k) binom(k, m) the
  multinomial binom(a, m) binom(a-m, k-m);
- every sub-monomial k <= e of a packed derivative monomial, m and k alike,
  comes with its binomial from one cached table, :func:`_lowerings`; an
  action, which needs only k = e, builds that one row;
- D^k of a term ``c x^g`` is ``prod_i (g_i)_{k_i} c x^(g-k)``, with g - k
  the key less the packed k: a borrow in the top bit of a field
  (:func:`~vermabranch.scalars._layout`) means some g_i < k_i, and the term
  is dropped before any falling factorial is taken.

Products are added per packed output derivative monomial and q1 exponent,
both orders of a commutator with opposite signs into the same sums.  Each
output coefficient is built once, after shedding q1 from the top down in
:func:`~vermabranch.polyring._shed_q1` if its q1 exponent is nonzero, which
the OR of its keys, taken by the overflow test, shows at once; a derivative
monomial whose products all vanish gets none.  Derivative
monomials are packed by :func:`~vermabranch.scalars._pack` and follow its
2^15 rule: an operand or a product whose derivative exponent or degree
reaches 2^15 raises ValueError.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import perm
from operator import or_
from typing import Dict, List, Tuple

from .polyring import (GeoPoly, RatCoeff, VarSet, _new, _over_common, _rat,
                       _same_vars, _shed_q1, curated_factors)
from .scalars import (_FIELD, _OVERFLOW, _PBITS, _W, _checked, _layout,
                      _monomial, _pack, _product, _unpack, ParamPoly, ParamScalar)

DerivMono = Tuple[int, ...]
Lifted = List[Tuple[int, Dict[int, int], int]]
Sums = Dict[int, Dict[int, int]]
# an operator has few distinct derivative monomials, so each is packed once
_dpack, _dunpack = lru_cache(maxsize=None)(_pack), lru_cache(maxsize=None)(_unpack)


@lru_cache(maxsize=None)
def _frame(n: int) -> Tuple[int, int]:
    """The top-bit mask of the packed fields of n geometric variables
    (:func:`_layout`), and the shift of the q1 exponent field just above
    their degree field: the q1 exponent of a product of terms is the sum of
    its factors', as for every other field."""
    _, _, dshift, top = _layout(n, _PBITS)
    return top, dshift + _W


def _lifted(op: "DiffOp") -> Tuple[ParamPoly, Lifted]:
    """The lcm D of the parameter denominators of op's coefficients, and for
    each coefficient num/q1^k at D^e the (packed e, packed numerator over D,
    k), with k in the q1 exponent field of every key; kept in op.lift."""
    if op.lift is None:
        nums, dens, out = [], [], []
        shift = _frame(op.vars.arity)[1]
        for e, c in op.terms.items():
            t, k = c.num.terms, c.k
            if k:
                t = {key + (k << shift): v for key, v in t.items()}
            nums.append(t)
            dens.append(c.num.den)
            out.append((_dpack(e), t, k))
        den, lifted = _over_common(op.vars, nums, dens)
        if lifted is not nums:
            out = [(e, t, k) for (e, _, k), t in zip(out, lifted)]
        op.lift = den, out
    return op.lift


@lru_cache(maxsize=None)
def _r(vars: VarSet, m: int, j: int) -> GeoPoly:
    """R_{m,j} = q1^(j+|m|) D^m q1^-j for the packed derivative monomial m,
    one derive at a time by the quotient rule
    D_i (r / q1^s) = (q1 D_i r - s r D_i q1) / q1^(s+1)."""
    if not m:
        return GeoPoly.const(vars, 1)
    n = vars.arity
    e = _dunpack(m, n)
    if not j or e[-1]:
        return GeoPoly.zero(vars)
    i = max(i for i, mi in enumerate(e) if mi)
    prev = m - _layout(n)[1][i]
    r, q1 = _r(vars, prev, j), curated_factors(vars)["q1"]
    return q1 * r.derive(i) - (r * q1.derive(i)).scale(j + (prev >> _W * n))


def _row(k: DerivMono, binomial: int, n: int) -> tuple:
    """The lowering (k, binomial, fields, drop) of the exponents k in n
    variables: k packed as a derivative monomial, fields the packed field
    shift and order of each variable that k differentiates, and drop the key
    D^k subtracts from a monomial."""
    shifts = _layout(n, _PBITS)[0]
    return (_pack(k), binomial, tuple((s, ki) for s, ki in zip(shifts, k) if ki),
            _pack(k, _PBITS))


@lru_cache(maxsize=None)
def _lowerings(e: int, n: int, whole: bool = False) -> Tuple[tuple, ...]:
    """The :func:`_row` of each k <= e componentwise, k = e last, with
    binomial prod_i binom(e_i, k_i), e a packed derivative monomial in n
    variables: the one table of the sub-monomials of e.  If whole, the row
    k = e alone, binomial 1, which is all an action uses, without the rest."""
    if whole:
        return (_row(_unpack(e, n), 1, n),)
    rows = [((), 1)]
    for ei in reversed(_unpack(e, n)):
        row = [1]
        for k in range(ei):
            row.append(row[-1] * (ei - k) // (k + 1))
        rows = [((k,) + tail, b * c) for tail, c in rows for k, b in enumerate(row)]
    return tuple(_row(k, binomial, n) for k, binomial in rows)


def _lefts(vs: VarSet, ea: int, t1: Dict[int, int], j: int, whole: bool) -> List[tuple]:
    """(ea - m, terms of binom(ea, m) t1 R_{m,j} / q1^|m|, lowerings of
    ea - m, the last alone if whole) for each m <= ea of :func:`_lowerings`
    with R_{m,j} nonzero, for a right coefficient over q1^j, j > 0: an
    operand's or apply_rat's input."""
    (top, shift), n, out = _frame(vs.arity), vs.arity, []
    for m, binomial, _, _ in _lowerings(ea, n):
        r = _r(vs, m, j).terms
        if r:
            rest, dm = ea - m, (m >> _W * n) << shift
            left = {k + dm: binomial * c for k, c in _product(t1, r, top).items()}
            out.append((rest, left.items(), _lowerings(rest, n, whole)))
    return out


def _leibniz_sums(vs: VarSet, a: Lifted, b: Lifted, sign: int, whole: bool,
                  out: Sums) -> Sums:
    """Add sign * binom(ea, m) binom(ea - m, k) * c1 R_{m,j} * D^k(c2 g) into
    out[ea + eb - m - k] for every left term c1 g of a coefficient at ea,
    right term c2 g of a coefficient over q1^j at eb, m <= ea with R_{m,j}
    nonzero (m = 0 alone if j = 0) and k <= ea - m, each k of the table of
    :func:`_lowerings` (its last entry, k = ea - m, alone if whole).
    D^k of a monomial with exponents g is prod_i (g_i)_{k_i} times the
    monomial with g - k, and q1 exponents add in their field of the keys.
    The key of g - k is the right key less k's drop; where some g_i < k_i,
    D^k kills the term, and the subtraction leaves a borrow in that field's
    top bit (as in :func:`~vermabranch.scalars._divide`), so the term is
    skipped before any falling factorial is taken.
    Each field of the packed ea and eb is below 2^15, so ea + eb never carries."""
    n = vs.arity
    top = _frame(n)[0]
    for ea, t1, _ in a:
        lefts = {}
        plain = ((ea, t1.items(), _lowerings(ea, n, whole)),)
        for eb, t2, j in b:
            ms = plain
            if j:
                ms = lefts.get(j) or lefts.setdefault(j, _lefts(vs, ea, t1, j, whole))
            t2 = t2.items()
            for rest, left, subs in ms:
                ab = rest + eb
                for k, binomial, fields, drop in subs:
                    acc = out.setdefault(ab - k, {})
                    get, m = acc.get, sign * binomial
                    for k2, c in t2:
                        k2 -= drop
                        if k2 & top:
                            continue
                        c *= m
                        for s, ki in fields:
                            c *= perm((k2 >> s & _FIELD) + ki, ki)
                        for k1, c1 in left:
                            key = k1 + k2
                            acc[key] = get(key, 0) + c1 * c
    return out


def _coefficients(vs: VarSet, sums: Sums, den: ParamPoly) -> Dict[DerivMono, RatCoeff]:
    """The reduced coefficient num/q1^k over den of each derivative monomial
    of the sums; a monomial whose sum vanishes gets none.  The OR of a sum's
    keys, which :func:`~vermabranch.scalars._checked` tests for overflow,
    has no bit in the q1 field where k = 0; only otherwise is k the q1
    field of the largest key."""
    n = vs.arity
    (top, shift), coeffs = _frame(n), {}
    if reduce(or_, sums, 0) & _layout(n)[3]:
        raise ValueError(_OVERFLOW)
    for e, t in sums.items():
        t, bits = _checked(t, top)
        if k := bits >> shift and max(t) >> shift:
            groups: Dict[int, Dict[int, int]] = {}
            for key, c in t.items():
                groups.setdefault(s := key >> shift, {})[key - (s << shift)] = c
            t, k = _shed_q1(vs, groups, k)
        if t:
            coeffs[_dunpack(e, n)] = _rat(_new(vs, t, den), k)
    return coeffs


def _op(vars: VarSet, terms: Dict[DerivMono, RatCoeff]) -> "DiffOp":
    """The operator of RatCoeff ``terms`` in vars, zero coefficients dropped.
    Every internal result is built here, not by the constructor."""
    op = DiffOp.__new__(DiffOp)
    op.vars, op.terms, op.lift = vars, {e: c for e, c in terms.items() if c.num.terms}, None
    return op


def _unit(vars: VarSet, i: int, order: int = 1) -> DerivMono:
    """The derivative monomial d_i^order in vars."""
    return tuple(order if j == i else 0 for j in range(vars.arity))


class DiffOp:
    """Element of the localized Weyl algebra in normal form.  ``lift`` keeps
    the operand form of the products (:func:`_lifted`), built on first use."""

    __slots__ = ("vars", "terms", "lift")

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
            _same_vars(c.vars, vars)
            if c.num.terms:
                clean[tuple(e)] = c
        self.vars, self.terms, self.lift = vars, clean, None

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

    def __add__(self, other: "DiffOp") -> "DiffOp":
        _same_vars(self.vars, other.vars)
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
        vs = _same_vars(self.vars, other.vars)
        (da, a), (db, b) = _lifted(self), _lifted(other)
        return _op(vs, _coefficients(vs, _leibniz_sums(vs, a, b, 1, False, {}), da * db))

    def __matmul__(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        """self o other - other o self, both orders summed per coefficient."""
        vs = _same_vars(self.vars, other.vars)
        (da, a), (db, b) = _lifted(self), _lifted(other)
        sums = _leibniz_sums(vs, b, a, -1, False, _leibniz_sums(vs, a, b, 1, False, {}))
        return _op(vs, _coefficients(vs, sums, da * db))

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

    def apply_rat(self, p: GeoPoly | RatCoeff) -> RatCoeff:
        """Exact action on a polynomial or a localized coefficient num/q1^j,
        which enters as one right coefficient over q1^j, written as by
        :func:`_lifted`; the result keeps a power of q1 where one remains."""
        vs = _same_vars(self.vars, p.vars)
        den, a = _lifted(self)
        p, j = (p.num, p.k) if isinstance(p, RatCoeff) else (p, 0)
        t = {key + (j << _frame(vs.arity)[1]): c for key, c in p.terms.items()} if j else p.terms
        sums = _leibniz_sums(vs, a, [(0, t, j)], 1, True, {})
        return _coefficients(vs, sums, den * p.den).get((0,) * vs.arity) or RatCoeff.zero(vs)

    def apply(self, p: GeoPoly) -> GeoPoly:
        """Action on a polynomial, demanding a polynomial result."""
        return self.apply_rat(p).as_poly()

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            dmono = _monomial(self.vars.names, e, "D[{}]")
            cs = self.terms[e].render()
            if dmono and cs == "1":
                parts.append(dmono)
            else:
                parts.append(f"({cs}) {dmono}" if dmono else f"({cs})")
        return " + ".join(parts) or "0"

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
