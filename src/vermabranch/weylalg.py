"""Normal-ordered differential operators with polynomial coefficients.

A :class:`DiffOp` is a finite sum of terms ``coefficient * D^e`` where the
coefficient is a :class:`~vermabranch.polyring.GeoPoly` and ``D^e`` a
derivative monomial.  An operator is written as its normal-form terms,
``DiffOp(vars, {e: c, ...})``, the one constructor, which checks and coerces
them; results of the algebra skip that check.  Composition is used only for
operators the paper states as compositions.

All coefficients stand to the left of all derivatives; composition
re-establishes that normal form via the Leibniz rule

    D^a (c g) = sum_{k <= a} binom(a, k) (D^k c) (D^{a-k} g).

``compose`` and ``commutator`` run it term by term in one loop over packed
integer terms (:func:`_leibniz_sums`); the action ``apply_rat`` runs its own
loop over the geometric rows of its input:

- each operand's numerators are lifted to one shared Z[a, l, m] denominator,
  the lcm of its coefficients', by :func:`~vermabranch.polyring._over_common`,
  once per operand (:func:`_lifted`), so the loops multiply integers and a
  result's parameter denominator is the product of its operands';
- every sub-monomial k <= a of a packed derivative monomial comes with its
  binomial from one cached table, :func:`_lowerings`; an action, which
  needs only k = a, builds that one row;
- D^k of a term ``c x^g`` is ``prod_i (g_i)_{k_i} c x^(g-k)``, with g - k
  the key less the packed k: a borrow in the top bit of a field
  (:func:`~vermabranch.packed.layout`) means some g_i < k_i, and the term
  is dropped before any falling factorial is taken;
- the action groups its input's terms once by geometric monomial g, the
  recursive view of a sparse polynomial (Monagan and Pearce 2011), and takes
  the borrow test and the falling factorial once per row, however many
  parameter terms the coefficient of x^g has: at formal weights the
  diagonal pair's vectors carry dozens on each x^g, while the operands of a
  composition rarely carry more than one, so compose stays term by term.

Products are added per packed output derivative monomial, both orders of a
commutator with opposite signs into the same sums, and each output
coefficient is built once; a derivative monomial whose products all vanish
gets none.  Derivative monomials are packed by
:func:`~vermabranch.packed.pack` and follow its 2^15 rule: an operand or a
product, of either loop, whose derivative exponent or degree reaches 2^15
raises ValueError.
"""

from __future__ import annotations

from functools import lru_cache
from math import perm
from numbers import Rational
from typing import Dict, List, Tuple

from .polyring import GeoPoly, VarSet, _new, _over_common, _same_vars
from .packed import FIELD, PBITS, PMASK, checked, layout, pack, unpack
from .scalars import _monomial, ParamPoly, ParamScalar

DerivMono = Tuple[int, ...]
Lifted = List[Tuple[int, Dict[int, int]]]
Sums = Dict[int, Dict[int, int]]
# an operator has few distinct derivative monomials, so each is packed once
_dpack, _dunpack = lru_cache(maxsize=None)(pack), lru_cache(maxsize=None)(unpack)


def _lifted(op: "DiffOp") -> Tuple[ParamPoly, Lifted]:
    """The lcm D of the parameter denominators of op's coefficients, and for
    each coefficient at D^e the (packed e, packed numerator over D); kept in
    op.lift."""
    if op.lift is None:
        den, nums = _over_common(op.vars, [c.terms for c in op.terms.values()],
                                 [c.den for c in op.terms.values()])
        op.lift = den, list(zip(map(_dpack, op.terms), nums))
    return op.lift


def _row(k: DerivMono, binomial: int, n: int) -> tuple:
    """The lowering (k, binomial, fields, drop) of the exponents k in n
    variables: k packed as a derivative monomial, fields the packed field
    shift and order of each variable that k differentiates, and drop the key
    D^k subtracts from a monomial."""
    shifts = layout(n, PBITS)[0]
    return (pack(k), binomial, tuple((s, ki) for s, ki in zip(shifts, k) if ki),
            pack(k, PBITS))


@lru_cache(maxsize=None)
def _lowerings(e: int, n: int, whole: bool = False) -> Tuple[tuple, ...]:
    """The :func:`_row` of each k <= e componentwise, k = e last, with
    binomial prod_i binom(e_i, k_i), e a packed derivative monomial in n
    variables: the one table of the sub-monomials of e.  If whole, the row
    k = e alone, binomial 1, which is all an action uses, without the rest."""
    if whole:
        return (_row(unpack(e, n), 1, n),)
    rows = [((), 1)]
    for ei in reversed(unpack(e, n)):
        row = [1]
        for k in range(ei):
            row.append(row[-1] * (ei - k) // (k + 1))
        rows = [((k,) + tail, b * c) for tail, c in rows for k, b in enumerate(row)]
    return tuple(_row(k, binomial, n) for k, binomial in rows)


def _leibniz_sums(vs: VarSet, a: Lifted, b: Lifted, sign: int, out: Sums) -> Sums:
    """Add sign * binom(ea, k) * c1 * D^k(c2 g) into out[ea + eb - k] for
    every left term c1 g of a coefficient at ea, right term c2 g of a
    coefficient at eb and k <= ea, each k of the table of :func:`_lowerings`.
    D^k of a monomial with exponents g is prod_i (g_i)_{k_i} times the
    monomial with g - k, whose key is the right key less k's drop; where
    some g_i < k_i, D^k kills the term, and the subtraction leaves a borrow
    in that field's top bit (as in :func:`~vermabranch.packed.divide`), so
    the term is skipped before any falling factorial is taken.
    Each field of the packed ea and eb is below 2^15, so ea + eb never carries."""
    n = vs.arity
    top = layout(n, PBITS)[3]
    for ea, t1 in a:
        left, subs = t1.items(), _lowerings(ea, n)
        for eb, t2 in b:
            ab, t2 = ea + eb, t2.items()
            for k, binomial, fields, drop in subs:
                acc = out.setdefault(ab - k, {})
                get, m = acc.get, sign * binomial
                for k2, c in t2:
                    k2 -= drop
                    if k2 & top:
                        continue
                    c *= m
                    for s, ki in fields:
                        c *= perm((k2 >> s & FIELD) + ki, ki)
                    for k1, c1 in left:
                        key = k1 + k2
                        acc[key] = get(key, 0) + c1 * c
    return out


def _coefficients(vs: VarSet, sums: Sums, den: ParamPoly) -> Dict[DerivMono, GeoPoly]:
    """The coefficient over den of each derivative monomial of the sums; a
    monomial whose sum vanishes gets none."""
    n = vs.arity
    top, coeffs = layout(n, PBITS)[3], {}
    for e, t in checked(sums, layout(n)[3]).items():
        t = checked(t, top)
        if t:
            coeffs[_dunpack(e, n)] = _new(vs, t, den)
    return coeffs


def _op(vars: VarSet, terms: Dict[DerivMono, GeoPoly]) -> "DiffOp":
    """The operator of GeoPoly ``terms`` in vars, zero coefficients dropped.
    Every internal result is built here, not by the constructor."""
    op = DiffOp.__new__(DiffOp)
    op.vars, op.terms, op.lift = vars, {e: c for e, c in terms.items() if c.terms}, None
    return op


def _unit(vars: VarSet, i: int, order: int = 1) -> DerivMono:
    """The derivative monomial d_i^order in vars."""
    return tuple(order if j == i else 0 for j in range(vars.arity))


class DiffOp:
    """Element of the Weyl algebra in normal form.  ``lift`` keeps the
    operand form of the products (:func:`_lifted`), built on first use."""

    __slots__ = ("vars", "terms", "lift")

    def __init__(self, vars: VarSet, terms: Dict[DerivMono, object] | None = None):
        """The operator sum c * D^e over ``terms``: e a tuple of arity(vars)
        nonnegative ints, c a GeoPoly in vars or a Q(a, l, m) scalar (int,
        Fraction, ParamPoly or ParamScalar); any other c raises TypeError.
        Zero coefficients are dropped."""
        clean: Dict[DerivMono, GeoPoly] = {}
        for e, c in (terms or {}).items():
            if len(e) != vars.arity:
                raise ValueError("derivative exponent arity mismatch")
            if min(e, default=0) < 0:
                raise ValueError("negative derivative exponent")
            if not isinstance(c, GeoPoly):
                if not isinstance(c, (Rational, ParamPoly, ParamScalar)):
                    raise TypeError(f"an operator coefficient is a GeoPoly or a scalar, "
                                    f"not {type(c).__name__}")
                c = GeoPoly.const(vars, c)
            _same_vars(c.vars, vars)
            if c.terms:
                clean[tuple(e)] = c
        self.vars, self.terms, self.lift = vars, clean, None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def scalar(vars: VarSet, c) -> "DiffOp":
        return DiffOp(vars, {(0,) * vars.arity: c})

    @staticmethod
    def mult(c: GeoPoly) -> "DiffOp":
        """Multiplication by a polynomial."""
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
        return _op(vs, _coefficients(vs, _leibniz_sums(vs, a, b, 1, {}), da * db))

    def __matmul__(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        """self o other - other o self, both orders summed per coefficient."""
        vs = _same_vars(self.vars, other.vars)
        (da, a), (db, b) = _lifted(self), _lifted(other)
        sums = _leibniz_sums(vs, b, a, -1, _leibniz_sums(vs, a, b, 1, {}))
        return _op(vs, _coefficients(vs, sums, da * db))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        # zero coefficients are dropped and GeoPoly equality compares values
        return self.vars == other.vars and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        """Highest total derivative order; -1 for the zero operator."""
        return max((sum(e) for e in self.terms), default=-1)

    # -- action -----------------------------------------------------------

    def apply_rat(self, p: GeoPoly) -> GeoPoly:
        """The action on a polynomial, run over the geometric rows of p: its
        terms are grouped once by geometric monomial x^g, each row holding the
        packed parameter terms of the coefficient of x^g.  A coefficient of
        self at D^e takes the one row k = e of :func:`_lowerings`.  A row
        whose key less e's drop borrows is killed, as in :func:`_leibniz_sums`;
        any other takes prod_i (g_i)_{e_i} once, however many parameter terms
        it holds.  All products add into one sum at D^0, finished by
        :func:`_coefficients` with the 2^15 check and normal form of compose.
        perfbench's tracer counts and times every action under this name
        (``weylalg.apply``, ``weylalg.apply_s``), so :meth:`apply` calls it;
        ROADMAP item 8 can merge the two names."""
        vs = _same_vars(self.vars, p.vars)
        den, a = _lifted(self)
        n = vs.arity
        top, rows, acc = layout(n, PBITS)[3], {}, {}
        for key, c in p.terms.items():
            k2 = key & PMASK
            rows.setdefault(key - k2, []).append((k2, c))
        get = acc.get
        for ea, t1 in a:
            left, (_, _, fields, drop) = t1.items(), _lowerings(ea, n, True)[0]
            for g, row in rows.items():
                g -= drop
                if g & top:
                    continue
                f = 1
                for s, ki in fields:
                    f *= perm((g >> s & FIELD) + ki, ki)
                for k1, c1 in left:
                    k1 += g
                    c1 *= f
                    for k2, c in row:
                        key = k1 + k2
                        acc[key] = get(key, 0) + c1 * c
        return _coefficients(vs, {0: acc}, den * p.den).get((0,) * n) or GeoPoly.zero(vs)

    def apply(self, p: GeoPoly) -> GeoPoly:
        """The action on a polynomial, by :meth:`apply_rat`."""
        return self.apply_rat(p)

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
