"""Normal-ordered differential operators with localized coefficients.

A :class:`DiffOp` is a finite sum of terms ``coefficient * D^e`` where the
coefficient is a :class:`~vermabranch.polyring.RatCoeff` and ``D^e`` a
derivative monomial.  All coefficients stand to the left of all derivatives;
composition re-establishes that normal form via the Leibniz rule

    D^a (c g) = sum_{k <= a} binom(a, k) (D^k c) (D^{a-k} g),

which works verbatim for localized coefficients since RatCoeff knows its own
quotient-rule derivative.
"""

from __future__ import annotations

from math import comb
from typing import Dict, Tuple

from .polyring import GeoPoly, RatCoeff, VarSet
from .scalars import ParamScalar

DerivMono = Tuple[int, ...]


def _iter_sub(e: DerivMono):
    """All k with 0 <= k <= e componentwise, with the product of binomials."""
    if not e:
        yield (), 1
        return
    head, rest = e[0], e[1:]
    for tail, c in _iter_sub(rest):
        for k in range(head + 1):
            yield (k,) + tail, comb(head, k) * c


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


class DiffOp:
    """Element of the localized Weyl algebra in normal form."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarSet, terms: Dict[DerivMono, RatCoeff] | None = None):
        clean: Dict[DerivMono, RatCoeff] = {}
        for e, c in (terms or {}).items():
            if not c.is_zero():
                clean[tuple(e)] = c
        self.vars = vars
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(vars: VarSet) -> "DiffOp":
        return DiffOp(vars)

    @staticmethod
    def identity(vars: VarSet) -> "DiffOp":
        return DiffOp.scalar(vars, 1)

    @staticmethod
    def scalar(vars: VarSet, c) -> "DiffOp":
        e0 = (0,) * vars.arity
        return DiffOp(vars, {e0: RatCoeff(GeoPoly.const(vars, c))})

    @staticmethod
    def mult(p: GeoPoly) -> "DiffOp":
        e0 = (0,) * p.vars.arity
        return DiffOp(p.vars, {e0: RatCoeff(p)})

    @staticmethod
    def mult_rat(c: RatCoeff) -> "DiffOp":
        e0 = (0,) * c.vars.arity
        return DiffOp(c.vars, {e0: c})

    @staticmethod
    def partial(vars: VarSet, var: str | int, order: int = 1) -> "DiffOp":
        i = var if isinstance(var, int) else vars.index(var)
        e = [0] * vars.arity
        e[i] = order
        return DiffOp(vars, {tuple(e): RatCoeff(GeoPoly.const(vars, 1))})

    @staticmethod
    def euler(vars: VarSet) -> "DiffOp":
        """sum_i x_i d/dx_i"""
        out = DiffOp.zero(vars)
        for i, name in enumerate(vars.names):
            e = [0] * vars.arity
            e[i] = 1
            out = out + DiffOp(vars, {tuple(e): RatCoeff(GeoPoly.var(vars, name))})
        return out

    @staticmethod
    def laplacian(vars: VarSet) -> "DiffOp":
        """sum_i d^2/dx_i^2"""
        out = DiffOp.zero(vars)
        for i in range(vars.arity):
            out = out + DiffOp.partial(vars, i, 2)
        return out

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
        return DiffOp(self.vars, out)

    def __neg__(self) -> "DiffOp":
        return DiffOp(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def scale(self, c) -> "DiffOp":
        return DiffOp(self.vars, {e: v.scale(c) for e, v in self.terms.items()})

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Normal-ordered product self o other."""
        self._check(other)
        derivs = [(eb, _Derivatives(cb)) for eb, cb in other.terms.items()]
        acc: Dict[DerivMono, RatCoeff] = {}
        for ea, ca in self.terms.items():
            for eb, dcb in derivs:
                # push D^ea through cb
                for k, binomial in _iter_sub(ea):
                    dc = dcb[k]
                    if dc.is_zero():
                        continue
                    e = tuple(a - ki + b for a, ki, b in zip(ea, k, eb))
                    coeff = ca * dc
                    if binomial != 1:
                        coeff = coeff.scale(binomial)
                    s = acc.get(e)
                    s = coeff if s is None else s + coeff
                    # a cancelled monomial leaves the order; a later product
                    # on it is appended afresh
                    if s.is_zero():
                        del acc[e]
                    else:
                        acc[e] = s
        return DiffOp(self.vars, acc)

    def __matmul__(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other) - other.compose(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.vars != other.vars:
            return False
        keys = set(self.terms) | set(other.terms)
        z = RatCoeff.zero(self.vars)
        return all(self.terms.get(e, z) == other.terms.get(e, z) for e in keys)

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        """Highest total derivative order; -1 for the zero operator."""
        return max((sum(e) for e in self.terms), default=-1)

    # -- action -----------------------------------------------------------

    def apply_rat(self, p: GeoPoly) -> RatCoeff:
        """Exact action on a polynomial; the result may keep a curated
        denominator when a localized coefficient fails to divide out."""
        if self.vars != p.vars:
            raise ValueError("variable-set mismatch")
        dp = _Derivatives(p)
        out = RatCoeff.zero(self.vars)
        for e, c in self.terms.items():
            if not dp[e].is_zero():
                out = out + c.mul_poly(dp[e])
        return out

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
