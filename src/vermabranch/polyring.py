"""Sparse multivariate polynomials in the geometric variables, and their
localization at the curated denominator set.

Variable sets are small and fixed by the two scenarios: ``x1..xn`` for the
orthogonal pair, ``xi, eta`` for the diagonal pair, and the one-variable lines
``t`` and ``x`` for the inhomogeneous models.  Coefficients live in the exact
parameter field (:class:`~vermabranch.scalars.ParamScalar`).

Monomials are ordered graded-lexicographically with the distinguished variable
(the last one) least significant, which keeps rendered output stable for the
golden files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from .scalars import ParamScalar, _mono_key

Expts = Tuple[int, ...]


@dataclass(frozen=True)
class VarSet:
    kind: str
    names: Tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


def xi_vars(n: int) -> VarSet:
    if n < 2:
        raise ValueError("the orthogonal-pair scenario needs n >= 2")
    return VarSet("xi", tuple(f"x{i}" for i in range(1, n + 1)))


def xi_eta_vars() -> VarSet:
    return VarSet("xi_eta", ("xi", "eta"))


def xy_vars() -> VarSet:
    return VarSet("xy", ("x", "y"))


def t_var() -> VarSet:
    return VarSet("t", ("t",))


def x_var() -> VarSet:
    return VarSet("x", ("x",))


class GeoPoly:
    """Sparse polynomial in geometric variables over the parameter field."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarSet, terms: Mapping[Expts, ParamScalar] | None = None):
        """Trusts ``terms`` to map exponent tuples of the right arity to
        ParamScalars, and only drops the zero coefficients; data from
        elsewhere goes through :meth:`from_terms`."""
        self.vars = vars
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()} if terms else {}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_terms(vars: VarSet, terms: Mapping[Expts, object]) -> "GeoPoly":
        """The validating constructor: coerces int, Fraction and ParamPoly
        coefficients and rejects exponents of the wrong arity or sign."""
        clean: Dict[Expts, ParamScalar] = {}
        for e, c in terms.items():
            if len(e) != vars.arity:
                raise ValueError("exponent arity mismatch")
            if min(e) < 0:
                raise ValueError("negative exponent")
            clean[tuple(e)] = ParamScalar.coerce(c)
        return GeoPoly(vars, clean)

    @staticmethod
    def const(vars: VarSet, c) -> "GeoPoly":
        return GeoPoly(vars, {(0,) * vars.arity: ParamScalar.coerce(c)})

    @staticmethod
    def var(vars: VarSet, name: str, power: int = 1) -> "GeoPoly":
        e = [0] * vars.arity
        e[vars.index(name)] = power
        return GeoPoly.from_terms(vars, {tuple(e): 1})

    @staticmethod
    def zero(vars: VarSet) -> "GeoPoly":
        return GeoPoly(vars)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, e: Expts) -> ParamScalar:
        return self.terms.get(tuple(e), ParamScalar.const(0))

    def leading(self) -> Tuple[Expts, ParamScalar]:
        e = max(self.terms, key=_mono_key)
        return e, self.terms[e]

    def _check(self, other: "GeoPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable-set mismatch: {self.vars} vs {other.vars}")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "GeoPoly") -> "GeoPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return GeoPoly(self.vars, out)

    def __neg__(self) -> "GeoPoly":
        return GeoPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "GeoPoly") -> "GeoPoly":
        return self + (-other)

    def __mul__(self, other: "GeoPoly") -> "GeoPoly":
        self._check(other)
        out: Dict[Expts, ParamScalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                p = c1 * c2
                s = out.get(e)
                out[e] = p if s is None else s + p
        return GeoPoly(self.vars, out)

    def __pow__(self, k: int) -> "GeoPoly":
        if k < 0:
            raise ValueError("negative power")
        out = GeoPoly.const(self.vars, 1)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c) -> "GeoPoly":
        c = ParamScalar.coerce(c)
        return GeoPoly(self.vars, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GeoPoly) and self.vars == other.vars and self.terms == other.terms

    # -- calculus and substitution ----------------------------------------

    def derive(self, var: str | int) -> "GeoPoly":
        i = var if isinstance(var, int) else self.vars.index(var)
        out: Dict[Expts, ParamScalar] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        return GeoPoly(self.vars, out)

    def exact_divide(self, divisor: "GeoPoly") -> Optional["GeoPoly"]:
        """Quotient self/divisor when the division is exact, else None."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return GeoPoly.zero(self.vars)
        rem = dict(self.terms)
        quot: Dict[Expts, ParamScalar] = {}
        de, dc = divisor.leading()
        while rem:
            e = max(rem, key=_mono_key)
            q = tuple(a - b for a, b in zip(e, de))
            if min(q) < 0:
                return None
            c = rem[e] / dc
            s = quot.get(q)
            quot[q] = c if s is None else s + c
            for e2, c2 in divisor.terms.items():
                t = tuple(a + b for a, b in zip(q, e2))
                s = rem.get(t)
                s = -(c * c2) if s is None else s - c * c2
                if s.is_zero():
                    rem.pop(t, None)
                else:
                    rem[t] = s
        return GeoPoly(self.vars, quot)

    def substitute_var(self, var: str, image: "GeoPoly") -> "GeoPoly":
        """Substitute one variable by a polynomial in the image's variables;
        the remaining variables must not occur."""
        i = self.vars.index(var)
        for e in self.terms:
            for j, ej in enumerate(e):
                if j != i and ej:
                    raise ValueError("substitute_var needs a univariate polynomial")
        out = GeoPoly.zero(image.vars)
        for e, c in self.terms.items():
            out = out + (image ** e[i]).scale(c)
        return out

    def substitute_params(self, bindings) -> "GeoPoly":
        return GeoPoly(self.vars, {e: c.substitute(bindings) for e, c in self.terms.items()})

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_mono_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                self.vars.names[i] + (f"^{e[i]}" if e[i] > 1 else "")
                for i in range(len(e))
                if e[i]
            )
            cs = c.render()
            if mono:
                if cs == "1":
                    body = mono
                elif cs == "-1":
                    body = f"-{mono}"
                elif _is_simple(cs):
                    body = f"{cs}*{mono}"
                else:
                    body = f"({cs})*{mono}"
            else:
                body = cs if _is_simple(cs) else f"({cs})"
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append("- " + body[1:])
            else:
                parts.append("+ " + body)
        return " ".join(parts)

    def __repr__(self):
        return f"GeoPoly({self.render()})"


def _is_simple(s: str) -> bool:
    return " " not in s and "/" not in s


# ---------------------------------------------------------------------------
# curated denominator factors and the localized coefficient ring
# ---------------------------------------------------------------------------

def quadratic_sum(vars: VarSet, upto: int) -> GeoPoly:
    """x1^2 + ... + x_upto^2 in the given variable set."""
    out = GeoPoly.zero(vars)
    for i in range(upto):
        e = [0] * vars.arity
        e[i] = 2
        out = out + GeoPoly.from_terms(vars, {tuple(e): 1})
    return out


_CURATED: Dict[VarSet, Mapping[str, GeoPoly]] = {}


def curated_factors(vars: VarSet) -> Mapping[str, GeoPoly]:
    """The only polynomials ever allowed in denominators, per variable set.

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
        elif vars.kind == "xi_eta":
            d = {"eta": GeoPoly.var(vars, "eta")}
        elif vars.kind == "t":
            d = {"t": GeoPoly.var(vars, "t")}
        else:
            d = {}
        facs = _CURATED[vars] = MappingProxyType(d)
    return facs


def per_context(build):
    """Memoize ``build(ctx, *args)`` in the context's instance dict, keyed by
    the function name and the positional arguments.

    The context's dataclass fields, equality and repr are untouched.  A build
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


class RatCoeff:
    """Quotient of a GeoPoly by a product of curated factors.

    The denominator is kept factored as a multiset over the curated keys;
    construction reduces the numerator against each factor by trial exact
    division, so a RatCoeff with an empty denominator *is* a polynomial.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: GeoPoly, den: Mapping[str, int] | None = None):
        if not den:
            self.num, self.den = num, {}
            return
        allowed = curated_factors(num.vars)
        d: Dict[str, int] = {}
        for k, e in den.items():
            if k not in allowed:
                raise ValueError(f"{k!r} is not a curated denominator factor for {num.vars.kind}")
            if e < 0:
                raise ValueError("negative denominator exponent")
            if e:
                d[k] = d.get(k, 0) + e
        # reduce numerator against the denominator factors
        if not num.is_zero():
            for k in list(d):
                f = allowed[k]
                while d.get(k, 0) > 0:
                    q = num.exact_divide(f)
                    if q is None:
                        break
                    num = q
                    d[k] -= 1
                if d.get(k) == 0:
                    del d[k]
        else:
            d = {}
        self.num = num
        self.den = d

    @property
    def vars(self) -> VarSet:
        return self.num.vars

    @staticmethod
    def zero(vars: VarSet) -> "RatCoeff":
        return RatCoeff(GeoPoly.zero(vars))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return not self.den

    def as_poly(self) -> GeoPoly:
        if self.den:
            raise ValueError(f"not a polynomial: denominator {self.den} remains on {self.num.render()}")
        return self.num

    def den_poly(self) -> GeoPoly:
        out = GeoPoly.const(self.vars, 1)
        facs = curated_factors(self.vars)
        for k, e in self.den.items():
            out = out * facs[k] ** e
        return out

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "RatCoeff") -> "RatCoeff":
        if self.vars != other.vars:
            raise ValueError("variable-set mismatch")
        if not self.den and not other.den:
            return RatCoeff(self.num + other.num)
        facs = curated_factors(self.vars)
        den = dict(self.den)
        for k, e in other.den.items():
            den[k] = max(den.get(k, 0), e)
        ln = self.num
        rn = other.num
        for k, e in den.items():
            if e > self.den.get(k, 0):
                ln = ln * facs[k] ** (e - self.den.get(k, 0))
            if e > other.den.get(k, 0):
                rn = rn * facs[k] ** (e - other.den.get(k, 0))
        return RatCoeff(ln + rn, den)

    def __neg__(self) -> "RatCoeff":
        return RatCoeff(-self.num, self.den)

    def __sub__(self, other: "RatCoeff") -> "RatCoeff":
        return self + (-other)

    def __mul__(self, other: "RatCoeff") -> "RatCoeff":
        if self.vars != other.vars:
            raise ValueError("variable-set mismatch")
        den = dict(self.den)
        for k, e in other.den.items():
            den[k] = den.get(k, 0) + e
        return RatCoeff(self.num * other.num, den)

    def mul_poly(self, p: GeoPoly) -> "RatCoeff":
        return RatCoeff(self.num * p, self.den)

    def scale(self, c) -> "RatCoeff":
        return RatCoeff(self.num.scale(c), self.den)

    def derive(self, var: str | int) -> "RatCoeff":
        """d/dvar by the quotient rule over the factored denominator."""
        i = var if isinstance(var, int) else self.vars.index(var)
        facs = curated_factors(self.vars)
        out = RatCoeff(self.num.derive(i), self.den)
        for k, e in self.den.items():
            fk = facs[k]
            dfk = fk.derive(i)
            if dfk.is_zero():
                continue
            den = dict(self.den)
            den[k] = e + 1
            out = out + RatCoeff(self.num * dfk, den).scale(-e)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatCoeff):
            return NotImplemented
        return (self.num * other.den_poly()) == (other.num * self.den_poly())

    def render(self) -> str:
        if not self.den:
            return self.num.render()
        facs = " * ".join(
            f"{k}" + (f"^{e}" if e > 1 else "")
            for k, e in sorted(self.den.items())
        )
        return f"({self.num.render()}) / [{facs}]"

    def __repr__(self):
        return f"RatCoeff({self.render()})"


# ---------------------------------------------------------------------------
# homogenization machinery for the xi/eta model
# ---------------------------------------------------------------------------

def homogenize(q: GeoPoly, l: int, target: VarSet | None = None) -> GeoPoly:
    """eta^l * Q(xi/eta) for a polynomial Q(t) of degree <= l."""
    if target is None:
        target = xi_eta_vars()
    if q.vars.arity != 1:
        raise ValueError("homogenize expects a univariate polynomial")
    if q.degree() > l:
        raise ValueError(f"degree {q.degree()} exceeds homogeneity {l}")
    out: Dict[Expts, ParamScalar] = {}
    for e, c in q.terms.items():
        k = e[0]
        out[(k, l - k)] = c
    return GeoPoly.from_terms(target, out)


def dehomogenize(p: GeoPoly, l: int) -> GeoPoly:
    """Inverse of :func:`homogenize` on homogeneous degree-l polynomials."""
    tv = t_var()
    out: Dict[Expts, ParamScalar] = {}
    for e, c in p.terms.items():
        if sum(e) != l:
            raise ValueError("input is not homogeneous of the stated degree")
        out[(e[0],)] = c
    return GeoPoly.from_terms(tv, out)


def substitute_linear(p: GeoPoly, a, b) -> GeoPoly:
    """Compose a univariate polynomial with the affine image a*t + b."""
    tv = t_var()
    image = GeoPoly.from_terms(tv, {(1,): a, (0,): b})
    return p.substitute_var(p.vars.names[0], image)


def gegen_tilde_convert(c: GeoPoly, l: int | None = None) -> GeoPoly:
    """Rewrite x^{-l} C(x), C of degree l with the parity of l, as a
    polynomial in t via x^2 = -1/t: the x^{l-2k} coefficient lands on (-t)^k.
    """
    if c.vars.arity != 1:
        raise ValueError("expected a univariate polynomial")
    if l is None:
        l = c.degree()
    tv = t_var()
    out: Dict[Expts, ParamScalar] = {}
    for e, coeff in c.terms.items():
        if (l - e[0]) % 2:
            raise ValueError(f"parity violation: degree-{e[0]} term in a degree-{l} polynomial")
        k = (l - e[0]) // 2
        out[(k,)] = coeff * ((-1) ** k)
    return GeoPoly.from_terms(tv, out)
