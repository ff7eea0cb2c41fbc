"""Exact coefficient field: rational functions in the formal parameters a, l, m.

There is no floating point anywhere.  The three parameter symbols are rendered
``a``, ``l``, ``m`` (for the spectral parameter, and the two inducing
characters).  A :class:`ParamPoly` is a sparse polynomial with Python ``int``
coefficients, and a :class:`ParamScalar` is a quotient ``num/den`` of two of
them, so the arithmetic path builds no ``fractions.Fraction``: rationals
appear only at the boundary (``ParamScalar.const``, ``rational_value`` and
``render``).

Canonical form: the denominator has a positive leading coefficient, and the
integer content of numerator and denominator together is 1.  Common linear
factors ``s + k/2`` (s a symbol both sides use, k in -40..40) are cancelled by
the factor theorem: ``s + k/2`` divides ``P`` exactly when ``P`` vanishes
identically at ``s = -k/2``, which is tested by integer evaluation of the
denominator and then the numerator.  Only on a hit are both divided, by the
primitive factor ``2s + k`` (odd k) or ``s + k/2`` (even k); Gauss's lemma
keeps the quotients integral.  Other common factors are not cancelled, so
equality never relies on the reduction: it is decided by cross-multiplication.
``render`` divides both sides by the content of the denominator and so prints
a primitive denominator with positive leading coefficient over a numerator
with rational coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Mapping, Sequence, Tuple, Union

Exponents = Tuple[int, int, int]
RationalLike = Union[int, Fraction]

SYMBOLS = ("a", "l", "m")

_CONST: Exponents = (0, 0, 0)

# k for the linear factors s + k/2 cancelled during quotient reduction
_FACTOR_HALF_RANGE = range(-40, 41)


def _mono_key(e: Exponents):
    # graded lexicographic, largest first
    return (sum(e), e)


class ParamPoly:
    """Sparse polynomial in the parameters a, l, m over the integers.

    ``terms`` maps exponent triples to nonzero ints.  The constructor keeps the
    mapping it is given, so it must be clean and is not mutated afterwards.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Exponents, int] | None = None):
        self.terms = {} if terms is None else terms

    @staticmethod
    def const(c: int) -> "ParamPoly":
        return ParamPoly({_CONST: c} if c else {})

    @staticmethod
    def symbol(name: str) -> "ParamPoly":
        e = [0, 0, 0]
        e[SYMBOLS.index(name)] = 1
        return ParamPoly({tuple(e): 1})

    def is_constant(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and _CONST in t)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get(_CONST, 0)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return ParamPoly(out)

    def __neg__(self) -> "ParamPoly":
        return ParamPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        a, b = self.terms, other.terms
        if len(b) == 1 and _CONST in b:
            p, c = self, b[_CONST]
        elif len(a) == 1 and _CONST in a:
            p, c = other, a[_CONST]
        else:
            out: Dict[Exponents, int] = {}
            get = out.get
            for (x0, x1, x2), c1 in a.items():
                for (y0, y1, y2), c2 in b.items():
                    e = (x0 + y0, x1 + y1, x2 + y2)
                    out[e] = get(e, 0) + c1 * c2
            return ParamPoly({e: c for e, c in out.items() if c})
        return p if c == 1 else ParamPoly({e: c * v for e, v in p.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParamPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def exact_divide(self, divisor: "ParamPoly") -> "ParamPoly | None":
        """Quotient self/divisor in Z[a, l, m] if the division is exact, else None."""
        if not divisor.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.terms)
        quot: Dict[Exponents, int] = {}
        de = max(divisor.terms, key=_mono_key)
        dc = divisor.terms[de]
        while rem:
            e = max(rem, key=_mono_key)
            q = (e[0] - de[0], e[1] - de[1], e[2] - de[2])
            if min(q) < 0:
                return None
            c, r = divmod(rem[e], dc)
            if r:
                return None
            quot[q] = c
            for e2, c2 in divisor.terms.items():
                t = (q[0] + e2[0], q[1] + e2[1], q[2] + e2[2])
                s = rem.get(t, 0) - c * c2
                if s:
                    rem[t] = s
                else:
                    del rem[t]
        return ParamPoly(quot)

    # -- rendering --------------------------------------------------------

    def render(self, div: int = 1) -> str:
        """The polynomial with every coefficient divided by ``div``."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_mono_key, reverse=True):
            c = self.terms[e] if div == 1 else Fraction(self.terms[e], div)
            mono = "*".join(
                f"{SYMBOLS[i]}" + (f"^{e[i]}" if e[i] > 1 else "")
                for i in range(3)
                if e[i]
            )
            ac = abs(c)
            if mono:
                body = mono if ac == 1 else f"{ac}*{mono}"
            else:
                body = str(ac)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"ParamPoly({self.render()})"


_ZERO = ParamPoly()
_ONE = ParamPoly.const(1)


def _half_roots(p: ParamPoly, i: int, ks: Sequence[int] = _FACTOR_HALF_RANGE) -> List[int]:
    """The k in ks at which p vanishes identically at symbol i = -k/2.

    Each is a k with ``s + k/2`` dividing p (the factor theorem).  The test is
    exact integer evaluation of ``2^d p(-k/2)`` (d the degree of p in s), one
    Horner row per monomial in the other two symbols.
    """
    d = max(e[i] for e in p.terms)
    rows: Dict[Exponents, List[int]] = {}
    for e, c in p.terms.items():
        rest = e[:i] + (0,) + e[i + 1:]
        row = rows.get(rest)
        if row is None:
            row = rows[rest] = [0] * (d + 1)
        row[d - e[i]] = c << (d - e[i])
    found = []
    for k in ks:
        for row in rows.values():
            acc = 0
            for c in row:
                acc = acc * -k + c
            if acc:
                break
        else:
            found.append(k)
    return found


def _linear_factor(i: int, k: int) -> ParamPoly:
    """The primitive integer form of s + k/2: 2s + k for odd k, s + k/2 for even k."""
    e = [0, 0, 0]
    e[i] = 1
    if k % 2:
        return ParamPoly({tuple(e): 2, _CONST: k})
    return ParamPoly({tuple(e): 1, _CONST: k // 2} if k else {tuple(e): 1})


def _cancel_linear(num: ParamPoly, den: ParamPoly) -> Tuple[ParamPoly, ParamPoly]:
    """Cancel the common factors s + k/2, k in -40..40, with multiplicity."""
    for i in range(3):
        if not (any(e[i] for e in den.terms) and any(e[i] for e in num.terms)):
            continue
        for k in _half_roots(num, i, _half_roots(den, i)):
            f = _linear_factor(i, k)
            while True:
                den, num = den.exact_divide(f), num.exact_divide(f)
                if den.is_constant():
                    return num, den
                if not (_half_roots(den, i, (k,)) and _half_roots(num, i, (k,))):
                    break
    return num, den


class ParamScalar:
    """Element of the rational-function field Q(a, l, m)."""

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPoly, den: ParamPoly | None = None):
        if den is None:
            den = _ONE
        dt = den.terms
        if not dt:
            raise ZeroDivisionError("zero denominator in ParamScalar")
        if not num.terms:
            self.num, self.den = _ZERO, _ONE
            return
        if len(dt) == 1 and _CONST in dt:
            if dt[_CONST] == 1:
                self.num, self.den = num, _ONE
                return
        else:
            num, den = _cancel_linear(num, den)
            dt = den.terms
        # canonical form: num and den with integer content 1, den's lead positive
        g = gcd(*num.terms.values(), *dt.values())
        if dt[max(dt, key=_mono_key)] < 0:
            g = -g
        if g != 1:
            num = ParamPoly({e: c // g for e, c in num.terms.items()})
            den = ParamPoly({e: c // g for e, c in dt.items()})
        self.num, self.den = num, den

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(c: RationalLike) -> "ParamScalar":
        return ParamScalar(ParamPoly.const(c.numerator), ParamPoly.const(c.denominator))

    @staticmethod
    def symbol(name: str) -> "ParamScalar":
        return ParamScalar(ParamPoly.symbol(name))

    @staticmethod
    def coerce(v: "ParamScalar | ParamPoly | RationalLike") -> "ParamScalar":
        if isinstance(v, ParamScalar):
            return v
        if isinstance(v, ParamPoly):
            return ParamScalar(v)
        return ParamScalar.const(v)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num.terms

    def is_rational(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def rational_value(self) -> Fraction:
        return Fraction(self.num.constant_value(), self.den.constant_value())

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "ParamScalar":
        other = ParamScalar.coerce(other)
        # both sides are canonical, so a zero summand leaves the other as is
        if not self.num.terms:
            return other
        if not other.num.terms:
            return self
        return ParamScalar(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "ParamScalar":
        return ParamScalar(-self.num, self.den)

    def __sub__(self, other) -> "ParamScalar":
        return self + (-ParamScalar.coerce(other))

    def __rsub__(self, other) -> "ParamScalar":
        return ParamScalar.coerce(other) - self

    def __mul__(self, other) -> "ParamScalar":
        other = ParamScalar.coerce(other)
        return ParamScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ParamScalar":
        other = ParamScalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero ParamScalar")
        return ParamScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "ParamScalar":
        return ParamScalar.coerce(other) / self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ParamScalar, ParamPoly, int, Fraction)):
            return NotImplemented
        other = ParamScalar.coerce(other)
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def substitute(self, bindings: Mapping[str, "ParamScalar | ParamPoly | RationalLike"]) -> "ParamScalar":
        """Replace bound symbols; unbound symbols stay formal.

        Raises ZeroDivisionError naming the binding if the denominator
        vanishes under it.
        """
        for s in bindings:
            if s not in SYMBOLS:
                raise KeyError(f"unknown parameter symbol {s!r}")
        num = _substitute_scalar(self.num, bindings)
        den = _substitute_scalar(self.den, bindings)
        if den.is_zero():
            names = ", ".join(f"{s}={ParamScalar.coerce(v).render()}" for s, v in bindings.items())
            raise ZeroDivisionError(f"denominator vanishes under binding {names}")
        return num / den

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        dt = self.den.terms
        g = gcd(*dt.values())
        if len(dt) == 1 and _CONST in dt:
            return self.num.render(g)
        return f"({self.num.render(g)})/({self.den.render(g)})"

    def __repr__(self):
        return f"ParamScalar({self.render()})"


def _substitute_scalar(p: ParamPoly, bindings: Mapping[str, "ParamScalar | ParamPoly | RationalLike"]) -> ParamScalar:
    out = ParamScalar.const(0)
    for e, c in p.terms.items():
        term = ParamScalar.const(c)
        for i, s in enumerate(SYMBOLS):
            if not e[i]:
                continue
            base = ParamScalar.coerce(bindings[s]) if s in bindings else ParamScalar.symbol(s)
            for _ in range(e[i]):
                term = term * base
        out = out + term
    return out


# convenience symbols
ALPHA = ParamScalar.symbol("a")
LAMBDA = ParamScalar.symbol("l")
MU = ParamScalar.symbol("m")
