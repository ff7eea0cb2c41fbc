"""Exact coefficient field: rational functions in the formal parameters a, l, m.

Everything is built on arbitrary-precision rationals (``fractions.Fraction``);
there is no floating point anywhere.  The three parameter symbols are rendered
``a``, ``l``, ``m`` (for the spectral parameter, and the two inducing
characters).  A :class:`ParamScalar` is a quotient of two :class:`ParamPoly`
values kept in a canonical form: the denominator is a primitive integer
polynomial with positive leading coefficient, and common linear factors of the
shape ``s + k/2`` (s a symbol, k a small integer) are cancelled by trial exact
division.  Equality never relies on the reduction: it is decided by
cross-multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

Exponents = Tuple[int, int, int]
RationalLike = Union[int, Fraction]

SYMBOLS = ("a", "l", "m")

# linear factors s + k/2 tried during quotient reduction
_FACTOR_HALF_RANGE = range(-40, 41)


def _mono_key(e: Exponents):
    # graded lexicographic, largest first
    return (sum(e), e)


class ParamPoly:
    """Sparse polynomial in the parameters a, l, m over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponents, RationalLike] | None = None):
        clean: Dict[Exponents, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[tuple(e)] = c  # type: ignore[index]
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(c: RationalLike) -> "ParamPoly":
        return ParamPoly({(0, 0, 0): Fraction(c)})

    @staticmethod
    def symbol(name: str) -> "ParamPoly":
        i = SYMBOLS.index(name)
        e = [0, 0, 0]
        e[i] = 1
        return ParamPoly({tuple(e): Fraction(1)})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get((0, 0, 0), Fraction(0))

    def leading(self) -> Tuple[Exponents, Fraction]:
        e = max(self.terms, key=_mono_key)
        return e, self.terms[e]

    def symbols_used(self) -> Tuple[str, ...]:
        used = [False, False, False]
        for e in self.terms:
            for i in range(3):
                if e[i]:
                    used[i] = True
        return tuple(s for i, s in enumerate(SYMBOLS) if used[i])

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return ParamPoly(out)

    def __neg__(self) -> "ParamPoly":
        return ParamPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        out: Dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return ParamPoly(out)

    def scale(self, c: RationalLike) -> "ParamPoly":
        c = Fraction(c)
        return ParamPoly({e: c * v for e, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParamPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def exact_divide(self, divisor: "ParamPoly") -> "ParamPoly | None":
        """Quotient self/divisor if the division is exact, else None."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.terms)
        quot: Dict[Exponents, Fraction] = {}
        de, dc = divisor.leading()
        while rem:
            e = max(rem, key=_mono_key)
            q = (e[0] - de[0], e[1] - de[1], e[2] - de[2])
            if min(q) < 0:
                return None
            c = rem[e] / dc
            quot[q] = quot.get(q, Fraction(0)) + c
            for e2, c2 in divisor.terms.items():
                t = (q[0] + e2[0], q[1] + e2[1], q[2] + e2[2])
                s = rem.get(t, Fraction(0)) - c * c2
                if s:
                    rem[t] = s
                else:
                    rem.pop(t, None)
        return ParamPoly(quot)

    def substitute(self, bindings: Mapping[str, "ParamPoly"]) -> "ParamPoly":
        images = []
        for i, s in enumerate(SYMBOLS):
            images.append(bindings.get(s))
        out = ParamPoly()
        for e, c in self.terms.items():
            term = ParamPoly.const(c)
            for i in range(3):
                if not e[i]:
                    continue
                base = images[i] if images[i] is not None else ParamPoly.symbol(SYMBOLS[i])
                for _ in range(e[i]):
                    term = term * base
            out = out + term
        return out

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_mono_key, reverse=True):
            c = self.terms[e]
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


def _content(p: ParamPoly) -> Fraction:
    """Positive rational content, signed by the leading coefficient."""
    if p.is_zero():
        return Fraction(1)
    num_gcd = 0
    den_lcm = 1
    for c in p.terms.values():
        num_gcd = _gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // _gcd(den_lcm, c.denominator)
    content = Fraction(num_gcd, den_lcm)
    _, lead = p.leading()
    return content if lead > 0 else -content


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a if a else 1


def _candidate_factors(num: ParamPoly, den: ParamPoly) -> Iterable[ParamPoly]:
    syms = set(num.symbols_used()) & set(den.symbols_used())
    for s in syms:
        base = ParamPoly.symbol(s)
        for k in _FACTOR_HALF_RANGE:
            yield base + ParamPoly.const(Fraction(k, 2))


class ParamScalar:
    """Element of the rational-function field Q(a, l, m)."""

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPoly, den: ParamPoly | None = None):
        if den is None:
            den = _ONE
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in ParamScalar")
        self.num, self.den = _reduce(num, den)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(c: RationalLike) -> "ParamScalar":
        return ParamScalar(ParamPoly.const(c))

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
        return self.num.is_zero()

    def is_rational(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def rational_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "ParamScalar":
        other = ParamScalar.coerce(other)
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
        if self.den == _ONE:
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

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


def _reduce(num: ParamPoly, den: ParamPoly) -> Tuple[ParamPoly, ParamPoly]:
    if num.is_zero():
        return _ZERO, _ONE
    if den.is_constant():
        d = den.constant_value()
        return num.scale(Fraction(1) / d), _ONE
    # cancel curated linear factors by trial exact division
    for f in _candidate_factors(num, den):
        while True:
            qd = den.exact_divide(f)
            if qd is None:
                break
            qn = num.exact_divide(f)
            if qn is None:
                break
            num, den = qn, qd
            if den.is_constant():
                d = den.constant_value()
                return num.scale(Fraction(1) / d), _ONE
    # normalize: denominator primitive with positive leading coefficient
    c = _content(den)
    den = den.scale(Fraction(1) / c)
    num = num.scale(Fraction(1) / c)
    return num, den


# convenience symbols
ALPHA = ParamScalar.symbol("a")
LAMBDA = ParamScalar.symbol("l")
MU = ParamScalar.symbol("m")
