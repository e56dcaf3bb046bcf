"""Exact arithmetic foundation: rationals, Bernoulli data, polynomials, truncated series.

Rationals are ``fractions.Fraction`` (always reduced, positive denominator); integer
coefficients are kept as plain ``int`` where possible since Python mixes the two
transparently. Everything here is immutable and safe to share across threads.

``FormalSeries`` multiplication and inversion iterate over the nonzero stored
coefficients only, so sparse series such as (q;q)_infinity cost in proportion
to their nonzero terms, not their length.
"""
from __future__ import annotations

import json
import threading
from fractions import Fraction
from math import comb
from operator import add
from typing import Iterable, Sequence, Union

from .errors import InvertAtZero, SeriesTruncationError, check_at_least

Coeff = Union[int, Fraction]


def rational_to_str(x: Coeff) -> str:
    """Serialize a rational as 'p/q' (denominator always shown, e.g. '-7/192')."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials (convention B_1 = -1/2, so B_m = B_m(0))
# ---------------------------------------------------------------------------

_BERNOULLI: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()


def bernoulli_number(m: int) -> Fraction:
    """B_m with B_1 = -1/2, via the recurrence sum_{i<=m} C(m+1,i) B_i = 0."""
    check_at_least(m, 0, "Bernoulli index")
    if m >= len(_BERNOULLI):
        with _BERNOULLI_LOCK:
            while len(_BERNOULLI) <= m:
                n = len(_BERNOULLI)
                acc = Fraction(0)
                for i in range(n):
                    acc += comb(n + 1, i) * _BERNOULLI[i]
                _BERNOULLI.append(-acc / (n + 1))
    return _BERNOULLI[m]


def bernoulli_polynomial(m: int) -> "ZPolynomial":
    """B_m(x) = sum_i C(m,i) B_i x^{m-i}; degree exactly m."""
    check_at_least(m, 0, "Bernoulli index")
    coeffs = [Fraction(0)] * (m + 1)
    for i in range(m + 1):
        coeffs[m - i] = comb(m, i) * bernoulli_number(i)
    return ZPolynomial(coeffs)


# ---------------------------------------------------------------------------
# Polynomials in one variable over Q
# ---------------------------------------------------------------------------

class ZPolynomial:
    """Dense polynomial with rational coefficients, index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Coeff] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Coeff, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, d: int) -> Coeff:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "ZPolynomial") -> "ZPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return ZPolynomial([self.coefficient(d) + other.coefficient(d) for d in range(n)])

    def __sub__(self, other: "ZPolynomial") -> "ZPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return ZPolynomial([self.coefficient(d) - other.coefficient(d) for d in range(n)])

    def scale(self, c: Coeff) -> "ZPolynomial":
        return ZPolynomial([a * c for a in self.coeffs])

    def compose_affine(self, a: Coeff, b: Coeff) -> "ZPolynomial":
        """p(a*z + b), exact, by Horner over the polynomial ring."""
        res: list[Coeff] = []
        for c in reversed(self.coeffs):
            new = [Fraction(0)] * (len(res) + 1)
            for d, pc in enumerate(res):
                new[d + 1] += pc * a
                new[d] += pc * b
            new[0] += c
            res = new
        return ZPolynomial(res)

    def __call__(self, x: Coeff) -> Fraction:
        """Exact evaluation at a rational point."""
        r = Fraction(0)
        for c in reversed(self.coeffs):
            r = r * x + c
        return r

    def __repr__(self) -> str:
        if not self.coeffs:
            return "ZPolynomial(0)"
        terms = [f"{c}*x^{d}" for d, c in enumerate(self.coeffs) if c != 0]
        return "ZPolynomial(" + " + ".join(terms) + ")"


# ---------------------------------------------------------------------------
# Truncated Laurent / power series in q
# ---------------------------------------------------------------------------

class FormalSeries:
    """Truncated Laurent series: known coefficients for exponents <= truncation_order.

    Exponents above the truncation order are *unknown*, never assumed zero; any
    attempt to read one raises ``SeriesTruncationError``. Arithmetic propagates
    the truncation metadata so a result never claims more than it knows.
    """

    __slots__ = ("low", "coeffs", "trunc")

    def __init__(self, low_exponent: int, coefficients: Sequence[Coeff], truncation_order: int):
        cs = list(coefficients)
        # strip leading zeros (raising the low exponent) and trailing zeros
        while cs and cs[0] == 0:
            cs.pop(0)
            low_exponent += 1
        while cs and cs[-1] == 0:
            cs.pop()
        if cs and low_exponent + len(cs) - 1 > truncation_order:
            raise ValueError("coefficients extend beyond the truncation order")
        if not cs:
            low_exponent = 0
        self.low = low_exponent
        self.coeffs: tuple[Coeff, ...] = tuple(cs)
        self.trunc = truncation_order

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, truncation_order: int) -> "FormalSeries":
        return cls(0, (), truncation_order)

    @classmethod
    def monomial(cls, c: Coeff, exponent: int, truncation_order: int) -> "FormalSeries":
        return cls(exponent, (c,), truncation_order)

    @classmethod
    def from_terms(cls, terms: dict[int, Coeff], truncation_order: int) -> "FormalSeries":
        terms = {e: c for e, c in terms.items() if c != 0}
        if not terms:
            return cls.zero(truncation_order)
        lo = min(terms)
        hi = max(terms)
        cs = [terms.get(e, 0) for e in range(lo, hi + 1)]
        return cls(lo, cs, truncation_order)

    # -- inspection ---------------------------------------------------------

    @property
    def low_exponent(self) -> int:
        return self.low

    @property
    def truncation_order(self) -> int:
        return self.trunc

    def is_zero(self) -> bool:
        """True when every known coefficient vanishes (the tail stays unknown)."""
        return not self.coeffs

    def coefficient(self, e: int) -> Coeff:
        if e > self.trunc:
            raise SeriesTruncationError(f"exponent {e} beyond truncation order {self.trunc}")
        if not self.coeffs or e < self.low or e > self.low + len(self.coeffs) - 1:
            return Fraction(0)
        return self.coeffs[e - self.low]

    def items(self) -> Iterable[tuple[int, Coeff]]:
        """Known nonzero (exponent, coefficient) pairs, ascending."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                yield self.low + i, c

    def eq_to_order(self, other: "FormalSeries", order: int) -> bool:
        """Compare all coefficients with exponent <= order (must be known on both sides)."""
        if order > self.trunc or order > other.trunc:
            raise SeriesTruncationError("comparison order beyond a truncation order")
        lo = min(self.low if self.coeffs else order, other.low if other.coeffs else order)
        return all(self.coefficient(e) == other.coefficient(e) for e in range(lo, order + 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return (self.low, self.coeffs, self.trunc) == (other.low, other.coeffs, other.trunc)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        terms = ", ".join(f"{e}: {c}" for e, c in self.items())
        return f"FormalSeries({{{terms}}}, O(q^{self.trunc + 1}))"

    # -- arithmetic ---------------------------------------------------------

    def _low_eff(self) -> int:
        # for truncation bookkeeping a zero series acts as O(q^{trunc+1})
        return self.low if self.coeffs else self.trunc + 1

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        t = min(self.trunc, other.trunc)
        parts = [(x.low, x.coeffs[: t - x.low + 1]) for x in (self, other)
                 if x.coeffs and x.low <= t]
        if not parts:
            return FormalSeries.zero(t)
        lo = min(low for low, _ in parts)
        c = [0] * (max(low + len(cs) for low, cs in parts) - lo)
        for low, cs in parts:
            i = low - lo
            c[i: i + len(cs)] = map(add, c[i: i + len(cs)], cs)
        return FormalSeries(lo, c, t)

    def __neg__(self) -> "FormalSeries":
        return FormalSeries(self.low, [-c for c in self.coeffs], self.trunc)

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        return self + (-other)

    def _nonzero(self) -> list[tuple[int, Coeff]]:
        """(index into coeffs, coefficient) for the nonzero stored coefficients."""
        return [(i, c) for i, c in enumerate(self.coeffs) if c != 0]

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        """Product to the order both factors determine.

        Only nonzero coefficients are visited: the factor with fewer of them is
        the outer loop, and both loops stop at the truncation bound.
        """
        t = min(self.trunc + other._low_eff(), other.trunc + self._low_eff())
        if not self.coeffs or not other.coeffs:
            return FormalSeries.zero(t)
        lo = self.low + other.low
        if t < lo:
            return FormalSeries.zero(t)
        top = t - lo
        outer, inner = self._nonzero(), other._nonzero()
        if len(outer) > len(inner):
            outer, inner = inner, outer
        out = [0] * (top + 1)
        for i, ca in outer:
            if i > top:
                break
            jmax = top - i
            for j, cb in inner:
                if j > jmax:
                    break
                out[i + j] += ca * cb
        return FormalSeries(lo, out, t)

    def invert(self) -> "FormalSeries":
        """Multiplicative inverse; requires a nonzero lowest stored coefficient.

        Each new coefficient is a sum over the nonzero coefficients of self only,
        so inverting (q;q)_infinity costs O(order^1.5), not O(order^2).
        """
        if not self.coeffs:
            raise InvertAtZero("cannot invert a series with zero leading coefficient")
        a0 = self.coeffs[0]
        la = self.low
        n_rel = self.trunc - la  # known relative orders 0..n_rel
        unit = isinstance(a0, int) and abs(a0) == 1
        nz = self._nonzero()[1:]
        out: list[Coeff] = [a0 if unit else Fraction(1) / a0]
        for t in range(1, n_rel + 1):
            acc = 0
            for i, ai in nz:
                if i > t:
                    break
                acc += ai * out[t - i]
            if acc == 0:
                out.append(0)
            elif unit:
                out.append(-acc if a0 == 1 else acc)
            else:
                out.append(-Fraction(acc) / a0)
        return FormalSeries(-la, out, n_rel - la)

    # -- serialization ------------------------------------------------------

    def to_pairs(self) -> list[tuple[int, str]]:
        """JSON-friendly [(exponent, 'p/q'), ...] for the known nonzero terms."""
        return [(e, rational_to_str(c)) for e, c in self.items()]

    def to_json(self) -> str:
        return json.dumps(self.to_pairs())
