"""The Puiseux-expansion pipeline: exact bivariate coefficients a_{n,j} of h_q(z),
the coefficients beta_k(j) of the s^{j/k} expansion of the relative error, full
expansion evaluation, and Zagier's k=3 rational series t1, t2.

beta_k(j) is one transcendental factor T_k(j mod k) times an exact rational
R_k(j) (beta_rational), so coefficient ratios within a residue class, t1 and t2
among them, are exact. rational_ratio rebuilds them from beta_coeff = T_k R_k by
continued fractions; T_k cancels, so it checks that reconstruction and that
cancellation, not R_k against an independent value.

The a_{n,j} recurrence runs over integers, one denominator per row, and its
inputs f_{2j} come in closed form from the Bernoulli shift identity, as integers
over one denominator.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod
from operator import add

import mpmath as mp

from .errors import DivisionByZeroBeta, ReconstructionFailed, check_k
from .exactcore import ZPolynomial, bernoulli_number, rational_to_str
from .hires import (LOCK, EvalConfig, evaluate, frac_to_mpf, gamma_q_num, keep_longest,
                    mpf_to_fraction)


def _f2j_integers(k: int, j: int) -> tuple[list, int]:
    """f_{2j}(z) = B_{2j} (B_{2j+1}(1+z) k^{2j} + B_{2j+1}(1 - kz/(k+1)) (k+1)^{2j})
    / (2j (2j+1)!) as (numerators of z^0..z^n, one denominator), n = 2j+1, in
    lowest terms. By B_n(1+h) = sum_d C(n,d) B_{n-d}(1) h^d and B_i(1) = (-1)^i B_i,
    its z^d coefficient is
        B_{2j} C(n,d) (-1)^{n-d} B_{n-d} (k^{2j} (k+1) + (-k)^d (k+1)^{n-d})
        / (2j n! (k+1)),
    taken over integers: each B_i is its numerator over L, the lcm of the
    denominators of B_0..B_n, so the denominator is 2j n! (k+1) L^2."""
    n = 2 * j + 1
    bern = [bernoulli_number(i) for i in range(n + 1)]
    big = lcm(*(b.denominator for b in bern))
    b = [x.numerator * (big // x.denominator) for x in bern]
    nums = [b[2 * j] * comb(n, d) * (-1) ** (n - d) * b[n - d]
            * (k ** (2 * j) * (k + 1) + (-k) ** d * (k + 1) ** (n - d)) for d in range(n + 1)]
    den = 2 * j * factorial(n) * (k + 1) * big * big
    g = gcd(den, *nums)
    return [x // g for x in nums], den // g


def f2j_polynomial(k: int, j: int) -> ZPolynomial:
    """f_{2j}(z) with rational coefficients, exact, degree 2j+1 (see _f2j_integers)."""
    check_k(k)
    if j < 1:
        raise ValueError("j must be >= 1")
    nums, den = _f2j_integers(k, j)
    return ZPolynomial([Fraction(x, den) for x in nums])


@dataclass(frozen=True)
class BivariateExpansion:
    """Exact table a_{n,j}: h_q(z) = sum_{n,j} a_{n,j} s^j z^n with q = e^{-s}.

    Invariants (checked at build time): a_{0,0} = 1, a_{0,j} = 0 for j >= 1,
    a_{n,0} = 0 for n >= 1, and a_{n,j} = 0 for n > 2j.
    """

    k: int
    j_max: int
    table: tuple  # tuple of tuples: table[j] = z-coefficients of the s^j term

    def a(self, n: int, j: int) -> Fraction:
        if j > self.j_max:
            raise ValueError(f"a_(n,{j}) beyond computed order {self.j_max}")
        if j < 0 or n < 0:
            raise ValueError("indices must be non-negative")
        row = self.table[j]
        return row[n] if n < len(row) else Fraction(0)

    def to_json(self) -> str:
        entries = [
            [n, j, rational_to_str(c)]
            for j, row in enumerate(self.table)
            for n, c in enumerate(row)
            if c != 0
        ]
        return json.dumps({"k": self.k, "j_max": self.j_max, "entries": entries})


_BIV_CACHE: dict[int, BivariateExpansion] = {}  # k -> the longest table computed


def hq_bivariate(k: int, j_max: int) -> BivariateExpansion:
    """Exact a_{n,j} for j <= j_max, from
    h_q(z) = exp(s (k z^2/(4(k+1)) - k z/2) - sum_{j>=1} f_{2j}(z) s^{2j} + ...),
    via the exponential recurrence e_t = (1/t) sum_i i c_i e_{t-i} over polynomials
    in z, each kept as integer coefficients over one denominator, reduced by one
    gcd per row."""
    check_k(k)
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    biv = keep_longest(_BIV_CACHE, k, j_max, lambda b: b.j_max,
                       lambda: _bivariate_table(k, j_max))
    if biv.j_max == j_max:
        return biv
    return BivariateExpansion(k, j_max, biv.table[: j_max + 1])


def _bivariate_table(k: int, j_max: int) -> BivariateExpansion:
    """The table of hq_bivariate. The exponent's s^1 coefficient
    k z^2/(4(k+1)) - k z/2 and its s^{2i} coefficients -f_{2i}(z) enter as integer
    z-coefficients over one denominator, the latter straight from _f2j_integers;
    no Fraction is built before the finished rows."""
    c = {1: ([0, -2 * k * (k + 1), k], 4 * (k + 1))}
    for i in range(1, j_max // 2 + 1):
        nums, d = _f2j_integers(k, i)
        c[2 * i] = ([-x for x in nums], d)
    e = [([1], 1)]
    for t in range(1, j_max + 1):
        parts = [(i, ci, di, *e[t - i]) for i, (ci, di) in c.items() if i <= t]
        den = lcm(*(di * dr for _, _, di, _, dr in parts))
        acc = [0] * max(len(ci) + len(row) - 1 for _, ci, _, row, _ in parts)
        for i, ci, di, row, dr in parts:
            w = i * (den // (di * dr))
            for a, x in enumerate(ci):
                if x:
                    b = a + len(row)
                    acc[a:b] = map(add, acc[a:b], map((w * x).__mul__, row))
        den *= t
        g = gcd(den, *acc)
        e.append(([x // g for x in acc], den // g))
    e = [ZPolynomial([Fraction(x, d) for x in row]) for row, d in e]
    # build-time verification of the structural claims the beta sum relies on
    for j, poly in enumerate(e):
        if poly.degree > 2 * j:
            raise RuntimeError(f"degree bound violated: deg a_(.,{j}) = {poly.degree} > {2*j}")
        a0 = poly.coefficient(0)
        if j == 0 and (a0 != 1 or poly.degree != 0):
            raise RuntimeError("a_(0,0) != 1")
        if j >= 1 and a0 != 0:
            raise RuntimeError(f"a_(0,{j}) = {a0} != 0")
    return BivariateExpansion(k, j_max, tuple(poly.coeffs for poly in e))


# ---------------------------------------------------------------------------
# beta coefficients and the expansion itself
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def beta_rational(k: int, j: int) -> Fraction:
    """R_k(j) = beta_k(j)/T_k(j mod k), exact.

    With j0 = j mod k, x0 = j0(k+1)/k and, for r = 0..(j-1)//k, l = j - kr and
    m = (l - j0)/k:
        R_k(j) = sum_r (-1)^m (x0)_{m(k+1)} k^{m(k+1)} / (l! (k+1)^l) e_r(-l(k+1)/k),
    where e_r(z) = sum_n a_{n,r} z^n is row r of hq_bivariate and
    (x0)_{m(k+1)} k^{m(k+1)} = prod_{i < m(k+1)} (j0(k+1) + ki) is an integer.
    Zero when k | j."""
    check_k(k)
    if j < 1:
        raise ValueError("j must be >= 1")
    j0 = j % k
    if j0 == 0:
        return Fraction(0)
    biv = hq_bivariate(k, max((j - 1) // k, 1))
    tot = Fraction(0)
    for r in range((j - 1) // k + 1):
        ell = j - k * r
        m = (ell - j0) // k
        poch = prod(range(j0 * (k + 1), j0 * (k + 1) + k * m * (k + 1), k))
        e_r = ZPolynomial(biv.table[r])(Fraction(-ell * (k + 1), k))
        tot += (-1) ** m * Fraction(poch, factorial(ell) * (k + 1) ** ell) * e_r
    return tot


def beta_coeff(k: int, j: int, cfg: EvalConfig):
    """beta_k(j) = T_k(j0) R_k(j), j0 = j mod k, x0 = j0(k+1)/k, with the one
    transcendental factor T_k(j0) = (k+1)/(k pi) sin(pi j0/k) Gamma(x0) k^{x0}
    and the exact rational R_k(j) of beta_rational; T and the product are taken
    at precision_bits + 32 and rounded once.

    This is the sum beta_k(j) = sum_{kr+l=j, r>=0, l>=1} b_k(l)
    sum_{n=0}^{2r} a_{n,r} (-l)^n (k+1)^{n-l} k^{l(k+1)/k - n}, each b_k(l)
    k^{l(k+1)/k} being T_k(j0) times a rational. Exactly zero when k | j."""
    check_k(k)
    if j < 1:
        raise ValueError("j must be >= 1")
    if j % k == 0:
        return mp.mpf(0)
    return _beta_at(k, j, cfg.precision_bits)


@lru_cache(maxsize=256)
def _beta_at(k: int, j: int, precision_bits: int):
    """beta_coeff's value for 1 <= j, k not dividing j; the newest 256 are kept."""
    def core():
        j0 = j % k
        x0 = frac_to_mpf(Fraction(j0 * (k + 1), k))
        t = mp.mpf(k + 1) / (k * mp.pi) * mp.sinpi(mp.mpf(j0) / k) * mp.gamma(x0) \
            * mp.power(k, x0)
        return t * frac_to_mpf(beta_rational(k, j))
    return evaluate(EvalConfig(precision_bits), 32, core)


def expansion_eval(k: int, n_order: int, s, cfg: EvalConfig):
    """(1/(k+1)) sqrt(2 pi/s) e^{-pi^2/(3k(k+1)s) + s/24}
    ((k+1)/k + sum_{j=1}^{kN} beta_k(j) s^{j/k})."""
    check_k(k)
    if n_order < 0:
        raise ValueError("N must be >= 0")

    def core():
        sv = frac_to_mpf(s)
        if not sv > 0:
            raise ValueError("s must be positive")
        series = mp.mpf(k + 1) / k
        for j in range(1, k * n_order + 1):
            b = beta_coeff(k, j, cfg)
            if b != 0:
                series += b * mp.power(sv, mp.mpf(j) / k)
        return mp.sqrt(2 * mp.pi / sv) / (k + 1) \
            * mp.exp(-mp.pi ** 2 / (3 * k * (k + 1) * sv) + sv / 24) * series
    return evaluate(cfg, 64, core)


# ---------------------------------------------------------------------------
# rational reconstruction and Zagier's tables
# ---------------------------------------------------------------------------

def rational_ratio(k: int, j: int, m: int, cfg: EvalConfig) -> Fraction:
    """beta_k(j + mk)/beta_k(j) reconstructed as an exact rational via
    continued-fraction convergents.

    The ratio x is evaluated at P = max(precision_bits, 192) bits and its closest
    fraction a/q with q <= 2^{P/2} is accepted only if, exactly, |x - a/q| <= 2^{-P/2}
    and q^2 |x - a/q| <= 2^{-32}. A ratio whose true denominator is out of reach still
    has a closest fraction, but with q^2 |x - a/q| of order 1, so it raises
    ReconstructionFailed instead of returning that fraction."""
    check_k(k)
    if not (1 <= j < k):
        raise ValueError("rational ratios are defined for 1 <= j < k")
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return Fraction(1)
    bits = max(cfg.precision_bits, 192)
    sub = EvalConfig(bits)
    with LOCK, mp.workprec(bits + 16):
        den = beta_coeff(k, j, sub)
        if den == 0 or abs(den) < mp.mpf(2) ** (-(bits // 2)):
            raise DivisionByZeroBeta(f"beta_{k}({j}) vanishes; ratio undefined")
        num = beta_coeff(k, j + m * k, sub)
        x = mpf_to_fraction(num / den)
        best = x.limit_denominator(2 ** (bits // 2))
        resid = abs(x - best)
        if resid > Fraction(1, 2 ** (bits // 2)) \
                or resid * best.denominator ** 2 > Fraction(1, 2 ** 32):
            raise ReconstructionFailed(
                f"residual {mp.nstr(frac_to_mpf(resid), 5)} too large for "
                f"beta_{k}({j + m * k})/beta_{k}({j}) with denominator {best.denominator}; "
                "increase precision_bits")
        return best


def zagier_t_coeffs(m_max: int, cfg: EvalConfig):
    """Coefficient lists of Zagier's t1 and t2 through s^m_max (k = 3):
    t1[m] = beta_3(1+3m)/beta_3(1), t2[m] = 5 beta_3(2+3m)/beta_3(2), taken as
    exact ratios of beta_rational, so they do not depend on cfg (kept for callers)."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    t1 = [beta_rational(3, 1 + 3 * m) / beta_rational(3, 1) for m in range(m_max + 1)]
    t2 = [5 * beta_rational(3, 2 + 3 * m) / beta_rational(3, 2) for m in range(m_max + 1)]
    return t1, t2


def zagier_c1(cfg: EvalConfig):
    """c_1 = 3^{-1/6} Gamma(1/3) / (8 pi)."""
    return evaluate(cfg, 16, lambda: mp.power(3, frac_to_mpf(Fraction(-1, 6)))
                    * mp.gamma(frac_to_mpf(Fraction(1, 3))) / (8 * mp.pi))


def zagier_c2(cfg: EvalConfig):
    """c_2 = 3^{1/6} Gamma(2/3) / (32 pi)."""
    return evaluate(cfg, 16, lambda: mp.power(3, frac_to_mpf(Fraction(1, 6)))
                    * mp.gamma(frac_to_mpf(Fraction(2, 3))) / (32 * mp.pi))


# ---------------------------------------------------------------------------
# numeric h_q oracle (assembled from the q-Gamma layer, for cross-checks)
# ---------------------------------------------------------------------------

def hq_num(k: int, z, s, cfg: EvalConfig):
    """h_q(z) evaluated from its definition:
    q^{k^2 z^2/(2(k+1)) + kz/2} * Gamma(z+1)Gamma(1-kz/(k+1))
    / (Gamma_{q^k}(z+1) Gamma_{q^{k+1}}(1-kz/(k+1)))
    * ((1-q^{k+1})/((k+1)s))^{kz/(k+1)} * (ks/(1-q^k))^z.

    This is the independent oracle for the exact a_{n,j} table."""
    check_k(k)
    guard = 48
    sub = EvalConfig(cfg.precision_bits + guard)

    def core():
        sv = frac_to_mpf(s)
        zv = frac_to_mpf(z)
        q = mp.exp(-sv)
        qk = mp.exp(-k * sv)
        qk1 = mp.exp(-(k + 1) * sv)
        pref = mp.power(q, mp.mpf(k * k) / (2 * (k + 1)) * zv * zv + mp.mpf(k) / 2 * zv)
        arg2 = 1 - mp.mpf(k) / (k + 1) * zv
        g1 = mp.gamma(zv + 1) / gamma_q_num(zv + 1, qk, sub)
        g2 = mp.gamma(arg2) / gamma_q_num(arg2, qk1, sub)
        f1 = mp.power((1 - qk1) / ((k + 1) * sv), mp.mpf(k) / (k + 1) * zv)
        f2 = mp.power(k * sv / (1 - qk), zv)
        val = pref * g1 * g2 * f1 * f2
        return val if isinstance(zv, mp.mpc) else mp.re(val)
    return evaluate(cfg, guard, core)


def hq_table_eval(biv: BivariateExpansion, z, s, cfg: EvalConfig):
    """sum_{j<=j_max} sum_n a_{n,j} s^j z^n at numeric (z, s)."""
    def core():
        sv = frac_to_mpf(s)
        zv = frac_to_mpf(z)
        tot = mp.mpf(0)
        sp = mp.mpf(1)
        for j in range(biv.j_max + 1):
            row = biv.table[j]
            acc = mp.mpf(0)
            zp = mp.mpf(1)
            for n, c in enumerate(row):
                if c != 0:
                    acc += frac_to_mpf(c) * zp
                zp = zp * zv
            tot += acc * sp
            sp = sp * sv
        return tot
    return evaluate(cfg, 32, core)
