"""Arbitrary-precision evaluation at q = e^{-s} (mpmath-backed).

Public operations take an EvalConfig carrying the target precision in bits;
internally everything runs at an elevated working precision sized to absorb
known cancellation (tracked per route), and results are rounded back to the
target precision. Re-running with doubled precision therefore moves a result
by no more than the final rounding, which is the package's precision contract.
Every numeric argument is converted by one rule, frac_to_mpf; a real one is read
exactly by exact, and every positivity check (check_positive) reads it so.

The small-s route (gk_num's insum and I_n_num) runs one m-loop per (k, s): its
real terms are binned by m mod 2(k+1), and each odd n then costs 2(k+1) phase
products (_In_bins, _In_from_bins). The loop runs over Python integers at scale
2^-w as k residue chains: for m > k and r = m mod (k+1) != 0,
u_m = (-1)^k q^{k(k+1)} prod_{i<k} (1 - q^{E_i}) u_{m-k-1}, E_i = km - k(k+1) + i(k+1),
a constant q-power times factors in (0, 1), and term m is u_m/(q^k;q^k)_m. After M
values of m every bin is within 2^{b+v+2} K^3 units of 2^-w, K = M + 1 + 1/(ks),
2^b >= max |u_r|, 1 and 2^v >= e^{pi^2/(6ks)}, and w puts that below 2^-prec
(see _In_bins). Both run with 48 guard bits and measure their cancellation,
log2(max(1, largest term)/|sum|); where it exceeds 16 bits, they run again with
their guard and their stop rules raised by the cancellation plus 16, at most 3
passes in all (_measured_evaluate). The odd-n sum the insum route ends in is R_k
itself, so gk_and_relative_error_num takes g_k and R_k from one pass.

A pass runs on fixed-point q-powers: every power of q at one (s, w) comes from
one table of squares q^(2^i), built from one mp.exp (_q_squares, _q_pow), each
power under 2 units of 2^-w off. A seed product (q^a; q^b)_inf turns its factors
at negative exponents around, 1 - q^{-t} = -q^{-t}(1 - q^t), into its sign and a
q-power; its head, the factors down to 2^-8, is one integer product renormalised
after every factor, and the factors below are one log series,
sum_m x^m/(m(1 - r^m)), also in fixed point (_log_tail_fixed). Together they
give the product as h 2^-e e^{s sigma - lam} within 2^-(p+2) relative
(_poch_parts); one mp.exp then ends a q-product (_poch_inf_exps_core, within
2^(1-prec)) or a chain start u_r = q^{c_r} P_r/P_0, whose q-power and P_0's lam
join its argument. With the odd-n weights from one exp and running products, a
cold pass at the small-s benchmark points calls mp.exp 6, 11 and 12 times for
k = 2, 3, 4 (18, 30 and 38 with mpf heads and one exp per constant). The direct
route runs its m-loop in mpf (_pm_terms), with k+1 inner theta sums shifted to
every m (_gk_direct_core); theta_num's direct sum is one loop of running products
for real and complex u. The open-ended sums (the direct m-sum, theta_num's loops,
wright's mpc series and W_j expansion) stop in one loop, _sum_until, each with its
own run length and test; _In_bins, wright's _Wj_series_core and the insum
route's odd-n loop stay outside it (see _sum_until).

Every numeric export returns through evaluate, which runs its core at
precision_bits + guard bits and rounds once to precision_bits, under one lock
(LOCK), since mpmath's working precision is process-wide; past 2^22 guard bits
it raises NonConvergent first. evaluate and format_real are the package's only
precision entries (the CLI's own arithmetic is a core at guard 0). theta_num's
sums rerun by their cancellation as the small-s route does. The shared state is
four caches: the newest 256 (q;q)_infinity values in an lru_cache keyed by
(s, route, working precision), the newest 16 q-power tables in one keyed by
(s, w) (_q_squares), the newest 64 sets of I_n phases in one keyed by
(k, working precision) (_phase_roots), and the longest exact g_k series per k
(_GK_SERIES_CACHE, through keep_longest, which expansion's table cache uses too).
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar

import mpmath as mp
from mpmath.libmp import from_man_exp, to_fixed

from . import qseries
from .errors import NonConvergent, PoleAtNonpositive, TermCapExceeded, check_at_least, check_k

LN2 = math.log(2.0)


@dataclass(frozen=True)
class EvalConfig:
    """The target precision of a numeric evaluation, in bits.

    Sums and products stop below ``threshold`` = 2^-(precision_bits+32), which
    follows the precision. ``max_terms``, a class constant, caps the terms of
    every sum and product loop (TermCapExceeded past it).
    """

    precision_bits: int = 256
    max_terms: ClassVar[int] = 2_000_000

    def __post_init__(self):
        check_at_least(self.precision_bits, 64, "precision_bits")

    @property
    def threshold(self):
        return mp.mpf(2) ** (-(self.precision_bits + 32))


def frac_to_mpf(x):
    """A numeric argument at the current working precision: Fraction as
    numerator/denominator, complex and mpc as mpc, int, str, float and mpf as mpf."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    if isinstance(x, (complex, mp.mpc)):
        return mp.mpc(x)
    return mp.mpf(x)


def as_float(x) -> float:
    """Rough float view of any accepted real argument (for guard-bit sizing),
    +-inf beyond the float range."""
    if isinstance(x, str):
        x = Fraction(x)
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def exact(x) -> Fraction:
    """The exact value of a real argument: an mpf bit for bit (ValueError if it is
    infinite or nan), an int, str, Fraction or float exactly (a float at its binary
    value); TypeError for any other type."""
    if isinstance(x, mp.mpf):
        if not mp.isfinite(x):
            raise ValueError(f"{x} is not a finite real")
        sign, man, exp, _ = x._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp
    if isinstance(x, (int, str, Fraction, float)):
        return Fraction(x)
    raise TypeError(f"need a real number, got {type(x).__name__}")


def check_positive(x, name: str) -> None:
    """ValueError("<name> must be positive") unless x, read exactly, is positive;
    an mpf or float is compared as it is, so +inf passes."""
    if not (x if isinstance(x, (mp.mpf, float)) else exact(x)) > 0:
        raise ValueError(f"{name} must be positive")


def format_real(x, cfg: EvalConfig) -> str:
    """Decimal string carrying exactly the number of reliable digits for cfg."""
    digits = max(1, int(cfg.precision_bits * 0.30103))
    with LOCK, mp.workprec(cfg.precision_bits + 8):
        return mp.nstr(mp.mpf(x), digits)


# mpmath's working precision is one process-wide setting, so this package changes
# it only under LOCK (reentrant: cores call other exports); keep_longest stores
# under it too
LOCK = threading.RLock()


def evaluate(cfg: EvalConfig, guard: int, core, *args):
    """core(*args) run at cfg.precision_bits + guard bits and rounded once to
    cfg.precision_bits; a tuple result is rounded element by element. A guard past
    2^22 bits, where mpmath fails or never ends, raises NonConvergent first."""
    if guard > 1 << 22:
        raise NonConvergent(f"{guard} guard bits, past the 2^22-bit ceiling")
    with LOCK:
        with mp.workprec(cfg.precision_bits + guard):
            val = core(*args)
        with mp.workprec(cfg.precision_bits):
            return tuple(+v for v in val) if isinstance(val, tuple) else +val


def _measured_evaluate(cfg: EvalConfig, core, *args):
    """evaluate for a core(*args, sub) that returns (*values, bits of cancellation)
    and runs its stop rules at sub.threshold: first with 48 guard bits and
    sub = cfg; while the measured cancellation exceeds 16 + extra, again with
    extra = cancellation + 16 more guard bits and sub = EvalConfig(p + extra). After
    3 passes it raises NonConvergent. Returns the one value, or the tuple of values.
    Shared by theta_num, I_n_num, gk_num and gk_and_relative_error_num."""
    extra = 0
    for _ in range(3):
        *val, lost = evaluate(cfg, 48 + extra, core, *args,
                              EvalConfig(cfg.precision_bits + extra))
        if lost <= extra + 16:
            return val[0] if len(val) == 1 else tuple(val)
        extra = lost + 16
    raise NonConvergent(f"cancellation of {lost} bits persists after 3 passes")


def keep_longest(cache: dict, key, length: int, size, build):
    """cache[key] when size(cache[key]) >= length, else build(), which is stored
    under key unless a value at least as long got there first."""
    have = cache.get(key)
    if have is None or size(have) < length:
        have = build()
        with LOCK:
            prev = cache.get(key)
            if prev is None or size(prev) < size(have):
                cache[key] = have
    return have


# ---------------------------------------------------------------------------
# infinite products
# ---------------------------------------------------------------------------

def _qprod(x, r, n, prod=1):
    """prod * prod_{j<n} (1 - x r^j), returned with x r^n so that a later call resumes.

    With x = q^a and r = q^b this extends a product by n factors of (q^a; q^b); the
    running power costs one multiplication per factor instead of an exp/expm1.
    Its rounding grows like j ulps in x r^j, which the callers' guard bits absorb.
    """
    for _ in range(n):
        prod *= 1 - x
        x *= r
    return prod, x


def _log_tail_fixed(x, r, w):
    """2^w sum_{m>=1} x^m / (m G_m) as an integer, G_m = sum_{i<m} r^i, for
    0 <= x <= 1/2 and 0 < r < 1: with d = 1 - r, 2^-w times it, divided by d, is
    -ln prod_{j>=0} (1 - x r^j) = sum_m x^m / (m (1 - r^m)).

    The loop runs in fixed point over the integers floor(2^w x), floor(2^w r):
    x^m is off by under 4 units, r^i by under 2i, so G_m (>= 1) by under m^2; each
    term is one division truncated toward zero, and the loop stops at the first
    x^m under a unit. After the M <= w/log2(1/x) terms it takes, the result is
    within 2M + 12 units of the exact sum: 4 H_M <= M + 5 units from the errors
    of x^m, x^2/(1-x)^2 <= 1 from those of G_m, M truncations and an omitted tail
    under 4 units. So the log is within (2M + 12) 2^-w / d.
    """
    one, xf, rf = 1 << w, to_fixed(x._mpf_, w), to_fixed(r._mpf_, w)
    acc, p, rp, g, m = 0, xf, one, one, 1
    while p:
        acc += (p << w) // (m * g)
        p = p * xf >> w
        rp = rp * rf >> w
        g += rp
        m += 1
    return acc


@lru_cache(maxsize=16)
def _q_squares(s, w):
    """(W, [q^(2^i) for i < L]) for q = e^{-s}: the power table _q_pow reads, its
    squares integers at scale 2^-W, W = w + 64 + L + 3, L = bitlen((w + 192)/s) + 1.

    One mp.exp gives q within 1.01 units; each truncated squaring at most doubles
    an error and adds a unit, so square i is within 1.02 2^{i+1} - 1 units and a
    product of squares within 1.02 2^{L+1}, under 0.26 units at 2^-(w+64). Past the
    table, 2^{L-1} s > w + 192, so q^{2^L} < e^{-2(w+192)} is below a unit."""
    sf = as_float(s)
    L = int((w + 192) / sf).bit_length() + 1
    W = w + 64 + L + 3
    with mp.workprec(W + 8):
        t = to_fixed(mp.exp(-s)._mpf_, W)
    squares = [t]
    for _ in range(L - 1):
        t = t * t >> W
        squares.append(t)
    return W, squares


def _q_pow(s, e, w, extra=0):
    """q^e, q = e^{-s}, as an integer at scale 2^-(w + extra), under 2 units off, for an
    integer e >= 0: the product of _q_squares(s, w) over the bits of e, so that every
    power at one (s, w) comes from one exp; past extra = 64, from a table of its own."""
    if extra > 64:
        return _q_pow(s, e, w + extra)
    W, squares = _q_squares(s, w)
    acc = 1 << W
    for sq in squares:
        if not e:
            break
        if e & 1:
            acc = acc * sq >> W
        e >>= 1
    return 0 if e else acc >> (W - w - extra)


def _check_head(a, step, s):
    """TermCapExceeded where the head of (q^a; q^step)_inf, its factors down to 2^-8,
    passes max_terms, and where s underflows a float; so it runs before anything
    is sized from that float."""
    sf = as_float(s)
    if not sf or (8 * LN2 / sf - a) / step > EvalConfig.max_terms:
        raise TermCapExceeded(f"q-product head past max_terms factors at s={mp.nstr(s, 8)}")


def _poch_parts(a, step, s, p):
    """(h, e, sigma, lam) with prod_{j>=0} (1 - q^{a + j step}) = h 2^-e e^{s sigma - lam}
    within 2^-(p+2) relative, q = e^{-s}, for integers a and step >= 1 with no factor at
    exponent 0; lam is an mpf.

    The J factors at negative exponents turn around, 1 - q^{-t} = -q^{-t}(1 - q^t):
    their sign goes into h and sigma is the sum of their t. Those J factors and the
    factors q^{a0 + j step}, a0 = a + J step, down to 2^-8 (the head, N factors) are one
    fixed-point product at 2^-W, W = p + g, renormalised to W bits after each factor,
    from _q_pow's powers and running products: in factor j of its run the power
    q^t, t >= 1 + j, is off by under 2 + 3j units and the renormalised product by
    under 2 units of the factor, and 1/(1 - q^t) <= 1 + 1/((1+j)s), so the head is
    within (N(4 + 4/s) + 1.5 N^2) 2^-W relative. The tail, from the first factor
    x = q^{a0 + n_h step} < 2^-8 on, is e^{-lam}, lam = sum_m x^m/(m(1 - r^m)),
    r = q^step, d = 1 - r <= 1/D, D = 1 + 1/(s step): _log_tail_fixed at
    Wt = W + bitlen(D) + bitlen(W) + 2 bits is within a unit of 2^-W, and x (under
    2 + 3 n_h units off) and r (under 2) move lam by at most
    (1.004 (3 n_h + 2) D + 0.008 D^2) 2^-W. g = bitlen of the sum of these bounds, plus 3,
    puts the whole below 2^-(p+3). Where no factor lies between 2^-(p+8) and 2^-8
    (r < 2^-p), the factors below 2^-(p+8) are left out, at most 2^-(p+7) relative.
    A head past max_terms factors raises TermCapExceeded first (_check_head).
    """
    _check_head(a, step, s)
    sf = as_float(s)
    J = max(0, -(a // step))
    a0 = a + J * step
    sigma = J * (step - a0) + step * J * (J - 1) // 2
    n_h = max(0, int((8 * LN2 / sf - a0) // step) + 1)
    n = int(((p + 8) * LN2 / sf - a0) // step) + 1
    tail = n > n_h
    if not tail:
        n_h = max(0, n)
    N, D = J + n_h, 1 + 1 / (sf * step)
    err = N * (4 + 4 / sf) + 1.5 * N * N
    if tail:
        err += 1.004 * (3 * n_h + 2) * D + 0.008 * D * D + 1
    W = p + int(err + 1).bit_length() + 3
    one = 1 << W
    r = _q_pow(s, step, p, W - p)
    h, e = 1 << (W - 1), W - 1
    turned = _q_pow(s, step - a0, p, W - p) if J else 0
    for x, count in ((turned, J), (_q_pow(s, a0, p, W - p), n_h)):
        for _ in range(count):
            h = h * (one - x) >> W
            shift = W - h.bit_length()
            h, e = h << shift, e + shift
            x = x * r >> W
    lam = mp.mpf(0)
    if tail:
        dbits = int(D).bit_length()
        wt = W + dbits + W.bit_length() + 2
        with mp.workprec(W + dbits + 8):
            lam = mp.mpf((_log_tail_fixed(mp.make_mpf(from_man_exp(x, -W)),
                                          mp.make_mpf(from_man_exp(r, -W)), wt), -wt)) \
                / mp.mpf((one - r, -W))
    return (-h if J % 2 else h), e, sigma, lam


def _poch_inf_exps_core(start, step, s):
    """prod_{j>=0} (1 - e^{-s(start + j*step)}) for integer start (possibly <= 0),
    within 2^(1-prec) relative; 1 when every factor is within 2^-(prec+8) of 1, and 0
    when a factor has start + j*step = 0.

    _poch_parts gives it within 2^-(prec+2) as h 2^-e e^{s sigma - lam}; one mp.exp,
    at prec + 8 bits plus the bits of s sigma, closes it, and one rounding to prec
    ends it.
    """
    n = int(mp.floor(((mp.mp.prec + 8) * LN2 / s - start) / step)) + 1
    if n <= 0:
        return mp.mpf(1)
    if start <= 0 and start % step == 0:
        return mp.mpf(0)
    p = mp.mp.prec
    h, e, sigma, lam = _poch_parts(start, step, s, p)
    with mp.workprec(p + 8 + sigma.bit_length() + max(0, mp.mag(s))):
        v = mp.ldexp(mp.mpf(h), -e) * mp.exp(s * sigma - lam)
    return +v


def _qq_inf_core(s, use_transform=None):
    """(q;q)_infinity at q = e^{-s}, at the ambient working precision.

    For small s the Dedekind-eta transformation
    (q;q)_inf = sqrt(2 pi / s) exp(-pi^2/(6s) + s/24) prod_n (1 - e^{-4 pi^2 n / s})
    converges in O(1) factors; the direct product is used otherwise.
    """
    if use_transform is None:
        use_transform = s < 3
    return _qq_inf_cached(mp.mpf(s), bool(use_transform), mp.mp.prec)


@lru_cache(maxsize=256)
def _qq_inf_cached(s, use_transform, prec):
    """_qq_inf_core's value; prec, the working precision it runs at, is part of the key."""
    if use_transform:
        return mp.sqrt(2 * mp.pi / s) * mp.exp(-mp.pi ** 2 / (6 * s) + s / 24) \
            * _poch_inf_exps_core(1, 1, 4 * mp.pi ** 2 / s)
    return _poch_inf_exps_core(1, 1, s)


def _cut_product(z, qv, cfg, cap_message):
    """prod_j (1 - z q^j) over the factors with |z q^j| > threshold (1 - q), or up
    to an exactly zero product; past max_terms factors, TermCapExceeded(cap_message)."""
    prod = mp.mpf(1)
    thr = cfg.threshold * (1 - qv)
    count = 0
    while abs(z) > thr:
        prod = prod * (1 - z)
        if prod == 0:
            break
        z = z * qv
        count += 1
        if count > cfg.max_terms:
            raise TermCapExceeded(cap_message)
    return prod


def _unit_q(q, what):
    """q at the working precision, checked to lie in 0 < q < 1."""
    qv = frac_to_mpf(q)
    if not (0 < qv < 1):
        raise NonConvergent(f"{what} needs 0 < q < 1, got q={q}")
    return qv


def pochhammer_num(z, q, cfg: EvalConfig):
    """(z; q)_infinity by direct product, truncated by the tail threshold."""
    def core():
        qv = _unit_q(q, "pochhammer product")
        return _cut_product(frac_to_mpf(z), qv, cfg, "pochhammer_num exceeded max_terms")
    return evaluate(cfg, 48, core)


def qq_infinity_num(s, cfg: EvalConfig, use_transform=None):
    """(q;q)_infinity at q = e^{-s}; transform route selectable for cross-checks."""
    check_positive(s, "s")
    return evaluate(cfg, 48, lambda: _qq_inf_core(frac_to_mpf(s), use_transform))


def _is_nonpositive_int(x, prec) -> bool:
    if isinstance(x, (int, Fraction)):
        return x.denominator == 1 and x <= 0
    if isinstance(x, (mp.mpc, complex)):
        if mp.im(x) != 0:
            return False
        x = mp.re(x)
    xv = mp.mpf(x)
    if xv > -0.5:
        return False
    return abs(xv - mp.nint(xv)) <= mp.mpf(2) ** (-(prec // 2))


def qsubz_num(x, q, cfg: EvalConfig):
    """(q;q)_x := (q;q)_infinity / (q^{x+1}; q)_infinity, valid for non-integer x."""
    if _is_nonpositive_int(_shift(x, 1), cfg.precision_bits):
        raise PoleAtNonpositive(f"(q;q)_x has a pole at x={x}")

    def core():
        qv = _unit_q(q, "(q;q)_x")
        num = _qq_inf_core(-mp.log(qv))
        zpow = mp.power(qv, frac_to_mpf(x) + 1)
        den = _cut_product(zpow, qv, cfg, "qsubz_num exceeded max_terms")
        if den == 0:
            raise PoleAtNonpositive(f"(q;q)_x hit a vanishing factor at x={x}")
        return num / den
    return evaluate(cfg, 48, core)


def _shift(x, d):
    """x + d, exact for int and Fraction x, else at the ambient precision."""
    if isinstance(x, (int, Fraction)):
        return x + d
    return frac_to_mpf(x) + d


def gamma_q_num(x, q, cfg: EvalConfig):
    """Gamma_q(x) = (q;q)_{x-1} (1-q)^{1-x}, principal branch for the power."""
    guard = 48

    def core():
        sub = qsubz_num(_shift(x, -1), q, EvalConfig(cfg.precision_bits + guard))
        return sub * mp.power(1 - frac_to_mpf(q), 1 - frac_to_mpf(x))
    return evaluate(cfg, guard, core)


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def theta_num(u, s, cfg: EvalConfig, use_inversion=None):
    """theta(e^{2 pi i u}, e^{-s}) = sum_n (-1)^n e^{2 pi i u n} e^{-s n^2}.

    Direct bilateral sum, or the modular inversion
    sqrt(pi/s) * sum_{n odd} exp(-pi^2 (n+2u)^2 / (4s)).
    u may be complex (u = i*a*s/(2*pi) gives the argument q^a); inversion is the
    default for s < 1 where the direct sum converges slowly. The direct sum is one
    loop for real and complex u, with e^{-s n^2} and z^n + z^-n, z = e^{2 pi i u},
    as running products. Its stop rule, a term below 2^-(p+32) max(largest term,
    |sum|), needs at least the n with s n^2 >= (p+32) ln2 - ln(2n+1); where that n
    passes max_terms it raises TermCapExceeded before any term, and so does the
    inversion where pi^2 (n + 2|Re u|)^2/(4s) stays below that bound for its odd
    n up to max_terms (for real u, the term at n against the largest). Both sums
    are sized by their measured cancellation, log2(largest term/|sum|), as gk_num's insum
    route is: past 16 bits (near a zero of theta) they rerun with guard and stop
    rule raised by it plus 16, at most 3 passes in all (_measured_evaluate).
    """
    check_positive(s, "s")
    sf = as_float(s)
    if use_inversion is None:
        use_inversion = sf < 1
    n = cfg.max_terms
    bits = (cfg.precision_bits + 32) * LN2 - math.log(2 * n + 1)
    if (2 * math.sqrt(bits * sf) / math.pi - 2 * abs(float(mp.re(frac_to_mpf(u)))) > n
            if use_inversion else sf * n * n < bits):
        raise TermCapExceeded(f"theta_num's {'inversion' if use_inversion else 'direct sum'}"
                              f" needs over max_terms terms at s={s}")
    return _measured_evaluate(cfg, _theta_sum, u, s, use_inversion)


def _theta_sum(u, s, use_inversion, cfg):
    """theta_num's sum at the ambient precision: (value, mpc for complex u and real
    otherwise; bits of cancellation, measured before the inversion's sqrt(pi/s)).
    Small terms are as in theta_num's stop rule: 2 in a row end the inversion, 3 direct."""
    complex_u = isinstance(u, (complex, mp.mpc)) and mp.im(u) != 0
    sv, part = frac_to_mpf(s), mp.mpc if complex_u else mp.re
    thr = cfg.threshold

    def inverted():
        uv, c = frac_to_mpf(u), mp.pi ** 2 / (4 * sv)
        for n in range(1, cfg.max_terms, 2):
            t = mp.exp(-c * (n + 2 * uv) ** 2) + mp.exp(-c * (n - 2 * uv) ** 2)
            yield n, t, abs(t)

    def direct():
        yield 0, mp.mpc(1), mp.mpf(1)
        # e = e^{-s n^2} from running multipliers, e *= d, d *= e^{-2s}; z^n, z^-n too
        e, d, d2 = mp.exp(-sv), mp.exp(-3 * sv), mp.exp(-2 * sv)
        z = mp.exp(2j * mp.pi * frac_to_mpf(u))
        zi = 1 / z
        zp, zpi = z, zi
        for n in range(1, cfg.max_terms):
            t = (zp + zpi) * e
            yield n, -t if n % 2 else t, abs(t)
            zp *= z
            zpi *= zi
            e, d = e * d, d * d2

    tot, maxmag = _sum_until(
        inverted() if use_inversion else direct(), 2 if use_inversion else 3,
        lambda _n, size, largest, total: size < thr * max(largest, abs(total)),
        f"theta_num {'inversion' if use_inversion else 'direct'} exceeded max_terms")
    return part(mp.sqrt(mp.pi / sv) * tot if use_inversion else tot), _lost_bits(maxmag, tot)


def _lost_bits(maxmag, tot):
    """About log2(maxmag/|tot|), the bits a sum has cancelled (0 for a zero sum)."""
    return max(0, mp.mag(maxmag) - mp.mag(tot)) if tot else 0


# ---------------------------------------------------------------------------
# the I_n sums and g_k itself
# ---------------------------------------------------------------------------

def _pm_seeds(k, s):
    """P_r = (q^{k+1-kr}; q^{k+1})_infinity for r = 0..k (the telescoping seeds)."""
    return [_qq_inf_core((k + 1) * s)] + [_poch_inf_exps_core(k + 1 - k * r, k + 1, s)
                                          for r in range(1, k + 1)]


def _pm_terms(k, s, seeds, max_terms):
    """Yield (m, P_m, (q^k;q^k)_m) for m < max_terms, with P_m = None where it vanishes.

    P_m = (q^{k+1-km}; q^{k+1})_infinity telescopes with period k+1 from the seeds:
    P_{m+k+1} = P_m * prod_{i=0}^{k-1} (1 - q^{-km - i(k+1)}). It is zero when
    (k+1) | m > 0, and those terms are skipped symbolically. The direct route runs
    on these mpf terms, apart from the insum route's fixed-point chains (_In_terms).
    """
    last = list(seeds)
    qk, qk_inv, q_inv_step = mp.exp(-s * k), mp.exp(s * k), mp.exp(s * (k + 1))
    poch, qkm = mp.mpf(1), qk        # (q^k;q^k)_m and q^{k(m+1)}
    qneg = mp.mpf(1)                 # q^{-k(m-k-1)} once m > k
    for m in range(max_terms):
        if m:
            poch, qkm = _qprod(qkm, qk, 1, poch)
        r = m % (k + 1)
        if m <= k:
            yield m, seeds[m], poch
            continue
        if r:
            last[r] = _qprod(qneg, q_inv_step, k, last[r])[0]
        yield m, last[r] if r else None, poch
        qneg *= qk_inv


def _sum_until(terms, run, small, cap_message):
    """Sum the (i, term, size) triples of terms until run triples in a row satisfy
    small(i, size, largest, total), largest the greatest size so far; returns
    (total, largest). A skipped term comes as an exact zero with a size. Past the
    last triple, TermCapExceeded(cap_message).

    Three loops stay outside it. _In_bins and wright's _Wj_series_core run the
    same kind of rule inline: the per-term generator expression and predicate call
    took about 0.3 s of the 1.58 s that a profile of 180 small-s verify points spent
    in _In_bins, and 18-26% of each W_j_num series op. _gk_insum_core's odd-n loop
    tests each weight before it adds the term, so this loop would add one more."""
    total, largest, row = 0, 0, 0
    for i, term, size in terms:
        total += term
        largest = size if size > largest else largest
        row = row + 1 if small(i, size, largest, total) else 0
        if row == run:
            return total, largest
    raise TermCapExceeded(cap_message)


def _m_rule(k, cfg):
    """(run, bits) of both m-sums: they stop after run = 2(k+1)+3 terms in a row
    below 2^-bits of the largest, bits = prec + 32."""
    return 2 * (k + 1) + 3, cfg.precision_bits + 32


def _In_head_bits(k, sf):
    """(h, L) of the truncation bound 2^h K^3 units, K = M + 1 + L (see _In_bins):
    h = v + 2 with 2^v >= e^{pi^2/(6ks)} (b = 0: the starts lie in (-1, 1)), L = 1/(ks)."""
    return math.ceil(math.pi ** 2 / (6 * k * sf * LN2)) + 2, 1 / (k * sf)


def _In_terms(k, s, starts, w, max_terms):
    """Yield (m, T_m) for m = 0 and every m < max_terms not divisible by k+1: T_m is
    2^w q^{c_m} P_m / ((q^k;q^k)_m P_0), truncated to an integer, from the chains
    u_r of _In_bins; its q-powers come from _q_pow(s, ., w)."""
    one = 1 << w
    qk = _q_pow(s, k, w)
    step = _q_pow(s, k * (k + 1), w)
    if k % 2:
        step = -step
    zs = [_q_pow(s, i * (k + 1), w) for i in range(1, k)]
    u = [one] + [to_fixed(x._mpf_, w) for x in starts]
    ys = [one] * (k + 1)        # ys[m mod (k+1)] = q^{km}, read back k+1 steps later
    y = v = one                 # q^{km} and 1/(q^k;q^k)_m
    yield 0, one
    for m in range(1, max_terms):
        r = m % (k + 1)
        x = ys[r]               # q^{k(m-k-1)} = q^{E_0}
        y = y * qk >> w
        ys[r] = y
        v = (v << w) // (one - y)
        if not r:
            continue
        t = u[r]
        if m > k:
            t -= t * x >> w
            for z in zs:
                e = x * z >> w  # q^{E_i}, which falls with i
                if not e:
                    break
                t -= t * e >> w
            u[r] = t = t * step >> w
        yield m, t * v >> w


def _In_bins(k, n, s, cfg):
    """The I_n m-loop, run once for every odd n; returns (bins, max term magnitude).

    Term m of I_n is e^{i pi m(n+k+1)/(k+1)} times the real
    T_m = q^{c_m} P_m / ((q^k;q^k)_m P_0), c_m = km(km+k+1)/(2(k+1)), and the phase
    has period 2(k+1) in m, so bins[r] sums T_m over m = r mod 2(k+1) and
    _In_from_bins applies the phases for any n. The (q^{k+1};q^{k+1})_{-km/(k+1)}
    denominators are P_m/(q^{k+1};q^{k+1})_inf (see _pm_terms).

    T_m = u_m V_m with u_m = q^{c_m} P_m/P_0 and V_m = 1/(q^k;q^k)_m. P_m telescopes
    within its residue class r = m mod (k+1) (zero for r = 0 < m), and the
    q-exponents telescope to a constant: for m > k,
    u_m = (-1)^k q^{k(k+1)} prod_{i<k} (1 - q^{E_i}) u_{m-k-1}, with
    E_i = km - k(k+1) + i(k+1) > 0, so every multiplier lies in (0, 1);
    V_m = V_{m-1}/(1 - q^{km}) <= 1/(q^k;q^k)_inf <= e^{pi^2/(6ks)} <= 2^v.
    The starts lie in (-1, 1), so 2^b = 1 bounds every |u_m|: P_r turns its r - 1
    factors at negative exponents around (_poch_parts), which leaves
    u_r = (-1)^{r-1} q^{r(r + (2k-1)(k+1))/(2(k+1))} prod_{0<i<r} (1 - q^{(k+1)i-r})
    prod_j (1 - q^{r+(k+1)j})/(1 - q^{(k+1)(j+1)}), every factor in (0, 1). So w is
    known before them, and they come from _poch_parts at p = w, within 2^-(w+1)
    relative, and one exp each: every q-power of the loop comes from the one table
    _q_squares(s, w). _In_terms runs the k chains u_r and V over Python integers at
    scale 2^-w. Each power is under 2 units off, each start under 2 and each
    truncation under one: the running q^{km} is off by under 3m units, u_m by
    1.5 (m+1)^2, V_m relatively by 2^-w m(1.5m + 2.5 + 3/(ks)), so after M values of m
    each bin is within 2^{b+v+2} K^3 units, K = M + 1 + 1/(ks) (_In_head_bits).
    With K sized from the term count of a decay like q^{km} from 2^v down to
    2^-prec, w = prec + b + v + 2 + 3 bitlen(K) makes that under 2^-prec, where
    prec is the working precision, and T_0 = 1 <= the largest term. The stop rule
    (_m_rule) runs on the integers in a plain loop (see _sum_until); the bins
    convert to mpf once. n only names the I_n in the max_terms error. The longest
    seed head, that of P_1, is checked against max_terms first (_check_head).
    """
    _check_head(1, k + 1, s)
    sf = as_float(s)
    head, lk = _In_head_bits(k, sf)
    m_est = (mp.mp.prec + head) * LN2 / (k * sf) + 3 * (k + 1)
    w = mp.mp.prec + head + 3 * int(m_est + 1 + lk).bit_length()
    parts = [_poch_parts(k + 1 - k * r, k + 1, s, w) for r in range(k + 1)]
    h0, e0, _, lam0 = parts[0]
    with mp.workprec(w + 16):
        starts = [mp.ldexp(mp.mpf(h) / h0, e0 - e) * mp.exp(
            lam0 - lam - s * frac_to_mpf(Fraction(k * r * (k * r + k + 1), 2 * (k + 1)) - sigma))
            for r, (h, e, sigma, lam) in enumerate(parts[1:], 1)]
    period = 2 * (k + 1)
    run, bits = _m_rule(k, cfg)
    bins, largest, row = [0] * period, 0, 0
    for m, t in _In_terms(k, s, starts, w, cfg.max_terms):
        bins[m % period] += t
        size = -t if t < 0 else t
        if size > largest:
            largest = size
        row = row + 1 if size << bits < largest else 0
        if row == run:
            return [mp.mpf((b, -w)) for b in bins], mp.mpf((largest, -w))
    raise TermCapExceeded(f"I_n loop exceeded max_terms at k={k}, n={n}, s={s}")


def _phase_roots(k):
    """The 2(k+1) phases e^{i pi j/(k+1)}, j = 0..2k+1, at the working precision."""
    return _phase_roots_cached(k, mp.mp.prec)


@lru_cache(maxsize=64)
def _phase_roots_cached(k, prec):
    """_phase_roots' value; prec, the working precision it runs at, is part of the key."""
    return tuple(mp.expjpi(frac_to_mpf(Fraction(j, k + 1))) for j in range(2 * (k + 1)))


def _In_from_bins(k, n, bins, roots):
    """I_n = sum_r e^{i pi r(n+k+1)/(k+1)} bins[r] (see _In_bins), each phase read
    from roots = _phase_roots(k) at j = r(n+k+1) mod 2(k+1). With the real parts of
    those roots for roots it gives Re I_n, the same bits as the real part of I_n,
    at a real multiplication per bin."""
    acc = 0
    for r, b in enumerate(bins):
        acc += roots[r * (n + k + 1) % (2 * (k + 1))] * b
    return acc


def I_n_num(k, n, s, cfg: EvalConfig):
    """I_n(s) = sum_m (-1)^m e^{i pi m n/(k+1)} q^{km(m+1)/2 - km^2/(2(k+1))}
    / ((q^k;q^k)_m (q^{k+1};q^{k+1})_{-km/(k+1)}), for odd n.

    Sized by its measured cancellation, log2(max(1, largest term)/|I_n|), as
    gk_num's insum route is (_measured_evaluate)."""
    check_k(k)
    if n % 2 == 0:
        raise ValueError("I_n is defined for odd n")
    check_positive(s, "s")

    def core(sub):
        bins, mm = _In_bins(k, n, frac_to_mpf(s), sub)
        val = _In_from_bins(k, n, bins, _phase_roots(k))
        return val, _lost_bits(max(mp.mpf(1), mm), val)
    return _measured_evaluate(cfg, core)


_GK_SERIES_CACHE: dict = {}  # k -> the longest exact g_k series computed


def _gk_series_core(k, s):
    """sum_{e <= order} c_e e^{-s e}, order = (prec + 16) ln2/s + 16 (TermCapExceeded
    past max_terms, before any series); the cached series may be longer."""
    s = frac_to_mpf(s)
    sf, bits = float(s), (mp.mp.prec + 16) * LN2
    if sf * (EvalConfig.max_terms - 15) <= bits:
        raise TermCapExceeded(f"g_k series needs order past max_terms at s={s}")
    order = int(bits / sf) + 16
    ser = keep_longest(_GK_SERIES_CACHE, k, order, lambda series: series.truncation_order,
                       lambda: qseries.gk_series_andrews(k, order))
    x = mp.exp(-s)
    acc = mp.mpf(0)
    for e, c in ser.items():
        if e > order:
            break
        acc += c * mp.power(x, e)
    return acc


def _gk_insum_core(k, s, cfg):
    """The theta-sum representation with the theta factors inverted and the sums
    regrouped over odd n (the exact odd-n decomposition of the relative error);
    the e^{pi^2/(6(k+1)s)}-scale cancellation of the plain m-sum never appears,
    though the regrouped sums still cancel as s falls (0 bits for k = 2..6 at
    s >= 0.05; for k = 2, 26 at s = 0.01 and 180 at s = 0.002). One m-loop
    (_In_bins) serves every odd n. The odd-n loop runs to n = sqrt((prec + 64)
    ln2/c) + 8 at most (at least 200), c = pi^2/(2k(k+1)s), where its weights have
    fallen below 2^-(prec+64); a cap past max_terms raises TermCapExceeded before
    any term. Returns (g_k, R_k, bits of cancellation of the odd-n sum against
    max(1, largest m-term)) for _measured_evaluate, which sizes cfg from it: the
    odd-n sum tot = sum_{n odd} 2 w_n Re I_n is R_k itself, and
    g_k = tot (q^{k+1};q^{k+1})_inf/(q^k;q^k)_inf sqrt(2 pi/(k(k+1)s)) e^{-c}. The
    weights w_n = e^{-c(n^2-1)} come from the one e^{-c} by running products,
    w_{n+2} = w_n e^{-4c(n+1)}. The odd-n loop tests each weight before it adds the
    term, so _sum_until, which adds first, would sum one more term and could change
    bits."""
    s = frac_to_mpf(s)
    c = mp.pi ** 2 / (2 * k * (k + 1) * s)
    cap = max(200, math.isqrt(int((mp.mp.prec + 64) * LN2 / c)) + 8)
    if cap > cfg.max_terms:
        raise TermCapExceeded(f"odd-n sum needs {cap} terms, past max_terms, at k={k}, s={s}")
    tot = mp.mpf(0)
    thr = cfg.threshold
    bins, mm = _In_bins(k, 1, s, cfg)
    imax = max(mp.mpf(1), mm)
    cos_roots = [z.real for z in _phase_roots(k)]
    e_c = mp.exp(-c)
    step8 = e_c ** 8
    w_n, mult, n = mp.mpf(1), step8, 1      # w_n = e^{-c(n^2-1)}, mult = e^{-4c(n+1)}
    while n < cap:
        if n > 1 and w_n * imax * 16 < thr * max(abs(tot), mp.mpf(1)):
            break
        tot += 2 * w_n * _In_from_bins(k, n, bins, cos_roots)
        w_n, mult, n = w_n * mult, mult * step8, n + 2
    else:
        raise NonConvergent(f"odd-n sum did not converge at k={k}, s={s}")
    ratio = _qq_inf_core((k + 1) * s) / _qq_inf_core(k * s)
    return (tot * ratio * mp.sqrt(2 * mp.pi / (k * (k + 1) * s)) * e_c, tot,
            _lost_bits(imax, tot))


def _gk_direct_core(k, s, cfg):
    """Plain theta-sum m-loop with each theta evaluated by its direct bilateral sum;
    kept as the cross-check oracle for the regrouped route (it carries the full
    m-sum cancellation, so the caller must provide matching guard bits).

    Term m is (-1)^m q^{km(m+1)/2} P_m theta_m / (q^k;q^k)_m with the inner theta
    theta_m = sum_nu (-1)^nu q^{k m nu + t nu^2}, t = k(k+1)/2. For m = (k+1)j + r,
    nu -> nu - j turns it into (-1)^j q^{-(t j^2 + k r j)} theta_r, so k+1 inner
    sums serve every m, each over the window its m had, shifted by j. Each sum
    starts at the integer c0 nearest its vertex -r/(k+1), where its terms are
    largest, and runs outward both ways. The exp that starts it then has the
    exponent x of least size in the window, which matters at huge s: rounding s
    to prec bits moves exp(-s x) by a factor up to e^{|s x| 2^-prec}.
    """
    s = frac_to_mpf(s)
    t_base = k * (k + 1) // 2
    width = math.sqrt((mp.mp.prec + 16) * LN2 / as_float(s) / t_base) + 2
    d_step = mp.exp(-2 * s * t_base)
    thetas = []
    for r in range(k + 1):
        # the terms e^{-s(k r nu + t nu^2)} come from running multipliers,
        # t *= d, d *= e^{-2 s t_base}, from c0 upward and from c0 downward
        center = -r / (k + 1)
        lo, hi = int(math.floor(center - width)), int(math.ceil(center + width))
        c0 = round(center)
        t0 = mp.exp(-s * (k * r * c0 + t_base * c0 * c0))
        th = -t0 if c0 % 2 else t0
        for e, nus in ((k * r + t_base * (2 * c0 + 1), range(c0 + 1, hi + 1)),
                       (-k * r + t_base * (1 - 2 * c0), range(c0 - 1, lo - 1, -1))):
            t, d = t0, mp.exp(-s * e)
            for nn in nus:
                t, d = t * d, d * d_step
                th += -t if nn % 2 else t
        thetas.append(th)

    def terms():
        for m, pm, poch_m in _pm_terms(k, s, _pm_seeds(k, s), cfg.max_terms):
            if pm is None:
                continue
            j, r = divmod(m, k + 1)
            e = k * m * (m + 1) // 2 - t_base * j * j - k * r * j
            term = mp.exp(-s * e) * pm * thetas[r] / poch_m
            yield m, -term if (m + j) % 2 else term, abs(term)

    run, bits = _m_rule(k, cfg)
    scale = 1 << bits
    acc, _ = _sum_until(terms(), run, lambda _m, size, largest, _total: size * scale < largest,
                        f"direct g_k m-sum exceeded max_terms at k={k}, s={s}")
    return acc / _qq_inf_core(k * s)


def _gk_route(k, s, route):
    """gk_num's route for (k, s) after its checks of k and s: "auto" is "series"
    for s >= 1 and "insum" below."""
    check_k(k)
    check_positive(s, "s")
    if route == "auto":
        return "series" if as_float(s) >= 1 else "insum"
    return route


def gk_num(k, s, cfg: EvalConfig, route: str = "auto"):
    """g_k(e^{-s}) to the configured precision.

    Routes: "series" sums the exact expansion (needs O(prec/s) coefficients, the
    default for s >= 1); "insum" is the theta-sum formula with inverted thetas regrouped as
    the odd-n sum (default for s < 1); "direct" is the plain m-sum with directly
    summed thetas, kept as the independent oracle for the other two.

    The insum route runs with 48 guard bits and measures its cancellation; above
    16 bits it runs again with its guard and stop rules raised by the
    cancellation plus 16, at most 3 passes before NonConvergent (_measured_evaluate).
    The direct route expects C = log2(e) (pi^2/(6(k+1)s) + 1/(k(k+1)s)) bits of
    cancellation: it runs with C + 96 guard bits and stops its m-sum at
    2^-(p+C+32) of its largest term. Where C + 96 passes 2^22 bits (s below about
    2.5e-7 for k = 2, or an s that underflows a float, read as C = inf) evaluate's
    ceiling raises NonConvergent before any conversion. The series route raises
    TermCapExceeded before any series where its order passes max_terms.
    """
    route = _gk_route(k, s, route)
    if route == "series":
        return evaluate(cfg, 64, _gk_series_core, k, s)
    if route == "insum":
        return _measured_evaluate(cfg, _gk_insum_core, k, s)[0]
    if route == "direct":
        sf = as_float(s)   # 0.0 for an s that underflows: C = inf
        cancel = int(min(1.4427 * math.pi ** 2 / (6 * (k + 1) * sf)
                         + 1.4427 / (k * (k + 1) * sf), 2.0 ** 62)) if sf else 1 << 62
        return evaluate(cfg, cancel + 96, _gk_direct_core, k, s,
                        EvalConfig(cfg.precision_bits + cancel))
    raise ValueError(f"unknown route {route!r}")


def relative_error_num(k, s, cfg: EvalConfig, route: str = "auto"):
    """R_k(q) = g_k(q) (q^k;q^k)_inf/(q^{k+1};q^{k+1})_inf

    * sqrt(k(k+1)s/(2 pi)) e^{pi^2/(2k(k+1)s)}, with q = e^{-s}."""
    return gk_and_relative_error_num(k, s, cfg, route)[1]


def gk_and_relative_error_num(k, s, cfg: EvalConfig, route: str = "auto"):
    """(g_k(e^{-s}), R_k(e^{-s})) to the configured precision from one g_k
    evaluation. On the insum route both come from its one pass, R_k being the odd-n
    sum (_gk_insum_core), so g_k is gk_num's value. The series and direct routes
    evaluate g_k at precision_bits + 32 bits and multiply it by R_k's factors, an
    independent check of that identity."""
    route = _gk_route(k, s, route)
    if route == "insum":
        return _measured_evaluate(cfg, _gk_insum_core, k, s)
    g = gk_num(k, s, EvalConfig(cfg.precision_bits + 32), route=route)

    def core():
        sv = frac_to_mpf(s)
        ratio = _qq_inf_core(k * sv) / _qq_inf_core((k + 1) * sv)
        return g, g * ratio * mp.sqrt(k * (k + 1) * sv / (2 * mp.pi)) \
            * mp.exp(mp.pi ** 2 / (2 * k * (k + 1) * sv))
    return evaluate(cfg, 64, core)
