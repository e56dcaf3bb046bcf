"""Reference values computed apart from qasymp.

Nothing here imports qasymp. The exact routes use plain integer lists and
``fractions.Fraction``; the numeric routes use mpmath directly (``mp.qp``,
``mp.qgamma``, ``mp.rgamma``). Each function says which identity or definition
it evaluates, so a check built on it does not share code with the program.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

import mpmath as mp

# Zagier's published k = 3 tables: t1[m] = beta_3(1+3m)/beta_3(1) and
# t2[m] = 5 beta_3(2+3m)/beta_3(2), m = 0..5.
ZAGIER_T1 = (
    Fraction(1), Fraction(-7, 192), Fraction(-97, 6912), Fraction(-40061, 2654208),
    Fraction(-18915331, 1911029760), Fraction(-13796617247, 489223618560),
)
ZAGIER_T2 = (
    Fraction(5), Fraction(-29, 48), Fraction(19435, 55296), Fraction(-14885, 110592),
    Fraction(51970999, 191102976), Fraction(-28436136277, 183458856960),
)


# ---------------------------------------------------------------------------
# exact coefficient lists (index = exponent of q)
# ---------------------------------------------------------------------------

def pentagonal(order: int) -> list[int]:
    """(q;q)_inf by Euler's pentagonal-number theorem:
    sum_{m in Z} (-1)^m q^{m(3m-1)/2}."""
    out = [0] * (order + 1)
    m = 0
    while m * (3 * m - 1) // 2 <= order:
        sign = -1 if m % 2 else 1
        for e in {m * (3 * m - 1) // 2, m * (3 * m + 1) // 2}:
            if e <= order:
                out[e] += sign
        m += 1
    return out


def partition_numbers(order: int) -> list[int]:
    """p(n) for n <= order, by adding one allowed part size at a time."""
    p = [1] + [0] * order
    for part in range(1, order + 1):
        for n in range(part, order + 1):
            p[n] += p[n - part]
    return p


def no_run_counts(k: int, order: int) -> list[int]:
    """Number of partitions of n with no k consecutive part sizes, n <= order.

    Walks the part sizes from the largest down. The state is the length of the
    run of consecutive sizes used just above the current one; a used size
    contributes q^size/(1 - q^size) (multiplicity at least one).
    """
    states = {0: [1] + [0] * order}
    for size in range(order, 0, -1):
        nxt: dict[int, list[int]] = {}
        skip = nxt.setdefault(0, [0] * (order + 1))
        for run, coeffs in states.items():
            for n, c in enumerate(coeffs):
                skip[n] += c
            if run + 1 < k:
                used = nxt.setdefault(run + 1, [0] * (order + 1))
                # coeffs * q^size / (1 - q^size)
                acc = [0] * (order + 1)
                for n in range(size, order + 1):
                    acc[n] = coeffs[n - size] + acc[n - size]
                for n in range(size, order + 1):
                    used[n] += acc[n]
        states = nxt
    total = [0] * (order + 1)
    for coeffs in states.values():
        for n, c in enumerate(coeffs):
            total[n] += c
    return total


def brute_force_no_run_counts(k: int, order: int) -> list[int]:
    """The same counts by listing every partition of n <= order."""
    counts = [0] * (order + 1)

    def walk(remaining, max_part, sizes, n):
        if _has_run(sizes, k):
            return  # adding smaller parts never removes a run
        counts[n] += 1
        for part in range(min(remaining, max_part), 0, -1):
            walk(remaining - part, part, sizes | {part}, n + part)

    walk(order, order, frozenset(), 0)
    return counts


def _has_run(sizes, k):
    return any(all(s + i in sizes for i in range(k)) for s in sizes)


def series_mul(a, b, order: int) -> list:
    """Truncated product of two coefficient lists."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def chi_coefficients(order: int) -> list[int]:
    """Ramanujan's chi(q) = 1 + sum_{n>=1} q^{n^2} prod_{j<=n} (1+q^j)/(1+q^{3j}),
    using 1 - x + x^2 = (1 + x^3)/(1 + x)."""
    total = [1] + [0] * order
    prod = [1] + [0] * order
    n = 1
    while n * n <= order:
        for x in range(order, n - 1, -1):      # * (1 + q^n)
            prod[x] += prod[x - n]
        for x in range(3 * n, order + 1):       # / (1 + q^{3n})
            prod[x] -= prod[x - 3 * n]
        for x in range(n * n, order + 1):
            total[x] += prod[x - n * n]
        n += 1
    return total


def g2_product_coefficients(order: int) -> list[int]:
    """chi(q) prod_{n>=1} (1 + q^{3n})/(1 + q^n), Andrews' product side of g_2."""
    out = chi_coefficients(order)
    for n in range(1, order + 1):
        if 3 * n <= order:
            for x in range(order, 3 * n - 1, -1):
                out[x] += out[x - 3 * n]
        for x in range(n, order + 1):
            out[x] -= out[x - n]
    return out


def gk_coefficients(k: int, order: int) -> list[int]:
    """g_k = G_k (q;q)_inf from the benchmark's own count and Euler's theorem."""
    return series_mul(no_run_counts(k, order), pentagonal(order), order)


# ---------------------------------------------------------------------------
# numeric values
# ---------------------------------------------------------------------------

def to_mpf(x):
    """A decimal string, Fraction or int converted exactly, at working precision;
    an mpf passes through."""
    if isinstance(x, mp.mpf):
        return +x
    f = Fraction(x)
    return mp.mpf(f.numerator) / f.denominator


def g2_mock_theta(s, prec: int):
    """g_2(e^{-s}) = chi(q) (-q^3;q^3)_inf / (-q;q)_inf with plain mpmath."""
    with mp.workprec(prec):
        q = mp.exp(-to_mpf(s))
        chi = mp.mpf(1)
        den = mp.mpf(1)
        n = 1
        while True:
            qn = q ** n
            den *= 1 - qn + qn * qn
            term = q ** (n * n) / den
            chi += term
            if term < mp.eps * chi:
                break
            n += 1
        return chi * mp.qp(-q ** 3, q ** 3) / mp.qp(-q, q)


def gk_from_counts(k: int, s, prec: int):
    """g_k(e^{-s}) summed from the exact coefficients of gk_coefficients."""
    with mp.workprec(prec + 16):
        sv = to_mpf(s)
        order = int((prec + 32) * 0.6932 / float(sv)) + 8
        q = mp.exp(-sv)
        acc = mp.mpf(0)
        for c in reversed(gk_coefficients(k, order)):
            acc = acc * q + c
        return acc


def qq_inf(s, prec: int):
    """(q;q)_inf at q = e^{-s} by mpmath's own q-Pochhammer."""
    with mp.workprec(prec):
        return mp.qp(mp.exp(-to_mpf(s)))


def relative_error_from_g(k: int, s, g, prec: int):
    """R_k = g (q^k;q^k)_inf/(q^{k+1};q^{k+1})_inf sqrt(k(k+1)s/(2 pi)) e^{pi^2/(2k(k+1)s)}."""
    with mp.workprec(prec):
        sv = to_mpf(s)
        qk = mp.exp(-k * sv)
        qk1 = mp.exp(-(k + 1) * sv)
        return mp.mpf(g) * mp.qp(qk, qk) / mp.qp(qk1, qk1) \
            * mp.sqrt(k * (k + 1) * sv / (2 * mp.pi)) \
            * mp.exp(mp.pi ** 2 / (2 * k * (k + 1) * sv))


def w_of_s(k: int, s, prec: int):
    """The Wright argument w(s) = (k+1)^{k/(k+1)} / (k s^{1/(k+1)}) of the expansion."""
    with mp.workprec(prec):
        return mp.power(k + 1, mp.mpf(k) / (k + 1)) / (k * mp.power(to_mpf(s), mp.mpf(1) / (k + 1)))


def wright_phi_direct(rho: Fraction, z, j: int, prec: int):
    """sum_n n^j z^n / (n! Gamma(1 - rho n)); poles of Gamma are skipped exactly.

    The working precision covers the largest term, estimated from the peak of
    |z|^n Gamma(rho n) / n!."""
    zabs = float(abs(mp.mpc(z)))
    r = float(rho)
    peak_bits = (1 - r) * r ** (r / (1 - r)) * zabs ** (1 / (1 - r)) * 1.4427 if zabs > 1 else 0
    with mp.workprec(prec + int(peak_bits) + 48):
        z = mp.mpc(z)
        tot = mp.mpc(0)
        power = mp.mpf(1)
        tiny = mp.mpf(2) ** (-(prec + 24))
        quiet = 0
        n = 0
        while quiet < 8:
            if n:
                power = power * z / n
            arg = 1 - rho * n
            if arg.denominator == 1 and arg <= 0:
                term = mp.mpc(0)
                size = abs(power) * mp.gamma(to_mpf(rho * n)) / mp.pi
            else:
                term = power * mp.rgamma(to_mpf(arg)) * (n ** j if j else 1)
                size = abs(term)
            tot += term
            quiet = quiet + 1 if (n > 4 and size < tiny) else 0
            n += 1
        return tot


def wright_W(k: int, j: int, w, prec: int):
    """W_j(w) = 2 Re phi_j(k/(k+1), 1; e^{-i pi k/(k+1)} w), summed directly."""
    rho = Fraction(k, k + 1)
    with mp.workprec(prec + 32):
        z = to_mpf(w) * mp.expjpi(-to_mpf(rho))
        return 2 * mp.re(wright_phi_direct(rho, z, j, prec))


def b_coefficient(k: int, ell: int, prec: int):
    """b_k(l) = (k+1)/(k pi l!) (-1)^{l+1} sin(pi l (k-1)/k) Gamma(l (k+1)/k); 0 when k | l."""
    if ell % k == 0:
        return mp.mpf(0)
    with mp.workprec(prec + 32):
        arg = Fraction(ell * (k - 1), k)
        whole = arg.numerator // arg.denominator
        sine = (-1) ** whole * mp.sinpi(to_mpf(arg - whole))
        return mp.mpf(k + 1) / (k * mp.pi * factorial(ell)) * (-1) ** (ell + 1) * sine \
            * mp.gamma(to_mpf(Fraction(ell * (k + 1), k)))


def wright_W_asymptotic(k: int, j: int, w, terms: int, prec: int):
    """Large-w expansion of W_j through l = terms - 1, and its first omitted
    nonzero term: [j = 0](k+1)/k + sum_l (-l(k+1)/k)^j b_k(l) w^{-l(k+1)/k}."""
    with mp.workprec(prec + 32):
        wv = to_mpf(w)

        def term(ell):
            e = to_mpf(Fraction(ell * (k + 1), k))
            return (-e) ** j * b_coefficient(k, ell, prec) * mp.power(wv, -e)

        total = mp.mpf(k + 1) / k if j == 0 else mp.mpf(0)
        for ell in range(1, terms):
            total += term(ell)
        ell = terms
        while ell % k == 0:
            ell += 1
        return total, term(ell)


def zagier_constants(prec: int):
    """c1 = 3^{-1/6} Gamma(1/3)/(8 pi) and c2 = 3^{1/6} Gamma(2/3)/(32 pi)."""
    with mp.workprec(prec):
        c1 = mp.power(3, -mp.mpf(1) / 6) * mp.gamma(mp.mpf(1) / 3) / (8 * mp.pi)
        c2 = mp.power(3, mp.mpf(1) / 6) * mp.gamma(mp.mpf(2) / 3) / (32 * mp.pi)
        return c1, c2


def beta_leading(k: int, j: int, prec: int):
    """beta_k(j) for 1 <= j <= k, where only the r = 0 term exists:
    b_k(j) (k+1)^{-j} k^{j(k+1)/k}."""
    with mp.workprec(prec + 32):
        return b_coefficient(k, j, prec) * mp.power(k + 1, -j) \
            * mp.power(k, to_mpf(Fraction(j * (k + 1), k)))


def hq_leading(k: int, j: int) -> Fraction:
    """a_{2j,j} = (k/(4(k+1)))^j / j!: only the s z^2 term of log h_q reaches z^{2j} s^j."""
    return Fraction(k, 4 * (k + 1)) ** j / factorial(j)


def hq_definition(k: int, z, s, prec: int):
    """h_q(z) from its definition with mpmath's q-Gamma:
    q^{k^2 z^2/(2(k+1)) + kz/2} Gamma(z+1) Gamma(1-kz/(k+1))
    / (Gamma_{q^k}(z+1) Gamma_{q^{k+1}}(1-kz/(k+1)))
    ((1-q^{k+1})/((k+1)s))^{kz/(k+1)} (ks/(1-q^k))^z."""
    with mp.workprec(prec):
        sv = to_mpf(s)
        zv = to_mpf(z)
        q = mp.exp(-sv)
        qk = q ** k
        qk1 = q ** (k + 1)
        a = zv + 1
        b = 1 - mp.mpf(k) / (k + 1) * zv
        return mp.power(q, mp.mpf(k * k) / (2 * (k + 1)) * zv * zv + mp.mpf(k) / 2 * zv) \
            * mp.gamma(a) * mp.gamma(b) / (mp.qgamma(a, qk) * mp.qgamma(b, qk1)) \
            * mp.power((1 - qk1) / ((k + 1) * sv), mp.mpf(k) / (k + 1) * zv) \
            * mp.power(k * sv / (1 - qk), zv)
