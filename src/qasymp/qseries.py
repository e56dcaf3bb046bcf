"""Exact q-series: Pochhammer products, Jacobi theta, Andrews' theta-sum formula
for the no-k-consecutive-parts generating function, the DP partition oracle,
Euler's identities and the third-order mock theta function chi.

Everything returns a FormalSeries with exact integer/rational coefficients; the
truncation metadata guarantees no coefficient below the requested order is lost,
even though several building blocks are genuine Laurent series.

Every infinite product is a list of families (q^a; q^b)_inf, cut at the order
in one place (_poch_product), except (q^b; q^b)_inf, which is Euler's sparse
pentagonal series; a theta's terms come from its exact n-window (_theta_terms),
and so do the pentagonal terms. Every product of binomials and every quotient
runs on a dense integer list, one slice update per factor 1 +- q^e or division
by 1 - q^e; a factor with a negative exponent is turned around first,
1 - q^e = -q^e (1 - q^{-e}). Andrews' m-sum adds each theta term times
1/(q^k;q^k)_m as one slice, folds each residue class of m mod k+1 in Horner form
and divides by (q^k;q^k)_inf by Euler's pentagonal recurrence. chi is summed in
nested form; both forms of g_2's product side and Euler's identities run on
such lists. The DP oracle packs each row into one Python integer, one field per
exponent, highest exponent first (q^s is a right shift), drops rows past the
order and divides by (1 - q^s) by shifting and doubling.
"""
from __future__ import annotations

from math import floor, isqrt, log, pi, sqrt
from operator import add, sub

from .errors import check_at_least, check_k
from .exactcore import FormalSeries


# ---------------------------------------------------------------------------
# products of binomials (1 + eps * q^e)
# ---------------------------------------------------------------------------

def _times_binomial(c: list, eps: int, e: int) -> None:
    """c * (1 + eps*q^e) in place, e >= 1, c the dense coefficients of q^0, q^1, ..."""
    if e < len(c):
        c[e:] = map(add if eps > 0 else sub, c[e:], c[: len(c) - e])


def _divide_binomial(c: list, e: int) -> None:
    """c / (1 - q^e) in place, c the dense coefficients of q^0, q^1, ...:
    c[x] += c[x - e] in ascending x, one slice of e entries at a time."""
    for a in range(e, len(c), e):
        c[a: a + e] = map(add, c[a: a + e], c[a - e: a])


def _add_tails(a: tuple, b: tuple) -> tuple:
    """Sum of two (low, coefficients of q^low..q^order) pairs with the same
    order, added in place into the one with the lower start."""
    if a[0] > b[0]:
        a, b = b, a
    d = b[0] - a[0]
    a[1][d:] = map(add, a[1][d:], b[1])
    return a


def _poch_product(families, order: int) -> FormalSeries:
    """prod over (a, b) in families of (q^a; q^b)_infinity, exact to the given order:
    family (a, b) has max(0, -(a // b)) negative exponents, each turned around,
    1 - q^e = -q^e (1 - q^{-e}); with shift their sum over all families, the factors
    multiply one dense list up to q^{order-shift}, and one with e > order - shift is
    left out. A factor 1 - q^0, or an order below shift, gives the zero series."""
    shift = negatives = 0
    for a, b in families:
        neg = max(0, -(a // b))
        negatives += neg
        shift += neg * a + b * neg * (neg - 1) // 2
    n = order - shift + 1
    if n < 1 or any(a <= 0 and a % b == 0 for a, b in families):
        return FormalSeries.zero(order)
    c = [(-1) ** negatives] + [0] * (n - 1)
    for a, b in families:
        for m in range((order - shift - a) // b + 1):
            _times_binomial(c, -1, abs(a + m * b))
    return FormalSeries(shift, c, order)


def pochhammer_series(a: int, b: int, order: int) -> FormalSeries:
    """(q^a; q^b)_infinity = prod_{m>=0} (1 - q^{a+mb}), exact to the given order.

    Contains the factor (1 - q^0) = 0 exactly when a <= 0 and b | a, in which
    case the zero series is returned. For a == b it is Euler's pentagonal series
    (q^b; q^b)_inf = sum_n (-1)^n q^{b n(3n-1)/2}, whose exponents 3n^2 - n are
    those of theta(q^-1, q^3) up to 2 order/b; every other family multiplies out
    its binomials (_poch_product).
    """
    check_at_least(b, 1, "pochhammer base step b")
    if a == b:
        return FormalSeries.from_terms({e * b // 2: c for e, c in
                                        _theta_terms(-1, 3, 2 * order // b).items()}, order)
    return _poch_product([(a, b)], order)


def _divide_pentagonal(c: list, b: int) -> None:
    """c / (q^b; q^b)_inf in place, c the dense coefficients of q^0, q^1, ...:
    with Euler's pentagonal series (q^b; q^b)_inf = 1 + sum_{e>0} p_e q^e,
    c[x] -= sum_{0<e<=x} p_e c[x-e] in ascending x."""
    terms = list(pochhammer_series(b, b, len(c) - 1).items())[1:]
    for x in range(b, len(c)):
        acc = c[x]
        for e, p in terms:
            if e > x:
                break
            acc = acc + c[x - e] if p < 0 else acc - c[x - e]
        c[x] = acc


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def _theta_terms(m: int, t: int, order: int) -> dict:
    """The nonzero terms {exponent: coefficient} of theta(q^m, q^t) up to q^order:
    mn + tn^2 <= order exactly when |2tn + m| <= isqrt(m^2 + 4t order). When t | m,
    n and -m/t - n share an exponent; their terms are merged (cancel if m/t is odd)."""
    terms: dict[int, int] = {}
    d = m * m + 4 * t * order
    if d >= 0:
        r = isqrt(d)
        for n in range(-((m + r) // (2 * t)), (r - m) // (2 * t) + 1):
            e = m * n + t * n * n
            terms[e] = terms.get(e, 0) + (-1 if n % 2 else 1)
    return {e: c for e, c in terms.items() if c}


def theta_series(m: int, t: int, order: int) -> FormalSeries:
    """theta(q^m, q^t) = sum_{n in Z} (-1)^n q^{mn + t n^2}, truncated exactly."""
    check_at_least(t, 1, "theta base exponent t")
    return FormalSeries.from_terms(_theta_terms(m, t, order), order)


def theta_product_check(m: int, t: int, order: int) -> bool:
    """Verify the triple-product factorization of theta(q^m, q^t) to the given order.

    The factor families per n >= 1 are (1-q^{2tn}), (1-q^{m+t(2n-1)}) and
    (1-q^{-m+t(2n-1)}); only finitely many exponents are negative.
    """
    return theta_series(m, t, order).eq_to_order(
        _poch_product([(2 * t, 2 * t), (m + t, 2 * t), (t - m, 2 * t)], order), order)


# ---------------------------------------------------------------------------
# Andrews' theta-sum formula for g_k and the partition oracle
# ---------------------------------------------------------------------------

def _theta_min_exp(m: int, t: int) -> int:
    """Exact minimal exponent of theta(q^m, q^t): mn + tn^2 at one of the two
    integers around the vertex -m/(2t)."""
    n = -m // (2 * t)
    return min(m * n + t * n * n, m * (n + 1) + t * (n + 1) ** 2)


def gk_series_andrews(k: int, order: int) -> FormalSeries:
    """g_k(q) via the theta-sum representation, exact to the given order:

        g_k(q) (q^k;q^k)_inf = sum_m (-1)^m q^{km(m+1)/2} theta(q^{km}, q^{k(k+1)/2}) P_m / (q^k;q^k)_m,

    P_m = (q^{k+1-km}; q^{k+1})_infinity, which vanishes when (k+1) | m > 0. The
    m-sum stops once three terms in a row have an exact minimal exponent
    km(m+1)/2 + s_neg + (theta minimum) above the order, s_neg being the sum of
    P_m's negative exponents.

    Turning those factors around gives P_m = (-1)^{N_m} q^{s_neg} F_m S_r with
    r = m mod (k+1): S_r = (q^r; q^{k+1})_infinity ((q^{k+1}; q^{k+1})_infinity
    for m = 0) holds the positive factors, and F_m = F_{m-k-1} G_m the N_m
    turned-around ones, G_m being at most k binomials. An ascending pass keeps
    U_m = +-q^{km(m+1)/2 + s_neg} theta / (q^k;q^k)_m, one sparse-by-dense
    product each; a descending pass folds each residue class in Horner form,
    G_{m1}(U_{m1} + G_{m2}(U_{m2} + ...)), and multiplies by S_r once. Each U_m
    and each class sum is a dense list from its lowest possible exponent to
    q^order (_add_tails adds two of them). The sum is divided by
    (q^k;q^k)_infinity in place by Euler's pentagonal recurrence.
    """
    check_k(k)
    check_at_least(order, 0, "order")
    t_base = k * (k + 1) // 2
    n = order + 1
    invf: list = [1] + [0] * order  # inverse of (q^k;q^k)_m, maintained to full order
    u: dict[int, tuple] = {}         # m -> (low, U_m) for each m whose term reaches the order
    m = 0
    misses = 0
    while misses < 3:
        if m > 0:
            _divide_binomial(invf, k * m)
        if m > 0 and m % (k + 1) == 0:
            # (q^{k+1-km}; q^{k+1})_infinity contains the factor 1 - q^0
            m += 1
            continue
        cp = k * m * (m + 1) // 2
        neg = range(k + 1 - k * m, 0, k + 1)  # the negative exponents of P_m
        s_neg = sum(neg)
        th_min = _theta_min_exp(k * m, t_base)
        min_exp = cp + s_neg + th_min
        if min_exp < 0:
            raise RuntimeError(f"negative minimal exponent {min_exp} at k={k}, m={m}")
        if min_exp > order:
            misses += 1
            m += 1
            continue
        misses = 0
        sign = -1 if (m + len(neg)) % 2 else 1
        um = [0] * (n - min_exp)
        for e, c in _theta_terms(k * m, t_base, order - cp - s_neg).items():
            x = cp + s_neg + e - min_exp
            c *= sign
            if abs(c) == 1:
                um[x:] = map(add if c > 0 else sub, um[x:], invf[: len(um) - x])
            else:
                um[x:] = map(add, um[x:], [c * v for v in invf[: len(um) - x]])
        u[m] = (min_exp, um)
        m += 1
    total = (0, [0] * n)
    for r in range(k + 1):
        acc = None
        for mm in reversed(range(r, m if r else 1, k + 1)):
            term = u.pop(mm, None)
            if term is not None:
                acc = term if acc is None else _add_tails(acc, term)
            if acc is not None:
                # G_mm: the factors (1 - q^{km - (k+1)i}), i = 1..k, with positive exponent
                for e in range(k * mm - k - 1, max(k * mm - (k + 1) ** 2, 0), -k - 1):
                    _times_binomial(acc[1], -1, e)
        if acc is not None:
            for e in range(r or k + 1, n, k + 1):
                _times_binomial(acc[1], -1, e)
            total = _add_tails(total, acc)
    total = total[1]
    _divide_pentagonal(total, k)
    g = FormalSeries(0, total, order)
    if g.low_exponent < 0 or g.coefficient(0) != 1:
        raise RuntimeError(f"g_{k} expansion failed consistency check: low={g.low_exponent}")
    return g


def _field_bits(order: int) -> int:
    """Field width of the packed oracle to the given order: floor(log2 of
    exp(pi sqrt(2 order/3))) + 2 bits, rounded up to whole bytes."""
    return -(-(floor(pi * sqrt(2 * order / 3) / log(2)) + 2) // 8) * 8


def Gk_series_oracle(k: int, order: int) -> FormalSeries:
    """Generating function for partitions with no k consecutive part sizes.

    Dynamic programming over part sizes 1..order; the state is the run length
    of consecutively used sizes (0..k-1). Independent of the theta-sum formula.
    After size s, row r counts partitions that use s, s-1, ..., s-r+1 but not
    s-r: row 0 is the sum of the previous rows, and row r is the previous row
    r-1 times q^s/(1 - q^s). Its lowest exponent s + ... + (s-r+1), coefficient
    1, grows with r and s: the row list ends at the first row past the order.

    Each row is one Python integer holding the coefficient of q^x in bits
    (order-x)B..(order-x)B+B-1 (Kronecker packing, highest exponent first); a
    row with lowest exponent L has bit length (order - L)B + 1. Multiplying by
    q^s is a right shift by sB bits, which drops the fields past q^order.
    Doubling, h += h >> step*B while step <= order - L (while stepB is below the
    bit length), applies 1/(1 - q^s) = (1 + q^s)(1 + q^{2s})(1 + q^{4s})...
    Every coefficient, of a row, of a sum of rows or of a partial product,
    counts a set of partitions of some x <= order, so it is non-negative and at
    most p(order) <= exp(pi sqrt(2 order/3)), strictly for order >= 1 (Erdős,
    Ann. Math. 43 (1942)). B = _field_bits(order) exceeds log2 of that bound by
    more than one bit, so no sum reaches 2^B and no carry crosses into the next
    field. B is whole bytes, so the result unpacks in one to_bytes pass, most
    significant byte first.
    """
    check_k(k)
    check_at_least(order, 0, "order")
    n = order
    width = _field_bits(n)
    f = [1 << n * width]
    for size in range(1, n + 1):
        new = [sum(f)]
        for r in range(1, min(len(f) + 1, k)):
            h = f[r - 1] >> size * width
            if not h:
                break
            step = size
            while step * width < h.bit_length():
                h += h >> step * width
                step *= 2
            new.append(h)
        f = new
    w = width // 8
    data = sum(f).to_bytes((n + 1) * w, "big")
    return FormalSeries(0, [int.from_bytes(data[i: i + w], "big")
                            for i in range(0, len(data), w)], order)


def gk_from_oracle(k: int, order: int) -> FormalSeries:
    """g_k = G_k * (q;q)_infinity, with G_k from the DP oracle."""
    return Gk_series_oracle(k, order) * pochhammer_series(1, 1, order)


# ---------------------------------------------------------------------------
# chi and g_2's product side
# ---------------------------------------------------------------------------

def chi_series(order: int) -> FormalSeries:
    """Ramanujan's third-order mock theta function
    chi(q) = 1 + sum_{n>=1} q^{n^2} / prod_{j<=n} (1 - q^j + q^{2j}).

    Evaluated in nested form, innermost first: S_N = 1 for the largest N with
    N^2 <= order, S_{n-1} = 1 + q^{2n-1} S_n / (1 - q^n + q^{2n}), chi = S_0.
    S_n is needed only to order - n^2, and each division is the three-term
    recurrence y[x] = s[x] + y[x-n] - y[x-2n].
    """
    check_at_least(order, 0, "order")
    n = isqrt(order)
    s = [1] + [0] * (order - n * n)
    while n:
        for x in range(n, len(s)):
            s[x] += s[x - n] - (s[x - 2 * n] if x >= 2 * n else 0)
        s = [1] + [0] * (2 * n - 2) + s
        n -= 1
    return FormalSeries(0, s, order)


def g2_product_side(order: int) -> FormalSeries:
    """Product side of Andrews' mock theta identity for g_2:

        g_2(q) = chi(q) * prod_{n>=1} (1+q^{3n}) (1-q^n) / (1-q^{2n})
               = chi(q) * prod_{gcd(n,6)=1} (1-q^n)

    by Euler's identity (-q;q)_inf (q;q^2)_inf = 1, the factors (1 - q^e),
    e = +-1 mod 6, applied in place to chi's coefficient list, padded to q^order.
    Cross-checked against the theta-sum route, the DP oracle and the
    transfer-matrix model."""
    c = list(chi_series(order).coeffs)
    c += [0] * (order + 1 - len(c))
    for a in (1, 5):
        for e in range(a, order + 1, 6):
            _times_binomial(c, -1, e)
    return FormalSeries(0, c, order)


def g2_product_side_as_printed(order: int) -> FormalSeries:
    """The g_2 product exactly as displayed in the source identity,
    chi(q) * prod (1+q^{3n}) / ((1-q^n)(1-q^{2n})).

    Kept for the record: this form differs from g_2 already at q^1 (and blows up
    like exp(+5 pi^2/(18 s)) as q -> 1, so it cannot equal g_2); the display has
    (1-q^n) on the wrong side of the fraction bar. See g2_product_side.
    """
    c = list(chi_series(order).coeffs)
    c += [0] * (order + 1 - len(c))
    for n in range(1, order + 1):
        _times_binomial(c, 1, 3 * n)
        _divide_binomial(c, n)
        _divide_binomial(c, 2 * n)
    return FormalSeries(0, c, order)


# ---------------------------------------------------------------------------
# Euler's identities as two-variable truncated series
# ---------------------------------------------------------------------------

def euler_identity_check(order: int) -> bool:
    """Check both Euler identities for (z;q)_infinity as bivariate truncated series,
    with z-degree and q-order both capped at the given order; each z^n
    coefficient is a dense list of the coefficients of q^0..q^order."""
    check_at_least(order, 0, "order")
    d = order
    # a[n] = z^n coefficient of (z;q)_inf = prod_{m=0..d} (1 - z q^m), to z^d
    a = [[1] + [0] * d] + [[0] * (d + 1) for _ in range(d)]
    for m in range(d + 1):
        for n in range(d, 0, -1):
            a[n][m:] = map(sub, a[n][m:], a[n - 1][: d + 1 - m])
    # inv[n] = 1/(q;q)_n, built incrementally
    inv = [[1] + [0] * d]
    for n in range(1, d + 1):
        inv.append(list(inv[-1]))
        _divide_binomial(inv[-1], n)
    # per z^n: identity 1, (z;q)_inf * sum_n z^n/(q;q)_n == 1, by a dense
    # convolution, and identity 2, (z;q)_inf == sum_n (-1)^n z^n q^{n(n-1)/2}/(q;q)_n
    for n in range(d + 1):
        acc = [0] * (d + 1)
        for i in range(n + 1):
            for x, ax in enumerate(a[i]):
                if ax:
                    acc[x:] = map(add, acc[x:], [ax * v for v in inv[n - i][: d + 1 - x]])
        e = min(d + 1, n * (n - 1) // 2)
        if acc != [int(n == 0)] + [0] * d or \
                a[n] != [0] * e + [(-1) ** n * v for v in inv[n][: d + 1 - e]]:
            return False
    return True
