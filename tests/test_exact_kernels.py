"""Kernels of the exact layer against plain reference implementations: the dense
binomial product, nonzero-only series multiply and invert, the slice sum of two
series, chi in nested form and the DP oracle that skips known zeros; plus frozen
digests of the tables the exact-tables benchmark computes."""
import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import seed as hypothesis_seed
from hypothesis import strategies as st

from qasymp.errors import InvertAtZero
from qasymp.exactcore import FormalSeries
from qasymp.qseries import (Gk_series_oracle, _binomial_product, chi_series,
                            finite_pochhammer_series, g2_product_side, gk_from_oracle,
                            gk_series_andrews, pochhammer_series)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _mul_binomial(cur, eps, e, cap):
    """cur * (1 + eps*q^e) on a dict of exponents, keeping exponents <= cap."""
    new = {}
    for x, c in cur.items():
        for xe, v in ((x, c), (x + e, eps * c)):
            if xe <= cap:
                new[xe] = new.get(xe, 0) + v
    return {x: c for x, c in new.items() if c}


def dict_binomial_product(factors, order):
    """Negative exponents first, each under the cap order - (pending negative sum)."""
    const = 1
    for eps, e in factors:
        if e == 0:
            const *= 1 + eps
    if const == 0:
        return FormalSeries.zero(order)
    neg = sorted((f for f in factors if f[1] < 0), key=lambda f: f[1])
    pos = [f for f in factors if f[1] > 0]
    pending = sum(e for _, e in neg)
    cur = {0: const}
    for eps, e in neg:
        pending -= e
        cur = _mul_binomial(cur, eps, e, order - pending)
    for eps, e in pos:
        cur = _mul_binomial(cur, eps, e, order)
    return FormalSeries.from_terms(cur, order)


def dense_mul(a, b):
    """Every coefficient pair, zeros included, then the truncation rule."""
    def low_eff(s):
        return s.low_exponent if not s.is_zero() else s.truncation_order + 1

    t = min(a.truncation_order + low_eff(b), b.truncation_order + low_eff(a))
    terms = {}
    for ea in range(a.low_exponent, a.truncation_order + 1):
        for eb in range(b.low_exponent, b.truncation_order + 1):
            if ea + eb <= t:
                terms[ea + eb] = terms.get(ea + eb, 0) + a.coefficient(ea) * b.coefficient(eb)
    return FormalSeries.from_terms(terms, t)


def dense_invert(a):
    """out[n] = -(1/a0) sum_{i=1..n} a_i out[n-i] over every i."""
    la, n_rel = a.low_exponent, a.truncation_order - a.low_exponent
    c = [F(a.coefficient(la + i)) for i in range(n_rel + 1)]
    out = [1 / c[0]]
    for n in range(1, n_rel + 1):
        out.append(-sum(c[i] * out[n - i] for i in range(1, n + 1)) / c[0])
    return FormalSeries(-la, out, n_rel - la)


def dict_add(a, b):
    """The nonzero terms of both operands up to the common truncation, summed in a dict."""
    t = min(a.truncation_order, b.truncation_order)
    terms = {}
    for x in (a, b):
        for e, c in x.items():
            if e <= t:
                terms[e] = terms.get(e, 0) + c
    return FormalSeries.from_terms(terms, t)


def plain_oracle(k, order):
    """The run-length DP over every exponent of every row."""
    n = order
    f = [[0] * (n + 1) for _ in range(k)]
    f[0][0] = 1
    for size in range(1, n + 1):
        tot = [sum(row[x] for row in f) for x in range(n + 1)]
        new = [tot]
        for r in range(1, k):
            h = [0] * (n + 1)
            for x in range(size, n + 1):
                h[x] = f[r - 1][x - size] + h[x - size]
            new.append(h)
        f = new
    return FormalSeries(0, [sum(row[x] for row in f) for x in range(n + 1)], order)


def random_series(rng, laurent=True, fraction_lead=False):
    lo = rng.randint(-6, 6) if laurent else rng.randint(0, 6)
    length = rng.randint(0, 25)
    cs = [rng.choice([0, 0, 0, 0, 1, -1, 3, F(rng.randint(-7, 7), rng.randint(1, 5))])
          for _ in range(length)]
    if cs:
        cs[0] = F(rng.randint(1, 9), rng.randint(2, 9)) if fraction_lead else rng.choice([1, -1, 2])
    return FormalSeries(lo, cs, lo + length + rng.randint(-1, 10) if cs else lo + 5)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestBinomialProduct:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dict_product(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            factors = [(rng.choice([1, -1]), rng.randint(-12, 30))
                       for _ in range(rng.randint(0, 14))]
            if rng.random() < 0.15:
                factors.append((1, 0))  # (1 + q^0) = 2
            if rng.random() < 0.1:
                factors.append((-1, 0))  # (1 - q^0) = 0
            order = rng.randint(0, 40)
            assert _binomial_product(factors, order) == dict_binomial_product(factors, order)

    def test_negative_exponents_below_the_order(self):
        # all factors negative: the product lives entirely below q^0
        factors = [(-1, -3), (1, -5), (-1, -1)]
        for order in (-9, -4, 0, 3):
            assert _binomial_product(factors, order) == dict_binomial_product(factors, order)

    def test_whole_product_above_the_order(self):
        assert _binomial_product([(-1, -2), (1, 7)], -3).is_zero()
        assert _binomial_product([(-1, -2), (1, 7)], -3).truncation_order == -3

    def test_pochhammers_with_negative_starts(self):
        for a in range(-9, 4):
            for b in range(1, 5):
                for order in (0, 7, 33):
                    # every factor whose exponent can reach the order
                    s_neg = sum(a + m * b for m in range(max(0, -a // b + 1)) if a + m * b < 0)
                    factors = [(-1, a + m * b) for m in range(max(0, (order - s_neg - a) // b + 1))]
                    assert pochhammer_series(a, b, order) == \
                        dict_binomial_product(factors, order), (a, b, order)
                    assert finite_pochhammer_series(a, b, 5, order) == \
                        dict_binomial_product(factors[:5], order)


class TestOrdersBelowEveryTerm:
    def test_zero_when_every_term_lies_above_the_order(self):
        assert pochhammer_series(1, 1, -1) == FormalSeries.zero(-1)
        assert finite_pochhammer_series(2, 1, 3, -2) == FormalSeries.zero(-2)

    def test_negative_start_keeps_its_term(self):
        assert pochhammer_series(-1, 2, -1) == FormalSeries(-1, [-1], -1)


@st.composite
def series_strategy(draw):
    coeffs = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, F(1, 3), F(-5, 2)]), max_size=14))
    low = draw(st.integers(-8, 8))
    return FormalSeries(low, coeffs, low + len(coeffs) - 1 + draw(st.integers(0, 8)))


class TestSeriesAddition:
    @hypothesis_seed(20261018)
    @settings(max_examples=400, deadline=None)
    @given(series_strategy(), series_strategy())
    def test_matches_dict_sum(self, a, b):
        for x, y in ((a, b), (b, a), (a, -a)):
            got, want = x + y, dict_add(x, y)
            assert got == want
            assert [type(c) for _, c in got.items()] == [type(c) for _, c in want.items()]

    def test_zero_and_disjoint_operands(self):
        a = FormalSeries(-3, [1, 0, F(1, 2)], 6)
        far = FormalSeries(8, [5], 9)  # entirely above a's truncation
        for x, y in ((a, FormalSeries.zero(2)), (FormalSeries.zero(4), FormalSeries.zero(-1)),
                     (a, far), (far, a)):
            assert x + y == dict_add(x, y)


class TestSeriesArithmetic:
    @pytest.mark.parametrize("seed", range(10))
    def test_mul_matches_dense(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(30):
            a = random_series(rng, laurent=rng.random() < 0.5, fraction_lead=rng.random() < 0.3)
            b = random_series(rng, laurent=rng.random() < 0.5)
            assert a * b == dense_mul(a, b)
            assert b * a == dense_mul(a, b)

    @pytest.mark.parametrize("seed", range(10))
    def test_invert_matches_dense(self, seed):
        rng = random.Random(200 + seed)
        for _ in range(30):
            a = random_series(rng, laurent=rng.random() < 0.5, fraction_lead=rng.random() < 0.4)
            if a.is_zero():
                with pytest.raises(InvertAtZero):
                    a.invert()
                continue
            inv = a.invert()
            assert inv == dense_invert(a)
            one = a * inv
            assert one.eq_to_order(FormalSeries.one(one.truncation_order), one.truncation_order)

    def test_sparse_operands(self):
        qq = pochhammer_series(1, 1, 300)
        sparse = FormalSeries.from_terms({-4: 1, 17: -3, 90: F(5, 2)}, 250)
        assert qq * sparse == dense_mul(qq, sparse)
        assert qq.invert() == dense_invert(qq)
        assert sparse.invert() == dense_invert(sparse)

    def test_truncation_metadata(self):
        a = FormalSeries(-3, [2, 0, 0, 1], 4)
        b = FormalSeries(5, [F(1, 3)], 9)
        prod = a * b
        assert (prod.low_exponent, prod.truncation_order) == (2, 6)
        inv = a.invert()
        assert (inv.low_exponent, inv.truncation_order) == (3, 10)
        assert isinstance(inv.coefficient(3), F)


class TestChi:
    @pytest.mark.parametrize("order", range(61))
    def test_matches_definition(self, order):
        want = FormalSeries.one(order)
        den = FormalSeries.one(order)
        n = 1
        while n * n <= order:
            den = den * FormalSeries.from_terms(
                {e: c for e, c in ((0, 1), (n, -1), (2 * n, 1)) if e <= order}, order)
            want = want + den.invert().shift(n * n)
            n += 1
        got = chi_series(order)
        assert got == want
        assert (got.low_exponent, got.truncation_order) == (0, order)


class TestOracle:
    @pytest.mark.parametrize("k", range(2, 13))
    def test_andrews_equals_oracle(self, k):
        assert gk_series_andrews(k, 150) == gk_from_oracle(k, 150)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_equals_dp_without_skipping(self, k):
        for order in (0, 1, 2, 9, 60):
            assert Gk_series_oracle(k, order) == plain_oracle(k, order)


# SHA-256 of to_json(), low exponent and truncation order, as computed by the
# dict-based products, dense inversion, per-n chi and full-row oracle that
# preceded these kernels
FROZEN = {
    ("andrews", 2, 240): "beae04a26f12b4e557c0e339aeb49cffaa5a273062b0dfcd76c8b82abace21bd",
    ("andrews", 3, 280): "859e852673ab1cd4e7e9c9d1397b43e5ac93b16119e1c01329c950c1b581d478",
    ("andrews", 4, 300): "a0d0e472c6af6833642361502bc4fe513db40d25a90db281defbbe8896c360b6",
    ("andrews", 5, 340): "a83db62565a6b56f97d1b795522558bc19910232bc553e542888ab1b4b79776e",
    ("andrews", 6, 360): "a1b45376705f3766b07ae0f103686f23ce191e586e116d8214da60afd098dac9",
    ("oracle", 2, 400): "78c4b904d2ff6bff924f71dad1e73e1a02608f256dbae1be3a5bef47ea9099dc",
    ("oracle", 3, 400): "72f4aa418e40aaf75a546c2742662dd93fbec48d6849ed3f010262217c9d5620",
    ("oracle", 4, 400): "1cc85d7f68762e45c366fdabc4ae084b1e276e7d1db40c7534b3e16722b31ece",
    ("oracle", 5, 400): "f263004fdfc2a5e51951c0acb72704850d4b2d476170c27be2a3537321b85454",
    ("oracle", 6, 400): "1bd79bce2759f578e41b3debfa4297b6a64dfe3b51454aab5225d9824307be5d",
    ("chi", None, 400): "199fd3dc9b5abd43deff7602e13ed058f57298980023569b88b15473f3fbc9e3",
    ("g2", None, 300): "7d1c5891a72bce328e370651162ebc12344af18c452047c573f21c0fde3a7802",
    ("qq", None, 1200): "e71c7d7b54fa45ee0775dd6830c0da0714e7683d48b7ed38653e71e1f0eae34a",
    ("qq_inverse", None, 1200): "e1d8e2d6e031622e457ddc62016aafedbba8822929af9aeb2df3534d1b2c9498",
}

COMPUTE = {
    "andrews": gk_series_andrews,
    "oracle": Gk_series_oracle,
    "chi": lambda k, n: chi_series(n),
    "g2": lambda k, n: g2_product_side(n),
    "qq": lambda k, n: pochhammer_series(1, 1, n),
    "qq_inverse": lambda k, n: pochhammer_series(1, 1, n).invert(),
}


@pytest.mark.parametrize("key", sorted(FROZEN, key=str), ids=str)
def test_frozen_digest(key):
    kind, k, order = key
    series = COMPUTE[kind](k, order)
    assert (series.low_exponent, series.truncation_order) == (0, order)
    assert hashlib.sha256(series.to_json().encode()).hexdigest() == FROZEN[key]
