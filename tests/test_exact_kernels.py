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
from qasymp.expansion import f2j_polynomial, hq_bivariate
from qasymp.qseries import (Gk_series_oracle, _poch_product, _times_binomial, chi_series,
                            g2_product_side, gk_from_oracle, gk_series_andrews,
                            pochhammer_series)


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
        # the in-place kernel with both signs, (1 + q^e) and (1 - q^e), e >= 1
        rng = random.Random(seed)
        for _ in range(25):
            factors = [(rng.choice([1, -1]), rng.randint(1, 30))
                       for _ in range(rng.randint(0, 14))]
            order = rng.randint(0, 40)
            c = [1] + [0] * order
            for eps, e in factors:
                _times_binomial(c, eps, e)
            assert FormalSeries(0, c, order) == dict_binomial_product(factors, order)

    def test_negative_exponents_below_the_order(self):
        # (q^-5; q^2)_inf turns three factors around: the product starts at q^-9
        factors = [(-1, -5 + 2 * m) for m in range(12)]
        for order in (-9, -4, 0, 3):
            assert _poch_product([(-5, 2)], order) == dict_binomial_product(factors, order)

    def test_whole_product_above_the_order(self):
        # (q^-2; q^9)_inf starts at q^-2: the zero series, keeping its order
        assert _poch_product([(-2, 9)], -3).is_zero()
        assert _poch_product([(-2, 9)], -3).truncation_order == -3

    def test_pochhammers_with_negative_starts(self):
        for a in range(-9, 4):
            for b in range(1, 5):
                for order in (0, 7, 33):
                    # every factor whose exponent can reach the order
                    s_neg = sum(a + m * b for m in range(max(0, -a // b + 1)) if a + m * b < 0)
                    factors = [(-1, a + m * b) for m in range(max(0, (order - s_neg - a) // b + 1))]
                    assert pochhammer_series(a, b, order) == \
                        dict_binomial_product(factors, order), (a, b, order)


class TestOrdersBelowEveryTerm:
    def test_zero_when_every_term_lies_above_the_order(self):
        assert pochhammer_series(1, 1, -1) == FormalSeries.zero(-1)

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
            assert one.eq_to_order(FormalSeries(0, [1], one.truncation_order),
                                   one.truncation_order)

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
        want = FormalSeries(0, [1], order)
        den = FormalSeries(0, [1], order)
        n = 1
        while n * n <= order:
            den = den * FormalSeries.from_terms(
                {e: c for e, c in ((0, 1), (n, -1), (2 * n, 1)) if e <= order}, order)
            # times q^{n^2}, known to order + n^2 as den.invert() is known to order
            want = want + den.invert() * FormalSeries.monomial(1, n * n, 2 * order)
            n += 1
        got = chi_series(order)
        assert got == want
        assert (got.low_exponent, got.truncation_order) == (0, order)


class TestOracle:
    @pytest.mark.parametrize("k", range(2, 13))
    def test_andrews_equals_oracle(self, k):
        assert gk_series_andrews(k, 150) == gk_from_oracle(k, 150)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_andrews_at_every_small_order(self, k):
        # orders where min_exp, the three-miss stop and the turned-around negative
        # exponents decide which terms enter
        for order in range(61):
            got, want = gk_series_andrews(k, order), gk_from_oracle(k, order)
            assert got.to_json() == want.to_json()
            assert (got.low_exponent, got.truncation_order) == (want.low_exponent,
                                                                 want.truncation_order)

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


# SHA-256 of hq_bivariate(k, j_max).to_json() and of repr(f2j_polynomial(k, j).coeffs)
# (which shows the coefficient types), as computed by the Fraction recurrence over
# ZPolynomial and the composition of Bernoulli polynomials that preceded the
# integer recurrence and the closed form
FROZEN_TABLES = {
    ("hq", 2, 16): "8078048fde0c8f3f789855b16354b75fd24e01037ca0f989627750b5a18bdac2",
    ("hq", 3, 16): "9b8059fa3a682b38e2ab8d17e11b57eac7fd90bd25cca0056dbc4d501a009d0f",
    ("hq", 4, 16): "6b9007da969d70c126e24db406d50d9e6aafa8a3c0e0f46baa1cf7e240cd36a8",
    ("hq", 5, 16): "112609f63d4974863028496bced002ded73b68d4ca233f0c370d74c9381310c5",
    ("hq", 6, 16): "d6040fed69a78320b1aa2c610e575ff73d5866a04e15ea51423e1294e7e41dc5",
    ("hq", 3, 64): "d74dd9d157575ca6b8b6e964a22774244ed1f08b1db818bff89ce524a17d0a02",
    ("f2j", 2, 1): "7020c3427b7b8903cc8ccad48f7cdecde17a7b71acdf99d3bca8164ba58c99f9",
    ("f2j", 2, 2): "bb1b3d417ddd3f31fff2523198c9351c3cb8613a7c12e58abf62e1bcd4d7dd7e",
    ("f2j", 2, 3): "50b866caa28986dbbbba714ff14e04545a467296cdceb6f7ca1e5ff79885a129",
    ("f2j", 2, 4): "37b298dd4e197b936469b29ad6404bb88fd026b53244e7f598d9ed759e8ce28e",
    ("f2j", 2, 5): "017bb0d451a39577c650aea695217e62094897cf3f66a4639f141c08bef487ae",
    ("f2j", 2, 6): "0656845d3d9f21972e42b879f55549a505b3b88ba0292d57d27898832c5a1004",
    ("f2j", 2, 7): "ed3842c74768bb371417fd159812ef6e3f75eed0d1ca97865e33f45abd9ffa66",
    ("f2j", 2, 8): "4f463b48457d577ebe969ff8ae707a9685626cc419782edbd6ce6a24352c7541",
    ("f2j", 2, 9): "a9f1ebb35c1914858eb8af228ec08e90b29fe2ba88cb9da9804fcde1c34edcae",
    ("f2j", 2, 10): "41f1b9422daef9628dcd4b52b8408fa5aed433f92b7a37b32c68ac7ab534df1d",
    ("f2j", 2, 11): "f5c33b9a50b8e523197f8ef82c77d28f0d7498eb7e64b9af8ce5963b3b766b75",
    ("f2j", 3, 1): "b1444e2c4a69b83a84f65755c5cadb4238bb8e2f2afc78d55f07d2ac890b5d7c",
    ("f2j", 3, 2): "d1ec8ce003afdd3c3aefcdaf5c9031453e466055ca19dcd2685bb389ae283386",
    ("f2j", 3, 3): "0fecf7a5d5688c3b36cd10a2fa98a53ee98512b32313dc28951b30e46111aaee",
    ("f2j", 3, 4): "906580292bb6d894c51939b5264aee1696c3ad5368985c0dea132b5dc7e4c251",
    ("f2j", 3, 5): "a9e97e1a5b5a77abce68cbbc60b2b0617bc5d05b86cf6673b276f5624383a5ab",
    ("f2j", 3, 6): "792273e658beac1587a7fa5b232a289f6ae1effa83054fd32f5a860d92338138",
    ("f2j", 3, 7): "481a873a645c174a0378ea3c349a2e89779b693a6d8cf1b70d2582ae38722d73",
    ("f2j", 3, 8): "9e5bde9bf95f5e520e949dd1a54634a665a9509b96d8a844f9ff85be01a49371",
    ("f2j", 3, 9): "c43dcda9c32df7f1266a4f0aabefb62e8d4e938b10a978232c700548a011ac35",
    ("f2j", 3, 10): "135fcb96f8e9ee32b20b03526bb945cad944aea573da75e0db53a09446a776e4",
    ("f2j", 3, 11): "6ddf21cc9f6cac0e23b728e71de2e625b9262b3bd91a5b0fc2b0f9806c130e9c",
    ("f2j", 4, 1): "4be0946847fb5c81a275d200ef2c25a745fc05eb11fdd86881ad02e54e73e10f",
    ("f2j", 4, 2): "df043da9a911c9eeb0ad0fcc85d0042787a65bb2cd0d67289edd153c66f0bdb2",
    ("f2j", 4, 3): "4a9eefbf68650f3aed93a0170a7743ca055cc19a01a4e113add7f7a7b91513a1",
    ("f2j", 4, 4): "222d56503926560a43a80963767f68a8d72e63f9bb60c3c454a34f8ce457a9d6",
    ("f2j", 4, 5): "dd99650071f34f7fb224ea1a9ea0c365b7ab6d87dfceb176e599265b038fb5a8",
    ("f2j", 4, 6): "af78a891e333e7e3b8439ed3f8f0b78812d809a39741553dd2ce0da7e9510d1e",
    ("f2j", 4, 7): "63a746b5fbdc39f87557b27afd1f6244bb23849db8cda8bf60ed37e8a5e3d9d7",
    ("f2j", 4, 8): "a004372c58641cf55eb53858049d1e55df6e3793b85dd56662f910d8c194281e",
    ("f2j", 4, 9): "9606f5ea07596df62ce128122cccddd457e0bac175ed76beac2a861c0d368e14",
    ("f2j", 4, 10): "071ee05e350555cab59e8309d24ffabc26b80a3adb612684b8754607659a2d5e",
    ("f2j", 4, 11): "e835bf4a1768481eb40e3e7c71fe331e4dc154b859d45a9b1d64ce5a87d70a10",
    ("f2j", 5, 1): "a39285dc7fb136754f3a87cde1b2d427aeddebf9919e2c9ddd832b350ceddff2",
    ("f2j", 5, 2): "d3f057291e6eb2caa72f114724e302591e56f5de83c768b4b97e9565f31f9706",
    ("f2j", 5, 3): "d46cf44ca96d3de7974faed0d61e3090efd1f3b63786a49bc0eaedc9aca186be",
    ("f2j", 5, 4): "bcec34a46a0dfb38e02509f097262f40e5821bf65399446d819289bdda3306f6",
    ("f2j", 5, 5): "c153c58aa7d0bdfe52fa408208a2ee6556ae2b341a54d5e6221d0307a9017360",
    ("f2j", 5, 6): "e54400e0a3e451d258c4cc6d8e587201f21330eb04bd0506e8b90ab19674a396",
    ("f2j", 5, 7): "5a83ff75983d253e00fd0ddcc4142bef67e9f36acee7399ed67f1fecf3e3f623",
    ("f2j", 5, 8): "06bc16162ff9fd2e48951708576428df13a80ae6973880abeaa1dc05224d0ebe",
    ("f2j", 5, 9): "1c3dd8a05d074bc1fe30496110b42123a33eaa95b6a601b56851d84871356e6c",
    ("f2j", 5, 10): "414b507ee121d18c7b463ab2fbfa7d60c8190a6b01914d8b81794b72f20ac265",
    ("f2j", 5, 11): "2b4e8da0f645a6e6a484b2c661ba25763861a82402833383feeca50332a111b8",
    ("f2j", 6, 1): "7a2705cdcb65b0c7a4f06caf078c307ec97702ab30f6b60014c2c01decb109b5",
    ("f2j", 6, 2): "cc6d7183378062f9ff1fd48703d5b8c51ffb19b213c43ca73b8079f0d6e4ecbd",
    ("f2j", 6, 3): "707bad309ad8080d0251a98f48a4b257fe71cc3ad1c5ff50767c95ee77b266a3",
    ("f2j", 6, 4): "8cb4b815bb75dd68e032d54adf3dd25bea5f57782e2c8c535cb6e3e12bf6a887",
    ("f2j", 6, 5): "faf07e92a88ed9690103954beee841d57e8e452d454302083c72361f2b7c94b4",
    ("f2j", 6, 6): "dbd7a9b8ae0f1cee7913695cd9776bba227389195952ab26393d7004fd40d1aa",
    ("f2j", 6, 7): "d0e9604ca8028422b3e89f70171464f16eb1c0aa5e5f6c88ed40c8420ffe9136",
    ("f2j", 6, 8): "80d77ae5771fcd41d8f955563430dad7904e4c0119c5c2709bf11e0fc12f16dd",
    ("f2j", 6, 9): "034609f63b49fa28370de82c28983d6a10d52996d5fd11d842464484875b254a",
    ("f2j", 6, 10): "4d9bcb79e603fdd1792e21b7e6ed9ab0efd8f418287a70184de82c4fa80e3477",
    ("f2j", 6, 11): "4a7cf07e26b84d8f507461c877048848e62a189d5ee82e5b35bfcf98ee1a18b1",
    ("f2j", 7, 1): "22e5479cbe2a4074ab6d49b57a4b412cd26db1d4520e2c7f81051e6d3bc65417",
    ("f2j", 7, 2): "17318903c7d6cba07a568e3987b818c6c85308911c37d4ca80285a348fcef18f",
    ("f2j", 7, 3): "9e9d075000938a24cf63eae91f2933d13716c9ac6b8bb3611dd8b68682f9aef5",
    ("f2j", 7, 4): "db61b5d30caf162e880d6844f6a71efec6b3ebd6695f03a932d49c58872cd00f",
    ("f2j", 7, 5): "b9abb3ecb676dbe6fb55e630ffc55705aedc9ced8721de88932e3362b8f72d6d",
    ("f2j", 7, 6): "12738b7487d52d43ee2c4ee83109df96050ea9e90bb6990d86922faae4232ac7",
    ("f2j", 7, 7): "b65dbedf6e16e4d048cfd048bdd2e0cb455a203c7930dfb5fc66cfd47a9b06da",
    ("f2j", 7, 8): "af7f34f2a4a4e5dc26bb454627391dc0e4344d7c280ff8b282da5a9e297b3d19",
    ("f2j", 7, 9): "1e2e973a9b936571d0e7f7adc15a260ace4fc22624e8252e6f6ddb6f8ff79875",
    ("f2j", 7, 10): "e5b7743d8813080305e2768f09af6018cba3fc14e868714b14679536dd81e240",
    ("f2j", 7, 11): "92e1164aa09afadc4cd1c61cd5c93cd656e963bc7b196f4926e9c536c03bce6b",
}


@pytest.mark.parametrize("key", sorted(FROZEN_TABLES), ids=str)
def test_frozen_table_digest(key):
    kind, k, n = key
    if kind == "hq":
        biv = hq_bivariate(k, n)
        assert all(type(c) is F for row in biv.table for c in row)
        text = biv.to_json()
    else:
        text = repr(f2j_polynomial(k, n).coeffs)
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_TABLES[key]
