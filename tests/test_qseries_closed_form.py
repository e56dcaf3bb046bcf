"""The closed-form kernels of the exact q-series layer against plain references:
the Pochhammer-family product against an explicit factor list, the exact theta
window against a brute-force bilateral sum, the theta minimum against a scan,
and the triple product for negative m."""
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qasymp.exactcore import FormalSeries
from qasymp.qseries import (_poch_product, _theta_min_exp, _theta_terms,
                            theta_product_check, theta_series)
from test_exact_kernels import dict_binomial_product

families = st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6)), min_size=1, max_size=3)


def explicit_factors(fams, order):
    """Every factor 1 - q^{a+mb} with exponent up to order + 300: the negative
    exponents of three families with a >= -12 sum to at least -3 * 78, so no
    factor left out can reach q^order."""
    return [(-1, a + m * b) for a, b in fams for m in range((order + 300 - a) // b + 1)]


def brute_theta(m, t, order):
    terms = {}
    for n in range(-(order + abs(m) + 2), order + abs(m) + 3):
        e = m * n + t * n * n
        if e <= order:
            terms[e] = terms.get(e, 0) + (-1) ** (n % 2)
    return FormalSeries.from_terms(terms, order)


class TestPochProduct:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(families, st.integers(-3, 40))
    @example([(-4, 2)], 10)                      # contains 1 - q^0
    @example([(-7, 3), (0, 5), (5, 6)], 20)      # 1 - q^0 in the middle family
    @example([(-12, 5), (-11, 1), (3, 2)], 0)    # deep negative starts
    @example([(-12, 5), (-11, 1)], -3)
    def test_matches_explicit_factor_list(self, fams, order):
        got = _poch_product(fams, order)
        want = dict_binomial_product(explicit_factors(fams, order), order)
        assert (got.low, got.coeffs, got.trunc) == (want.low, want.coeffs, want.trunc)
        assert all(type(c) is int for c in got.coeffs)


class TestThetaWindow:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(-40, 40), st.integers(1, 8), st.integers(-3, 60))
    @example(6, 3, 40)     # t | m, m/t even: the terms of n and -2 - n double
    @example(-9, 3, 40)    # t | m, m/t odd: they cancel
    @example(-40, 8, 0)    # m/t = -5: the two lowest terms cancel at q^-48
    @example(0, 1, -3)     # no term at all
    def test_matches_brute_force(self, m, t, order):
        got = theta_series(m, t, order)
        assert got == brute_theta(m, t, order)
        assert _theta_terms(m, t, order) == dict(got.items())

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(-200, 200), st.integers(1, 40))
    def test_min_exponent_matches_scan(self, m, t):
        assert _theta_min_exp(m, t) == min(m * n + t * n * n for n in range(-210, 211))


class TestTripleProduct:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(-30, -1), st.integers(1, 6), st.integers(0, 40))
    @example(-3, 1, 20)    # m = -t(2n-1) at n = 2: a factor 1 - q^0, theta is zero
    def test_negative_m(self, m, t, order):
        assert theta_product_check(m, t, order)
