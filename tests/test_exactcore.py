import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasymp import exactcore
from qasymp.errors import InvertAtZero, SeriesTruncationError
from qasymp.exactcore import (FormalSeries, ZPolynomial, bernoulli_number,
                              bernoulli_polynomial, rational_to_str)


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == F(-1, 2)
        # standard recurrence sum_{i<m} C(m+1,i) B_i = 0 gives B_2 = 1/6, B_3 = 0
        assert bernoulli_number(2) == F(1, 6)
        assert bernoulli_number(3) == 0
        assert bernoulli_number(12) == F(-691, 2730)

    def test_odd_vanish(self):
        for m in range(3, 31, 2):
            assert bernoulli_number(m) == 0

    def test_polynomials_small(self):
        assert bernoulli_polynomial(0) == ZPolynomial([F(1)])
        assert bernoulli_polynomial(1) == ZPolynomial([F(-1, 2), F(1)])
        assert bernoulli_polynomial(3) == ZPolynomial([F(0), F(1, 2), F(-3, 2), F(1)])

    def test_value_at_zero_matches_numbers(self):
        for m in range(31):
            assert bernoulli_polynomial(m)(0) == bernoulli_number(m)

    def test_difference_identity(self):
        # B_m(x+1) - B_m(x) = m x^{m-1}, exactly as polynomials
        for m in range(1, 21):
            bm = bernoulli_polynomial(m)
            lhs = bm.compose_affine(F(1), F(1)) - bm
            rhs = ZPolynomial([F(0)] * (m - 1) + [F(m)])
            assert lhs == rhs

    def test_degree(self):
        for m in (0, 1, 5, 10):
            assert bernoulli_polynomial(m).degree == m


    def test_threaded_fill_of_empty_cache(self, monkeypatch):
        # eight threads extending an emptied cache at once must append each B_m once
        serial = [bernoulli_number(m) for m in range(61)]
        monkeypatch.setattr(exactcore, "_BERNOULLI", [F(1)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=bernoulli_number, args=(60,)) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(exactcore._BERNOULLI) == 61
        assert exactcore._BERNOULLI == serial


class TestPolynomial:
    def test_compose_affine_identity(self):
        p = ZPolynomial([F(0), F(0), F(1)])  # x^2
        assert p.compose_affine(F(1), F(0)) == p

    def test_compose_affine_degree_one(self):
        p = ZPolynomial([F(0), F(1)])  # x
        assert p.compose_affine(F(-3, 4), F(1)) == ZPolynomial([F(1), F(-3, 4)])

    def test_compose_affine_expansion(self):
        p = ZPolynomial([F(0), F(0), F(1)])  # x^2 -> (2z+1)^2 = 4z^2+4z+1
        assert p.compose_affine(F(2), F(1)) == ZPolynomial([F(1), F(4), F(4)])

    def test_eval_exact(self):
        p = ZPolynomial([F(1), F(-3, 2), F(1, 2)])
        assert p(F(2)) == 1 - 3 + 2


class TestSeriesBasics:
    def test_invert_geometric(self):
        s = FormalSeries(0, [1, -1], 3)
        assert s.invert() == FormalSeries(0, [1, 1, 1, 1], 3)

    def test_mul_inverse_pair(self):
        a = FormalSeries(0, [1, -1], 3)
        b = FormalSeries(0, [1, 1, 1, 1], 3)
        assert (a * b) == FormalSeries(0, [1], 3)

    def test_invert_at_zero_raises(self):
        with pytest.raises(InvertAtZero):
            FormalSeries.zero(5).invert()

    def test_read_beyond_truncation_raises(self):
        s = FormalSeries(0, [1], 3)
        with pytest.raises(SeriesTruncationError):
            s.coefficient(4)

    def test_mul_truncation_metadata(self):
        # Laurent factor: (q^-2 + 1) known to order 3 times monomial q^5
        a = FormalSeries(-2, [1, 0, 1], 3)
        b = FormalSeries.monomial(1, 5, 40)
        # unknown tail of a (beyond q^3) lands at q^8; product known only to 8
        assert (a * b).truncation_order == 8

    def test_serialization_round_trip(self):
        s = FormalSeries(-1, [F(-7, 192), 0, F(5)], 4)
        pairs = s.to_pairs()
        assert pairs == [(-1, "-7/192"), (1, "5/1")]

    def test_rational_strings(self):
        assert rational_to_str(F(-7, 192)) == "-7/192"
        assert rational_to_str(4) == "4/1"


def small_fracs():
    return st.fractions(min_value=-4, max_value=4, max_denominator=6)


def series_strategy(min_len=1, max_len=6):
    return st.builds(
        lambda low, coeffs, extra: FormalSeries(low, coeffs, low + len(coeffs) - 1 + extra),
        st.integers(min_value=-3, max_value=3),
        st.lists(small_fracs(), min_size=min_len, max_size=max_len),
        st.integers(min_value=0, max_value=3),
    )


class TestSeriesProperties:
    @settings(max_examples=60, deadline=None)
    @given(series_strategy(), series_strategy())
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(series_strategy(), series_strategy())
    def test_mul_matches_schoolbook(self, a, b):
        # independent naive convolution over the known windows
        prod = a * b
        conv = {}
        for i, ca in enumerate(a.coeffs):
            for j, cb in enumerate(b.coeffs):
                e = a.low_exponent + i + b.low_exponent + j
                conv[e] = conv.get(e, F(0)) + ca * cb
        for e in range(min(conv, default=0), prod.truncation_order + 1):
            assert prod.coefficient(e) == conv.get(e, F(0))

    @settings(max_examples=40, deadline=None)
    @given(series_strategy(), series_strategy(), series_strategy())
    def test_mul_associative(self, a, b, c):
        # associativity up to the common truncation, via explicit coefficients
        ab_c = (a * b) * c
        a_bc = a * (b * c)
        order = min(ab_c.truncation_order, a_bc.truncation_order)
        lo = min(ab_c.low_exponent, a_bc.low_exponent, 0)
        for e in range(lo, order + 1):
            assert ab_c.coefficient(e) == a_bc.coefficient(e)

    @settings(max_examples=60, deadline=None)
    @given(series_strategy())
    def test_invert_then_mul_is_one(self, a):
        if a.is_zero():
            return
        inv = a.invert()
        prod = a * inv
        for e in range(prod.low_exponent, prod.truncation_order + 1):
            assert prod.coefficient(e) == (1 if e == 0 else 0)

    @settings(max_examples=60, deadline=None)
    @given(series_strategy(), series_strategy())
    def test_coefficients_stay_reduced(self, a, b):
        for _, c in (a * b).items():
            f = F(c)
            from math import gcd
            assert gcd(f.numerator, f.denominator) == 1 and f.denominator > 0

    @settings(max_examples=40, deadline=None)
    @given(series_strategy(), series_strategy(), series_strategy())
    def test_distributive(self, a, b, c):
        lhs = a * (b + c)
        rhs = a * b + a * c
        order = min(lhs.truncation_order, rhs.truncation_order)
        lo = min(lhs.low_exponent, rhs.low_exponent, 0)
        for e in range(lo, order + 1):
            assert lhs.coefficient(e) == rhs.coefficient(e)
