from fractions import Fraction as F

import pytest

from qasymp import qseries
from qasymp.errors import InvalidK
from qasymp.exactcore import FormalSeries
from qasymp.qseries import (Gk_series_oracle, _poch_product,
                            chi_series, euler_identity_check, g2_product_side,
                            g2_product_side_as_printed, gk_from_oracle,
                            gk_series_andrews, pochhammer_series,
                            theta_product_check, theta_series)


class TestPochhammer:
    def test_euler_pentagonal(self):
        # expanding the product reproduces the pentagonal-number pattern
        s = pochhammer_series(1, 1, 12)
        assert s == FormalSeries.from_terms(
            {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}, 12)

    def test_zero_factor(self):
        assert pochhammer_series(0, 1, 20).is_zero()
        assert pochhammer_series(-6, 3, 20).is_zero()

    def test_single_relevant_factor(self):
        assert pochhammer_series(2, 3, 2) == FormalSeries.from_terms({0: 1, 2: -1}, 2)

    def test_laurent_factors(self):
        # (q^{-2}; q^3)_inf has negative exponents before cancellation
        s = pochhammer_series(-2, 3, 6)
        assert s.low_exponent < 0
        assert s.truncation_order == 6

    def test_rejects_zero_step(self):
        with pytest.raises(ValueError):
            pochhammer_series(1, 0, 5)

    def test_zero_detection_matches_expanded_product(self):
        # a <= 0 and b | a: the family contains the factor 1 - q^0 = 0
        for a, b in ((-6, 3), (0, 1), (-4, 2)):
            assert _poch_product([(a, b)], 8).is_zero()
            assert pochhammer_series(a, b, 8).is_zero()


class TestTheta:
    def test_basic_sum(self):
        assert theta_series(0, 1, 9) == FormalSeries.from_terms(
            {0: 1, 1: -2, 4: 2, 9: -2}, 9)

    def test_pairwise_cancellation(self):
        # z = q: terms n and -(n+1) cancel in pairs
        assert theta_series(1, 1, 25).is_zero()

    def test_small_window(self):
        assert theta_series(2, 3, 5) == FormalSeries.from_terms({0: 1, 1: -1, 5: -1}, 5)

    def test_triple_product(self):
        assert theta_product_check(0, 1, 30)
        assert theta_product_check(2, 3, 40)
        assert theta_product_check(1, 1, 20)  # both sides vanish
        assert theta_product_check(-3, 2, 25)


def brute_force_Gk(k, nmax):
    """Count partitions of n <= nmax avoiding k consecutive part sizes, by
    exhaustive enumeration over bounded multiplicity vectors."""
    counts = [0] * (nmax + 1)

    def rec(size, remaining, run):
        if size > remaining:
            counts[nmax - remaining] += 1
            return
        # skip this size
        rec(size + 1, remaining, 0)
        # use it with some multiplicity
        if run < k - 1:
            total = size
            while total <= remaining:
                rec(size + 1, remaining - total, run + 1)
                total += size

    rec(1, nmax, 0)
    # counts[n] currently counts partitions of n with all parts <= nmax: exact for n <= nmax
    return counts


class TestOracle:
    def test_small_coefficients(self):
        g = Gk_series_oracle(2, 4)
        assert [g.coefficient(i) for i in range(5)] == [1, 1, 2, 2, 4]

    def test_q5_coefficient(self):
        # the four partitions of 5: {5}, {4,1}, {3,1,1}, {1^5}
        assert Gk_series_oracle(2, 5).coefficient(5) == 4

    def test_k3_trivial(self):
        g = Gk_series_oracle(3, 2)
        assert [g.coefficient(i) for i in range(3)] == [1, 1, 2]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_brute_force(self, k):
        n = 14
        expected = brute_force_Gk(k, n)
        g = Gk_series_oracle(k, n)
        assert [g.coefficient(i) for i in range(n + 1)] == expected

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            Gk_series_oracle(1, 5)
        with pytest.raises(InvalidK):
            gk_series_andrews(0, 5)


class TestAndrewsFormula:
    def test_constant_term(self):
        g = gk_series_andrews(2, 0)
        assert g.coefficient(0) == 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_oracle_equivalence(self, k):
        assert gk_series_andrews(k, 40).eq_to_order(gk_from_oracle(k, 40), 40)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_power_series_with_unit_constant(self, k):
        g = gk_series_andrews(k, 30)
        assert g.low_exponent >= 0
        assert g.coefficient(0) == 1

    def test_zero_summands_are_exactly_the_k_plus_1_multiples(self):
        # the term-skip criterion: (q^{k+1-km}; q^{k+1}) vanishes iff (k+1) | m
        for k in (2, 3, 4):
            for m in range(1, 3 * (k + 1) + 1):
                vanishes = pochhammer_series(k + 1 - k * m, k + 1, 10).is_zero()
                assert vanishes == (m % (k + 1) == 0)

    def test_gk_from_oracle_order_zero(self):
        assert gk_from_oracle(2, 0) == FormalSeries.one(0)


class TestChiAndG2:
    def test_constant(self):
        assert chi_series(0) == FormalSeries.one(0)

    def test_order_one(self):
        # n=1 term is q/(1-q+q^2) = q + q^2 - q^4 - ...
        assert chi_series(1) == FormalSeries(0, [1, 1], 1)

    def test_low_order_against_naive_expansion(self):
        # independent route: invert each denominator from scratch at full order
        order = 16
        expected = FormalSeries.one(order)
        den = FormalSeries.one(order)
        n = 1
        while n * n <= order:
            tri = FormalSeries.from_terms({0: 1, n: -1, 2 * n: 1}, order)
            den = den * tri
            expected = expected + den.invert().shift(n * n)
            n += 1
        assert chi_series(order).eq_to_order(expected, order)

    def test_mock_theta_identity(self):
        # g_2 = chi * prod (1+q^{3n})(1-q^n)/(1-q^{2n}), exactly
        assert gk_series_andrews(2, 40).eq_to_order(g2_product_side(40), 40)

    def test_as_printed_product_differs(self):
        # the identity as displayed in the source places (1-q^n) in the
        # denominator; that form differs from g_2 already at q^1
        g2 = gk_series_andrews(2, 10)
        printed = g2_product_side_as_printed(10)
        assert g2.coefficient(1) != printed.coefficient(1)

    @pytest.mark.parametrize("order", [0, 1, 10, 60])
    def test_as_printed_matches_series_algebra(self, order):
        # the in-place list kernels against FormalSeries multiply and invert
        plus = FormalSeries.one(order)
        for n in range(1, order // 3 + 1):
            plus = plus * (FormalSeries.one(order) + FormalSeries.monomial(1, 3 * n, order))
        den = pochhammer_series(1, 1, order) * pochhammer_series(2, 2, order)
        assert g2_product_side_as_printed(order) == chi_series(order) * plus * den.invert()


class TestEuler:
    @pytest.mark.parametrize("order", [1, 10, 25])
    def test_identities(self, order):
        assert euler_identity_check(order)

    def test_detects_a_perturbed_division(self, monkeypatch):
        # 1/(q;q)_n off in its last coefficient breaks the check
        divide = qseries._divide_binomial

        def perturbed(c, e):
            divide(c, e)
            c[-1] += 1

        monkeypatch.setattr(qseries, "_divide_binomial", perturbed)
        assert not euler_identity_check(8)
