"""The packed DP oracle and Andrews' per-class Horner fold against independent
references: seeded random orders against the row-by-row DP and against each
other, and the oracle's field width where its coefficients are largest."""
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digest_parts
from qasymp.qseries import (Gk_series_oracle, _field_bits, gk_from_oracle,
                            gk_series_andrews, pochhammer_series)
from test_exact_kernels import plain_oracle


class TestAgainstReferences:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(2, 12), st.integers(0, 200))
    def test_andrews_matches_oracle(self, k, order):
        assert digest_parts(gk_series_andrews(k, order)) == digest_parts(gk_from_oracle(k, order))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(2, 12), st.integers(0, 200))
    def test_packed_oracle_matches_row_by_row_dp(self, k, order):
        got = Gk_series_oracle(k, order)
        assert got == plain_oracle(k, order)
        assert all(type(c) is int for c in got.coeffs)


def _k_without_runs(n):
    """The least k with k(k+1)/2 > n: no partition of x <= n has k consecutive
    part sizes, so G_k = 1/(q;q)_inf to order n, and every coefficient is p(x)."""
    k = isqrt(2 * n)
    while k * (k + 1) // 2 <= n:
        k += 1
    return max(k, 2)


# the orders on both sides of each step of the field width: just before a step
# the partition numbers come closest to the width
STEPS = sorted({x for n in range(1, 401) if _field_bits(n) > _field_bits(n - 1)
                for x in (n - 1, n)})


class TestFieldWidth:
    @pytest.mark.parametrize("order", STEPS)
    def test_partition_numbers_at_each_step(self, order):
        k = _k_without_runs(order)
        assert Gk_series_oracle(k, order) == pochhammer_series(1, 1, order).invert()

    def test_partition_numbers_at_a_high_order(self):
        order = 1200
        k = _k_without_runs(order)
        assert Gk_series_oracle(k, order) == pochhammer_series(1, 1, order).invert()
