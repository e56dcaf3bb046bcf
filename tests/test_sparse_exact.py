"""The sparse and integer-only exact kernels against the general routes they
replace: (q^b;q^b)_inf as Euler's pentagonal series against the binomial product,
g_2's product side multiplied into chi in place against the dense series product,
and f_{2j} over integers against its defining Bernoulli-polynomial form."""
from fractions import Fraction as F
from math import factorial, gcd

import pytest

from qasymp.exactcore import ZPolynomial, bernoulli_polynomial
from qasymp.expansion import _f2j_integers, f2j_polynomial
from qasymp.qseries import (_poch_product, chi_series, g2_product_side, gk_from_oracle,
                            gk_series_andrews, pochhammer_series)

ORDERS = list(range(41)) + [1199, 1200, 1201]


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_pentagonal_equals_binomial_product(b):
    for n in ORDERS:
        got = pochhammer_series(b, b, n)
        assert got == _poch_product([(b, b)], n), (b, n)
        assert (got.low_exponent, got.truncation_order) == (0, n)


def test_pentagonal_terms_are_sparse():
    qq = pochhammer_series(1, 1, 1200)
    terms = dict(qq.items())
    assert len(terms) == 57  # n(3n-1)/2 <= 1200 for n = -28..28
    assert set(terms.values()) == {1, -1}


@pytest.mark.parametrize("n", list(range(61)) + [299, 300, 301])
def test_g2_product_side_equals_dense_product(n):
    got = g2_product_side(n)
    assert got == chi_series(n) * _poch_product([(1, 6), (5, 6)], n)
    assert (got.low_exponent, got.truncation_order) == (0, n)


@pytest.mark.parametrize("k", range(2, 7))
def test_oracle_times_pentagonal_equals_andrews(k):
    assert gk_from_oracle(k, 200) == gk_series_andrews(k, 200)


def _f2j_definition(k, j):
    """B_{2j} (B_{2j+1}(1+z) k^{2j} + B_{2j+1}(1 - kz/(k+1)) (k+1)^{2j}) / (2j (2j+1)!),
    composed as polynomials over Q."""
    bp = bernoulli_polynomial(2 * j + 1)
    poly = (bp.compose_affine(1, 1).scale(k ** (2 * j))
            + bp.compose_affine(F(-k, k + 1), 1).scale((k + 1) ** (2 * j)))
    return poly.scale(bernoulli_polynomial(2 * j).coefficient(0)
                      / (2 * j * factorial(2 * j + 1)))


@pytest.mark.parametrize("k", range(2, 8))
def test_f2j_integers_match_definition(k):
    for j in range(1, 12):
        want = _f2j_definition(k, j)
        nums, den = _f2j_integers(k, j)
        assert den > 0 and gcd(den, *nums) == 1, (k, j)
        assert ZPolynomial([F(x, den) for x in nums]) == want, (k, j)
        assert f2j_polynomial(k, j) == want, (k, j)
