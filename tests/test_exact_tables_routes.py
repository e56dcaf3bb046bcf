"""Andrews' theta sum against the DP oracle at the orders the exact-tables
benchmark draws, and the pentagonal division by (q^b; q^b)_inf against one
division by (1 - q^e) per factor."""
import random

import pytest

from conftest import digest_parts
from qasymp.qseries import (_divide_binomial, _divide_pentagonal, gk_from_oracle,
                            gk_series_andrews)

# the benchmark draws each Andrews order within +-4 of these
ANDREWS_ORDER = {2: 240, 3: 280, 4: 300, 5: 340, 6: 360}


@pytest.mark.parametrize("k", sorted(ANDREWS_ORDER))
@pytest.mark.parametrize("delta", [-4, 4])
def test_andrews_matches_oracle_at_benchmark_edges(k, delta):
    n = ANDREWS_ORDER[k] + delta
    assert digest_parts(gk_series_andrews(k, n)) == digest_parts(gk_from_oracle(k, n))


def divide_by_factors(c, b):
    """c / (q^b; q^b)_inf as one division by (1 - q^e) per factor e = b, 2b, ..."""
    for e in range(b, len(c), b):
        _divide_binomial(c, e)


@pytest.mark.parametrize("b", range(1, 7))
def test_pentagonal_division_matches_factor_by_factor(b):
    rng = random.Random(f"pentagonal:{b}")
    for length in range(401):
        c = [rng.randint(-2 ** 64, 2 ** 64) for _ in range(length)]
        want = list(c)
        divide_by_factors(want, b)
        _divide_pentagonal(c, b)
        assert c == want, length

