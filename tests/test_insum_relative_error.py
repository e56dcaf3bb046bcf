"""R_k read from the insum pass: on the small-s route the odd-n sum is R_k itself,
so gk_and_relative_error_num takes (g_k, R_k) from one pass. The direct route
still multiplies g_k by R_k's factors, so it checks that identity; the s-free
constants the small-s point reuses come from bounded caches."""
from __future__ import annotations

import itertools

import mpmath as mp
import pytest

from conftest import canon, close_bits
from qasymp import hires, wright
from qasymp.hires import EvalConfig, gk_and_relative_error_num, gk_num, relative_error_num
from qasymp.wright import W_j_num

P = 128
POINTS = list(itertools.product((2, 3, 4), ("0.03", "0.1", "0.4")))


@pytest.mark.parametrize("k,s", POINTS)
def test_insum_r_k_matches_the_direct_route(k, s):
    cfg = EvalConfig(P)
    _, r = gk_and_relative_error_num(k, s, cfg)
    want = relative_error_num(k, s, cfg, route="direct")
    assert close_bits(r, want, P - 8, scale=abs(want))


@pytest.mark.parametrize("k,s", POINTS)
def test_insum_g_k_is_gk_num(k, s):
    cfg = EvalConfig(P)
    g, _ = gk_and_relative_error_num(k, s, cfg)
    assert g._mpf_ == gk_num(k, s, cfg)._mpf_


@pytest.mark.parametrize("k,s", POINTS)
def test_doubling_the_precision_moves_the_pair_by_the_rounding(k, s):
    low = gk_and_relative_error_num(k, s, EvalConfig(P))
    high = gk_and_relative_error_num(k, s, EvalConfig(2 * P))
    for a, b in zip(low, high):
        assert close_bits(a, b, P - 8, scale=abs(b))


# each cache of s-free constants, with a call that fills it
CACHES = {
    "_phase_roots": (hires._phase_roots,
                     lambda: gk_and_relative_error_num(3, "0.1", EvalConfig(P))),
    "_ray_constants": (wright._ray_constants, lambda: W_j_num(3, 0, "3.5", EvalConfig(P))),
}


@pytest.mark.parametrize("name", CACHES)
def test_constant_caches_are_bounded_and_change_no_bit(name):
    cache, call = CACHES[name]
    assert cache.cache_info().maxsize == 64
    cache.cache_clear()
    cold = canon(call())
    filled = cache.cache_info()
    assert filled.misses >= 1 and filled.currsize >= 1
    warm = canon(call())
    assert cache.cache_info().hits > filled.hits
    assert warm == cold


def test_constant_caches_are_keyed_by_the_working_precision():
    # one k at two working precisions is two entries
    hires._phase_roots.cache_clear()
    with mp.workprec(100):
        low = hires._phase_roots(3, mp.mp.prec)
    with mp.workprec(200):
        high = hires._phase_roots(3, mp.mp.prec)
    assert hires._phase_roots.cache_info().currsize == 2
    assert low[1] != high[1]
