"""hires._sum_until, the one stop-rule loop of the open-ended sums, and the cap
and zero-type behaviour of each sum that runs through it."""
from __future__ import annotations

from fractions import Fraction

import mpmath as mp
import pytest

from qasymp.errors import TermCapExceeded
from qasymp.hires import EvalConfig, I_n_num, _sum_until, gk_num, theta_num
from qasymp.wright import W_j_num, WrightParams, wright_phi


def _below_one(_i, size, _largest, _bins):
    return size < 1


def _counted(triples, taken):
    for t in triples:
        taken.append(t)
        yield t


def test_stops_after_exactly_run_small_terms_and_a_large_term_resets():
    sizes = [5, 0.5, 0.5, 7, 0.5, 0.5, 0.5, 0.5, 9]
    taken = []
    bins, largest = _sum_until(_counted(((i, x, x) for i, x in enumerate(sizes)), taken),
                               3, _below_one, "unused")
    assert len(taken) == 7     # the run of two before the 7 does not count
    assert bins == [sum(sizes[:7])] and largest == 7


def test_bins_by_index_mod_period():
    triples = [(i, 10 + i, 2) for i in range(7)] + [(7, 0, 0), (8, 0, 0)]
    bins, largest = _sum_until(iter(triples), 2, _below_one, "unused", period=3)
    assert bins == [10 + 13 + 16 + 0, 11 + 14 + 0, 12 + 15] and largest == 2


def test_skipped_term_counts_by_its_size_and_adds_nothing():
    # a skipped term is summed as an exact zero: its size still decides the run
    triples = [(0, 4, 4), (1, 0, 8), (2, 1, 0.5), (3, 0, 0.25), (4, 100, 100)]
    taken = []
    bins, largest = _sum_until(_counted(iter(triples), taken), 2, _below_one, "unused")
    assert len(taken) == 4 and bins == [5] and largest == 8


def test_raises_with_the_callers_message_when_the_terms_end():
    with pytest.raises(TermCapExceeded, match="^my sum ran out$"):
        _sum_until(iter([(0, 1, 1), (1, 0.5, 0.5)]), 2, _below_one, "my sum ran out")


@pytest.mark.parametrize("call, message", [
    (lambda cfg: theta_num("0.3", "0.7", cfg, use_inversion=True),
     "theta_num inversion exceeded max_terms"),
    (lambda cfg: I_n_num(2, 1, "1.5", cfg), "I_n loop exceeded max_terms at k=2, n=1"),
    (lambda cfg: gk_num(2, "2", cfg, route="direct"), "direct g_k m-sum exceeded max_terms"),
    (lambda cfg: wright_phi(WrightParams("3/4"), 5, cfg),
     "wright series needed more than 6 terms"),
    (lambda cfg: W_j_num(2, 0, 30, cfg, route="asymptotic"),
     "W_j expansion stopped shrinking"),
], ids=["theta-inversion", "I_n", "gk-direct", "wright-phi", "Wj-asymptotic"])
def test_each_sum_raises_its_own_message_at_the_cap(monkeypatch, call, message):
    monkeypatch.setattr(EvalConfig, "max_terms", 6)
    with pytest.raises(TermCapExceeded, match=message):
        call(EvalConfig(64))


@pytest.mark.parametrize("z, kind", [(0, mp.mpf), ("0", mp.mpf), (mp.mpc(0), mp.mpc)])
def test_all_zero_wright_sum_keeps_its_type(z, kind):
    # beta = 0 puts a pole at n = 0 and z = 0 zeroes every later term
    v = wright_phi(WrightParams(Fraction(1, 2), 0), z, EvalConfig(64))
    assert type(v) is kind and v == 0
