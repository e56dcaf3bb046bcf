"""The insum route's fixed-point chains (hires._In_terms): I_n against the mpf
per-n loop built on _pm_terms, and the chains' truncation against the same
chains run 256 bits finer."""
from __future__ import annotations

import math
from itertools import islice

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_small_s_route as small_s
from conftest import close_bits
from qasymp import hires
from qasymp.hires import EvalConfig, I_n_num


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(2, 90), st.integers(64, 512), st.integers(-5, 4))
def test_chains_match_per_n_loop(k, hundredths, p, half):
    s, n, cfg = f"0.{hundredths:02d}", 2 * half + 1, EvalConfig(p)
    ref = small_s.TestBinnedIn.per_n(k, n, s, cfg)
    got = I_n_num(k, n, s, cfg)
    assert close_bits(got, ref, p - 2, scale=abs(ref)), (k, n, s, p)


def _recorded_chains(monkeypatch, k, s, p):
    """Run I_n_num(k, 1, s) with _In_terms recorded: (its arguments, the working
    precision it ran at, the (m, T_m) pairs _In_bins summed through _sum_until)."""
    rec = {}
    real = hires._In_terms

    def recording(*args):
        rec["args"], rec["prec"], rec["terms"] = args, mp.mp.prec, []
        for pair in real(*args):
            rec["terms"].append(pair)
            yield pair

    monkeypatch.setattr(hires, "_In_terms", recording)
    I_n_num(k, 1, s, EvalConfig(p))
    return rec["args"], rec["prec"], rec["terms"]


def _bins(pairs, period):
    bins = [0] * period
    for m, t in pairs:
        bins[m % period] += t
    return bins


@pytest.mark.parametrize("k, s, p", [(2, "0.02", 256), (2, "0.9", 64), (3, "0.05", 512),
                                     (4, "0.3", 64), (5, "0.1", 192), (6, "0.025", 384),
                                     (6, "0.9", 128)])
def test_truncation_within_documented_bound(monkeypatch, k, s, p):
    (_, sv, starts, w, cap), prec, terms = _recorded_chains(monkeypatch, k, s, p)
    period = 2 * (k + 1)
    with mp.workprec(prec):
        fine = list(islice(hires._In_terms(k, sv, starts, w + 256, cap), len(terms)))
    got, ref = _bins(terms, period), _bins(fine, period)
    assert [m for m, _ in fine] == [m for m, _ in terms]
    head, lk = hires._In_head_bits(k, hires.as_float(sv), starts)
    bound = math.ceil(2 ** head * (terms[-1][0] + 2 + lk) ** 3)
    # the bound holds at w and, for the finer run, at w + 256
    assert max(abs((g << 256) - r) for g, r in zip(got, ref)) <= bound * ((1 << 256) + 1)
    # w is sized so that the bound stays below 2^-prec
    assert bound < 1 << (w - prec)
