"""The insum route sized by its measured cancellation: g_2 at small s against the
mock-theta product, the retry's pass count (and theta_num's, through the same
loop), the phase table, the log-series tail of the seed products, and the
precision contract at small s."""
from __future__ import annotations

import math
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_small_s_route as small_s
from conftest import close_bits
from qasymp import cli, hires
from qasymp.errors import NonConvergent, TermCapExceeded
from qasymp.hires import EvalConfig, I_n_num, gk_num


def g2_reference(s, p):
    """chi(q) (-q^3;q^3)_inf / (-q;q)_inf at q = e^{-s}, from plain mpf sums and
    products at p + 128 bits (mp.qp raises NoConvergence at these s)."""
    with mp.workprec(p + 128):
        q = mp.exp(-mp.mpf(s))
        eps = mp.mpf(2) ** -(p + 140)
        chi, den, qn, n = mp.mpf(1), mp.mpf(1), q, 1
        while True:
            den *= 1 - qn + qn * qn
            term = mp.power(q, n * n) / den
            chi += term
            if term < eps * chi:
                break
            qn, n = qn * q, n + 1
        ratio = chi
        for base, step in ((q ** 3, 3), (q, 1)):
            x, qs, prod = base, q ** step, mp.mpf(1)
            while x > eps:
                prod, x = prod * (1 + x), x * qs
            ratio = ratio * prod if step == 3 else ratio / prod
        return ratio


@pytest.mark.parametrize("p", [64, 128])
@pytest.mark.parametrize("s", ["0.005", "0.003", "0.002"])
def test_insum_against_mock_theta(s, p):
    got = gk_num(2, s, EvalConfig(p))
    ref = g2_reference(s, p)
    assert close_bits(got, ref, p - 8, scale=ref), (s, p, got, ref)


@pytest.mark.parametrize("p", [64, 128])
def test_direct_against_mock_theta(p):
    got = gk_num(2, "0.005", EvalConfig(p), route="direct")
    ref = g2_reference("0.005", p)
    assert close_bits(got, ref, p - 8, scale=ref), (p, got, ref)


def test_verify_cell_against_mock_theta(tmp_path):
    out = tmp_path / "verify.csv"
    code = cli.main(["verify", "--k", "2", "--s", "0.003", "--prec", "64", "--out", str(out)])
    assert code == 0
    header, row = out.read_text().splitlines()
    cell = row.split(",")[header.split(",").index("g_k")]
    ref = g2_reference("0.003", 64)
    assert close_bits(mp.mpf(cell), ref, 56, scale=ref), cell


class TestRetry:
    @staticmethod
    def passes(monkeypatch, s, p):
        """The stop-rule precisions of the insum core passes of one gk_num(2, s) call,
        which must not reach the public gk_num again."""
        seen, calls = [], []
        core, public = hires._gk_insum_core, hires.gk_num

        def counting_core(k, s, cfg):
            seen.append(cfg.precision_bits)
            return core(k, s, cfg)

        def counting_public(*args, **kwargs):
            calls.append(args)
            return public(*args, **kwargs)

        monkeypatch.setattr(hires, "_gk_insum_core", counting_core)
        monkeypatch.setattr(hires, "gk_num", counting_public)
        hires.gk_num(2, s, EvalConfig(p))
        assert len(calls) == 1
        return seen

    def test_one_pass_without_cancellation(self, monkeypatch):
        assert self.passes(monkeypatch, "0.05", 64) == [64]

    @pytest.mark.parametrize("p", [64, 128])
    def test_cancellation_retries(self, monkeypatch, p):
        seen = self.passes(monkeypatch, "0.003", p)
        assert 2 <= len(seen) <= 3 and seen[0] == p
        # every retry raises the stop rules past the previous measurement
        assert all(b > a + 16 for a, b in zip(seen, seen[1:]))

    def test_gives_up_after_three_passes(self, monkeypatch):
        seen = []

        def cancelling(k, s, cfg):
            seen.append(cfg.precision_bits)
            return mp.mpf(1), 100 * len(seen)

        monkeypatch.setattr(hires, "_gk_insum_core", cancelling)
        with pytest.raises(NonConvergent):
            gk_num(2, "0.1", EvalConfig(64))
        assert seen == [64, 64 + 116, 64 + 216]


class TestThetaRetry:
    # theta_num's direct sum measures 21 bits at s = 0.15 and 33 at s = 0.1, 64
    # bits: past 16, so it reruns once with the stop rule at 64 + bits + 16
    @pytest.mark.parametrize("s, want", [("0.15", [64, 101]), ("0.1", [64, 113])])
    def test_shares_the_measured_retry(self, monkeypatch, s, want):
        seen, core = [], hires._theta_sum

        def counting(u, s, use_inversion, cfg):
            seen.append(cfg.precision_bits)
            return core(u, s, use_inversion, cfg)

        monkeypatch.setattr(hires, "_theta_sum", counting)
        cfg = EvalConfig(64)
        got = hires.theta_num(0, s, cfg, use_inversion=False)
        assert seen == want
        assert close_bits(got, hires.theta_num(0, s, cfg, use_inversion=True), 56,
                          scale=abs(got))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_phase_table_same_bits(k):
    with mp.workprec(160):
        bins = [mp.mpf(j + 1) / (3 * j + 7) * (-1) ** j for j in range(2 * (k + 1))]
        roots = hires._phase_roots(k, mp.mp.prec)
        for n in (-1, 1, 3, 7, 2 * k + 3):
            ref = 0
            for r, b in enumerate(bins):
                ref += mp.expjpi(hires.frac_to_mpf(F(r * (n + k + 1), k + 1) % 2)) * b
            got = hires._In_from_bins(k, n, bins, roots)
            assert got._mpc_ == ref._mpc_, (k, n)


def within_tail_bound(got, x, r, w):
    """|got - exact| <= 2M + 12 units, M <= w/log2(1/x) terms (_log_tail_fixed)."""
    ref = small_s.TestFixedPointProduct.exact_units(x, r, w)
    with mp.workprec(w + 64):
        return abs(got - ref) <= 2 * int(w / -math.log2(float(x))) + 12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.integers(0, 7), st.integers(1, 20), st.integers(64, 600))
def test_log_tail_within_documented_bound(x_bits, d_bits, d_scale, w):
    """x in (2^-41, 1/2) and 1 - r in (2^-12, 1)."""
    with mp.workprec(w + 32):
        x = mp.mpf(2) ** -x_bits * (1 - mp.mpf(1) / (x_bits + 2))
        r = 1 - mp.mpf(2) ** -d_bits * d_scale / 21
    got = small_s.TestFixedPointProduct.truncated_tail(x, r, w)
    assert within_tail_bound(got, x, r, w), (x_bits, d_bits, d_scale, w)


def test_seed_tails_within_documented_bound(monkeypatch):
    """The tail inputs that the seed products of gk_num(2, "0.01") use."""
    seen = []
    real = hires._log_tail_fixed

    def recording(xf, rf, w):
        got = real(xf, rf, w)
        seen.append((got, mp.mpf((xf, -w)), mp.mpf((rf, -w)), w))
        return got

    monkeypatch.setattr(hires, "_log_tail_fixed", recording)
    hires._qq_inf_cached.cache_clear()
    gk_num(2, "0.01", EvalConfig(128))
    assert seen
    for got, x, r, w in seen:
        assert x < mp.mpf(2) ** -8
        assert within_tail_bound(got, x, r, w), (x, r, w)


# 401 log-uniform exact decimals in [2e-3, 1], 4 significant digits
_SMALL_S = st.sampled_from([f"{0.002 * 500 ** (u / 400):.4g}" for u in range(401)])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(2, 6), _SMALL_S, st.sampled_from([64, 128]))
def test_precision_contract_at_small_s(k, s, p):
    """The insum route at p bits lies within 2^-(p-8)|g| of its value at 2p bits,
    or refuses with a documented error."""
    try:
        got = gk_num(k, s, EvalConfig(p), route="insum")
    except (NonConvergent, TermCapExceeded):
        return
    ref = gk_num(k, s, EvalConfig(2 * p), route="insum")
    assert close_bits(got, ref, p - 8, scale=abs(ref)), (k, s, p)


@pytest.mark.parametrize("p", [64, 128])
def test_I_n_takes_the_retry(p):
    """I_{-3} at k = 2, s = 0.005 cancels 64 bits: it meets the precision contract."""
    got = I_n_num(2, -3, "0.005", EvalConfig(p))
    ref = I_n_num(2, -3, "0.005", EvalConfig(2 * p))
    assert close_bits(got, ref, p - 8, scale=abs(ref))
