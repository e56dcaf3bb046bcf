"""Guard bits sized from the size of the terms: Wright's phi for rho <= 0 and the
beta_k(j) sum; the class-wide term cap; the bounded and shared caches; and the
one module that sets mpmath's working precision; the SLOW list of the quick loop."""
import random
import re
import sys
import threading
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import pytest

import conftest
import qasymp
from conftest import close_bits
from qasymp import expansion, hires, qseries
from qasymp.errors import TermCapExceeded
from qasymp.exactcore import FormalSeries
from qasymp.expansion import hq_num
from qasymp.hires import EvalConfig, gamma_q_num, gk_num
from qasymp.wright import WrightParams, wright_phi, wright_phi_moment


def _rel_within(got, want, bits):
    with mp.workprec(bits + 128):
        return close_bits(got, want, bits, scale=abs(mp.mpmathify(want)))


class TestWrightNonpositiveRho:
    @pytest.mark.parametrize("p", [64, 128, 256])
    @pytest.mark.parametrize("z", [-200, 3, mp.mpc(1, 2)], ids=["-200", "3", "1+2i"])
    @pytest.mark.parametrize("beta", [F(1), F(1, 2)])
    def test_rho_zero_is_exp(self, p, z, beta):
        # phi(0, beta; z) = e^z / Gamma(beta), as small as e^-200 at z = -200
        got = wright_phi(WrightParams(0, beta), z, EvalConfig(p))
        with mp.workprec(p + 400):
            want = mp.exp(mp.mpmathify(z)) * mp.rgamma(mp.mpf(beta.numerator) / beta.denominator)
        assert _rel_within(got, want, p - 8)

    def test_rho_zero_moment(self):
        # phi_1(0, 1; z) = sum n z^n/n! = z e^z
        got = wright_phi_moment(1, WrightParams(0), -60, EvalConfig(128))
        with mp.workprec(512):
            assert _rel_within(got, -60 * mp.exp(-60), 120)

    @pytest.mark.parametrize("z", [3, -3, mp.mpc(1, 2), -20, 40],
                             ids=["3", "-3", "1+2i", "-20", "40"])
    @pytest.mark.parametrize("beta", [F(1), F(1, 2), F(-2)])
    def test_rho_minus_half_per_term_sum(self, z, beta):
        # sum z^n / (n! Gamma(beta + n/2)); Gamma has poles at n = 0, 2, 4 for beta = -2
        p = 192
        got = wright_phi(WrightParams(F(-1, 2), beta), z, EvalConfig(p))
        with mp.workprec(p + 256):
            zz = mp.mpmathify(z)
            b = mp.mpf(beta.numerator) / beta.denominator
            want = mp.nsum(lambda n: zz ** n * mp.rgamma(n + 1) * mp.rgamma(b + n / 2),
                           [0, mp.inf])
        assert _rel_within(got, want, p - 8)


class TestBetaGuard:
    @pytest.mark.parametrize("j", [25, 40, 55, 64])
    def test_relative_error_against_1536_bits(self, j):
        # the sum cancels 43 bits at j = 25 and 112 bits at j = 64
        got = expansion.beta_coeff(3, j, EvalConfig(256))
        want = expansion.beta_coeff(3, j, EvalConfig(1536))
        assert _rel_within(got, want, 256 - 8)

    def test_k2_beyond_the_fixed_guard(self):
        got = expansion.beta_coeff(2, 63, EvalConfig(128))  # cancels 168 bits
        want = expansion.beta_coeff(2, 63, EvalConfig(768))
        assert _rel_within(got, want, 128 - 8)


class TestSubConfigs:
    """A sub-evaluation at more bits keeps the class-wide max_terms."""

    def test_hq_num(self, monkeypatch):
        monkeypatch.setattr(EvalConfig, "max_terms", 5)
        with pytest.raises(TermCapExceeded):
            hq_num(3, F(1, 3), "0.1", EvalConfig(128))

    def test_gamma_q_num(self, monkeypatch):
        monkeypatch.setattr(EvalConfig, "max_terms", 5)
        with pytest.raises(TermCapExceeded):
            gamma_q_num(F(5, 2), "0.6", EvalConfig(128))


class TestGkSeriesOrder:
    def test_sum_stops_at_its_order(self, monkeypatch):
        # g_2(e^{-5/2}) at 64 bits needs about 55 coefficients; a cached longer
        # series whose coefficients beyond 60 are wrong must not change the value
        monkeypatch.setitem(hires._GK_SERIES_CACHE, 2, qseries.gk_series_andrews(2, 60))
        want = gk_num(2, "2.5", EvalConfig(64), route="series")
        ser = qseries.gk_series_andrews(2, 200)
        bad = [c if ser.low + i <= 60 else 10 ** 60 for i, c in enumerate(ser.coeffs)]
        monkeypatch.setitem(hires._GK_SERIES_CACHE, 2, FormalSeries(ser.low, bad, 200))
        assert gk_num(2, "2.5", EvalConfig(64), route="series") == want


class TestBoundedCaches:
    def test_beta_cache_keeps_the_newest(self):
        cache = expansion._beta_at
        cache.cache_clear()
        for p in range(64, 64 + cache.cache_info().maxsize + 30):
            newest = expansion.beta_coeff(2, 1, EvalConfig(p))
        hits = cache.cache_info().hits
        assert expansion.beta_coeff(2, 1, EvalConfig(p)) is newest
        info = cache.cache_info()
        assert info.currsize <= info.maxsize == 256
        assert info.hits == hits + 1
        expansion.beta_coeff(2, 1, EvalConfig(64))  # the oldest was evicted
        assert cache.cache_info().misses == info.misses + 1

    def test_caches_from_threads(self, monkeypatch):
        """Four threads fill every cache at once, each over the same inputs in its
        own order: every result equals the serial one, and the per-k caches end
        with the longest value requested."""
        cfg = EvalConfig(128)
        calls = ([(expansion.beta_coeff, (3, j, cfg)) for j in range(1, 13)]
                 + [(hires.qq_infinity_num, (s, cfg)) for s in ("0.1", "0.5", "2", "4")]
                 + [(expansion.hq_bivariate, (k, j)) for k in (2, 3) for j in (3, 6, 9)]
                 + [(gk_num, (k, s, cfg, "series")) for k in (2, 3) for s in ("1", "1.5", "3")])

        def value(fn, args):
            got = fn(*args)
            return got.to_json() if isinstance(got, expansion.BivariateExpansion) else got._mpf_

        def empty_caches():
            for cached in (expansion._beta_at, expansion.beta_rational, hires._qq_inf_cached):
                cached.cache_clear()
            monkeypatch.setattr(expansion, "_BIV_CACHE", {})
            monkeypatch.setattr(hires, "_GK_SERIES_CACHE", {})

        empty_caches()
        want = {i: value(*call) for i, call in enumerate(calls)}
        longest = {k: ser.truncation_order for k, ser in hires._GK_SERIES_CACHE.items()}
        empty_caches()
        results = {}

        def run(seed):
            order = random.Random(seed).sample(range(len(calls)), len(calls))
            results[seed] = {i: value(*calls[i]) for i in order}

        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {seed: want for seed in range(4)}
        assert {k: biv.j_max for k, biv in expansion._BIV_CACHE.items()} == {2: 9, 3: 9}
        assert {k: ser.truncation_order
                for k, ser in hires._GK_SERIES_CACHE.items()} == longest


class TestOnePrecisionEntry:
    def test_only_hires_sets_the_working_precision(self):
        """mpmath's working precision is process-wide, so only hires sets it, under
        LOCK (evaluate and format_real); no other module holds a precision block."""
        entry = re.compile(r"\bLOCK\b|work(prec|dps)\(|extraprec\(|\.(prec|dps)\s*=[^=]")
        found = {}
        for path in sorted(Path(qasymp.__file__).parent.glob("*.py")):
            hits = [line.strip() for line in path.read_text().splitlines() if entry.search(line)]
            if hits:
                found[path.name] = hits
        assert "with mp.workprec(cfg.precision_bits + guard):" in found.pop("hires.py")
        assert found == {}


class TestOneRangeCheck:
    def test_only_errors_states_a_lower_bound(self):
        """Every "<name> must be >= <lo>" comes from errors.py (check_k and
        check_at_least), so no module writes its own copy of the range check."""
        found = sorted(path.name for path in Path(qasymp.__file__).parent.glob("*.py")
                       if "must be >=" in path.read_text())
        assert found == ["errors.py"]


class TestSlowList:
    def test_a_renamed_slow_test_fails_collection(self):
        """A SLOW id in a collected file that names none of its tests stops the run
        before -m "not slow" deselects anything, so a renamed slow test cannot join
        the quick loop unseen; a node-id argument collects part of a file, unchecked."""
        config = SimpleNamespace(args=["tests"], getoption=lambda name, default: default)
        renamed = [SimpleNamespace(nodeid=i + "_renamed") for i in sorted(conftest.SLOW)]
        with pytest.raises(pytest.UsageError, match="not collected"):
            conftest.pytest_collection_modifyitems(config, renamed)
        config.args = [renamed[0].nodeid]
        conftest.pytest_collection_modifyitems(config, renamed[:1])
