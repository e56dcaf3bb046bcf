"""Edges of the numeric layer: arguments beyond the float range on both sides,
read exactly, the CLI's precision changes against threaded library calls, and
gk_num's three routes around the s = 1 switch."""
import math
import sys
import threading
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import close_bits
from qasymp import cli
from qasymp.expansion import expansion_eval
from qasymp.hires import (EvalConfig, I_n_num, as_float, gk_num, qq_infinity_num,
                          relative_error_num, theta_num)
from qasymp.wright import W_j_num, WrightParams, re_phi_expansion, wright_phi

HUGE = ("1e400", Fraction(10) ** 400, 10 ** 400)
TINY = ("1e-400", Fraction(1, 10 ** 400), mp.mpf("1e-400"))

# every export that checks a real argument for positivity
CHECKED = {
    "gk_num": lambda s: gk_num(2, s, EvalConfig(64)),
    "theta_num": lambda s: theta_num(0, s, EvalConfig(64)),
    "I_n_num": lambda s: I_n_num(2, 1, s, EvalConfig(64)),
    "qq_infinity_num": lambda s: qq_infinity_num(s, EvalConfig(64)),
    "expansion_eval": lambda s: expansion_eval(2, 1, s, EvalConfig(64)),
    "W_j_num": lambda w: W_j_num(2, 0, w, EvalConfig(64)),
    "re_phi_expansion": lambda z: re_phi_expansion(Fraction(3, 4), z, 4, EvalConfig(64)),
}


def bits_of(x):
    return x._mpc_ if isinstance(x, mp.mpc) else x._mpf_


class TestBeyondFloatRange:
    def test_as_float_saturates_with_the_exact_sign(self):
        for x in HUGE:
            assert as_float(x) == math.inf
            assert as_float(-x if not isinstance(x, str) else "-" + x) == -math.inf

    @pytest.mark.parametrize("name, export", [
        ("gk_num", lambda s: gk_num(2, s, EvalConfig(64))),
        ("theta_num", lambda s: theta_num(0, s, EvalConfig(64))),
        ("I_n_num", lambda s: I_n_num(2, 1, s, EvalConfig(64))),
        ("relative_error_num", lambda s: relative_error_num(2, s, EvalConfig(64))),
    ])
    def test_exports_agree_across_forms(self, name, export):
        got = {bits_of(export(s)) for s in HUGE}
        assert len(got) == 1
        if name in ("gk_num", "theta_num"):
            assert got == {mp.mpf(1)._mpf_}

    @pytest.mark.parametrize("name, export, want", [
        # a q-product head at s = 1e-400 needs about 1e400 factors, so the m-loop
        # refuses (CLI exit 3); the inverted theta sum and the expansion need none
        ("gk_num", CHECKED["gk_num"], "TermCapExceeded"),
        ("relative_error_num", lambda s: relative_error_num(2, s, EvalConfig(64)),
         "TermCapExceeded"),
        ("theta_num", CHECKED["theta_num"], "mpf"),
        ("I_n_num", CHECKED["I_n_num"], "TermCapExceeded"),
        ("re_phi_expansion", CHECKED["re_phi_expansion"], "mpf"),
    ])
    def test_tiny_arguments_are_positive_in_every_form(self, name, export, want):
        outcomes, values = set(), []
        for s in TINY:
            try:
                values.append(bits_of(export(s)))
                outcomes.add("mpf")
            except Exception as exc:  # the outcome is the error's name
                outcomes.add(type(exc).__name__)
        assert outcomes == {want}
        if values:
            # the str and the Fraction are the same number; the mpf is 1e-400 at 53 bits
            assert values[0] == values[1]

    @pytest.mark.parametrize("x", ["-1e-400", 0, mp.nan], ids=["-1e-400", "0", "nan"])
    @pytest.mark.parametrize("name", sorted(CHECKED))
    def test_not_positive_is_a_value_error(self, name, x):
        with pytest.raises(ValueError, match="must be positive"):
            CHECKED[name](x)

    def test_infinity(self):
        # +inf is positive; an export that sizes its work from the exact value refuses it
        assert gk_num(2, mp.inf, EvalConfig(64)) == 1
        assert theta_num(0, mp.inf, EvalConfig(64)) == 1
        with pytest.raises(ValueError):
            W_j_num(2, 0, mp.inf, EvalConfig(64))
        with pytest.raises(ValueError):
            wright_phi(WrightParams(3 / 4), mp.inf, EvalConfig(64))

    def test_wright_params_read_an_mpf_exactly(self):
        assert WrightParams(mp.mpf(0.75), mp.mpf(-2.5)) == WrightParams(Fraction(3, 4),
                                                                      Fraction(-5, 2))


class TestCliUnderThreads:
    def test_cli_and_library_keep_their_bits(self, tmp_path):
        """Two threads run `verify` through the CLI while two evaluate gk_num:
        every CLI output and every library value equals the serial one."""
        def verify(path):
            assert cli.main(["verify", "--k", "2", "--s", "0.5,0.3", "--prec", "64",
                             "--out", str(path)]) == 0
            return path.read_bytes()

        def library():
            return gk_num(3, "0.3", EvalConfig(128), route="insum")._mpf_

        want_cli = verify(tmp_path / "serial.csv")
        want_lib = library()
        bad = []
        stop = threading.Event()

        def loop(job, want):
            # without the lock, about one run in five of 50 calls per thread saw
            # no differing result; run up to 200, stopping every thread at the first
            for _ in range(200):
                if stop.is_set():
                    return
                got = job()
                if got != want:
                    bad.append(got)
                    stop.set()

        threads = [threading.Thread(target=loop, args=(lambda i=i: verify(tmp_path / f"{i}.csv"),
                                                       want_cli)) for i in range(2)]
        threads += [threading.Thread(target=loop, args=(library, want_lib)) for _ in range(2)]
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
        assert bad == []


class TestRoutesAroundTheSwitch:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(2, 6), st.integers(40, 250), st.sampled_from([64, 128]))
    def test_series_insum_direct_agree(self, k, hundredths, p):
        s = f"{hundredths // 100}.{hundredths % 100:02d}"
        cfg = EvalConfig(p)
        series, insum, direct = (gk_num(k, s, cfg, route=r) for r in ("series", "insum", "direct"))
        for other in (insum, direct):
            assert close_bits(series, other, p - 8, scale=abs(series))
