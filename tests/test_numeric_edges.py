"""Edges of the numeric layer: arguments beyond the float range, the CLI's
precision changes against threaded library calls, and gk_num's three routes
around the s = 1 switch."""
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
from qasymp.hires import (EvalConfig, I_n_num, as_float, gk_num, relative_error_num,
                          theta_num)

HUGE = ("1e400", Fraction(10) ** 400, 10 ** 400)


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
