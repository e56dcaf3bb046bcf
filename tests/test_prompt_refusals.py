"""Calls whose cost grows without bound refuse before any work: any guard past
2^22 bits in evaluate (NonConvergent), as gk_num's direct route's C + 96 as s
falls (C = inf for an s that underflows a float) or W_j_num's series guard as w
grows, and gk_num's series route once its order, or theta_num's direct sum or
inversion once even a lower bound on its terms, passes max_terms
(TermCapExceeded), as does a q-product whose factors down to the threshold
pass max_terms. Both map to CLI exit 3."""
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import qasymp
from conftest import close_bits
from qasymp import hires
from qasymp.errors import NonConvergent, TermCapExceeded
from qasymp.hires import EvalConfig, gk_num, theta_num

SRC = str(Path(qasymp.__file__).resolve().parents[1])

PROGRAM = """import sys
from fractions import Fraction
from qasymp.cli import exit_code_for
from qasymp.hires import (EvalConfig, gamma_q_num, gk_num, pochhammer_num, qsubz_num,
                          relative_error_num, theta_num)
from qasymp.wright import W_j_num
try:
    {call}
except Exception as exc:
    print(type(exc).__name__)
    sys.exit(exit_code_for(exc))
"""


@pytest.mark.parametrize("call, error", [
    ('gk_num(2, "1e-200", EvalConfig(64), route="direct")', "NonConvergent"),
    ('gk_num(2, "1e-7", EvalConfig(64), route="direct")', "NonConvergent"),
    ('gk_num(2, "1e-310", EvalConfig(64), route="direct")', "NonConvergent"),
    ('gk_num(2, "1e-400", EvalConfig(64), route="direct")', "NonConvergent"),
    ('relative_error_num(2, "1e-400", EvalConfig(64), route="direct")', "NonConvergent"),
    ('gk_num(2, "1e-400", EvalConfig(64), route="series")', "TermCapExceeded"),
    ('gk_num(2, "1e-7", EvalConfig(64), route="series")', "TermCapExceeded"),
    ('relative_error_num(2, "1e-400", EvalConfig(64), route="series")', "TermCapExceeded"),
    ('theta_num("0.1", "1e-200", EvalConfig(64), use_inversion=False)', "TermCapExceeded"),
    ('theta_num("0.1", "1e400", EvalConfig(64), use_inversion=True)', "TermCapExceeded"),
    ('W_j_num(2, 0, 10**4, EvalConfig(64), route="series")', "NonConvergent"),
], ids=["direct-1e-200", "direct-1e-7", "direct-1e-310", "direct-1e-400", "relerr-direct-1e-400",
        "series-1e-400", "series-1e-7", "relerr-series-1e-400", "theta-1e-200",
        "theta-inversion-1e400", "wj-series-1e4"])
def test_refuses_promptly_with_exit_3(call, error):
    _assert_refusal(call, error, timeout=15)


@pytest.mark.parametrize("call", [
    'gamma_q_num(Fraction(1, 2), 1 - Fraction(1, 10**400), EvalConfig(64))',
    'pochhammer_num("0.5", 1 - Fraction(1, 10**12), EvalConfig(64))',
    'qsubz_num("0.3", 1 - Fraction(1, 10**12), EvalConfig(64))',
], ids=["gamma-q-1e-400", "pochhammer-1e-12", "qsubz-1e-12"])
def test_q_products_near_one_refuse_before_any_factor(call):
    # the factors down to the threshold are counted first: about 1e14 at
    # q = 1 - 1e-12, more still where q rounds to just below 1
    _assert_refusal(call, "TermCapExceeded", timeout=5)


def _assert_refusal(call, error, timeout):
    # a subprocess, so that a runaway sum is killed by the timeout
    proc = subprocess.run([sys.executable, "-c", PROGRAM.format(call=call)],
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert (proc.returncode, proc.stdout.strip()) == (3, error), proc.stderr


@pytest.mark.parametrize("s, taken", [("2.5e-7", True), ("2.4e-7", False)])
def test_direct_route_ceiling(monkeypatch, s, taken):
    # at k = 2 the guard C + 96 reaches 2^22 bits near s = 2.46e-7; a stub core
    # shows whether the route is taken, at over 4M working bits
    calls = []
    monkeypatch.setattr(hires, "_gk_direct_core", lambda *a: calls.append(a) or mp.mpf(1))
    if taken:
        assert gk_num(2, s, EvalConfig(64), route="direct") == 1
    else:
        with pytest.raises(NonConvergent):
            gk_num(2, s, EvalConfig(64), route="direct")
    assert len(calls) == int(taken)


def test_theta_refusal_follows_the_term_bound(monkeypatch):
    # with max_terms = 50 at 64 bits the bound s n^2 >= 96 ln2 - ln(2n+1) passes
    # the cap below s = 0.0248: s = 0.04 still sums (about 41 terms) and agrees
    # with the inversion, s = 0.02 refuses before any term
    monkeypatch.setattr(EvalConfig, "max_terms", 50)
    cfg = EvalConfig(64)
    got = theta_num("0.3", "0.04", cfg, use_inversion=False)
    assert close_bits(got, theta_num("0.3", "0.04", cfg, use_inversion=True), 56,
                      scale=abs(got))
    sums = []
    monkeypatch.setattr(hires, "_theta_sum", lambda *a: sums.append(a))
    with pytest.raises(TermCapExceeded):
        theta_num("0.3", "0.02", cfg, use_inversion=False)
    assert sums == []


def test_cli_reads_a_tiny_s_as_positive():
    # s = 1e-400 passes every positivity check read exactly; the q-product head it
    # needs, about 1e400 factors, is refused before any of them
    proc = subprocess.run([sys.executable, "-m", "qasymp", "verify", "--s", "1e-400",
                           "--prec", "64"], capture_output=True, text=True, timeout=15,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 3, proc.stderr
    assert "past max_terms" in proc.stderr
