"""The mpf head of the q-products (hires._poch_inf_exps_core) honours
EvalConfig.max_terms: at s so small that the head would need more factors than
the cap, every caller refuses with TermCapExceeded (CLI exit 3) at once, instead
of overflowing a float or running for minutes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qasymp
from qasymp import hires
from qasymp.errors import TermCapExceeded
from qasymp.hires import EvalConfig

SRC = str(Path(qasymp.__file__).resolve().parents[1])


def test_direct_product_refuses_past_the_float_range():
    with pytest.raises(TermCapExceeded):
        hires.qq_infinity_num("1e-400", EvalConfig(64), use_transform=False)


def test_head_just_past_the_cap_refuses():
    # the head of (q;q)_inf has about 8 ln 2 / s factors
    s = 8 * hires.LN2 / (EvalConfig.max_terms + 10)
    with pytest.raises(TermCapExceeded):
        hires.qq_infinity_num(s, EvalConfig(64), use_transform=False)


@pytest.mark.parametrize("argv", [
    ["verify", "--s", "1e-320", "--prec", "64"],
    ["verify", "--s", "1e-200", "--prec", "64"],
    ["verify", "--s", "1e-7", "--prec", "64"],
    ["plotdata", "--s", "1e-320"],
])
def test_cli_exits_3_promptly(argv):
    # a subprocess, so that a runaway head is killed by the timeout
    proc = subprocess.run([sys.executable, "-m", "qasymp", *argv], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and "max_terms" in proc.stderr
