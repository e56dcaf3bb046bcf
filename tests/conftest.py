import contextlib
import hashlib
import io
from pathlib import Path

import mpmath as mp
import pytest

from qasymp import cli
from qasymp.errors import QAsympError
from qasymp.hires import EvalConfig

# The tests measured above 5 s each on a 2-core box, and the other five k = 4
# series comparisons: about 1 s each warm, but whichever of them runs first pays
# mpmath's one-off Gamma setup at about 5,000 bits, 6-7 s (about 85 s together):
# `pytest -m "not slow"` leaves them out; the full suite runs them.
SLOW = {
    "tests/test_wright_kernels.py::TestSeriesAgainstPhiLoop::test_same_bits",
    "tests/test_measured_cancellation.py::test_log_tail_within_documented_bound",
    "tests/test_wright_kernels.py::TestQuadratureContract::test_large_w[0-4-256]",
    "tests/test_wright_kernels.py::TestQuadratureContract::test_large_w[0-2-192]",
    "tests/test_wright_kernels.py::TestQuadratureContract::test_large_w[0-2-256]",
    "tests/test_wright_kernels.py::TestQuadratureContract::test_large_w[0-4-192]",
    "tests/test_wright.py::TestExpansions::test_expansion_matches_direct_phi_with_stable_constant",
    "tests/test_wright_kernels.py::TestQuadratureContract::test_agrees_with_series[0-4-192]",
    "tests/test_wright_kernels.py::TestQuadratureContract::test_agrees_with_series[0-4-256]",
    "tests/test_wright_kernels.py::TestQuadratureContract::test_agrees_with_series[1-4-192]",
    "tests/test_wright_kernels.py::TestQuadratureContract::test_agrees_with_series[1-4-256]",
    "tests/test_wright_kernels.py::TestQuadratureContract::test_agrees_with_series[2-4-192]",
    "tests/test_wright_kernels.py::TestQuadratureContract::test_agrees_with_series[2-4-256]",
    "tests/test_insum_chains.py::test_chains_match_per_n_loop",
}


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(config, items):
    # every SLOW id in a file collected whole must name one of its tests, checked
    # before -k/-m deselect any; a node-id argument or --lf collects part of a file
    ids = {item.nodeid for item in items}
    files = {i.split("::")[0] for i in ids}
    part = {Path(arg.split("::")[0]).name for arg in config.args if "::" in arg}
    lost = sorted(i for i in SLOW - ids
                  if i.split("::")[0] in files and Path(i.split("::")[0]).name not in part)
    if lost and not config.getoption("lf", False):
        raise pytest.UsageError(f"SLOW names tests that were not collected: {lost}")
    for item in items:
        if item.nodeid in SLOW:
            item.add_marker(pytest.mark.slow)


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def cfg128():
    return EvalConfig(128)


@pytest.fixture(scope="session")
def cfg192():
    return EvalConfig(192)


@pytest.fixture(scope="session")
def cfg256():
    return EvalConfig(256)


def close_bits(a, b, bits, scale=None):
    """|a - b| <= 2^-bits * scale, compared at enough working precision."""
    with mp.workprec(max(bits + 64, 128)):
        aa, bb = mp.mpmathify(a), mp.mpmathify(b)
        sc = mp.mpf(scale) if scale is not None else max(abs(aa), abs(bb), mp.mpf(1))
        return abs(aa - bb) <= mp.mpf(2) ** (-bits) * sc


def rel_diff(a, b, prec=300):
    with mp.workprec(prec):
        aa, bb = mp.mpmathify(a), mp.mpmathify(b)
        return abs(aa - bb) / max(abs(aa), abs(bb), mp.mpf(2) ** (-prec))


def canon(v):
    """Plain-int tuples of an mpf, an mpc or a tuple of them: the exact
    (sign, man, exp, bc) of each mpf, real and imaginary parts apart."""
    if isinstance(v, tuple):
        return tuple(canon(x) for x in v)
    if isinstance(v, mp.mpc):
        return tuple(tuple(int(x) for x in part) for part in v._mpc_)
    return tuple(int(x) for x in v._mpf_)


def digest(rows):
    """sha256 over repr((key, canon(fn()))) of the (key, fn) rows in order; a row
    that raises a QAsympError or ValueError hashes ("raises", its class name)."""
    h = hashlib.sha256()
    for key, fn in rows:
        try:
            got = canon(fn())
        except (QAsympError, ValueError) as exc:
            got = ("raises", type(exc).__name__)
        h.update(repr((key, got)).encode())
    return h.hexdigest()


def digest_parts(series):
    """A FormalSeries as (its JSON terms, low exponent, truncation order)."""
    return series.to_json(), series.low_exponent, series.truncation_order
