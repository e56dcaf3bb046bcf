"""The benchmark's checks pass on the program's outputs and fail on perturbed ones.

    python3 -m pytest -q bench/test_checks.py      (from the checkout root, about half a minute)
"""
from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import workloads as W  # noqa: E402
from qasymp import expansion, qseries, wright  # noqa: E402
from qasymp.exactcore import FormalSeries  # noqa: E402
from qasymp.expansion import BivariateExpansion  # noqa: E402


def nudge(text, column, row, factor):
    """CSV text with one numeric cell multiplied by (1 + factor), written at 100 digits."""
    rows = W.csv_rows(text)
    with mp.workprec(400):
        rows[row][column] = mp.nstr(mp.mpf(rows[row][column]) * (1 + mp.mpf(factor)), 100)
    return "\n".join(",".join(r) for r in rows) + "\n"


# ---------------------------------------------------------------------------
# reference values agree with one another
# ---------------------------------------------------------------------------

def test_reference_routes_agree():
    assert ref.series_mul(ref.pentagonal(60), ref.partition_numbers(60), 60) == [1] + [0] * 60
    for k in (2, 3, 4):
        assert ref.no_run_counts(k, 22) == ref.brute_force_no_run_counts(k, 22)
    assert ref.g2_product_coefficients(80) == ref.gk_coefficients(2, 80)
    with mp.workprec(200):
        assert abs(ref.g2_mock_theta("1.5", 200) - ref.gk_from_counts(2, "1.5", 200)) \
            < mp.mpf(2) ** -190


# ---------------------------------------------------------------------------
# exact-tables
# ---------------------------------------------------------------------------

SMALL_EXACT = (
    ("andrews", 3, 60, lambda: qseries.gk_series_andrews(3, 60)),
    ("oracle", 3, 70, lambda: qseries.Gk_series_oracle(3, 70)),
    ("qq", None, 80, lambda: W.ExactTables.qq_and_inverse(80)),
    ("chi", None, 60, lambda: qseries.chi_series(60)),
    ("g2", None, 60, lambda: qseries.g2_product_side(60)),
    ("hq", 3, 8, lambda: expansion.hq_bivariate(3, 8)),
)


@pytest.fixture(scope="module")
def exact():
    wl = W.ExactTables(0)
    wl.meta = [(kind, k, n) for kind, k, n, _ in SMALL_EXACT]
    wl.ops = [(kind, None) for kind, *_ in SMALL_EXACT]
    outputs = {i: fn() for i, (*_, fn) in enumerate(SMALL_EXACT)}
    return wl, outputs


def bump(series, e):
    return series + FormalSeries.monomial(1, e, series.truncation_order)


def test_exact_checks_pass(exact):
    wl, outputs = exact
    assert wl.check(outputs) == []


@pytest.mark.parametrize("index", range(5))
def test_exact_checks_catch_one_coefficient(exact, index):
    wl, outputs = exact
    changed = dict(outputs)
    out = outputs[index]
    changed[index] = (out[0], bump(out[1], 50)) if isinstance(out, tuple) else bump(out, 23)
    assert wl.check(changed)


def test_exact_checks_catch_the_qq_product(exact):
    wl, outputs = exact
    changed = dict(outputs)
    qq, inv = outputs[2]
    changed[2] = (bump(qq, 40), inv)
    assert any("pentagonal" in m for m in wl.check(changed))


@pytest.mark.parametrize("n,j,delta", [(1, 2, Fraction(1, 1000)), (16, 8, Fraction(1, 10**9))])
def test_hq_check_catches_a_coefficient(n, j, delta):
    biv = expansion.hq_bivariate(3, 8)
    table = [list(row) for row in biv.table]
    table[j][n] += delta
    bad = W.check_hq_table(3, BivariateExpansion(3, 8, tuple(tuple(r) for r in table)))
    assert bad


# ---------------------------------------------------------------------------
# small-s-sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_s():
    wl = W.SmallSSweep(0)
    wl.points = [(2, Fraction("0.2"))]
    wl.ops = wl.ops[:1]
    wl.sampled = 0
    return wl, {0: wl.verify(2, Fraction("0.2"), 0)}


def test_small_s_checks_pass(small_s):
    wl, outputs = small_s
    assert wl.check(outputs) == []


@pytest.mark.parametrize("column,expect", [
    (1, "chi(q)"), (1, "doubling"), (3, "rel_dev differs"),
    (4, "R_k differs"), (5, "W0 differs"),
])
def test_small_s_checks_catch_a_column(small_s, column, expect):
    wl, outputs = small_s
    code, text = outputs[0]
    bad = wl.check({0: (code, nudge(text, column, 1, "1e-70"))})
    assert any(expect in m for m in bad), bad


def test_rel_dev_factor_catches_a_wrong_order(small_s):
    _, outputs = small_s
    row = W.parse_verify(outputs[0][1])
    assert W.check_rel_dev(2, Fraction("0.2"), 256, row) == []
    row["rel_dev"] = str(mp.mpf(row["rel_dev"]) * 2)
    assert W.check_rel_dev(2, Fraction("0.2"), 256, row)


# ---------------------------------------------------------------------------
# wright-sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wright_run():
    wl = W.WrightSweep(0)
    keep = [t for t in wl.wj if t[1] == 3 and t[2] == 1] + [wl.phi[0], wl.phi[1]]
    ops, wj, phi = [], [], []
    for t in keep:
        if len(t) == 5:
            wj.append((len(ops),) + t[1:])
        else:
            phi.append((len(ops),) + t[1:])
        ops.append(wl.ops[t[0]])
    wl.ops, wl.wj, wl.phi = ops, wj, phi
    wl.cross = wj[0]
    return wl, {i: wl.run(i, 0) for i in range(len(ops))}


def test_wright_checks_pass(wright_run):
    wl, outputs = wright_run
    assert wl.check(outputs) == []


@pytest.mark.parametrize("index,factor,expect", [
    (0, "1e-50", "direct summation"),
    (0, "1e-50", "routes disagree"),
    (1, "1e-9", "first omitted term"),
    (2, "1e-50", "direct summation"),
    (3, "0.05", "is not O(s)"),
])
def test_wright_checks_catch_a_value(wright_run, index, factor, expect):
    wl, outputs = wright_run
    changed = dict(outputs)
    with mp.workprec(400):
        changed[index] = outputs[index] * (1 + mp.mpf(factor))
    bad = wl.check(changed)
    assert any(expect in m for m in bad), bad


# ---------------------------------------------------------------------------
# warm-session
# ---------------------------------------------------------------------------

def test_zagier_check():
    _, text = W.call_cli(["zagier", "--m-max", "7", "--prec", "256"])
    assert W.check_zagier(7, 256, text) == []
    assert W.check_zagier(7, 256, text.replace("-97/6912", "-97/6913"))
    lines = text.splitlines()
    assert W.check_zagier(7, 256, "\n".join([lines[0].replace("0.", "0.1", 1)] + lines[1:]))


def test_beta_check():
    _, text = W.call_cli(["beta", "--k", "3", "--order", "8", "--prec", "128"])
    assert W.check_beta(3, 8, 128, text) == []
    assert W.check_beta(3, 8, 128, nudge(text, 1, 2, "1e-30"))
    assert W.check_beta(3, 8, 128, text.replace("-29/240", "-29/241"))


@pytest.mark.parametrize("which", ["gk", "Gk", "chi"])
def test_coeffs_check(which):
    _, text = W.call_cli(["coeffs", "--k", "3", "--which", which, "--order", "30"])
    assert W.check_coeffs(3, which, 30, text) == []
    rows = W.csv_rows(text)
    rows[20][1] = str(int(rows[20][1]) + 1)
    assert W.check_coeffs(3, which, 30, "\n".join(",".join(r) for r in rows))


def test_wright_request_check():
    _, text = W.call_cli(["wright", "--k", "3", "--N", "2", "--s", "1.04", "--prec", "64"])
    assert W.check_wright(3, 2, Fraction("1.04"), 64, text) == []
    assert W.check_wright(3, 2, Fraction("1.04"), 64, nudge(text, 1, 1, "1e-15"))


def test_warm_verify_checks():
    wl = W.WarmSession(0)
    argv = ["verify", "--k", "3", "--s", "1.5", "--N", "1", "--prec", "128"]
    wl.ops = [(" ".join(argv), None)]
    code, text = W.call_cli(argv)
    assert wl.check({0: (code, text)}) == []
    bad = wl.check({0: (code, nudge(text, 1, 1, "1e-30"))})
    assert any("partition-count" in m for m in bad), bad
