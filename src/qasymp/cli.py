"""Command-line front end.

Subcommands: coeffs, verify, zagier, beta, wright, plotdata. Each declares only
the options it reads (README lists them), every shared default once in
_OPTIONS, so argparse rejects any other option with exit 2. The parsed namespace
goes straight to the subcommand's cmd_* function, set as its ``run`` default.
Exit codes: 0 success, 1 verification failure, 2 usage/domain error,
3 convergence failure, 4 rational-reconstruction failure.
All outputs are deterministic: identical invocations produce identical bytes.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

import mpmath as mp

from . import expansion, hires, qseries, wright
from .errors import (DivisionByZeroBeta, NonConvergent, QAsympError,
                     ReconstructionFailed, TermCapExceeded, check_at_least)
from .exactcore import rational_to_str
from .hires import EvalConfig

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENT = 3
EXIT_RECONSTRUCTION = 4

# Zagier's numerically discovered k=3 coefficient tables (built-in reference)
ZAGIER_T1 = (
    Fraction(1),
    Fraction(-7, 2**6 * 3),
    Fraction(-97, 2**8 * 3**3),
    Fraction(-40061, 2**15 * 3**4),
    Fraction(-18915331, 2**19 * 3**6 * 5),
    Fraction(-13796617247, 2**27 * 3**6 * 5),
)
ZAGIER_T2 = (
    Fraction(5),
    Fraction(-29, 2**4 * 3),
    Fraction(19435, 2**11 * 3**3),
    Fraction(-14885, 2**12 * 3**3),
    Fraction(51970999, 2**18 * 3**6),
    Fraction(-28436136277, 2**24 * 3**7 * 5),
)


def _s_grid(text: str) -> tuple:
    """--s: comma-separated positive decimals, kept as exact rationals."""
    vals = tuple(Fraction(part.strip()) for part in text.split(",") if part.strip())
    if not vals or any(v <= 0 for v in vals):
        raise argparse.ArgumentTypeError("s grid must be positive decimal values")
    return vals


def _precision_bits(text: str) -> int:
    bits = int(text)
    if bits < 64:
        raise argparse.ArgumentTypeError("precision must be at least 64 bits")
    return bits


def _wide(ns: argparse.Namespace, core, *args):
    """core(*args) at precision_bits + 32 bits, where the CLI reads its grid and
    does its own arithmetic."""
    return hires.evaluate(EvalConfig(ns.precision_bits + 32), 0, core, *args)


def _grid(ns: argparse.Namespace) -> list:
    """Each --s value as its decimal text and as an mpf at precision_bits + 32."""
    return [(str(v), _wide(ns, hires.frac_to_mpf, v)) for v in ns.s_grid]


def _emit(rows, header, ns: argparse.Namespace) -> str:
    if ns.fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps(payload, indent=0) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def _write(text: str, ns: argparse.Namespace) -> None:
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _coeff_str(c, fmt: str) -> str:
    return rational_to_str(c) if fmt == "json" else str(Fraction(c))


def cmd_coeffs(ns: argparse.Namespace) -> int:
    if ns.which == "gk":
        series = qseries.gk_series_andrews(ns.k, ns.order)
    elif ns.which == "Gk":
        series = qseries.Gk_series_oracle(ns.k, ns.order)
    else:
        series = qseries.chi_series(ns.order)
    rows = [(n, _coeff_str(series.coefficient(n), ns.fmt)) for n in range(ns.order + 1)]
    _write(_emit(rows, ("n", "coefficient"), ns), ns)
    return EXIT_OK


def _w_of_s(k: int, s):
    return mp.power(k + 1, mp.mpf(k) / (k + 1)) / (k * mp.power(s, mp.mpf(1) / (k + 1)))


def cmd_verify(ns: argparse.Namespace) -> int:
    ec = EvalConfig(ns.precision_bits)
    rows = []
    deviations = []
    for text, s in _grid(ns):
        g, r = hires.gk_and_relative_error_num(ns.k, s, ec)
        e = expansion.expansion_eval(ns.k, ns.n_order, s, ec)
        dev, w = _wide(ns, lambda: (abs(g - e) / abs(g), _w_of_s(ns.k, s)))
        w0 = wright.W_j_num(ns.k, 0, w, ec)
        deviations.append(dev)
        rows.append((text, *(hires.format_real(x, ec) for x in (g, e, dev, r, w0))))
    _write(_emit(rows, ("s", "g_k", "expansion", "rel_dev", "R_k", "W0"), ns), ns)
    monotone = all(deviations[i + 1] < deviations[i] for i in range(len(deviations) - 1))
    return EXIT_OK if monotone else EXIT_CHECK_FAILED


def cmd_zagier(ns: argparse.Namespace) -> int:
    ec = EvalConfig(ns.precision_bits)
    t1, t2 = expansion.zagier_t_coeffs(ns.m_max, ec)
    c1 = expansion.zagier_c1(ec)
    c2 = expansion.zagier_c2(ec)
    lines = [
        f"c1 = {hires.format_real(c1, ec)}  [3^(-1/6) Gamma(1/3) / (8 pi)]",
        f"c2 = {hires.format_real(c2, ec)}  [3^(1/6) Gamma(2/3) / (32 pi)]",
    ]
    rows = []
    for name, got, ref in (("t1", t1, ZAGIER_T1), ("t2", t2, ZAGIER_T2)):
        for m, val in enumerate(got):
            verdict = "NEW" if m >= len(ref) else "MATCH" if val == ref[m] else "FAIL"
            rows.append((name, m, str(val), verdict))
    body = _emit(rows, ("series", "m", "coefficient", "verdict"), ns)
    _write("\n".join(lines) + "\n" + body, ns)
    return EXIT_OK


def cmd_beta(ns: argparse.Namespace) -> int:
    check_at_least(ns.order, 1, "order")
    ec = EvalConfig(ns.precision_bits)
    rows = []
    for j in range(1, ns.order + 1):
        b = expansion.beta_coeff(ns.k, j, ec)
        ratio = ""
        base = j % ns.k
        if j > ns.k and base != 0:
            ratio = str(expansion.beta_rational(ns.k, j) / expansion.beta_rational(ns.k, base))
        rows.append((j, hires.format_real(b, ec), ratio))
    _write(_emit(rows, ("j", "beta", "ratio_to_base"), ns), ns)
    return EXIT_OK


def cmd_wright(ns: argparse.Namespace) -> int:
    ec = EvalConfig(ns.precision_bits)
    rows = []
    for text, w in _grid(ns):
        if ns.which == "phi":
            rho = Fraction(ns.k, ns.k + 1)
            z = _wide(ns, lambda: w * mp.expjpi(hires.frac_to_mpf(rho)))
            val = wright.wright_phi(wright.WrightParams(rho), z, ec)
            rows.append((text, hires.format_real(mp.re(val), ec),
                         hires.format_real(mp.im(val), ec)))
        else:
            val = wright.W_j_num(ns.k, ns.n_order, w, ec)
            rows.append((text, hires.format_real(val, ec)))
    header = ("w", "re_phi", "im_phi") if ns.which == "phi" else ("w", "W_j")
    _write(_emit(rows, header, ns), ns)
    return EXIT_OK


def cmd_plotdata(ns: argparse.Namespace) -> int:
    ec = EvalConfig(ns.precision_bits)
    rows = []
    for text, s in _grid(ns):
        g = hires.gk_num(ns.k, s, ec)
        e = expansion.expansion_eval(ns.k, ns.n_order, s, ec)
        dev = _wide(ns, lambda: abs(g - e) / abs(g))
        logdev = _wide(ns, mp.log10, dev) if dev > 0 else mp.mpf("-inf")
        rows.append((text, mp.nstr(logdev, 17)))
    _write(_emit(rows, ("s", "log10_rel_dev"), ns), ns)
    return EXIT_OK


# Each shared option with its one default; a subcommand adds the ones it reads.
_OPTIONS = {
    "--k": dict(type=int, default=3),
    "--order": dict(type=int, default=10),
    "--N": dict(dest="n_order", type=int, default=1),
    "--s": dict(dest="s_grid", type=_s_grid, default="0.2,0.1,0.05"),
    "--prec": dict(dest="precision_bits", type=_precision_bits, default=256),
    "--format": dict(dest="fmt", choices=("csv", "json"), default="csv"),
    "--out": dict(),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qasymp",
        description="Exact and high-precision tools for partitions without "
                    "k consecutive part sizes and their small-s asymptotics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, run, summary, *flags):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        for flag in (*flags, "--format", "--out"):
            p.add_argument(flag, **_OPTIONS[flag])
        return p

    p = command("coeffs", cmd_coeffs, "dump exact series coefficients", "--k", "--order")
    p.add_argument("--which", choices=("gk", "Gk", "chi"), default="gk")
    command("verify", cmd_verify, "compare g_k against the Puiseux expansion on an s grid",
            "--k", "--N", "--s", "--prec")
    p = command("zagier", cmd_zagier, "reproduce Zagier's t1/t2 rational tables", "--prec")
    p.add_argument("--m-max", dest="m_max", type=int, default=5)
    command("beta", cmd_beta, "dump beta_k(j) values and rational ratios",
            "--k", "--order", "--prec")
    p = command("wright", cmd_wright, "evaluate W_j (or phi on the relevant ray) on a w grid",
                "--k", "--N", "--prec")
    p.add_argument("--s", dest="s_grid", type=_s_grid, default="10,20", help="the w grid")
    p.add_argument("--which", choices=("Wj", "phi"), default="Wj")
    command("plotdata", cmd_plotdata, "emit (s, log10 relative deviation) pairs",
            "--k", "--N", "--s", "--prec")
    return parser


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, (NonConvergent, TermCapExceeded)):
        return EXIT_NONCONVERGENT
    if isinstance(exc, (ReconstructionFailed, DivisionByZeroBeta)):
        return EXIT_RECONSTRUCTION
    if isinstance(exc, (QAsympError, ValueError)):
        return EXIT_USAGE
    raise exc


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return ns.run(ns)
    except Exception as exc:  # mapped to the documented exit vocabulary
        sys.stderr.write(f"error: {exc}\n")
        return exit_code_for(exc)


if __name__ == "__main__":
    raise SystemExit(main())
