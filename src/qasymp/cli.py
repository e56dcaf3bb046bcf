"""Command-line front end.

Subcommands: coeffs, verify, zagier, beta, wright, plotdata.
Exit codes: 0 success, 1 verification failure, 2 usage/domain error,
3 convergence failure, 4 rational-reconstruction failure.
All outputs are deterministic: identical invocations produce identical bytes.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import expansion, hires, qseries, wright
from .errors import (DivisionByZeroBeta, InvalidK, InvalidRho, NonConvergent,
                     PoleAtNonpositive, QAsympError, ReconstructionFailed,
                     SeriesTruncationError, TermCapExceeded)
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


@dataclass
class RunConfig:
    """Parsed invocation: s values are exact decimal rationals, converted to
    floating form once, at the target precision."""

    subcommand: str
    k: int = 3
    order: int = 10
    n_order: int = 1
    s_grid: tuple = ()
    precision_bits: int = 256
    out: str | None = None
    fmt: str = "csv"
    which: str = "gk"
    m_max: int = 5

    @property
    def eval_config(self) -> EvalConfig:
        return EvalConfig(self.precision_bits)


def _parse_s_grid(text: str) -> tuple:
    vals = tuple(Fraction(part.strip()) for part in text.split(",") if part.strip())
    if not vals or any(v <= 0 for v in vals):
        raise ValueError("s grid must be positive decimal values")
    return vals


def _emit(rows, header, cfg: RunConfig) -> str:
    if cfg.fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps(payload, indent=0) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _coeff_str(c, fmt: str) -> str:
    return rational_to_str(c) if fmt == "json" else str(Fraction(c))


def cmd_coeffs(cfg: RunConfig) -> int:
    if cfg.which == "gk":
        series = qseries.gk_series_andrews(cfg.k, cfg.order)
    elif cfg.which == "Gk":
        series = qseries.Gk_series_oracle(cfg.k, cfg.order)
    elif cfg.which == "chi":
        series = qseries.chi_series(cfg.order)
    else:
        raise ValueError(f"unknown series {cfg.which!r}")
    rows = [(n, _coeff_str(series.coefficient(n), cfg.fmt)) for n in range(cfg.order + 1)]
    _write(_emit(rows, ("n", "coefficient"), cfg), cfg)
    return EXIT_OK


def _w_of_s(k: int, s):
    return mp.power(k + 1, mp.mpf(k) / (k + 1)) / (k * mp.power(s, mp.mpf(1) / (k + 1)))


def cmd_verify(cfg: RunConfig) -> int:
    ec = cfg.eval_config
    rows = []
    deviations = []
    for sf in cfg.s_grid:
        with hires.LOCK, mp.workprec(cfg.precision_bits + 32):
            s = hires.frac_to_mpf(sf)
        g, r = hires.gk_and_relative_error_num(cfg.k, s, ec)
        e = expansion.expansion_eval(cfg.k, cfg.n_order, s, ec)
        with hires.LOCK, mp.workprec(cfg.precision_bits + 32):
            dev = abs(g - e) / abs(g)
            w0 = wright.W_j_num(cfg.k, 0, _w_of_s(cfg.k, s), ec)
        deviations.append(dev)
        rows.append((str(sf), *(hires.format_real(x, ec) for x in (g, e, dev, r, w0))))
    _write(_emit(rows, ("s", "g_k", "expansion", "rel_dev", "R_k", "W0"), cfg), cfg)
    monotone = all(deviations[i + 1] < deviations[i] for i in range(len(deviations) - 1))
    return EXIT_OK if monotone else EXIT_CHECK_FAILED


def cmd_zagier(cfg: RunConfig) -> int:
    ec = cfg.eval_config
    t1, t2 = expansion.zagier_t_coeffs(cfg.m_max, ec)
    c1 = expansion.zagier_c1(ec)
    c2 = expansion.zagier_c2(ec)
    lines = [
        f"c1 = {hires.format_real(c1, ec)}  [3^(-1/6) Gamma(1/3) / (8 pi)]",
        f"c2 = {hires.format_real(c2, ec)}  [3^(1/6) Gamma(2/3) / (32 pi)]",
    ]
    rows = []
    for name, got, ref in (("t1", t1, ZAGIER_T1), ("t2", t2, ZAGIER_T2)):
        for m, val in enumerate(got):
            if m < len(ref):
                verdict = "MATCH" if val == ref[m] else "FAIL"
            else:
                verdict = "NEW"
            rows.append((name, m, str(val), verdict))
    body = _emit(rows, ("series", "m", "coefficient", "verdict"), cfg)
    _write("\n".join(lines) + "\n" + body, cfg)
    return EXIT_OK


def cmd_beta(cfg: RunConfig) -> int:
    ec = cfg.eval_config
    rows = []
    for j in range(1, cfg.order + 1):
        b = expansion.beta_coeff(cfg.k, j, ec)
        ratio = ""
        base = j % cfg.k
        if j > cfg.k and base != 0:
            ratio = str(expansion.beta_rational(cfg.k, j) / expansion.beta_rational(cfg.k, base))
        rows.append((j, hires.format_real(b, ec), ratio))
    _write(_emit(rows, ("j", "beta", "ratio_to_base"), cfg), cfg)
    return EXIT_OK


def cmd_wright(cfg: RunConfig) -> int:
    ec = cfg.eval_config
    rows = []
    for sf in cfg.s_grid:
        with hires.LOCK, mp.workprec(cfg.precision_bits + 32):
            w = hires.frac_to_mpf(sf)
        if cfg.which == "phi":
            rho = Fraction(cfg.k, cfg.k + 1)
            with hires.LOCK, mp.workprec(cfg.precision_bits + 32):
                z = w * mp.expjpi(hires.frac_to_mpf(rho))
            val = wright.wright_phi(wright.WrightParams(rho), z, ec)
            rows.append((str(sf), hires.format_real(mp.re(val), ec),
                         hires.format_real(mp.im(val), ec)))
        else:
            val = wright.W_j_num(cfg.k, cfg.n_order, w, ec)
            rows.append((str(sf), hires.format_real(val, ec)))
    header = ("w", "re_phi", "im_phi") if cfg.which == "phi" else ("w", "W_j")
    _write(_emit(rows, header, cfg), cfg)
    return EXIT_OK


def cmd_plotdata(cfg: RunConfig) -> int:
    ec = cfg.eval_config
    rows = []
    for sf in cfg.s_grid:
        with hires.LOCK, mp.workprec(cfg.precision_bits + 32):
            s = hires.frac_to_mpf(sf)
        g = hires.gk_num(cfg.k, s, ec)
        e = expansion.expansion_eval(cfg.k, cfg.n_order, s, ec)
        with hires.LOCK, mp.workprec(cfg.precision_bits + 32):
            dev = abs(g - e) / abs(g)
            logdev = mp.log10(dev) if dev > 0 else mp.mpf("-inf")
        rows.append((str(sf), mp.nstr(logdev, 17)))
    _write(_emit(rows, ("s", "log10_rel_dev"), cfg), cfg)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qasymp",
        description="Exact and high-precision tools for partitions without "
                    "k consecutive part sizes and their small-s asymptotics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, s_default=None):
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--order", type=int, default=10)
        p.add_argument("--N", dest="n_order", type=int, default=1)
        p.add_argument("--s", type=str, default=s_default)
        p.add_argument("--prec", dest="precision_bits", type=int, default=256)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("coeffs", help="dump exact series coefficients")
    common(p)
    p.add_argument("--which", choices=("gk", "Gk", "chi"), default="gk")

    p = sub.add_parser("verify", help="compare g_k against the Puiseux expansion on an s grid")
    common(p, s_default="0.2,0.1,0.05")

    p = sub.add_parser("zagier", help="reproduce Zagier's t1/t2 rational tables")
    common(p)
    p.add_argument("--m-max", dest="m_max", type=int, default=5)

    p = sub.add_parser("beta", help="dump beta_k(j) values and rational ratios")
    common(p)

    p = sub.add_parser("wright", help="evaluate W_j (or phi on the relevant ray); --s is the w grid")
    common(p, s_default="10,20")
    p.add_argument("--which", choices=("Wj", "phi"), default="Wj")

    p = sub.add_parser("plotdata", help="emit (s, log10 relative deviation) pairs")
    common(p, s_default="0.2,0.1,0.05")
    return parser


_DISPATCH = {
    "coeffs": cmd_coeffs,
    "verify": cmd_verify,
    "zagier": cmd_zagier,
    "beta": cmd_beta,
    "wright": cmd_wright,
    "plotdata": cmd_plotdata,
}


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, (NonConvergent, TermCapExceeded)):
        return EXIT_NONCONVERGENT
    if isinstance(exc, (ReconstructionFailed, DivisionByZeroBeta)):
        return EXIT_RECONSTRUCTION
    if isinstance(exc, (InvalidK, InvalidRho, PoleAtNonpositive, SeriesTruncationError,
                        QAsympError, ValueError)):
        return EXIT_USAGE
    raise exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    kwargs = {k: v for k, v in vars(ns).items() if v is not None}
    s_text = kwargs.pop("s", None)
    try:
        if s_text is not None:
            kwargs["s_grid"] = _parse_s_grid(s_text)
        cfg = RunConfig(**kwargs)
        if cfg.precision_bits < 64:
            raise ValueError("precision must be at least 64 bits")
        return _DISPATCH[cfg.subcommand](cfg)
    except Exception as exc:  # mapped to the documented exit vocabulary
        sys.stderr.write(f"error: {exc}\n")
        return exit_code_for(exc)


if __name__ == "__main__":
    raise SystemExit(main())
