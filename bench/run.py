#!/usr/bin/env python3
"""qasymp benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. A run sets up (import, seeded inputs, one untimed warm-up
operation), then repeats whole rounds of the workload's operations until the
next round would end after ``--seconds``, checks every output, and prints one
JSON object as its last line of output. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics and the tracing overhead. Details
of every run go to ``bench/out/``. See bench/README.md.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 3  # this process plus two fresh interpreters

END_TO_END = {"setup_s": "s", "sweep_s": "s", "op_p50_s": "s", "op_p99_s": "s",
              "peak_rss_mb": "MB"}
LAYER_METRICS = (
    "exactcore.series_mul.self_s", "exactcore.series_mul.calls",
    "exactcore.series_invert.self_s", "exactcore.series_invert.calls",
    "qseries.gk_series_andrews.self_s", "qseries.Gk_series_oracle.self_s",
    "qseries.pochhammer_series.self_s", "qseries.chi_series.self_s",
    "hires.gk_num.insum.self_s", "hires.gk_num.series.self_s",
    "hires.relative_error_num.self_s", "hires.gk_num.calls",
    "wright.W_j_num.series.self_s", "wright.W_j_num.quadrature.self_s",
    "wright.W_j_num.calls", "wright.wright_phi.self_s",
    "expansion.beta_coeff.self_s", "expansion.beta_coeff.calls",
    "expansion.expansion_eval.self_s", "expansion.rational_ratio.self_s",
    "expansion.hq_bivariate.self_s",
    "cli.main.self_s", "cli.main.calls",
)
TRACE_METRICS = {"trace.sweep_s": "s", "trace.untraced_sweep_s": "s", "trace.overhead_pct": "%"}


def load_workloads():
    """Import qasymp from this checkout's src/ (never from elsewhere) and the workloads."""
    init = SRC / "qasymp" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a qasymp checkout")
    sys.path.insert(0, str(SRC))
    import qasymp
    if Path(qasymp.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported qasymp from {qasymp.__file__}, not from {SRC}")
    import workloads
    return workloads


CAL_INTERVAL_S = 0.03   # a timer interrupts the run this often to time one calibration block
CAL_PAD_S = 0.1         # host speed of an execution: blocks from this long before to after it
CAL_REF_S = 0.0007      # reported times are scaled to a host where a block takes this long


def calibration_block():
    """A fixed piece of pure-Python work (big integers, fractions, a dict) of
    about a millisecond: its duration follows the speed the host gives us."""
    x = 3 ** 1000
    acc = sum((x * i) % 1000003 for i in range(1, 200))
    f = sum(Fraction(1, i * i) for i in range(1, 80))
    d = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0) + i
    return acc, f, d


class HostClock:
    """Follows the host's speed while operations run.

    A SIGALRM interval timer runs `calibration_block` every CAL_INTERVAL_S,
    also in the middle of long operations (Python runs the handler between
    bytecodes of the main thread; the block touches no state of the program).
    An execution's time is scaled by CAL_REF_S over the mean block duration
    around it (blocks over four times the median left out), after the time
    spent in the handler is taken off."""

    def __init__(self):
        self.starts, self.ends = [], []

    def _tick(self, signum, frame):
        # the cyclic collector stays off, so the block never collects the program's garbage
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            calibration_block()
            t1 = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def blocks(self, lo, hi):
        return range(bisect.bisect_left(self.starts, lo), bisect.bisect_right(self.ends, hi))

    def scaled(self, t0, t1):
        """(scaled seconds, factor) for work that ran from t0 to t1: the time
        outside the handler times CAL_REF_S over the mean block around it."""
        inside = sum(self.ends[b] - self.starts[b] for b in self.blocks(t0, t1))
        around = self.blocks(t0 - CAL_PAD_S, t1 + CAL_PAD_S)
        if len(around) < 3:
            around = self.blocks(t0 - 10 * CAL_PAD_S, t1 + 10 * CAL_PAD_S)
        blocks = [self.ends[b] - self.starts[b] for b in around]
        typical = statistics.median(blocks)
        factor = CAL_REF_S / statistics.fmean(d for d in blocks if d <= 4 * typical)
        return (t1 - t0 - inside) * factor, factor * (t1 - t0 - inside) / (t1 - t0)


def measure(wl, seconds, clock, tracer=None):
    """Run whole rounds until the next one would end after `seconds`.

    Every execution is timed and scaled by the host speed during it, as the
    running HostClock `clock` saw it. Returns per-operation lists of (scaled
    seconds, raw seconds, scaled self times, call counts) for untraced and
    traced repeats. Warm rounds are run but left out; with a tracer, counted
    rounds alternate untraced and traced."""
    n = len(wl.ops)
    executions = []   # (kind, op, start, raw seconds, self times, calls)
    first = {}
    problems = []     # wrong outputs
    failures = []     # operations that raised or returned a failure
    attempted = failed = rounds = 0
    start = perf_counter()
    while True:
        counted = rounds >= wl.warm_rounds
        trace_round = tracer is not None and counted and (rounds - wl.warm_rounds) % 2 == 1
        with tracer.installed() if trace_round else nullcontext():
            for i in range(n):
                wl.prepare(i, rounds)
                if trace_round:
                    tracer.reset_counts((i, rounds))
                attempted += 1
                t0 = perf_counter()
                try:
                    out = wl.run(i, rounds)
                except Exception as exc:  # counted as a failed operation
                    failed += 1
                    failures.append(f"{wl.ops[i][0]} (round {rounds}) raised "
                                    f"{type(exc).__name__}: {exc}")
                    continue
                dt = perf_counter() - t0
                if wl.failed(out):
                    failed += 1
                    failures.append(f"{wl.ops[i][0]} (round {rounds}) failed: {out!r:.200}")
                    continue
                if i not in first:
                    first[i] = out
                elif not wl.same(i, first[i], out):
                    problems.append(f"{wl.ops[i][0]}: round {rounds} output differs "
                                    "from its first output")
                if counted:
                    kind = "traced" if trace_round else "plain"
                    extra = ((dict(tracer.self_s), dict(tracer.calls)) if trace_round
                             else ({}, {}))
                    executions.append((kind, i, t0, dt) + extra)
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= wl.min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
    time.sleep(CAL_PAD_S)  # calibration blocks after the last execution
    samples = {"plain": [[] for _ in range(n)], "traced": [[] for _ in range(n)]}
    for kind, i, t0, dt, op_self, op_calls in executions:
        scaled, factor = clock.scaled(t0, t0 + dt)
        samples[kind][i].append((scaled, dt, {k: v * factor for k, v in op_self.items()},
                                 op_calls))
    return {"plain": samples["plain"], "traced": samples["traced"], "first": first,
            "problems": problems, "failures": failures,
            "calibration_s": [e - b for b, e in zip(clock.starts, clock.ends)],
            "attempted": attempted, "failed": failed, "rounds": rounds, "elapsed": elapsed}


def typical(labels, per_op):
    """Each operation's typical repeat: the lower median by scaled time. Operations
    with the same label do the same work, so their repeats are pooled."""
    pooled = {}
    for label, repeats in zip(labels, per_op):
        pooled.setdefault(label, []).extend(repeats)
    chosen = {label: sorted(reps, key=lambda t: t[0])[(len(reps) - 1) // 2]
              for label, reps in pooled.items() if reps}
    return [chosen[label] for label in labels if label in chosen]


def end_to_end(labels, plain, setup_samples, peak_rss_mb):
    times = [t[0] for t in typical(labels, plain)]
    return {
        "setup_s": statistics.median(setup_samples),
        "sweep_s": sum(times),
        "op_p50_s": statistics.median(times),
        "op_p99_s": statistics.quantiles(times, n=100, method="inclusive")[98],
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(labels, result, layer_metrics):
    """Self times and calls of each operation's typical traced repeat, summed."""
    from tracer import self_time_by_layer
    self_s, calls = {}, {}
    chosen = typical(labels, result["traced"])
    for _, _, op_self, op_calls in chosen:
        for span, v in op_self.items():
            self_s[span] = self_s.get(span, 0.0) + v
        for span, v in op_calls.items():
            calls[span] = calls.get(span, 0) + v
    metrics = self_time_by_layer(self_s, calls, layer_metrics)
    traced_sweep = sum(t[0] for t in chosen)
    plain_sweep = sum(t[0] for t in typical(labels, result["plain"]))
    metrics["trace.sweep_s"] = traced_sweep
    metrics["trace.untraced_sweep_s"] = plain_sweep
    metrics["trace.overhead_pct"] = 100.0 * (traced_sweep / plain_sweep - 1.0)
    return metrics


def setup_probe(name, seed):
    """Scaled set-up time of a fresh interpreter: import, inputs, warm-up operation."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def write_details(path, payload):
    OUT.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def write_spans(path, spans):
    OUT.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, name, start, end, tag in spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                 "start": start, "end": end, "op": tag[0],
                                 "round": tag[1]}) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    with HostClock() as clock:
        t0 = perf_counter()
        workloads = load_workloads()
        if args.workload not in workloads.WORKLOADS:
            sys.exit(f"error: unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
        wl = workloads.WORKLOADS[args.workload](args.seed)
        wl.warmup()
        t1 = perf_counter()
        if args.setup_probe:
            time.sleep(CAL_PAD_S)
            print(repr(clock.scaled(t0, t1)[0]))
            return 0
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        labels = [label for label, _ in wl.ops]
        result = measure(wl, args.seconds, clock, tracer)
    setup_s = clock.scaled(t0, t1)[0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = list(result["problems"])
    try:
        problems += wl.check(result["first"])
    except Exception:  # a check that crashes is a failed check
        problems.append("check raised:\n" + traceback.format_exc())
    correct = not problems

    if args.trace:
        metrics = per_layer(labels, result, LAYER_METRICS)
        units = {m: ("s" if m.endswith("self_s") else "count") for m in LAYER_METRICS}
        units.update(TRACE_METRICS)
        write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", tracer.spans)
    else:
        samples = [setup_s] + [setup_probe(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(labels, result["plain"], samples, peak_rss_mb)
        units = END_TO_END

    import mpmath
    write_details(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": result["rounds"], "elapsed_s": result["elapsed"],
        "operations": labels, "calibration_s": result["calibration_s"],
        "scaled_s": [[t[0] for t in r] for r in result["plain"]],
        "raw_s": [[t[1] for t in r] for r in result["plain"]],
        "traced_scaled_s": [[t[0] for t in r] for r in result["traced"]],
        "metrics": metrics, "problems": problems, "failures": result["failures"],
        "environment": {"python": platform.python_version(), "mpmath": mpmath.__version__,
                        "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count()},
    })
    for p in result["failures"]:
        print(f"failed: {p}")
    for p in problems:
        print(f"wrong: {p}")
    print(f"{args.workload} seed {args.seed}: {result['rounds']} rounds of {len(wl.ops)} "
          f"operations in {result['elapsed']:.1f} s")
    report = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(report))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
