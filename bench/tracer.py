"""Spans around calls into qasymp's public functions, recorded from outside.

``Tracer.installed()`` replaces each listed function, in every qasymp module
namespace that binds it, with a wrapper that records a span (id, parent, name,
start, end). Calls between modules and within a module go through the
wrappers too, because Python looks module globals up at call time. A span's
self time is its duration minus the durations of its child spans. Names that
a later version of the program no longer has are skipped.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name); attribute "Class.method" wraps a method. Besides
# the reported layers, the list holds the public functions they call, so that a
# layer's self time leaves out the work of its callees.
SPAN_POINTS = (
    ("exactcore", "FormalSeries.__mul__", "exactcore.series_mul"),
    ("exactcore", "FormalSeries.invert", "exactcore.series_invert"),
    ("exactcore", "bernoulli_polynomial", "exactcore.bernoulli_polynomial"),
    ("qseries", "gk_series_andrews", "qseries.gk_series_andrews"),
    ("qseries", "Gk_series_oracle", "qseries.Gk_series_oracle"),
    ("qseries", "pochhammer_series", "qseries.pochhammer_series"),
    ("qseries", "theta_series", "qseries.theta_series"),
    ("qseries", "chi_series", "qseries.chi_series"),
    ("qseries", "g2_product_side", "qseries.g2_product_side"),
    ("hires", "gk_num", "hires.gk_num"),
    ("hires", "relative_error_num", "hires.relative_error_num"),
    ("wright", "W_j_num", "wright.W_j_num"),
    ("wright", "wright_phi", "wright.wright_phi"),
    ("wright", "b_k_coeff", "wright.b_k_coeff"),
    ("expansion", "hq_bivariate", "expansion.hq_bivariate"),
    ("expansion", "f2j_polynomial", "expansion.f2j_polynomial"),
    ("expansion", "beta_coeff", "expansion.beta_coeff"),
    ("expansion", "expansion_eval", "expansion.expansion_eval"),
    ("expansion", "rational_ratio", "expansion.rational_ratio"),
    ("expansion", "zagier_t_coeffs", "expansion.zagier_t_coeffs"),
    ("cli", "main", "cli.main"),
)


def _as_float(x):
    return float(Fraction(x)) if isinstance(x, str) else float(x)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def gk_route(args, kwargs):
    """The route gk_num takes: "auto" is series for s >= 1, insum below."""
    route = _arg(args, kwargs, 3, "route", "auto")
    if route == "auto":
        route = "series" if _as_float(_arg(args, kwargs, 1, "s")) >= 1 else "insum"
    return route


def wj_route(args, kwargs):
    """The route W_j_num takes: "auto" sums the series while the cancellation
    bits exp((1-rho) rho^(rho/(1-rho)) w^(1/(1-rho))) plus the precision stay
    within 2600 bits, and integrates otherwise."""
    route = _arg(args, kwargs, 4, "route", "auto")
    if route == "auto":
        k = _arg(args, kwargs, 0, "k")
        w = _as_float(_arg(args, kwargs, 2, "w"))
        prec = _arg(args, kwargs, 3, "cfg").precision_bits
        rho = k / (k + 1)
        bits = 16
        if w > 1:
            bits += int((1 - rho) * rho ** (rho / (1 - rho)) * w ** (1 / (1 - rho)) * 1.4427)
        route = "series" if bits + prec <= 2600 else "quadrature"
    return route


ROUTES = {"hires.gk_num": gk_route, "wright.W_j_num": wj_route}


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent id, name, start, end, tag)
        self.stack = []          # open spans: [id, name, start, child time]
        self.tag = None
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self._next_id = 0

    def reset_counts(self, tag):
        """Start per-operation accumulators; spans keep the tag."""
        self.tag = tag
        self.self_s = defaultdict(float)
        self.calls = Counter()

    def wrap(self, name, fn):
        route_of = ROUTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = f"{name}.{route_of(args, kwargs)}" if route_of else name
            self._next_id += 1
            frame = [self._next_id, span, perf_counter(), 0.0]
            parent = self.stack[-1][0] if self.stack else None
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                duration = end - frame[2]
                self.self_s[span] += duration - frame[3]
                self.calls[span] += 1
                if self.stack:
                    self.stack[-1][3] += duration
                self.spans.append((frame[0], parent, span, frame[2], end, self.tag))

        return traced

    @contextmanager
    def installed(self):
        """Wrap every span point for the duration of the block."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "qasymp" or n.startswith("qasymp."))]
        patched = []  # (owner, attribute, original)
        try:
            for module_name, attr, name in SPAN_POINTS:
                module = sys.modules.get(f"qasymp.{module_name}")
                if module is None:
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    original = vars(cls).get(meth) if cls is not None else None
                    if original is None:
                        continue
                    patched.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(name, original))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(name, original)
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            patched.append((owner, key, original))
                            setattr(owner, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(patched):
                setattr(owner, key, original)


def self_time_by_layer(self_s, calls, metric_names):
    """Map span totals onto the per-layer metric names.

    ``<span>.self_s`` is the self time of that span name, summed over routes
    when the metric names no route; ``<span>.calls`` counts calls the same way."""
    out = {}
    for metric in metric_names:
        base, _, kind = metric.rpartition(".")
        source, zero = (self_s, 0.0) if kind == "self_s" else (calls, 0)
        out[metric] = sum((v for span, v in source.items()
                           if span == base or span.startswith(base + ".")), zero)
    return out
