"""The insum pass on fixed-point q-powers: the power table (hires._q_pow) against
mp.exp, the seed products (hires._poch_parts and _poch_inf_exps_core) against the
mpf running product, and the number of mp.exp calls one small-s verify evaluation
makes."""
from __future__ import annotations

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import close_bits
from qasymp import hires
from qasymp.hires import EvalConfig


def mpf_product(start, step, s, prec):
    """prod_j (1 - e^{-s(start + j step)}) by _qprod at prec + 64 bits, cut below
    2^-(prec+72), which moves it by under 2^-(prec+72)/(1 - e^{-s step})."""
    with mp.workprec(prec + 64):
        n = int(mp.floor(((prec + 72) * hires.LN2 / s - start) / step)) + 1
        return hires._qprod(mp.exp(-s * start), mp.exp(-s * step), max(n, 0))[0]


# s log-uniform in [0.002, 30], an exact binary value
_S = st.integers(0, 1000).map(lambda i: mp.mpf(0.002 * 15000 ** (i / 1000)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_S, st.integers(64, 600), st.integers(0, 64), st.integers(0, 1000))
def test_q_power_within_two_units(s, w, extra, permille):
    """_q_pow(s, e, w, extra) within 2 units of 2^(w+extra) e^{-s e}, for e up to
    4 (w + 192)/s, past the end of its table."""
    e = int(permille * 4 * (w + 192) / float(s)) // 1000
    got = hires._q_pow(s, e, w, extra)
    with mp.workprec(w + extra + 64):
        exact = mp.ldexp(mp.exp(-s * e), w + extra)
        assert abs(got - exact) < 2, (s, w, extra, e)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(-40, 4000) | st.integers(-40, 0), st.integers(1, 7), _S,
       st.integers(64, 512))
@example(-12, 3, mp.mpf(0.05), 128)
@example(-35, 7, mp.mpf(0.002), 64)
@example(-40, 1, mp.mpf(30), 512)
def test_seed_product_within_its_bound(start, step, s, prec):
    """_poch_inf_exps_core within 2^(1-prec) relative and _poch_parts within
    2^-(prec+2) before its exp, as their docstrings state; 0 at a zero factor."""
    with mp.workprec(prec):
        got = hires._poch_inf_exps_core(start, step, s)
    if start <= 0 and start % step == 0:
        assert got == 0
        return
    ref = mpf_product(start, step, s, prec)
    assert close_bits(got, ref, prec - 1, scale=abs(ref)), (start, step, s, prec)
    if got == 1:
        return
    h, e, sigma, lam = hires._poch_parts(start, step, s, prec)
    with mp.workprec(prec + 64):
        parts = mp.ldexp(mp.mpf(h), -e) * mp.exp(s * sigma - lam)
    # the reference's own error stays below 2^-(prec+16)
    assert close_bits(parts, ref, prec + 2, scale=abs(ref) * (1 + mp.mpf(2) ** -14)), \
        (start, step, s, prec)


@pytest.mark.parametrize("k, s", [(2, "0.05"), (3, "0.08"), (4, "0.16")])
def test_one_exp_per_start(monkeypatch, k, s):
    """One cold small-s verify evaluation: one exp for the q-power table, one per
    chain start, one for the odd-n weights and a few for the two (q;q)_inf of the
    closing ratio; at the parent it made 18, 30 and 38."""
    calls = []
    real = mp.exp

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    hires._qq_inf_cached.cache_clear()
    hires._q_squares.cache_clear()
    monkeypatch.setattr(hires.mp, "exp", counting)
    hires.gk_and_relative_error_num(k, s, EvalConfig(256))
    assert len(calls) <= k + 12, len(calls)
