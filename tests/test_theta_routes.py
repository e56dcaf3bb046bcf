"""theta_num's direct sum (one loop for real and complex u) against its modular
inversion over a seeded range of arguments: real u as exact decimals in [0, 1),
a few u = i a s/(2 pi) (the argument q^a, away from theta's zeros at odd a), s
log-uniform in [0.05, 3] and p in {64, 128}. The two routes agree within
2^-(p-8)|theta|, or a call refuses with a documented error."""
from __future__ import annotations

import mpmath as mp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import close_bits
from qasymp.errors import NonConvergent, TermCapExceeded
from qasymp.hires import EvalConfig, theta_num

_S = st.sampled_from([f"{0.05 * 60 ** (i / 400):.4g}" for i in range(401)])


@st.composite
def arguments(draw):
    """(u, s, p), with u real in four draws of five."""
    s, p = draw(_S), draw(st.sampled_from([64, 128]))
    if draw(st.integers(0, 4)):
        u = f"0.{draw(st.integers(0, 999)):03d}"
    else:
        u = 1j * mp.mpf(draw(st.sampled_from(["0.5", "2", "2.5"]))) * mp.mpf(s) / (2 * mp.pi)
    return u, s, p


@settings(max_examples=40, deadline=None, derandomize=True)
@given(arguments())
def test_direct_agrees_with_inversion(args):
    u, s, p = args
    cfg = EvalConfig(p)
    try:
        direct = theta_num(u, s, cfg, use_inversion=False)
        inverted = theta_num(u, s, cfg, use_inversion=True)
    except (NonConvergent, TermCapExceeded):
        return
    assert close_bits(direct, inverted, p - 8, scale=abs(inverted)), (u, s, p)
