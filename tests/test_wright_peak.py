"""The one peak estimate of the Wright layer (_phi_log_peak), which sizes the phi
series' term cap as well as its guard bits, and the two chain facts that let the
fixed-point W_j series start its k+1 chains once, before its loop."""
from fractions import Fraction as F

import mpmath as mp
import pytest

from conftest import close_bits
from qasymp.hires import EvalConfig
from qasymp.wright import WrightParams, _chain_factor, _ray_constants, wright_phi


def _phi_loop(rho, z, p):
    """sum z^n/n! 1/Gamma(1 - rho n), a plain mpmath loop at p + 3z + 200 bits,
    until 20 terms in a row fall below 2^-(p+64)."""
    with mp.workprec(p + 3 * z + 200):
        rho, cut = mp.mpf(rho.numerator) / rho.denominator, mp.ldexp(1, -(p + 64))
        tot, power, small, n = mp.mpf(0), mp.mpf(1), 0, 0
        while small < 20:
            t = power * mp.rgamma(1 - rho * n)
            tot += t
            small = small + 1 if abs(t) < cut else 0
            n += 1
            power = power * z / n
        return tot


@pytest.mark.parametrize("rho, z", [(F(1, 4), 200), (F(1, 10), 300), (F(1, 20), 400)])
def test_small_rho_sums_past_the_old_cap(rho, z):
    # the terms peak near n = (rho^rho z)^{1/(1-rho)}, 1/rho times further out than
    # the term cap once allowed for, which raised TermCapExceeded here
    p = 64
    got, ref = wright_phi(WrightParams(rho), z, EvalConfig(p)), _phi_loop(rho, z, p)
    assert close_bits(got, ref, p - 8, scale=abs(ref)), (got, ref)


@pytest.mark.parametrize("k", range(2, 13))
def test_chains_never_restart(k):
    q = k + 1
    starts, _ = _ray_constants(k, 64)
    # every start 1/Gamma(1 - kn/q), n <= k, is nonzero: 1 - kn/q is an integer at n = 0 only
    assert all(starts)
    # the r = 0 chain's first step, from x = 1, is an exact zero, so it stays 0
    assert _chain_factor(q, q, k)[0] == 0
    # the chains with r != 0 never meet a zero factor: x - i is never an integer
    for n in range(q, 60 * q):
        if n % q:
            assert _chain_factor(q - k * (n - q), q, k)[0] != 0, n
