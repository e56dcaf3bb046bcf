"""The small-s route: one m-loop binned by residue serves every odd n of the I_n
decomposition, the seed products' tails run in fixed point, and the direct g_k
route and theta_num's direct sums take e^{-s n^2}-type terms from running
multipliers. Frozen digests pin the computed values bit for bit."""
from __future__ import annotations

import math
from fractions import Fraction as F

import mpmath as mp
import pytest
from mpmath.libmp import to_fixed

from conftest import close_bits, digest
from qasymp import hires
from qasymp.hires import EvalConfig, I_n_num, gk_num, theta_num


GK_S = ["0.025", "0.05", "0.075", "0.1", "0.15", "0.2", "0.3", "0.35", "0.45", "0.5"]


def gk_insum_grid():
    for p in (256, 512):
        for k in range(2, 7):
            for s in GK_S:
                yield (k, s, p), lambda k=k, s=s, p=p: gk_num(k, s, EvalConfig(p))


def in_grid():
    for p in (192, 256):
        for k in range(2, 6):
            for n in (1, 3, 5, 7, -1):
                for s in ("0.05", "0.1", "0.3", "0.8"):
                    yield (k, n, s, p), lambda k=k, n=n, s=s, p=p: I_n_num(k, n, s, EvalConfig(p))


def gk_direct_grid():
    for k in (2, 3, 4):
        for s in ("0.05", "0.1", "0.2", "0.4"):
            yield (k, s, 256), lambda k=k, s=s: gk_num(k, s, EvalConfig(256), route="direct")


# sha256 over repr((key, canon(value))) of the values computed by the per-n
# m-loop with all-mpf seed products and an mp.exp per direct theta term
FROZEN = {
    "gk_insum": (gk_insum_grid, 100,
                 "0e3f602a90247e7d226fc4726d3aed0cf825ba0014f4322dff09aba8d6dde8cc"),
    "I_n": (in_grid, 160,
            "a1731e2d518d2c4a2ff28fb1ce5cd544a978a1df15aa20996b5cdb5c7ffc837f"),
    "gk_direct": (gk_direct_grid, 12,
                  "91f72ccf4b107c96c29bb6119e33a87814be2dcbda3135fa350af3c0cc505d0f"),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_digest(name):
    grid, size, want = FROZEN[name]
    rows = list(grid())
    assert len(rows) == size
    assert digest(rows) == want


class TestBinnedIn:
    @staticmethod
    def per_n(k, n, s, cfg):
        """I_n by one m-loop for this n alone: the phase applied to every term."""
        guard = int(1.4427 / (k * (k + 1) * float(F(s)))) + 96
        with mp.workprec(cfg.precision_bits + guard):
            sv = mp.mpf(s)
            seeds = hires._pm_seeds(k, sv)
            qc = mp.mpf(1)
            dqc = mp.exp(-sv * k * (2 * k + 1) / (2 * (k + 1)))
            ddqc = mp.exp(-sv * k * k / (k + 1))
            acc, maxmag, small = 0, mp.mpf(0), 0
            for m, pm, poch_m in hires._pm_terms(k, sv, seeds, cfg.max_terms):
                if pm is not None:
                    term = mp.expjpi(mp.mpf(m * (n + k + 1)) / (k + 1)) * qc * pm \
                        / (poch_m * seeds[0])
                    acc += term
                    maxmag = max(maxmag, abs(term))
                    small = small + 1 if abs(term) < cfg.threshold * maxmag else 0
                    if small > 2 * (k + 1) + 2:
                        return acc
                qc *= dqc
                dqc *= ddqc
        raise AssertionError("per-n loop did not stop")

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("s", ["0.05", "0.3"])
    def test_matches_per_n_loop(self, k, s):
        cfg = EvalConfig(160)
        for n in (1, 3, 5, 7, -1, -3):
            ref = self.per_n(k, n, s, cfg)
            got = I_n_num(k, n, s, cfg)
            assert close_bits(got, ref, 158, scale=abs(ref)), (k, n, s)

    def test_gk_runs_one_m_loop(self, monkeypatch):
        starts = []
        real = hires._In_terms

        def counting(*args):
            starts.append(args[0])
            return real(*args)

        monkeypatch.setattr(hires, "_In_terms", counting)
        gk_num(3, "0.05", EvalConfig(256))
        assert starts == [3]


class TestFixedPointProduct:
    @staticmethod
    def exact_units(x, r, w):
        """2^w (1 - r) (-ln prod_{j>=0} (1 - x r^j)), the sum _log_tail_fixed
        approximates, from the product at w + 64 bits."""
        with mp.workprec(w + 64):
            eps = mp.mpf(2) ** -(w + 80)
            prod, xj = mp.mpf(1), mp.mpf(x)
            while xj > eps:
                prod, xj = prod * (1 - xj), xj * r
            return -mp.log(prod) * (1 - r) * mp.mpf(2) ** w

    @staticmethod
    def truncated_tail(x, r, w):
        """_log_tail_fixed at floor(2^w x), floor(2^w r), the integers it takes."""
        return hires._log_tail_fixed(to_fixed(x._mpf_, w), to_fixed(r._mpf_, w), w)

    @pytest.mark.parametrize("xs,rs,n,w", [
        ("0.49", "0.97", 5000, 300),
        ("0.5", "0.999", 20000, 330),
        ("0.3", "0.6", 1, 200),
        ("0.25", "0.5", 0, 200),
        ("0", "0.9", 40, 128),
        ("0.001", "0.01", 3, 400),
        ("0.0039", "0.994", 0, 300),
    ])
    def test_within_documented_bound(self, xs, rs, n, w):
        """The log-series tail of (x; r)_inf after its first n factors."""
        with mp.workprec(w + 32):
            r = mp.mpf(rs)
            x = mp.mpf(xs) * r ** n
        got = self.truncated_tail(x, r, w)
        ref = self.exact_units(x, r, w)
        terms = int(w / -math.log2(float(x))) if x else 0
        with mp.workprec(w + 64):
            assert abs(got - ref) <= 2 * terms + 12
        if xs == "0":
            assert got == 0

    @pytest.mark.parametrize("start", [-7, -1, 0, 1, 3, 4000])
    @pytest.mark.parametrize("sstr,step,prec", [("0.01", 3, 256), ("0.05", 4, 384),
                                                 ("0.5", 7, 192), ("30", 1, 128)])
    def test_seed_product_against_mpf(self, start, sstr, step, prec):
        with mp.workprec(prec):
            s = mp.mpf(sstr)
            got = hires._poch_inf_exps_core(start, step, s)
            n = int(mp.floor(((prec + 8) * hires.LN2 / s - start) / step)) + 1
        with mp.workprec(prec + 64):
            ref = hires._qprod(mp.exp(-s * start), mp.exp(-s * step), max(n, 0))[0]
        if start <= 0 and start % step == 0:
            # the factor at exponent 0 vanishes; the mpf loop leaves rounding noise
            assert got == 0
        elif n <= 0:
            assert got == 1 and ref == 1
        else:
            assert close_bits(got, ref, prec - 16, scale=abs(ref)), (start, sstr, n)


class TestRunningMultipliers:
    @staticmethod
    def per_term(z, s, prec):
        """sum_n (-1)^n z^n e^{-s n^2} with an mp.exp per term."""
        with mp.workprec(prec):
            sv = mp.mpf(s)
            tot, n = mp.mpc(1), 1
            while True:
                t = (z ** n + z ** -n) * mp.exp(-sv * n * n)
                tot += -t if n % 2 else t
                if abs(t) < mp.mpf(2) ** -(prec + 16):
                    return tot
                n += 1

    @pytest.mark.parametrize("p", [128, 256])
    @pytest.mark.parametrize("s", ["0.3", "1", "4"])
    @pytest.mark.parametrize("a", ["0.5", "2", "3"])
    def test_theta_direct_complex(self, p, s, a):
        # a = 3 puts z = q^3 within ~2^-53 of a zero of theta: the sum cancels
        # about 60 bits, more than the 48 guard bits, and takes the second pass
        u = 1j * mp.mpf(a) * mp.mpf(s) / (2 * mp.pi)
        got = theta_num(u, s, EvalConfig(p), use_inversion=False)
        with mp.workprec(p + 320):
            ref = self.per_term(mp.exp(2j * mp.pi * mp.mpc(u)), s, p + 320)
        assert close_bits(got, ref, p - 2, scale=abs(ref)), (a, s, p)

    @pytest.mark.parametrize("u", [F(0), F(1, 10), F(1, 3), F(1, 2)])
    @pytest.mark.parametrize("s", ["0.3", "1.5"])
    def test_theta_direct_real(self, u, s):
        got = theta_num(u, s, EvalConfig(192), use_inversion=False)
        with mp.workprec(512):
            ref = mp.re(self.per_term(mp.expjpi(2 * mp.mpf(u.numerator) / u.denominator),
                                      s, 512))
        assert close_bits(got, ref, 184, scale=abs(ref)), (u, s)
