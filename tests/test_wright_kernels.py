"""Kernels of the Wright layer: the reflected integral against the precision
contract, the 1/Gamma chains of the series, the fixed-point W_j series against
the mpc loop of wright_phi_moment, values frozen from the earlier per-term
series, the absolute contract of wright_phi, and the input rule for floats."""
import itertools
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import close_bits
from qasymp.hires import EvalConfig, frac_to_mpf
from qasymp.wright import (W_j_num, WrightParams, _phi_cancel_bits, _rgamma_stream,
                           reciprocal_gamma, wright_phi, wright_phi_moment)


def _contract_holds(got, ref, p):
    return close_bits(got, ref, p - 8, scale=max(mp.mpf(1), abs(ref)))


class TestQuadratureContract:
    @pytest.mark.parametrize("p", [192, 256])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_agrees_with_series(self, p, k, j):
        cfg = EvalConfig(p)
        for w in (4, 8):
            ref = W_j_num(k, j, w, cfg, route="series")
            assert _contract_holds(W_j_num(k, j, w, cfg, route="quadrature"), ref, p), w

    @pytest.mark.parametrize("p", [192, 256])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_agrees_with_itself_at_256_more_bits(self, p, k, j):
        ref = W_j_num(k, j, 30, EvalConfig(p + 256), route="quadrature")
        assert _contract_holds(W_j_num(k, j, 30, EvalConfig(p), route="quadrature"), ref, p)

    def test_128_bits(self):
        ref = W_j_num(2, 0, 30, EvalConfig(384), route="quadrature")
        assert _contract_holds(W_j_num(2, 0, 30, EvalConfig(128)), ref, 128)

    @pytest.mark.parametrize("p", [192, 256])
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_large_w(self, p, k, j):
        # the cut [0, V/4, V/2, V] does not follow w, while the integrand
        # changes regime at v = w^(-1/k), far below V/4 here
        for w in (500, 5000):
            ref = W_j_num(k, j, w, EvalConfig(p + 256), route="quadrature")
            assert _contract_holds(W_j_num(k, j, w, EvalConfig(p), route="quadrature"),
                                   ref, p), w


class TestReciprocalGammaChains:
    @pytest.mark.parametrize("rho", [F(-1, 2), F(0), F(1, 3), F(2, 5), F(2, 3), F(3, 4),
                                     F(4, 5)])
    @pytest.mark.parametrize("beta", [F(1), F(1, 2), F(7, 3)])
    def test_stream_equals_reciprocal_gamma(self, rho, beta):
        # both computed 64 bits above the compared precision, where the
        # chain's accumulated rounding (a few hundred ulps) and that of
        # reciprocal_gamma stay far below the last compared bit
        p = 192
        with mp.workprec(p + 64):
            stream = list(itertools.islice(_rgamma_stream(rho, beta), 301))
            direct = [reciprocal_gamma(beta - rho * n) for n in range(301)]
        with mp.workprec(p):
            for n, (a, b) in enumerate(zip(stream, direct)):
                x = beta - rho * n
                assert (a == 0) == (x.denominator == 1 and x <= 0), n
                assert (+a)._mpf_ == (+b)._mpf_, n


def _series_w_max(k, p):
    """The largest w = n/100 with _phi_cancel_bits(k/(k+1), w) + p <= 2600, the
    range where the auto route of W_j_num sums the series."""
    lo, hi = 1, 1 << 16
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _phi_cancel_bits(F(k, k + 1), F(mid, 100)) + p <= 2600 \
            else (lo, mid)
    return lo


class TestSeriesAgainstPhiLoop:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.integers(2, 6), st.integers(0, 3), st.integers(64, 256), st.integers(1, 1000),
           st.booleans())
    def test_same_bits(self, k, j, p, u, exact):
        # W_j's fixed-point chains against 2 Re of wright_phi_moment's mpc loop at
        # the same guard; w is exact or, as the CLI reads it, an mpf at p + 32 bits
        rho, cfg = F(k, k + 1), EvalConfig(p)
        w = F(max(1, _series_w_max(k, p) * u // 1000), 100)
        if not exact:
            with mp.workprec(p + 32):
                w = frac_to_mpf(w)
        guard = _phi_cancel_bits(rho, w) + 64
        with mp.workprec(p + guard):
            z = frac_to_mpf(w) * mp.expjpi(-frac_to_mpf(rho))
        assert _phi_cancel_bits(rho, abs(z)) + 64 == guard
        ref = mp.ldexp(mp.re(wright_phi_moment(j, WrightParams(rho), z, cfg)), 1)
        assert W_j_num(k, j, w, cfg, route="series")._mpf_ == ref._mpf_


def _mpf_tuple(text):
    """`_mpf_` of a value written as a signed hex mantissa and a binary exponent."""
    mant, exp = text.split("p")
    man = int(mant, 16)
    return (int(man < 0), abs(man), int(exp), abs(man).bit_length())


# values of the series route and of wright_phi at 128, 192 and 256 bits, as
# the per-term reciprocal_gamma summation returned them: W_j_num(k, j, w,
# route="series") at the w points of the wright-sweep benchmark, and
# wright_phi(3/4, z) at z = (4^{3/4}/3) e^{3 pi i/4} s^{-1/4} (z at 256 bits)
_FROZEN_W = {
    (2, 0, "4"): (
        "0xc6901c38464ccf3bce29a482aa5dc34bp-127",
        "0xc6901c38464ccf3bce29a482aa5dc34ac0c20b50efabc2e9p-191",
        "0x63480e1c2326679de714d241552ee1a5606105a877d5e1746e8071df9873fd31p-254",
    ),
    (2, 1, "4"): (
        "-0x4a433447591a16a44b12ac8d57348541p-130",
        "-0x9486688eb2342d489625591aae690a826f593807628c1c4fp-195",
        "-0x9486688eb2342d489625591aae690a826f593807628c1c4ecd1c204f6fab80d1p-259",
    ),
    (2, 2, "4"): (
        "0x5da236b13b34646f44695b709e6f128bp-130",
        "0x5da236b13b34646f44695b709e6f128b075ee8eb67bf9187p-194",
        "0x2ed11b589d9a3237a234adb84f37894583af7475b3dfc8c3658cc8dafbb82865p-257",
    ),
    (2, 0, "7/2"): (
        "0xc7e91062446482d51ff58a6dba90eda1p-127",
        "0x63f488312232416a8ffac536dd4876d090c05778abf53b09p-190",
        "0xc7e91062446482d51ff58a6dba90eda12180aef157ea7611a1c5da5d0f0fdc77p-255",
    ),
    (2, 1, "7/2"): (
        "-0x2bb2d4b339c357a40966320730757937p-129",
        "-0xaecb52cce70d5e902598c81cc1d5e4db86c4ae74fa65e93fp-195",
        "-0xaecb52cce70d5e902598c81cc1d5e4db86c4ae74fa65e93ec8b9a3240e9aa05dp-259",
    ),
    (2, 2, "7/2"): (
        "0x19aceebfafc9fbdb1f2bf11334c1063fp-128",
        "0x66b3bafebf27ef6c7cafc44cd30418fc08ad1011a12be42bp-194",
        "0x3359dd7f5f93f7b63e57e22669820c7e04568808d095f21575ead80ad35e7ce1p-257",
    ),
    (3, 0, "4"): (
        "0xb219a6a003d816634a4335f1d9aaacf3p-127",
        "0x590cd35001ec0b31a5219af8ecd556796ed0a851514b47f9p-190",
        "0xb219a6a003d816634a4335f1d9aaacf2dda150a2a2968ff26904fb630256a8ffp-255",
    ),
    (3, 1, "4"): (
        "-0xad43b6fc29ccacff16fb09f9a379fce1p-131",
        "-0xad43b6fc29ccacff16fb09f9a379fce105536a9a0d6b2da1p-195",
        "-0x56a1db7e14e6567f8b7d84fcd1bcfe7082a9b54d06b596d0724cf5721b389a01p-258",
    ),
    (3, 2, "4"): (
        "0x205ef9d9e74e1c6c07b9c1e4bdfc224fp-128",
        "0x817be7679d3871b01ee70792f7f0893b885f25878503f813p-194",
        "0x817be7679d3871b01ee70792f7f0893b885f25878503f812c7a77f176ab1d925p-258",
    ),
    (3, 0, "7/2"): (
        "0x59d98dccbf45eff96269b8f4a56a0953p-126",
        "0x2cecc6e65fa2f7fcb134dc7a52b504a99f7afba5d0c0e2ebp-189",
        "0x2cecc6e65fa2f7fcb134dc7a52b504a99f7afba5d0c0e2eae6485795077cd071p-253",
    ),
    (3, 1, "7/2"): (
        "-0xd323b4357ea2f9f346e1ba2e97aeaf25p-131",
        "-0x6991da1abf517cf9a370dd174bd75792b9e94bdf6cbdc9f7p-194",
        "-0x6991da1abf517cf9a370dd174bd75792b9e94bdf6cbdc9f735db7bf3d1b422b7p-258",
    ),
    (3, 2, "7/2"): (
        "0x9a51d550b3cf3d09ffb42cb6668581cfp-130",
        "0x4d28eaa859e79e84ffda165b3342c0e7bb0d15eb1ccb83d3p-193",
        "0x9a51d550b3cf3d09ffb42cb6668581cf761a2bd6399707a64d88525e7a49ea01p-258",
    ),
}
_FROZEN_PHI = {
    "0.04": (
        ("0x2f52d3a022a9bfc7a5262eabdf99031dp-126",
         "0xcff24261e2d065f9d6502bb99a2a159bp-126"),
        ("0xbd4b4e808aa6ff1e9498baaf7e640c74170b628ac01212e7p-192",
         "0xcff24261e2d065f9d6502bb99a2a159af7a28bd8c2e1f78dp-190"),
        ("0xbd4b4e808aa6ff1e9498baaf7e640c74170b628ac01212e6ef3cef9720cb2cfbp-256",
         "0x67f92130f16832fceb2815dccd150acd7bd145ec6170fbc668c6c5ecc90d80d7p-253"),
    ),
    "0.02": (
        ("0xb94fa5881a479394472aafb92a443ed5p-128",
         "0x898b77bed1c3b90b1bf466ab3bf3d4dfp-123"),
        ("0xb94fa5881a479394472aafb92a443ed5679c62d203f4a301p-192",
         "0x44c5bbdf68e1dc858dfa33559df9ea6f516fe132e86f8a65p-186"),
        ("0xb94fa5881a479394472aafb92a443ed5679c62d203f4a30097ba3663260f14fp-252",
         "0x898b77bed1c3b90b1bf466ab3bf3d4dea2dfc265d0df14ca5dcecfeeac3d0915p-251"),
    ),
    "0.01": (
        ("0xb6146537f09904af6b42a3225af34ef1p-128",
         "0xb1ce92c92cbc6bed2cb01ac7799b3855p-118"),
        ("0x2d85194dfc26412bdad0a8c896bcd3bc2247878b483e0e3dp-190",
         "0x2c73a4b24b2f1afb4b2c06b1de66ce1546a25b69e51f2461p-180"),
        ("0xb6146537f09904af6b42a3225af34ef0891e1e2d20f838f40760cb4c25ac9abdp-256",
         "0xb1ce92c92cbc6bed2cb01ac7799b38551a896da7947c91841b0d68d8b54264cdp-246"),
    ),
}

PRECISIONS = (128, 192, 256)


class TestFrozenSeriesValues:
    @pytest.mark.parametrize("key", sorted(_FROZEN_W), ids="k{0[0]}-j{0[1]}-w{0[2]}".format)
    def test_series_route(self, key):
        k, j, w = key
        for p, text in zip(PRECISIONS, _FROZEN_W[key]):
            got = W_j_num(k, j, F(w), EvalConfig(p), route="series")
            assert got._mpf_ == _mpf_tuple(text), p

    @pytest.mark.parametrize("k, j, w, text", [
        (2, 0, F(45, 2), "0xc081e419fb4dd656457cf4d13486963p-123"),
        (3, 2, F(45, 4), "0x35a4d65681dbc3c946da6aa540a897b1p-131"),
    ], ids=["k2-j0-w45/2", "k3-j2-w45/4"])
    def test_longest_chains(self, k, j, w, text):
        # near the largest w the auto route still sums as a series at 128
        # bits (about 2650 working bits, thousands of terms, so each chain
        # takes hundreds of steps): the rounding the chains accumulate stays
        # inside the guard bits
        assert _phi_cancel_bits(F(k, k + 1), float(w)) + 128 > 2560
        got = W_j_num(k, j, w, EvalConfig(128))
        assert got._mpf_ == _mpf_tuple(text)

    @pytest.mark.parametrize("s", sorted(_FROZEN_PHI))
    def test_wright_phi(self, s):
        with mp.workprec(256):
            z = mp.power(4, mp.mpf(3) / 4) / 3 * mp.expjpi(mp.mpf(3) / 4) \
                * mp.power(mp.mpf(s), -mp.mpf(1) / 4)
        for p, (re_text, im_text) in zip(PRECISIONS, _FROZEN_PHI[s]):
            got = wright_phi(WrightParams(F(3, 4)), z, EvalConfig(p))
            assert (got.real._mpf_, got.imag._mpf_) == (_mpf_tuple(re_text),
                                                        _mpf_tuple(im_text)), p


class TestPhiContract:
    def test_absolute_at_a_tiny_value(self):
        # the series cuts its tail at 2^-(p+32), so the contract scale is
        # max(1, |phi|): here |phi| is about 3e-58, and the 64-bit value 3e-31 has
        # no correct digit, yet lies within 2^-56 of the 256-bit one
        params, z = WrightParams(F(5, 7)), -7.29596828680891
        got, ref = (wright_phi(params, z, EvalConfig(p)) for p in (64, 256))
        assert _contract_holds(got, ref, 64)
        assert abs(ref) < mp.mpf(2) ** -180 and abs(got) > mp.mpf(2) ** -110
        assert _contract_holds(wright_phi(params, z, EvalConfig(128)), ref, 128)


class TestFloatInputs:
    def test_floats_are_taken_exactly(self):
        assert WrightParams(0.1).rho == F(0.1) != F(1, 10)
        assert WrightParams(0.75, 0.5) == WrightParams(F(3, 4), F(1, 2))
        with mp.workprec(128):
            # the same number hires reads from the float
            assert frac_to_mpf(WrightParams(0.1).rho) == frac_to_mpf(0.1)
            assert reciprocal_gamma(-2.5) == reciprocal_gamma(F(-5, 2))

    @pytest.mark.parametrize("rho", [0.1, F(123457, 1000000), F(1, 64), F(1, 65)],
                             ids=str)
    def test_evaluates_wide_fractions(self, rho):
        # 0.1 is 3602879701896397/2^55: chains would need 2^55 residues and
        # powers of 2^55 to the numerator, so such rho must sum per term
        params, cfg = WrightParams(rho), EvalConfig(128)
        rho, beta = params.rho, params.beta
        with mp.workprec(192):
            ref, power = mp.mpf(0), mp.mpf(1)
            for n in range(120):
                if n:
                    power /= n
                ref += power * reciprocal_gamma(beta - rho * n)
        assert close_bits(wright_phi(params, 1, cfg), ref, 120)
