import math
from fractions import Fraction as F

import mpmath as mp
import pytest

from conftest import close_bits
from qasymp.errors import InvalidK, InvalidRho, NonConvergent
from qasymp.hires import EvalConfig, frac_to_mpf
from qasymp.wright import (W_j_num, Wj_expansion, WrightParams, b_k_coeff, re_phi_expansion,
                           reciprocal_gamma, wright_phi, wright_phi_moment)


class TestPhiSeries:
    def test_value_at_zero(self, cfg192):
        assert wright_phi(WrightParams(F(3, 4)), 0, cfg192) == 1

    def test_small_z_expansion(self, cfg192):
        # phi(1/2, 1; z) = 1 + z/Gamma(1/2) + O(z^2)
        with mp.workprec(256):
            z = mp.mpf(1) / 1000
            v = wright_phi(WrightParams(F(1, 2)), z, cfg192)
            assert abs(v - (1 + z / mp.sqrt(mp.pi))) < 2 * z * z

    def test_rho_validation(self):
        with pytest.raises(NonConvergent):
            WrightParams(F(3, 2))

    def test_against_independent_summation(self, cfg192):
        # brute-force oracle with mpmath rgamma at shifted arguments
        with mp.workprec(300):
            z = mp.mpc("1.25", "0.5")
            ref = mp.mpc(0)
            for n in range(200):
                arg = F(1) - F(3, 4) * n
                if arg.denominator == 1 and arg <= 0:
                    continue
                ref += z ** n / mp.factorial(n) * mp.rgamma(frac_to_mpf(arg))
        got = wright_phi(WrightParams(F(3, 4)), z, cfg192)
        assert close_bits(got, ref, 180)

    def test_reciprocal_gamma_zeros_and_reflection(self):
        with mp.workprec(128):
            assert reciprocal_gamma(F(0)) == 0
            assert reciprocal_gamma(F(-7)) == 0
            # reflection at a negative non-integer vs mpmath
            assert close_bits(reciprocal_gamma(F(-7, 2)), mp.rgamma(mp.mpf("-3.5")), 120)


class TestMoments:
    def test_j0_equals_phi(self, cfg192):
        params = WrightParams(F(2, 3))
        z = mp.mpf("0.8")
        assert wright_phi_moment(0, params, z, cfg192) == wright_phi(params, z, cfg192)

    def test_weight_kills_m0(self, cfg192):
        assert wright_phi_moment(1, WrightParams(F(3, 4)), 0, cfg192) == 0

    def test_fraction_argument(self, cfg192):
        # z is read by hires.frac_to_mpf: a Fraction gives the value of its decimal
        assert wright_phi(WrightParams(F(1, 2)), F(3, 2), cfg192) \
            == wright_phi(WrightParams(F(1, 2)), "1.5", cfg192)
        assert wright_phi_moment(1, WrightParams(F(3, 4)), F(3, 2), cfg192) \
            == wright_phi_moment(1, WrightParams(F(3, 4)), "1.5", cfg192)

    def test_j2_precision_stable(self):
        v1 = wright_phi_moment(2, WrightParams(F(3, 4)), 1, EvalConfig(128))
        v2 = wright_phi_moment(2, WrightParams(F(3, 4)), 1, EvalConfig(256))
        assert close_bits(v1, v2, 120, scale=abs(v2))


class TestBk:
    def test_zero_pattern(self, cfg128):
        for k in range(2, 7):
            for j in range(1, 21):
                val = b_k_coeff(k, j, cfg128)
                if j % k == 0:
                    assert val == 0
                else:
                    assert val != 0

    def test_b2_1_closed_form(self, cfg192):
        # (3/(2 pi)) sin(pi/2) Gamma(3/2) = 3/(4 sqrt(pi))
        with mp.workprec(256):
            ref = 3 / (4 * mp.sqrt(mp.pi))
        assert close_bits(b_k_coeff(2, 1, cfg192), ref, 184)

    def test_b3_1_value(self, cfg192):
        # (4/(3 pi)) sin(2 pi/3) Gamma(4/3), frozen from direct evaluation
        with mp.workprec(256):
            ref = 4 / (3 * mp.pi) * mp.sinpi(mp.mpf(2) / 3) * mp.gamma(mp.mpf(4) / 3)
            assert abs(ref - mp.mpf("0.3282169385")) < 1e-9
        assert close_bits(b_k_coeff(3, 1, cfg192), ref, 184)


class TestExpansions:
    def test_leading_term_only(self, cfg128):
        # L=1 keeps just the constant
        with mp.workprec(128):
            assert re_phi_expansion(F(3, 4), 10, 1, cfg128) == mp.mpf(2) / 3
            assert Wj_expansion(3, 0, 1, 123, cfg128) == mp.mpf(4) / 3

    def test_rho_half_collapses(self, cfg128):
        # all sine factors vanish: the expansion is exactly 1/(2 rho) = 1
        assert re_phi_expansion(F(1, 2), 9, 7, cfg128) == 1

    def test_rho_range(self, cfg128):
        with pytest.raises(InvalidRho):
            re_phi_expansion(F(1, 4), 10, 3, cfg128)

    def test_wj_single_term(self, cfg192):
        # L=2, j=1: exactly (-(k+1)/k) b_k(1) w^{-(k+1)/k}
        w = mp.mpf(17)
        got = Wj_expansion(3, 1, 2, w, cfg192)
        with mp.workprec(256):
            ref = -mp.mpf(4) / 3 * b_k_coeff(3, 1, cfg192) * mp.power(w, -mp.mpf(4) / 3)
        assert close_bits(got, ref, 180)

    def test_expansion_matches_direct_phi_with_stable_constant(self, cfg256):
        # rho = 3/4, L = 3: |Re phi(3/4,1; z e^{3 pi i/4}) - expansion| <= C z^{-4}
        # with C stable as z doubles (z values seeded from s = 0.01 via z ~ s^{-1/4})
        params = WrightParams(F(3, 4))
        cs = []
        with mp.workprec(320):
            z0 = mp.power(4, mp.mpf(3) / 4) / 3 * mp.power(mp.mpf("0.01"), -mp.mpf(1) / 4)
            for z in (z0, 2 * z0, 4 * z0):
                phi = wright_phi(params, z * mp.expjpi(mp.mpf(3) / 4), cfg256)
                exp_val = re_phi_expansion(F(3, 4), z, 3, cfg256)
                cs.append(abs(mp.re(phi) - exp_val) * mp.power(z, 4))
        for a, b in zip(cs, cs[1:]):
            assert a / b < 4 and b / a < 4

    def test_w0_expansion_agreement_with_vanishing_next_terms(self, cfg192):
        # k=2, L=4, w=30: b_2(2) = b_2(4) = 0, so the first omitted nonzero term
        # is l=5 and the gap sits well inside the stated w^{-6} order
        wn = W_j_num(2, 0, 30, cfg192)
        we = Wj_expansion(2, 0, 4, 30, cfg192)
        with mp.workprec(256):
            assert abs(wn - we) < mp.power(30, -6)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("L", [1, 3, 5])
    def test_general_expansion_specializes_to_w0(self, cfg192, k, L):
        # sin(pi l (2 rho - 1)/rho) = sin(pi l (k-1)/k) at rho = k/(k+1):
        # the two expansion conventions agree term by term
        for w in (5, 17):
            a = re_phi_expansion(F(k, k + 1), w, L, cfg192)
            b = Wj_expansion(k, 0, L, w, cfg192)
            with mp.workprec(256):
                assert abs(2 * a - b) <= mp.mpf(2) ** (-184) * abs(b)


class TestWjNum:
    @pytest.mark.parametrize("k,w", [(2, 12), (3, 8), (4, 6)])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_routes_agree(self, cfg192, k, w, j):
        a = W_j_num(k, j, w, cfg192, route="series")
        b = W_j_num(k, j, w, cfg192, route="quadrature")
        assert close_bits(a, b, 178, scale=max(1, abs(a)))

    def test_w0_limit_constants(self, cfg192):
        # W_0(w) -> (k+1)/k as w -> infinity
        for k, ref in ((3, F(4, 3)), (2, F(3, 2))):
            val = W_j_num(k, 0, 5000, cfg192)
            with mp.workprec(256):
                assert abs(val - frac_to_mpf(ref)) < mp.mpf(5000) ** (-1.2)

    def test_invalid_args(self, cfg128):
        with pytest.raises(InvalidK):
            W_j_num(1, 0, 10, cfg128)
        with pytest.raises(ValueError):
            W_j_num(2, -1, 10, cfg128)
        with pytest.raises(ValueError):
            W_j_num(2, 0, -3, cfg128)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_remainder_order(self, cfg256, k, j):
        # |W_j - expansion(L)| <= C w^{-L(k+1)/k} with C stable within a factor
        # of 4 as w doubles over {10, 20, 40}
        L = 3
        cs = []
        for w in (10, 20, 40):
            wn = W_j_num(k, j, w, cfg256)
            we = Wj_expansion(k, j, L, w, cfg256)
            with mp.workprec(300):
                cs.append(abs(wn - we) * mp.power(w, mp.mpf(L * (k + 1)) / k))
        for a, b in zip(cs, cs[1:]):
            assert b / a < 4 and a / b < 4
        assert all(c > 0 for c in cs)

    def test_wj_matches_expansion_within_remainder(self, cfg192):
        # spot value: (k=3, j=1, w=20) within the L=3 remainder scale
        wn = W_j_num(3, 1, 20, cfg192)
        we = Wj_expansion(3, 1, 3, 20, cfg192)
        with mp.workprec(256):
            assert abs(wn - we) < 2 * mp.power(20, -mp.mpf(3 * 4) / 3)


class TestDegenerateDirection:
    def test_real_part_bounded_modulus_huge(self, cfg192):
        # on the theorem ray the modulus grows like sqrt(k(k+1)s) e^{1/(k(k+1)s)}
        # while the real part stays O(1)
        k = 3
        params = WrightParams(F(k, k + 1))
        for sstr in ("0.05", "0.02", "0.01"):
            with mp.workprec(300):
                s = mp.mpf(sstr)
                z = mp.power(k + 1, mp.mpf(k) / (k + 1)) / k * mp.expjpi(mp.mpf(k) / (k + 1)) \
                    * mp.power(s, -mp.mpf(1) / (k + 1))
                phi = wright_phi(params, z, cfg192)
                scale = mp.sqrt(k * (k + 1) * s) * mp.exp(1 / (k * (k + 1) * s))
                ratio = abs(phi) / scale
            assert mp.mpf("0.01") < ratio < 100
            assert abs(mp.re(phi)) < 3
