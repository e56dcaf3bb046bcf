import json
import math
from fractions import Fraction as F

import mpmath as mp
import pytest

from conftest import close_bits
from qasymp.errors import InvalidK, ReconstructionFailed
from qasymp.exactcore import bernoulli_number, bernoulli_polynomial
from qasymp.expansion import (beta_coeff, expansion_eval, f2j_polynomial, hq_bivariate,
                              hq_num, hq_table_eval, rational_ratio, zagier_c1, zagier_c2,
                              zagier_t_coeffs)
from qasymp.hires import EvalConfig, gk_num, relative_error_num
from qasymp.wright import W_j_num, b_k_coeff

ZAGIER_T1 = [F(1), F(-7, 2**6 * 3), F(-97, 2**8 * 3**3), F(-40061, 2**15 * 3**4),
             F(-18915331, 2**19 * 3**6 * 5), F(-13796617247, 2**27 * 3**6 * 5)]
ZAGIER_T2 = [F(5), F(-29, 2**4 * 3), F(19435, 2**11 * 3**3), F(-14885, 2**12 * 3**3),
             F(51970999, 2**18 * 3**6), F(-28436136277, 2**24 * 3**7 * 5)]


class TestF2j:
    def test_assembled_from_exact_pieces(self):
        # rebuild f_2 for k=3 directly from the Bernoulli operations
        k, j = 3, 1
        b3 = bernoulli_polynomial(3)
        expected = (b3.compose_affine(F(1), F(1)).scale(F(k) ** 2)
                    + b3.compose_affine(F(-k, k + 1), F(1)).scale(F(k + 1) ** 2))
        expected = expected.scale(bernoulli_number(2) / F(2 * 6))
        assert f2j_polynomial(k, j) == expected

    @pytest.mark.parametrize("k", range(2, 8))
    def test_closed_form_matches_composition(self, k):
        # scale (B_{2j+1}(1+z) k^{2j} + B_{2j+1}(1 - kz/(k+1)) (k+1)^{2j}), composed
        for j in range(1, 12):
            bp = bernoulli_polynomial(2 * j + 1)
            expected = (bp.compose_affine(F(1), F(1)).scale(F(k) ** (2 * j))
                        + bp.compose_affine(F(-k, k + 1), F(1)).scale(F(k + 1) ** (2 * j)))
            expected = expected.scale(bernoulli_number(2 * j) / F(2 * j * math.factorial(2 * j + 1)))
            got = f2j_polynomial(k, j)
            assert got == expected
            assert repr(got.coeffs) == repr(expected.coeffs)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_degree_three(self, k):
        assert f2j_polynomial(k, 1).degree == 3

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_value_at_zero_vanishes(self, k, j):
        # B_{2j+1}(1) = 0 for j >= 1, so f_{2j}(0) = 0
        assert f2j_polynomial(k, j)(0) == 0


class TestBivariate:
    def test_first_order_coefficients(self):
        for k in (2, 3, 4):
            biv = hq_bivariate(k, 3)
            assert biv.a(1, 1) == F(-k, 2)
            # numeric-oracle-arbitrated value (the source display has a typo):
            # the s z^2 coefficient is +k/(4(k+1))
            assert biv.a(2, 1) == F(k, 4 * (k + 1))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_structural_invariants(self, k):
        biv = hq_bivariate(k, 8)
        assert biv.a(0, 0) == 1
        for j in range(1, 9):
            assert biv.a(0, j) == 0
        for n in range(1, 17):
            assert biv.a(n, 0) == 0
        for j in range(9):
            for n in range(2 * j + 1, 2 * j + 5):
                assert biv.a(n, j) == 0

    def test_json_export(self):
        biv = hq_bivariate(3, 2)
        data = json.loads(biv.to_json())
        assert data["k"] == 3 and data["j_max"] == 2
        assert [1, 1, "-3/2"] in data["entries"]

    @pytest.mark.parametrize("z", [mp.mpf("0.3"), mp.mpf("-0.7"), mp.mpc("0.5", "0.5")])
    def test_numeric_oracle_residual_order(self, cfg256, z):
        # h_q from the q-Gamma definition vs the exact table: residual O(s^{j_max+1}),
        # so halving s divides it by ~2^{j_max+1} (within a factor of 4)
        biv = hq_bivariate(3, 8)
        resids = []
        for sstr in ("0.1", "0.05"):
            hv = hq_num(3, z, sstr, cfg256)
            tv = hq_table_eval(biv, z, sstr, cfg256)
            with mp.workprec(300):
                resids.append(abs(hv - tv))
        with mp.workprec(300):
            ratio = resids[0] / resids[1]
        assert 2 ** 9 / 4 < ratio < 2 ** 9 * 4


class TestBeta:
    def test_beta31_is_4c1(self):
        cfg = EvalConfig(512)
        with mp.workprec(640):
            d = abs(beta_coeff(3, 1, cfg) / 4 - zagier_c1(cfg))
        assert d < mp.mpf(10) ** (-40)

    def test_beta32_is_20c2(self):
        cfg = EvalConfig(512)
        with mp.workprec(640):
            d = abs(beta_coeff(3, 2, cfg) / 20 - zagier_c2(cfg))
        assert d < mp.mpf(10) ** (-40)

    def test_beta3_multiples_of_k_vanish(self, cfg256):
        for j in (3, 6, 9, 12):
            assert beta_coeff(3, j, cfg256) == 0

    def test_symbolic_zero_matches_generic_sum(self, cfg256):
        # assembling the generic sum for k | j: every b_k factor vanishes, so the
        # numeric value is exactly zero as well
        k, j = 3, 6
        biv = hq_bivariate(k, 2)
        with mp.workprec(288):
            tot = b_k_coeff(k, j, cfg256) * mp.power(k + 1, -j) \
                * mp.power(k, mp.mpf(j * (k + 1)) / k)
            for r in range(1, (j - 1) // k + 1):
                ell = j - k * r
                tot += b_k_coeff(k, ell, cfg256)  # zero factors
        assert abs(tot) < mp.mpf(2) ** (-128)

    def test_first_values_frozen(self, cfg256):
        # beta_3(1) = 3^{5/6} Gamma(1/3)/(6 pi), derived by simplifying
        # b_3(1) 4^{-1} 3^{4/3}; frozen via the 4 c_1 identity
        with mp.workprec(300):
            ref = mp.power(3, mp.mpf(5) / 6) * mp.gamma(mp.mpf(1) / 3) / (6 * mp.pi)
            assert abs(ref - mp.mpf("0.3550280538878172")) < 1e-15
        assert close_bits(beta_coeff(3, 1, cfg256), ref, 240)

    def test_invalid(self, cfg128):
        with pytest.raises(InvalidK):
            beta_coeff(1, 1, cfg128)
        with pytest.raises(ValueError):
            beta_coeff(3, 0, cfg128)


class TestPuiseuxEval:
    def test_main_term_ratio_tends_to_one(self, cfg256):
        ratios = []
        for sstr in ("0.1", "0.05", "0.02"):
            g = gk_num(3, sstr, cfg256)
            e = expansion_eval(3, 0, sstr, cfg256)
            with mp.workprec(288):
                ratios.append(abs(g / e - 1))
        assert ratios[2] < ratios[1] < ratios[0]

    def test_two_term_relative_deviation_small(self, cfg256):
        g = gk_num(3, "0.05", cfg256)
        e = expansion_eval(3, 1, "0.05", cfg256)
        with mp.workprec(288):
            assert abs(g - e) / g < mp.mpf("0.05")

    def test_deviation_shrinks_with_order(self, cfg256):
        g = gk_num(3, "0.05", cfg256)
        devs = []
        for n_order in (1, 2):
            e = expansion_eval(3, n_order, "0.05", cfg256)
            with mp.workprec(288):
                devs.append(abs(g - e) / g)
        assert devs[1] < devs[0]

    def test_order_step_slope_k2(self, cfg256):
        # at fixed s the N -> N+1 step multiplies the deviation by about s
        # (the "s^{1/2} per half-step" pattern); the raw deviations also carry
        # the growth of the leading omitted coefficient beta_2(2N+1), so the
        # fit normalizes by it to isolate the s-power
        s = "0.1"
        g = gk_num(2, s, cfg256)
        pts = []
        for n_order in (1, 2, 3):
            e = expansion_eval(2, n_order, s, cfg256)
            with mp.workprec(288):
                dev = abs(g - e) / g
                b_next = abs(beta_coeff(2, 2 * n_order + 1, cfg256))
            pts.append(((2 * n_order + 1) / 2, math.log(float(dev / b_next))))
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        n = len(pts)
        slope = (n * sum(x * y for x, y in pts) - sum(xs) * sum(ys)) / \
                (n * sum(x * x for x in xs) - sum(xs) ** 2)
        predicted = math.log(0.1)
        assert abs(slope / predicted - 1) < 0.25


class TestRationalRatio:
    def test_paper_values(self):
        cfg = EvalConfig(512)
        assert rational_ratio(3, 1, 1, cfg) == F(-7, 192)
        assert rational_ratio(3, 1, 2, cfg) == F(-97, 6912)
        assert rational_ratio(3, 2, 1, cfg) == F(-29, 240)

    def test_stability_under_doubling(self):
        # reconstruction at 512 and 1024 bits returns identical rationals
        lo, hi = EvalConfig(512), EvalConfig(1024)
        for j in (1, 2):
            for m in (1, 2, 3, 4, 5):
                assert rational_ratio(3, j, m, lo) == rational_ratio(3, j, m, hi)

    @pytest.mark.parametrize("prec", [128, 192, 256])
    def test_ratios_through_m7_at_low_precision(self, prec):
        t1, t2 = zagier_t_coeffs(7, EvalConfig(prec))
        assert t1 == [F(1), F(-7, 192), F(-97, 6912), F(-40061, 2654208),
                      F(-18915331, 1911029760), F(-13796617247, 489223618560),
                      F(-148556971831, 7925422620672),
                      F(-778221808170037, 7608405715845120)]
        assert t2 == [F(5), F(-29, 48), F(19435, 55296), F(-14885, 110592),
                      F(51970999, 191102976), F(-28436136277, 183458856960),
                      F(39501784355659, 63403380965376),
                      F(-2437971279843259, 5325884001091584)]

    def test_exact_or_refused_at_320_bits(self):
        # t1[20] and t1[21] have denominators of 185 and 197 bits, above the
        # 2^160 bound at 320 bits: their closest bounded fractions must be refused
        hi = EvalConfig(1024)
        refused = set()
        for m in range(12, 22):
            try:
                got = rational_ratio(3, 1, m, EvalConfig(320))
            except ReconstructionFailed:
                refused.add(m)
                continue
            assert got == rational_ratio(3, 1, m, hi)
        assert {20, 21} <= refused

    def test_64_bits_reconstructs_exactly(self):
        # ratios are evaluated at no fewer than 192 bits whatever the precision
        lo = EvalConfig(64)
        assert rational_ratio(3, 1, 1, lo) == F(-7, 192)
        assert rational_ratio(4, 1, 1, lo) == F(279, 10000)

    def test_range_validation(self):
        cfg = EvalConfig(128)
        with pytest.raises(ValueError):
            rational_ratio(3, 3, 1, cfg)
        with pytest.raises(ValueError):
            rational_ratio(3, 0, 1, cfg)

    def test_zagier_tables(self):
        cfg = EvalConfig(512)
        t1, t2 = zagier_t_coeffs(5, cfg)
        assert t1 == ZAGIER_T1
        assert t2 == ZAGIER_T2

    def test_zagier_m0(self, cfg192):
        t1, t2 = zagier_t_coeffs(0, cfg192)
        assert t1 == [F(1)] and t2 == [F(5)]


class TestRkReconstruction:
    @pytest.mark.parametrize("k", [2, 3])
    def test_identity_residual_shrinks(self, cfg256, k):
        # R_k(s) vs W_0(w) + sum_n (sum_j a_{n,j} s^j) W_n(w) at
        # w = (k+1)^{k/(k+1)}/(k s^{1/(k+1)}): the residual falls like a positive
        # power of s across a geometric grid (the truncated orders mix on coarse
        # grids, so we assert the power is clearly positive rather than its
        # asymptotic value j_max + 1 + 1/k)
        j_max = 4
        biv = hq_bivariate(k, j_max)
        resids = []
        for sstr in ("0.2", "0.1", "0.05"):
            r_k = relative_error_num(k, sstr, cfg256)
            with mp.workprec(340):
                s = mp.mpf(sstr)
                w = mp.power(k + 1, mp.mpf(k) / (k + 1)) / (k * mp.power(s, mp.mpf(1) / (k + 1)))
                recon = W_j_num(k, 0, w, cfg256)
                for n in range(1, 2 * j_max + 1):
                    a_n = mp.mpf(0)
                    spow = mp.mpf(1)
                    for j in range(j_max + 1):
                        if j:
                            spow *= s
                        row = biv.table[j]
                        c = row[n] if n < len(row) else 0
                        if c:
                            a_n += mp.mpf(c.numerator) / c.denominator * spow
                    if a_n:
                        recon += a_n * W_j_num(k, n, w, cfg256)
                resids.append(abs(r_k - recon))
        assert resids[2] < resids[1] < resids[0]
        slope = math.log(float(resids[0] / resids[2])) / math.log(4.0)
        assert slope > 2.0


class TestCaching:
    def test_beta_cache_respects_precision(self):
        v1 = beta_coeff(3, 4, EvalConfig(128))
        v2 = beta_coeff(3, 4, EvalConfig(256))
        # distinct cache entries; both accurate to their own precision
        assert close_bits(v1, v2, 120, scale=abs(v2))

    def test_bivariate_cache_slices(self):
        big = hq_bivariate(4, 6)
        small = hq_bivariate(4, 3)
        assert small.j_max == 3
        assert small.a(2, 1) == big.a(2, 1)
