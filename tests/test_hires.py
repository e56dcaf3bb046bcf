import math
from fractions import Fraction as F

import mpmath as mp
import pytest

from conftest import close_bits
from qasymp import hires
from qasymp.errors import InvalidK, NonConvergent, PoleAtNonpositive
from qasymp.exactcore import bernoulli_number, bernoulli_polynomial
from qasymp.hires import (EvalConfig, I_n_num, exact, frac_to_mpf, gamma_q_num, gk_num,
                          pochhammer_num, qq_infinity_num, qsubz_num, relative_error_num,
                          theta_num)


class TestEvalConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(32)

    def test_default_threshold_tracks_precision(self):
        assert EvalConfig(128).threshold == mp.mpf(2) ** (-160)
        assert EvalConfig(256).threshold == mp.mpf(2) ** (-288)

    def test_mpf_fraction_round_trip(self):
        with mp.workprec(128):
            x = mp.mpf(7) / 3
            assert frac_to_mpf(exact(x)) == x
            assert exact(-x) == -exact(x)
        assert exact(mp.mpf("1e-400")) > 0
        assert exact(mp.mpf(0)) == 0

    def test_exact_refuses_what_is_not_a_finite_real(self):
        for x in (mp.inf, -mp.inf, mp.nan, math.inf, math.nan):
            with pytest.raises(ValueError):
                exact(x)
        for x in (1j, mp.mpc(1), None):
            with pytest.raises(TypeError):
                exact(x)


class TestPochhammerNum:
    def test_z_zero(self, cfg192):
        assert pochhammer_num(0, 0.5, cfg192) == 1

    def test_direct_product_value(self, cfg192):
        # oracle: mpmath's q-Pochhammer
        with mp.workprec(256):
            ref = mp.qp(mp.mpf("0.5"), mp.mpf("0.5"))
        assert close_bits(pochhammer_num(0.5, 0.5, cfg192), ref, 184)

    def test_vanishing_first_factor(self, cfg192):
        assert pochhammer_num(1, 0.5, cfg192) == 0
        # exactly 0 before the factors are counted, so also where the count of
        # 1 - q^j down to the threshold would pass max_terms
        assert pochhammer_num(1, 1 - F(1, 10**6), EvalConfig(64)) == 0

    def test_q_out_of_range(self, cfg192):
        with pytest.raises(NonConvergent):
            pochhammer_num(0.5, 1.0, cfg192)

    def test_fraction_z(self, cfg192):
        # z is read by the same rule as q: a Fraction exactly
        with mp.workprec(256):
            ref = mp.qp(mp.mpf(1) / 3, mp.mpf("0.5"))
        assert close_bits(pochhammer_num(F(1, 3), "0.5", cfg192), ref, 184)


class TestQsubz:
    def test_x_zero(self, cfg192):
        assert close_bits(qsubz_num(0, 0.5, cfg192), 1, 184)

    def test_integer_x(self, cfg192):
        # (q;q)_2 = (1-q)(1-q^2) = 0.375 at q = 1/2
        assert close_bits(qsubz_num(2, 0.5, cfg192), mp.mpf("0.375"), 184)

    def test_negative_non_integer(self, cfg192):
        with mp.workprec(256):
            q = mp.mpf("0.5")
            ref = mp.qp(q, q) / mp.qp(mp.power(q, mp.mpf("0.25")), q)
        assert close_bits(qsubz_num(F(-3, 4), 0.5, cfg192), ref, 184)

    def test_pole(self, cfg192):
        with pytest.raises(PoleAtNonpositive):
            qsubz_num(-2, 0.5, cfg192)
        with pytest.raises(PoleAtNonpositive):
            qsubz_num(-1, 0.25, cfg192)

    @pytest.mark.parametrize("x", ["-1.00000000000000000000001", "-2.0000000000000000000001"])
    def test_one_band_for_every_pole(self, cfg128, x):
        # 1e-23 and 1e-22 lie inside 2^-64 of the poles at -1 and -2 alike
        with pytest.raises(PoleAtNonpositive):
            qsubz_num(x, "0.5", cfg128)

    @pytest.mark.parametrize("p", [128, 192])
    @pytest.mark.parametrize("x", ["-2.0000000000000000001", "-1.9999999999999999999"])
    @pytest.mark.parametrize("q", ["0.5", "0.8"])
    def test_precision_contract_just_outside_the_band(self, x, q, p):
        # 1e-19 off the pole at -2, outside the 2^-(p//2) band: the factor nearest
        # it cancels about 64 bits, which the guard bits must cover
        ref = qsubz_num(x, q, EvalConfig(2 * p))
        assert close_bits(qsubz_num(x, q, EvalConfig(p)), ref, p - 8, scale=abs(ref))

    def test_infinite_and_nan_x(self, cfg128):
        # +inf is no pole, (q;q)_inf / (0; q)_inf; nan and -inf are not read
        assert close_bits(qsubz_num(mp.inf, "0.5", cfg128),
                          pochhammer_num("0.5", "0.5", cfg128), 120)
        for x in (mp.nan, -mp.inf, float("nan"), float("-inf")):
            with pytest.raises(ValueError):
                qsubz_num(x, "0.5", cfg128)


class TestGammaQ:
    @pytest.mark.parametrize("x,expected", [(1, 1), (2, 1), (3, 1.5)])
    def test_small_integers(self, cfg192, x, expected):
        assert close_bits(gamma_q_num(x, 0.5, cfg192), mp.mpf(expected), 184)

    @pytest.mark.parametrize("prec", [64, 128, 192])
    def test_string_reads_as_its_exact_rational(self, prec):
        # x - 1 of a string x is formed at the working precision, not at 53 bits
        cfg = EvalConfig(prec)
        assert gamma_q_num("0.3", 0.5, cfg)._mpf_ == gamma_q_num(F(3, 10), 0.5, cfg)._mpf_

    def test_limit_toward_gamma(self, cfg256):
        # Gamma_q -> Gamma as q -> 1
        with mp.workprec(300):
            q = mp.exp(-mp.mpf("0.001"))
            v = gamma_q_num(F(5, 2), q, cfg256)
            assert abs(v - mp.gamma(mp.mpf("2.5"))) < mp.mpf("0.01")


class TestTheta:
    def test_direct_value_against_jtheta(self, cfg192):
        # theta(1, e^-1) = jtheta4(0, e^-1) = 0.300625800868984...
        with mp.workprec(256):
            ref = mp.jtheta(4, 0, mp.exp(mp.mpf(-1)))
        assert close_bits(theta_num(0, 1, cfg192, use_inversion=False), ref, 184)

    def test_real_u_against_jtheta(self, cfg192):
        with mp.workprec(256):
            u = mp.mpf("0.3")
            ref = mp.jtheta(4, mp.pi * u, mp.exp(mp.mpf("-0.7")))
        got = theta_num("0.3", "0.7", cfg192, use_inversion=False)
        assert close_bits(got, ref, 184)

    def test_large_s_limit(self, cfg192):
        # theta(1, e^-60) = 1 - 2 e^-60 + ...: the limit is approached at e^-s speed
        assert close_bits(theta_num(0, 60, cfg192), 1, 80)

    def test_inversion_agreement(self, cfg256):
        d = theta_num(mp.mpf("0.1"), mp.mpf("0.05"), cfg256, use_inversion=False)
        i = theta_num(mp.mpf("0.1"), mp.mpf("0.05"), cfg256, use_inversion=True)
        assert close_bits(d, i, 248, scale=abs(i))

    def test_complex_u_q_power_argument(self, cfg192):
        # z = q^2, base q^3 at s = 0.3: u = i*a*s/(2 pi) with a=2, s_theta = 3s
        with mp.workprec(256):
            s = mp.mpf("0.3")
            direct = sum((-1) ** n * mp.exp(-s * (2 * n + 3 * n * n))
                         for n in range(-40, 41))
            u = mp.mpc(0, 1) * 2 * s / (2 * mp.pi)
            s_theta = 3 * s
        got = theta_num(u, s_theta, cfg192, use_inversion=True)
        assert close_bits(got, direct, 180)


class TestDedekind:
    @pytest.mark.parametrize("sstr", ["0.5", "0.1", "0.02"])
    def test_transformation(self, cfg256, sstr):
        s = mp.mpf(sstr)
        direct = qq_infinity_num(s, cfg256, use_transform=False)
        transformed = qq_infinity_num(s, cfg256, use_transform=True)
        assert close_bits(direct, transformed, 248, scale=abs(transformed))


class TestQProductKernel:
    """The running-power product kernel against mpmath's own q-Pochhammer."""

    def test_finite_product_and_resume_power(self):
        with mp.workprec(256):
            q = mp.exp(-mp.mpf("0.3"))
            prod, x = hires._qprod(q ** 2, q ** 3, 7)
            assert close_bits(prod, mp.qp(q ** 2, q ** 3, 7), 240)
            assert close_bits(x, q ** 23, 240, scale=q ** 23)
            # resuming from the returned power continues the same product
            more, _ = hires._qprod(x, q ** 3, 5, prod)
            assert close_bits(more, mp.qp(q ** 2, q ** 3, 12), 240)

    @pytest.mark.parametrize("start", [4, 1, 0, -1, -5])
    @pytest.mark.parametrize("sstr", ["0.5", "0.05"])
    def test_infinite_product_any_start(self, start, sstr):
        with mp.workprec(256):
            s = mp.mpf(sstr)
            got = hires._poch_inf_exps_core(start, 4, s)
        with mp.workprec(320):
            q = mp.exp(-mp.mpf(sstr))
            ref = mp.qp(q ** start, q ** 4)
        if start == 0:
            assert got == 0
        else:
            assert close_bits(got, ref, 240, scale=abs(ref))

    @pytest.mark.parametrize("sstr,transform", [("0.05", True), ("0.5", True),
                                                ("0.5", False), ("4", False)])
    def test_qq_both_branches(self, sstr, transform):
        with mp.workprec(256):
            got = hires._qq_inf_core(mp.mpf(sstr), use_transform=transform)
        with mp.workprec(320):
            ref = mp.qp(mp.exp(-mp.mpf(sstr)))
        assert close_bits(got, ref, 240, scale=ref)

    def test_qq_cache_is_bounded(self):
        cache = hires._qq_inf_cached
        with mp.workprec(128):
            for i in range(cache.cache_info().maxsize + 20):
                hires._qq_inf_core(mp.mpf(1) + i * mp.mpf(2) ** -40)
            newest = hires._qq_inf_core(mp.mpf(7))
            hits = cache.cache_info().hits
            assert hires._qq_inf_core(mp.mpf(7)) is newest
        info = cache.cache_info()
        assert info.currsize <= info.maxsize == 256
        assert info.hits == hits + 1


class TestGk:
    def test_series_route_is_exact_series(self, cfg192):
        # sum the exact coefficients independently at q = e^-5
        from qasymp.qseries import gk_series_andrews
        with mp.workprec(256):
            x = mp.exp(mp.mpf(-5))
            ser = gk_series_andrews(2, 40)
            ref = sum(c * x ** e for e, c in ser.items())
        assert close_bits(gk_num(2, 5, cfg192), ref, 180)

    def test_large_s_limit(self, cfg192):
        assert close_bits(gk_num(3, 40, cfg192), 1, 150)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("sstr", ["0.8", "1.25"])
    def test_route_crossover_agreement(self, cfg192, k, sstr):
        s = mp.mpf(sstr)
        g_series = gk_num(k, s, cfg192, route="series")
        g_insum = gk_num(k, s, cfg192, route="insum")
        assert close_bits(g_series, g_insum, 180, scale=abs(g_series))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("sstr", ["0.2", "0.05"])
    def test_insum_vs_direct_small_s(self, cfg192, k, sstr):
        # the two small-s routes resolve the m-sum cancellation independently
        s = mp.mpf(sstr)
        a = gk_num(k, s, cfg192, route="insum")
        b = gk_num(k, s, cfg192, route="direct")
        assert close_bits(a, b, 180, scale=abs(a))

    def test_invalid_args(self, cfg192):
        with pytest.raises(InvalidK):
            gk_num(1, 0.5, cfg192)
        with pytest.raises(ValueError):
            gk_num(2, -1, cfg192)

    def test_g2_mock_theta_product(self):
        # g_2(q) = chi(q) (-q^3;q^3)_inf / (-q;q)_inf with Ramanujan's
        # chi(q) = sum_n q^{n^2} prod_{j<=n} (1+q^j)/(1+q^{3j}), all in plain mpmath
        p = 256
        got = gk_num(2, "0.05", EvalConfig(p))
        with mp.workprec(p + 32):
            q = mp.exp(-mp.mpf("0.05"))
            chi, term, n = mp.mpf(1), mp.mpf(1), 1
            while True:
                term *= q ** (2 * n - 1) * (1 + q ** n) / (1 + q ** (3 * n))
                chi += term
                if term < mp.eps * chi:
                    break
                n += 1
            ref = chi * mp.qp(-q ** 3, q ** 3) / mp.qp(-q, q)
        assert close_bits(got, ref, p - 8, scale=ref)


class TestRelativeError:
    def test_k3_limit_value(self, cfg256):
        r = relative_error_num(3, mp.mpf("0.01"), cfg256)
        assert abs(r - mp.mpf(4) / 3) < mp.mpf("0.25")

    def test_k2_limit_value(self, cfg256):
        r = relative_error_num(2, mp.mpf("0.01"), cfg256)
        assert abs(r - mp.mpf(3) / 2) < mp.mpf("0.35")

    def test_monotone_sweep(self, cfg256):
        vals = [relative_error_num(3, mp.mpf(s), cfg256)
                for s in ("0.2", "0.1", "0.05", "0.02")]
        for a, b in zip(vals, vals[1:]):
            assert b < a
        assert vals[-1] > mp.mpf(4) / 3


class TestIn:
    def test_m0_term_is_one(self, cfg192):
        # at very large s only the m=0 term (both Pochhammer factors empty) survives
        v = I_n_num(3, 1, mp.mpf(80), cfg192)
        assert close_bits(v, 1, 150)

    def test_conjugate_symmetry(self, cfg256):
        s = mp.mpf("0.1")
        i1 = I_n_num(3, 1, s, cfg256)
        im1 = I_n_num(3, -1, s, cfg256)
        with mp.workprec(300):
            assert abs(im1 - mp.conj(i1)) <= mp.mpf(2) ** (-240) * abs(i1)

    def test_odd_only(self, cfg192):
        with pytest.raises(ValueError):
            I_n_num(3, 2, mp.mpf("0.1"), cfg192)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("sstr", ["0.2", "0.1", "0.05"])
    def test_lemma_decomposition(self, k, sstr):
        # R_k equals the weighted odd-n sum of I_n; truncating at |n| <= 5 leaves
        # a tail bounded (with factor-10 slack) by the first omitted weight
        cfg = EvalConfig(512)
        s = mp.mpf(sstr)
        r = relative_error_num(k, s, cfg, route="direct")
        with mp.workprec(640):
            partial = mp.mpf(0)
            c = mp.pi ** 2 / (2 * k * (k + 1) * s)
            for n in (1, 3, 5):
                partial += 2 * mp.exp(-c * (n * n - 1)) * mp.re(I_n_num(k, n, s, cfg))
            tail_bound = 10 * mp.exp(-c * 48) + mp.mpf(2) ** (-480) * abs(r)
            assert abs(r - partial) < tail_bound


class TestQGammaAsymptotic:
    @pytest.mark.parametrize("xf", [F(1, 2), F(5, 4), F(3)])
    def test_residual_order(self, cfg256, xf):
        # Gamma(x)/Gamma_q(x) ((1-q)/s)^{1-x} q^{x(x-1)/2} matches
        # q^{x(x-1)/4} exp(-sum B_2j B_{2j+1}(x) s^{2j}/(2j(2j+1)!)) + O(s^{2N+1})
        n_order = 3
        resids = []
        for sstr in ("0.1", "0.05"):
            with mp.workprec(320):
                s = mp.mpf(sstr)
                q = mp.exp(-s)
                x = frac_to_mpf(xf)
                lhs = mp.gamma(x) / gamma_q_num(xf if xf.denominator > 1 else int(xf), q, cfg256) \
                    * mp.power((1 - q) / s, 1 - x) * mp.power(q, x * (x - 1) / 2)
                expo = mp.mpf(0)
                for j in range(1, n_order + 1):
                    cj = bernoulli_number(2 * j) * bernoulli_polynomial(2 * j + 1)(xf) \
                        / (2 * j * math.factorial(2 * j + 1))
                    expo += frac_to_mpf(cj) * s ** (2 * j)
                rhs = mp.power(q, x * (x - 1) / 4) * mp.exp(-expo)
                resids.append(abs(lhs - rhs) / s ** (2 * n_order + 1))
        floor = mp.mpf(2) ** (-200)
        assert resids[1] <= 4 * resids[0] + floor


class TestPrecisionContract:
    @pytest.mark.parametrize("name,fn", [
        ("pochhammer", lambda c: pochhammer_num(0.5, 0.5, c)),
        ("qsubz", lambda c: qsubz_num(F(-3, 4), 0.5, c)),
        ("gamma_q", lambda c: gamma_q_num(F(5, 2), 0.5, c)),
        ("theta_direct", lambda c: theta_num(mp.mpf("0.1"), mp.mpf("1.5"), c)),
        ("theta_inverted", lambda c: theta_num(mp.mpf("0.1"), mp.mpf("0.05"), c)),
        ("gk_insum", lambda c: gk_num(3, mp.mpf("0.07"), c)),
        ("gk_series", lambda c: gk_num(3, mp.mpf("2.5"), c)),
        ("relative_error", lambda c: relative_error_num(2, mp.mpf("0.1"), c)),
        ("I_n", lambda c: mp.re(I_n_num(3, 1, mp.mpf("0.1"), c))),
    ])
    def test_doubling(self, name, fn):
        p = 160
        v1 = fn(EvalConfig(p))
        v2 = fn(EvalConfig(2 * p))
        assert close_bits(v1, v2, p - 8, scale=abs(v2)), name
