"""beta_k(j) as T_k(j mod k) times the exact rational R_k(j): the rational part
against its closed form at j < k, against the continued-fraction reconstruction
and against the numeric sum over b_k(l) a_{n,r}; the values frozen from the
numeric-sum implementation; and the CLI tables that no longer depend on --prec."""
import hashlib
from fractions import Fraction as F
from math import factorial

import mpmath as mp
import pytest

from conftest import run_cli
from qasymp.errors import InvalidK
from qasymp.expansion import beta_coeff, beta_rational, hq_bivariate, rational_ratio
from qasymp.hires import EvalConfig
from qasymp.wright import b_k_coeff

# sha256 of repr([(k, j, p, _mpf_), ...]) over k = 2..6, j = 1..48 with k not
# dividing j, p = 64, 256, 512, as computed by the guarded numeric beta sum
BETA_GRID_SHA256 = "6fb0a770aa8ceb6c09e47cd93e20783b3d4bde2bc1c756ac08a2bb5f99f04004"


def numeric_beta_sum(k, j, bits):
    """sum_{kr+l=j} b_k(l) sum_n a_{n,r} (-l)^n (k+1)^{n-l} k^{l(k+1)/k - n} at bits."""
    biv = hq_bivariate(k, max((j - 1) // k, 1))
    with mp.workprec(bits):
        tot = mp.mpf(0)
        for r in range((j - 1) // k + 1):
            ell = j - k * r
            b = b_k_coeff(k, ell, EvalConfig(bits))
            for n, a in enumerate(biv.table[r]):
                if a:
                    tot += b * mp.mpf(a.numerator) / a.denominator * mp.power(-ell, n) \
                        * mp.power(k + 1, n - ell) * mp.power(k, mp.mpf(ell * (k + 1)) / k - n)
        return tot


class TestBetaRational:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_first_residues(self, k):
        for j0 in range(1, k):
            assert beta_rational(k, j0) == F(1, factorial(j0) * (k + 1) ** j0)

    def test_zero_on_multiples_of_k(self):
        assert beta_rational(3, 6) == 0 and beta_rational(5, 25) == 0

    @pytest.mark.parametrize("k", range(2, 7))
    def test_equals_reconstruction(self, k):
        cfg = EvalConfig(512)
        for j0 in range(1, k):
            for m in range(9):
                exact = beta_rational(k, j0 + m * k) / beta_rational(k, j0)
                assert exact == rational_ratio(k, j0, m, cfg), (k, j0, m)

    @pytest.mark.parametrize("k, j", [(2, 31), (3, 25), (3, 40), (5, 22), (6, 35)])
    def test_equals_numeric_sum(self, k, j):
        # the sum cancels 22 to 80 bits at these points; 1024 working bits leave over 900
        want = numeric_beta_sum(k, j, 1024)
        got = beta_coeff(k, j, EvalConfig(256))
        with mp.workprec(1024):
            assert abs(got - want) <= abs(want) * mp.mpf(2) ** -255

    def test_validation(self):
        with pytest.raises(InvalidK):
            beta_rational(1, 1)
        with pytest.raises(ValueError):
            beta_rational(3, 0)


def test_beta_grid_frozen():
    vals = []
    for p in (64, 256, 512):
        for k in range(2, 7):
            for j in range(1, 49):
                if j % k:
                    sign, man, exp, bc = beta_coeff(k, j, EvalConfig(p))._mpf_
                    vals.append((k, j, p, (sign, int(man), exp, bc)))
    assert len(vals) == 513
    assert hashlib.sha256(repr(vals).encode()).hexdigest() == BETA_GRID_SHA256


class TestCliTables:
    def test_zagier_m30_at_128_bits(self):
        code, out, _ = run_cli(["zagier", "--m-max", "30", "--prec", "128"])
        assert code == 0
        lines = out.split("\n")
        assert "t1,8,-5532125340705109003/76692729615718809600,NEW" in lines
        assert sum(line.startswith(("t1,", "t2,")) for line in lines) == 62

    def test_zagier_rationals_do_not_depend_on_prec(self):
        rows = [[line for line in run_cli(["zagier", "--m-max", "12", "--prec", p])[1].split("\n")
                 if line.startswith(("t1,", "t2,"))] for p in ("64", "512")]
        assert rows[0] == rows[1] and len(rows[0]) == 26

    def test_beta_k4_order40_at_64_bits(self):
        code, out, _ = run_cli(["beta", "--k", "4", "--order", "40", "--prec", "64"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 40
        for j, _, ratio in rows:
            j = int(j)
            if j > 4 and j % 4:
                assert F(ratio) == beta_rational(4, j) / beta_rational(4, j % 4)
        assert rows[4][2] == "279/10000"  # beta_4(5)/beta_4(1)
