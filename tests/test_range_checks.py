"""Every integer argument with a lower bound: one below it raises
ValueError("<name> must be >= <lo>") with exactly that text, at it no ValueError
comes, and where k is out of range as well, InvalidK comes first."""
from fractions import Fraction as F

import pytest

from qasymp import cli
from qasymp.errors import InvalidK
from qasymp.exactcore import bernoulli_number, bernoulli_polynomial
from qasymp.expansion import (beta_coeff, beta_rational, expansion_eval, f2j_polynomial,
                              hq_bivariate, rational_ratio, zagier_t_coeffs)
from qasymp.hires import EvalConfig
from qasymp.qseries import (Gk_series_oracle, chi_series, euler_identity_check,
                            gk_series_andrews, pochhammer_series, theta_series)
from qasymp.wright import (W_j_num, Wj_expansion, WrightParams, b_k_coeff, re_phi_expansion,
                           wright_phi_moment)

CFG = EvalConfig(64)
PHI = WrightParams(F(3, 4))

# export: (its call as a function of the checked index, the message, the bound lo)
SITES = {
    "bernoulli_number": (lambda i: bernoulli_number(i), "Bernoulli index must be >= 0", 0),
    "bernoulli_polynomial": (lambda i: bernoulli_polynomial(i),
                             "Bernoulli index must be >= 0", 0),
    "f2j_polynomial": (lambda i: f2j_polynomial(2, i), "j must be >= 1", 1),
    "hq_bivariate": (lambda i: hq_bivariate(2, i), "j_max must be >= 1", 1),
    "beta_rational": (lambda i: beta_rational(2, i), "j must be >= 1", 1),
    "beta_coeff": (lambda i: beta_coeff(2, i, CFG), "j must be >= 1", 1),
    "expansion_eval": (lambda i: expansion_eval(2, i, 1, CFG), "N must be >= 0", 0),
    "rational_ratio": (lambda i: rational_ratio(3, 1, i, CFG), "m must be >= 0", 0),
    "zagier_t_coeffs": (lambda i: zagier_t_coeffs(i, CFG), "m_max must be >= 0", 0),
    "EvalConfig": (lambda i: EvalConfig(i), "precision_bits must be >= 64", 64),
    "pochhammer_series": (lambda i: pochhammer_series(1, i, 5),
                          "pochhammer base step b must be >= 1", 1),
    "theta_series": (lambda i: theta_series(0, i, 5), "theta base exponent t must be >= 1", 1),
    "gk_series_andrews": (lambda i: gk_series_andrews(2, i), "order must be >= 0", 0),
    "Gk_series_oracle": (lambda i: Gk_series_oracle(2, i), "order must be >= 0", 0),
    "chi_series": (lambda i: chi_series(i), "order must be >= 0", 0),
    "euler_identity_check": (lambda i: euler_identity_check(i), "order must be >= 0", 0),
    "wright_phi_moment": (lambda i: wright_phi_moment(i, PHI, 2, CFG),
                          "moment order must be >= 0", 0),
    "b_k_coeff": (lambda i: b_k_coeff(2, i, CFG), "j must be >= 1", 1),
    "re_phi_expansion": (lambda i: re_phi_expansion(F(3, 4), 10, i, CFG), "L must be >= 1", 1),
    "W_j_num": (lambda i: W_j_num(2, i, 1, CFG), "j must be >= 0", 0),
    "Wj_expansion j": (lambda i: Wj_expansion(3, i, 2, 10, CFG), "j must be >= 0", 0),
    "Wj_expansion L": (lambda i: Wj_expansion(3, 0, i, 10, CFG), "L must be >= 1", 1),
}


@pytest.mark.parametrize("name", SITES)
def test_one_below_the_bound_is_refused_with_its_message(name):
    call, message, lo = SITES[name]
    with pytest.raises(ValueError) as info:
        call(lo - 1)
    assert str(info.value) == message


@pytest.mark.parametrize("name", SITES)
def test_the_bound_itself_is_accepted(name):
    call, _, lo = SITES[name]
    call(lo)


# k = 1 together with the index one below its bound: the k check runs first
K_FIRST = {
    "f2j_polynomial": lambda: f2j_polynomial(1, 0),
    "hq_bivariate": lambda: hq_bivariate(1, 0),
    "beta_rational": lambda: beta_rational(1, 0),
    "beta_coeff": lambda: beta_coeff(1, 0, CFG),
    "expansion_eval": lambda: expansion_eval(1, -1, 1, CFG),
    "rational_ratio": lambda: rational_ratio(1, 1, -1, CFG),
    "gk_series_andrews": lambda: gk_series_andrews(1, -1),
    "Gk_series_oracle": lambda: Gk_series_oracle(1, -1),
    "b_k_coeff": lambda: b_k_coeff(1, 0, CFG),
    "W_j_num": lambda: W_j_num(1, -1, 1, CFG),
    "Wj_expansion": lambda: Wj_expansion(1, -1, 0, 10, CFG),
}


@pytest.mark.parametrize("name", K_FIRST)
def test_invalid_k_comes_before_the_index(name):
    with pytest.raises(InvalidK, match=r"^k must be >= 2, got 1$"):
        K_FIRST[name]()


def test_wj_expansion_checks_j_before_l():
    with pytest.raises(ValueError, match=r"^j must be >= 0$"):
        Wj_expansion(3, -1, 0, 10, CFG)


# beta's rows run j = 1..order, so an order below 1 is refused before any row, k
# check included; the bound itself prints one row
@pytest.mark.parametrize("argv", [["--order", "0"], ["--order", "0", "--k", "1"],
                                  ["--order", "-5"]])
def test_cli_beta_order_below_one_is_a_usage_error(capsys, argv):
    assert cli.main(["beta", *argv]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: order must be >= 1\n")


def test_cli_beta_order_one_prints_one_row(capsys):
    assert cli.main(["beta", "--order", "1", "--prec", "64"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.strip().split("\n")) == 2
