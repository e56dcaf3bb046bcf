"""beta_k(j) recovered from g_k alone, a route independent of beta_rational.

The paper's relative error g_k(e^{-s}) / [(1/(k+1)) sqrt(2 pi/s)
e^{-pi^2/(3k(k+1)s) + s/24}] - (k+1)/k has the asymptotic series
sum_{j>=1} beta_k(j) s^{j/k}. A least-squares fit (mp.qr_solve) of values of
gk_num, with no constant term, in t = s^{1/k}, recovers the first coefficients.
The fit reads neither a_{n,j} nor b_k(l) nor any expansion code; only the
comparison calls beta_coeff.

The fit is deterministic, so each tolerance is MARGIN times the error this grid
gave when the test was written (rounded up), not a bound chosen to pass. k = 4
is left out: on the k = 3 grid, with up to 32 points and degree 22, the fit
reached only 6.7e-8 on beta_4(1) and 1.6e-4 on beta_4(3).
"""
import mpmath as mp
import pytest

from qasymp.expansion import beta_coeff
from qasymp.hires import EvalConfig, gk_num

BITS = 192
MARGIN = 10

# k: (s_0, span, points, degree, {j: measured error}) with s_i = s_0 span^{i/(points-1)};
# the error is relative to |beta_k(j)|, and absolute where beta_k(j) = 0 (k | j).
FITS = {
    2: ("0.005", 12, 24, 14, {1: 9.6e-16, 2: 4.1e-14, 3: 7.2e-11, 4: 5.8e-11}),
    3: ("0.002", 15, 28, 18, {1: 4.8e-13, 2: 4.8e-11, 3: 6.6e-10, 4: 1.4e-6}),
}


def _fit(k, s0, span, points, degree):
    """The least-squares coefficients of t^1..t^degree, t = s^{1/k}."""
    cfg = EvalConfig(BITS)
    with mp.workprec(BITS):
        ss = [mp.mpf(s0) * mp.mpf(span) ** (mp.mpf(i) / (points - 1)) for i in range(points)]
    gs = [gk_num(k, s, cfg) for s in ss]
    with mp.workprec(BITS):
        y = [g / (mp.sqrt(2 * mp.pi / s) / (k + 1)
                  * mp.exp(-mp.pi ** 2 / (3 * k * (k + 1) * s) + s / 24)) - mp.mpf(k + 1) / k
             for s, g in zip(ss, gs)]
        a = [[mp.root(s, k) ** j for j in range(1, degree + 1)] for s in ss]
        c, _ = mp.qr_solve(mp.matrix(a), mp.matrix(y))
    return [c[i] for i in range(degree)]


@pytest.mark.parametrize("k", sorted(FITS))
def test_fit_of_gk_recovers_beta(k):
    s0, span, points, degree, measured = FITS[k]
    c = _fit(k, s0, span, points, degree)
    errors = {}
    for j, err in measured.items():
        want = beta_coeff(k, j, EvalConfig(BITS))
        with mp.workprec(BITS):
            errors[j] = abs(c[j - 1] - want) / (abs(want) if want else 1)
    assert all(errors[j] <= MARGIN * err for j, err in measured.items()), \
        {j: mp.nstr(e, 3) for j, e in errors.items()}
