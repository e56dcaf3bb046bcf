"""The asymptotic route of W_j_num: the large-w expansion summed to the working
precision, pinned against the independent quadrature route, the precision
contract, the auto route's switches, and arguments far past the float range."""
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import seed as hypothesis_seed
from hypothesis import strategies as st

from conftest import close_bits
from qasymp import cli, wright
from qasymp.errors import NonConvergent, TermCapExceeded
from qasymp.hires import EvalConfig
from qasymp.wright import W_j_num, WrightParams, _phi_cancel_bits, wright_phi


def _contract_holds(got, ref, p):
    return close_bits(got, ref, p - 8, scale=max(mp.mpf(1), abs(ref)))


def _asymptotic_bits(p):
    """The fewest cancellation bits at which auto takes the asymptotic route."""
    return 2 * (p + 64) + 16


def _switch(k, below):
    """(w_lo, w_hi) = (n/16, (n+1)/16) with below(bits) true at w_lo and false at
    w_hi, bits = _phi_cancel_bits(k/(k+1), w) growing with w."""
    lo, hi = 16, 1 << 20
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if below(_phi_cancel_bits(F(k, k + 1), F(mid, 16))) else (lo, mid)
    return F(lo, 16), F(hi, 16)


@pytest.fixture
def route_of(monkeypatch):
    """route_of(k, j, w, p): the route auto takes, its core replaced by a stub."""
    taken = []
    for name, core in (("series", "_Wj_series_core"), ("quadrature", "_Wj_quad_core"),
                       ("asymptotic", "_Wj_asymptotic_core")):
        def stub(*args, name=name):
            taken.append(name)
            return mp.mpf(0)
        monkeypatch.setattr(wright, core, stub)

    def route(k, j, w, p):
        W_j_num(k, j, w, EvalConfig(p))
        return taken.pop()
    return route


# the points where auto now sums the expansion in TestWjNum::test_remainder_order
# (256 bits), test_wj_matches_expansion_within_remainder, test_w0_limit_constants
# and test_w0_expansion_agreement_with_vanishing_next_terms (192 bits)
_REMAINDER_POINTS = [(k, j, w, 256) for k, ws in ((2, (40,)), (3, (20, 40)), (4, (10, 20, 40)))
                     for w in ws for j in range(3)]
_POINTS = _REMAINDER_POINTS + [(3, 1, 20, 192), (2, 0, 30, 192), (2, 0, 5000, 192),
                               (3, 0, 5000, 192)]
_IDS = ["k{}-j{}-w{}-p{}".format(*pt) for pt in _POINTS]


class TestAgainstQuadrature:
    @pytest.mark.parametrize("k, j, w, p", _POINTS, ids=_IDS)
    def test_agrees(self, k, j, w, p):
        cfg = EvalConfig(p)
        got = W_j_num(k, j, w, cfg, route="asymptotic")
        assert _contract_holds(got, W_j_num(k, j, w, cfg, route="quadrature"), p)

    @pytest.mark.parametrize("k, j, w, p", _POINTS, ids=_IDS)
    def test_auto_sums_the_expansion_here(self, route_of, k, j, w, p):
        assert route_of(k, j, w, p) == "asymptotic"

    @hypothesis_seed(20261019)
    @settings(max_examples=8, deadline=None, database=None)
    @given(st.sampled_from([2, 3, 4]), st.sampled_from([0, 1, 2]),
           st.sampled_from([128, 192, 256]), st.integers(0, 4000))
    def test_differential(self, k, j, p, n):
        # w from the switch to asymptotic up to about 250 past it, in steps of 1/16
        w = _switch(k, lambda bits: bits < _asymptotic_bits(p))[1] + F(n, 16)
        cfg = EvalConfig(p)
        got = W_j_num(k, j, w, cfg, route="asymptotic")
        assert _contract_holds(got, W_j_num(k, j, w, cfg, route="quadrature"), p)


class TestPrecisionContract:
    @pytest.mark.parametrize("k, j, w, p", _POINTS, ids=_IDS)
    def test_doubling_the_precision(self, k, j, w, p):
        got = W_j_num(k, j, w, EvalConfig(p), route="asymptotic")
        assert _contract_holds(got, W_j_num(k, j, w, EvalConfig(2 * p), route="asymptotic"), p)

    def test_stops_where_the_terms_stop_shrinking(self):
        # at w = 2 the smallest term is about e^{-peak} with peak = 4 w^3/27 ~ 1.2
        with pytest.raises(TermCapExceeded):
            W_j_num(2, 0, 2, EvalConfig(128), route="asymptotic")


class TestAutoSwitches:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("p", [128, 192, 256])
    def test_series_then_asymptotic(self, route_of, k, p):
        # below about 820 bits the expansion is usable wherever the series is not
        lo, hi = _switch(k, lambda bits: bits + p <= 2600)
        assert _phi_cancel_bits(F(k, k + 1), hi) >= _asymptotic_bits(p)
        assert [route_of(k, 1, w, p) for w in (lo, hi)] == ["series", "asymptotic"]

    @pytest.mark.parametrize("k", [2, 3])
    def test_quadrature_between_above_820_bits(self, route_of, k):
        p = 1024
        lo, hi = _switch(k, lambda bits: bits + p <= 2600)
        assert [route_of(k, 0, w, p) for w in (lo, hi)] == ["series", "quadrature"]
        lo, hi = _switch(k, lambda bits: bits < _asymptotic_bits(p))
        assert [route_of(k, 0, w, p) for w in (lo, hi)] == ["quadrature", "asymptotic"]


class TestHugeArguments:
    @pytest.mark.parametrize("text", ["1e60", "1e200", "1e400"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_w0_tends_to_its_limit(self, k, text):
        with mp.workprec(96):
            w, limit = mp.mpf(text), mp.mpf(k + 1) / k
        assert close_bits(W_j_num(k, 0, w, EvalConfig(64)), limit, 56)
        assert abs(W_j_num(k, 1, w, EvalConfig(64))) < mp.mpf(10) ** -50

    @pytest.mark.parametrize("w", ["1e400", F(10) ** 400, 10 ** 400], ids=["str", "F", "int"])
    def test_exact_arguments_past_the_float_range(self, w):
        # the sign and the |z| <= 1 test read the exact value, as the mpf path does
        with mp.workprec(96):
            ref = W_j_num(2, 0, mp.mpf("1e400"), EvalConfig(64))
        assert W_j_num(2, 0, w, EvalConfig(64))._mpf_ == ref._mpf_ == mp.mpf(1.5)._mpf_

    def test_cancel_bits_in_logs(self):
        # |z|^{3/2} and |z|^3 leave the float range; the count stays a finite int
        for zabs in (1e200, mp.mpf("1e400")):
            assert _phi_cancel_bits(F(2, 3), zabs) > 1 << 60
            assert _phi_cancel_bits(F(1, 3), zabs) > 1 << 60

    def test_phi_is_nonconvergent(self):
        with mp.workprec(96):
            z = mp.mpf("1e400") * mp.expjpi(mp.mpf(2) / 3)
        with pytest.raises(NonConvergent):
            wright_phi(WrightParams(F(2, 3)), z, EvalConfig(64))

    @pytest.mark.parametrize("s, which, code", [("1e200", "Wj", 0), ("1e60", "Wj", 0),
                                                ("1e400", "phi", 3)])
    def test_cli_exit_codes(self, capsys, s, which, code):
        argv = ["wright", "--k", "2", "--N", "0", "--s", s, "--prec", "64", "--which", which]
        assert cli.main(argv) == code
        out = capsys.readouterr().out
        if code == 0:
            assert out.splitlines()[1].endswith(",1.5")
