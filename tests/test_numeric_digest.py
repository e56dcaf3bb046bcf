"""Frozen values of the numeric exports that no other digest covers.

Each grid runs at 64, 128 and 192 bits and hashes the exact mpf/mpc of every
result, or the name of the error it raises, so a refactor of the input
conversions, the product loops or the Wright series entry shows up as a changed
digest. The inputs are the kinds every export accepts: int, str, float,
Fraction, complex and mpc. The same grids show that every export rounds once to
its precision, whatever the caller's mpmath precision."""
from __future__ import annotations

from fractions import Fraction as F

import mpmath as mp
import pytest

from conftest import canon, digest
from qasymp import expansion, hires
from qasymp.errors import QAsympError
from qasymp.expansion import (expansion_eval, hq_bivariate, hq_num, hq_table_eval,
                              zagier_c1, zagier_c2)
from qasymp.hires import (EvalConfig, gamma_q_num, gk_and_relative_error_num, gk_num,
                          pochhammer_num, qq_infinity_num, qsubz_num, theta_num)
from qasymp.wright import (W_j_num, Wj_expansion, WrightParams, b_k_coeff, re_phi_expansion,
                           wright_phi, wright_phi_moment)

PRECS = (64, 128, 192)


def _grid(args, call):
    """Rows ((p,) + a, lambda: call(EvalConfig(p), *a)) for a in args, p in PRECS."""
    return [((p,) + a, lambda a=a, p=p: call(EvalConfig(p), *a)) for p in PRECS for a in args]


def theta_grid():
    us = ["0", F(1, 10), "0.3", complex(0, 0.05), mp.mpc(0, "0.2")]
    args = [(u, s, inv) for u in us for s in ("0.7", "1.5") for inv in (True, False)]
    return _grid(args, lambda c, u, s, inv: theta_num(u, s, c, use_inversion=inv))


def pochhammer_grid():
    zs = [0, "0.5", "-0.3", 1, complex(0.2, 0.3)]
    args = [(z, q) for z in zs for q in ("0.5", F(1, 3), 0.9)]
    return _grid(args, lambda c, z, q: pochhammer_num(z, q, c))


def qq_grid():
    args = [(s, t) for s in ("0.1", "0.5", F(2), "4") for t in (True, False)]
    return _grid(args, lambda c, s, t: qq_infinity_num(s, c, use_transform=t))


def qsubz_grid():
    xs = [F(1, 2), "0.3", 0.25, complex(0.5, 0.2), -1, F(-3, 2)]
    args = [(x, q) for x in xs for q in ("0.5", F(4, 5))]
    return _grid(args, lambda c, x, q: qsubz_num(x, q, c))


def gamma_q_grid():
    xs = [F(5, 2), "0.3", 0.75, complex(1.5, 0.5), 0, 3]
    args = [(x, q) for x in xs for q in ("0.5", F(4, 5))]
    return _grid(args, lambda c, x, q: gamma_q_num(x, q, c))


def hq_grid():
    args = [(k, z, s) for k in (2, 3) for z in (F(1, 3), "-0.2", complex(0.1, 0.2))
            for s in ("0.1", F(3, 10))]
    return _grid(args, lambda c, k, z, s: hq_num(k, z, s, c))


def hq_table_grid():
    biv = hq_bivariate(3, 6)
    args = [(z, s) for z in (F(1, 3), "-0.2", complex(0.1, 0.2)) for s in ("0.1", F(1, 20))]
    return _grid(args, lambda c, z, s: hq_table_eval(biv, z, s, c))


def re_phi_grid():
    args = [(rho, z, L) for rho in (F(1, 2), F(3, 4), "2/3", F(1, 3))
            for z in ("5", F(7, 2)) for L in (1, 6)]
    return _grid(args, lambda c, rho, z, L: re_phi_expansion(rho, z, L, c))


def wj_expansion_grid():
    args = [(k, j, w) for k in (2, 3) for j in (0, 1, 2) for w in ("3", F(5, 2))]
    rows = _grid(args, lambda c, k, j, w: Wj_expansion(k, j, 5, w, c))
    return rows + _grid([(2, "3"), (3, 4)], lambda c, k, w: Wj_expansion(k, 0, 6, w, c))


def b_k_grid():
    args = [(k, j) for k in (2, 3, 4) for j in range(1, 5)]
    return _grid(args, lambda c, k, j: b_k_coeff(k, j, c))


def zagier_grid():
    return _grid([(1,), (2,)], lambda c, i: (zagier_c1 if i == 1 else zagier_c2)(c))


def expansion_eval_grid():
    args = [(k, n, s) for k in (2, 3) for n in (1, 2) for s in ("0.05", F(1, 5), "-1")]
    return _grid(args, lambda c, k, n, s: expansion_eval(k, n, s, c))


def gk_series_grid():
    args = [(k, s) for k in (2, 3, 4) for s in ("1", "2.5", F(3, 2))]
    return _grid(args, lambda c, k, s: gk_num(k, s, c, route="series"))


def gk_and_rel_grid():
    args = [(k, s) for k in (2, 3) for s in ("0.1", F(3, 2))]
    return _grid(args, lambda c, k, s: gk_and_relative_error_num(k, s, c))


def wj_quad_grid():
    args = [(k, j) for k in (2, 3) for j in (0, 1)]
    return _grid(args, lambda c, k, j: W_j_num(k, j, "3", c, route="quadrature"))


def wright_grid():
    zs = ["1.5", 2, complex(-1, 2), mp.mpc("0.5", "-3")]
    params = [WrightParams(r, b) for r in (F(1, 2), F(3, 4), F(-1, 2), 0)
              for b in (1, F(3, 2))]
    rows = _grid([(i, z) for i in range(len(params)) for z in zs],
                 lambda c, i, z: wright_phi(params[i], z, c))
    return rows + _grid([(i, z, j) for i in range(0, len(params), 2) for z in zs
                         for j in (1, 2, -1)],
                        lambda c, i, z, j: wright_phi_moment(j, params[i], z, c))


# sha256 over repr((key, value)) of each grid, the value being the exact mpf/mpc
# tuple(s) or ("raises", error name), as the exports computed them before the
# input conversions and the cut-off product loops were merged
FROZEN = {
    "theta": (theta_grid, 60,
              "a28f04777530a4b1a05572ff9b2aa91c29c6739e6f42bc00764c69e680ada440"),
    "pochhammer": (pochhammer_grid, 45,
                   "6c997a2605cf61f5b90db02fb9e328a8047863693f66affa8c2a010fa8fde290"),
    "qq_infinity": (qq_grid, 24,
                    "46285d340c3afd63ed55c97795633e20f149c82e1115545961b373a766d3cc95"),
    "qsubz": (qsubz_grid, 36,
              "fd77fd84a7c0f86eead7081cc018ba05a48a57eaeb56e8792ccea32c8b9c112b"),
    # re-frozen when gamma_q_num began to form x - 1 at its working precision: only
    # the six rows of x = "0.3" moved, each to the value of Fraction(3, 10)
    "gamma_q": (gamma_q_grid, 36,
                "69ef1a9fc0e8f598073191afc37a64368ef641a9065e8a5aba0a96d1cb94d8ef"),
    "hq": (hq_grid, 36,
           "da768f2340ed6cff59693701ad21bbf420b2658dd55a42161a5f8de691fa0a07"),
    "hq_table": (hq_table_grid, 18,
                 "65fe85030b8f1b63ffbd7111b303715118952ff02932659270b0860c6cdc1c8f"),
    "re_phi_expansion": (re_phi_grid, 48,
                         "164a4a36b05f4e570f245bddcbe4b2dd530fb72d178aae32a85399791fc3815b"),
    "wj_expansion": (wj_expansion_grid, 42,
                     "770a4dfe459e6565f982e34f9afc89962b7e38680804f80366926c5394f9746d"),
    "b_k": (b_k_grid, 36,
            "f3f94b21c263ab643dfbe207fd6f7fee6a460c3a9c4166d6ab9a6c8822f45560"),
    "zagier_c": (zagier_grid, 6,
                 "90f385123973cd1a33b2a69cc22847f8f95b0e2074193c53ffb3e20580950e23"),
    "expansion_eval": (expansion_eval_grid, 36,
                       "c8d76ea029c080e44f2e5486d1e21a1cf0f30f394213cf8ac95ca02db15f5692"),
    "gk_series": (gk_series_grid, 27,
                  "9f97e467ec33d2134f7d9518317c55217d3bb0a4bd7d6ea0b6be665702beca69"),
    "gk_and_relative_error": (gk_and_rel_grid, 12,
                              "dfb79391c8a75c6853f5dbfca2cb74be61cf3d9bcd1bd408f6bd15a73e0d43ba"),
    "wj_quadrature": (wj_quad_grid, 12,
                      "279910af3844769ca0cc69639c2e5759310d4cecd5af4ec4f16244fd6718928d"),
    "wright": (wright_grid, 240,
               "834341c1babafcc38fca3cfd967a44226c76ba6402e9c1c1a009a08ae0fac5d2"),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_digest(name):
    grid, size, want = FROZEN[name]
    rows = grid()
    assert len(rows) == size
    assert digest(rows) == want


def _parts(v):
    """The mpf parts of a result: each part of an mpc, each element of a tuple."""
    if isinstance(v, tuple):
        return [x for e in v for x in _parts(e)]
    if isinstance(v, mp.mpc):
        return [v.real, v.imag]
    return [v]


def _results(rows, ambient):
    """(precision_bits, result or error name) per row, computed from empty caches
    inside mp.workprec(ambient)."""
    hires._qq_inf_cached.cache_clear()
    expansion._beta_at.cache_clear()
    out = []
    with mp.workprec(ambient):
        for key, fn in rows:
            try:
                out.append((key[0], fn()))
            except (QAsympError, ValueError) as exc:
                out.append((key[0], type(exc).__name__))
    return out


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_rounded_once_at_any_ambient_precision(name):
    rows = FROZEN[name][0]()
    low, high = _results(rows, 53), _results(rows, 700)
    for p, got in low:
        if not isinstance(got, str):
            assert all(x._mpf_[3] <= p for x in _parts(got)), (p, got)
    # compare the values, not repr(key): an mpc key prints by mp.dps
    assert [(p, got if isinstance(got, str) else canon(got)) for p, got in low] \
        == [(p, got if isinstance(got, str) else canon(got)) for p, got in high]
