"""gk_num's insum and direct routes at large s: each returns the series route's
value or refuses with TermCapExceeded (exit 3), never another number."""
import pytest

from qasymp.cli import EXIT_NONCONVERGENT, exit_code_for
from qasymp.errors import TermCapExceeded
from qasymp.hires import EvalConfig, gk_num


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("s", ["2.5", "37.5", "1e50", "1e100", "1e200"])
def test_direct_equals_series(k, s):
    cfg = EvalConfig(64)
    assert gk_num(k, s, cfg, route="direct") == gk_num(k, s, cfg, route="series")


@pytest.mark.parametrize("p", [64, 128])
@pytest.mark.parametrize("k", [2, 3, 6])
@pytest.mark.parametrize("s", ["100", "1000", "1e4"])
def test_insum_equals_series(k, s, p):
    cfg = EvalConfig(p)
    assert gk_num(k, s, cfg, route="insum") == gk_num(k, s, cfg, route="series")


def test_insum_refuses_past_term_cap():
    with pytest.raises(TermCapExceeded) as err:
        gk_num(2, "1e100", EvalConfig(64), route="insum")
    assert exit_code_for(err.value) == EXIT_NONCONVERGENT == 3

