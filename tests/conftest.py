import hashlib

import mpmath as mp
import pytest

from qasymp.errors import QAsympError
from qasymp.hires import EvalConfig


@pytest.fixture(scope="session")
def cfg128():
    return EvalConfig(128)


@pytest.fixture(scope="session")
def cfg192():
    return EvalConfig(192)


@pytest.fixture(scope="session")
def cfg256():
    return EvalConfig(256)


def close_bits(a, b, bits, scale=None):
    """|a - b| <= 2^-bits * scale, compared at enough working precision."""
    with mp.workprec(max(bits + 64, 128)):
        aa, bb = mp.mpmathify(a), mp.mpmathify(b)
        sc = mp.mpf(scale) if scale is not None else max(abs(aa), abs(bb), mp.mpf(1))
        return abs(aa - bb) <= mp.mpf(2) ** (-bits) * sc


def rel_diff(a, b, prec=300):
    with mp.workprec(prec):
        aa, bb = mp.mpmathify(a), mp.mpmathify(b)
        return abs(aa - bb) / max(abs(aa), abs(bb), mp.mpf(2) ** (-prec))


def canon(v):
    """Plain-int tuples of an mpf, an mpc or a tuple of them: the exact
    (sign, man, exp, bc) of each mpf, real and imaginary parts apart."""
    if isinstance(v, tuple):
        return tuple(canon(x) for x in v)
    if isinstance(v, mp.mpc):
        return tuple(tuple(int(x) for x in part) for part in v._mpc_)
    return tuple(int(x) for x in v._mpf_)


def digest(rows):
    """sha256 over repr((key, canon(fn()))) of the (key, fn) rows in order; a row
    that raises a QAsympError or ValueError hashes ("raises", its class name)."""
    h = hashlib.sha256()
    for key, fn in rows:
        try:
            got = canon(fn())
        except (QAsympError, ValueError) as exc:
            got = ("raises", type(exc).__name__)
        h.update(repr((key, got)).encode())
    return h.hexdigest()


def digest_parts(series):
    """A FormalSeries as (its JSON terms, low exponent, truncation order)."""
    return series.to_json(), series.low_exponent, series.truncation_order
