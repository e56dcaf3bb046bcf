"""Each subcommand accepts only the options it reads. The twelve options that
every subcommand used to accept and then ignore are refused with exit 2."""
import argparse
import contextlib
import io

import pytest

from qasymp import cli

OUTPUT = {"--format", "--out"}
ACCEPTED = {
    "coeffs": {"--k", "--order", "--which"} | OUTPUT,
    "verify": {"--k", "--N", "--s", "--prec"} | OUTPUT,
    "zagier": {"--m-max", "--prec"} | OUTPUT,
    "beta": {"--k", "--order", "--prec"} | OUTPUT,
    "wright": {"--k", "--N", "--s", "--prec", "--which"} | OUTPUT,
    "plotdata": {"--k", "--N", "--s", "--prec"} | OUTPUT,
}

# a valid request of each subcommand
VALID = {
    "coeffs": ["coeffs", "--order", "3"],
    "verify": ["verify", "--s", "1.5", "--prec", "64"],
    "zagier": ["zagier", "--m-max", "1", "--prec", "64"],
    "beta": ["beta", "--order", "2", "--prec", "64"],
    "wright": ["wright", "--s", "2", "--N", "0", "--prec", "64"],
    "plotdata": ["plotdata", "--s", "0.2", "--prec", "64"],
}
# the options each subcommand used to accept and ignore, with valid values
REMOVED = [
    ("coeffs", "--N", "1"), ("coeffs", "--s", "0.1"), ("coeffs", "--prec", "128"),
    ("verify", "--order", "3"),
    ("zagier", "--k", "4"), ("zagier", "--order", "3"), ("zagier", "--N", "1"),
    ("zagier", "--s", "0.1"),
    ("beta", "--N", "1"), ("beta", "--s", "0.1"),
    ("wright", "--order", "3"),
    ("plotdata", "--order", "3"),
]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_each_subcommand_declares_only_what_it_reads():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {name: {flag for action in p._actions for flag in action.option_strings}
                - {"-h", "--help"} for name, p in sub.choices.items()}
    assert declared == ACCEPTED
    assert sum(map(len, declared.values())) == 33


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_request_runs(name):
    code, out = _run(VALID[name])
    assert code == 0 and out


@pytest.mark.parametrize("name, flag, value", REMOVED)
def test_removed_option_exits_2(name, flag, value):
    code, out = _run(VALID[name] + [flag, value])
    assert (code, out) == (2, "")
