"""Frozen bytes of every numeric `qasymp` subcommand: verify, zagier, beta,
wright (W_j and phi), plotdata and each subcommand's defaults, at k = 2 and 3,
in both formats, with the exit-1 and exit-2 paths, hashed in one pass.
`coeffs` at many orders is frozen apart, in test_coeffs_bytes.py."""
import hashlib

from conftest import run_cli


def _requests():
    yield from (["coeffs"], ["verify"], ["zagier"], ["beta"], ["wright"], ["plotdata"])
    for fmt in ("csv", "json"):
        tail = ["--format", fmt]
        yield ["zagier", "--m-max", "3", "--prec", "128", *tail]
        for k in ("2", "3"):
            yield ["verify", "--k", k, "--s", "0.2,0.1", "--N", "1", "--prec", "128", *tail]
            yield ["verify", "--k", k, "--s", "3,1.5", "--N", "0", "--prec", "64", *tail]
            yield ["beta", "--k", k, "--order", "7", "--prec", "128", *tail]
            yield ["wright", "--k", k, "--N", "0", "--s", "2,10", "--prec", "128", *tail]
            yield ["wright", "--k", k, "--N", "2", "--s", "1.04", "--prec", "64", *tail]
            yield ["wright", "--k", k, "--which", "phi", "--s", "2", "--prec", "64", *tail]
            yield ["plotdata", "--k", k, "--s", "0.2,0.1", "--N", "0", "--prec", "64", *tail]
            yield ["coeffs", "--k", k, "--order", "12", *tail]
    # exit 1: the deviations grow along this grid, so verify reports a failure
    yield ["verify", "--k", "2", "--s", "0.1,0.2", "--prec", "64"]
    for sub in ("verify", "plotdata", "wright"):
        yield [sub, "--s", "-0.5"]
        yield [sub, "--prec", "32"]
    yield ["beta", "--prec", "32"]
    yield ["zagier", "--prec", "32"]
    for sub in ("coeffs", "verify", "beta", "wright", "plotdata"):
        yield [sub, "--k", "1"]


# sha256 over f"{argv}\n{exit code}\n{stdout}" of every request above, in order:
# 14,683 bytes, as printed while every subcommand still accepted all seven
# shared options
FROZEN_BYTES = 14683
FROZEN_SHA256 = "30299193dd95f00f7d6afbcbfe4a62a5a3e637fbd9445aaff194ded349f1ba38"


def test_cli_output_is_frozen():
    digest = hashlib.sha256()
    size = 0
    codes = set()
    for argv in _requests():
        code, out, _ = run_cli(argv)
        codes.add(code)
        data = f"{argv}\n{code}\n{out}".encode()
        size += len(data)
        digest.update(data)
    assert codes == {0, 1, 2}
    assert (size, digest.hexdigest()) == (FROZEN_BYTES, FROZEN_SHA256)
