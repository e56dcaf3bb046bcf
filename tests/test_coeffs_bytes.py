"""Frozen bytes of `qasymp coeffs`: every table the CLI prints for G_k, g_k
and chi at a range of orders, in both formats, hashed in one pass."""
import contextlib
import hashlib
import io

from qasymp import cli

# sha256 over f"{exit code}\n{stdout}" of every request, looped as below: 521,442
# bytes, as printed before the oracle's reversed packing and the pentagonal
# division in Andrews' sum
FROZEN_BYTES = 521442
FROZEN_SHA256 = "4e9f9581b614c9144214ccf7ee6f141ce5457ccb8aac29b41a9dfedbbaccabf5"


def test_coeffs_output_is_frozen():
    digest = hashlib.sha256()
    size = 0
    for which in ("Gk", "gk", "chi"):
        for k in range(2, 7):
            for n in (0, 1, 9, 60, 240, 400):
                for fmt in ("csv", "json"):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.main(["coeffs", "--k", str(k), "--which", which,
                                         "--order", str(n), "--format", fmt])
                    data = f"{code}\n{out.getvalue()}".encode()
                    size += len(data)
                    digest.update(data)
    assert (size, digest.hexdigest()) == (FROZEN_BYTES, FROZEN_SHA256)
