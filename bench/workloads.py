"""The four workloads: seeded inputs, the operations of one round, and the checks.

A workload is a fixed list of operations (one round). Every round runs the
same operations in the same order; ``run(i, r)`` executes operation ``i`` for
round ``r``. Where the program caches results, round ``r`` either clears the
cache first (``prepare``) or uses a fresh but equivalent input, so that each
repeat does the same work. ``check`` compares the outputs with values computed
apart from the program (see reference.py) or with properties the method must
have; it returns a list of failure messages.
"""
from __future__ import annotations

import csv
import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import mpmath as mp

from qasymp import cli, expansion, hires, qseries, wright
from qasymp.hires import EvalConfig

import reference as ref


def jitter(rng, base, share):
    """base * (1 + u), u uniform in [-share, share], as an exact 6-digit decimal string."""
    value = base * (1 + rng.uniform(-share, share))
    return f"{value:.6g}"


def call_cli(argv):
    """One in-process CLI request; returns (exit code, stdout text)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def clear_program_caches():
    """Empty every cache the program keeps at module level: objects with
    ``cache_clear`` and module globals whose name contains CACHE."""
    for name, module in list(sys.modules.items()):
        if name != "qasymp" and not name.startswith("qasymp."):
            continue
        for attr, obj in vars(module).items():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
            elif "CACHE" in attr.upper() and callable(getattr(obj, "clear", None)):
                obj.clear()


def rel_close(got, want, bits, floor=None):
    """|got - want| <= 2^-bits * max(|want|, floor)."""
    with mp.workprec(bits + 64):
        got, want = mp.mpmathify(got), mp.mpmathify(want)
        scale = abs(want) if floor is None else max(abs(want), mp.mpf(floor))
        return abs(got - want) <= mp.mpf(2) ** (-bits) * scale


class Workload:
    name = ""
    min_rounds = 2   # rounds every run completes, whatever --seconds says
    warm_rounds = 0  # leading rounds that fill caches and are left out of the statistics

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops = []  # (label, callable(round) -> output)

    def prepare(self, i, r):
        """Runs before operation i of round r, outside the timed region."""

    def run(self, i, r):
        return self.ops[i][1](r)

    def warmup(self):
        """The untimed operation that ends set-up."""
        self.run(0, -1)

    def failed(self, output):
        """True when an operation returned a failure instead of raising."""
        return False

    def same(self, i, first, later):
        """Repeats of one operation must give the same output."""
        return first == later

    def check(self, outputs):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# exact-tables
# ---------------------------------------------------------------------------

ANDREWS_ORDER = {2: 240, 3: 280, 4: 300, 5: 340, 6: 360}
ORACLE_ORDER = 400
HQ_J_MAX = 16
SHORT_COPIES = 3  # operations of well under 0.1 s appear this often in a round


class ExactTables(Workload):
    name = "exact-tables"

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        self.meta = []  # (kind, k, order) of each operation

        def add(kind, k, n, label, fn, copies=1):
            for _ in range(copies):
                self.meta.append((kind, k, n))
                self.ops.append((label, fn))

        for k in range(2, 7):
            n = ANDREWS_ORDER[k] + rng.randint(-4, 4)
            add("andrews", k, n, f"gk_series_andrews k={k} order={n}",
                lambda r, k=k, n=n: qseries.gk_series_andrews(k, n))
        for k in range(2, 7):
            n = ORACLE_ORDER + rng.randint(-4, 4)
            add("oracle", k, n, f"Gk_series_oracle k={k} order={n}",
                lambda r, k=k, n=n: qseries.Gk_series_oracle(k, n), SHORT_COPIES)
        n = 1200 + rng.randint(-10, 10)
        add("qq", None, n, f"pochhammer_series(1, 1) and its inverse, order={n}",
            lambda r, n=n: self.qq_and_inverse(n))
        n = 400 + rng.randint(-4, 4)
        add("chi", None, n, f"chi_series order={n}", lambda r, n=n: qseries.chi_series(n),
            SHORT_COPIES)
        n = 300 + rng.randint(-4, 4)
        add("g2", None, n, f"g2_product_side order={n}",
            lambda r, n=n: qseries.g2_product_side(n), SHORT_COPIES)
        for k in range(2, 6):
            add("hq", k, HQ_J_MAX, f"hq_bivariate k={k} j_max={HQ_J_MAX}",
                lambda r, k=k: expansion.hq_bivariate(k, HQ_J_MAX), SHORT_COPIES)

    @staticmethod
    def qq_and_inverse(n):
        qq = qseries.pochhammer_series(1, 1, n)
        return qq, qq.invert()

    def prepare(self, i, r):
        clear_program_caches()

    def warmup(self):
        qseries.gk_series_andrews(3, 60)
        clear_program_caches()

    @staticmethod
    def coeffs(series, order):
        return [series.coefficient(e) for e in range(order + 1)]

    def check(self, outputs):
        bad = []
        top = max(n for kind, _, n in self.meta if kind in ("andrews", "oracle", "g2"))
        counts = {k: ref.no_run_counts(k, top) for k in range(2, 7)}
        pent = ref.pentagonal(top)
        oracle = {k: outputs[i] for i, (kind, k, _) in enumerate(self.meta)
                  if kind == "oracle" and i in outputs}
        seen = set()
        for i, (kind, k, n) in enumerate(self.meta):
            label, out = self.ops[i][0], outputs.get(i)
            if out is None or label in seen:
                continue
            seen.add(label)
            if kind == "oracle":
                got = self.coeffs(out, n)
                if got != counts[k][: n + 1]:
                    bad.append(f"{label}: differs from the benchmark's partition count")
                if got[:25] != ref.brute_force_no_run_counts(k, 24):
                    bad.append(f"{label}: differs from brute-force enumeration for n <= 24")
            elif kind == "andrews":
                got = self.coeffs(out, n)
                if k in oracle and got != ref.series_mul(self.coeffs(oracle[k], n), pent, n):
                    bad.append(f"{label}: differs from DP oracle x (q;q)_inf")
                if got != ref.series_mul(counts[k], pent, n):
                    bad.append(f"{label}: differs from the benchmark's own g_k")
            elif kind == "qq":
                qq, inv = out
                if self.coeffs(qq, n) != ref.pentagonal(n):
                    bad.append(f"{label}: (q;q)_inf differs from Euler's pentagonal theorem")
                if self.coeffs(inv, n) != ref.partition_numbers(n):
                    bad.append(f"{label}: 1/(q;q)_inf differs from the partition numbers")
            elif kind == "chi":
                if self.coeffs(out, n) != ref.chi_coefficients(n):
                    bad.append(f"{label}: differs from chi by (1+q^j)/(1+q^3j)")
            elif kind == "g2":
                got = self.coeffs(out, n)
                if got != ref.g2_product_coefficients(n):
                    bad.append(f"{label}: differs from the benchmark's product side")
                if got != ref.series_mul(counts[2], pent, n):
                    bad.append(f"{label}: mock theta identity fails against g_2 from counts")
            else:
                bad += [f"{label}: {m}" for m in check_hq_table(k, out)]
        return bad


def check_hq_table(k, biv):
    """Zero pattern and a_{2j,j} exactly, and the numeric definition of h_q:
    the residual of the truncated table must shrink like s^{J+1}."""
    bad = []
    j_max = biv.j_max
    if biv.a(0, 0) != 1:
        bad.append("a_(0,0) != 1")
    for j in range(1, j_max + 1):
        if biv.a(0, j) != 0:
            bad.append(f"a_(0,{j}) != 0")
        if any(biv.a(n, j) != 0 for n in range(2 * j + 1, 2 * j + 4)):
            bad.append(f"a_(n,{j}) != 0 for some n > 2j")
        if biv.a(2 * j, j) != ref.hq_leading(k, j):
            bad.append(f"a_({2 * j},{j}) != (k/(4(k+1)))^j/j!")
    z = Fraction(1, 3)
    resid = []
    for s in (Fraction(1, 20), Fraction(1, 40)):
        with mp.workprec(256):
            table = mp.mpf(0)
            for j in range(j_max + 1):
                for n in range(2 * j + 1):
                    a = biv.a(n, j)
                    if a:
                        table += ref.to_mpf(a * s ** j * z ** n)
            resid.append(abs(table - ref.hq_definition(k, z, s, 256)))
    with mp.workprec(64):
        ratio = resid[0] / resid[1]
        expect = mp.mpf(2) ** (j_max + 1)
        if not expect / 8 <= ratio <= expect * 8:
            bad.append(f"h_q residual shrinks by {mp.nstr(ratio, 4)} when s halves, "
                       f"expected about 2^{j_max + 1}")
    return bad


# ---------------------------------------------------------------------------
# small-s-sweep
# ---------------------------------------------------------------------------

# Each band keeps clear of the s where the odd-n sum of gk_num's insum route
# takes one more term, at the target and at the 32 extra bits of R_k; there
# the cost jumps by a third.
SMALL_S_POINTS = ((2, 0.05), (3, 0.08), (4, 0.16))
SMALL_S_PREC = 256
REPEAT_STEP = Fraction(1, 10 ** 12)


def parse_verify(text):
    """The single data row of a verify run as {column: text}."""
    rows = csv_rows(text)
    return dict(zip(rows[0], rows[1]))


class SmallSSweep(Workload):
    name = "small-s-sweep"

    def __init__(self, seed):
        super().__init__(seed)
        self.points = []
        for k, base in SMALL_S_POINTS:
            s = Fraction(jitter(self.rng, base, 0.04))
            self.points.append((k, s))
            self.ops.append((f"verify k={k} s={s}", lambda r, k=k, s=s: self.verify(k, s, r)))
        self.sampled = max(range(len(self.points)), key=lambda i: self.points[i][1])

    @staticmethod
    def point_s(s, r):
        """Repeat r evaluates at s + r 10^-12: an equivalent point no cache has seen."""
        return s + r * REPEAT_STEP

    def verify(self, k, s, r):
        return call_cli(["verify", "--k", str(k), "--s", decimal(self.point_s(s, r)),
                         "--N", "1", "--prec", str(SMALL_S_PREC)])

    def warmup(self):
        k, s = self.points[-1]
        self.verify(k, s, -1)

    def failed(self, output):
        return output[0] != 0

    def same(self, i, first, later):
        a, b = parse_verify(first[1]), parse_verify(later[1])
        return all(rel_close(b[c], a[c], 20) for c in ("g_k", "expansion", "R_k", "W0"))

    def check(self, outputs):
        bad = []
        p = SMALL_S_PREC
        for i, (k, s) in enumerate(self.points):
            if i not in outputs:
                continue
            s = self.point_s(s, 0)
            label = self.ops[i][0]
            bad += [f"{label}: {m}" for m in check_verify_row(k, s, p, outputs[i][1])]
            row = parse_verify(outputs[i][1])
            if k == 2:
                if not rel_close(row["g_k"], ref.g2_mock_theta(s, p + 64), p - 8):
                    bad.append(f"{label}: g_2 differs from chi(q)(-q^3;q^3)/(-q;q)")
            qq = hires.qq_infinity_num(s, EvalConfig(p))
            if not rel_close(qq, ref.qq_inf(s, p + 64), p - 8):
                bad.append(f"{label}: qq_infinity_num differs from mp.qp")
            bad += [f"{label}: {m}" for m in check_rel_dev(k, s, p, row)]
            if i == self.sampled:
                g2p = hires.gk_num(k, s, EvalConfig(2 * p))
                if not rel_close(row["g_k"], g2p, p - 8):
                    bad.append(f"{label}: doubling the precision moved g_k by more than 2^-(p-8)")
        return bad


def decimal(x: Fraction) -> str:
    """Exact decimal text of a Fraction whose denominator divides a power of ten."""
    digits = 0
    while (x * 10 ** digits).denominator != 1:
        digits += 1
    whole = x * 10 ** digits
    text = str(abs(whole.numerator)).rjust(digits + 1, "0")
    out = text[:-digits] + "." + text[-digits:] if digits else text
    return "-" + out if x < 0 else out


def check_verify_row(k, s, p, text):
    """The columns of one verify row against reference values: R_k from g_k
    with mp.qp, W0 by direct summation, rel_dev from g_k and expansion."""
    bad = []
    rows = csv_rows(text)
    if rows[0] != ["s", "g_k", "expansion", "rel_dev", "R_k", "W0"] or len(rows) != 2:
        return ["unexpected verify output layout"]
    row = dict(zip(rows[0], rows[1]))
    if Fraction(row["s"]) != s:
        bad.append(f"row is for s={row['s']}, asked for {s}")
    with mp.workprec(p + 64):
        g, e, dev = mp.mpf(row["g_k"]), mp.mpf(row["expansion"]), mp.mpf(row["rel_dev"])
        want = abs(g - e) / abs(g)
        slack = 8 * mp.mpf(2) ** (-p) * (abs(g) + abs(e)) / abs(g - e)
        if abs(dev - want) > slack * want:
            bad.append("rel_dev differs from |g_k - expansion|/g_k")
    if not rel_close(row["R_k"], ref.relative_error_from_g(k, s, row["g_k"], p + 64), p - 8):
        bad.append("R_k differs from g_k (q^k;q^k)/(q^(k+1);q^(k+1)) ... computed with mp.qp")
    w = ref.w_of_s(k, s, p + 64)
    if not rel_close(row["W0"], ref.wright_W(k, 0, w, p + 32), p - 8, floor=1):
        bad.append("W0 differs from direct summation of the Wright series")
    return bad


REL_DEV_FACTOR = 1.5


def check_rel_dev(k, s, p, row):
    """With N = 1 the relative deviation is the first omitted block of the
    expansion, sum_{j=k+1}^{2k} beta_k(j) s^{j/k}, over the kept series; the
    next block is a full power of s smaller, so the two agree within 1.5x
    on s <= 0.25."""
    cfg = EvalConfig(p)
    with mp.workprec(p + 64):
        sv = ref.to_mpf(s)
        beta = {j: expansion.beta_coeff(k, j, cfg) for j in range(1, 2 * k + 1)}
        kept = mp.mpf(k + 1) / k + sum(beta[j] * sv ** (mp.mpf(j) / k) for j in range(1, k + 1))
        block = sum(beta[j] * sv ** (mp.mpf(j) / k) for j in range(k + 1, 2 * k + 1))
        ratio = mp.mpf(row["rel_dev"]) / abs(block / kept)
        if not 1 / REL_DEV_FACTOR <= ratio <= REL_DEV_FACTOR:
            return [f"rel_dev is {mp.nstr(ratio, 4)} times the first omitted beta block"]
    return []


# ---------------------------------------------------------------------------
# wright-sweep
# ---------------------------------------------------------------------------

WRIGHT_PREC = 192
SERIES_W = {2: 4.0, 3: 3.5}
QUADRATURE_W = {2: 30.0, 3: 20.0}
ASYMPTOTIC_TERMS = 10
PHI_S = (0.04, 0.02, 0.01)
# The median operation of a round is a short series or phi evaluation: four
# copies per round give it twelve or more repeats.
WRIGHT_SHORT_COPIES = 4


def phi_ray_point(s, prec):
    """z = (4^{3/4}/3) e^{3 pi i/4} s^{-1/4}: the k = 3 ray of the expansion."""
    with mp.workprec(prec):
        return mp.power(4, mp.mpf(3) / 4) / 3 * mp.expjpi(mp.mpf(3) / 4) \
            * mp.power(ref.to_mpf(s), -mp.mpf(1) / 4)


class WrightSweep(Workload):
    name = "wright-sweep"

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        self.cfg = EvalConfig(WRIGHT_PREC)
        self.wj = []  # (op index, k, j, w, side)
        for side, bases in (("series", SERIES_W), ("quadrature", QUADRATURE_W)):
            copies = WRIGHT_SHORT_COPIES if side == "series" else 1
            for k, base in bases.items():
                for j in range(3):
                    w = Fraction(jitter(rng, base, 0.05))
                    self.wj.append((len(self.ops), k, j, w, side))
                    self.ops += [(f"W_j_num k={k} j={j} w={w} ({side})",
                                  lambda r, k=k, j=j, w=w: wright.W_j_num(k, j, w, self.cfg))
                                 ] * copies
        self.phi = []
        for base in PHI_S:
            s = Fraction(jitter(rng, base, 0.05))
            z = phi_ray_point(s, WRIGHT_PREC + 64)
            self.phi.append((len(self.ops), s, z))
            self.ops += [(f"wright_phi rho=3/4 on the k=3 ray, s={s}",
                          lambda r, z=z: wright.wright_phi(wright.WrightParams(Fraction(3, 4)),
                                                           z, self.cfg))] * WRIGHT_SHORT_COPIES
        series_ops = [t for t in self.wj if t[4] == "series" and t[2] > 0]
        self.cross = series_ops[rng.randrange(len(series_ops))]

    def warmup(self):
        # one quadrature evaluation, which fills mpmath's node cache
        _, k, j, w, _ = self.wj[-1]
        wright.W_j_num(k, j, w, self.cfg)

    def check(self, outputs):
        bad = []
        p = WRIGHT_PREC
        for i, k, j, w, side in self.wj:
            if i not in outputs:
                continue
            label, got = self.ops[i][0], outputs[i]
            if side == "series":
                if not rel_close(got, ref.wright_W(k, j, w, p + 32), p - 8, floor=1):
                    bad.append(f"{label}: differs from direct summation")
            else:
                approx, next_term = ref.wright_W_asymptotic(k, j, w, ASYMPTOTIC_TERMS, p)
                with mp.workprec(p + 32):
                    ratio = (got - approx) / next_term
                if not 0.8 <= ratio <= 1.25:
                    bad.append(f"{label}: remainder is {mp.nstr(ratio, 4)} times the first "
                               "omitted term of the large-w expansion")
        i, k, j, w, _ = self.cross
        if i in outputs:
            quad = wright.W_j_num(k, j, w, self.cfg, route="quadrature")
            if not rel_close(outputs[i], quad, p - 14, floor=1):
                bad.append(f"{self.ops[i][0]}: series and quadrature routes disagree")
        c1, c2 = ref.zagier_constants(p + 32)
        consts = []
        for i, s, z in self.phi:
            if i not in outputs:
                continue
            phi = outputs[i]
            if not rel_close(phi, ref.wright_phi_direct(Fraction(3, 4), z, 0, p + 32), p - 8,
                             floor=1):
                bad.append(f"{self.ops[i][0]}: differs from direct summation")
            with mp.workprec(p + 32):
                sv = ref.to_mpf(s)
                target = mp.mpf(1) / 3 + c1 * mp.cbrt(sv) + 5 * c2 * mp.cbrt(sv) ** 2
                consts.append(abs(mp.re(phi) / 2 - target) / sv)
        for a, b in zip(consts, consts[1:]):
            if not (a / b < 4 and b / a < 4):
                bad.append("Re phi/2 - (1/3 + c1 s^(1/3) + 5 c2 s^(2/3)) is not O(s)")
        return bad


# ---------------------------------------------------------------------------
# warm-session
# ---------------------------------------------------------------------------

CHEAP_REPEATS = 86   # per zagier, beta and coeffs configuration
COSTLY_REPEATS = 25  # per verify and wright configuration


class WarmSession(Workload):
    name = "warm-session"
    min_rounds = 3
    warm_rounds = 1

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        costly, cheap = [], []
        for k, s, prec in ((2, 1.2, 96), (3, 1.5, 128), (4, 2.5, 64)):
            costly.append(["verify", "--k", str(k), "--s", jitter(rng, s, 0.05), "--N", "1",
                            "--prec", str(prec)])
        for m_max, prec in ((7, 256), (5, 192), (3, 128)):
            cheap.append(["zagier", "--m-max", str(m_max), "--prec", str(prec)])
        for k, order, prec in ((3, 8, 128), (2, 6, 96), (4, 8, 64)):
            cheap.append(["beta", "--k", str(k), "--order", str(order), "--prec", str(prec)])
        for k, which, order in ((3, "gk", 30), (2, "Gk", 40), (4, "gk", 25), (3, "chi", 40)):
            cheap.append(["coeffs", "--k", str(k), "--which", which,
                            "--order", str(order + rng.randint(-2, 2))])
        for k, n, w, prec in ((3, 0, 1.5, 96), (2, 1, 2.0, 128), (3, 2, 1.0, 64)):
            costly.append(["wright", "--k", str(k), "--N", str(n), "--s", jitter(rng, w, 0.05),
                            "--prec", str(prec)])
        requests = [c for c in cheap for _ in range(CHEAP_REPEATS)] \
            + [c for c in costly for _ in range(COSTLY_REPEATS)]
        rng.shuffle(requests)
        self.ops = [(" ".join(argv), lambda r, argv=argv: call_cli(argv)) for argv in requests]

    def failed(self, output):
        return output[0] != 0

    def check(self, outputs):
        bad = []
        seen = set()
        for i, (label, _) in enumerate(self.ops):
            if i not in outputs or label in seen:
                continue
            seen.add(label)
            argv = label.split()
            opts = dict(zip(argv[1::2], argv[2::2]))
            text = outputs[i][1]
            kind = argv[0]
            if kind == "verify":
                k, s, p = int(opts["--k"]), Fraction(opts["--s"]), int(opts["--prec"])
                msgs = check_verify_row(k, s, p, text)
                row = parse_verify(text)
                if not rel_close(row["g_k"], ref.gk_from_counts(k, s, p + 32), p - 8):
                    msgs.append("g_k differs from the partition-count sum")
            elif kind == "zagier":
                msgs = check_zagier(int(opts["--m-max"]), int(opts["--prec"]), text)
            elif kind == "beta":
                msgs = check_beta(int(opts["--k"]), int(opts["--order"]), int(opts["--prec"]),
                                  text)
            elif kind == "coeffs":
                msgs = check_coeffs(int(opts["--k"]), opts["--which"], int(opts["--order"]), text)
            else:
                msgs = check_wright(int(opts["--k"]), int(opts["--N"]), Fraction(opts["--s"]),
                                    int(opts["--prec"]), text)
            bad += [f"{label}: {m}" for m in msgs]
        return bad


def check_zagier(m_max, p, text):
    bad = []
    lines = text.splitlines()
    c1, c2 = ref.zagier_constants(p + 32)
    for line, want, name in ((lines[0], c1, "c1"), (lines[1], c2, "c2")):
        if not line.startswith(f"{name} = "):
            bad.append(f"line for {name} missing")
        elif not rel_close(line.split()[2], want, p - 8):
            bad.append(f"{name} differs from its closed form")
    rows = csv_rows("\n".join(lines[2:]))
    if rows[0] != ["series", "m", "coefficient", "verdict"]:
        return bad + ["unexpected zagier output layout"]
    tables = {"t1": ref.ZAGIER_T1, "t2": ref.ZAGIER_T2}
    got = {(name, int(m)): (Fraction(c), v) for name, m, c, v in rows[1:]}
    for name, table in tables.items():
        for m in range(m_max + 1):
            if (name, m) not in got:
                bad.append(f"{name}[{m}] missing")
            elif m < len(table) and got[name, m] != (table[m], "MATCH"):
                bad.append(f"{name}[{m}] differs from Zagier's table")
            elif m >= len(table) and got[name, m][1] != "NEW":
                bad.append(f"{name}[{m}] beyond the table is not marked NEW")
    return bad


def check_beta(k, order, p, text):
    bad = []
    rows = csv_rows(text)
    if rows[0] != ["j", "beta", "ratio_to_base"] or len(rows) != order + 1:
        return ["unexpected beta output layout"]
    for j_text, beta, ratio in rows[1:]:
        j = int(j_text)
        if j % k == 0:
            if mp.mpf(beta) != 0:
                bad.append(f"beta_{k}({j}) should vanish")
        elif j < k and not rel_close(beta, ref.beta_leading(k, j, p + 32), p - 8):
            bad.append(f"beta_{k}({j}) differs from b_k(j)(k+1)^-j k^(j(k+1)/k)")
        if k == 3 and ratio:
            m, base = divmod(j, 3)
            want = ref.ZAGIER_T1[m] if base == 1 else ref.ZAGIER_T2[m] / 5
            if Fraction(ratio) != want:
                bad.append(f"ratio beta_3({j})/beta_3({base}) differs from Zagier's table")
    return bad


def check_coeffs(k, which, order, text):
    rows = csv_rows(text)
    got = [int(Fraction(c)) for _, c in rows[1:]]
    if which == "gk":
        want = ref.gk_coefficients(k, order)
    elif which == "Gk":
        want = ref.no_run_counts(k, order)
    else:
        want = ref.chi_coefficients(order)
    return [] if got == want else [f"{which} coefficients differ from the benchmark's own"]


def check_wright(k, j, w, p, text):
    rows = csv_rows(text)
    if rows[0] != ["w", "W_j"] or len(rows) != 2 or Fraction(rows[1][0]) != w:
        return ["unexpected wright output layout"]
    if not rel_close(rows[1][1], ref.wright_W(k, j, w, p + 32), p - 8, floor=1):
        return ["W_j differs from direct summation"]
    return []


WORKLOADS = {cls.name: cls for cls in (ExactTables, SmallSSweep, WrightSweep, WarmSession)}
