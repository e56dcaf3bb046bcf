import csv
import io
import json
import math

from qasymp import cli, hires
from qasymp.errors import (InvalidK, NonConvergent, ReconstructionFailed,
                           TermCapExceeded)
from qasymp.qseries import gk_from_oracle


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCoeffs:
    def test_oracle_rows(self, capsys):
        code, out = run_cli(capsys, ["coeffs", "--k", "2", "--which", "Gk", "--order", "4"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "coefficient"]
        assert [r[1] for r in rows[1:]] == ["1", "1", "2", "2", "4"]

    def test_order_zero(self, capsys):
        code, out = run_cli(capsys, ["coeffs", "--k", "2", "--which", "gk", "--order", "0"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1:] == [["0", "1"]]

    def test_gk_dump_equals_oracle_route_bytes(self, capsys):
        code, out = run_cli(capsys, ["coeffs", "--k", "3", "--which", "gk", "--order", "40"])
        assert code == 0
        oracle = gk_from_oracle(3, 40)
        cfg = cli._build_parser().parse_args(["coeffs"])
        rows = [(n, cli._coeff_str(oracle.coefficient(n), "csv")) for n in range(41)]
        expected = cli._emit(rows, ("n", "coefficient"), cfg)
        assert out == expected

    def test_json_round_trip(self, capsys):
        code, out = run_cli(capsys, ["coeffs", "--k", "2", "--order", "6",
                                     "--which", "gk", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        from fractions import Fraction
        from qasymp.qseries import gk_series_andrews
        ser = gk_series_andrews(2, 6)
        for entry in data:
            assert Fraction(entry["coefficient"]) == ser.coefficient(entry["n"])

    def test_bad_k_exit_code(self, capsys):
        code, _ = run_cli(capsys, ["coeffs", "--k", "1", "--order", "4"])
        assert code == 2

    def test_bad_order_exit_code(self, capsys):
        code, _ = run_cli(capsys, ["coeffs", "--k", "2", "--order", "-3"])
        assert code == 2


class TestVerify:
    def test_header_and_monotone(self, capsys):
        code, out = run_cli(capsys, ["verify", "--k", "3", "--s", "0.2,0.1,0.05",
                                     "--N", "1", "--prec", "128"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,g_k,expansion,rel_dev,R_k,W0"
        devs = [float(r.split(",")[3]) for r in lines[1:]]
        assert devs[0] > devs[1] > devs[2]

    def test_n1_beats_n0(self, capsys):
        _, out0 = run_cli(capsys, ["verify", "--k", "3", "--s", "0.1", "--N", "0",
                                   "--prec", "128"])
        _, out1 = run_cli(capsys, ["verify", "--k", "3", "--s", "0.1", "--N", "1",
                                   "--prec", "128"])
        dev0 = float(out0.strip().split("\n")[1].split(",")[3])
        dev1 = float(out1.strip().split("\n")[1].split(",")[3])
        assert dev1 < dev0


    def test_one_gk_evaluation_per_s(self, capsys, monkeypatch):
        # both s are on the insum route, whose one pass gives g_k and R_k: counting
        # its core also catches a second cancellation pass
        calls = []
        real = hires._gk_insum_core

        def counting(*args, **kwargs):
            calls.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(hires, "_gk_insum_core", counting)
        code, out = run_cli(capsys, ["verify", "--k", "3", "--s", "0.2,0.1",
                                     "--N", "1", "--prec", "128"])
        assert code == 0
        assert len(out.strip().split("\n")) == 3
        assert len(calls) == 2


class TestZagier:
    def test_match_rows(self, capsys):
        code, out = run_cli(capsys, ["zagier", "--prec", "512"])
        assert code == 0
        rows = [line for line in out.strip().split("\n") if line.startswith(("t1,", "t2,"))]
        assert len(rows) == 12
        assert all(row.endswith(",MATCH") for row in rows)

    def test_m0(self, capsys):
        code, out = run_cli(capsys, ["zagier", "--m-max", "0", "--prec", "256"])
        assert code == 0
        rows = [line for line in out.strip().split("\n") if line.startswith(("t1,", "t2,"))]
        assert rows == ["t1,0,1,MATCH", "t2,0,5,MATCH"]

    def test_m8_exact_at_256_and_1024_bits(self, capsys):
        # t1[8] has a denominator above 2^64; the bound grows with the precision
        for prec in ("256", "1024"):
            code, out = run_cli(capsys, ["zagier", "--m-max", "8", "--prec", prec])
            assert code == 0
            assert "t1,8,-5532125340705109003/76692729615718809600,NEW" in out.split("\n")

    def test_m8_exact_at_128_and_192_bits(self, capsys):
        for prec in ("128", "192"):
            code, out = run_cli(capsys, ["zagier", "--m-max", "8", "--prec", prec])
            assert code == 0
            assert "t1,8,-5532125340705109003/76692729615718809600,NEW" in out.split("\n")

    def test_c1_value_prefix(self, capsys):
        _, out = run_cli(capsys, ["zagier", "--m-max", "0", "--prec", "256"])
        c1_line = out.split("\n")[0]
        assert c1_line.startswith("c1 = 0.088757013471954309815015796")


class TestBetaAndWright:
    def test_beta_rows(self, capsys):
        code, out = run_cli(capsys, ["beta", "--k", "3", "--order", "4", "--prec", "128"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["j", "beta", "ratio_to_base"]
        assert rows[3][1] == "0.0"          # beta_3(3) = 0
        assert rows[4][2] == "-7/192"       # beta_3(4)/beta_3(1)

    def test_wright_w0(self, capsys):
        code, out = run_cli(capsys, ["wright", "--k", "3", "--N", "0", "--s", "10",
                                     "--prec", "128"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["w", "W_j"]
        assert abs(float(rows[1][1]) - 4 / 3) < 0.05

    def test_wright_phi_mode(self, capsys):
        code, out = run_cli(capsys, ["wright", "--k", "3", "--N", "0", "--s", "2",
                                     "--which", "phi", "--prec", "128"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["w", "re_phi", "im_phi"]


class TestPlotdata:
    def test_rows_and_csv_round_trip(self, capsys):
        code, out = run_cli(capsys, ["plotdata", "--k", "3", "--N", "1",
                                     "--s", "0.2,0.1,0.05", "--prec", "160"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["s", "log10_rel_dev"]
        assert len(rows) == 4
        for row in rows[1:]:
            float(row[1])

    def test_slope_near_four_thirds(self, capsys):
        # log-deviation vs log(s) slope for k=3, N=1 approximates (3*1+1)/3
        code, out = run_cli(capsys, ["plotdata", "--k", "3", "--N", "1",
                                     "--s", "0.2,0.1,0.05,0.025", "--prec", "192"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        from fractions import Fraction
        pts = [(math.log10(float(Fraction(r[0]))), float(r[1])) for r in rows]
        n = len(pts)
        sx = sum(p[0] for p in pts)
        sy = sum(p[1] for p in pts)
        sxx = sum(p[0] * p[0] for p in pts)
        sxy = sum(p[0] * p[1] for p in pts)
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        assert abs(slope - 4 / 3) < 0.25


class TestInfrastructure:
    def test_determinism(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            code = cli.main(["verify", "--k", "2", "--s", "0.2,0.1", "--N", "1",
                             "--prec", "128", "--out", str(f)])
            assert code == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_exit_code_mapping(self):
        assert cli.exit_code_for(NonConvergent()) == 3
        assert cli.exit_code_for(TermCapExceeded()) == 3
        assert cli.exit_code_for(ReconstructionFailed()) == 4
        assert cli.exit_code_for(InvalidK()) == 2
        assert cli.exit_code_for(ValueError()) == 2

    def test_usage_error(self, capsys):
        code, _ = run_cli(capsys, ["coeffs", "--which", "nope"])
        assert code == 2

    def test_bad_s_grid(self, capsys):
        code, _ = run_cli(capsys, ["verify", "--s", "-0.5"])
        assert code == 2
