"""Command line behaviour: exit codes, CSV and JSON output."""

import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from sphericurve import cli
from sphericurve.families import family_names

CSV_HEADER = "s,z,phi,lambda,x,y,zc"


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestFamilyList:
    def test_lists_every_family(self, capsys):
        assert cli.main(["family-list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == family_names()


class TestSample:
    def test_csv_to_file(self, tmp_path):
        f = tmp_path / "curve.csv"
        rc = cli.main(["sample", "--family", "seiffert", "--param", "p=0.7",
                       "--s-span", "4.0", "--n", "101", "--output", str(f)])
        assert rc == 0
        lines = _lines(f)
        assert lines[0] == CSV_HEADER
        assert len(lines) == 102
        data = np.loadtxt(lines[1:], delimiter=",")
        assert data.shape == (101, 7)
        assert np.max(np.abs(np.linalg.norm(data[:, 4:7], axis=1) - 1)) < 1e-12

    def test_csv_to_stdout(self, capsys):
        rc = cli.main(["sample", "--family", "viviani",
                       "--s-span", "2.0", "--n", "17"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == CSV_HEADER and len(out) == 18

    def test_momentum_constant_rejected(self, capsys):
        rc = cli.main(["sample", "--family", "seiffert", "--param", "p=0.7",
                       "--c", "0.5", "--n", "17"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as ei:
            cli.main(["sample", "--family", "moebius"])
        assert ei.value.code == 2

    def test_bad_param_syntax(self, capsys):
        assert cli.main(["sample", "--family", "seiffert",
                         "--param", "p"]) == 2
        assert cli.main(["sample", "--family", "seiffert",
                         "--param", "p=abc"]) == 2
        capsys.readouterr()


class TestReconstruct:
    def test_csv_and_info_split_streams(self, capsys):
        rc = cli.main(["reconstruct", "--family", "viviani",
                       "--s-span", "3.0", "--n", "65", "--z0", "0.2"])
        assert rc == 0
        got = capsys.readouterr()
        assert got.out.splitlines()[0] == CSV_HEADER
        assert "interval [" in got.err

    def test_interval_index_picks_branch(self, tmp_path):
        f = tmp_path / "cat.csv"
        rc = cli.main(["reconstruct", "--family", "catenary",
                       "--param", "a=0.3", "--interval-index", "1",
                       "--z0", "0.7071", "--s-span", "2.0", "--n", "65",
                       "--output", str(f)])
        assert rc == 0
        data = np.loadtxt(_lines(f)[1:], delimiter=",")
        assert np.all(data[:, 1] > 0.0)

    def test_interval_index_out_of_range(self, capsys):
        rc = cli.main(["reconstruct", "--family", "catenary",
                       "--param", "a=0.3", "--interval-index", "5",
                       "--n", "65"])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    def test_no_motion_is_domain_error(self, capsys):
        rc = cli.main(["reconstruct", "--family", "great-circle",
                       "--c", "1.5", "--n", "65"])
        assert rc == 2
        assert "no motion" in capsys.readouterr().err

    def test_domain_error_leaves_no_file(self, tmp_path, capsys):
        # --output is opened only once the trace is computed
        f = tmp_path / "none.csv"
        rc = cli.main(["reconstruct", "--family", "great-circle",
                       "--c", "1.5", "--n", "65", "--output", str(f)])
        assert rc == 2 and not f.exists()
        capsys.readouterr()


class TestOracle:
    def test_runs_to_csv(self, tmp_path):
        f = tmp_path / "orc.csv"
        rc = cli.main(["oracle", "--family", "great-circle", "--c", "0.0",
                       "--z0", "0.0", "--s-span", "3.0", "--ds", "1e-3",
                       "--n", "301", "--output", str(f)])
        assert rc == 0
        lines = _lines(f)
        assert lines[0] == CSV_HEADER and len(lines) == 302

    def test_halt_is_reported(self, tmp_path, capsys):
        f = tmp_path / "lox.csv"
        rc = cli.main(["oracle", "--family", "loxodrome", "--param", "a=0.6",
                       "--z0", "0.0", "--s-span", "6.0", "--ds", "1e-3",
                       "--n", "601", "--output", str(f)])
        assert rc == 0
        assert "halted at" in capsys.readouterr().err
        assert len(_lines(f)) < 602


class TestVerify:
    def test_json_payload_and_exit_zero(self, capsys):
        rc = cli.main(["verify", "--family", "viviani",
                       "--s-span", "4.0", "--z0", "0.2"])
        got = capsys.readouterr()
        payload = json.loads(got.out)
        assert rc == 0
        assert set(payload) == {"law", "params", "c", "interval",
                                "residuals", "verdict"}
        assert payload["verdict"] == "pass"
        assert set(payload["interval"]) == {"z_lo", "z_hi",
                                            "lo_kind", "hi_kind"}

    def test_coarse_grid_fails_honestly(self, capsys):
        # at 201 samples the unit-speed stencil residual is above threshold
        rc = cli.main(["verify", "--family", "viviani",
                       "--s-span", "6.283", "--n", "201", "--z0", "0.2"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["verdict"] == "fail"

    def test_text_format(self, capsys):
        rc = cli.main(["verify", "--family", "great-circle", "--c", "0.3",
                       "--s-span", "3.0", "--format", "text"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict   pass" in out


class TestCompare:
    def _sample(self, tmp_path, name, p):
        f = tmp_path / name
        rc = cli.main(["sample", "--family", "seiffert",
                       "--param", f"p={p}", "--s-span", "4.0",
                       "--n", "201", "--output", str(f)])
        assert rc == 0
        return f

    def test_identical_files_distance_zero(self, tmp_path, capsys):
        f = self._sample(tmp_path, "a.csv", 0.3)
        rc = cli.main(["compare", str(f), str(f), "--tol", "0"])
        assert rc == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_nearby_parameters_exceed_tolerance(self, tmp_path, capsys):
        fa = self._sample(tmp_path, "a.csv", 0.30)
        fb = self._sample(tmp_path, "b.csv", 0.31)
        rc = cli.main(["compare", str(fa), str(fb), "--tol", "1e-6"])
        assert rc == 1
        assert float(capsys.readouterr().out) > 1e-3

    def test_round_trip_preserves_doubles(self, tmp_path):
        # %.17g output must reload to bit-identical values
        f = self._sample(tmp_path, "a.csv", 0.7)
        data = np.loadtxt(_lines(f)[1:], delimiter=",")
        s = np.linspace(-2.0, 2.0, 201)
        assert np.array_equal(data[:, 0], s)

    def test_block_writer_matches_per_field_format(self):
        # the block row format must give the bytes of %.17g per field,
        # signed zero, non-finite values and subnormal scales included
        vals = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300,
                         5e-324, 1.0 / 3.0, -2.5e17, 123456789.125, np.pi])
        n = 4096 + 7  # crosses a block boundary
        cols = np.resize(vals, (7, n)) * np.where(np.arange(n) % 3 == 0, 1.0, -1.0)
        trace = SimpleNamespace(s=cols[0], z=cols[1], phi=cols[2], lam=cols[3],
                                xi=cols[4:].T)
        out = io.StringIO()
        cli._write_csv(trace, out)
        want = CSV_HEADER + "\n" + "".join(
            ",".join("%.17g" % v for v in cols[:, i]) + "\n" for i in range(n))
        assert out.getvalue() == want

    def test_missing_file(self, tmp_path, capsys):
        f = self._sample(tmp_path, "a.csv", 0.3)
        assert cli.main(["compare", str(f), str(tmp_path / "nope.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_header(self, tmp_path, capsys):
        f = self._sample(tmp_path, "a.csv", 0.3)
        bad = tmp_path / "bad.csv"
        bad.write_text("s,z\n0,0\n", encoding="utf-8")
        assert cli.main(["compare", str(f), str(bad)]) == 2
        assert "expected header" in capsys.readouterr().err


class TestUsage:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as ei:
            cli.main([])
        assert ei.value.code == 2

    def test_bad_dz_sign_choice(self):
        with pytest.raises(SystemExit) as ei:
            cli.main(["reconstruct", "--family", "viviani", "--dz-sign", "3"])
        assert ei.value.code == 2
