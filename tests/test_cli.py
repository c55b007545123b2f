import json
import os
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import speclab
from speclab import output, probes
from speclab.analytic import weyl_constant
from speclab.cli import _parse_grid, load_config_file, run_command
from speclab.errors import ConfigError, DomainError, NumericError
from speclab.probes import probe_band, probe_difference, probe_weyl, scaling_fit


def _limit_address_space():
    # a child that starts building an unbounded grid hits this cap within
    # seconds instead of exhausting the machine's memory
    limit = 512 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _files(out_dir: Path, suffix: str) -> list[Path]:
    return sorted(p for p in out_dir.iterdir() if p.suffix == suffix)


class TestRunCommand:
    def test_weyl_end_to_end(self, tmp_path, capsys):
        code = run_command(
            ["weyl", "--manifold", "torus", "--n", "2", "--grid", "50:300:25",
             "--out", str(tmp_path)]
        )
        assert code == 0
        (csv_path,) = _files(tmp_path, ".csv")
        lines = csv_path.read_text().split("\n")
        assert lines[0] == "abscissa,raw,ratio,predicted"
        assert len(lines) == 13  # header + 11 rows + trailing newline
        last_ratio = float(lines[-2].split(",")[2])
        assert last_ratio == pytest.approx(weyl_constant(2), rel=0.01)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["probe"] == "weyl"
        assert abs(summary["fit"]["exponent"] - 2.0) < 0.01

    def test_offdiag_tau_zero_matches_weyl_rows(self, tmp_path):
        run_command(["weyl", "--manifold", "torus", "--grid", "50:150:25",
                     "--out", str(tmp_path / "w"), "--formats", "csv"])
        run_command(["offdiag", "--manifold", "torus", "--tau", "0", "--grid", "50:150:25",
                     "--out", str(tmp_path / "o"), "--formats", "csv"])
        (w_csv,) = _files(tmp_path / "w", ".csv")
        (o_csv,) = _files(tmp_path / "o", ".csv")
        assert w_csv.read_text() == o_csv.read_text()

    def test_missing_required_flag_names_it(self, tmp_path, capsys):
        code = run_command(["offdiag", "--manifold", "torus", "--out", str(tmp_path)])
        assert code == 2
        assert "--tau" in capsys.readouterr().err

    def test_resource_limit_exit_code(self, tmp_path):
        code = run_command(
            ["weyl", "--manifold", "torus", "--grid", "100,1600", "--out", str(tmp_path)]
        )
        assert code == 3

    def test_invalid_value_exit_code(self, tmp_path):
        code = run_command(
            ["hoelder", "--manifold", "torus", "--delta", "1.5", "--grid", "50,75,100",
             "--out", str(tmp_path)]
        )
        assert code == 2

    def test_tau_beyond_phi_limit_names_it(self, tmp_path, capsys):
        code = run_command(["offdiag", "--manifold", "torus", "--tau", "3000", "--grid", "50:100:25",
                            "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "3000" in err and "2448" in err

    @pytest.mark.parametrize(
        "argv,entry",
        [
            (["nodal", "--grid", "20.5,40.5,60.5"], "20.5"),
            (["lp", "--family", "zonal", "--r", "6", "--s", "0", "--grid", "20.9:60:10"], "20.9"),
            (["cksigma", "--sigma", "1", "--grid", "20,40.5"], "40.5"),
        ],
    )
    def test_non_integer_degree_grid_refused(self, argv, entry, tmp_path, capsys):
        assert run_command(argv + ["--out", str(tmp_path)]) == 2
        assert entry in capsys.readouterr().err

    def test_integral_float_degrees_accepted(self, tmp_path):
        assert run_command(["nodal", "--grid", "20.0,40.0", "--formats", "csv", "--out", str(tmp_path)]) == 0
        (csv_path,) = _files(tmp_path, ".csv")
        rows = csv_path.read_text().split("\n")[1:-1]
        assert [float(row.split(",")[0]) for row in rows] == [20.0, 40.0]

    def test_formats_subset(self, tmp_path):
        code = run_command(
            ["band", "--manifold", "sphere", "--grid", "10,20,30", "--formats", "json",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert not _files(tmp_path, ".csv") and not _files(tmp_path, ".svg")
        assert len(_files(tmp_path, ".json")) == 2  # table + summary

    def test_repeat_runs_identical_contents(self, tmp_path):
        for sub in ("a", "b"):
            run_command(["deriv", "--alpha", "1,0", "--beta", "1,0", "--grid", "50:100:25",
                         "--out", str(tmp_path / sub), "--formats", "csv,json"])
        (csv_a,) = _files(tmp_path / "a", ".csv")
        (csv_b,) = _files(tmp_path / "b", ".csv")
        assert csv_a.read_text() == csv_b.read_text()
        (json_a,) = (p for p in _files(tmp_path / "a", ".json") if p.name != "summary.json")
        (json_b,) = (p for p in _files(tmp_path / "b", ".json") if p.name != "summary.json")
        assert json_a.read_text() == json_b.read_text()

    def test_no_probe_prints_usage(self, capsys):
        assert run_command([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["offdiag", "--manifold", "torus", "--tau", "nan"],
            ["hoelder", "--manifold", "torus", "--delta", "inf"],
            ["offdiag", "--manifold", "torus", "--tau", "1", "--direction=1,nan"],
            ["lp", "--family", "zonal", "--r", "nan", "--s", "0"],
            ["smoothed", "--eps=-inf"],
            ["weyl", "--manifold", "torus", "--grid", "nan,1"],
            ["weyl", "--manifold", "torus", "--grid", "1:10:inf"],
        ],
    )
    def test_non_finite_values_exit_code(self, argv, tmp_path, capsys):
        assert run_command(argv + ["--out", str(tmp_path)]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_grid_step_count_capped(self):
        with pytest.raises(ConfigError, match="more than"):
            _parse_grid("1:1e6:1")
        with pytest.raises(ConfigError, match="strictly increasing"):
            _parse_grid("1e17:1.000000000000001e17:1")  # 1e17 + 1 == 1e17

    def test_unbounded_grid_refused(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(speclab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "speclab.cli", "weyl", "--manifold", "torus",
             "--grid", "1:inf:1", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            preexec_fn=_limit_address_space,
        )
        assert proc.returncode == 2, proc.stderr
        assert "must be finite" in proc.stderr


class TestStrictInputs:
    """Each probe accepts only the flags and config keys it reads."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["weyl", "--manifold", "torus", "--tau", "3"], "--tau"),
            (["offdiag", "--manifold", "torus", "--tau", "1", "--delta", "0.5"], "--delta"),
            (["difference", "--manifold", "torus", "--tau", "1", "--eps", "4"], "--eps"),
            (["deriv", "--alpha", "1,0", "--beta", "1,0", "--manifold", "sphere"], "--manifold"),
            (["band", "--manifold", "torus", "--direction=1,0"], "--direction"),
            (["hoelder", "--manifold", "torus", "--delta", "0.5", "--sigma", "1"], "--sigma"),
            (["lp", "--family", "zonal", "--r", "6", "--s", "0", "--manifold", "torus"], "--manifold"),
            (["cksigma", "--sigma", "1", "--family", "hw"], "--family"),
            (["cksigma", "--sigma", "1", "--s", "1"], "--s"),
            (["nodal", "--manifold", "torus"], "--manifold"),
            (["smoothed", "--manifold", "sphere"], "--manifold"),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_unread_flag_refused(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_command(argv + ["--grid", "50,75,100", "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_unread_config_key_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"probe = weyl\nmanifold = torus\ntau = 2\nout = {out}\n")
        assert run_command(["--config", str(cfg)]) == 2
        assert "'tau'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["offdiag", "--manifold", "sphere", "--tau", "1"],
            ["difference", "--manifold", "sphere", "--tau", "1"],
            ["hoelder", "--manifold", "sphere", "--delta", "0.5"],
        ],
        ids=lambda v: v[0],
    )
    def test_direction_refused_on_sphere(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_command(argv + ["--direction=1,0", "--grid", "20,40,60", "--out", str(out)]) == 2
        assert "direction" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_error_exit_code(self, monkeypatch, tmp_path, capsys):
        def diverge(m_grid=None, *, n=2):
            raise NumericError("Newton iteration did not converge")

        monkeypatch.setattr(probes, "probe_nodal", diverge)
        out = tmp_path / "out"
        assert run_command(["nodal", "--out", str(out)]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()


class TestThreadsFlag:
    """--threads is accepted for compatibility: validated, but it selects nothing."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["selftest", "--threads", "0"],
            ["selftest", "--threads", "-3"],
            ["weyl", "--manifold", "torus", "--grid", "50:100:25", "--threads", "0"],
            ["smoothed", "--threads", "-3"],
        ],
    )
    def test_below_one_refused(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_command(argv + ["--out", str(out)]) == 2
        assert "--threads must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_below_one_refused_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"probe = weyl\nmanifold = torus\nthreads = 0\nout = {tmp_path / 'out'}\n")
        assert run_command(["--config", str(cfg)]) == 2
        assert "--threads must be >= 1" in capsys.readouterr().err

    def test_smoothed_tables_identical_across_settings(self, tmp_path):
        tables = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            assert run_command(["smoothed", "--grid", "50:100:25", "--threads", threads,
                                "--formats", "csv,json", "--out", str(out)]) == 0
            tables[threads] = [p.read_bytes() for p in _files(out, ".csv") + _files(out, ".json")]
        assert len(tables["1"]) == 3  # csv, json table, summary.json
        assert tables["1"] == tables["2"]


class TestImportCost:
    def test_scipy_loads_only_for_zero_finding(self, tmp_path):
        # scipy is only needed by Gegenbauer zero finding; importing the CLI
        # and running a torus probe without a Phi limit never find zeros
        script = (
            "import sys\n"
            "import speclab.cli\n"
            "assert 'scipy' not in sys.modules, 'import speclab.cli loaded scipy'\n"
            "rc = speclab.cli.run_command(['weyl', '--manifold', 'torus', '--grid', '50:100:25',\n"
            "                              '--out', sys.argv[1]])\n"
            "assert rc == 0, rc\n"
            "assert 'scipy' not in sys.modules, 'the torus weyl run loaded scipy'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(speclab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestConfigFile:
    def test_config_file_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# unit band probe\n"
            "probe = band\n"
            "manifold = sphere\n"
            "n = 2\n"
            "grid = 10,20,30\n"
            f"out = {tmp_path / 'out'}\n"
            "formats = csv\n"
        )
        assert run_command(["--config", str(cfg)]) == 0
        assert len(_files(tmp_path / "out", ".csv")) == 1

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("probe = weyl\nmanifold = sphere\ngrid = 20,40\nformats = csv\n")
        out = tmp_path / "out"
        assert run_command(["weyl", "--config", str(cfg), "--manifold", "torus",
                            "--grid", "50,100", "--out", str(out)]) == 0
        (csv_path,) = _files(out, ".csv")
        first_row = csv_path.read_text().split("\n")[1].split(",")
        assert float(first_row[0]) == 50.0  # torus grid from the flag, not the file

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("probe = weyl\nwavelength = 7\n")
        with pytest.raises(ConfigError, match="wavelength"):
            load_config_file(cfg)

    def test_probe_mismatch_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("probe = band\nmanifold = torus\n")
        code = run_command(["weyl", "--config", str(cfg)])
        assert code == 2

    def test_non_finite_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"probe = offdiag\nmanifold = torus\ntau = nan\nout = {tmp_path}\n")
        assert run_command(["--config", str(cfg)]) == 2
        assert "--tau must be finite" in capsys.readouterr().err

    def test_unparsable_number_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"probe = weyl\nmanifold = torus\nn = two\nout = {tmp_path}\n")
        assert run_command(["--config", str(cfg)]) == 2

    def test_non_utf8_file_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"probe = weyl\nmanifold = torus \xff\n")
        assert run_command(["--config", str(cfg)]) == 2
        assert run_command(["weyl", "--config", str(cfg)]) == 2

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("probe weyl\n")
        with pytest.raises(ConfigError):
            load_config_file(cfg)


class TestTableOutput:
    def test_csv_padding_and_blanks(self, tmp_path):
        res = probe_difference("torus", 2, 0.0, [50.0, 75.0, 100.0])
        path = output.write_csv(res, tmp_path / "t.csv")
        body = path.read_text()
        assert "\r" not in body
        for line in body.strip().split("\n")[1:]:
            cells = line.split(",")
            assert cells[2] == ""  # zero predicted limit: ratio column blank
            assert "nan" not in line.lower()

    def test_csv_17_digit_round_trip(self, tmp_path):
        res = probe_weyl("torus", 2, [50.0, 75.0, 100.0])
        path = output.write_csv(res, tmp_path / "t.csv")
        rows = path.read_text().strip().split("\n")[1:]
        for row, orig in zip(rows, res.rows):
            cells = row.split(",")
            assert float(cells[1]) == orig.raw
            assert float(cells[2]) == orig.ratio

    def test_json_round_trip_bit_exact(self, tmp_path):
        res = probe_band("sphere", 2, [10.0, 20.0, 30.0])
        path = output.write_json(res, tmp_path / "t.json")
        assert output.read_json(path) == res

    def test_empty_table_rejected(self, tmp_path):
        res = probe_weyl("torus", 2, [50.0, 75.0, 100.0])
        res.rows = []
        with pytest.raises(DomainError):
            output.write_csv(res, tmp_path / "t.csv")


class TestSvg:
    def _render(self, tmp_path, res, fit=None):
        path = output.write_svg(res, fit, tmp_path / "plot.svg")
        return path.read_text()

    def test_structure_and_reference_line(self, tmp_path):
        res = probe_weyl("torus", 2, [50.0, 75.0, 100.0, 125.0])
        text = self._render(tmp_path, res, scaling_fit(res))
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert root.get("viewBox") is not None
        assert root.get("version") == "1.1"
        assert "reference:" in text
        assert "http" not in text.replace("http://www.w3.org/2000/svg", "")

    def test_no_reference_line_without_prediction(self, tmp_path):
        res = probe_band("torus", 2, [50.0, 75.0, 100.0])
        res = probe_weyl("torus", 2, [50.0, 75.0, 100.0])
        res.predicted_limit = None
        text = self._render(tmp_path, res)
        assert "reference:" not in text
        ET.fromstring(text)

    def test_requires_two_rows(self, tmp_path):
        res = probe_weyl("torus", 2, [50.0, 75.0, 100.0])
        res.rows = res.rows[:1]
        with pytest.raises(DomainError):
            self._render(tmp_path, res)

    def test_zero_limit_probe_renders(self, tmp_path):
        res = probe_difference("torus", 2, 0.0, [50.0, 75.0, 100.0])
        text = self._render(tmp_path, res)
        ET.fromstring(text)


class TestSummary:
    def test_relative_deviation(self, tmp_path):
        res = probe_weyl("torus", 2, [50.0, 100.0, 150.0])
        payload = output.summary_payload(res, scaling_fit(res))
        expected = abs(res.rows[-1].ratio - weyl_constant(2)) / weyl_constant(2)
        assert payload["relative_deviation"] == pytest.approx(expected, rel=1e-12)

    def test_zero_limit_has_no_deviation(self):
        res = probe_difference("torus", 2, 0.0, [50.0, 75.0, 100.0])
        payload = output.summary_payload(res, None)
        assert payload["relative_deviation"] is None
