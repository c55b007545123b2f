import inspect
import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import speclab
from speclab import cli, output, probes, sphere, torus
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["weyl", "--manifold", "torus", "--grid", "100"],
            ["lp", "--family", "zonal", "--r", "6", "--s", "0", "--grid", "20"],
        ],
        ids=["weyl-torus", "lp-zonal"],
    )
    def test_one_point_grid_writes_every_file(self, argv, tmp_path):
        out = tmp_path / "out"
        assert run_command(argv + ["--out", str(out)]) == 0
        assert sorted(p.suffix for p in out.iterdir()) == [".csv", ".json", ".json", ".svg"]
        assert (out / "summary.json").is_file()
        # every table is named <subcommand>_<UTC time as %Y%m%dT%H%M%S%fZ>
        (stem,) = {p.stem for p in out.iterdir() if p.name != "summary.json"}
        assert re.fullmatch(rf"{argv[0]}_\d{{8}}T\d{{12}}Z", stem), stem
        written = datetime.strptime(stem.split("_")[1], "%Y%m%dT%H%M%S%fZ")
        now = datetime.now(timezone.utc).replace(tzinfo=None)
        assert abs((now - written).total_seconds()) < 60

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
        "argv",
        [
            # tau reaches 6 at lambda = 1, past pi on S^2
            ["hoelder", "--manifold", "sphere", "--delta", "0.5", "--grid", "1,2,3"],
            # past pi/max|d_i| = 3.73 for the default torus direction
            ["hoelder", "--manifold", "torus", "--delta", "0.5", "--grid", "1,2,3"],
            ["offdiag", "--manifold", "torus", "--tau", "20", "--grid", "1,2,3"],
        ],
        ids=["hoelder-sphere", "hoelder-torus", "offdiag-torus"],
    )
    def test_tau_past_minimizing_distance_refused(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_command(argv + ["--out", str(out)]) == 2
        assert "tau/lambda exceeds pi" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["offdiag", "--manifold", "torus", "--tau", "1"],
            ["difference", "--manifold", "torus", "--tau", "1"],
            ["hoelder", "--manifold", "torus", "--delta", "0.5"],
        ],
        ids=["offdiag", "difference", "hoelder"],
    )
    @pytest.mark.parametrize(
        "direction,norm_sq",
        [("1e308,1e308", "inf"), ("1e200,1", "inf"), ("1e-200,1e-200", "0.0"), ("0,0", "0.0")],
    )
    def test_direction_without_a_float_length_refused(self, argv, direction, norm_sq, tmp_path, capsys):
        # a squared length that overflows used to make the unit vector 0 and
        # end in ZeroDivisionError; one that underflows was called zero
        out = tmp_path / "out"
        argv = argv + [f"--direction={direction}", "--grid", "50,60,70", "--out", str(out)]
        assert run_command(argv) == 2
        assert f"direction must have a positive finite squared length, got {norm_sq}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["offdiag", "--manifold", "torus", "--tau", "1.5"],
        ["difference", "--manifold", "torus", "--tau", "1.5"],
        ["hoelder", "--manifold", "torus", "--delta", "0.5"],
    ], ids=["offdiag", "difference", "hoelder"])
    @pytest.mark.parametrize("direction", ["3e-161,7e-161", "1.58e-162,1.11e-162"])
    def test_direction_with_a_subnormal_squared_length_refused(self, argv, direction, tmp_path, capsys):
        # the quotient by a subnormal length is not unit (1 - 2.9e-5 and 13% off),
        # so offdiag at --tau 1.5 used to write raw 147.88336 at 50 where 3,7 gives 147.88074
        out = tmp_path / "out"
        argv = argv + [f"--direction={direction}", "--grid", "50,100,150", "--out", str(out)]
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert "is below the smallest normal float 2.2250738585072014e-308" in err
        assert not out.exists()

    @pytest.mark.parametrize("direction", ["1e150,1e150", "1e-150,-1e-150", "3,0"])
    def test_direction_inside_float_range_runs(self, direction, tmp_path):
        argv = ["offdiag", "--manifold", "torus", "--tau", "1", f"--direction={direction}",
                "--grid", "50,60,70", "--formats", "csv", "--out", str(tmp_path)]
        assert run_command(argv) == 0

    def test_hw_norms_at_huge_degrees(self, tmp_path):
        # lgamma differences lost every digit here: raw 0.632 and a fitted exponent of 0
        argv = ["lp", "--family", "hw", "--r", "4", "--s", "0", "--grid", "1e16,1e17,1e18",
                "--formats", "csv", "--out", str(tmp_path)]
        assert run_command(argv) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        # 60-digit mpmath: ||Q_m||_4 / ||Q_m||_2 at n = 2, m = 10^18
        assert abs(summary["final_raw"] / 89.26527543366791098803124 - 1.0) <= 1e-14
        assert abs(summary["fit"]["exponent"] - summary["predicted_exponent"]) <= 1e-9
        assert summary["predicted_exponent"] == 0.125

    def test_eps_past_bound_refused(self, tmp_path, capsys):
        # past eps 1e305, eps s/4 would overflow to inf and the rows would be nan
        out = tmp_path / "out"
        assert run_command(["smoothed", "--eps", "1e308", "--grid", "50,60", "--out", str(out)]) == 2
        assert "1e+305" in capsys.readouterr().err
        assert not out.exists()
        assert run_command(["smoothed", "--eps", "1e305", "--grid", "50,60", "--out", str(out)]) == 0

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
        def diverge(grid=None, *, n=2):
            raise NumericError("Newton iteration did not converge")

        monkeypatch.setattr(probes, "probe_nodal", diverge)
        out = tmp_path / "out"
        assert run_command(["nodal", "--out", str(out)]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_error_exit_code(self, monkeypatch, tmp_path, capsys):
        def exhaust(manifold, n, grid=None):
            raise MemoryError()

        monkeypatch.setattr(probes, "probe_weyl", exhaust)
        out = tmp_path / "out"
        assert run_command(["weyl", "--manifold", "torus", "--out", str(out)]) == 3
        assert "MemoryError" in capsys.readouterr().err
        assert not out.exists()


class TestProbeTable:
    """cli._PROBES is the one place that names a probe's inputs."""

    @pytest.mark.parametrize("name", sorted(cli._PROBES))
    def test_table_names_every_probe_parameter(self, name):
        # run_probe passes the table's names as keyword arguments
        entry = cli._PROBES[name]
        names = (*entry.required, *entry.optional)
        signature = inspect.signature(getattr(probes, f"probe_{name}"))
        signature.bind(**dict.fromkeys(names))
        # hoelder's tau grid is set by callers of the library, never by a flag
        unset = {"tau_grid"} if name == "hoelder" else set()
        assert set(signature.parameters) - set(names) == unset

    def test_readme_table_lists_the_table_flags(self):
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if re.match(r"\| probe +\| required +\| optional", line))
        rows = {}
        for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:]):
            probe, required, optional = (cell.strip() for cell in line.strip("|").split("|"))
            rows[probe.strip("`")] = (tuple(re.findall(r"`--(\w+)`", required)),
                                      tuple(re.findall(r"`--(\w+)`", optional)))
        assert rows == {name: (p.required, p.optional) for name, p in cli._PROBES.items()}


_TOP_USAGE = "usage: speclab [-h] PROBE ...\n"
_CHOICES = ("(choose from 'weyl', 'offdiag', 'difference', 'deriv', 'band', 'hoelder', "
            "'lp', 'cksigma', 'nodal', 'smoothed', 'selftest')")

# (argv, exit code, stdout, stderr) as the CLI printed them when it built every
# subparser for every run (CPython 3.11 argparse, COLUMNS=80); unknown.cfg
# names the probe 'nosuch'
_CLI_TEXT = {
    "no-args": ([], 2, "", _TOP_USAGE),
    "help": (["-h"], 0, """\
usage: speclab [-h] PROBE ...

spectral-asymptotics probes on the flat torus and the round sphere

positional arguments:
  PROBE
    weyl      run the weyl probe
    offdiag   run the offdiag probe
    difference
              run the difference probe
    deriv     run the deriv probe
    band      run the band probe
    hoelder   run the hoelder probe
    lp        run the lp probe
    cksigma   run the cksigma probe
    nodal     run the nodal probe
    smoothed  run the smoothed probe
    selftest  run the invariant battery

options:
  -h, --help  show this help message and exit
""", ""),
    "unknown": (["bogus"], 2, "",
                _TOP_USAGE + f"speclab: error: argument PROBE: invalid choice: 'bogus' {_CHOICES}\n"),
    "weyl-help": (["weyl", "-h"], 0, """\
usage: speclab weyl [-h] [--config CONFIG] [--manifold MANIFOLD] [--n N]
                    [--grid GRID] [--out OUT] [--formats FORMATS]
                    [--threads THREADS]

options:
  -h, --help           show this help message and exit
  --config CONFIG      flat key=value config file
  --manifold MANIFOLD  torus or sphere
  --n N                dimension (default 2)
  --grid GRID          start:stop:step or v1,v2,...
  --out OUT            output directory
  --formats FORMATS    subset of csv,json,svg
  --threads THREADS    accepted for compatibility (>= 1); has no effect,
                       probes run serially
""", ""),
    "weyl-bad-flag": (["weyl", "--bogus", "1"], 2, "",
                      _TOP_USAGE + "speclab: error: unrecognized arguments: --bogus 1\n"),
    "cksigma-abbrev": (["cksigma", "--s", "1"], 2, "",
                       _TOP_USAGE + "speclab: error: unrecognized arguments: --s 1\n"),
    "selftest-help": (["selftest", "-h"], 0, """\
usage: speclab selftest [-h] [--out OUT] [--threads THREADS]

options:
  -h, --help         show this help message and exit
  --out OUT
  --threads THREADS  accepted for compatibility (>= 1); has no effect, probes
                     run serially
""", ""),
    "config-unknown-probe": (["--config", "unknown.cfg"], 2, "",
                             _TOP_USAGE + f"speclab: error: argument PROBE: invalid choice: 'nosuch' {_CHOICES}\n"),
}


class TestParserText:
    """run_command builds one subparser for a probe run; what it prints stays the same."""

    @staticmethod
    def _printed(argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "unknown.cfg").write_text("probe = nosuch\nn = 2\n")
        capsys.readouterr()
        rc = run_command(argv)
        out, err = capsys.readouterr()
        return rc, out, err

    @pytest.mark.parametrize("case", sorted(_CLI_TEXT))
    def test_text_is_pinned(self, case, tmp_path, monkeypatch, capsys):
        argv, *expected = _CLI_TEXT[case]
        assert self._printed(argv, tmp_path, monkeypatch, capsys) == tuple(expected)

    @pytest.mark.parametrize("case", sorted(_CLI_TEXT))
    def test_text_equals_the_full_parser(self, case, tmp_path, monkeypatch, capsys):
        argv = _CLI_TEXT[case][0]
        printed = self._printed(argv, tmp_path, monkeypatch, capsys)
        full = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda argv: full())
        assert printed == self._printed(argv, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("argv, built", [
        ([], None), (["-h"], None), (["bogus"], None), (["selftest"], None),
        (["weyl"], ["weyl"]), (["smoothed", "-h"], ["smoothed"]),
    ])
    def test_a_probe_run_builds_only_its_subparser(self, argv, built):
        (subparsers,) = cli._build_parser(argv)._subparsers._group_actions
        assert list(subparsers.choices) == (built or [*cli._PROBES, "selftest"])


def _child_env(blas_threads: str | None = None) -> dict:
    """os.environ with speclab importable and OPENBLAS_NUM_THREADS set to blas_threads.

    With blas_threads None the variable is dropped: this process imported
    speclab, which set it, so a plain copy would pass it on by inheritance.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(speclab.__file__).parents[1])
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def _run_cli(argv, out_dir, limit_memory=False, blas_threads=None):
    return subprocess.run(
        [sys.executable, "-m", "speclab.cli", *argv, "--out", str(out_dir)],
        capture_output=True,
        text=True,
        env=_child_env(blas_threads),
        timeout=120,
        preexec_fn=_limit_address_space if limit_memory else None,
    )


class TestResourceLimits:
    @pytest.mark.parametrize(
        "argv",
        [
            # lambda ** exponent overflows in the ratio column
            ["weyl", "--manifold", "sphere", "--n", "151"],
            # the multiplicity of degree 5000 on S^150 does not fit in a float
            ["cksigma", "--sigma", "1", "--n", "150", "--grid", "5000,7000"],
        ],
        ids=["weyl-sphere-n151", "cksigma-n150"],
    )
    def test_float_overflow_exits_3(self, argv, tmp_path):
        proc = _run_cli(argv, tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [["weyl"], ["offdiag", "--tau", "1.5"]],
        ids=["weyl", "offdiag"],
    )
    def test_torus_n3_cap_fits_in_512_mib(self, argv, tmp_path):
        # the n=3 sums run over rows, never over all points
        proc = _run_cli(
            argv + ["--manifold", "torus", "--n", "3", "--grid", "50:200:50"], tmp_path, True
        )
        assert proc.returncode == 0, proc.stderr


    def test_torus_cap_refused_before_any_sum(self, monkeypatch, tmp_path, capsys):
        # hoelder needs radius max(lambda) + 1 = 1501, past the cap of 1500
        calls = []
        real = torus.spectral_function_torus

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(torus, "spectral_function_torus", counting)
        out = tmp_path / "out"
        argv = ["hoelder", "--manifold", "torus", "--n", "3", "--delta", "0.5",
                "--grid", "50:1500:50", "--out", str(out)]
        assert run_command(argv) == 3
        assert calls == []
        assert "radius 1501 exceeds" in capsys.readouterr().err
        assert not out.exists()

    def test_torus_n3_default_grids_run(self, tmp_path):
        runs = [
            ["weyl", "--manifold", "torus"],
            ["deriv", "--alpha", "1,0,0", "--beta", "1,0,0"],
            ["offdiag", "--manifold", "torus", "--tau", "2"],
            ["band", "--manifold", "torus"],
            ["difference", "--manifold", "torus", "--tau", "2"],
            ["hoelder", "--manifold", "torus", "--delta", "0.5"],
            ["smoothed", "--eps", "4"],
        ]
        for argv in runs:
            out = tmp_path / argv[0]
            assert run_command(argv + ["--n", "3", "--formats", "csv", "--out", str(out)]) == 0, argv

    def test_lp_sobolev_overflow_names_it(self, tmp_path, capsys):
        # the float ** of the Sobolev factor raised a bare OverflowError
        argv = ["lp", "--family", "hw", "--r", "4", "--s", "300", "--out", str(tmp_path / "out")]
        assert run_command(argv) == 3
        assert "the Sobolev-scaled norm at s = 300 overflows a float" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, text",
        [
            # m = 80 pins lambda = sqrt(80 * 229); 135.351^150 is past the float range
            (["weyl", "--manifold", "sphere", "--n", "150", "--grid", "20:400:20"],
             "the predicted growth lambda^150 overflows a float at lambda = 135.351"),
            (["band", "--manifold", "sphere", "--n", "200"],
             "the predicted growth lambda^199 overflows a float at lambda = 50"),
        ],
        ids=["weyl", "band"],
    )
    def test_predicted_growth_overflow_names_it(self, argv, text, tmp_path, capsys):
        # lam ** exponent raised a bare OverflowError: (34, 'Numerical result out of range')
        out = tmp_path / "out"
        assert run_command(argv + ["--out", str(out)]) == 3
        assert f"error: {text}\n" == capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["weyl", "--manifold", "sphere", "--n", "226", "--grid", "1"],
        ["band", "--manifold", "sphere", "--n", "226", "--grid", "20"],
    ], ids=["weyl", "band"])
    def test_subnormal_weyl_constant_refused_before_any_kernel_call(self, argv, monkeypatch, tmp_path, capsys):
        # c_226 is subnormal: band wrote predicted_limit 0.0 and a blank ratio
        # column with exit 0, and weyl exited 1 in render_plot
        calls = []
        for name in ("spectral_function_sphere", "band_kernel_sphere"):
            monkeypatch.setattr(sphere, name, lambda *args: calls.append(args))
        out = tmp_path / "out"
        assert run_command(argv + ["--out", str(out)]) == 2
        assert calls == []
        assert "dimension must be <= 225, got 226" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["hoelder", "--manifold", "sphere", "--delta", "0.5", "--n", "400", "--grid", "20,40,60"],
        ["nodal", "--n", "400", "--grid", "20,40,60"],
        ["cksigma", "--sigma", "0", "--n", "400", "--grid", "20,40,60"],
        ["lp", "--family", "zonal", "--r", "inf", "--s", "0", "--n", "400", "--grid", "20,40,60"],
        ["lp", "--family", "hw", "--r", "4", "--s", "0", "--n", "400"],
    ], ids=["hoelder", "nodal", "cksigma", "lp-zonal", "lp-hw"])
    def test_sphere_area_bound_refused(self, argv, tmp_path, capsys):
        # Gamma((dim + 1)/2) in |S^dim| overflowed from dim = 343: exit 3 through
        # a bare OverflowError; the hw norm forms |S^(n-2)|
        out = tmp_path / "out"
        assert run_command(argv + ["--out", str(out)]) == 2
        assert "sphere dimension must be <= 342, got" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["nodal", "--n", "342", "--grid", "20,40,60"],
        ["lp", "--family", "hw", "--r", "4", "--s", "0", "--n", "344", "--grid", "20,40"],
    ], ids=["nodal", "lp-hw"])
    def test_sphere_area_bound_serves_its_last_dimension(self, argv, tmp_path):
        # both form |S^342|
        assert run_command(argv + ["--formats", "csv", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv", [
        ["cksigma", "--sigma", "1"],
        ["cksigma", "--sigma", "0"],
        ["lp", "--family", "zonal", "--r", "inf", "--s", "0"],
    ], ids=["cksigma-1", "cksigma-0", "lp-zonal"])
    def test_zonal_pole_value_overflow_names_it(self, argv, monkeypatch, tmp_path, capsys):
        # multiplicity(150, 7000) ~ 2e313 turned into a float: a bare OverflowError
        calls = []
        monkeypatch.setattr(sphere, "zonal_gradient_sup", lambda *args: calls.append(args))
        out = tmp_path / "out"
        assert run_command(argv + ["--n", "150", "--grid", "5000,7000", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: the zonal harmonic of degree 5000 on S^150 has pole value "
            "sqrt(multiplicity/area) past the float limit 1.79769e+308\n")
        assert calls == []
        assert not out.exists()

    def test_zero_limit_table_forms_no_growth(self, tmp_path):
        # tau = j_{75,1}, so the limit snaps to 0; 123.814^150 overflows a float
        # and was refused with exit 3, though no ratio divides by it
        argv = ["offdiag", "--manifold", "sphere", "--n", "150", "--tau", "83.07089852831263",
                "--grid", "20,70", "--formats", "csv", "--out", str(tmp_path)]
        assert run_command(argv) == 0
        (csv_path,) = _files(tmp_path, ".csv")
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        assert [row[2] for row in rows] == ["", ""]

    @pytest.mark.parametrize("argv,message,finite_grid", [
        (["cksigma", "--sigma", "1", "--n", "150", "--grid", "500,1000"],
         "cksigma: raw inf at abscissa 1000", "500"),
        (["cksigma", "--sigma", "0.5", "--n", "150", "--grid", "2000"],
         "cksigma: raw nan at abscissa 2000", "500"),
        (["offdiag", "--manifold", "sphere", "--n", "170", "--tau", "1000", "--grid", "20000,30000"],
         "offdiag: raw nan at abscissa 20084.3", "2000"),
        (["nodal", "--n", "150", "--grid", "500,1000,2000"],
         "nodal: nadirashvili_ratio inf at abscissa 1000", "500"),
        (["nodal", "--n", "100", "--grid", "2000,4000"],
         "nodal: nadirashvili_ratio nan at abscissa 4000", "2000"),
    ], ids=["cksigma-1", "cksigma-0.5", "offdiag", "nodal-150", "nodal-100"])
    def test_non_finite_table_refused(self, argv, message, finite_grid, tmp_path, capsys):
        # each wrote inf or nan to its CSV, or NaN or Infinity to its JSON, with
        # exit 0: ZonalFamily.at and the sphere kernel overflow at large n
        out = tmp_path / "out"
        if "0.5" in argv:  # the Hoelder proxy's array path overflows, and numpy warns
            with pytest.warns(RuntimeWarning) as caught:
                assert run_command(argv + ["--out", str(out)]) == 3
            assert any("overflow" in str(w.message) for w in caught)
        else:
            assert run_command(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message} is not finite\n"
        assert not out.exists()
        # the grid's finite part still runs, and writes finite numbers only
        finite = tmp_path / "finite"
        assert run_command(argv[:argv.index("--grid")] + ["--grid", finite_grid, "--out", str(finite)]) == 0
        for path in finite.iterdir():
            assert not re.search(r"\b(nan|inf|NaN|Infinity)\b", path.read_text()), path.name

    @pytest.mark.parametrize(
        "argv",
        [
            ["nodal", "--grid", "1000000,1000001"],
            ["cksigma", "--sigma", "1", "--grid", "200000,200001"],
            ["cksigma", "--sigma", "0.5", "--grid", "50000,50001"],
        ],
        ids=["nodal", "cksigma-1", "cksigma-0.5"],
    )
    def test_zonal_degree_budget_refused_before_any_work(self, argv, monkeypatch, tmp_path, capsys):
        # each grid sums past the budget; the nodal one would compute for about 15 s
        calls = []
        real = sphere.ZonalFamily.create.__func__

        def counting(cls, n, m):
            calls.append(m)
            return real(cls, n, m)

        monkeypatch.setattr(sphere.ZonalFamily, "create", classmethod(counting))
        out = tmp_path / "out"
        assert run_command(argv + ["--out", str(out)]) == 3
        assert calls == []
        assert f"budget of {probes.ZONAL_DEGREE_BUDGET} summed degrees" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,total",
        [
            # one recurrence per point, up to the grid degree
            (["weyl", "--manifold", "sphere", "--grid", "5000000,5000001"], 10_000_001),
            (["offdiag", "--manifold", "sphere", "--tau", "1.5", "--grid", "5000000,5000001"],
             10_000_001),
            # the diagonal and the off-diagonal call: 2 (2,500,000 + 2,500,001)
            (["difference", "--manifold", "sphere", "--tau", "2", "--grid", "2500000,2500001"],
             10_000_002),
            # one band call runs one recurrence, up to max_degree(lam + 1) = 10,000,001
            (["band", "--manifold", "sphere", "--grid", "10000001"], 10_000_001),
            # 1 + 12 default taus band calls, each up to max_degree(lam + 1): 13 * 769,231
            (["hoelder", "--manifold", "sphere", "--delta", "0.5", "--grid", "769231"],
             10_000_003),
        ],
        ids=["weyl", "offdiag", "difference", "band", "hoelder"],
    )
    def test_sphere_kernel_budget_refused_before_any_kernel_call(
        self, argv, total, monkeypatch, tmp_path, capsys
    ):
        # each grid sums just past the budget, about 3 s of recurrences
        calls = []
        for name in ("spectral_function_sphere", "band_kernel_sphere"):
            monkeypatch.setattr(sphere, name, lambda *args: calls.append(args))
        out = tmp_path / "out"
        assert run_command(argv + ["--out", str(out)]) == 3
        assert calls == []
        assert (
            f"sums to {total}, past the budget of {probes.KERNEL_DEGREE_BUDGET} summed degrees"
            in capsys.readouterr().err
        )
        assert total - probes.KERNEL_DEGREE_BUDGET <= 3
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["1e150", "1e200"])
    def test_huge_sphere_band_refused_at_once(self, grid, tmp_path, capsys):
        # max_degree sizes the budget; it used to step one degree at a time from
        # a float estimate, and at 1e150 ran for minutes before any refusal
        out = tmp_path / "out"
        start = time.perf_counter()
        assert run_command(["band", "--manifold", "sphere", "--grid", grid, "--out", str(out)]) == 3
        assert time.perf_counter() - start < 1.0
        assert f"past the budget of {probes.KERNEL_DEGREE_BUDGET} summed degrees" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", [2, 3])
    def test_default_sphere_grids_within_budget(self, n, monkeypatch, tmp_path):
        checked = []
        real = probes._check_degree_budget

        def recording(total, budget, what):
            checked.append((total, budget))
            real(total, budget, what)

        monkeypatch.setattr(probes, "_check_degree_budget", recording)
        runs = [
            ["weyl", "--manifold", "sphere"],
            ["offdiag", "--manifold", "sphere", "--tau", "1.5"],
            ["difference", "--manifold", "sphere", "--tau", "2"],
            ["band", "--manifold", "sphere"],
            ["hoelder", "--manifold", "sphere", "--delta", "0.5"],
            ["nodal"],
            ["cksigma", "--sigma", "0"],
            ["cksigma", "--sigma", "0.5"],
            ["cksigma", "--sigma", "1"],
        ]
        for i, argv in enumerate(runs):
            out = tmp_path / str(i)
            assert run_command(argv + ["--n", str(n), "--formats", "csv", "--out", str(out)]) == 0
        # every run went through the budget check once, at a tenth of it or less
        assert len(checked) == len(runs)
        assert all(total <= budget // 10 for total, budget in checked), checked


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


_PROC_STATUS = Path("/proc/self/status")


@pytest.mark.skipif(
    not _PROC_STATUS.exists() or (os.cpu_count() or 1) < 2,
    reason="needs /proc/self/status and at least two CPUs, where OpenBLAS would start a worker",
)
class TestBlasThreads:
    """A CLI run is one thread: speclab sets OPENBLAS_NUM_THREADS=1 unless the caller set it."""

    SCRIPT = (
        "import os\n"
        "import speclab.cli\n"
        "import numpy  # loaded at a run's first array path, after speclab set the variable\n"
        "status = open('/proc/self/status').read().splitlines()\n"
        "print(next(line for line in status if line.startswith('Threads:')).split()[1])\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    )

    @pytest.mark.parametrize("blas_threads, expected", [(None, ["1", "1"]), ("2", ["2", "2"])])
    def test_thread_count_and_caller_setting(self, blas_threads, expected):
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            env=_child_env(blas_threads),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == expected

    @pytest.mark.parametrize("argv", [["selftest"]], ids=["selftest"])
    def test_tables_identical_across_blas_threads(self, argv, tmp_path):
        # the tables must not depend on how OpenBLAS splits its work: selftest
        # multiplies a matrix by a vector, the one BLAS product left in any run
        tables = {}
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            proc = _run_cli(argv, out, blas_threads=threads)
            assert proc.returncode == 0, proc.stderr
            tables[threads] = [p.read_bytes() for p in _files(out, ".csv") + _files(out, ".json")]
        assert len(tables["1"]) >= 3
        assert tables["1"] == tables["2"]


@pytest.mark.skipif(not _PROC_STATUS.exists(), reason="needs /proc/self/status")
def test_smoothed_peak_rss(tmp_path):
    # the shell table is sized to the grid's radius (1300 at --eps 4), and its
    # build holds no square of candidate points; the run peaked at about
    # 55 MiB (Python 3.11.7, numpy 2.4.6), against 79 MiB with a table sized
    # to the 1500 cap
    script = (
        "import sys\n"
        "from speclab.cli import run_command\n"
        "assert run_command(['smoothed', '--eps', '4', '--out', sys.argv[1]]) == 0\n"
        "status = open('/proc/self/status').read().splitlines()\n"
        "print(next(line for line in status if line.startswith('VmHWM:')).split()[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 64 << 10  # kB


@pytest.mark.skipif(not _PROC_STATUS.exists(), reason="needs /proc/self/status")
def test_torus_n3_hoelder_peak_rss(tmp_path):
    # the n = 3 band kernels walk the rows in Python floats and hold no
    # (2R+1)^2 meshgrid; the run peaked at about 17 MB (Python 3.11.7), against
    # 35 MB with the meshgrid and numpy loaded
    script = (
        "import sys\n"
        "from speclab.cli import run_command\n"
        "argv = ['hoelder', '--manifold', 'torus', '--n', '3', '--delta', '0.5',\n"
        "        '--grid', '50:199:50', '--out', sys.argv[1]]\n"
        "assert run_command(argv) == 0\n"
        "status = open('/proc/self/status').read().splitlines()\n"
        "print(next(line for line in status if line.startswith('VmHWM:')).split()[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 24 << 10  # kB


# The first five used to import scipy for Gegenbauer zeros; the rest add one
# small run of every other subcommand and route.
_RUNS = (
    ["nodal"],
    ["cksigma", "--sigma", "1"],
    ["lp", "--family", "zonal", "--r", "6", "--s", "0"],
    ["offdiag", "--manifold", "torus", "--tau", "1.5"],
    ["selftest"],
    ["weyl", "--manifold", "torus", "--grid", "50:100:25"],
    ["offdiag", "--manifold", "sphere", "--tau", "1.5", "--grid", "20:100:20"],
    ["difference", "--manifold", "torus", "--tau", "1.5", "--grid", "50:100:25"],
    ["deriv", "--alpha", "1,0", "--beta", "1,0", "--grid", "50:100:25"],
    ["band", "--manifold", "sphere", "--grid", "20:100:20"],
    ["hoelder", "--manifold", "torus", "--delta", "0.5", "--grid", "50:100:25"],
    ["lp", "--family", "zonal", "--r", "3", "--s", "0", "--n", "3", "--grid", "20:60:20"],
    ["smoothed", "--grid", "50:100:25"],
    ["nodal", "--n", "4", "--grid", "20,40,60"],
)


# the runs that reach no array path: scalar recurrences, lgamma and scalar Newton
# on the sphere; exact integer row sums and the float cosine sums on the torus;
# Phi_n's composite rule in Python floats for offdiag and difference at tau > 0
_NUMPY_FREE_RUNS = (
    ["weyl", "--manifold", "sphere"],
    ["offdiag", "--manifold", "sphere", "--tau", "1.5"],
    ["difference", "--manifold", "sphere", "--tau", "1.5"],
    ["band", "--manifold", "sphere"],
    ["hoelder", "--manifold", "sphere", "--delta", "0.5"],
    ["lp", "--family", "hw", "--r", "4", "--s", "0"],
    ["cksigma", "--sigma", "1"],
    ["nodal"],
    ["nodal", "--n", "4", "--grid", "20,40,60"],
    ["weyl", "--manifold", "torus"],
    ["band", "--manifold", "torus"],
    ["deriv", "--alpha", "1,0", "--beta", "1,0"],
    ["hoelder", "--manifold", "torus", "--delta", "0.5"],
    ["offdiag", "--manifold", "torus", "--tau", "1.5"],
    ["difference", "--manifold", "torus", "--tau", "1.5"],
    ["weyl", "--manifold", "torus", "--n", "3", "--grid", "10:60:10"],
    ["offdiag", "--manifold", "torus", "--n", "3", "--tau", "1.5", "--grid", "10:60:10"],
    ["difference", "--manifold", "torus", "--n", "3", "--tau", "1.5", "--grid", "10:60:10"],
    ["band", "--manifold", "torus", "--n", "3", "--grid", "10:60:10"],
    ["deriv", "--n", "3", "--alpha", "1,0,1", "--beta", "1,2,1", "--grid", "10:60:10"],
    ["hoelder", "--manifold", "torus", "--n", "3", "--delta", "0.5", "--grid", "10:60:10"],
)


def _run_script(script: str, tmp_path: Path, runs=_RUNS, *args: str) -> subprocess.CompletedProcess:
    # the child gets the output root as argv[1], the runs as JSON in argv[2], then args
    env = dict(os.environ, PYTHONPATH=str(Path(speclab.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), json.dumps(runs), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


class TestImportCost:
    def test_no_run_loads_scipy(self, tmp_path):
        # scipy is a test oracle only: importing the CLI and every run, selftest
        # included, leave it unloaded
        script = (
            "import json, sys\n"
            "import speclab.cli\n"
            "assert 'scipy' not in sys.modules, 'import speclab.cli loaded scipy'\n"
            "for i, argv in enumerate(json.loads(sys.argv[2])):\n"
            "    rc = speclab.cli.run_command(argv + ['--out', f'{sys.argv[1]}/{i}'])\n"
            "    assert rc == 0, (argv, rc)\n"
            "    assert 'scipy' not in sys.modules, f'{argv} loaded scipy'\n"
        )
        proc = _run_script(script, tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_every_subcommand_runs_without_scipy(self, tmp_path):
        # sys.modules[name] = None makes every import of scipy raise ImportError
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import speclab.cli\n"
            "for i, argv in enumerate(json.loads(sys.argv[2])):\n"
            "    rc = speclab.cli.run_command(argv + ['--out', f'{sys.argv[1]}/{i}'])\n"
            "    assert rc == 0, (argv, rc)\n"
        )
        proc = _run_script(script, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "ImportError" not in proc.stderr and "scipy" not in proc.stderr

    def test_import_loads_no_numpy(self, tmp_path):
        # perfbench/tracer.py reads all six layer modules right after this import
        script = (
            "import sys\n"
            "import speclab.cli\n"
            "assert 'numpy' not in sys.modules, 'import speclab.cli loaded numpy'\n"
            "layers = ('cli', 'probes', 'torus', 'sphere', 'analytic', 'output')\n"
            "missing = [m for m in layers if f'speclab.{m}' not in sys.modules]\n"
            "assert not missing, missing\n"
        )
        proc = _run_script(script, tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_no_run_loads_dataclasses_or_inspect(self, tmp_path):
        # the records are NamedTuples: `dataclasses` would bring in inspect, ast,
        # dis and tokenize, about 11 ms a process.  numpy imports inspect
        # itself, so only the numpy-free runs can keep it out
        script = (
            "import json, sys\n"
            "def loaded():\n"
            "    return [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
            "import speclab.cli\n"
            "assert not loaded(), loaded()\n"
            "for i, argv in enumerate(json.loads(sys.argv[2])):\n"
            "    rc = speclab.cli.run_command(argv + ['--out', f'{sys.argv[1]}/{i}'])\n"
            "    assert rc == 0, (argv, rc)\n"
            "    assert not loaded(), (argv, loaded())\n"
        )
        proc = _run_script(script, tmp_path, _NUMPY_FREE_RUNS)
        assert proc.returncode == 0, proc.stderr

    def test_torus_directions_need_no_numpy(self, tmp_path):
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "import speclab.torus as torus\n"
            "from speclab.errors import DomainError\n"
            "for n in (2, 3):\n"
            "    d = torus.default_direction(n)\n"
            "    assert torus.unit_direction(n) == d and all(type(v) is float for v in d)\n"
            "assert torus.unit_direction(2, (3.0, -4.0)) == (0.6, -0.8)\n"
            "assert len(torus.unit_direction(3, (1.0, 2.0, 2.0))) == 3\n"
            "for bad in ((0.0, 0.0), (3e-161, 7e-161), (1e200, 1.0)):\n"
            "    try:\n"
            "        torus.unit_direction(2, bad)\n"
            "    except DomainError:\n"
            "        continue\n"
            "    raise AssertionError(bad)\n"
        )
        proc = _run_script(script, tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_scalar_runs_need_no_numpy(self, tmp_path):
        # the same runs with numpy unimportable and with numpy loaded first write the same bytes
        script = (
            "import json, sys\n"
            "if sys.argv[3] == 'blocked':\n"
            "    sys.modules['numpy'] = None\n"
            "else:\n"
            "    import numpy\n"
            "import speclab.cli\n"
            "for i, argv in enumerate(json.loads(sys.argv[2])):\n"
            "    rc = speclab.cli.run_command(argv + ['--out', f'{sys.argv[1]}/{i}'])\n"
            "    assert rc == 0, (argv, rc)\n"
        )
        for mode in ("blocked", "loaded"):
            proc = _run_script(script, tmp_path / mode, _NUMPY_FREE_RUNS, mode)
            assert proc.returncode == 0, proc.stderr

        def tables(out: Path) -> dict[str, bytes]:
            return {p.suffix if p.name != "summary.json" else p.name: p.read_bytes()
                    for p in out.iterdir()}

        for i in range(len(_NUMPY_FREE_RUNS)):
            blocked = tables(tmp_path / "blocked" / str(i))
            assert sorted(blocked) == [".csv", ".json", ".svg", "summary.json"]
            assert blocked == tables(tmp_path / "loaded" / str(i)), _NUMPY_FREE_RUNS[i]


class TestHighDimensionalZonalRuns:
    @pytest.mark.parametrize("argv", [["nodal", "--n", "150"], ["cksigma", "--sigma", "1", "--n", "150"]])
    def test_exit_zero(self, argv, tmp_path):
        assert run_command(argv + ["--formats", "csv", "--out", str(tmp_path)]) == 0

    def test_nodal_limit_on_s3(self, tmp_path):
        # lambda theta_1 -> j_{1/2, 1} = pi on S^3, not j_{0,1}
        argv = ["nodal", "--n", "3", "--grid", "100:400:100", "--formats", "csv,json"]
        assert run_command(argv + ["--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["predicted_limit"] == math.pi
        assert summary["relative_deviation"] <= 1e-5


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
        payload = json.loads(path.read_text(encoding="utf-8"))
        rows = [probes.ProbeRow(abscissa=a, raw=v, ratio=q) for a, v, q in payload["rows"]]
        assert rows == res.rows
        assert payload["extra"] == res.extra
        assert (payload["predicted_limit"], payload["predicted_exponent"]) == (
            res.predicted_limit, res.predicted_exponent)

    def test_empty_table_rejected(self, tmp_path):
        res = probe_weyl("torus", 2, [50.0, 75.0, 100.0])._replace(rows=[])
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
        res = probe_weyl("torus", 2, [50.0, 75.0, 100.0])._replace(predicted_limit=None)
        text = self._render(tmp_path, res)
        assert "reference:" not in text
        ET.fromstring(text)

    def test_one_row_renders(self, tmp_path):
        # _scale widens the zero span of a single value, so one row plots one
        # point per panel
        res = probe_weyl("torus", 2, [50.0, 75.0, 100.0])
        res = res._replace(rows=res.rows[:1])
        text = self._render(tmp_path, res)
        ET.fromstring(text)
        assert text.count("<circle") == 2
        assert "nan" not in text and "inf" not in text

    @pytest.mark.parametrize("raw", [-1.16e16, 2.0 ** 53, -(2.0 ** 60), 1e300])
    def test_flat_series_past_2_52_renders(self, tmp_path, raw):
        # from |v| = 2^52 the +-0.5 pad of a flat series can round away, and
        # the zero span raised ZeroDivisionError: offdiag --manifold sphere --n 5
        # at tau = j_{5/2,1} plots raws of -1.16e16 and exited 1
        res = probe_weyl("torus", 2, [50.0, 75.0])
        res = res._replace(rows=[r._replace(raw=raw, ratio=None) for r in res.rows], predicted_limit=0.0)
        text = self._render(tmp_path, res)
        ET.fromstring(text)
        assert "nan" not in text and "inf" not in text
        # the flat trace sits mid-panel
        (points,) = re.findall(r'<polyline points="([^"]*)"', text)
        assert [p.split(",")[1] for p in points.split()] == ["200.00", "200.00"]

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

    def test_json_holds_no_nan_or_infinity(self, tmp_path):
        # json.dumps writes NaN and Infinity by default, which no JSON parser need accept
        res = probes.ProbeResult("p", {}, [probes.ProbeRow(1.0, 1.0, 1e300)], 5e-324, 1.0)
        assert output.summary_payload(res, None)["relative_deviation"] == math.inf
        with pytest.raises(NumericError, match=r"cannot write .*summary\.json: Out of range float"):
            output.write_summary(res, None, tmp_path / "summary.json")
        with pytest.raises(NumericError, match=r"cannot write .*t\.json: Out of range float"):
            output.write_json(res._replace(params={"tau": math.nan}), tmp_path / "t.json")
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------
# the exit-code contract of the torus subcommands, over drawn flag values

_ODD_NUMBERS = st.sampled_from(
    ["0", "-0", "-1", "1e-320", "5e-324", "1e308", "-1e308", "1e400", "nan", "inf", "-inf",
     "2.5", "abc", ""]
)


def _mostly(valid: st.SearchStrategy, odd: st.SearchStrategy = _ODD_NUMBERS) -> st.SearchStrategy:
    """A flag value: one in six is odd (huge, tiny, negative, non-finite or not a number)."""
    return st.integers(0, 5).flatmap(lambda k: odd if k == 0 else valid)


_grids = _mostly(
    st.one_of(
        st.lists(st.one_of(st.integers(1, 40), st.floats(1.0, 40.0)), min_size=1, max_size=4)
        .map(lambda v: ",".join(map(repr, sorted(set(v))))),
        st.tuples(st.integers(1, 20), st.integers(1, 40), st.sampled_from([1, 5, 0.5, 10]))
        .map(lambda t: ":".join(map(str, t))),
    ),
    st.one_of(
        _ODD_NUMBERS,
        st.sampled_from(["1500", "1501", "200", "201", "1e6", "0.5,2", "3,2", "1:40:0",
                         "1:40:-1", "1:1e9:1e-300", "1:5:nan", "-5:5:1"]),
    ),
)
_odd_directions = st.lists(
    st.one_of(
        st.floats(-5.0, 5.0),
        st.sampled_from([0.0, -0.0, 5e-324, 1e-160, 1e154, 1e200, -1e300]),
    ),
    min_size=1, max_size=4,
)
_odd_multi_indices = st.one_of(
    st.lists(st.integers(0, 4), min_size=1, max_size=4).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["-1,0", "1.5,0", "", "a,b", "99999999999999999999,0", "1,,0", "7,0"]),
)


def _torus_flags(probe: str, dim: int) -> tuple[dict, dict]:
    """(required, optional) flag strategies of a torus subcommand, besides --n and --grid."""
    direction = _mostly(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim), _odd_directions)
    direction = direction.map(lambda v: ",".join(map(repr, v)))
    multi_index = _mostly(
        st.lists(st.integers(0, 1), min_size=dim, max_size=dim)
        .map(lambda v: ",".join(map(str, v))),
        _odd_multi_indices,
    )
    tau = _mostly(
        st.floats(0.0, 4.0).map(repr), st.one_of(_ODD_NUMBERS, st.floats(-4.0, 0.0).map(repr))
    )
    delta = _mostly(st.floats(0.01, 0.99).map(repr))
    return {
        "weyl": ({}, {}),
        "band": ({}, {}),
        "offdiag": ({"tau": tau}, {"direction": direction}),
        "difference": ({"tau": tau}, {"direction": direction}),
        "hoelder": ({"delta": delta}, {"direction": direction}),
        "deriv": ({"alpha": multi_index, "beta": multi_index}, {}),
    }[probe]


@st.composite
def torus_argvs(draw):
    probe = draw(st.sampled_from(["band", "deriv", "difference", "hoelder", "offdiag", "weyl"]))
    odd_n = st.sampled_from(["1", "4", "0", "-2", "2.5", "1e9"])
    n = draw(st.none() | _mostly(st.sampled_from(["2", "3"]), odd_n))
    required, optional = _torus_flags(probe, int(n) if n in ("2", "3") else 2)
    argv = [probe] if probe == "deriv" else [probe, "--manifold", "torus"]
    if n is not None:
        argv.append(f"--n={n}")
    for key, values in required.items():
        argv.append(f"--{key}={draw(values)}")  # '=' keeps a leading '-' a value
    for key, values in {"grid": _grids, **optional}.items():
        value = draw(st.none() | values)
        if value is not None:
            argv.append(f"--{key}={value}")
    return argv


class TestTorusExitContract:
    @settings(derandomize=True, deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.too_slow])
    @given(torus_argvs())
    def test_every_run_exits_0_2_or_3(self, tmp_path_factory, argv):
        # exit 0 writes finite raw values: a nan or inf row would be silently wrong
        out = tmp_path_factory.mktemp("contract")
        # every format is written, so render_plot sees each input too
        rc = run_command(argv + ["--out", str(out)])
        assert rc in (0, 2, 3), (argv, rc)
        if rc == 0:
            (csv_path,) = _files(out, ".csv")
            raws = [line.split(",")[1] for line in csv_path.read_text().splitlines()[1:]]
            assert all(math.isfinite(float(v)) for v in raws), (argv, raws)


# --------------------------------------------------------------------------
# the same contract for the extremizing-family subcommands, lp, cksigma and nodal

_degree_grids = _mostly(
    st.one_of(
        st.lists(st.integers(1, 40), min_size=1, max_size=4)
        .map(lambda v: ",".join(map(str, sorted(set(v))))),
        st.tuples(st.integers(1, 20), st.integers(1, 40), st.sampled_from([1, 5, 10]))
        .map(lambda t: ":".join(map(str, t))),
    ),
    st.one_of(
        _ODD_NUMBERS,
        st.sampled_from(["10", "400", "1e6", "100001", "1e300", "2.5,3", "0,1", "3,2", "1:40:0.5"]),
    ),
)


def _family_flags(probe: str) -> dict:
    """The required flag strategies of an extremizing-family subcommand."""
    if probe == "lp":
        r = st.one_of(st.floats(2.0, 12.0).map(repr), st.sampled_from(["inf", "2", "4", "6"]))
        odd_r = st.sampled_from(["1e307", "1.7976931348623157e308", "1e200", "1e102", "1e6", "1.5"])
        odd_s = st.sampled_from(["301.36", "118.34", "1e300", "1e-300"])
        return {
            "family": _mostly(st.sampled_from(["zonal", "hw"]), st.sampled_from(["", "Zonal"])),
            "r": _mostly(r, st.one_of(_ODD_NUMBERS, odd_r)),
            "s": _mostly(st.floats(0.0, 3.0).map(repr), st.one_of(_ODD_NUMBERS, odd_s)),
        }
    if probe == "cksigma":
        sigma = st.one_of(st.floats(0.0, 1.0).map(repr), st.sampled_from(["0", "0.5", "1"]))
        odd_sigma = st.sampled_from(["1.0000001", "1e-300", "0.999999999999"])
        return {"sigma": _mostly(sigma, st.one_of(_ODD_NUMBERS, odd_sigma))}
    return {}


@st.composite
def family_argvs(draw):
    probe = draw(st.sampled_from(["lp", "cksigma", "nodal"]))
    odd_n = st.sampled_from(["1", "0", "-2", "2.5", "1e9", "150", "1000", "10000000000"])
    dims = ["2", "3", "4"]
    if probe == "nodal":  # around the edge of the predicted limit, n = 32
        dims += ["5", "10", "32", "33", "40"]
    n = draw(st.none() | _mostly(st.sampled_from(dims), odd_n))
    argv = [probe] if n is None else [probe, f"--n={n}"]
    for key, values in _family_flags(probe).items():
        argv.append(f"--{key}={draw(values)}")
    # always a grid: the default degree grids cost more than the contract needs
    return argv + [f"--grid={draw(_degree_grids)}"]


class TestFamilyExitContract:
    @settings(derandomize=True, deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.too_slow])
    @given(family_argvs())
    # m r overflowed to inf and every hw raw was written as 0 with exit 0
    @example(["lp", "--family=hw", "--r=1e307", "--s=0", "--grid=20:400:20"])
    # a^3 overflowed in the hw log norm: OverflowError
    @example(["lp", "--family=hw", "--r=1e200", "--s=0", "--grid=20,400"])
    # the Sobolev factor times the norm overflowed to inf with exit 0
    @example(["lp", "--family=zonal", "--r=inf", "--s=301.36", "--grid=10"])
    def test_every_run_exits_0_2_or_3(self, tmp_path_factory, argv):
        # exit 0 writes positive finite raws: norms, gradient sups and nodal
        # products are all positive
        out = tmp_path_factory.mktemp("contract")
        # every format is written, so render_plot sees each input too
        rc = run_command(argv + ["--out", str(out)])
        assert rc in (0, 2, 3), (argv, rc)
        if rc == 0:
            (csv_path,) = _files(out, ".csv")
            raws = [float(line.split(",")[1]) for line in csv_path.read_text().splitlines()[1:]]
            assert all(math.isfinite(v) and v > 0.0 for v in raws), (argv, raws)

    def test_hw_norm_at_huge_r_tends_to_its_limit(self, tmp_path):
        # the log norm divided by r falls toward 0, so the rows settle; at
        # r = 1e100 the series branch still formed m r and a^3 without overflow
        rows = {}
        for r in ("1e100", "1e307", "1.7976931348623157e308"):
            out = tmp_path / r
            assert run_command(["lp", "--family", "hw", "--r", r, "--s", "0",
                                "--grid", "20,400", "--formats", "csv", "--out", str(out)]) == 0
            (csv_path,) = _files(out, ".csv")
            rows[r] = [float(line.split(",")[1]) for line in csv_path.read_text().splitlines()[1:]]
        assert rows["1e100"] == pytest.approx([0.63957, 1.34073], rel=1e-5)
        assert rows["1e307"] == pytest.approx(rows["1e100"], rel=1e-12)
        assert rows["1.7976931348623157e308"] == pytest.approx(rows["1e100"], rel=1e-12)


# --------------------------------------------------------------------------
# the same contract for the sphere spectral subcommands and smoothed

# eps >= 20 keeps the window's reach 4000/eps at most 200, and a run's shell table small
_eps = _mostly(
    st.floats(20.0, 1000.0).map(repr),
    st.one_of(_ODD_NUMBERS, st.sampled_from(["4", "1e305", "1e306", "1e-300"])),
)


@st.composite
def sphere_argvs(draw):
    probe = draw(st.sampled_from(["band", "difference", "hoelder", "offdiag", "smoothed", "weyl"]))
    odd_n = st.sampled_from(["1", "0", "-2", "2.5", "1e9", "150", "400"])
    n = draw(st.none() | _mostly(st.sampled_from(["2", "3", "4"]), odd_n))
    if probe == "smoothed":
        argv, required, grids = [probe], {"eps": _eps}, _grids
    else:
        # weyl, offdiag and difference pin their grids to degrees on the sphere
        argv, required = [probe, "--manifold", "sphere"], _torus_flags(probe, 2)[0]
        grids = _degree_grids if probe in ("weyl", "offdiag", "difference") else _grids
    if n is not None:
        argv.append(f"--n={n}")
    for key, values in required.items():
        argv.append(f"--{key}={draw(values)}")
    grid = draw(st.none() | grids)
    return argv if grid is None else argv + [f"--grid={grid}"]


class TestSphereExitContract:
    @settings(derandomize=True, deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sphere_argvs())
    # the degree budget refuses the grid before max_degree runs
    @example(["band", "--manifold", "sphere", "--grid", "1e300"])
    # lambda^150 overflows in the normalization: refused by name, exit 3
    @example(["weyl", "--manifold", "sphere", "--n", "150", "--grid", "20:400:20"])
    # the limit snaps to 0 at tau = j_{5/2,1}, and the flat raw trace of -1.16e16
    # gave render_plot a zero span: exit 1
    @example(["offdiag", "--manifold", "sphere", "--n", "5", "--tau", "5.76345919689455", "--grid", "100000"])
    # c_226 is subnormal: a 0.0 limit and the same flat trace, exit 1
    @example(["weyl", "--manifold", "sphere", "--n", "226", "--grid", "1"])
    # the window's reach is infinite, past the radius cap
    @example(["smoothed", "--eps", "5e-324", "--grid", "10"])
    @example(["offdiag", "--manifold", "sphere", "--tau", "5e-324", "--grid", "1"])
    @example(["smoothed", "--n", "3", "--eps", "100", "--grid", "10,20,30"])
    def test_every_run_exits_0_2_or_3(self, tmp_path_factory, argv):
        # exit 0 writes finite raw values: a nan or inf row would be silently wrong
        out = tmp_path_factory.mktemp("contract")
        # every format is written, so render_plot sees each input too
        rc = run_command(argv + ["--out", str(out)])
        assert rc in (0, 2, 3), (argv, rc)
        if rc == 0:
            (csv_path,) = _files(out, ".csv")
            raws = [line.split(",")[1] for line in csv_path.read_text().splitlines()[1:]]
            assert all(math.isfinite(float(v)) for v in raws), (argv, raws)
