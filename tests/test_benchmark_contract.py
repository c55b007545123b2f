"""The benchmark's contract with the program, run on small grids.

perfbench/tracer.py wraps the program's public functions by name and binds
some of their parameters by name; perfbench/oracle.py recomputes every table
independently and reads the files a run leaves in --out.  A traced run that
dies, or a table or file layout the oracle rejects, breaks the benchmark.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import speclab

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SMALL = [20.0, 40.0, 60.0]
TAUS = [0.5 * k for k in range(1, 13)]  # hoelder's default tau sweep


def _load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", PERFBENCH / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


CASES = {
    "weyl-torus": (
        ["weyl", "--manifold", "torus", "--grid", "20,40,60"],
        {"probe": "weyl", "manifold": "torus", "n": 2, "grid": SMALL},
    ),
    "offdiag-torus-n3": (
        ["offdiag", "--manifold", "torus", "--n", "3", "--tau", "1.25",
         "--direction=0.3,-1.1,0.7", "--grid", "10,20,30"],
        {"probe": "offdiag", "manifold": "torus", "n": 3, "grid": [10.0, 20.0, 30.0],
         "tau": 1.25, "direction": [0.3, -1.1, 0.7]},
    ),
    "difference-torus": (
        ["difference", "--manifold", "torus", "--tau", "2.25", "--direction=-0.4,1.3",
         "--grid", "20,40,60"],
        {"probe": "difference", "manifold": "torus", "n": 2, "grid": SMALL, "tau": 2.25,
         "direction": [-0.4, 1.3]},
    ),
    "deriv-torus": (
        ["deriv", "--alpha", "1,0", "--beta", "1,0", "--grid", "20,40,60"],
        {"probe": "deriv", "manifold": "torus", "n": 2, "grid": SMALL,
         "alpha": [1, 0], "beta": [1, 0]},
    ),
    "band-torus": (
        ["band", "--manifold", "torus", "--grid", "20,40,60"],
        {"probe": "band", "manifold": "torus", "n": 2, "grid": SMALL},
    ),
    "hoelder-torus": (
        ["hoelder", "--manifold", "torus", "--delta", "0.5", "--direction=0.8,0.6",
         "--grid", "20,40,60"],
        {"probe": "hoelder", "manifold": "torus", "n": 2, "grid": SMALL, "delta": 0.5,
         "direction": [0.8, 0.6], "taus": TAUS},
    ),
    "smoothed-torus": (
        ["smoothed", "--eps", "100", "--grid", "20,40,60"],
        {"probe": "smoothed", "manifold": "torus", "n": 2, "grid": SMALL, "eps": 100.0},
    ),
    # the benchmark's eps: shells out to radius 300 + 4000/4 = 1300
    "smoothed-torus-eps4": (
        ["smoothed", "--eps", "4", "--grid", "50,300"],
        {"probe": "smoothed", "manifold": "torus", "n": 2, "grid": [50.0, 300.0], "eps": 4.0},
    ),
    "weyl-sphere": (
        ["weyl", "--manifold", "sphere", "--grid", "20,40,60"],
        {"probe": "weyl", "manifold": "sphere", "n": 2, "grid": [20, 40, 60]},
    ),
    "offdiag-sphere": (
        ["offdiag", "--manifold", "sphere", "--tau", "1.25", "--grid", "20,40,60"],
        {"probe": "offdiag", "manifold": "sphere", "n": 2, "grid": [20, 40, 60], "tau": 1.25},
    ),
    "band-sphere": (
        ["band", "--manifold", "sphere", "--grid", "20,40,60"],
        {"probe": "band", "manifold": "sphere", "n": 2, "grid": SMALL},
    ),
    "hoelder-sphere": (
        ["hoelder", "--manifold", "sphere", "--delta", "0.5", "--grid", "20,40,60"],
        {"probe": "hoelder", "manifold": "sphere", "n": 2, "grid": SMALL, "delta": 0.5,
         "taus": TAUS},
    ),
    "lp-zonal-r6": (
        ["lp", "--family", "zonal", "--r", "6", "--s", "0.75", "--grid", "20,40,60"],
        {"probe": "lp", "manifold": "sphere", "n": 2, "grid": [20, 40, 60],
         "family": "zonal", "r": 6.0, "s": 0.75},
    ),
    "lp-hw-r4": (
        ["lp", "--family", "hw", "--r", "4", "--s", "1.5", "--grid", "20,40,60"],
        {"probe": "lp", "manifold": "sphere", "n": 2, "grid": [20, 40, 60],
         "family": "hw", "r": 4.0, "s": 1.5},
    ),
    "cksigma-1": (
        ["cksigma", "--sigma", "1", "--grid", "20,40,60"],
        {"probe": "cksigma", "manifold": "sphere", "n": 2, "grid": [20, 40, 60], "sigma": 1.0},
    ),
    "nodal-sphere": (
        ["nodal", "--grid", "20,40,60"],
        {"probe": "nodal", "manifold": "sphere", "n": 2, "grid": [20, 40, 60]},
    ),
}


@pytest.fixture(scope="module")
def oracle():
    return _load_oracle()


@pytest.mark.parametrize("name", list(CASES))
def test_traced_run_matches_oracle(name, oracle, tmp_path):
    argv, spec = CASES[name]
    spans, out = tmp_path / "spans.json", tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(speclab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), str(spans), name, "--",
         *argv, "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(spans.read_text(encoding="utf-8"))["invocation"] == name

    probe = spec["probe"]
    tables = sorted(p.name for p in out.iterdir() if p.name != "summary.json")
    assert (out / "summary.json").is_file()
    assert [re.fullmatch(rf"{probe}_\d{{8}}T\d+Z\.(csv|json|svg)", n) is not None
            for n in tables] == [True] * 3, tables
    assert len({Path(n).stem for n in tables}) == 1, tables

    tables, missing = oracle.load_tables(out, probe)
    assert missing is None, missing
    assert oracle.check_tables(oracle.Oracle().reference(spec), tables) == []
