"""Golden digests: every pinned CLI run writes the bytes it wrote when pinned.

Each run goes in process through `cli.run_command` into a directory of its
own.  Its exit code, the SHA-256 of its stdout (the output directory and the
timestamps in the printed paths masked) and of its stderr, and the SHA-256
of every file it writes (the timestamp in the name masked) must match
`golden_digests.json`.  The test fails with the name of each run and file
whose digest moved.

A change that moves a digest on purpose rewrites the table with

    PYTHONPATH=src python tests/test_golden_digests.py

which prints each run whose entry it added or rewrote; the change then lists
each moved run and its reason in CHANGES.md.  A new run is added to `RUNS`
and pinned the same way.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

from speclab import cli

TABLE = Path(__file__).with_name("golden_digests.json")

RUNS = (
    # every probe at its default grid, n = 2 and 3 where they differ
    "weyl --manifold torus",
    "weyl --manifold torus --n 3",
    "weyl --manifold sphere",
    "weyl --manifold sphere --n 3",
    "offdiag --manifold torus --tau 2",
    "offdiag --manifold torus --tau 2 --n 3",
    "offdiag --manifold sphere --tau 2",
    "offdiag --manifold sphere --tau 3.8317059702075125",
    "difference --manifold torus --tau 1.5",
    "difference --manifold sphere --tau 1.5",
    "difference --manifold sphere --tau 1.5 --n 3",
    "deriv --alpha 1,0 --beta 1,0",
    "deriv --alpha 2,0 --beta 0,0",
    "deriv --alpha 1,0 --beta 0,0",
    "deriv --n 3 --alpha 1,0,0 --beta 1,0,0",
    "band --manifold torus",
    "band --manifold sphere",
    "band --manifold sphere --n 3",
    "hoelder --manifold torus --delta 0.5",
    "hoelder --manifold sphere --delta 0.5",
    "hoelder --manifold sphere --n 3 --delta 0.25",
    "lp --family zonal --r inf --s 1",
    "lp --family zonal --r 6 --s 0.5",
    "lp --family zonal --r 3 --s 0",
    "lp --family zonal --r 4 --s 0 --n 3",
    "lp --family hw --r 4 --s 0",
    "lp --family hw --r 4 --s 300",
    "cksigma --sigma 0",
    "cksigma --sigma 0.5",
    "cksigma --sigma 1",
    "cksigma --sigma 1 --n 3",
    "nodal",
    "nodal --n 3",
    "nodal --n 40",
    "smoothed --eps 4",
    "smoothed --n 3 --eps 4 --grid 10:60:5",
    "weyl --manifold torus --n 4",
    "selftest",
    "smoothed --eps 4 --threads 2",
    # |S^dim| past dim = 342: refused with exit 2
    "hoelder --manifold sphere --delta 0.5 --n 400 --grid 20,40,60",
    "nodal --n 400 --grid 20,40,60",
    "cksigma --sigma 0 --n 400 --grid 20,40,60",
    "lp --family zonal --r inf --s 0 --n 400 --grid 20,40,60",
    "lp --family hw --r 4 --s 0 --n 400",
    # a zonal pole value past the float range: refused with exit 3
    "cksigma --sigma 1 --n 150 --grid 5000,7000",
    "cksigma --sigma 0 --n 150 --grid 5000,7000",
    "lp --family zonal --r inf --s 0 --n 150 --grid 5000,7000",
    # a zero limit forms no growth: exit 0 with a blank ratio column
    "offdiag --manifold sphere --n 150 --tau 83.07089852831263 --grid 20,70",
)

# the timestamp that cli._timestamp puts in every file name
_STAMP = re.compile(r"\d{8}T\d{12}Z")


def _digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def record(run: str, out: Path) -> dict:
    """Run `speclab <run> --out <out>` in process; its exit code and digests."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run_command([*run.split(), "--out", str(out)])

    def mask(text: str) -> str:
        return _STAMP.sub("<timestamp>", text.replace(str(out), "<out>"))

    files = {}
    if out.exists():
        files = {mask(p.name): _digest(p.read_bytes()) for p in sorted(out.iterdir())}
    return {
        "exit": code,
        "stdout": _digest(mask(stdout.getvalue())),
        "stderr": _digest(mask(stderr.getvalue())),
        "files": files,
    }


def record_all(root: Path) -> dict:
    return {run: record(run, root / str(i)) for i, run in enumerate(RUNS)}


def test_golden_digests(tmp_path):
    golden = json.loads(TABLE.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(RUNS), "the table and RUNS list different runs"
    moved = []
    for run, got in record_all(tmp_path).items():
        want = golden[run]
        for key in ("exit", "stdout", "stderr"):
            if got[key] != want[key]:
                moved.append(f"{run}: {key}")
        for name in sorted(got["files"].keys() | want["files"].keys()):
            if got["files"].get(name) != want["files"].get(name):
                moved.append(f"{run}: {name}")
    assert not moved, "digests moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    old = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = record_all(Path(tmp))
    for run in RUNS:
        if run not in old:
            print(f"added: {run}")
        elif old[run] != new[run]:
            print(f"rewritten: {run}")
    for run in old.keys() - new.keys():
        print(f"removed: {run}")
    TABLE.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
