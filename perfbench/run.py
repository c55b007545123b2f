"""speclab benchmark: whole CLI runs, checked against an independent oracle.

    python3 perfbench/run.py --workload torus_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (it runs `src/speclab` with
PYTHONPATH=src).  One run:

1. times SETUP_REPEATS fresh interpreters that only `import speclab.cli`;
2. repeats passes over the workload's CLI invocations until --seconds have
   passed.  Each pass is a closed loop with one CLI child at a time; it gets a
   fresh SPECLAB_CACHE (cold at the start of the pass, shared within it) and
   every invocation its own --out and working directory.  A child's wall time
   is taken around it; its CPU time and max RSS come from os.wait4.  With
   --trace 1 the passes alternate untraced and traced (perfbench/tracer.py)
   children;
3. checks every written table against perfbench/oracle.py, outside the timed
   loop, and feeds the oracle perturbed copies of each invocation's first
   readable tables, each of which it must reject;
4. prints a JSON run record (the drawn inputs, per-invocation medians), then
   the result as the last line: {"correct", "attempted", "failed", "metrics"}.

End-to-end metrics (--trace 0), from the children of this run only:
  wall_s       sum over the invocations of each one's median wall time
  cpu_s        the same for the children's user+sys time
  setup_s      median time of a fresh interpreter importing speclab.cli
  peak_rss_mb  largest over the invocations of each one's median max RSS
  ok_frac      invocations that exited 0 and matched the oracle, over attempted
With --trace 1 the metrics are the per-layer ones of perfbench/tracer.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import tracer
from workloads import WORKLOADS, Invocation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# a run must end within 180 s: children still running at this point are killed
# (and count as failed), and no new pass starts after --seconds
RUN_DEADLINE_S = 165.0
# what the `speclab` console script runs
CLI_ENTRY = "from speclab.cli import main; main()"


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int


@dataclass
class Invoked:
    index: int
    traced: bool
    run: ChildRun
    out_dir: Path
    spans: Path | None


def run_child(cmd: list[str], cwd: Path, env: dict, log: Path, deadline: float) -> ChildRun:
    """Run one child to completion; wall from the parent, CPU and RSS from wait4."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=fh, stderr=fh)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("SPECLAB_CACHE", None)
    return env


def time_setup(work: Path, env: dict, deadline: float) -> list[float]:
    cmd = [sys.executable, "-c", "import speclab.cli"]
    # the first import may compile bytecode; users of an installed package never pay that
    warm = run_child(cmd, work, env, work / "setup.log", deadline)
    if warm.rc != 0:
        raise RuntimeError(f"`import speclab.cli` failed (rc {warm.rc}); see {work / 'setup.log'}")
    return [run_child(cmd, work, env, work / "setup.log", deadline).wall_s for _ in range(SETUP_REPEATS)]


def run_pass(workload: tuple[Invocation, ...], pass_dir: Path, traced: bool, env: dict, deadline: float) -> list[Invoked]:
    cache = pass_dir / "cache"
    env = dict(env, SPECLAB_CACHE=str(cache))
    done = []
    for i, inv in enumerate(workload):
        cwd = pass_dir / f"{i}-{inv.label}"
        cwd.mkdir(parents=True)
        out = cwd / "out"
        args = [*inv.argv, "--out", str(out)]
        spans = cwd / "spans.json" if traced else None
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), f"{pass_dir.name}/{i}", "--", *args]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *args]
        done.append(Invoked(i, traced, run_child(cmd, cwd, env, cwd / "log.txt", deadline), out, spans))
    shutil.rmtree(cache, ignore_errors=True)
    return done


def verify(workload: tuple[Invocation, ...], passes: list[list[Invoked]]) -> tuple[int, list[str]]:
    """Count failed invocations; the oracle self-check must reject every perturbed copy."""
    ref_oracle = oracle.Oracle()
    refs = [ref_oracle.reference(inv.spec) for inv in workload]
    failed, problems, first_tables = 0, [], {}
    for runs in passes:
        for r in runs:
            inv = workload[r.index]
            errors = [] if r.run.rc == 0 else [f"exit code {r.run.rc}"]
            if not errors:
                tables, missing = oracle.load_tables(r.out_dir, inv.spec["probe"])
                errors = [missing] if missing else oracle.check_tables(refs[r.index], tables)
                if tables is not None:
                    first_tables.setdefault(r.index, tables)
            if errors:
                failed += 1
                problems.append(f"{inv.label} ({r.out_dir.parent.name}): {'; '.join(errors[:3])}")
    for i, inv in enumerate(workload):
        if i not in first_tables:
            problems.append(f"self-check skipped for {inv.label}: no readable tables")
            continue
        lattice = None
        if inv.spec["manifold"] == "torus" and inv.spec["probe"] == "weyl":
            lattice = ref_oracle.lattice(inv.spec["n"], max(inv.spec["grid"]))
        missed = oracle.self_check(refs[i], first_tables[i], lattice)
        if missed:
            problems.append(f"self-check: oracle accepted perturbed {inv.label} tables: {missed}")
    return failed, problems


def _per_invocation_median(runs: list[Invoked], field: str) -> dict[int, float]:
    by_index: dict[int, list[float]] = {}
    for r in runs:
        by_index.setdefault(r.index, []).append(getattr(r.run, field))
    return {i: statistics.median(v) for i, v in by_index.items()}


def end_to_end(untraced: list[Invoked], setup: list[float], failed: int, attempted: int) -> dict:
    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "wall_s": metric(sum(_per_invocation_median(untraced, "wall_s").values()), "s"),
        "cpu_s": metric(sum(_per_invocation_median(untraced, "cpu_s").values()), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(max(_per_invocation_median(untraced, "rss_mb").values()), "MB"),
        "ok_frac": metric(1.0 - failed / attempted, "fraction"),
    }


def per_layer(untraced: list[Invoked], traced_passes: list[list[Invoked]]) -> dict:
    records = []
    for runs in traced_passes:
        records.append([json.loads(r.spans.read_text(encoding="utf-8")) for r in runs if r.spans.is_file()])
    traced = [r for runs in traced_passes for r in runs]
    plain_wall = sum(_per_invocation_median(untraced, "wall_s").values())
    traced_wall = sum(_per_invocation_median(traced, "wall_s").values())
    return tracer.layer_metrics(records, traced_wall / plain_wall - 1.0)


def run_record(args, workload: tuple[Invocation, ...], setup: list[float], passes: list[list[Invoked]]) -> dict:
    """What this run drew from its seed and what each invocation measured."""
    untraced = [r for runs in passes for r in runs if not r.traced]
    medians = {f: _per_invocation_median(untraced, f) for f in ("wall_s", "cpu_s", "rss_mb")}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "setup_s": setup,
        "pass_wall_s": [[r.run.wall_s for r in runs] for runs in passes if not runs[0].traced],
        "invocations": [
            {"label": inv.label, "argv": list(inv.argv), "drawn": inv.drawn,
             **{f: medians[f].get(i) for f in medians}}
            for i, inv in enumerate(workload)
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "speclab" / "cli.py").is_file():
        print(f"error: no speclab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload](args.seed)
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = child_env()
        setup = time_setup(work, env, deadline)
        passes: list[list[Invoked]] = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(workload, work / f"pass{len(passes)}", traced, env, deadline))
            enough = time.perf_counter() - start >= args.seconds
            if enough and (not args.trace or len(passes) >= 2):
                break
        failed, problems = verify(workload, passes)
        for line in problems:
            print(line, file=sys.stderr)
        attempted = sum(len(runs) for runs in passes)
        untraced = [r for runs in passes for r in runs if not r.traced]
        if args.trace:
            metrics = per_layer(untraced, [runs for runs in passes if runs[0].traced])
        else:
            metrics = end_to_end(untraced, setup, failed, attempted)
        print(json.dumps(run_record(args, workload, setup, passes)))
        result = {"correct": failed == 0 and not problems, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
