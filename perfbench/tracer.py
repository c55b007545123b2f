"""Per-layer tracing of one speclab CLI run, installed from outside the program.

Run as a script, this is a stand-in for the `speclab` console script:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json INVOCATION_ID -- weyl --manifold torus

It times the imports, wraps the public functions of speclab.cli, .probes,
.torus, .sphere, .analytic and .output (in every namespace that bound them,
including `from .analytic import ...` copies), runs `speclab.cli.run_command`
and writes the spans and work counters to SPANS.json.  Imported, it offers
`layer_metrics`, which turns those files into the benchmark's per-layer
metrics.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

LAYER_MODULES = ("cli", "probes", "torus", "sphere", "analytic", "output")

# scalar helpers called inside per-degree loops (tens of thousands of calls per
# run); a span each would cost more than the work, so their time stays in the
# caller's self time
UNTRACED = {
    "analytic.gamma",
    "analytic.double_factorial",
    "analytic.ball_volume",
    "analytic.sphere_area",
    "analytic.gegenbauer_at_one",
    "sphere.multiplicity",
    "torus.norm_sq_bound",
    "output.format_float",
}

# span name -> the per-layer metric its inclusive time counts towards
GROUPS = {
    "cli.import": "cli.import_s",
    "analytic.import": "analytic.import_s",
    "cli.run_command": "cli.run_s",
    "cli.parse_run_config": "cli.parse_s",
    "cli.load_config_file": "cli.parse_s",
    "torus.enumerate_lattice": "torus.enumerate_s",
    "torus.spectral_function_torus": "torus.sum_s",
    "torus.derivative_diagonal_sum": "torus.sum_s",
    "torus.band_diagonal_sum": "torus.sum_s",
    "torus.smoothed_diagonal_sum": "torus.sum_s",
    "analytic.gauss_legendre_rule": "analytic.quad_rule_s",
    "analytic.gegenbauer_zeros": "analytic.zeros_s",
    "analytic.phi_kernel": "analytic.phi_s",
    "analytic.phi_kernel_bessel": "analytic.phi_s",
    "analytic.phi_kernel_zero": "analytic.phi_s",
    "sphere.zonal_norm": "sphere.norm_s",
    "sphere.hw_norm": "sphere.norm_s",
    "sphere.hw_norm_quad": "sphere.norm_s",
    "sphere.hw_raw_norm": "sphere.norm_s",
    "sphere.zonal_gradient_sup": "sphere.extremum_s",
    "sphere.nadirashvili_ratio": "sphere.extremum_s",
    "sphere.nodal_gap_zonal": "sphere.nodal_s",
    "sphere.spectral_function_sphere": "sphere.kernel_s",
    "sphere.band_kernel_sphere": "sphere.kernel_s",
    "sphere.addition_kernel": "sphere.kernel_s",
    "probes.scaling_fit": "probes.fit_s",
    "probes.fit_scaling": "probes.fit_s",
    "output.write_csv": "output.write_s",
    "output.write_json": "output.write_s",
    "output.write_svg": "output.write_s",
    "output.write_summary": "output.write_s",
}

# (name, unit) of every per-layer metric, in report order
METRICS = (
    ("cli.import_s", "s"),
    ("analytic.import_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.run_s", "s"),
    ("torus.enumerate_s", "s"),
    ("torus.enumerate_calls", "count"),
    ("torus.points_enumerated", "count"),
    ("torus.cache_hit_ratio", "ratio"),
    ("torus.cache_bytes_written", "bytes"),
    ("torus.sum_s", "s"),
    ("torus.sum_calls", "count"),
    ("torus.kernel_points", "count"),
    ("analytic.quad_rule_s", "s"),
    ("analytic.quad_rule_calls", "count"),
    ("analytic.quad_rule_hit_ratio", "ratio"),
    ("analytic.quad_nodes_built", "count"),
    ("analytic.zeros_s", "s"),
    ("analytic.phi_s", "s"),
    ("sphere.norm_s", "s"),
    ("sphere.extremum_s", "s"),
    ("sphere.nodal_s", "s"),
    ("sphere.kernel_s", "s"),
    ("sphere.degrees_summed", "count"),
    ("probes.self_s", "s"),
    ("probes.fit_s", "s"),
    ("probes.grid_points", "count"),
    ("output.write_s", "s"),
    ("output.bytes_written", "bytes"),
    ("trace.overhead_frac", "fraction"),
)


class Recorder:
    """Spans (id, parent, name, start, end) kept in memory, plus work counters."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, key: str, value: float = 1.0) -> None:
        """Bump a work counter; pool threads report concurrently, so under a lock."""
        with self._lock:
            self.counters[key] += value

    def name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, idx: int):
        stack = self._stack()
        # a pool worker's outermost span belongs to whatever the main thread
        # is inside, which is the probe that submitted the work
        parents = stack or self._main_stack
        parent = parents[-1] if parents else -1
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, idx, start, end))

    def wrap(self, name: str, fn, before=None, after=None):
        idx = self.name_index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            with self.span(idx):
                result = fn(*args, **kwargs)
            if after:
                after(state, args, kwargs, result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper


# --------------------------------------------------------------------------
# counters taken at the layer boundaries


def _cache_listing() -> dict[str, int]:
    path = os.environ.get("SPECLAB_CACHE", "cache")
    try:
        return {e.name: e.stat().st_size for e in os.scandir(path) if e.is_file()}
    except FileNotFoundError:
        return {}


def _hooks(rec: Recorder, originals: dict):
    """before/after callbacks by qualified name; they run outside the spans."""
    add = rec.add
    norm_sq_bound = originals["torus.norm_sq_bound"]
    max_degree = originals["sphere.max_degree"]
    band_degrees = originals["sphere.band_degrees"]
    quad_rule = originals["analytic.gauss_legendre_rule"]

    def after_with_args(name, count):
        """An after-hook that sees the call's arguments by parameter name."""
        signature = inspect.signature(originals[name])

        def after(_, args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            count(bound.arguments, result)

        return None, after

    def enumerate_after(before, args, kwargs, result):
        new = set(_cache_listing().items()) - set(before.items())
        add("torus.enumerate_calls", 1)
        add("torus.points_enumerated", result.count)
        if new:
            add("torus.cache_bytes_written", sum(size for _, size in new))
        else:
            add("torus.cache_hits", 1)

    def torus_sum(radius_of):
        def count(a, result):
            add("torus.sum_calls", 1)
            radius = radius_of(a)
            if a["enum"] is not None and radius is not None:
                add("torus.kernel_points", int((a["enum"].norms_sq() <= norm_sq_bound(radius)).sum()))
        return count

    def smoothed_radius(a):
        window = a["window"] if a["window"] is not None else sys.modules["speclab.torus"].SmoothingWindow()
        return a["lam"] + window.truncation_radius

    def sphere_sum(a, result):
        add("sphere.degrees_summed", max_degree(a["n"], a["lam"]) + 1)

    def band_recurrence(a, result):
        # the partial sum runs the Gegenbauer recurrence up from degree 0 even for a band
        degs = band_degrees(a["n"], a["lam"])
        add("sphere.degrees_summed", degs.stop if len(degs) else 0)

    def quad_after(misses, args, kwargs, result):
        add("analytic.quad_rule_calls", 1)
        if quad_rule.cache_info().misses > misses:
            add("analytic.quad_nodes_built", result.order)

    def grid_points(_, args, kwargs, result):
        add("probes.grid_points", len(result.rows))

    def bytes_written(_, args, kwargs, result):
        add("output.bytes_written", os.path.getsize(result))

    hooks = {
        "torus.enumerate_lattice": (lambda args, kwargs: _cache_listing(), enumerate_after),
        "torus.spectral_function_torus": after_with_args(
            "torus.spectral_function_torus", torus_sum(lambda a: a["lam"])),
        "torus.derivative_diagonal_sum": after_with_args(
            "torus.derivative_diagonal_sum",
            torus_sum(lambda a: a["lam"] if a["alpha"].same_parity(a["beta"]) else None)),
        "torus.band_diagonal_sum": after_with_args(
            "torus.band_diagonal_sum", torus_sum(lambda a: a["lam"] + 1.0)),
        "torus.smoothed_diagonal_sum": after_with_args(
            "torus.smoothed_diagonal_sum", torus_sum(smoothed_radius)),
        "analytic.gauss_legendre_rule": (lambda args, kwargs: quad_rule.cache_info().misses, quad_after),
        "sphere.spectral_function_sphere": after_with_args("sphere.spectral_function_sphere", sphere_sum),
        "sphere.band_kernel_sphere": after_with_args("sphere.band_kernel_sphere", band_recurrence),
    }
    for name in originals:
        if name.startswith("probes.probe_"):
            hooks[name] = (None, grid_points)
        elif name.startswith("output.write_"):
            hooks[name] = (None, bytes_written)
    return hooks


def install(rec: Recorder) -> dict:
    """Wrap every public function of the layer modules wherever it is bound."""
    mods = {name: sys.modules[f"speclab.{name}"] for name in LAYER_MODULES}
    originals = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            traceable = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
            if attr.startswith("_") or not traceable or obj.__module__ != mod.__name__:
                continue
            originals[f"{short}.{attr}"] = obj
    hooks = _hooks(rec, originals)
    wrapped = {}
    for name, fn in originals.items():
        if name in UNTRACED:
            continue
        before, after = hooks.get(name, (None, None))
        wrapped[id(fn)] = rec.wrap(name, fn, before, after)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "speclab" or mod_name.startswith("speclab."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not attr.startswith("__"):
                    setattr(mod, attr, wrapped[id(obj)])
    return originals


def _child_main(argv: list[str]) -> int:
    spans_path, invocation = argv[0], argv[1]
    cli_args = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    rec = Recorder()
    with rec.span(rec.name_index("cli.import")):
        with rec.span(rec.name_index("analytic.import")):
            import speclab.analytic  # noqa: F401  (numpy and scipy.linalg come with it)
        import speclab.cli
    originals = install(rec)
    quad_info = originals["analytic.gauss_legendre_rule"].cache_info()
    rc = sys.modules["speclab.cli"].run_command(cli_args)
    info = originals["analytic.gauss_legendre_rule"].cache_info()
    rec.counters["analytic.quad_rule_hits"] = info.hits - quad_info.hits
    rec.counters["analytic.quad_rule_misses"] = info.misses - quad_info.misses
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"invocation": invocation, "names": rec.names, "spans": rec.spans,
                   "counters": rec.counters}, fh)
    return rc


# --------------------------------------------------------------------------
# aggregation (runs in the benchmark process)


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def invocation_metrics(record: dict) -> dict[str, float]:
    """Layer times and counters of one traced CLI run."""
    names = record["names"]
    spans = {sid: (parent, names[idx], start, end) for sid, parent, idx, start, end in record["spans"]}
    children = defaultdict(list)
    for sid, (parent, _, start, end) in spans.items():
        children[parent].append((start, end))

    def self_time(sid):
        _, _, start, end = spans[sid]
        return (end - start) - _union_length(children[sid], start, end)

    def has_ancestor_in(sid, group):
        parent = spans[sid][0]
        while parent in spans:
            if GROUPS.get(spans[parent][1]) == group:
                return True
            parent = spans[parent][0]
        return False

    out = defaultdict(float)
    for sid, (_, name, start, end) in spans.items():
        group = GROUPS.get(name)
        if group and not has_ancestor_in(sid, group):
            out[group] += end - start
        if name == "cli.run_command":
            out["cli.parse_s"] += self_time(sid)  # argparse and the config merge
        if name.startswith("probes.probe_"):
            out["probes.self_s"] += self_time(sid)
    for key, value in record["counters"].items():
        out[key] += value
    return out


def pass_metrics(records: list[dict]) -> dict[str, float]:
    """Sum over the invocations of one pass, with ratios taken over the sums."""
    total = defaultdict(float)
    for record in records:
        for key, value in invocation_metrics(record).items():
            total[key] += value
    calls = total["torus.enumerate_calls"]
    total["torus.cache_hit_ratio"] = total["torus.cache_hits"] / calls if calls else 0.0
    lookups = total["analytic.quad_rule_hits"] + total["analytic.quad_rule_misses"]
    total["analytic.quad_rule_hit_ratio"] = total["analytic.quad_rule_hits"] / lookups if lookups else 0.0
    return total


def layer_metrics(passes: list[list[dict]], overhead_frac: float) -> dict[str, dict]:
    """Median over traced passes of each per-layer metric, in report form."""
    per_pass = [pass_metrics(records) for records in passes]
    out = {}
    for name, unit in METRICS:
        if name == "trace.overhead_frac":
            value = overhead_frac
        else:
            value = statistics.median(p.get(name, 0.0) for p in per_pass)
        out[name] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
