"""Batch command-line front end.

One probe per invocation: parse flags and/or a flat key=value config file,
run the probe, persist CSV/JSON/SVG tables plus a summary.json with the
exponent fit.  Exit codes: 0 success, 2 configuration or domain error, 3
resource or numerical limit; file names carry a timestamp but file contents
never do.

Two tables describe the probes: `_PARAMS` maps each parameter to its parser,
`_PROBES` maps each probe to the parameters it reads and to its call.  The
subcommand flags, the config keys, the required checks and dispatch all come
from them, and a flag or config key that a probe does not read is refused.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

from . import output, probes, selftest
from .analytic import MultiIndex
from .errors import ConfigError, DomainError, NumericError, ResourceLimitError, SpecLabError
from .torus import SmoothingWindow

__all__ = ["run_command", "main"]

_FORMATS = ("csv", "json", "svg")

# a start:stop:step grid longer than this is refused before it is built
_MAX_GRID_POINTS = 10_000


# --------------------------------------------------------------------------
# parameter parsers: each takes the flag or config text and the parameter name


def _parse_number(value, key: str, kind=float):
    """Convert a flag or config value to `kind`, refusing non-finite numbers."""
    try:
        number = kind(value)
    except ValueError as exc:
        raise ConfigError(f"cannot parse --{key} {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"--{key} must be finite, got {value!r}")
    return number


def _parse_int(text: str, key: str) -> int:
    return _parse_number(text, key, int)


def _parse_threads(text: str, key: str) -> int:
    """--threads selects nothing (every probe runs serially) but must be >= 1."""
    threads = _parse_number(text, key, int)
    if threads < 1:
        raise ConfigError("--threads must be >= 1")
    return threads


def _choice(*options: str):
    def parse(text: str, key: str) -> str:
        if text not in options:
            raise ConfigError(f"--{key} must be {' or '.join(map(repr, options))}, got {text!r}")
        return text

    return parse


def _parse_grid(text: str, key: str = "grid") -> list[float]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"cannot parse --{key} {text!r}: expected start:stop:step")
        start, stop, step = (_parse_number(part, key) for part in parts)
        if step <= 0.0:
            raise ConfigError(f"--{key} step must be positive, got {step:g}")
        if (stop - start) / step > _MAX_GRID_POINTS:
            raise ConfigError(f"--{key} {text!r} spans more than {_MAX_GRID_POINTS} steps")
        vals = []
        v = start
        # the length guard stops a step too small to change v; the repeated
        # values are then refused below
        while v <= stop + 1e-9 * max(1.0, abs(stop)) and len(vals) <= _MAX_GRID_POINTS:
            vals.append(round(v, 12))
            v += step
    else:
        vals = [_parse_number(tok, key) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ConfigError(f"--{key} {text!r} produced no values")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError(f"--{key} values must be strictly increasing")
    return vals


def _parse_multi_index(text: str, key: str) -> MultiIndex:
    try:
        return MultiIndex(tuple(int(tok) for tok in text.split(",")))
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"cannot parse --{key} {text!r}: {exc}") from exc


def _parse_r(text: str, key: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return _parse_number(text, key)


def _parse_direction(text: str, key: str) -> tuple[float, ...]:
    return tuple(_parse_number(tok, key) for tok in text.split(","))


def _parse_formats(text: str, key: str) -> tuple[str, ...]:
    formats = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    bad = [f for f in formats if f not in _FORMATS]
    if bad:
        raise ConfigError(f"unknown output format(s): {', '.join(bad)}")
    return formats


# --------------------------------------------------------------------------
# the two tables


class _Param(NamedTuple):
    parse: Callable[[str, str], object]
    help: str
    default: object = None


_THREADS_HELP = "accepted for compatibility (>= 1); has no effect, probes run serially"

_PARAMS = {
    "manifold": _Param(_choice("torus", "sphere"), "torus or sphere"),
    "n": _Param(_parse_int, "dimension (default 2)", 2),
    "grid": _Param(_parse_grid, "start:stop:step or v1,v2,..."),
    "tau": _Param(_parse_number, "rescaled distance lambda * dist(x, y)"),
    "delta": _Param(_parse_number, "Hoelder exponent in (0, 1)"),
    "sigma": _Param(_parse_number, "smoothness order in [0, 1]"),
    "r": _Param(_parse_r, "norm exponent >= 2, or 'inf'"),
    "s": _Param(_parse_number, "Sobolev order >= 0"),
    "family": _Param(_choice("zonal", "hw"), "zonal or hw"),
    "alpha": _Param(_parse_multi_index, "comma-separated multi-index"),
    "beta": _Param(_parse_multi_index, "comma-separated multi-index"),
    "eps": _Param(_parse_number, "window Fourier half-width"),
    "direction": _Param(_parse_direction, "comma-separated vector (torus only)"),
    "out": _Param(lambda text, key: Path(text), "output directory", Path("speclab_out")),
    "formats": _Param(_parse_formats, "subset of csv,json,svg", _FORMATS),
    "threads": _Param(_parse_threads, _THREADS_HELP),
}

# parameters every probe reads
_COMMON = ("out", "formats", "threads")


class _Probe(NamedTuple):
    required: tuple[str, ...]
    optional: tuple[str, ...]
    call: Callable[[dict], probes.ProbeResult]

    def params(self) -> tuple[str, ...]:
        return (*self.required, *self.optional, *_COMMON)


# the calls look up `probes.probe_*` at run time, so wrappers installed on the
# probes module see every call
_PROBES = {
    "weyl": _Probe(
        ("manifold",), ("n", "grid"),
        lambda a: probes.probe_weyl(a["manifold"], a["n"], a["grid"]),
    ),
    "offdiag": _Probe(
        ("manifold", "tau"), ("n", "grid", "direction"),
        lambda a: probes.probe_offdiag(
            a["manifold"], a["n"], a["tau"], a["grid"], direction=a["direction"]
        ),
    ),
    "difference": _Probe(
        ("manifold", "tau"), ("n", "grid", "direction"),
        lambda a: probes.probe_difference(
            a["manifold"], a["n"], a["tau"], a["grid"], direction=a["direction"]
        ),
    ),
    "deriv": _Probe(
        ("alpha", "beta"), ("n", "grid"),
        lambda a: probes.probe_derivative(a["n"], a["alpha"], a["beta"], a["grid"]),
    ),
    "band": _Probe(
        ("manifold",), ("n", "grid"),
        lambda a: probes.probe_band(a["manifold"], a["n"], a["grid"]),
    ),
    "hoelder": _Probe(
        ("manifold", "delta"), ("n", "grid", "direction"),
        lambda a: probes.probe_hoelder(
            a["manifold"], a["n"], a["delta"], None, a["grid"], direction=a["direction"]
        ),
    ),
    "lp": _Probe(
        ("family", "r", "s"), ("n", "grid"),
        lambda a: probes.probe_lp(a["family"], a["r"], a["s"], a["grid"], n=a["n"]),
    ),
    "cksigma": _Probe(
        ("sigma",), ("n", "grid"),
        lambda a: probes.probe_cksigma(a["sigma"], a["grid"], n=a["n"]),
    ),
    "nodal": _Probe(
        (), ("n", "grid"),
        lambda a: probes.probe_nodal(a["grid"], n=a["n"]),
    ),
    "smoothed": _Probe(
        (), ("n", "grid", "eps"),
        lambda a: probes.probe_smoothed(
            a["n"], None if a["eps"] is None else SmoothingWindow(eps=a["eps"]), a["grid"]
        ),
    ),
}


# --------------------------------------------------------------------------
# flag and config-file parsing


def load_config_file(path: Path) -> dict[str, str]:
    """Flat `key = value` lines; # starts a comment; unknown keys rejected."""
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key != "probe" and key not in _PARAMS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclab",
        description="spectral-asymptotics probes on the flat torus and the round sphere",
    )
    sub = parser.add_subparsers(dest="probe", metavar="PROBE")
    for name, probe in _PROBES.items():
        # no abbreviations: `cksigma --s 1` must not read as `--sigma 1`
        p = sub.add_parser(name, help=f"run the {name} probe", allow_abbrev=False)
        p.add_argument("--config", type=Path, default=None, help="flat key=value config file")
        for key in probe.params():
            p.add_argument(f"--{key}", help=_PARAMS[key].help)
    st = sub.add_parser("selftest", help="run the invariant battery")
    st.add_argument("--out", type=Path, default=None)
    st.add_argument("--threads", default=None, help=_THREADS_HELP)
    return parser


def parse_run_config(args: argparse.Namespace) -> dict:
    """The probe's parameters: each flag if given, else its config key, else its default."""
    probe = _PROBES[args.probe]
    file_map: dict[str, str] = {}
    if args.config is not None:
        file_map = load_config_file(args.config)
        if file_map.get("probe", args.probe) != args.probe:
            raise ConfigError(
                f"config file names probe {file_map['probe']!r} but {args.probe!r} was invoked"
            )
        unread = [key for key in file_map if key != "probe" and key not in probe.params()]
        if unread:
            raise ConfigError(
                f"{args.config}: probe {args.probe!r} does not read key(s) "
                + ", ".join(map(repr, unread))
            )
    values = {}
    for key in probe.params():
        text = getattr(args, key)
        if text is None:
            text = file_map.get(key)
        values[key] = _PARAMS[key].default if text is None else _PARAMS[key].parse(text, key)
    for key in probe.required:
        if values[key] is None:
            raise ConfigError(f"probe '{args.probe}' requires --{key}")
    return values


# --------------------------------------------------------------------------
# execution


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")


def run_probe(name: str, values: dict) -> list[Path]:
    result = _PROBES[name].call(values)
    fit = probes.scaling_fit(result)
    out, formats = values["out"], values["formats"]
    stem = f"{name}_{_timestamp()}"
    written = []
    if "csv" in formats:
        written.append(output.write_csv(result, out / f"{stem}.csv"))
    if "json" in formats:
        written.append(output.write_json(result, out / f"{stem}.json"))
    if "svg" in formats:
        written.append(output.write_svg(result, fit, out / f"{stem}.svg"))
    written.append(output.write_summary(result, fit, out / "summary.json"))
    return written


def _run(args: argparse.Namespace) -> int:
    if args.probe == "selftest":
        if args.threads is not None:
            _parse_threads(args.threads, "threads")
        out = args.out if args.out is not None else Path("speclab_out") / "selftest"
        return 0 if selftest.run_selftest(out_dir=out) == 0 else 1
    for path in run_probe(args.probe, parse_run_config(args)):
        print(path)
    return 0


def run_command(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "--config":
        # config-file-only invocation: pull the probe name from the file
        if len(argv) < 2:
            print("error: --config requires a file path", file=sys.stderr)
            return 2
        try:
            file_map = load_config_file(Path(argv[1]))
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if "probe" not in file_map:
            print(f"error: config file {argv[1]} does not name a probe", file=sys.stderr)
            return 2
        argv = [file_map["probe"], "--config", argv[1]] + argv[2:]

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.probe is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _run(args)
    except (ResourceLimitError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SpecLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
