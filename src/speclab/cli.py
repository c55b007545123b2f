"""Batch command-line front end.

One probe per invocation: parse flags and/or a flat key=value config file,
run the probe, persist CSV/JSON/SVG tables plus a summary.json with the
exponent fit.  Exit codes: 0 success, 2 configuration error, 3 resource
limit; file names carry a timestamp but file contents never do.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import output, probes, selftest
from .analytic import MultiIndex
from .errors import ConfigError, DomainError, RangeError, ResourceLimitError
from .torus import SmoothingWindow

__all__ = ["RunConfig", "run_command", "main"]

PROBES = (
    "weyl",
    "offdiag",
    "difference",
    "deriv",
    "band",
    "hoelder",
    "lp",
    "cksigma",
    "nodal",
    "smoothed",
)

# which optional parameters each probe requires (beyond --n and the grid)
_REQUIRED = {
    "weyl": ("manifold",),
    "offdiag": ("manifold", "tau"),
    "difference": ("manifold", "tau"),
    "deriv": ("alpha", "beta"),
    "band": ("manifold",),
    "hoelder": ("manifold", "delta"),
    "lp": ("family", "r", "s"),
    "cksigma": ("sigma",),
    "nodal": (),
    "smoothed": (),
}

_CONFIG_KEYS = {
    "probe",
    "manifold",
    "n",
    "grid",
    "tau",
    "delta",
    "sigma",
    "r",
    "s",
    "family",
    "alpha",
    "beta",
    "eps",
    "direction",
    "out",
    "formats",
    "threads",
}

_FORMATS = ("csv", "json", "svg")

_THREADS_HELP = "accepted for compatibility (>= 1); has no effect, probes run serially"

# a start:stop:step grid longer than this is refused before it is built
_MAX_GRID_POINTS = 10_000


@dataclass
class RunConfig:
    probe: str
    n: int = 2
    manifold: str | None = None
    grid: list[float] | None = None
    tau: float | None = None
    delta: float | None = None
    sigma: float | None = None
    r: float | None = None
    s: float | None = None
    family: str | None = None
    alpha: MultiIndex | None = None
    beta: MultiIndex | None = None
    eps: float | None = None
    direction: tuple[float, ...] | None = None
    out: Path = field(default_factory=lambda: Path("speclab_out"))
    formats: tuple[str, ...] = _FORMATS

    def require(self) -> None:
        for key in _REQUIRED[self.probe]:
            if getattr(self, key) is None:
                raise ConfigError(f"probe '{self.probe}' requires --{key}")
        if self.manifold is not None and self.manifold not in ("torus", "sphere"):
            raise ConfigError(f"--manifold must be 'torus' or 'sphere', got {self.manifold!r}")
        if self.family is not None and self.family not in ("zonal", "hw"):
            raise ConfigError(f"--family must be 'zonal' or 'hw', got {self.family!r}")
        bad = [f for f in self.formats if f not in _FORMATS]
        if bad:
            raise ConfigError(f"unknown output format(s): {', '.join(bad)}")


# --------------------------------------------------------------------------
# flag and config-file parsing


def _parse_number(value, key: str, kind=float):
    """Convert a flag or config value to `kind`, refusing non-finite numbers."""
    try:
        number = kind(value)
    except ValueError as exc:
        raise ConfigError(f"cannot parse --{key} {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"--{key} must be finite, got {value!r}")
    return number


def _check_threads(value) -> None:
    """--threads selects nothing (every probe runs serially) but must be >= 1."""
    if value is not None and _parse_number(value, "threads", int) < 1:
        raise ConfigError("--threads must be >= 1")


def _parse_grid(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"cannot parse --grid {text!r}: expected start:stop:step")
        start, stop, step = (_parse_number(part, "grid") for part in parts)
        if step <= 0.0:
            raise ConfigError(f"--grid step must be positive, got {step:g}")
        if (stop - start) / step > _MAX_GRID_POINTS:
            raise ConfigError(f"--grid {text!r} spans more than {_MAX_GRID_POINTS} steps")
        vals = []
        v = start
        # the length guard stops a step too small to change v; the repeated
        # values are then refused below
        while v <= stop + 1e-9 * max(1.0, abs(stop)) and len(vals) <= _MAX_GRID_POINTS:
            vals.append(round(v, 12))
            v += step
    else:
        vals = [_parse_number(tok, "grid") for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ConfigError(f"--grid {text!r} produced no values")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError("--grid values must be strictly increasing")
    return vals


def _parse_multi_index(text: str, flag: str) -> MultiIndex:
    try:
        return MultiIndex(tuple(int(tok) for tok in text.split(",")))
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"cannot parse --{flag} {text!r}: {exc}") from exc


def _parse_r(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return _parse_number(text, "r")


def _parse_direction(text: str) -> tuple[float, ...]:
    return tuple(_parse_number(tok, "direction") for tok in text.split(","))


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
        if key not in _CONFIG_KEYS:
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
    for name in PROBES:
        p = sub.add_parser(name, help=f"run the {name} probe")
        p.add_argument("--config", type=Path, default=None, help="flat key=value config file")
        p.add_argument("--manifold", choices=("torus", "sphere"))
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--grid", type=str, default=None, help="start:stop:step or v1,v2,...")
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--sigma", type=float, default=None)
        p.add_argument("--r", type=str, default=None, help="norm exponent >= 2, or 'inf'")
        p.add_argument("--s", type=float, default=None)
        p.add_argument("--family", choices=("zonal", "hw"), default=None)
        p.add_argument("--alpha", type=str, default=None, help="comma-separated multi-index")
        p.add_argument("--beta", type=str, default=None, help="comma-separated multi-index")
        p.add_argument("--eps", type=float, default=None, help="window Fourier half-width")
        p.add_argument("--direction", type=str, default=None, help="comma-separated vector")
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--formats", type=str, default=None, help="subset of csv,json,svg")
        p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    st = sub.add_parser("selftest", help="run the invariant battery")
    st.add_argument("--out", type=Path, default=None)
    st.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    return parser


def parse_run_config(args: argparse.Namespace) -> RunConfig:
    file_map: dict[str, str] = {}
    if args.config is not None:
        file_map = load_config_file(args.config)
        if "probe" in file_map and file_map["probe"] != args.probe:
            raise ConfigError(
                f"config file names probe {file_map['probe']!r} but {args.probe!r} was invoked"
            )

    def merged(key: str, convert=str):
        """The flag if given, else the config value, passed through `convert`."""
        value = getattr(args, key)
        if value is None:
            value = file_map.get(key)
        return None if value is None else convert(value)

    def merged_number(key: str, kind=float):
        return merged(key, lambda value: _parse_number(value, key, kind))

    cfg = RunConfig(probe=args.probe)
    n = merged_number("n", int)
    if n is not None:
        cfg.n = n
    cfg.manifold = merged("manifold")
    cfg.grid = merged("grid", _parse_grid)
    cfg.tau = merged_number("tau")
    cfg.delta = merged_number("delta")
    cfg.sigma = merged_number("sigma")
    cfg.r = merged("r", _parse_r)
    cfg.s = merged_number("s")
    cfg.family = merged("family")
    cfg.alpha = merged("alpha", lambda text: _parse_multi_index(text, "alpha"))
    cfg.beta = merged("beta", lambda text: _parse_multi_index(text, "beta"))
    cfg.eps = merged_number("eps")
    cfg.direction = merged("direction", _parse_direction)
    out = merged("out", Path)
    if out is not None:
        cfg.out = Path(out)
    formats = merged("formats")
    if formats is not None:
        cfg.formats = tuple(tok.strip() for tok in formats.split(",") if tok.strip())
    _check_threads(merged("threads"))
    cfg.require()
    return cfg


# --------------------------------------------------------------------------
# execution


def execute_probe(cfg: RunConfig) -> probes.ProbeResult:
    if cfg.probe == "weyl":
        return probes.probe_weyl(cfg.manifold, cfg.n, cfg.grid)
    if cfg.probe == "offdiag":
        return probes.probe_offdiag(
            cfg.manifold, cfg.n, cfg.tau, cfg.grid, direction=cfg.direction
        )
    if cfg.probe == "difference":
        return probes.probe_difference(
            cfg.manifold, cfg.n, cfg.tau, cfg.grid, direction=cfg.direction
        )
    if cfg.probe == "deriv":
        return probes.probe_derivative(cfg.n, cfg.alpha, cfg.beta, cfg.grid)
    if cfg.probe == "band":
        return probes.probe_band(cfg.manifold, cfg.n, cfg.grid)
    if cfg.probe == "hoelder":
        return probes.probe_hoelder(
            cfg.manifold, cfg.n, cfg.delta, None, cfg.grid, direction=cfg.direction
        )
    if cfg.probe == "lp":
        return probes.probe_lp(cfg.family, cfg.r, cfg.s, cfg.grid, n=cfg.n)
    if cfg.probe == "cksigma":
        return probes.probe_cksigma(cfg.sigma, cfg.grid, n=cfg.n)
    if cfg.probe == "nodal":
        return probes.probe_nodal(cfg.grid, n=cfg.n)
    if cfg.probe == "smoothed":
        window = SmoothingWindow(eps=cfg.eps) if cfg.eps is not None else None
        return probes.probe_smoothed(cfg.n, window, cfg.grid)
    raise ConfigError(f"unknown probe {cfg.probe!r}")


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")


def run_probe(cfg: RunConfig) -> list[Path]:
    result = execute_probe(cfg)
    fit = probes.scaling_fit(result)
    stem = f"{cfg.probe}_{_timestamp()}"
    written = []
    if "csv" in cfg.formats:
        written.append(output.write_csv(result, cfg.out / f"{stem}.csv"))
    if "json" in cfg.formats:
        written.append(output.write_json(result, cfg.out / f"{stem}.json"))
    if "svg" in cfg.formats:
        written.append(output.write_svg(result, fit, cfg.out / f"{stem}.svg"))
    written.append(output.write_summary(result, fit, cfg.out / "summary.json"))
    return written


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

    if args.probe == "selftest":
        try:
            _check_threads(args.threads)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        out = args.out if args.out is not None else Path("speclab_out") / "selftest"
        failures = selftest.run_selftest(out_dir=out)
        return 0 if failures == 0 else 1

    try:
        cfg = parse_run_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        written = run_probe(cfg)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DomainError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
