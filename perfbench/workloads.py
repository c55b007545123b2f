"""The benchmark's three workloads: which CLI invocations run, and with what inputs.

A seed draws only inputs that leave the amount of work unchanged: tau, delta,
the off-diagonal direction, the Sobolev order s and the --alpha/--beta pair
at fixed total order.  Grids (the program defaults unless stated), n, eps, r,
sigma and --threads are fixed per workload.  Each invocation carries a `spec`
with everything the oracle needs to recompute its table independently.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# program defaults at the time the benchmark was written; the oracle expects
# exactly these abscissae, so a change of default grids shows as a failure
LAMBDA_GRID = [float(v) for v in range(50, 301, 25)]
DEGREE_GRID = list(range(20, 401, 20))
TAU_GRID = [0.5 * k for k in range(1, 13)]  # hoelder's default tau sweep
N3_GRID_ARG = "10:60:5"
N3_GRID = [float(v) for v in range(10, 61, 5)]

# Phi_2 first vanishes at j_{1,1} = 3.83 and Phi_3 at 4.49; drawing tau below
# both keeps every predicted limit nonzero, so no ratio column is blanked
TAU_RANGE = (0.5, 3.5)
DELTA_RANGE = (0.2, 0.8)
SOBOLEV_RANGE = (0.0, 2.0)

# --alpha/--beta pairs of total order 2 with matching parity in n = 2; each
# weights every lattice point by one squared coordinate, so all cost the same
DERIV_PAIRS = (
    ("1,0", "1,0"),
    ("0,1", "0,1"),
    ("2,0", "0,0"),
    ("0,0", "2,0"),
    ("0,2", "0,0"),
    ("0,0", "0,2"),
)


@dataclass(frozen=True)
class Invocation:
    """One `speclab` CLI run: its arguments (without --out) and its oracle spec."""

    label: str
    argv: tuple[str, ...]
    spec: dict
    drawn: dict = field(default_factory=dict)


def _num(rng: random.Random, lo: float, hi: float) -> float:
    # four decimals keep the command lines readable; the value passed on the
    # command line is exactly the one the oracle uses
    return round(rng.uniform(lo, hi), 4)


def _direction(rng: random.Random, n: int) -> list[float]:
    while True:
        v = [round(rng.gauss(0.0, 1.0), 6) for _ in range(n)]
        if math.sqrt(sum(x * x for x in v)) > 0.1:
            return v


def _csv(values) -> str:
    # passed as --direction=<csv>: argparse would read a leading '-' as a flag
    return ",".join(repr(float(v)) for v in values)


def _torus_offdiag(label, probe, n, grid, tau, direction, extra_argv=()):
    argv = (probe, "--manifold", "torus", "--n", str(n), "--tau", repr(tau),
            "--direction=" + _csv(direction), *extra_argv, "--threads", "1")
    spec = {"probe": probe, "manifold": "torus", "n": n, "grid": grid, "tau": tau,
            "direction": direction}
    return Invocation(label, argv, spec, {"tau": tau, "direction": direction})


def torus_sweep(seed: int) -> tuple[Invocation, ...]:
    """Eight short torus runs.

    About half the wall time is interpreter and import set-up; the rest is
    lattice enumeration at shared radii, so the disk cache is read-heavy
    (3 misses that write, 6 hits that read).  The torus sums are small.  The
    n=3 runs cover the 3-D enumeration branch.
    """
    rng = random.Random(f"torus_sweep:{seed}")
    tau_off, tau_diff, tau_off3 = (_num(rng, *TAU_RANGE) for _ in range(3))
    dir_off, dir_diff, dir_hoel = (_direction(rng, 2) for _ in range(3))
    dir_off3 = _direction(rng, 3)
    delta = _num(rng, *DELTA_RANGE)
    alpha, beta = rng.choice(DERIV_PAIRS)
    inv = [
        Invocation(
            "weyl-torus",
            ("weyl", "--manifold", "torus", "--n", "2", "--threads", "1"),
            {"probe": "weyl", "manifold": "torus", "n": 2, "grid": LAMBDA_GRID},
        ),
        _torus_offdiag("offdiag-torus", "offdiag", 2, LAMBDA_GRID, tau_off, dir_off),
        _torus_offdiag("difference-torus", "difference", 2, LAMBDA_GRID, tau_diff, dir_diff),
        Invocation(
            "deriv-torus",
            ("deriv", "--n", "2", "--alpha", alpha, "--beta", beta, "--threads", "1"),
            {"probe": "deriv", "manifold": "torus", "n": 2, "grid": LAMBDA_GRID,
             "alpha": [int(x) for x in alpha.split(",")],
             "beta": [int(x) for x in beta.split(",")]},
            {"alpha": alpha, "beta": beta},
        ),
        Invocation(
            "band-torus",
            ("band", "--manifold", "torus", "--n", "2", "--threads", "1"),
            {"probe": "band", "manifold": "torus", "n": 2, "grid": LAMBDA_GRID},
        ),
        Invocation(
            "hoelder-torus",
            ("hoelder", "--manifold", "torus", "--n", "2", "--delta", repr(delta),
             "--direction=" + _csv(dir_hoel), "--threads", "1"),
            {"probe": "hoelder", "manifold": "torus", "n": 2, "grid": LAMBDA_GRID,
             "delta": delta, "direction": dir_hoel, "taus": TAU_GRID},
            {"delta": delta, "direction": dir_hoel},
        ),
        Invocation(
            "weyl-torus-n3",
            ("weyl", "--manifold", "torus", "--n", "3", "--grid", N3_GRID_ARG, "--threads", "1"),
            {"probe": "weyl", "manifold": "torus", "n": 3, "grid": N3_GRID},
        ),
        _torus_offdiag("offdiag-torus-n3", "offdiag", 3, N3_GRID, tau_off3, dir_off3,
                       ("--grid", N3_GRID_ARG)),
    ]
    return tuple(inv)


def torus_smoothed(seed: int) -> tuple[Invocation, ...]:
    """One smoothed run: the torus layer used differently.

    One 5.3M-point enumeration at R=1300, a write-only cache, a large working
    set and eleven sinc^4 passes; import is under 5% of the time.  It is the
    only probe where the thread pool pays, so removing or replacing the pool
    shows here.  smoothed has no input that leaves the work unchanged, so the
    seed draws nothing.
    """
    inv = Invocation(
        "smoothed-torus",
        ("smoothed", "--eps", "4", "--threads", "2"),
        {"probe": "smoothed", "manifold": "torus", "n": 2, "grid": LAMBDA_GRID, "eps": 4.0},
    )
    return (inv,)


def sphere_sweep(seed: int) -> tuple[Invocation, ...]:
    """Eight sphere runs: quadrature, Gegenbauer zeros, extremum search and the scipy import.

    No torus code runs here, so every torus change predicts no change on this
    workload, and the reverse holds on the two torus workloads.
    """
    rng = random.Random(f"sphere_sweep:{seed}")
    tau = _num(rng, *TAU_RANGE)
    delta = _num(rng, *DELTA_RANGE)
    s_zonal, s_hw = (_num(rng, *SOBOLEV_RANGE) for _ in range(2))
    inv = [
        Invocation(
            "weyl-sphere",
            ("weyl", "--manifold", "sphere", "--threads", "1"),
            {"probe": "weyl", "manifold": "sphere", "n": 2, "grid": DEGREE_GRID},
        ),
        Invocation(
            "offdiag-sphere",
            ("offdiag", "--manifold", "sphere", "--tau", repr(tau), "--threads", "1"),
            {"probe": "offdiag", "manifold": "sphere", "n": 2, "grid": DEGREE_GRID, "tau": tau},
            {"tau": tau},
        ),
        Invocation(
            "band-sphere",
            ("band", "--manifold", "sphere", "--threads", "1"),
            {"probe": "band", "manifold": "sphere", "n": 2, "grid": LAMBDA_GRID},
        ),
        Invocation(
            "hoelder-sphere",
            ("hoelder", "--manifold", "sphere", "--delta", repr(delta), "--threads", "1"),
            {"probe": "hoelder", "manifold": "sphere", "n": 2, "grid": LAMBDA_GRID,
             "delta": delta, "taus": TAU_GRID},
            {"delta": delta},
        ),
        Invocation(
            "lp-zonal-r6",
            ("lp", "--family", "zonal", "--r", "6", "--s", repr(s_zonal), "--threads", "1"),
            {"probe": "lp", "manifold": "sphere", "n": 2, "grid": DEGREE_GRID,
             "family": "zonal", "r": 6.0, "s": s_zonal},
            {"s": s_zonal},
        ),
        Invocation(
            "lp-hw-r4",
            ("lp", "--family", "hw", "--r", "4", "--s", repr(s_hw), "--threads", "1"),
            {"probe": "lp", "manifold": "sphere", "n": 2, "grid": DEGREE_GRID,
             "family": "hw", "r": 4.0, "s": s_hw},
            {"s": s_hw},
        ),
        Invocation(
            "cksigma-1",
            ("cksigma", "--sigma", "1", "--threads", "1"),
            {"probe": "cksigma", "manifold": "sphere", "n": 2, "grid": DEGREE_GRID, "sigma": 1.0},
        ),
        Invocation(
            "nodal",
            ("nodal", "--threads", "1"),
            {"probe": "nodal", "manifold": "sphere", "n": 2, "grid": DEGREE_GRID},
        ),
    ]
    return tuple(inv)


WORKLOADS = {
    "torus_sweep": torus_sweep,
    "torus_smoothed": torus_smoothed,
    "sphere_sweep": sphere_sweep,
}
