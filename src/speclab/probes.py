"""The experiment engine: sweeps, normalized ratios, and growth-exponent fits.

Each probe walks a lambda or degree grid, records the raw spectral quantity
and its normalization against the predicted power of the abscissa, and can be
fitted for an empirical growth exponent.  Each probe evaluates its grid
serially, in grid order, so the same inputs give byte-identical tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sphere, torus
from .analytic import (
    MultiIndex,
    bessel_j0_zero,
    deriv_weyl_constant,
    epsilon_exponent,
    phi_kernel,
    weyl_constant,
)
from .errors import DomainError
from .sphere import ZonalFamily, eigen_level
from .torus import Displacement, SmoothingWindow

__all__ = [
    "ScalingFit",
    "ProbeRow",
    "ProbeResult",
    "fit_scaling",
    "scaling_fit",
    "default_lambda_grid",
    "default_degree_grid",
    "default_tau_grid",
    "probe_weyl",
    "probe_offdiag",
    "probe_difference",
    "probe_derivative",
    "probe_band",
    "probe_hoelder",
    "probe_lp",
    "probe_cksigma",
    "probe_nodal",
    "probe_smoothed",
]

TWO_PI = 2.0 * math.pi

# fits drop the smallest abscissae: one-term asymptotics carry O(1/lambda)
# relative remainders that pollute the pre-asymptotic points
FIT_DISCARD_FRACTION = 0.2

# a predicted limit this small relative to the diagonal constant counts as
# an exact zero of the prediction (ratio columns are then left blank)
_ZERO_LIMIT_REL = 1e-8


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law through (abscissa, value) pairs in log space."""

    exponent: float
    log_constant: float
    max_residual: float
    n_points: int


def fit_scaling(samples) -> ScalingFit:
    """Ordinary least squares of log(value) against log(abscissa)."""
    pts = [(float(a), float(v)) for a, v in samples]
    if len(pts) < 3:
        raise DomainError("scaling fit needs at least 3 samples")
    if len({a for a, _ in pts}) != len(pts):
        raise DomainError("scaling fit needs distinct abscissae")
    if any(a <= 0.0 or v <= 0.0 for a, v in pts):
        raise DomainError("scaling fit needs positive abscissae and values")
    x = np.log([a for a, _ in pts])
    y = np.log([v for _, v in pts])
    xm = x - x.mean()
    slope = float(np.sum(xm * y) / np.sum(xm * xm))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    return ScalingFit(
        exponent=slope,
        log_constant=intercept,
        max_residual=float(np.max(np.abs(resid))),
        n_points=len(pts),
    )


@dataclass(frozen=True)
class ProbeRow:
    abscissa: float
    raw: float
    ratio: float | None


@dataclass
class ProbeResult:
    """One experiment's table plus its predictions.

    rows hold (abscissa, raw, raw normalized by abscissa^predicted_exponent);
    the ratio is omitted when the predicted limit is exactly zero.  extra
    carries per-row side channels (e.g. the fit abscissae for degree-indexed
    probes, whose growth laws are stated against the eigenvalue).
    """

    probe: str
    params: dict
    rows: list[ProbeRow]
    predicted_limit: float | None
    predicted_exponent: float | None
    extra: dict[str, list[float]] | None = field(default=None)

    def abscissae(self) -> list[float]:
        return [r.abscissa for r in self.rows]

    def raw_values(self) -> list[float]:
        return [r.raw for r in self.rows]

    def fit_abscissae(self) -> list[float]:
        if self.extra and "fit_abscissa" in self.extra:
            return list(self.extra["fit_abscissa"])
        return self.abscissae()


def scaling_fit(result: ProbeResult) -> ScalingFit | None:
    """Exponent fit of a probe table, discarding the pre-asymptotic low end.

    Rows with non-positive raw values (empty bands, exact parity zeros) are
    excluded; returns None when fewer than 3 usable points remain.
    """
    pairs = [
        (a, v) for a, v in zip(result.fit_abscissae(), result.raw_values()) if v > 0.0
    ]
    drop = int(len(pairs) * FIT_DISCARD_FRACTION)
    pairs = pairs[drop:]
    if len(pairs) < 3:
        return None
    return fit_scaling(pairs)


def default_lambda_grid() -> list[float]:
    return [float(v) for v in range(50, 301, 25)]


def default_degree_grid() -> list[int]:
    return list(range(20, 401, 20))


def default_tau_grid() -> list[float]:
    return [0.5 * k for k in range(1, 13)]


def _check_grid(grid, name: str = "grid") -> list[float]:
    vals = [float(g) for g in grid]
    if not vals:
        raise DomainError(f"{name} must be non-empty")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise DomainError(f"{name} must be strictly increasing")
    if vals[0] < 1.0:
        raise DomainError(f"{name} must start at 1 or above")
    return vals


def _pin_sphere_lambdas(n: int, degrees) -> tuple[list[int], list[float]]:
    bad = [m for m in degrees if not float(m).is_integer()]
    if bad:
        raise DomainError(f"degree grid entries must be integers, got {bad[0]!r}")
    ms = [int(m) for m in degrees]
    return ms, [eigen_level(n, m).eigenvalue for m in ms]


def _rows(abscissae, raws, limit, exponent) -> list[ProbeRow]:
    zero_limit = limit is not None and limit == 0.0
    rows = []
    for a, v in zip(abscissae, raws):
        ratio = None if zero_limit else v / a ** exponent
        rows.append(ProbeRow(abscissa=a, raw=v, ratio=ratio))
    return rows


def _direction(n: int, direction) -> np.ndarray:
    if direction is None:
        return torus.default_direction(n)
    d = np.asarray(direction, dtype=float)
    if d.shape != (n,):
        raise DomainError(f"direction must have length {n}")
    norm = math.sqrt(float(np.sum(d * d)))
    if norm == 0.0:
        raise DomainError("direction must be nonzero")
    return d / norm


def _snap_phi_limit(n: int, tau: float) -> float:
    """Phi_n(tau), collapsed to an exact 0.0 when tau sits on a kernel zero."""
    if tau == 0.0:
        # Phi_n(0) is the diagonal constant; avoid quadrature noise on it
        return weyl_constant(n)
    value = phi_kernel(n, tau).value
    if abs(value) < _ZERO_LIMIT_REL * weyl_constant(n):
        return 0.0
    return value


# --------------------------------------------------------------------------
# spectral-function probes (torus and sphere)


def _torus_offdiag_raws(n, lambdas, taus, direction):
    # one enumeration serves every tau (probe_difference asks for tau and 0)
    enum = torus.enumerate_lattice(n, max(lambdas))

    def one(tau, lam):
        u = Displacement.from_vector(direction * (tau / lam) if tau else np.zeros(n))
        return torus.spectral_function_torus(n, u, lam, enum)

    return [[one(tau, lam) for lam in lambdas] for tau in taus]


def _sphere_offdiag_raws(n, lambdas, taus):
    return [
        [
            sphere.spectral_function_sphere(n, math.cos(tau / lam) if tau else 1.0, lam)
            for lam in lambdas
        ]
        for tau in taus
    ]


def _no_sphere_direction(direction) -> None:
    if direction is not None:
        raise DomainError(
            "direction applies only to the torus: sphere kernels depend on dist(x, y) alone"
        )


def _offdiag_table(manifold, n, taus, grid, direction):
    """The grid's lambdas and, for each tau in `taus`, the off-diagonal sums at tau/lambda."""
    for tau in taus:
        if tau < 0.0:
            raise DomainError(f"tau must be >= 0, got {tau}")
    if manifold == "torus":
        lambdas = _check_grid(grid if grid is not None else default_lambda_grid())
        return lambdas, _torus_offdiag_raws(n, lambdas, taus, _direction(n, direction))
    if manifold == "sphere":
        _no_sphere_direction(direction)
        _, lambdas = _pin_sphere_lambdas(n, grid if grid is not None else default_degree_grid())
        _check_grid(lambdas, "pinned lambda grid")
        if max(taus) / min(lambdas) > math.pi:
            raise DomainError("tau/lambda exceeds pi: no such sphere displacement")
        return lambdas, _sphere_offdiag_raws(n, lambdas, taus)
    raise DomainError(f"manifold must be 'torus' or 'sphere', got {manifold!r}")


def probe_weyl(manifold: str, n: int, lambda_grid=None) -> ProbeResult:
    """Diagonal spectral function against the volume-counting prediction."""
    lambdas, (raws,) = _offdiag_table(manifold, n, (0.0,), lambda_grid, None)
    limit = weyl_constant(n)
    return ProbeResult(
        probe="weyl",
        params={"manifold": manifold, "n": n},
        rows=_rows(lambdas, raws, limit, float(n)),
        predicted_limit=limit,
        predicted_exponent=float(n),
    )


def probe_offdiag(
    manifold: str,
    n: int,
    tau: float,
    lambda_grid=None,
    *,
    direction=None,
) -> ProbeResult:
    """Off-diagonal spectral function at rescaled distance tau = lambda dist."""
    lambdas, (raws,) = _offdiag_table(manifold, n, (tau,), lambda_grid, direction)
    limit = _snap_phi_limit(n, tau)
    return ProbeResult(
        probe="offdiag",
        params={"manifold": manifold, "n": n, "tau": tau},
        rows=_rows(lambdas, raws, limit, float(n)),
        predicted_limit=limit,
        predicted_exponent=float(n),
    )


def probe_difference(
    manifold: str,
    n: int,
    tau: float,
    lambda_grid=None,
    *,
    direction=None,
) -> ProbeResult:
    """Square-sum of eigenfunction differences via 2(e_diag - e_offdiag)."""
    lambdas, (offs, diags) = _offdiag_table(manifold, n, (tau, 0.0), lambda_grid, direction)
    raws = [2.0 * (d - o) for d, o in zip(diags, offs)]
    limit = 2.0 * (weyl_constant(n) - _snap_phi_limit(n, tau))
    if abs(limit) < _ZERO_LIMIT_REL * weyl_constant(n):
        limit = 0.0
    return ProbeResult(
        probe="difference",
        params={"manifold": manifold, "n": n, "tau": tau},
        rows=_rows(lambdas, raws, limit, float(n)),
        predicted_limit=limit,
        predicted_exponent=float(n),
    )


def probe_derivative(n: int, alpha: MultiIndex, beta: MultiIndex, lambda_grid=None) -> ProbeResult:
    """Derivative diagonal sums on the torus against their leading constants."""
    lambdas = _check_grid(lambda_grid if lambda_grid is not None else default_lambda_grid())
    enum = torus.enumerate_lattice(n, max(lambdas))
    raws = [torus.derivative_diagonal_sum(n, alpha, beta, lam, enum) for lam in lambdas]
    limit = deriv_weyl_constant(n, alpha, beta)
    exponent = float(n + alpha.order + beta.order)
    return ProbeResult(
        probe="deriv",
        params={
            "manifold": "torus",
            "n": n,
            "alpha": list(alpha.entries),
            "beta": list(beta.entries),
        },
        rows=_rows(lambdas, raws, limit, exponent),
        predicted_limit=limit,
        predicted_exponent=exponent,
    )


def probe_band(manifold: str, n: int, lambda_grid=None) -> ProbeResult:
    """Unit-band diagonal sums, plus the projector-norm witness sqrt(band)/lambda^((n-1)/2).

    Sphere grids here are plain lambda values (consecutive pinned eigenvalues
    sit slightly more than 1 apart, which would leave every band empty);
    empty-band rows report zero and are excluded from fits.
    """
    lambdas = _check_grid(lambda_grid if lambda_grid is not None else default_lambda_grid())
    if manifold == "torus":
        enum = torus.enumerate_lattice(n, max(lambdas) + 1.0)
        raws = [torus.band_diagonal_sum(n, lam, enum) for lam in lambdas]
    elif manifold == "sphere":
        raws = [sphere.band_kernel_sphere(n, 1.0, lam) for lam in lambdas]
    else:
        raise DomainError(f"manifold must be 'torus' or 'sphere', got {manifold!r}")
    witness = [math.sqrt(v) / lam ** ((n - 1) / 2.0) for v, lam in zip(raws, lambdas)]
    return ProbeResult(
        probe="band",
        params={"manifold": manifold, "n": n},
        rows=_rows(lambdas, raws, float(n) * weyl_constant(n), float(n - 1)),
        predicted_limit=float(n) * weyl_constant(n),
        predicted_exponent=float(n - 1),
        extra={"sqrt_band_norm_witness": witness},
    )


def probe_hoelder(
    manifold: str,
    n: int,
    delta: float,
    tau_grid=None,
    lambda_grid=None,
    *,
    direction=None,
) -> ProbeResult:
    """Band Hoelder quotients: sup over tau of the difference sum over dist^(2 delta)."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    taus = [float(t) for t in (tau_grid if tau_grid is not None else default_tau_grid())]
    if not taus or any(t <= 0.0 or t > 10.0 for t in taus):
        raise DomainError("tau grid must lie in (0, 10]")
    lambdas = _check_grid(lambda_grid if lambda_grid is not None else default_lambda_grid())

    if manifold == "torus":
        d = _direction(n, direction)
        enum = torus.enumerate_lattice(n, max(lambdas) + 1.0)
        norms_sq = enum.norms_sq()

        def one(lam: float) -> float:
            mask = (norms_sq > torus.norm_sq_bound(lam)) & (
                norms_sq <= torus.norm_sq_bound(lam + 1.0)
            )
            pts = enum.points[mask].astype(np.float64)
            best = 0.0
            for tau in taus:
                dist = tau / lam
                dots = pts[:, 0] * (d[0] * dist)
                for j in range(1, n):
                    dots = dots + pts[:, j] * (d[j] * dist)
                diff = 2.0 * float(np.sum(1.0 - np.cos(dots))) / TWO_PI ** n
                best = max(best, diff / dist ** (2.0 * delta))
            return best

    elif manifold == "sphere":
        _no_sphere_direction(direction)

        def one(lam: float) -> float:
            best = 0.0
            k0 = sphere.band_kernel_sphere(n, 1.0, lam)
            for tau in taus:
                dist = tau / lam
                diff = 2.0 * (k0 - sphere.band_kernel_sphere(n, math.cos(dist), lam))
                best = max(best, diff / dist ** (2.0 * delta))
            return best

    else:
        raise DomainError(f"manifold must be 'torus' or 'sphere', got {manifold!r}")

    raws = [one(lam) for lam in lambdas]
    exponent = (n - 1.0) + 2.0 * delta
    return ProbeResult(
        probe="hoelder",
        params={"manifold": manifold, "n": n, "delta": delta, "tau_grid": taus},
        rows=_rows(lambdas, raws, None, exponent),
        predicted_limit=None,
        predicted_exponent=exponent,
    )


# --------------------------------------------------------------------------
# extremizing-family probes (sphere, n = 2 by default)


def probe_lp(family: str, r: float, s: float, m_grid=None, *, n: int = 2) -> ProbeResult:
    """Sobolev-scaled L_r norm growth of an extremizing family.

    The zonal family realizes the large-r regime, the highest-weight family
    the small-r regime; the predicted exponent is s + eps(r) in either case.
    """
    if family not in ("zonal", "hw"):
        raise DomainError(f"family must be 'zonal' or 'hw', got {family!r}")
    if s < 0.0:
        raise DomainError(f"Sobolev order must be >= 0, got {s}")
    ms, lambdas = _pin_sphere_lambdas(n, m_grid if m_grid is not None else default_degree_grid())
    _check_grid(ms, "degree grid")

    if family == "zonal":
        # one quadrature rule and one recurrence serve the whole grid
        norms = sphere.zonal_norms(n, ms, r)
    else:
        norms = [sphere.hw_norm(n, m, r) for m in ms]
    raws = [sphere.sobolev_scale(lam, s) * norm for lam, norm in zip(lambdas, norms)]
    exponent = s + epsilon_exponent(n, r)
    rows = [
        ProbeRow(abscissa=float(m), raw=v, ratio=v / lam ** exponent)
        for m, lam, v in zip(ms, lambdas, raws)
    ]
    return ProbeResult(
        probe="lp",
        params={"manifold": "sphere", "n": n, "family": family,
                "r": "inf" if math.isinf(r) else r, "s": s},
        rows=rows,
        predicted_limit=None,
        predicted_exponent=exponent,
        extra={"fit_abscissa": lambdas},
    )


def _hoelder_proxy(n: int, m: int, lam: float, delta: float) -> float:
    """max over near-pole pairs of |Z(x) - Z(y)| / dist^delta at separations ~ 1/lambda."""
    fam = ZonalFamily.create(n, m)
    base = np.linspace(0.0, 10.0 / lam, 201)
    seps = np.exp(np.linspace(math.log(0.1 / lam), math.log(10.0 / lam), 25))
    zb = fam.eval(base)
    best = 0.0
    for h in seps:
        diff = np.abs(fam.eval(base + h) - zb)
        best = max(best, float(np.max(diff)) / h ** delta)
    return best


def probe_cksigma(sigma: float, m_grid=None, *, n: int = 2) -> ProbeResult:
    """Smoothness-norm growth of zonal harmonics against lambda^sigma ||Z||_inf.

    sigma = 0 uses the sup norm itself, sigma in (0, 1) a sampled Hoelder
    quotient, and sigma = 1 the gradient sup; higher orders are out of range.
    """
    if not 0.0 <= sigma <= 1.0:
        raise DomainError(f"sigma must lie in [0, 1], got {sigma}")
    ms, lambdas = _pin_sphere_lambdas(n, m_grid if m_grid is not None else default_degree_grid())
    _check_grid(ms, "degree grid")

    def one(m: int, lam: float) -> float:
        if sigma == 0.0:
            return sphere.zonal_norm(n, m, math.inf)
        if sigma == 1.0:
            return sphere.zonal_gradient_sup(n, m)
        return _hoelder_proxy(n, m, lam, sigma)

    raws = [one(m, lam) for m, lam in zip(ms, lambdas)]
    sups = [sphere.zonal_norm(n, m, math.inf) for m in ms]
    rows = [
        ProbeRow(abscissa=float(m), raw=v, ratio=v / (lam ** sigma * sup))
        for m, lam, v, sup in zip(ms, lambdas, raws, sups)
    ]
    return ProbeResult(
        probe="cksigma",
        params={"manifold": "sphere", "n": n, "sigma": sigma},
        rows=rows,
        predicted_limit=None,
        predicted_exponent=sigma + (n - 1.0) / 2.0,
        extra={"fit_abscissa": lambdas},
    )


def probe_nodal(m_grid=None, *, n: int = 2) -> ProbeResult:
    """Nodal gap of the zonal family: lambda times the first zero colatitude.

    The raw value converges to the first zero of J_0 (recomputed, not quoted);
    the extras carry the cap inner radius and the Nadirashvili ratio per row.
    """
    ms, lambdas = _pin_sphere_lambdas(n, m_grid if m_grid is not None else default_degree_grid())
    _check_grid(ms, "degree grid")

    out = [(sphere.nodal_gap_zonal(n, m), sphere.nadirashvili_ratio(n, m)) for m in ms]
    limit = bessel_j0_zero(1)
    rows = [
        ProbeRow(abscissa=float(m), raw=gap.product_with_eigenvalue, ratio=gap.product_with_eigenvalue)
        for m, (gap, _) in zip(ms, out)
    ]
    return ProbeResult(
        probe="nodal",
        params={"manifold": "sphere", "n": n},
        rows=rows,
        predicted_limit=limit,
        predicted_exponent=0.0,
        extra={
            "fit_abscissa": lambdas,
            "theta_first_zero": [gap.theta_first_zero for gap, _ in out],
            "cap_inner_radius": [gap.inner_radius_polar_cap for gap, _ in out],
            "nadirashvili_ratio": [ratio for _, ratio in out],
        },
    )


def probe_smoothed(n: int, window: SmoothingWindow | None = None, lambda_grid=None) -> ProbeResult:
    """Window-smoothed diagonal sums on the torus against the band growth order."""
    win = window if window is not None else SmoothingWindow()
    lambdas = _check_grid(lambda_grid if lambda_grid is not None else default_lambda_grid())
    enum = torus.enumerate_lattice(n, max(lambdas) + win.truncation_radius)
    raws = [torus.smoothed_diagonal_sum(n, lam, win, enum) for lam in lambdas]
    return ProbeResult(
        probe="smoothed",
        params={"manifold": "torus", "n": n, "window": win.shape, "eps": win.eps},
        rows=_rows(lambdas, raws, None, float(n - 1)),
        predicted_limit=None,
        predicted_exponent=float(n - 1),
    )
