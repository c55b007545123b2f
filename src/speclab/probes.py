"""The experiment engine: sweeps, normalized ratios, and growth-exponent fits.

Each probe walks a lambda or degree grid, records the raw spectral quantity
and its normalization against the predicted power of the abscissa, and can be
fitted for an empirical growth exponent.  Each probe evaluates its grid
serially, in grid order, so the same inputs give byte-identical tables.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import sphere, torus
from .analytic import (
    PROFILE_POWER_MAX,
    MultiIndex,
    bessel_zero,
    deriv_weyl_constant,
    epsilon_exponent,
    phi_kernel,
    weyl_constant,
)
from .errors import DomainError, ResourceLimitError
from .sphere import ZonalFamily
from .torus import SmoothingWindow

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
    "probe_deriv",
    "probe_band",
    "probe_hoelder",
    "probe_lp",
    "probe_cksigma",
    "probe_nodal",
    "probe_smoothed",
]

# fits drop the smallest abscissae: one-term asymptotics carry O(1/lambda)
# relative remainders that pollute the pre-asymptotic points
FIT_DISCARD_FRACTION = 0.2

# a predicted limit this small relative to the diagonal constant counts as
# an exact zero of the prediction (ratio columns are then left blank)
_ZERO_LIMIT_REL = 1e-8

# largest summed degree of a cksigma or nodal grid: each degree m costs O(m)
# recurrence steps, about 7 us per unit of degree for nodal and cksigma
# --sigma 1 and 27 us for 0 < sigma < 1 (2 cores), so a run at the budget
# takes under 1 s or about 3 s; the default grid sums to 4200
ZONAL_DEGREE_BUDGET = 100_000

# largest summed degree of the Gegenbauer recurrences a sphere kernel grid
# runs, one per kernel call: one step costs 0.27-0.30 us at degree 10^6
# (2 cores), so a run at the budget takes about 3 s; the largest default grid,
# hoelder's, sums to 25,025
KERNEL_DEGREE_BUDGET = 10_000_000


class ScalingFit(NamedTuple):
    """Least-squares power law through (abscissa, value) pairs in log space."""

    exponent: float
    log_constant: float
    max_residual: float
    n_points: int


def fit_scaling(samples) -> ScalingFit:
    """Ordinary least squares of log(value) against log(abscissa).

    Every sum is math.fsum's exactly rounded one, so the fit does not depend
    on the order of the samples.
    """
    pts = [(float(a), float(v)) for a, v in samples]
    if len(pts) < 3:
        raise DomainError("scaling fit needs at least 3 samples")
    if len({a for a, _ in pts}) != len(pts):
        raise DomainError("scaling fit needs distinct abscissae")
    if any(a <= 0.0 or v <= 0.0 for a, v in pts):
        raise DomainError("scaling fit needs positive abscissae and values")
    x = [math.log(a) for a, _ in pts]
    y = [math.log(v) for _, v in pts]
    x_mean = math.fsum(x) / len(x)
    xm = [a - x_mean for a in x]
    slope = math.fsum(d * b for d, b in zip(xm, y)) / math.fsum(d * d for d in xm)
    intercept = math.fsum(y) / len(y) - slope * x_mean
    return ScalingFit(
        exponent=slope,
        log_constant=intercept,
        max_residual=max(abs(b - (slope * a + intercept)) for a, b in zip(x, y)),
        n_points=len(pts),
    )


class ProbeRow(NamedTuple):
    abscissa: float
    raw: float
    ratio: float | None


class ProbeResult(NamedTuple):
    """One experiment's table plus its predictions.

    rows hold (abscissa, raw, raw over the predicted growth at that row); the
    ratio is omitted when the predicted limit is exactly zero.  extra carries
    per-row side channels (e.g. the fit abscissae for degree-indexed probes,
    whose growth laws are stated against the eigenvalue).
    """

    probe: str
    params: dict
    rows: list[ProbeRow]
    predicted_limit: float | None
    predicted_exponent: float | None
    extra: dict[str, list[float]] | None = None

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
    bad = [v for v in vals if not math.isfinite(v)]
    if bad:
        raise DomainError(f"{name} entries must be finite, got {bad[0]!r}")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise DomainError(f"{name} must be strictly increasing")
    if vals[0] < 1.0:
        raise DomainError(f"{name} must start at 1 or above")
    return vals


def _lambda_grid(grid) -> list[float]:
    """The checked eigenvalue thresholds of a lambda grid, or the default grid."""
    return _check_grid(grid if grid is not None else default_lambda_grid())


def _degree_grid(n: int, grid) -> tuple[list[int], list[float]]:
    """The checked degrees of a degree grid, or the default grid, and their S^n eigenvalues."""
    degrees = grid if grid is not None else default_degree_grid()
    bad = [m for m in degrees if not float(m).is_integer()]
    if bad:
        raise DomainError(f"degree grid entries must be integers, got {bad[0]!r}")
    ms = [int(m) for m in degrees]
    lambdas = [sphere.eigenvalue(n, m) for m in ms]
    _check_grid(ms, "degree grid")
    return ms, lambdas


def _check_degree_budget(total: int, budget: int, what: str) -> None:
    """Refuse, before any work, a grid whose recurrences sum past `budget` degrees."""
    if total > budget:
        raise ResourceLimitError(f"{what} sums to {total}, past the budget of {budget} summed degrees")


def _table(probe, params, abscissae, raws, exponent, limit=None, *, lambdas=None, scales=None, extra=None):
    """The probe's table: each row's ratio is its raw over lambdas[i] ** exponent, or over scales[i].

    lambdas default to the abscissae; passed, they are the fit abscissae.  A
    limit of exactly 0 leaves every ratio out and forms no growth.
    """
    if lambdas is None:
        lambdas = abscissae
    else:
        extra = {"fit_abscissa": lambdas, **(extra or {})}
    ratios = [None] * len(raws)
    if limit != 0.0:
        if scales is None:
            scales = []
            for lam in lambdas:
                try:
                    scales.append(lam ** exponent)
                except OverflowError:
                    raise ResourceLimitError(f"the predicted growth lambda^{exponent:g} overflows "
                                             f"a float at lambda = {lam:g}") from None
        ratios = [v / scale for v, scale in zip(raws, scales)]
    rows = [ProbeRow(float(a), v, ratio) for a, v, ratio in zip(abscissae, raws, ratios)]
    return ProbeResult(probe, params, rows, limit, exponent, extra)


def _snap_zero(n: int, limit: float) -> float:
    """limit, or an exact 0.0 when it is below _ZERO_LIMIT_REL c_n in size."""
    return 0.0 if abs(limit) < _ZERO_LIMIT_REL * weyl_constant(n) else limit


def _snap_phi_limit(n: int, tau: float) -> float:
    """Phi_n(tau), collapsed to an exact 0.0 when tau sits on a kernel zero."""
    # Lambda_{n/2}(0)/(2 pi)^{n/2} rounds differently from weyl_constant(n), by up
    # to 8.9e-16 relative (n = 31; 4.4e-16 at n = 3), so tau = 0 takes c_n itself:
    # offdiag then predicts weyl's limit bit for bit, and difference exactly 0
    return weyl_constant(n) if tau == 0.0 else _snap_zero(n, phi_kernel(n, tau))


# --------------------------------------------------------------------------
# spectral-function probes (torus and sphere)


def _kernel(manifold: str, n: int, grid, direction, taus, *, band: bool = False):
    """The grid's lambdas and kernel(lam, dist): e or the band kernel at dist(x, y) = dist.

    kernel(lam, dist) is e(x, y, lam) or, with band=True, the kernel of the
    band (lam, lam + 1], one public kernel call at every dist >= 0; on the
    torus x - y is dist times the unit direction.  Sphere spectral grids are
    degrees pinned to their eigenvalues; band grids and torus grids are
    thresholds.  taus are the rescaled distances the caller evaluates at each
    lambda, one kernel call each.  Every tau/lambda must stay within the
    minimizing distance along the direction: pi on S^n, and pi/max|d_i| on
    T^n, past which some |u_i| > pi and the displacement wraps to a shorter one.
    """
    if manifold == "torus":
        lambdas = _lambda_grid(grid)
        d = torus.unit_direction(n, direction)
        reach = math.pi / max(abs(v) for v in d)
        reach_name = f"pi/max|d_i| = {reach:.6g}"
        torus.check_radius(n, max(lambdas) + (1.0 if band else 0.0))
        fn = torus.band_kernel_torus if band else torus.spectral_function_torus

        def kernel(lam: float, dist: float) -> float:
            return fn(n, [v * dist for v in d], lam)

    elif manifold == "sphere":
        if direction is not None:
            raise DomainError(
                "direction applies only to the torus: sphere kernels depend on dist(x, y) alone"
            )
        lambdas = _lambda_grid(grid) if band else _degree_grid(n, grid)[1]
        reach, reach_name = math.pi, "pi"
        fn = sphere.band_kernel_sphere if band else sphere.spectral_function_sphere

        def kernel(lam: float, dist: float) -> float:
            return fn(n, dist, lam)

    else:
        raise DomainError(f"manifold must be 'torus' or 'sphere', got {manifold!r}")
    if max(taus) / min(lambdas) > reach:
        raise DomainError(f"tau/lambda exceeds {reach_name}: no such {manifold} displacement")
    if manifold == "sphere":
        # a call runs one recurrence, up to max_degree(lam), or for a band
        # call up to max_degree(lam + 1)
        steps = sum(sphere.max_degree(n, lam + 1.0 if band else lam) for lam in lambdas)
        _check_degree_budget(len(taus) * steps, KERNEL_DEGREE_BUDGET, "sphere kernel grid")
    return lambdas, kernel


def probe_weyl(manifold: str, n: int, grid=None) -> ProbeResult:
    """Diagonal spectral function against the volume-counting prediction."""
    limit = weyl_constant(n)
    lambdas, kernel = _kernel(manifold, n, grid, None, (0.0,))
    raws = [kernel(lam, 0.0) for lam in lambdas]
    return _table("weyl", {"manifold": manifold, "n": n}, lambdas, raws, float(n), limit)


def probe_offdiag(
    manifold: str,
    n: int,
    tau: float,
    grid=None,
    *,
    direction=None,
) -> ProbeResult:
    """Off-diagonal spectral function at rescaled distance tau = lambda dist."""
    limit = _snap_phi_limit(n, tau)
    lambdas, kernel = _kernel(manifold, n, grid, direction, (tau,))
    raws = [kernel(lam, tau / lam) for lam in lambdas]
    return _table("offdiag", {"manifold": manifold, "n": n, "tau": tau}, lambdas, raws, float(n), limit)


def probe_difference(
    manifold: str,
    n: int,
    tau: float,
    grid=None,
    *,
    direction=None,
) -> ProbeResult:
    """Square-sum of eigenfunction differences via 2(e_diag - e_offdiag)."""
    limit = _snap_zero(n, 2.0 * (weyl_constant(n) - _snap_phi_limit(n, tau)))
    lambdas, kernel = _kernel(manifold, n, grid, direction, (0.0, tau))
    offs = [kernel(lam, tau / lam) for lam in lambdas]
    diags = [kernel(lam, 0.0) for lam in lambdas]
    raws = [2.0 * (d - o) for d, o in zip(diags, offs)]
    params = {"manifold": manifold, "n": n, "tau": tau}
    return _table("difference", params, lambdas, raws, float(n), limit)


def probe_deriv(n: int, alpha: MultiIndex, beta: MultiIndex, grid=None) -> ProbeResult:
    """Derivative diagonal sums on the torus against their leading constants."""
    lambdas = _lambda_grid(grid)
    torus.check_radius(n, max(lambdas))
    raws = [torus.derivative_diagonal_sum(n, alpha, beta, lam) for lam in lambdas]
    params = {"manifold": "torus", "n": n, "alpha": list(alpha.entries), "beta": list(beta.entries)}
    exponent = float(n + alpha.order + beta.order)
    return _table("deriv", params, lambdas, raws, exponent, deriv_weyl_constant(n, alpha, beta))


def probe_band(manifold: str, n: int, grid=None) -> ProbeResult:
    """Unit-band diagonal sums, plus the projector-norm witness sqrt(band)/lambda^((n-1)/2).

    Sphere grids here are plain lambda values (consecutive pinned eigenvalues
    sit slightly more than 1 apart, which would leave every band empty);
    empty-band rows report zero and are excluded from fits.
    """
    limit = float(n) * weyl_constant(n)
    lambdas, band = _kernel(manifold, n, grid, None, (0.0,), band=True)
    raws = [band(lam, 0.0) for lam in lambdas]
    witness = [math.sqrt(v) / lam ** ((n - 1) / 2.0) for v, lam in zip(raws, lambdas)]
    return _table("band", {"manifold": manifold, "n": n}, lambdas, raws, float(n - 1), limit,
                  extra={"sqrt_band_norm_witness": witness})


def probe_hoelder(
    manifold: str,
    n: int,
    delta: float,
    tau_grid=None,
    grid=None,
    *,
    direction=None,
) -> ProbeResult:
    """Band Hoelder quotients: sup over tau of the difference sum over dist^(2 delta)."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    taus = [float(t) for t in (tau_grid if tau_grid is not None else default_tau_grid())]
    if not taus or any(not 0.0 < t <= 10.0 for t in taus):
        raise DomainError("tau grid must lie in (0, 10]")
    lambdas, band = _kernel(manifold, n, grid, direction, (0.0, *taus), band=True)

    def one(lam: float) -> float:
        best = 0.0
        k0 = band(lam, 0.0)
        for tau in taus:
            dist = tau / lam
            diff = 2.0 * (k0 - band(lam, dist))
            best = max(best, diff / dist ** (2.0 * delta))
        return best

    raws = [one(lam) for lam in lambdas]
    params = {"manifold": manifold, "n": n, "delta": delta, "tau_grid": taus}
    return _table("hoelder", params, lambdas, raws, (n - 1.0) + 2.0 * delta)


# --------------------------------------------------------------------------
# extremizing-family probes (sphere, n = 2 by default)


def probe_lp(family: str, r: float, s: float, grid=None, *, n: int = 2) -> ProbeResult:
    """Sobolev-scaled L_r norm growth of an extremizing family.

    The zonal family realizes the large-r regime, the highest-weight family
    the small-r regime; the predicted exponent is s + eps(r) in either case.
    """
    if family not in ("zonal", "hw"):
        raise DomainError(f"family must be 'zonal' or 'hw', got {family!r}")
    if not s >= 0.0:
        raise DomainError(f"Sobolev order must be >= 0, got {s}")
    ms, lambdas = _degree_grid(n, grid)

    if family == "zonal":
        # one quadrature rule and one recurrence serve the whole grid
        norms = sphere.zonal_norms(n, ms, r)
    else:
        norms = [sphere.hw_norm(n, m, r) for m in ms]
    try:
        raws = [sphere.sobolev_scale(lam, s) * norm for lam, norm in zip(lambdas, norms)]
    except OverflowError:  # the float ** of sobolev_scale raises where * gives inf
        raws = [math.inf]
    if not all(math.isfinite(v) for v in raws):
        raise ResourceLimitError(f"the Sobolev-scaled norm at s = {s:g} overflows a float")
    params = {"manifold": "sphere", "n": n, "family": family,
              "r": "inf" if math.isinf(r) else r, "s": s}
    return _table("lp", params, ms, raws, s + epsilon_exponent(n, r), lambdas=lambdas)


def _hoelder_proxy(n: int, m: int, lam: float, delta: float) -> float:
    """max over near-pole pairs of |Z(x) - Z(y)| / dist^delta at separations ~ 1/lambda."""
    import numpy as np
    fam = ZonalFamily.create(n, m)
    base = np.linspace(0.0, 10.0 / lam, 201)
    seps = np.exp(np.linspace(math.log(0.1 / lam), math.log(10.0 / lam), 25))
    # row 0 is the base points, row i the base points shifted by seps[i-1]
    z = fam.at(np.concatenate(([0.0], seps))[:, None] + base)
    diffs = np.max(np.abs(z[1:] - z[0]), axis=1)
    return max(float(d) / float(h) ** delta for d, h in zip(diffs, seps))


def probe_cksigma(sigma: float, grid=None, *, n: int = 2) -> ProbeResult:
    """Smoothness-norm growth of zonal harmonics against lambda^sigma ||Z||_inf.

    sigma = 0 uses the sup norm itself, sigma in (0, 1) a sampled Hoelder
    quotient, and sigma = 1 the gradient sup; higher orders are out of range.
    """
    if not 0.0 <= sigma <= 1.0:
        raise DomainError(f"sigma must lie in [0, 1], got {sigma}")
    ms, lambdas = _degree_grid(n, grid)
    _check_degree_budget(sum(ms), ZONAL_DEGREE_BUDGET, "degree grid")

    sups = sphere.zonal_norms(n, ms, math.inf)
    if sigma == 0.0:
        raws = sups
    elif sigma == 1.0:
        raws = [sphere.zonal_gradient_sup(n, m) for m in ms]
    else:
        raws = [_hoelder_proxy(n, m, lam, sigma) for m, lam in zip(ms, lambdas)]
    return _table("cksigma", {"manifold": "sphere", "n": n, "sigma": sigma}, ms, raws,
                  sigma + (n - 1.0) / 2.0, lambdas=lambdas,
                  scales=[lam ** sigma * sup for lam, sup in zip(lambdas, sups)])


def _nodal_limit(n: int) -> float | None:
    """lim lambda theta_1 = j_{(n-2)/2, 1}, served up to n = PROFILE_POWER_MAX + 2 = 32."""
    if n == 3:
        return math.pi  # the zeros of J_{1/2} are k pi
    return bessel_zero((n - 2) / 2.0, 1) if n - 2 <= PROFILE_POWER_MAX else None


def probe_nodal(grid=None, *, n: int = 2) -> ProbeResult:
    """Nodal gap of the zonal family: lambda times the first zero colatitude.

    The raw value converges to j_{(n-2)/2, 1}, the first zero of J_{(n-2)/2}.
    The predicted limit is that zero up to n = 32, from analytic.bessel_zero
    (pi exactly for n = 3), and left out beyond.  The extras carry the cap
    inner radius and the Nadirashvili ratio per row.
    """
    ms, lambdas = _degree_grid(n, grid)
    _check_degree_budget(sum(ms), ZONAL_DEGREE_BUDGET, "degree grid")

    thetas = [sphere.nodal_gap_zonal(n, m) for m in ms]
    ratios = [sphere.nadirashvili_ratio(n, m) for m in ms]
    raws = [lam * theta for lam, theta in zip(lambdas, thetas)]
    extra = {"theta_first_zero": thetas, "cap_inner_radius": thetas, "nadirashvili_ratio": ratios}
    return _table("nodal", {"manifold": "sphere", "n": n}, ms, raws, 0.0, _nodal_limit(n),
                  lambdas=lambdas, extra=extra)


def probe_smoothed(n: int, eps: float | None = None, grid=None) -> ProbeResult:
    """Window-smoothed diagonal sums on the torus against the band growth order."""
    win = SmoothingWindow() if eps is None else SmoothingWindow(eps=eps)
    lambdas = _lambda_grid(grid)
    shells = torus.lattice_shells(n, max(lambdas) + win.truncation_radius)
    raws = [torus.smoothed_diagonal_sum(n, lam, win, shells=shells) for lam in lambdas]
    params = {"manifold": "torus", "n": n, "window": "sinc4", "eps": win.eps}
    return _table("smoothed", params, lambdas, raws, float(n - 1))
