"""Independent references for every table the benchmark's CLI runs write.

Nothing here imports speclab.  Torus rows come from a brute-force square or
cube scan of the integer lattice (and, for `smoothed`, from a histogram of
shell counts r_n(j)); sphere rows come from closed forms such as
(M+1)^2/(4 pi) and from scipy.special Legendre values and roots.

Every comparison is relative to the row's natural scale (c_n lambda^n for the
spectral function, n c_n lambda^(n-1) for bands, and so on), never bytewise.
RTOL sits between the two error sizes that matter: summation-order changes
move a torus sum by at most ~7e-10 of its scale, while dropping the single
lattice shell |k| = 300 moves e(x, x, 300) by ~7e-5 of c_2 300^2.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import optimize, special

RTOL = 1e-7
ABSCISSA_RTOL = 1e-12
FIT_ATOL = 1e-6
TWO_PI = 2.0 * math.pi
CSV_HEADER = "abscissa,raw,ratio,predicted"
FIT_DISCARD_FRACTION = 0.2  # documented behaviour of the fitted summaries


@dataclass
class Reference:
    """Expected table of one invocation, with a tolerance scale per value."""

    probe: str
    params: dict
    abscissae: list[float]
    raws: list[float]
    scales: list[float]  # raw tolerance is RTOL * scale
    factors: list[float]  # ratio = raw * factor
    predicted_limit: float | None
    limit_scale: float
    predicted_exponent: float
    fit_abscissae: list[float]
    extras: dict[str, tuple[list[float], list[float]]] = field(default_factory=dict)

    @property
    def ratios(self) -> list[float]:
        return [v * f for v, f in zip(self.raws, self.factors)]


# --------------------------------------------------------------------------
# closed forms


def weyl_constant(n: int) -> float:
    return math.pi ** (n / 2.0) / special.gamma(n / 2.0 + 1.0) / TWO_PI**n


def phi_limit(n: int, tau: float) -> float:
    """Phi_n(tau), the off-diagonal limit, in closed Bessel form."""
    if n == 2:
        return float(special.j1(tau)) / (TWO_PI * tau)
    if n == 3:
        return (math.sin(tau) - tau * math.cos(tau)) / (2.0 * math.pi**2 * tau**3)
    raise ValueError(f"no closed form for n={n}")


def ball_moment(n: int, gam: list[int]) -> float:
    """Integral of x^gam over the unit ball of R^n (zero unless every entry is even)."""
    if any(g % 2 for g in gam):
        return 0.0
    total = sum(gam) + n
    prod = math.prod(special.gamma((g + 1) / 2.0) for g in gam)
    return 2.0 * prod / (special.gamma(total / 2.0) * total)


def epsilon_exponent(n: int, r: float) -> float:
    if math.isinf(r):
        return (n - 1.0) / 2.0
    return max((n - 1.0) / 2.0 - n / r, (0.25 - 0.5 / r) * (n - 1.0))


def _int_square(lam: float) -> int:
    if not float(lam).is_integer():
        raise ValueError(f"torus references need integral radii, got {lam}")
    return int(lam) ** 2


def _unit(direction) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    return d / math.sqrt(float(np.sum(d * d)))


# --------------------------------------------------------------------------
# torus: brute-force lattice scans


class Lattice:
    """Every integer vector of the cube [-R, R]^n with its squared norm."""

    def __init__(self, n: int, radius: int):
        axis = np.arange(-radius, radius + 1, dtype=np.int64)
        grids = np.meshgrid(*([axis] * n), indexing="ij")
        self.n = n
        self.points = np.stack([g.ravel() for g in grids], axis=1)
        self.norms_sq = np.sum(self.points * self.points, axis=1)

    def ball(self, lam: float) -> np.ndarray:
        return self.points[self.norms_sq <= _int_square(lam)]

    def count(self, lam: float) -> int:
        return int(np.count_nonzero(self.norms_sq <= _int_square(lam)))

    def shell(self, lam: float) -> int:
        return int(np.count_nonzero(self.norms_sq == _int_square(lam)))


def shell_counts(radius: int) -> np.ndarray:
    """r_2(j) for j <= radius^2, by bincount over the square, row block by row block."""
    top = radius * radius
    b_sq = np.arange(-radius, radius + 1, dtype=np.int64) ** 2
    counts = np.zeros(top + 1, dtype=np.int64)
    for start in range(-radius, radius + 1, 128):
        a = np.arange(start, min(start + 128, radius + 1), dtype=np.int64)
        nsq = (a[:, None] ** 2 + b_sq[None, :]).ravel()
        counts += np.bincount(nsq[nsq <= top], minlength=top + 1)
    return counts


def _sinc4(eps: float, s: np.ndarray) -> np.ndarray:
    x = eps * s / 4.0
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, (np.sin(safe) / safe) ** 4)


class Oracle:
    """Builds references for a workload's invocations, sharing lattice scans."""

    def __init__(self):
        self._lattices: dict[tuple[int, int], Lattice] = {}

    def lattice(self, n: int, lam: float) -> Lattice:
        radius = int(math.floor(lam))
        for (dim, r), lat in self._lattices.items():
            if dim == n and r >= radius:
                return lat
        lat = Lattice(n, radius)
        self._lattices[(n, radius)] = lat
        return lat

    def reference(self, spec: dict) -> Reference:
        if spec["manifold"] == "torus":
            return self._torus(spec)
        return _sphere(spec)

    def _torus(self, spec: dict) -> Reference:
        probe, n, grid = spec["probe"], spec["n"], [float(g) for g in spec["grid"]]
        c = weyl_constant(n)
        norm = TWO_PI**n
        if probe == "smoothed":
            return _smoothed(spec, grid)
        lat = self.lattice(n, max(grid) + (1.0 if probe in ("band", "hoelder") else 0.0))

        def offdiag_sum(lam, tau, d):
            pts = lat.ball(lam).astype(np.float64)
            return float(np.sum(np.cos(pts @ (d * (tau / lam))))) / norm

        params = {"manifold": "torus", "n": n}
        extras = {}
        exponent = float(n)
        if probe == "weyl":
            raws = [lat.count(lam) / norm for lam in grid]
            limit, scales = c, [c * lam**n for lam in grid]
        elif probe == "offdiag":
            d = _unit(spec["direction"])
            raws = [offdiag_sum(lam, spec["tau"], d) for lam in grid]
            limit, scales = phi_limit(n, spec["tau"]), [c * lam**n for lam in grid]
            params["tau"] = spec["tau"]
        elif probe == "difference":
            d = _unit(spec["direction"])
            raws = [2.0 * (lat.count(lam) / norm - offdiag_sum(lam, spec["tau"], d)) for lam in grid]
            limit = 2.0 * (c - phi_limit(n, spec["tau"]))
            scales = [2.0 * c * lam**n for lam in grid]
            params["tau"] = spec["tau"]
        elif probe == "deriv":
            alpha, beta = spec["alpha"], spec["beta"]
            gap = sum(alpha) - sum(beta)
            if gap % 2 or any((a - b) % 2 for a, b in zip(alpha, beta)):
                raise ValueError("the benchmark draws parity-matched pairs only")
            sign = -1.0 if (abs(gap) // 2) % 2 else 1.0
            gam = [a + b for a, b in zip(alpha, beta)]
            raws = []
            for lam in grid:
                pts = lat.ball(lam)
                moment = np.prod(pts ** np.asarray(gam, dtype=np.int64), axis=1)
                raws.append(sign * float(np.sum(moment)) / norm)
            limit = sign * ball_moment(n, gam) / norm
            exponent = float(n + sum(gam))
            scales = [abs(limit) * lam**exponent for lam in grid]
            params = {"manifold": "torus", "n": n, "alpha": alpha, "beta": beta}
        elif probe == "band":
            raws = [(lat.count(lam + 1.0) - lat.count(lam)) / norm for lam in grid]
            limit, exponent = n * c, float(n - 1)
            scales = [n * c * lam ** (n - 1) for lam in grid]
            extras["sqrt_band_norm_witness"] = _witness(raws, scales, grid, n)
        elif probe == "hoelder":
            d = _unit(spec["direction"])
            delta, taus = spec["delta"], spec["taus"]
            raws = []
            for lam in grid:
                inside = (lat.norms_sq > _int_square(lam)) & (lat.norms_sq <= _int_square(lam + 1.0))
                pts = lat.points[inside].astype(np.float64)
                best = 0.0
                for tau in taus:
                    dist = tau / lam
                    diff = 2.0 * float(np.sum(1.0 - np.cos(pts @ (d * dist)))) / norm
                    best = max(best, diff / dist ** (2.0 * delta))
                raws.append(best)
            limit, exponent = None, (n - 1.0) + 2.0 * delta
            scales = [c * lam**exponent for lam in grid]
            params.update(delta=delta, tau_grid=taus)
        else:
            raise ValueError(f"no torus reference for probe {probe!r}")
        return Reference(
            probe=probe,
            params=params,
            abscissae=grid,
            raws=raws,
            scales=scales,
            factors=[1.0 / lam**exponent for lam in grid],
            predicted_limit=limit,
            limit_scale=max(abs(limit), c) if limit is not None else 0.0,
            predicted_exponent=exponent,
            fit_abscissae=grid,
            extras=extras,
        )


def _witness(raws, scales, grid, n):
    # sqrt amplifies a raw error near zero, so bound it by the largest change
    # sqrt can make under a raw error of RTOL * scale
    values = [math.sqrt(v) / lam ** ((n - 1) / 2.0) for v, lam in zip(raws, grid)]
    tols = [math.sqrt(RTOL * s) / lam ** ((n - 1) / 2.0) for s, lam in zip(scales, grid)]
    return values, tols


def _smoothed(spec: dict, grid: list[float]) -> Reference:
    n, eps = spec["n"], spec["eps"]
    if n != 2:
        raise ValueError("the smoothed reference covers n = 2")
    # T = 4000/eps, where the sinc^4 envelope (4/(eps T))^4 falls to the documented 1e-12
    trunc = 4.0e3 / eps
    top = max(grid) + trunc
    counts = shell_counts(int(math.floor(top)))
    shells = np.nonzero(counts)[0]
    weights = counts[shells].astype(np.float64)
    radii = np.sqrt(shells.astype(np.float64))
    raws = []
    for lam in grid:
        keep = shells <= _int_square(lam + trunc)
        raws.append(float(np.sum(weights[keep] * _sinc4(eps, lam - radii[keep]))) / TWO_PI**n)
    return Reference(
        probe="smoothed",
        params={"manifold": "torus", "n": n, "window": "sinc4", "eps": eps},
        abscissae=grid,
        raws=raws,
        scales=[abs(v) for v in raws],
        factors=[1.0 / lam ** (n - 1) for lam in grid],
        predicted_limit=None,
        limit_scale=0.0,
        predicted_exponent=float(n - 1),
        fit_abscissae=grid,
    )


# --------------------------------------------------------------------------
# sphere S^2: closed forms and scipy.special Legendre values and roots


def _level(m: int) -> float:
    return math.sqrt(m * (m + 1))


def _band(lam: float) -> list[int]:
    """Degrees m with lam < sqrt(m(m+1)) <= lam + 1, in exact integer arithmetic."""
    lo, hi = _int_square(lam), _int_square(lam + 1.0)
    return [m for m in range(int(lam) + 2) if lo < m * (m + 1) <= hi]


def _kernel(degrees, x: float) -> float:
    if not degrees:
        return 0.0
    ms = np.asarray(degrees)
    return float(np.sum((2.0 * ms + 1.0) * special.eval_legendre(ms, x))) / (4.0 * math.pi)


def _zonal_lr(m: int, r: float) -> float:
    if not (float(r).is_integer() and int(r) % 2 == 0):
        raise ValueError("the zonal reference needs an even integer r")
    nodes, weights = special.roots_legendre(int(r) * m // 2 + 1)  # exact for degree r m
    profile = math.sqrt((2 * m + 1) / (4.0 * math.pi)) * np.abs(special.eval_legendre(m, nodes))
    return float(TWO_PI * np.sum(weights * profile**r)) ** (1.0 / r)


def _hw_ratio(m: int, r: float) -> float:
    # ||sin^m psi||_q^q = 2 pi B((m q + 2)/2, 1/2) on S^2
    def log_norm(q: float) -> float:
        return (math.log(TWO_PI) + special.betaln((m * q + 2.0) / 2.0, 0.5)) / q

    return math.exp(log_norm(r) - log_norm(2.0))


def _gradient_sup(m: int) -> float:
    """max over theta of |d/dtheta P_m(cos theta)|: scan, then bounded Brent."""

    def g(theta):
        # sin(theta) P_m'(cos theta) = m (P_{m-1}(t) - t P_m(t)) / sin(theta)
        t = np.cos(theta)
        return m * np.abs(special.eval_legendre(m - 1, t) - t * special.eval_legendre(m, t)) / np.sin(theta)

    thetas = np.linspace(0.0, math.pi, 16 * m + 1)[1:-1]
    vals = g(thetas)
    peaks = [i for i in range(1, len(vals) - 1) if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]]
    peaks = sorted(peaks, key=lambda i: -vals[i])[:3]
    best = float(vals.max())
    for i in peaks:
        res = optimize.minimize_scalar(
            lambda th: -g(th), bounds=(thetas[i - 1], thetas[i + 1]), method="bounded",
            options={"xatol": 1e-13},
        )
        best = max(best, -float(res.fun))
    return best


def _sphere(spec: dict) -> Reference:
    probe, n = spec["probe"], spec["n"]
    if n != 2:
        raise ValueError("the sphere references cover n = 2")
    c = weyl_constant(2)
    params = {"manifold": "sphere", "n": 2}
    extras: dict[str, tuple[list[float], list[float]]] = {}
    limit = None
    if probe in ("weyl", "offdiag"):
        ms = [int(m) for m in spec["grid"]]
        abscissae = [_level(m) for m in ms]
        if probe == "weyl":
            raws = [(m + 1) ** 2 / (4.0 * math.pi) for m in ms]
            limit = c
        else:
            tau = spec["tau"]
            raws = [_kernel(range(m + 1), math.cos(tau / lam)) for m, lam in zip(ms, abscissae)]
            limit = phi_limit(2, tau)
            params["tau"] = tau
        exponent = 2.0
        scales = [c * lam**2 for lam in abscissae]
        factors = [1.0 / lam**2 for lam in abscissae]
        fit_abscissae = abscissae
    elif probe in ("band", "hoelder"):
        abscissae = [float(g) for g in spec["grid"]]
        if probe == "band":
            raws = [_kernel(_band(lam), 1.0) for lam in abscissae]
            limit, exponent = 2.0 * c, 1.0
            scales = [2.0 * c * lam for lam in abscissae]
            extras["sqrt_band_norm_witness"] = _witness(raws, scales, abscissae, 2)
        else:
            delta, taus = spec["delta"], spec["taus"]
            raws = []
            for lam in abscissae:
                degs = _band(lam)
                k0 = _kernel(degs, 1.0)
                best = 0.0
                for tau in taus:
                    dist = tau / lam
                    best = max(best, 2.0 * (k0 - _kernel(degs, math.cos(dist))) / dist ** (2.0 * delta))
                raws.append(best)
            exponent = 1.0 + 2.0 * delta
            scales = [c * lam**exponent for lam in abscissae]
            params.update(delta=delta, tau_grid=taus)
        factors = [1.0 / lam**exponent for lam in abscissae]
        fit_abscissae = abscissae
    elif probe in ("lp", "cksigma", "nodal"):
        ms = [int(m) for m in spec["grid"]]
        abscissae = [float(m) for m in ms]
        fit_abscissae = [_level(m) for m in ms]
        if probe == "lp":
            r, s = spec["r"], spec["s"]
            norm_of = _zonal_lr if spec["family"] == "zonal" else _hw_ratio
            raws = [(1.0 + lam * lam) ** (s / 2.0) * norm_of(m, r) for m, lam in zip(ms, fit_abscissae)]
            exponent = s + epsilon_exponent(2, r)
            factors = [1.0 / lam**exponent for lam in fit_abscissae]
            params.update(family=spec["family"], r=r, s=s)
        elif probe == "cksigma":
            sigma = spec["sigma"]
            if sigma != 1.0:
                raise ValueError("the cksigma reference covers sigma = 1 (gradient sup)")
            pole = [math.sqrt((2 * m + 1) / (4.0 * math.pi)) for m in ms]
            raws = [p * _gradient_sup(m) for m, p in zip(ms, pole)]
            exponent = sigma + 0.5
            factors = [1.0 / (lam**sigma * p) for lam, p in zip(fit_abscissae, pole)]
            params["sigma"] = sigma
        else:
            thetas, ratios = [], []
            for m in ms:
                thetas.append(math.acos(float(np.max(special.roots_legendre(m)[0]))))
                # extrema of P_m sit at the zeros of P_m' (Jacobi (1,1)) and at +-1
                crit = np.concatenate((special.roots_jacobi(m - 1, 1.0, 1.0)[0], [-1.0, 1.0]))
                ratios.append(1.0 / -float(np.min(special.eval_legendre(m, crit))))
            raws = [lam * th for lam, th in zip(fit_abscissae, thetas)]
            limit, exponent = float(special.jn_zeros(0, 1)[0]), 0.0
            factors = [1.0] * len(ms)
            extras["theta_first_zero"] = (thetas, [RTOL * t for t in thetas])
            extras["cap_inner_radius"] = (thetas, [RTOL * t for t in thetas])
            extras["nadirashvili_ratio"] = (ratios, [RTOL * q for q in ratios])
        scales = [abs(v) for v in raws]
        extras["fit_abscissa"] = (fit_abscissae, [ABSCISSA_RTOL * a for a in fit_abscissae])
    else:
        raise ValueError(f"no sphere reference for probe {probe!r}")
    return Reference(
        probe=probe,
        params=params,
        abscissae=abscissae,
        raws=raws,
        scales=scales,
        factors=factors,
        predicted_limit=limit,
        limit_scale=max(abs(limit), c) if limit is not None else 0.0,
        predicted_exponent=exponent,
        fit_abscissae=fit_abscissae,
        extras=extras,
    )


# --------------------------------------------------------------------------
# checking written tables against a reference


def _close(got, want: float, tol: float) -> bool:
    return isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want) <= tol


def _same_params(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same_params(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _same_params(g, w) for g, w in zip(got, want)
        )
    if isinstance(want, float):
        return _close(got, want, ABSCISSA_RTOL * max(1.0, abs(want)))
    return got == want


def reference_fit(ref: Reference):
    """Least-squares power law through the positive reference rows, low end dropped."""
    pairs = [(a, v) for a, v in zip(ref.fit_abscissae, ref.raws) if v > 0.0]
    pairs = pairs[int(len(pairs) * FIT_DISCARD_FRACTION):]
    if len(pairs) < 3:
        return None
    x = np.log([a for a, _ in pairs])
    y = np.log([v for _, v in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return {"exponent": float(slope), "log_constant": float(intercept),
            "max_residual": resid, "n_points": len(pairs)}


def check_rows(ref: Reference, rows, where: str) -> list[str]:
    """Compare [abscissa, raw, ratio] rows with the reference, row by row."""
    if not isinstance(rows, list) or len(rows) != len(ref.raws):
        return [f"{where}: expected {len(ref.raws)} rows, got {len(rows) if isinstance(rows, list) else rows!r}"]
    errors = []
    for i, (row, a, v, s, f, q) in enumerate(
        zip(rows, ref.abscissae, ref.raws, ref.scales, ref.factors, ref.ratios)
    ):
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            errors.append(f"{where} row {i}: malformed {row!r}")
            continue
        if not _close(row[0], a, ABSCISSA_RTOL * abs(a)):
            errors.append(f"{where} row {i}: abscissa {row[0]!r} != {a!r}")
        if not _close(row[1], v, RTOL * s):
            errors.append(f"{where} row {i}: raw {row[1]!r} vs reference {v!r} (tol {RTOL * s:.3g})")
        if not _close(row[2], q, RTOL * s * abs(f)):
            errors.append(f"{where} row {i}: ratio {row[2]!r} vs reference {q!r}")
    return errors


def _check_limit(ref: Reference, got, where: str) -> list[str]:
    if ref.predicted_limit is None:
        return [] if got is None else [f"{where}: predicted_limit {got!r}, expected none"]
    if not _close(got, ref.predicted_limit, RTOL * ref.limit_scale):
        return [f"{where}: predicted_limit {got!r} vs reference {ref.predicted_limit!r}"]
    return []


def check_payload(ref: Reference, payload: dict) -> list[str]:
    errors = []
    if payload.get("probe") != ref.probe:
        errors.append(f"json: probe {payload.get('probe')!r} != {ref.probe!r}")
    if not _same_params(payload.get("params"), ref.params):
        errors.append(f"json: params {payload.get('params')!r} != {ref.params!r}")
    errors += _check_limit(ref, payload.get("predicted_limit"), "json")
    if not _close(payload.get("predicted_exponent"), ref.predicted_exponent, 1e-12):
        errors.append(f"json: predicted_exponent {payload.get('predicted_exponent')!r}")
    errors += check_rows(ref, payload.get("rows"), "json")
    extra = payload.get("extra") or {}
    if set(extra) != set(ref.extras):
        errors.append(f"json: extra keys {sorted(extra)} != {sorted(ref.extras)}")
    for key, (values, tols) in ref.extras.items():
        got = extra.get(key)
        if not isinstance(got, list) or len(got) != len(values):
            errors.append(f"json: extra {key} has the wrong length")
            continue
        for i, (g, w, t) in enumerate(zip(got, values, tols)):
            if not _close(g, w, t):
                errors.append(f"json: extra {key}[{i}] {g!r} vs reference {w!r}")
    return errors


def check_csv(ref: Reference, text: str) -> list[str]:
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return ["csv: bad header or missing final newline"]
    rows, predicted = [], []
    try:
        for line in lines[1:-1]:
            a, v, q, p = line.split(",")
            rows.append([float(a), float(v), float(q) if q else None])
            predicted.append(float(p) if p else None)
    except ValueError as exc:
        return [f"csv: unparsable row ({exc})"]
    errors = check_rows(ref, rows, "csv")
    for p in predicted:
        errors += _check_limit(ref, p, "csv")
    return errors


def check_summary(ref: Reference, summary: dict) -> list[str]:
    errors = []
    if summary.get("probe") != ref.probe or not _same_params(summary.get("params"), ref.params):
        errors.append("summary: probe or params differ")
    errors += _check_limit(ref, summary.get("predicted_limit"), "summary")
    if not _close(summary.get("predicted_exponent"), ref.predicted_exponent, 1e-12):
        errors.append("summary: predicted_exponent differs")
    last = [summary.get("final_abscissa"), summary.get("final_raw"), summary.get("final_ratio")]
    errors += check_rows(_last_row(ref), [last], "summary")
    q = ref.ratios[-1]
    if ref.predicted_limit is not None:
        dev = abs(q - ref.predicted_limit) / abs(ref.predicted_limit)
        tol = (RTOL * ref.scales[-1] * abs(ref.factors[-1]) + RTOL * ref.limit_scale) / abs(ref.predicted_limit)
        if not _close(summary.get("relative_deviation"), dev, tol):
            errors.append(f"summary: relative_deviation {summary.get('relative_deviation')!r} vs {dev!r}")
    elif summary.get("relative_deviation") is not None:
        errors.append("summary: relative_deviation where none is defined")
    want, got = reference_fit(ref), summary.get("fit")
    if want is None or got is None:
        if want is not got:
            errors.append(f"summary: fit {got!r}, reference {want!r}")
    elif got.get("n_points") != want["n_points"] or not all(
        _close(got.get(k), want[k], FIT_ATOL * max(1.0, abs(want[k])))
        for k in ("exponent", "log_constant", "max_residual")
    ):
        errors.append(f"summary: fit {got!r} vs reference {want!r}")
    return errors


def _last_row(ref: Reference) -> Reference:
    out = copy.copy(ref)
    for name in ("abscissae", "raws", "scales", "factors"):
        setattr(out, name, getattr(ref, name)[-1:])
    return out


@dataclass
class Tables:
    """The files one CLI run wrote, parsed."""

    payload: dict
    csv: str
    summary: dict
    svg: str


def load_tables(out_dir: Path, probe: str) -> tuple[Tables | None, str | None]:
    """Read <probe>_<stamp>.{csv,json,svg} and summary.json; report what is missing."""
    found = {}
    for ext in ("csv", "json", "svg"):
        matches = sorted(out_dir.glob(f"{probe}_*.{ext}"))
        if len(matches) != 1:
            return None, f"expected one {probe}_*.{ext} in the output, found {len(matches)}"
        found[ext] = matches[0]
    summary = out_dir / "summary.json"
    if not summary.is_file():
        return None, "summary.json is missing"
    try:
        return Tables(
            payload=json.loads(found["json"].read_text(encoding="utf-8")),
            csv=found["csv"].read_text(encoding="utf-8"),
            summary=json.loads(summary.read_text(encoding="utf-8")),
            svg=found["svg"].read_text(encoding="utf-8"),
        ), None
    except (OSError, ValueError) as exc:
        return None, f"unreadable output: {exc}"


def check_tables(ref: Reference, tables: Tables) -> list[str]:
    errors = check_payload(ref, tables.payload)
    errors += check_csv(ref, tables.csv)
    errors += check_summary(ref, tables.summary)
    if not (tables.svg.startswith("<svg") and tables.svg.endswith("</svg>\n")):
        errors.append("svg: not a complete SVG document")
    return errors


# --------------------------------------------------------------------------
# self-check: perturbed copies of real tables must fail


def perturbations(ref: Reference, tables: Tables, lattice: Lattice | None):
    """(name, perturbed copy) pairs, each of which the checker must reject."""
    bump = 100.0 * RTOL * ref.scales[-1]

    def edited(fn):
        t = copy.deepcopy(tables)
        fn(t)
        return t

    def bump_raw(t):
        t.payload["rows"][-1][1] += bump

    def drop_row(t):
        del t.payload["rows"][len(t.payload["rows"]) // 2]

    def bump_ratio(t):
        row = t.payload["rows"][0]
        row[2] += 100.0 * RTOL * ref.scales[0] * abs(ref.factors[0])

    def bump_csv(t):
        lines = t.csv.split("\n")
        cells = lines[-2].split(",")
        cells[1] = repr(float(cells[1]) + bump)
        lines[-2] = ",".join(cells)
        t.csv = "\n".join(lines)

    def bump_summary(t):
        t.summary["final_raw"] += bump

    out = [
        ("raw", edited(bump_raw)),
        ("dropped-row", edited(drop_row)),
        ("ratio", edited(bump_ratio)),
        ("csv", edited(bump_csv)),
        ("summary", edited(bump_summary)),
    ]
    for key in ref.extras:
        def bump_extra(t, key=key):
            vals = t.payload["extra"][key]
            vals[-1] = vals[-1] * (1.0 + 1e-4) + 1e-4
        out.append((f"extra-{key}", edited(bump_extra)))
    if ref.probe == "weyl" and lattice is not None:
        # one lattice shell |k| = lambda_max left out of the count
        lam = ref.abscissae[-1]
        lost = lattice.shell(lam) / TWO_PI**lattice.n

        def drop_shell(t):
            row = t.payload["rows"][-1]
            row[1] -= lost
            row[2] = row[1] / lam**ref.predicted_exponent
        out.append(("dropped-shell", edited(drop_shell)))
    return out


def self_check(ref: Reference, tables: Tables, lattice: Lattice | None) -> list[str]:
    """Names of perturbations the checker failed to reject (empty when all are caught)."""
    return [name for name, t in perturbations(ref, tables, lattice) if not check_tables(ref, t)]
