"""Invariant battery behind `speclab selftest`.

`CHECKS` lists every check once, in print order.  Each is independent and
prints one PASS/FAIL line under its name without "check_"; the probe-backed
checks take the output directory and persist their tables there (fixed file
names, timestamp-free contents) so two selftest runs can be compared byte for
byte.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from . import output, probes, sphere, torus
from .analytic import (
    TWO_PI,
    MultiIndex,
    ball_moment,
    bessel_profile,
    deriv_weyl_constant,
    epsilon_exponent,
    gamma,
    gauss_legendre_rule,
    gegenbauer_zeros,
    phi_kernel,
    phi_kernel_bessel,
    phi_kernel_zero,
    weyl_constant,
)

__all__ = ["run_selftest"]


def _all_multi_indices(n: int, max_total: int):
    """Every n-tuple of non-negative integers with sum at most max_total, in lexicographic order."""
    return (e for e in itertools.product(range(max_total + 1), repeat=n) if sum(e) <= max_total)


# ---------------------------------------------------------------- checks


def check_gamma_recursion() -> None:
    for x in np.linspace(0.5, 49.0, 195):
        x = float(x)
        assert abs(gamma(x + 1.0) / (x * gamma(x)) - 1.0) <= 1e-13


def check_phi_equals_weyl_constant() -> None:
    for n in (2, 3, 4, 5):
        assert abs(phi_kernel(n, 0.0) - weyl_constant(n)) <= 1e-12


def check_phi_dual_routes() -> None:
    taus = np.arange(0.0, 30.0001, 0.1)
    for n in (2, 3):
        route = [bessel_profile(n / 2.0, float(t)) / TWO_PI ** (n / 2.0) for t in taus]
        sup = max(abs(v - phi_kernel_bessel(n, float(t))) for v, t in zip(route, taus))
        assert sup <= 1e-9, f"n={n}: sup={sup}"


def check_phi3_tan_zeros() -> None:
    for i in (1, 2, 3):
        z = phi_kernel_zero(3, i)
        # the zero solves tan(z) = z; compare against an independent bisection
        lo, hi = (2 * i - 1) * math.pi / 2.0 + 1e-9, (2 * i + 1) * math.pi / 2.0 - 1e-9
        f = lambda t: math.tan(t) - t
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (f(lo) < 0.0) == (f(mid) < 0.0):
                lo = mid
            else:
                hi = mid
        assert abs(z - 0.5 * (lo + hi)) <= 1e-9


def check_deriv_constant_routes() -> None:
    for n in (2, 3):
        for a_ent in _all_multi_indices(n, 3):
            for b_ent in _all_multi_indices(n, 3):
                alpha, beta = MultiIndex(a_ent), MultiIndex(b_ent)
                closed = deriv_weyl_constant(n, alpha, beta)
                if not alpha.same_parity(beta):
                    assert closed == 0.0
                    continue
                gam = alpha + beta
                half_gap = abs(alpha.order - beta.order) // 2
                sign = -1.0 if half_gap % 2 else 1.0
                moment = sign * ball_moment(n, gam) / TWO_PI ** n
                assert abs(closed - moment) <= 1e-12


def check_epsilon_branches() -> None:
    for n in (2, 3):
        p_star = 2.0 * (n + 1) / (n - 1)
        b1 = (n - 1) / 2.0 - n / p_star
        b2 = (0.25 - 0.5 / p_star) * (n - 1.0)
        assert b1 == b2
        grid = [2.0, 2.5, 3.0, p_star, 8.0, 20.0, 1e6, math.inf]
        vals = [epsilon_exponent(n, p) for p in grid]
        assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))


def check_gauss_legendre_moments() -> None:
    for order in (1, 2, 3, 5, 8, 13, 40):
        rule = gauss_legendre_rule(order)
        assert abs(float(np.sum(rule.weights)) - 2.0) <= 1e-12
        for k in range(2 * order):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(rule.integrate(rule.nodes ** k) - exact) <= 1e-12


def check_gegenbauer_interlacing() -> None:
    for nu in (0.5, 1.0):
        for m in (1, 2, 3, 5, 8, 21, 55, 144, 377, 500):
            z_lo = gegenbauer_zeros(m, nu)
            z_hi = gegenbauer_zeros(m + 1, nu)
            assert z_hi[0] < z_lo[0] and z_lo[-1] < z_hi[-1]
            assert all(z_hi[i] < z_lo[i] < z_hi[i + 1] for i in range(m))


def check_torus_count_bruteforce() -> None:
    for n, lam_max in ((2, 20), (3, 12)):
        _, norms_sq = _cube(n, lam_max + 1)
        running = np.cumsum(np.bincount(norms_sq))
        for lam in range(lam_max + 1):
            assert torus.eigenvalue_count(n, float(lam)) == int(running[lam * lam])


def _cube(n: int, top: int):
    """Every integer vector of [-top, top]^n, one per row, and its squared norm."""
    axis = np.arange(-top, top + 1)
    pts = np.stack([g.ravel() for g in np.meshgrid(*[axis] * n, indexing="ij")], axis=1)
    return pts, np.sum(pts * pts, axis=1)


def _torus_shifts(n: int):
    """Displacements that probe the torus kernels' special cases.

    The origin, a generic shift, a last component of exactly 0 or 1e-9
    (where the Dirichlet kernel is special or nearly so), and (pi, ..., pi).
    """
    return (
        np.zeros(n),
        np.linspace(0.3, -1.1, n),
        np.append(np.full(n - 1, 2.9), 0.0),
        np.append(np.full(n - 1, -0.4), 1e-9),
        np.full(n, math.pi),
    )


def check_torus_kernel_bruteforce() -> None:
    for n, lam_max in ((2, 20), (3, 8)):
        pts, norms_sq = _cube(n, lam_max)
        for lam in np.linspace(0.0, lam_max, 4 * lam_max + 1):
            inside = pts[norms_sq <= lam * lam]
            for shift in _torus_shifts(n):
                ref = float(np.sum(np.cos(inside @ shift)))
                got = torus.spectral_function_torus(n, shift, float(lam)) * TWO_PI ** n
                assert abs(got - ref) <= 1e-12 * len(inside), f"n={n} lam={lam}: {got} vs {ref}"


def check_torus_spectral_bounds() -> None:
    diag = (0.0, 0.0)
    prev = -1.0
    for lam in (5.0, 10.0, 20.0, 40.0):
        e0 = torus.spectral_function_torus(2, diag, lam)
        assert e0 >= prev
        prev = e0
        for scale in (0.01, 0.3, 1.5):
            u = [v * scale for v in torus.default_direction(2)]
            eu = torus.spectral_function_torus(2, u, lam)
            assert abs(eu) <= e0
            assert 2.0 * (e0 - eu) >= 0.0


def check_torus_parity_zero() -> None:
    a, b, c = MultiIndex.of(1, 0), MultiIndex.of(0, 0), MultiIndex.of(2, 0)
    axis = range(-30, 31)
    for lam in (5.0, 17.0, 30.0):
        assert torus.derivative_diagonal_sum(2, a, b, lam) == 0.0
        # a same-parity pair in both orders, against -sum_{|k| <= lam} k_1^2 / (2 pi)^2
        moment = sum(k1 * k1 for k1 in axis for k2 in axis if k1 * k1 + k2 * k2 <= lam * lam)
        want = -moment / TWO_PI ** 2
        cb = torus.derivative_diagonal_sum(2, c, b, lam)
        bc = torus.derivative_diagonal_sum(2, b, c, lam)
        assert cb == bc == want, f"lam={lam}: {cb}, {bc} vs {want}"


def check_sphere_multiplicities() -> None:
    for n in (2, 3, 4):
        for big_m in range(9):
            total = sum(sphere.multiplicity(n, m) for m in range(big_m + 1))
            poly_dim = math.comb(big_m + n + 1, n + 1)
            if big_m >= 2:
                poly_dim -= math.comb(big_m + n - 1, n + 1)
            assert total == poly_dim


def check_sphere_kernel_bounds() -> None:
    thetas = np.linspace(0.0, math.pi, 401)
    for n in (2, 3):
        for m in (0, 1, 4, 9, 25):
            diag = sphere.addition_kernel(n, m, 0.0)
            assert all(abs(sphere.addition_kernel(n, m, float(th))) <= diag * (1 + 1e-12) for th in thetas)


def check_sphere_band_additivity() -> None:
    for lam in (3.0, 7.5, 12.0, 20.0):
        for theta in (2.0, 1.4, 0.0):
            gap = (
                sphere.spectral_function_sphere(2, theta, lam + 1.0)
                - sphere.spectral_function_sphere(2, theta, lam)
                - sphere.band_kernel_sphere(2, theta, lam)
            )
            assert abs(gap) <= 1e-13 * max(1.0, sphere.spectral_function_sphere(2, 0.0, lam + 1.0))


def check_torus_band_kernel() -> None:
    # the band kernel against a direct sum over its annulus lambda < |k| <= lambda + 1
    for n, lam_max in ((2, 20), (3, 8)):
        pts, norms_sq = _cube(n, lam_max + 1)
        for lam in np.linspace(0.0, lam_max, 4 * lam_max + 1):
            lam = float(lam)
            outer = norms_sq <= (lam + 1.0) ** 2
            band = pts[outer & (norms_sq > lam * lam)]
            zero = torus.band_kernel_torus(n, (0.0,) * n, lam)
            assert zero == len(band) / TWO_PI ** n, f"n={n} lam={lam}: {zero}"
            # each of the kernel's two cosine sums rounds on the scale of the outer count
            scale = int(np.count_nonzero(outer))
            for shift in _torus_shifts(n):
                ref = float(np.sum(np.cos(band @ shift)))
                got = torus.band_kernel_torus(n, shift, lam) * TWO_PI ** n
                assert abs(got - ref) <= 1e-12 * scale, f"n={n} lam={lam}: {got} vs {ref}"


def check_zonal_l2_normalization() -> None:
    for n, ms in ((2, (1, 7, 40, 200)), (3, (1, 7, 40))):
        for m in ms:
            assert abs(sphere.zonal_norm(n, m, 2.0) - 1.0) <= 1e-10
            assert abs(sphere.hw_norm(n, m, 2.0) - 1.0) <= 1e-10


def check_hw_norm_routes() -> None:
    for m in (1, 3, 10, 80, 250):
        for r in (2.0, 4.0, 6.0):
            closed, quad = sphere.hw_norm(2, m, r), sphere.hw_norm_quad(2, m, r)
            assert abs(closed / quad - 1.0) <= 1e-8


def check_odd_nadirashvili() -> None:
    for m in (1, 3, 11, 99):
        assert abs(sphere.nadirashvili_ratio(2, m) - 1.0) <= 1e-10


# ------------------------------------------------------- probe-backed checks


def _write_probe(result, fit, out_dir: Path, name: str) -> None:
    output.write_csv(result, out_dir / f"selftest_{name}.csv")
    output.write_json(result, out_dir / f"selftest_{name}.json")
    output.write_summary(result, fit, out_dir / f"selftest_{name}_summary.json")


def check_probe_weyl_torus(out_dir: Path) -> None:
    res = probes.probe_weyl("torus", 2, [50.0, 75.0, 100.0, 125.0, 150.0])
    fit = probes.scaling_fit(res)
    _write_probe(res, fit, out_dir, "weyl_torus")
    assert abs(res.rows[-1].ratio / weyl_constant(2) - 1.0) <= 0.05
    assert abs(fit.exponent - 2.0) <= 0.05


def check_probe_weyl_sphere(out_dir: Path) -> None:
    res = probes.probe_weyl("sphere", 2, list(range(20, 201, 20)))
    fit = probes.scaling_fit(res)
    _write_probe(res, fit, out_dir, "weyl_sphere")
    assert abs(res.rows[-1].ratio / weyl_constant(2) - 1.0) <= 0.05


def check_probe_offdiag_consistency(out_dir: Path) -> None:
    grid = [50.0, 75.0, 100.0]
    w = probes.probe_weyl("torus", 2, grid)
    o = probes.probe_offdiag("torus", 2, 0.0, grid)
    assert [r.raw for r in w.rows] == [r.raw for r in o.rows]
    d = probes.probe_difference("torus", 2, 1.5, grid)
    o15 = probes.probe_offdiag("torus", 2, 1.5, grid)
    _write_probe(o15, probes.scaling_fit(o15), out_dir, "offdiag_torus")
    assert all(dr.raw == 2.0 * (wr.raw - orow.raw) for dr, wr, orow in zip(d.rows, w.rows, o15.rows))


def check_probe_band_sphere(out_dir: Path) -> None:
    res = probes.probe_band("sphere", 2, [float(v) for v in range(20, 201, 20)])
    fit = probes.scaling_fit(res)
    _write_probe(res, fit, out_dir, "band_sphere")
    assert abs(fit.exponent - 1.0) <= 0.2


def check_probe_lp_zonal(out_dir: Path) -> None:
    res = probes.probe_lp("zonal", math.inf, 0.0, list(range(20, 201, 20)))
    fit = probes.scaling_fit(res)
    _write_probe(res, fit, out_dir, "lp_zonal")
    assert abs(fit.exponent - 0.5) <= 0.02


def check_probe_nodal_gap(out_dir: Path) -> None:
    res = probes.probe_nodal(list(range(20, 121, 20)))
    _write_probe(res, None, out_dir, "nodal")
    assert abs(res.rows[-1].raw / res.predicted_limit - 1.0) <= 0.01


# ------------------------------------------------------------- the battery

CHECKS = (
    check_gamma_recursion, check_phi_equals_weyl_constant, check_phi_dual_routes,
    check_phi3_tan_zeros, check_deriv_constant_routes, check_epsilon_branches,
    check_gauss_legendre_moments, check_gegenbauer_interlacing,
    check_torus_count_bruteforce, check_torus_kernel_bruteforce, check_torus_spectral_bounds,
    check_torus_parity_zero, check_sphere_multiplicities, check_sphere_kernel_bounds,
    check_sphere_band_additivity, check_torus_band_kernel, check_zonal_l2_normalization,
    check_hw_norm_routes, check_odd_nadirashvili,
    check_probe_weyl_torus, check_probe_weyl_sphere, check_probe_offdiag_consistency,
    check_probe_band_sphere, check_probe_lp_zonal, check_probe_nodal_gap,
)


def run_selftest(out_dir: Path) -> int:
    """Run every check in CHECKS; returns the number of failures."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for check in CHECKS:
        name = check.__name__.removeprefix("check_")
        try:
            check(out_dir) if check.__code__.co_argcount else check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} invariants passed")
    return failures
