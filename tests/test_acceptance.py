"""Acceptance criteria, one test per criterion.

Each test pins the stated tolerance and runtime budget and prints a
PASS/FAIL line (visible under `pytest -s` or in the captured output).
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy import special

import speclab
from speclab.analytic import (
    MultiIndex,
    ball_moment,
    bessel_profile,
    bessel_zero,
    deriv_weyl_constant,
    phi_kernel,
    phi_kernel_bessel,
    weyl_constant,
)
from speclab.probes import (
    fit_scaling,
    probe_band,
    probe_cksigma,
    probe_deriv,
    probe_difference,
    probe_hoelder,
    probe_lp,
    probe_offdiag,
    probe_smoothed,
    probe_weyl,
    scaling_fit,
)
from speclab.sphere import (
    band_kernel_sphere,
    eigenvalue,
    hw_norm,
    hw_norm_quad,
    nadirashvili_ratio,
    nodal_gap_zonal,
)
from speclab.torus import eigenvalue_count

TWO_PI = 2.0 * math.pi
DEGREE_GRID = list(range(20, 401, 20))
LAMBDA_GRID = [float(v) for v in range(50, 301, 25)]


class _Budget:
    def __init__(self, label: str, seconds: float):
        self.label, self.seconds = label, seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"PASS {self.label} ({self.elapsed:.1f}s <= {self.seconds:.0f}s)")
            assert self.elapsed <= self.seconds, (
                f"{self.label} exceeded its {self.seconds:.0f}s budget: {self.elapsed:.1f}s"
            )
        else:
            print(f"FAIL {self.label}")
        return False


def test_criterion_01_local_weyl_law():
    with _Budget("criterion 1: local Weyl law (torus)", 10.0):
        res = probe_weyl("torus", 2, LAMBDA_GRID)
        ratio = res.rows[-1].ratio
        assert abs(ratio / weyl_constant(2) - 1.0) <= 0.01
    with _Budget("criterion 1: local Weyl law (sphere)", 10.0):
        res = probe_weyl("sphere", 2, DEGREE_GRID)
        ratio = res.rows[-1].ratio
        assert abs(ratio / weyl_constant(2) - 1.0) <= 0.005


def test_criterion_02_weyl_count():
    with _Budget("criterion 2: Weyl count", 5.0):
        assert eigenvalue_count(2, 5.0) == 81
        counts = [(lam, float(eigenvalue_count(2, lam))) for lam in LAMBDA_GRID]
        fit = fit_scaling(counts)
        assert abs(fit.exponent - 2.0) <= 0.02


def test_criterion_03_derivative_weyl_law():
    with _Budget("criterion 3: derivative Weyl law", 10.0):
        a = MultiIndex.of(1, 0)
        res = probe_deriv(2, a, a, LAMBDA_GRID)
        assert abs(res.rows[-1].ratio / (1.0 / (16.0 * math.pi)) - 1.0) <= 0.01
        mismatched = probe_deriv(2, a, MultiIndex.of(0, 0), LAMBDA_GRID)
        assert all(r.raw == 0.0 for r in mismatched.rows)


def test_criterion_04_offdiagonal_asymptotics():
    with _Budget("criterion 4: off-diagonal asymptotics", 30.0):
        tol = 0.02 * weyl_constant(2)
        tau_zero = bessel_zero(1.0, 1)
        phi_2 = phi_kernel(2, 2.0)
        for manifold in ("torus", "sphere"):
            grid = LAMBDA_GRID if manifold == "torus" else DEGREE_GRID
            at_2 = probe_offdiag(manifold, 2, 2.0, grid)
            lam = at_2.rows[-1].abscissa
            assert abs(at_2.rows[-1].raw / lam**2 - phi_2) <= tol
            at_zero = probe_offdiag(manifold, 2, tau_zero, grid)
            lam = at_zero.rows[-1].abscissa
            assert abs(at_zero.rows[-1].raw / lam**2) <= tol


def test_criterion_05_difference_formula():
    with _Budget("criterion 5: difference formula", 10.0):
        res = probe_difference("torus", 2, 2.0, LAMBDA_GRID)
        target = 2.0 * (weyl_constant(2) - phi_kernel(2, 2.0))
        tol = 0.02 * 2.0 * weyl_constant(2)
        assert abs(res.rows[-1].ratio - target) <= tol


def test_criterion_06_band_sums():
    with _Budget("criterion 6: band sums", 10.0):
        fit = scaling_fit(probe_band("torus", 2, LAMBDA_GRID))
        assert abs(fit.exponent - 1.0) <= 0.1
        assert band_kernel_sphere(2, 0.0, 10.0) == 21.0 / (4.0 * math.pi)


def test_criterion_07_hoelder_quotient():
    with _Budget("criterion 7: Hoelder quotient", 60.0):
        fit = scaling_fit(probe_hoelder("torus", 2, 0.5, None, LAMBDA_GRID))
        assert abs(fit.exponent - 2.0) <= 0.1


def test_criterion_08_norm_exponents():
    with _Budget("criterion 8: norm exponents", 60.0):
        # precondition: the two highest-weight norm routes agree to 1e-8
        for m in DEGREE_GRID:
            assert abs(hw_norm(2, m, 4.0) / hw_norm_quad(2, m, 4.0) - 1.0) <= 1e-8
        fit = scaling_fit(probe_lp("zonal", math.inf, 0.0, DEGREE_GRID))
        assert abs(fit.exponent - 0.5) <= 0.01
        fit = scaling_fit(probe_lp("zonal", math.inf, 1.0, DEGREE_GRID))
        assert abs(fit.exponent - 1.5) <= 0.03
        fit = scaling_fit(probe_lp("hw", 4.0, 0.0, DEGREE_GRID))
        assert abs(fit.exponent - 0.125) <= 0.01


def test_criterion_09_cksigma_equivalence():
    with _Budget("criterion 9: C^sigma/H^k equivalence", 120.0):
        fit = scaling_fit(probe_cksigma(1.0, DEGREE_GRID))
        assert abs(fit.exponent - 1.5) <= 0.03
        fit = scaling_fit(probe_cksigma(0.5, DEGREE_GRID))
        assert abs(fit.exponent - 1.0) <= 0.05


def test_criterion_10_nodal_geometry():
    with _Budget("criterion 10: nodal geometry", 30.0):
        product = eigenvalue(2, 300) * nodal_gap_zonal(2, 300)
        assert 2.393 <= product <= 2.417
        oracle = float(special.jn_zeros(0, 1)[0])  # from scipy, not hard-coded
        assert abs(product / oracle - 1.0) <= 0.005
        assert abs(nadirashvili_ratio(2, 299) - 1.0) <= 1e-10
        min_j0 = abs(float(special.j0(bessel_zero(1.0, 1))))
        assert abs(nadirashvili_ratio(2, 300) * min_j0 - 1.0) <= 0.05


def test_criterion_11_smoothed_sums():
    with _Budget("criterion 11: smoothed sums", 30.0):
        fit = scaling_fit(probe_smoothed(2, None, LAMBDA_GRID))
        assert abs(fit.exponent - 1.0) <= 0.1


def test_criterion_12_analytic_cross_checks():
    with _Budget("criterion 12: analytic cross-checks", 5.0):
        for n in (2, 3, 4, 5):
            assert abs(phi_kernel(n, 0.0) - weyl_constant(n)) <= 1e-12
        taus = np.arange(0.0, 30.0001, 0.1)
        for n in (2, 3):
            route = [bessel_profile(n / 2.0, float(t)) / TWO_PI ** (n / 2.0) for t in taus]
            sup = max(abs(v - phi_kernel_bessel(n, float(t))) for v, t in zip(route, taus))
            assert sup <= 1e-9
        for i in (1, 2, 3):
            z = bessel_zero(1.5, i)
            root = _bisect_tan_root(i)
            assert abs(z - root) <= 1e-10
        for n in (2, 3):
            for alpha, beta in _parity_pairs(n, 6):
                closed = deriv_weyl_constant(n, alpha, beta)
                half_gap = abs(alpha.order - beta.order) // 2
                sign = -1.0 if half_gap % 2 else 1.0
                moment = sign * ball_moment(n, alpha + beta) / TWO_PI**n
                assert abs(closed - moment) <= 1e-12


def _bisect_tan_root(i: int) -> float:
    lo = (2 * i - 1) * math.pi / 2.0 + 1e-9
    hi = (2 * i + 1) * math.pi / 2.0 - 1e-9
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if (math.tan(lo) - lo < 0.0) == (math.tan(mid) - mid < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _parity_pairs(n: int, top: int):
    def indices(k, budget):
        if k == 1:
            return [(a,) for a in range(budget + 1)]
        return [(a, *rest) for a in range(budget + 1) for rest in indices(k - 1, budget - a)]

    for a_ent in indices(n, top // 2):
        for b_ent in indices(n, top // 2):
            alpha, beta = MultiIndex(a_ent), MultiIndex(b_ent)
            if alpha.order + beta.order <= top and alpha.same_parity(beta):
                yield alpha, beta


def test_criterion_13_selftest_determinism(tmp_path):
    with _Budget("criterion 13: selftest determinism", 600.0):
        # the child imports speclab from the same tree as this process
        env = dict(os.environ, PYTHONPATH=str(Path(speclab.__file__).parents[1]))
        outputs = {}
        for threads in (1, 4):
            out = tmp_path / f"threads{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "speclab.cli", "selftest",
                 "--threads", str(threads), "--out", str(out)],
                capture_output=True,
                text=True,
                env=env,
                check=False,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            assert "FAIL" not in proc.stdout
            outputs[threads] = {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.suffix in (".csv", ".json")
            }
        assert outputs[1].keys() == outputs[4].keys()
        for name in outputs[1]:
            assert outputs[1][name] == outputs[4][name], f"{name} differs across thread counts"
