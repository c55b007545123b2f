import math

import numpy as np
import pytest

from speclab import torus
from speclab.analytic import MultiIndex, gauss_legendre_rule, phi_kernel_zero, weyl_constant
from speclab.errors import DomainError
from speclab.probes import (
    ProbeResult,
    default_degree_grid,
    default_lambda_grid,
    fit_scaling,
    probe_band,
    probe_cksigma,
    probe_derivative,
    probe_difference,
    probe_hoelder,
    probe_lp,
    probe_nodal,
    probe_offdiag,
    probe_smoothed,
    probe_weyl,
    scaling_fit,
)
from speclab.torus import SmoothingWindow

SMALL_LAMBDAS = [50.0, 75.0, 100.0, 125.0, 150.0]
SMALL_DEGREES = list(range(20, 121, 20))


class TestFitScaling:
    def test_exact_square_law(self):
        fit = fit_scaling([(10.0, 100.0), (20.0, 400.0), (40.0, 1600.0)])
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.max_residual <= 1e-12
        assert fit.n_points == 3

    @pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0, 3.5])
    def test_exact_power_laws(self, exponent):
        xs = np.linspace(3.0, 60.0, 12)
        fit = fit_scaling([(x, 2.7 * x**exponent) for x in xs])
        assert fit.exponent == pytest.approx(exponent, abs=1e-12)

    def test_refit_reproduces_exponent(self):
        fit = fit_scaling([(5.0, 11.0), (10.0, 43.0), (20.0, 170.0), (40.0, 700.0)])
        regen = [(x, math.exp(fit.log_constant) * x**fit.exponent) for x in (5.0, 15.0, 45.0)]
        assert fit_scaling(regen).exponent == pytest.approx(fit.exponent, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fit_scaling([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(DomainError):
            fit_scaling([(1.0, 1.0), (1.0, 2.0), (3.0, 3.0)])
        with pytest.raises(DomainError):
            fit_scaling([(1.0, 1.0), (2.0, 0.0), (3.0, 3.0)])


class TestProbeConsistency:
    def test_offdiag_tau_zero_equals_weyl(self):
        for manifold, grid in (("torus", SMALL_LAMBDAS), ("sphere", SMALL_DEGREES)):
            w = probe_weyl(manifold, 2, grid)
            o = probe_offdiag(manifold, 2, 0.0, grid)
            assert [r.raw for r in w.rows] == [r.raw for r in o.rows]
            assert [r.abscissa for r in w.rows] == [r.abscissa for r in o.rows]

    def test_difference_identity(self):
        tau = 2.0
        for manifold, grid in (("torus", SMALL_LAMBDAS), ("sphere", SMALL_DEGREES)):
            w = probe_weyl(manifold, 2, grid)
            o = probe_offdiag(manifold, 2, tau, grid)
            d = probe_difference(manifold, 2, tau, grid)
            assert all(
                dr.raw == 2.0 * (wr.raw - orow.raw)
                for dr, wr, orow in zip(d.rows, w.rows, o.rows)
            )

    def test_difference_at_tau_zero_vanishes(self):
        d = probe_difference("torus", 2, 0.0, SMALL_LAMBDAS)
        assert all(r.raw == 0.0 for r in d.rows)
        assert d.predicted_limit == 0.0
        assert all(r.ratio is None for r in d.rows)

    def test_derivative_zero_order_equals_weyl(self):
        z = MultiIndex.of(0, 0)
        dv = probe_derivative(2, z, z, SMALL_LAMBDAS)
        w = probe_weyl("torus", 2, SMALL_LAMBDAS)
        assert [r.raw for r in dv.rows] == [r.raw for r in w.rows]

    def test_rows_sorted_and_ratios_positive(self):
        for res in (
            probe_weyl("torus", 2, SMALL_LAMBDAS),
            probe_band("sphere", 2, [10.0, 20.0, 30.0]),
            probe_lp("zonal", math.inf, 0.0, SMALL_DEGREES),
        ):
            xs = res.abscissae()
            assert xs == sorted(xs)
            for row in res.rows:
                if row.ratio is not None and row.raw > 0.0:
                    assert math.isfinite(row.ratio) and row.ratio > 0.0


class TestDeterminism:
    # probes run serially, so the former worker-count comparison is now a
    # repeatability check; the test keeps its name and case order
    @pytest.mark.parametrize(
        "make",
        [
            lambda: probe_weyl("torus", 2, SMALL_LAMBDAS),
            lambda: probe_offdiag("sphere", 2, 1.0, SMALL_DEGREES),
            lambda: probe_hoelder("torus", 2, 0.5, None, SMALL_LAMBDAS),
            lambda: probe_lp("hw", 4.0, 0.0, SMALL_DEGREES),
            lambda: probe_cksigma(0.5, SMALL_DEGREES[:3]),
            lambda: probe_nodal(SMALL_DEGREES[:3]),
            lambda: probe_lp("zonal", 6.0, 0.5, SMALL_DEGREES),
        ],
    )
    def test_worker_count_invariance(self, make):
        assert make() == make()


class TestWeylProbe:
    def test_torus_ratio_near_constant(self):
        res = probe_weyl("torus", 2, SMALL_LAMBDAS)
        assert res.predicted_limit == weyl_constant(2)
        assert res.rows[-1].ratio == pytest.approx(weyl_constant(2), rel=0.02)

    def test_sphere_pinned_ratio(self):
        res = probe_weyl("sphere", 2, [50])
        # pinned to lambda_50: the telescoped ratio is (M+1)/M relative to c_2
        assert res.rows[0].ratio / weyl_constant(2) == pytest.approx(51.0 / 50.0, rel=1e-9)

    def test_grid_must_start_at_one(self):
        with pytest.raises(DomainError):
            probe_weyl("torus", 2, [0.0, 10.0])

    def test_unknown_manifold(self):
        with pytest.raises(DomainError):
            probe_weyl("disk", 2, SMALL_LAMBDAS)


class TestOffdiagProbe:
    def test_zero_limit_rows_report_raw_only(self):
        res = probe_offdiag("torus", 2, phi_kernel_zero(2, 1), SMALL_LAMBDAS)
        assert res.predicted_limit == 0.0
        assert all(r.ratio is None for r in res.rows)
        assert all(math.isfinite(r.raw) for r in res.rows)

    def test_sphere_distance_cap(self):
        with pytest.raises(DomainError):
            probe_offdiag("sphere", 2, 80.0, [20])

    def test_direction_override_changes_rows(self):
        a = probe_offdiag("torus", 2, 2.0, SMALL_LAMBDAS)
        b = probe_offdiag("torus", 2, 2.0, SMALL_LAMBDAS, direction=(1.0, 0.0))
        assert [r.raw for r in a.rows] != [r.raw for r in b.rows]

    @pytest.mark.parametrize(
        "run",
        [
            lambda d: probe_offdiag("sphere", 2, 1.0, SMALL_DEGREES, direction=d),
            lambda d: probe_difference("sphere", 2, 1.0, SMALL_DEGREES, direction=d),
            lambda d: probe_hoelder("sphere", 2, 0.5, None, [10.0, 20.0, 30.0], direction=d),
        ],
        ids=["offdiag", "difference", "hoelder"],
    )
    def test_direction_refused_on_sphere(self, run):
        # sphere kernels depend on dist(x, y) alone, so a direction would be ignored
        with pytest.raises(DomainError, match="direction"):
            run((1.0, 0.0))

    def test_difference_enumerates_torus_lattice_once(self, monkeypatch):
        calls = []
        enumerate_lattice = torus.enumerate_lattice

        def counting(n, radius):
            calls.append((n, radius))
            return enumerate_lattice(n, radius)

        monkeypatch.setattr(torus, "enumerate_lattice", counting)
        probe_difference("torus", 2, 1.5, SMALL_LAMBDAS)
        # the rows themselves are held by test_difference_identity
        assert calls == [(2, 150.0)]


class TestDerivativeProbe:
    def test_parity_mismatch_rows_exactly_zero(self):
        res = probe_derivative(2, MultiIndex.of(1, 0), MultiIndex.of(0, 0), SMALL_LAMBDAS)
        assert all(r.raw == 0.0 for r in res.rows)
        assert res.predicted_limit == 0.0
        assert all(r.ratio is None for r in res.rows)

    def test_matched_constant(self):
        a = MultiIndex.of(1, 0)
        res = probe_derivative(2, a, a, [100.0, 200.0, 300.0])
        assert res.predicted_exponent == 4.0
        assert res.rows[-1].ratio == pytest.approx(1.0 / (16.0 * math.pi), rel=0.02)


class TestBandProbe:
    def test_torus_band_exponent(self):
        res = probe_band("torus", 2, default_lambda_grid())
        fit = scaling_fit(res)
        assert abs(fit.exponent - 1.0) <= 0.1

    def test_sphere_empty_bands_excluded_from_fit(self):
        # pinned eigenvalue grid has empty bands (gaps exceed 1): rows are zero
        from speclab.sphere import eigen_level

        lams = [eigen_level(2, m).eigenvalue for m in (20, 40, 60)]
        res = probe_band("sphere", 2, lams)
        assert all(r.raw == 0.0 for r in res.rows)
        assert scaling_fit(res) is None

    def test_sphere_integer_grid(self):
        res = probe_band("sphere", 2, [float(v) for v in range(20, 201, 20)])
        fit = scaling_fit(res)
        assert abs(fit.exponent - 1.0) <= 0.1
        assert res.extra is not None and "sqrt_band_norm_witness" in res.extra
        wit = res.extra["sqrt_band_norm_witness"]
        assert all(v == pytest.approx(math.sqrt(r.raw) / r.abscissa**0.5, rel=1e-12)
                   for v, r in zip(wit, res.rows))


class TestHoelderProbe:
    def test_exponent_tracks_prediction(self):
        res = probe_hoelder("torus", 2, 0.5, None, default_lambda_grid())
        fit = scaling_fit(res)
        assert abs(fit.exponent - 2.0) <= 0.1

    def test_small_delta_recovers_band_exponent(self):
        res = probe_hoelder("torus", 2, 0.05, None, default_lambda_grid())
        fit = scaling_fit(res)
        assert abs(fit.exponent - (1.0 + 0.1)) <= 0.15

    def test_quotient_vanishes_at_small_tau(self):
        # at fixed lambda the quotient with delta < 1 goes to 0 as tau -> 0
        small = probe_hoelder("torus", 2, 0.5, [0.05], [100.0]).rows[0].raw
        base = probe_hoelder("torus", 2, 0.5, [2.0], [100.0]).rows[0].raw
        assert small <= 0.05 * base

    def test_delta_domain(self):
        with pytest.raises(DomainError):
            probe_hoelder("torus", 2, 1.0, None, SMALL_LAMBDAS)
        with pytest.raises(DomainError):
            probe_hoelder("torus", 2, 0.5, [11.0], SMALL_LAMBDAS)


class TestLpProbe:
    def test_zonal_sup_exponent(self):
        res = probe_lp("zonal", math.inf, 0.0, default_degree_grid())
        assert abs(scaling_fit(res).exponent - 0.5) <= 0.01

    def test_zonal_sobolev_shift(self):
        res = probe_lp("zonal", math.inf, 1.0, default_degree_grid())
        assert abs(scaling_fit(res).exponent - 1.5) <= 0.03

    def test_hw_small_r_exponent(self):
        res = probe_lp("hw", 4.0, 0.0, default_degree_grid())
        assert abs(scaling_fit(res).exponent - 0.125) <= 0.01

    def test_fit_uses_eigenvalue_abscissae(self):
        res = probe_lp("zonal", math.inf, 0.0, SMALL_DEGREES)
        assert res.extra is not None
        assert res.fit_abscissae() == res.extra["fit_abscissa"]
        assert res.fit_abscissae() != res.abscissae()

    def test_family_validation(self):
        with pytest.raises(DomainError):
            probe_lp("radial", 4.0, 0.0, SMALL_DEGREES)

    def test_zonal_builds_one_exact_rule_per_run(self):
        # the largest default degree, 400, needs 400 * 6/2 + 1 = 1201 nodes for r = 6
        gauss_legendre_rule.cache_clear()
        probe_lp("zonal", 6.0, 0.0)
        assert gauss_legendre_rule.cache_info().misses == 1
        gauss_legendre_rule(1201)
        assert gauss_legendre_rule.cache_info().misses == 1

    def test_non_integer_degrees_refused(self):
        with pytest.raises(DomainError, match="20.5"):
            probe_lp("zonal", 6.0, 0.0, [20.5, 40.0])
        with pytest.raises(DomainError, match="integers"):
            probe_weyl("sphere", 2, [20.0, 40.25])
        assert probe_lp("zonal", 6.0, 0.0, [20.0, 40.0]) == probe_lp("zonal", 6.0, 0.0, [20, 40])


class TestCkSigmaProbe:
    def test_sigma_zero_ratio_is_one(self):
        res = probe_cksigma(0.0, SMALL_DEGREES)
        assert all(r.ratio == pytest.approx(1.0, abs=1e-12) for r in res.rows)

    def test_gradient_proxy_exponent(self):
        res = probe_cksigma(1.0, default_degree_grid())
        assert abs(scaling_fit(res).exponent - 1.5) <= 0.03

    def test_half_sigma_exponent(self):
        res = probe_cksigma(0.5, default_degree_grid())
        assert abs(scaling_fit(res).exponent - 1.0) <= 0.05

    def test_sigma_domain(self):
        with pytest.raises(DomainError):
            probe_cksigma(1.5, SMALL_DEGREES)


class TestNodalProbe:
    def test_limit_and_rows(self):
        res = probe_nodal(SMALL_DEGREES)
        assert res.predicted_limit == pytest.approx(2.4048255576957724, abs=1e-9)
        assert res.extra is not None
        for key in ("theta_first_zero", "cap_inner_radius", "nadirashvili_ratio"):
            assert len(res.extra[key]) == len(res.rows)
        odd_ratio = [
            q for m, q in zip(res.abscissae(), res.extra["nadirashvili_ratio"]) if int(m) % 2
        ]
        assert all(q == pytest.approx(1.0, abs=1e-10) for q in odd_ratio)

    def test_closed_form_row(self):
        res = probe_nodal([3, 4, 5])
        assert res.rows[0].raw == pytest.approx(2.371936897036044, abs=1e-9)


class TestSmoothedProbe:
    def test_exponent_and_doubling(self):
        res = probe_smoothed(2, None, default_lambda_grid())
        assert abs(scaling_fit(res).exponent - 1.0) <= 0.1
        by_abscissa = {r.abscissa: r.raw for r in res.rows}
        assert by_abscissa[200.0] / by_abscissa[100.0] == pytest.approx(2.0, rel=0.15)

    def test_dominates_band_rows(self):
        from speclab import torus

        window = SmoothingWindow()
        grid = [50.0, 100.0]
        res = probe_smoothed(2, window, grid)
        floor = float(np.min(window.value(np.linspace(-1.0, 0.0, 2001))))
        for row in res.rows:
            assert row.raw >= floor * torus.band_diagonal_sum(2, row.abscissa)


class TestProbeResultShape:
    def test_params_recorded(self):
        res = probe_offdiag("torus", 2, 1.5, SMALL_LAMBDAS)
        assert res.params == {"manifold": "torus", "n": 2, "tau": 1.5}

    def test_probe_result_equality_semantics(self):
        a = probe_weyl("torus", 2, SMALL_LAMBDAS)
        b = probe_weyl("torus", 2, SMALL_LAMBDAS)
        assert a == b and isinstance(a, ProbeResult)
