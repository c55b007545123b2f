import math

import numpy as np
import pytest

from speclab import probes, sphere, torus
from speclab.analytic import (
    MultiIndex,
    bessel_zero,
    gauss_legendre_rule,
    weyl_constant,
)
from speclab.errors import DomainError, ResourceLimitError
from speclab.probes import (
    ProbeResult,
    ProbeRow,
    default_degree_grid,
    default_lambda_grid,
    fit_scaling,
    probe_band,
    probe_cksigma,
    probe_deriv,
    probe_difference,
    probe_hoelder,
    probe_lp,
    probe_nodal,
    probe_offdiag,
    probe_smoothed,
    probe_weyl,
    scaling_fit,
    _hoelder_proxy,
)
from speclab.sphere import ZonalFamily, eigenvalue
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


def _numpy_fit(samples):
    """The numpy formula fit_scaling replaced, summed by math.fsum: (exponent, log_constant, max_residual)."""
    x = np.log([a for a, _ in samples])
    y = np.log([v for _, v in samples])
    x_mean = math.fsum(x) / len(x)
    xm = x - x_mean
    slope = math.fsum(xm * y) / math.fsum(xm * xm)
    intercept = math.fsum(y) / len(y) - slope * x_mean
    resid = y - (slope * x + intercept)
    return slope, intercept, float(np.max(np.abs(resid)))


# every probe at its default grid, as the CLI runs it
_DEFAULT_RUNS = {
    "weyl-torus": lambda: probe_weyl("torus", 2),
    "weyl-sphere": lambda: probe_weyl("sphere", 2),
    "offdiag-torus": lambda: probe_offdiag("torus", 2, 1.5),
    "offdiag-sphere": lambda: probe_offdiag("sphere", 2, 1.5),
    "difference-torus": lambda: probe_difference("torus", 2, 1.5),
    "difference-sphere": lambda: probe_difference("sphere", 2, 1.5),
    "deriv": lambda: probe_deriv(2, MultiIndex.of(1, 0), MultiIndex.of(1, 0)),
    "band-torus": lambda: probe_band("torus", 2),
    "band-sphere": lambda: probe_band("sphere", 2),
    "hoelder-torus": lambda: probe_hoelder("torus", 2, 0.5),
    "hoelder-sphere": lambda: probe_hoelder("sphere", 2, 0.5),
    "lp-zonal-r6": lambda: probe_lp("zonal", 6.0, 0.0),
    "lp-zonal-r3": lambda: probe_lp("zonal", 3.0, 0.5),
    "lp-zonal-inf": lambda: probe_lp("zonal", math.inf, 0.0),
    "lp-hw-r4": lambda: probe_lp("hw", 4.0, 0.0),
    "cksigma-0": lambda: probe_cksigma(0.0),
    "cksigma-0.5": lambda: probe_cksigma(0.5),
    "cksigma-1": lambda: probe_cksigma(1.0),
    "nodal": lambda: probe_nodal(),
    "smoothed": lambda: probe_smoothed(2),
}


class TestStdlibFit:
    @pytest.mark.parametrize("name", list(_DEFAULT_RUNS))
    def test_matches_numpy_on_default_fit_points(self, name, monkeypatch):
        # math.log and np.log (SIMD) can round apart; where they agree the fit is
        # bit-equal, and where one log moves an ulp the fit moves at most 2 ulps
        # (1 was seen: lp-zonal-r6, at 1.2275294583577792 on an AVX-512 machine)
        seen = []
        monkeypatch.setattr(probes, "fit_scaling", lambda pts: seen.append(pts) or fit_scaling(pts))
        fit = scaling_fit(_DEFAULT_RUNS[name]())
        (pts,) = seen
        got = (fit.exponent, fit.log_constant, fit.max_residual)
        want = _numpy_fit(pts)
        if all(math.log(v) == np.log(v) for pair in pts for v in pair):
            assert got == want
        else:
            for g, w in zip(got, want):
                assert abs(g - w) <= 2 * np.spacing(abs(w)), (g, w)


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
        dv = probe_deriv(2, z, z, SMALL_LAMBDAS)
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

    @pytest.mark.parametrize(
        "run",
        [
            lambda: probe_band("sphere", 2, [math.nan]),
            lambda: probe_band("sphere", 2, [math.inf]),
            lambda: probe_hoelder("sphere", 2, 0.5, None, [5.0, math.nan]),
            lambda: probe_weyl("torus", 2, [math.nan]),
        ],
        ids=["band-nan", "band-inf", "hoelder-nan", "weyl-torus-nan"],
    )
    def test_non_finite_grid_refused(self, run):
        # nan passes the order and start checks, and round(nan) raised a bare ValueError
        with pytest.raises(DomainError, match="grid entries must be finite"):
            run()

    def test_unknown_manifold(self):
        with pytest.raises(DomainError):
            probe_weyl("disk", 2, SMALL_LAMBDAS)


class TestOffdiagProbe:
    def test_zero_limit_rows_report_raw_only(self):
        res = probe_offdiag("torus", 2, bessel_zero(1.0, 1), SMALL_LAMBDAS)
        assert res.predicted_limit == 0.0
        assert all(r.ratio is None for r in res.rows)
        assert all(math.isfinite(r.raw) for r in res.rows)

    def test_sphere_distance_cap(self):
        with pytest.raises(DomainError):
            probe_offdiag("sphere", 2, 80.0, [20])

    def test_torus_distance_cap_follows_direction(self):
        # along (1, 1) the displacement first wraps at pi/max|d_i| = pi sqrt(2)
        reach = math.pi * math.sqrt(2.0)
        probe_offdiag("torus", 2, 0.99 * reach, [1.0, 2.0], direction=(1.0, 1.0))
        with pytest.raises(DomainError, match="tau/lambda exceeds pi/max"):
            probe_offdiag("torus", 2, 1.01 * reach, [1.0, 2.0], direction=(1.0, 1.0))
        with pytest.raises(DomainError, match="tau/lambda exceeds pi/max"):
            probe_hoelder("torus", 2, 0.5, [1.01 * reach], [1.0, 2.0], direction=(1.0, 1.0))

    def test_torus_raws_pinned(self):
        # every bit of two torus offdiag tables, so a change in how the
        # displacement reaches the cosine sums shows here; the n = 3 rows are
        # the sum over a of cos(a u_1) times the sum over b of cos(b u_2) D_w
        # (tests/test_torus.py bounds their gap to the old p . u' formula)
        grid3 = [float(v) for v in range(10, 61, 5)]
        assert [r.raw.hex() for r in probe_offdiag("torus", 2, 1.5).rows] == [
            "0x1.27c59c04eb4d6p+7", "0x1.4cea0c98a738fp+8", "0x1.2801781005ddap+9",
            "0x1.ce6d5a9d36e14p+9", "0x1.4cfb0aca2b61ap+10", "0x1.c53ca04db9a89p+10",
            "0x1.27f078714d0c0p+11", "0x1.769a7e672ad83p+11", "0x1.ce7274caf5a06p+11",
            "0x1.17c2bde56fc10p+12", "0x1.4cf516a09620bp+12",
        ]
        res = probe_offdiag("torus", 3, 2.0, grid3, direction=(0.3, -1.1, 0.7))
        assert [r.raw.hex() for r in res.rows] == [
            "0x1.5fc2561bc3695p+3", "0x1.29ec534674913p+5", "0x1.602061dbb83fdp+6",
            "0x1.57fce9bbe762bp+7", "0x1.29bff45933355p+8", "0x1.d8d54264a958dp+8",
            "0x1.60a0bd82a34aep+9", "0x1.f6b160e413ca0p+9", "0x1.58845d7d0e3b6p+10",
            "0x1.ca8b79c9a1914p+10", "0x1.299e6b6e44c17p+11",
        ]

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


class TestDerivativeProbe:
    def test_parity_mismatch_rows_exactly_zero(self):
        res = probe_deriv(2, MultiIndex.of(1, 0), MultiIndex.of(0, 0), SMALL_LAMBDAS)
        assert all(r.raw == 0.0 for r in res.rows)
        assert res.predicted_limit == 0.0
        assert all(r.ratio is None for r in res.rows)

    def test_matched_constant(self):
        a = MultiIndex.of(1, 0)
        res = probe_deriv(2, a, a, [100.0, 200.0, 300.0])
        assert res.predicted_exponent == 4.0
        assert res.rows[-1].ratio == pytest.approx(1.0 / (16.0 * math.pi), rel=0.02)


class TestBandProbe:
    def test_torus_band_exponent(self):
        res = probe_band("torus", 2, default_lambda_grid())
        fit = scaling_fit(res)
        assert abs(fit.exponent - 1.0) <= 0.1

    def test_sphere_empty_bands_excluded_from_fit(self):
        # pinned eigenvalue grid has empty bands (gaps exceed 1): rows are zero
        lams = [eigenvalue(2, m) for m in (20, 40, 60)]
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


def _unit(direction):
    d = np.asarray(direction, dtype=float)
    return d / math.sqrt(float(np.sum(d * d)))


def _band_reference(manifold, n, direction):
    """The band kernel at dist(x, y) = dist, from the public torus and sphere sums."""
    if manifold == "sphere":
        return lambda lam, dist: sphere.band_kernel_sphere(n, dist, lam)
    d = np.array(torus.default_direction(n)) if direction is None else _unit(direction)
    return lambda lam, dist: torus.band_kernel_torus(n, d * dist, lam)


BAND_CASES = [
    ("torus", 2, None, [20.0, 45.0, 70.0]),
    ("torus", 2, (1.0, -2.0), [20.0, 45.0, 70.0]),
    ("torus", 3, None, [10.0, 25.0, 40.0]),
    ("torus", 3, (1.0, 2.0, 3.0), [10.0, 25.0, 40.0]),
    ("sphere", 2, None, [20.0, 45.0, 70.0]),
    ("sphere", 3, None, [10.0, 25.0, 40.0]),
]


class TestKernelAssembly:
    """hoelder and band rows, bit for bit, against a loop over the public kernels."""

    @pytest.mark.parametrize("manifold,n,direction,lambdas", BAND_CASES)
    def test_hoelder_rows(self, manifold, n, direction, lambdas):
        delta, taus = 0.4, [0.5, 1.5, 3.0, 6.0]
        band = _band_reference(manifold, n, direction)
        expected = []
        for lam in lambdas:
            k0 = band(lam, 0.0)
            quotients = [2.0 * (k0 - band(lam, t / lam)) / (t / lam) ** (2.0 * delta) for t in taus]
            expected.append(max([0.0] + quotients))
        res = probe_hoelder(manifold, n, delta, taus, lambdas, direction=direction)
        assert [r.raw for r in res.rows] == expected
        assert res.abscissae() == lambdas

    @pytest.mark.parametrize("manifold,n,lambdas", [(m, n, g) for m, n, d, g in BAND_CASES if d is None])
    def test_band_rows(self, manifold, n, lambdas):
        if manifold == "torus":
            expected = [torus.band_diagonal_sum(n, lam) for lam in lambdas]
        else:
            expected = [sphere.band_kernel_sphere(n, 0.0, lam) for lam in lambdas]
        res = probe_band(manifold, n, lambdas)
        assert [r.raw for r in res.rows] == expected
        assert res.abscissae() == lambdas


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
        for manifold in ("torus", "sphere"):
            with pytest.raises(DomainError):
                probe_hoelder(manifold, 2, 1.0, None, SMALL_LAMBDAS)
            with pytest.raises(DomainError):
                probe_hoelder(manifold, 2, 0.5, [11.0], SMALL_LAMBDAS)
            # a NaN tau fails the range check, alone or beside a valid one
            for taus in ([math.nan], [1.0, math.nan]):
                with pytest.raises(DomainError, match=r"tau grid must lie in \(0, 10\]"):
                    probe_hoelder(manifold, 2, 0.5, taus, SMALL_LAMBDAS)


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

    def test_nan_inputs_refused(self):
        # each NaN fails its range check, not a float conversion or the overflow guard
        for family, r, s in (("zonal", math.nan, 0.0), ("zonal", 6.0, math.nan), ("hw", math.nan, 0.0)):
            with pytest.raises(DomainError, match="r >= 2|Sobolev order"):
                probe_lp(family, r, s, SMALL_DEGREES)

    def test_sobolev_overflow_refused(self):
        # (1 + lambda^2)^(s/2) raises OverflowError from about s = 118 on the default grid
        with pytest.raises(ResourceLimitError, match="overflows a float"):
            probe_lp("hw", 4.0, 300.0)

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

    def test_sigma_zero_takes_each_sup_norm_once(self, monkeypatch):
        built = []
        real = ZonalFamily.create.__func__

        def counting(cls, n, m):
            built.append(m)
            return real(cls, n, m)

        monkeypatch.setattr(ZonalFamily, "create", classmethod(counting))
        res = probe_cksigma(0.0, SMALL_DEGREES)
        monkeypatch.undo()
        assert built == SMALL_DEGREES
        assert [r.raw for r in res.rows] == [sphere.zonal_norms(2, [m], math.inf)[0] for m in SMALL_DEGREES]
        assert all(r.ratio == 1.0 for r in res.rows)

    def test_gradient_proxy_exponent(self):
        res = probe_cksigma(1.0, default_degree_grid())
        assert abs(scaling_fit(res).exponent - 1.5) <= 0.03

    def test_half_sigma_exponent(self):
        res = probe_cksigma(0.5, default_degree_grid())
        assert abs(scaling_fit(res).exponent - 1.0) <= 0.05

    def test_sigma_domain(self):
        with pytest.raises(DomainError):
            probe_cksigma(1.5, SMALL_DEGREES)

    def test_hoelder_proxy_matches_the_loop(self):
        # one (26, 201) array keeps the arithmetic of one evaluation per separation
        for n, m, delta in ((2, 40, 0.5), (3, 120, 0.25)):
            lam = eigenvalue(n, m)
            fam = ZonalFamily.create(n, m)
            base = np.linspace(0.0, 10.0 / lam, 201)
            zb = fam.at(base)
            best = 0.0
            for h in np.exp(np.linspace(math.log(0.1 / lam), math.log(10.0 / lam), 25)):
                best = max(best, float(np.max(np.abs(fam.at(base + h) - zb))) / h ** delta)
            assert _hoelder_proxy(n, m, lam, delta) == best


@pytest.mark.parametrize(
    "run",
    [
        lambda: probe_weyl("torus", 2, SMALL_LAMBDAS),
        lambda: probe_weyl("sphere", 2, SMALL_DEGREES),
        lambda: probe_offdiag("torus", 2, 1.5, SMALL_LAMBDAS),
        lambda: probe_offdiag("sphere", 2, 1.5, SMALL_DEGREES),
        lambda: probe_difference("torus", 2, 1.5, SMALL_LAMBDAS),
        lambda: probe_difference("sphere", 2, 1.5, SMALL_DEGREES),
        lambda: probe_deriv(2, MultiIndex.of(1, 0), MultiIndex.of(1, 0), SMALL_LAMBDAS),
        lambda: probe_band("torus", 2, SMALL_LAMBDAS),
        lambda: probe_band("sphere", 2, SMALL_LAMBDAS),
        lambda: probe_hoelder("torus", 2, 0.5, None, SMALL_LAMBDAS),
        lambda: probe_hoelder("sphere", 2, 0.5, None, SMALL_LAMBDAS),
        lambda: probe_lp("zonal", 6.0, 1.0, SMALL_DEGREES),
        lambda: probe_lp("hw", 4.0, 1.0, SMALL_DEGREES),
        lambda: probe_cksigma(0.0, SMALL_DEGREES),
        lambda: probe_cksigma(0.5, SMALL_DEGREES),
        lambda: probe_cksigma(1.0, SMALL_DEGREES),
        lambda: probe_nodal(SMALL_DEGREES),
        lambda: probe_smoothed(2, None, SMALL_LAMBDAS),
    ],
    ids=["weyl-torus", "weyl-sphere", "offdiag-torus", "offdiag-sphere", "difference-torus",
         "difference-sphere", "deriv", "band-torus", "band-sphere", "hoelder-torus", "hoelder-sphere", "lp-zonal", "lp-hw",
         "cksigma-0", "cksigma-0.5", "cksigma-1", "nodal", "smoothed"],
)
def test_rows_hold_python_floats(run):
    for row in run().rows:
        assert type(row.abscissa) is float and type(row.raw) is float
        assert type(row.ratio) in (float, type(None))


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

    @pytest.mark.parametrize("n", [2, 3])
    def test_rows_and_extras_bit_for_bit(self, n):
        res = probe_nodal(SMALL_DEGREES, n=n)
        thetas = res.extra["theta_first_zero"]
        assert thetas == [sphere.nodal_gap_zonal(n, m) for m in SMALL_DEGREES]
        products = [eigenvalue(n, m) * theta for m, theta in zip(SMALL_DEGREES, thetas)]
        assert [r.raw for r in res.rows] == products
        assert [r.ratio for r in res.rows] == products
        assert res.extra["cap_inner_radius"] == thetas
        assert res.extra["fit_abscissa"] == [eigenvalue(n, m) for m in SMALL_DEGREES]

    def test_closed_form_row(self):
        res = probe_nodal([3, 4, 5])
        assert res.rows[0].raw == pytest.approx(2.371936897036044, abs=1e-9)

    def test_limit_per_dimension(self):
        # lambda theta_1 -> j_{(n-2)/2, 1}: pi on S^3, j_{1,1} on S^4, and no
        # predicted limit past n = 32
        res = probe_nodal([100, 200, 300, 400], n=3)
        assert res.predicted_limit == math.pi
        assert abs(res.rows[-1].raw / math.pi - 1.0) <= 1e-5
        res = probe_nodal([100, 200, 300, 400], n=4)
        assert res.predicted_limit == pytest.approx(3.8317059702075125, rel=1e-15)
        assert abs(res.rows[-1].raw / res.predicted_limit - 1.0) <= 1e-4
        assert probe_nodal([20, 40, 60], n=33).predicted_limit is None

    def test_limit_edges(self):
        assert probes._nodal_limit(2) == pytest.approx(2.4048255576957724, abs=1e-15)
        assert probes._nodal_limit(3) == math.pi
        assert [probes._nodal_limit(n) for n in (33, 40, 150)] == [None, None, None]


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
        res = probe_smoothed(2, window.eps, grid)
        floor = float(np.min(window.value(np.linspace(-1.0, 0.0, 2001))))
        for row in res.rows:
            assert row.raw >= floor * torus.band_diagonal_sum(2, row.abscissa)

    def test_n3_ratios_match_the_radial_integral(self):
        # within the window's Fourier support the lattice sum is the radial
        # integral: 4/(3 pi eps) + (4/eps)^3/(4 pi lambda^2) for n = 3
        eps = 4.0
        res = probe_smoothed(3, eps, default_lambda_grid())
        for row in res.rows:
            lam = row.abscissa
            expected = 4.0 / (3.0 * math.pi * eps) + (4.0 / eps) ** 3 / (4.0 * math.pi * lam**2)
            assert row.ratio == pytest.approx(expected, rel=1e-6, abs=0.0)


# every probe on a small grid, with a zero limit for offdiag, difference and deriv
_SMALL_RUNS = {
    "small-weyl": lambda: probe_weyl("sphere", 3, SMALL_DEGREES),
    "small-offdiag": lambda: probe_offdiag("torus", 2, 1.5, SMALL_LAMBDAS),
    "small-offdiag-zero": lambda: probe_offdiag("sphere", 2, bessel_zero(1.0, 1), SMALL_DEGREES),
    "small-difference": lambda: probe_difference("sphere", 2, 1.5, SMALL_DEGREES),
    "small-difference-zero": lambda: probe_difference("torus", 2, 0.0, SMALL_LAMBDAS),
    "small-deriv": lambda: probe_deriv(2, MultiIndex.of(2, 0), MultiIndex.of(0, 0), SMALL_LAMBDAS),
    "small-deriv-zero": lambda: probe_deriv(2, MultiIndex.of(1, 0), MultiIndex.of(0, 0), SMALL_LAMBDAS),
    "small-band": lambda: probe_band("torus", 2, SMALL_LAMBDAS),
    "small-hoelder": lambda: probe_hoelder("sphere", 2, 0.5, None, SMALL_LAMBDAS),
    "small-lp": lambda: probe_lp("hw", 4.0, 1.0, SMALL_DEGREES),
    "small-cksigma-0.5": lambda: probe_cksigma(0.5, SMALL_DEGREES),
    "small-cksigma-1": lambda: probe_cksigma(1.0, SMALL_DEGREES, n=3),
    "small-nodal": lambda: probe_nodal(SMALL_DEGREES),
    "small-smoothed": lambda: probe_smoothed(2, None, SMALL_LAMBDAS),
}


class TestProbeResultShape:
    def test_params_recorded(self):
        res = probe_offdiag("torus", 2, 1.5, SMALL_LAMBDAS)
        assert res.params == {"manifold": "torus", "n": 2, "tau": 1.5}

    @pytest.mark.parametrize("name", list(_DEFAULT_RUNS) + list(_SMALL_RUNS))
    def test_ratio_rule_bit_for_bit(self, name):
        # the ratio is the raw over fit_abscissa ** predicted_exponent, or over
        # lambda^sigma ||Z||_inf for cksigma, and no ratio where the limit is 0;
        # only the degree-indexed probes carry their eigenvalues as fit abscissae
        res = {**_DEFAULT_RUNS, **_SMALL_RUNS}[name]()
        assert (res.predicted_limit == 0.0) == name.endswith("-zero")
        n, e = res.params["n"], res.predicted_exponent
        degree_indexed = res.probe in ("lp", "cksigma", "nodal")
        assert ("fit_abscissa" in (res.extra or {})) == degree_indexed
        if degree_indexed:
            assert res.fit_abscissae() == [eigenvalue(n, int(m)) for m in res.abscissae()]
        for row, lam in zip(res.rows, res.fit_abscissae()):
            if res.predicted_limit == 0.0:
                want = None
            elif res.probe == "cksigma":
                want = row.raw / (lam ** res.params["sigma"] * sphere.zonal_norms(n, [int(row.abscissa)], math.inf)[0])
            else:
                want = row.raw / lam ** e
            assert row.ratio == want, (row, want)

    def test_zero_limit_forms_no_growth(self):
        # 1000^200 overflows a float; a zero limit writes no ratio, so it divides by none
        assert probes._table("p", {}, [1e3], [1.0], 200.0, 0.0).rows == [ProbeRow(1000.0, 1.0, None)]
        with pytest.raises(ResourceLimitError, match=r"lambda\^200 overflows a float at lambda = 1000"):
            probes._table("p", {}, [1e3], [1.0], 200.0, 1.0)

    def test_probe_result_equality_semantics(self):
        a = probe_weyl("torus", 2, SMALL_LAMBDAS)
        b = probe_weyl("torus", 2, SMALL_LAMBDAS)
        assert a == b and isinstance(a, ProbeResult)
