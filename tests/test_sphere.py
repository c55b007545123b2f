import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from speclab.analytic import (
    _first_zero_in_s,
    _profile_pair,
    bessel_zero,
    gauss_legendre_rule,
    phi_kernel,
    sphere_area,
    weyl_constant,
)
from speclab import probes, sphere
from speclab.errors import DomainError, NumericError, ResourceLimitError
from speclab.sphere import (
    ZonalFamily,
    addition_kernel,
    band_degrees,
    band_kernel_sphere,
    eigenvalue,
    hw_norm,
    hw_norm_quad,
    max_degree,
    multiplicity,
    nadirashvili_ratio,
    nodal_gap_zonal,
    sobolev_scale,
    spectral_function_sphere,
    zonal_gradient_sup,
    zonal_norms,
)

FOUR_PI = 4.0 * math.pi
P3_ZERO = 0.7745966692414834


def zonal_eval(n, m, theta):
    """The L_2-normalized zonal harmonic of degree m at colatitude theta."""
    return ZonalFamily.create(n, m).at(theta)


class TestEigenLevel:
    def test_examples(self):
        assert eigenvalue(2, 1) == pytest.approx(math.sqrt(2.0)) and multiplicity(2, 1) == 3
        assert multiplicity(2, 10) == 21
        assert eigenvalue(2, 10) == pytest.approx(math.sqrt(110.0))
        assert eigenvalue(3, 2) == pytest.approx(math.sqrt(8.0)) and multiplicity(3, 2) == 9

    def test_degree_zero(self):
        assert eigenvalue(2, 0) == 0.0
        assert multiplicity(5, 0) == 1

    def test_harmonic_polynomial_dimension_oracle(self):
        # dim H_m in n+1 ambient variables: C(n+m, m) - C(n+m-2, m-2)
        for n in (2, 3, 4):
            for m in range(0, 12):
                expected = math.comb(n + m, m) - (math.comb(n + m - 2, m - 2) if m >= 2 else 0)
                assert multiplicity(n, m) == expected

    def test_total_dimension_brute_force(self):
        for n in (2, 3, 4):
            for big_m in range(0, 9):
                total = sum(multiplicity(n, m) for m in range(big_m + 1))
                poly_dim = math.comb(big_m + n + 1, n + 1)
                if big_m >= 2:
                    poly_dim -= math.comb(big_m + n - 1, n + 1)
                assert total == poly_dim

    def test_large_degree_exact(self):
        assert multiplicity(2, 2000) == 4001
        assert multiplicity(3, 2000) == 2001 * 2001

    def test_domain(self):
        with pytest.raises(DomainError):
            eigenvalue(1, 3)
        with pytest.raises(DomainError):
            eigenvalue(2, -1)


class TestMaxDegree:
    def test_plain_cutoffs(self):
        assert max_degree(2, 20.0) == 19  # 19*20 = 380 <= 400 < 420
        assert max_degree(2, 0.0) == 0
        assert max_degree(2, 1.41) == 0
        assert max_degree(2, math.sqrt(2.0)) == 1  # the level's own float eigenvalue

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_refused(self, lam):
        # round(lam * lam) raised a bare ValueError at nan and an OverflowError at inf
        with pytest.raises(DomainError, match="finite"):
            max_degree(2, lam)

    def test_pinned_grid_includes_its_level(self):
        for m in (20, 137, 400):
            lam = eigenvalue(2, m)
            assert max_degree(2, lam) == m

    def test_band_degrees(self):
        assert list(band_degrees(2, 10.0)) == [10]
        assert list(band_degrees(2, 0.5)) == [1]
        assert list(band_degrees(2, eigenvalue(2, 20))) == []


@st.composite
def max_degree_cases(draw):
    """n, and lambda pinned to a level, one ulp or up to 1e-8 relative off it, or free."""
    n = draw(st.integers(2, 12))
    m = draw(st.integers(0, 10**6))
    pinned = math.sqrt(m * (m + n - 1))
    lam = draw(
        st.one_of(
            st.just(pinned),
            st.just(math.nextafter(pinned, math.inf)),
            st.just(math.nextafter(pinned, -math.inf)).filter(lambda x: x >= 0.0),
            st.floats(-1e-8, 1e-8).map(lambda d: pinned * (1.0 + d)),
            st.floats(0.0, 1.1e6),
            st.floats(1e15, 1e154),
        )
    )
    return n, lam


def _eigenvalue_or_inf(n, m):
    """eigenvalue(n, m), or inf where m(m+n-1) has no float."""
    try:
        return eigenvalue(n, m)
    except OverflowError:
        return math.inf


class TestMaxDegreeProperty:
    @settings(derandomize=True, deadline=None)
    @given(max_degree_cases())
    def test_largest_level_whose_float_eigenvalue_is_at_most_lambda(self, case):
        # eigenvalue is monotone in m, so this pins m; the rule has no tolerance
        n, lam = case
        m = max_degree(n, lam)
        assert eigenvalue(n, m) <= lam < _eigenvalue_or_inf(n, m + 1)

    @pytest.mark.parametrize("level", [31622 * 31623, 10**6 * (10**6 + 1)])
    def test_level_just_above_lambda_not_counted(self, level):
        # the old 1e-8 relative snap of lambda^2 reached 0.5 near lambda = 7071,
        # so sqrt(K - 0.4) counted the level K = m(m+1) above it
        lam = math.sqrt(level - 0.4)
        m = max_degree(2, lam)
        assert m * (m + 1) < level
        assert eigenvalue(2, m) <= lam < eigenvalue(2, m + 1)

    @pytest.mark.parametrize("n", [2, 3, 9])
    @pytest.mark.parametrize("lam", [1e150, 1e200, 1e300, sys.float_info.max])
    def test_huge_lambda_in_closed_form(self, n, lam):
        # the old search stepped one degree at a time from a float estimate and
        # ran for minutes at lambda = 1e150; past sqrt(max float) the largest
        # degree with a float eigenvalue answers
        m = max_degree(n, lam)
        assert eigenvalue(n, m) <= lam < _eigenvalue_or_inf(n, m + 1)


class TestAdditionKernel:
    def test_degree_zero_constant(self):
        for theta in (math.pi, 1.4, 0.0):
            assert addition_kernel(2, 0, theta) == pytest.approx(1.0 / FOUR_PI, abs=1e-16)

    def test_diagonal_is_multiplicity_over_area(self):
        assert addition_kernel(2, 3, 0.0) == 7.0 / FOUR_PI

    def test_vanishes_at_legendre_zero(self):
        assert addition_kernel(2, 3, math.acos(P3_ZERO)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n,m", [(2, 5), (2, 12), (3, 5), (3, 9)])
    def test_dominated_by_diagonal(self, n, m):
        diag = addition_kernel(n, m, 0.0)
        for theta in np.linspace(0.0, math.pi, 201):
            assert abs(addition_kernel(n, m, float(theta))) <= diag * (1.0 + 1e-12)

    @pytest.mark.parametrize("n,m", [(2, 4), (2, 11), (3, 6)])
    def test_self_reproducing_by_quadrature(self, n, m):
        # Int_{S^n} K(x.y)^2 dy = K(1): quadrature in the colatitude of y
        rule = gauss_legendre_rule(4 * m + 16)
        theta, w = rule.mapped(0.0, math.pi)
        vals = np.array([addition_kernel(n, m, float(t)) for t in theta])
        area_factor = 2.0 * math.pi if n == 2 else FOUR_PI
        integral = float(np.sum(w * vals**2 * np.sin(theta) ** (n - 1))) * area_factor
        assert integral == pytest.approx(addition_kernel(n, m, 0.0), rel=1e-8)

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 4)])
    def test_orthogonal_to_constants(self, n, m):
        rule = gauss_legendre_rule(4 * m + 16)
        theta, w = rule.mapped(0.0, math.pi)
        vals = np.array([addition_kernel(n, m, float(t)) for t in theta])
        integral = float(np.sum(w * vals * np.sin(theta) ** (n - 1)))
        assert abs(integral) <= 1e-10

    def test_domain(self):
        # NaN compares false with everything, so a check written as theta > pi would let it through
        for theta in (-1e-300, -0.5, math.nextafter(math.pi, 4.0), 4.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="theta"):
                addition_kernel(2, 3, theta)
            for kernel in (spectral_function_sphere, band_kernel_sphere):
                with pytest.raises(DomainError, match="theta"):
                    kernel(2, theta, 10.0)


class TestSpectralFunction:
    def test_diagonal_telescopes(self):
        assert spectral_function_sphere(2, 0.0, 20.0) == pytest.approx(100.0 / math.pi, rel=1e-14)
        assert spectral_function_sphere(2, 0.0, 0.0) == pytest.approx(1.0 / FOUR_PI, abs=1e-16)

    def test_cauchy_schwarz_domination(self):
        for lam in (5.0, 12.0, 20.5):
            diag = spectral_function_sphere(2, 0.0, lam)
            for theta in np.linspace(0.0, math.pi, 101):
                assert abs(spectral_function_sphere(2, float(theta), lam)) <= diag * (1.0 + 1e-12)

    def test_band_additivity(self):
        for lam in (3.0, 7.5, 10.0, 19.2):
            for theta in (math.acos(-0.6), math.pi / 2.0, math.acos(0.8), 0.0):
                gap = (
                    spectral_function_sphere(2, theta, lam + 1.0)
                    - spectral_function_sphere(2, theta, lam)
                    - band_kernel_sphere(2, theta, lam)
                )
                scale = max(1.0, spectral_function_sphere(2, 0.0, lam + 1.0))
                assert abs(gap) <= 1e-13 * scale

    def test_off_diagonal_tracks_phi(self):
        lam = eigenvalue(2, 400)
        for tau in (2.0, bessel_zero(1.0, 1)):
            e = spectral_function_sphere(2, tau / lam, lam)
            assert abs(e / lam**2 - phi_kernel(2, tau)) <= 0.02 * weyl_constant(2)


class TestBandKernel:
    def test_single_level_band_exact(self):
        assert band_kernel_sphere(2, 0.0, 10.0) == 21.0 / FOUR_PI

    def test_low_band(self):
        assert band_kernel_sphere(2, 0.0, 0.5) == 3.0 / FOUR_PI

    def test_empty_band_is_zero(self):
        # the next level sits just beyond lam + 1, by about 1/(8 m^2) on S^2; the
        # old 1e-8 relative snap of lambda^2 counted it from m = 300 on
        for n in (2, 3, 8):
            for m in (0, 1, 17, 20, 60, 300, 1000, 10**4):
                lam = eigenvalue(n, m)
                assert len(band_degrees(n, lam)) == 0
                assert band_kernel_sphere(n, 0.0, lam) == 0.0

    def test_order_of_growth(self):
        val = band_kernel_sphere(2, 0.0, 10.0)
        assert val / 10.0 == pytest.approx(1.0 / (2.0 * math.pi), rel=0.06)


@st.composite
def kernel_cases(draw):
    """n, lambda and theta = dist: free, 0 or pi, or tau/lambda at tau in (0, 10], dist <= pi."""
    n = draw(st.integers(2, 8))
    lam = draw(st.floats(0.0, 300.0))
    tau = draw(st.floats(0.01, 10.0))
    near = min(tau / lam, math.pi) if lam > 0.0 else 0.0
    theta = draw(st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi]), st.just(near)))
    return n, lam, theta


def _degree_sum(n, degrees, theta):
    """The per-degree route: addition kernels summed one at a time, and their diagonal."""
    value = math.fsum(addition_kernel(n, k, theta) for k in degrees)
    diagonal = math.fsum(multiplicity(n, k) for k in degrees) / sphere_area(n)
    return value, diagonal


class TestClosedFormAgainstDegreeSum:
    @settings(derandomize=True, deadline=None)
    @given(kernel_cases())
    def test_spectral_and_band_kernels(self, case):
        n, lam, theta = case
        value, diagonal = _degree_sum(n, range(max_degree(n, lam) + 1), theta)
        assert abs(spectral_function_sphere(n, theta, lam) - value) <= 1e-12 * diagonal
        value, diagonal = _degree_sum(n, band_degrees(n, lam), theta)
        assert abs(band_kernel_sphere(n, theta, lam) - value) <= 1e-12 * diagonal

    # 50-digit mpmath: the per-degree sum of d_k C_k^nu(t) / C_k^nu(1) over
    # k <= 400, divided by |S^n|, at t = cos(theta) of the exact float
    # theta = 1.5 / lambda, lambda = sqrt(400 (400 + n - 1))
    @pytest.mark.parametrize(
        "n,expected",
        [
            (2, 9511.836600567187546445075188669876008858),
            (3, 865484.4080378128675240940092433359258508),
            (10, 2871753440107302882.839665788699545100056),
        ],
        ids=["2", "3", "10"],
    )
    def test_against_mpmath_at_degree_400(self, n, expected):
        lam = eigenvalue(n, 400)
        diagonal = spectral_function_sphere(n, 0.0, lam)
        assert abs(spectral_function_sphere(n, 1.5 / lam, lam) - expected) <= 5e-13 * diagonal


def _mp_area(n):
    return 2 * mpmath.pi ** (mpmath.mpf(n + 1) / 2) / mpmath.gamma(mpmath.mpf(n + 1) / 2)


def _mp_spectral(n, theta, m):
    """e(x, y, lambda) at dist(x, y) = theta (the exact float) and top degree m, in 40-digit mpmath.

    The per-degree sum telescopes to (C_m^{nu+1}(t) + C_{m-1}^{nu+1}(t)) / |S^n| (DLMF 18.9).
    """
    a, t = mpmath.mpf(n + 1) / 2, mpmath.cos(mpmath.mpf(theta))
    return (mpmath.gegenbauer(m, a, t) + mpmath.gegenbauer(m - 1, a, t)) / _mp_area(n)


def _mp_band(n, theta, lam):
    """The band kernel at dist(x, y) = theta (the exact float), summed over its degrees in mpmath."""
    nu = mpmath.mpf(n - 1) / 2
    t = mpmath.cos(mpmath.mpf(theta))
    degrees = band_degrees(n, lam)
    terms = (multiplicity(n, k) * mpmath.gegenbauer(k, nu, t) / mpmath.gegenbauer(k, nu, 1) for k in degrees)
    return mpmath.fsum(terms) / _mp_area(n)


class TestKernelsAtTheExactAngle:
    """Sphere kernels near the pole against 40-digit mpmath at the exact float theta.

    A kernel that takes t = cos(theta) as a float loses up to 1.1e-16/(theta^2/2)
    relative to its rounding, which at theta = 1.5/lambda grows as lambda^2: before
    the kernels took theta, they were 2.7e-6 off here at M = 10^6.
    """

    @pytest.mark.parametrize("m", [400, 10**4, 10**5, 10**6])
    @pytest.mark.parametrize("n", [2, 3])
    def test_spectral_function(self, n, m):
        lam = eigenvalue(n, m)
        with mpmath.workdps(40):
            ref = _mp_spectral(n, 1.5 / lam, m)
            assert abs(spectral_function_sphere(n, 1.5 / lam, lam) / ref - 1) <= 1e-13

    @pytest.mark.parametrize("m", [400, 10**4, 10**5])
    def test_difference_raw(self, m):
        # the raw 2 (e(0) - e(theta)) of `difference --tau 1.5`, at the degree m pinned to its lambda
        lam = eigenvalue(2, m)
        (row,) = probes.probe_difference("sphere", 2, 1.5, [m]).rows
        with mpmath.workdps(40):
            ref = 2 * (_mp_spectral(2, 0.0, m) - _mp_spectral(2, 1.5 / lam, m))
            assert abs(row.raw / ref - 1) <= 1e-13

    @pytest.mark.parametrize("lam", [1e3, 1e4, 1e5])
    @pytest.mark.parametrize("n", [2, 3])
    def test_band_kernel(self, n, lam):
        # a bound that grows as lambda; test_band_kernel_to_the_diagonal holds the tighter one
        with mpmath.workdps(40):
            ref = _mp_band(n, 1.0 / lam, lam)
            assert abs(band_kernel_sphere(n, 1.0 / lam, lam) / ref - 1) <= 1e-15 * lam

    @pytest.mark.parametrize("lam", [1e3, 1e4, 1e5, 1e6])
    @pytest.mark.parametrize("n", [2, 3])
    def test_band_kernel_to_the_diagonal(self, n, lam):
        # a band kernel formed as e(lambda + 1) - e(lambda) subtracts two lambda^n-sized
        # sums and loses digits as lambda: it fails this from lambda = 10^4 on
        with mpmath.workdps(40):
            diagonal = _mp_band(n, 0.0, lam)
            for tau in (0.5, 1.5, 3.0, 6.0):
                ref = _mp_band(n, tau / lam, lam)
                assert abs(band_kernel_sphere(n, tau / lam, lam) - ref) <= 1e-13 * diagonal

    @pytest.mark.parametrize("n", [2, 3])
    def test_hoelder_raw(self, n):
        # the raw sup over tau of 2 (K(0) - K(dist)) / dist of `hoelder --delta 0.5` at lambda = 10^5
        lam = 1e5
        (row,) = probes.probe_hoelder("sphere", n, 0.5, None, [lam]).rows
        with mpmath.workdps(40):
            k0 = _mp_band(n, 0.0, lam)
            dists = [tau / lam for tau in probes.default_tau_grid()]
            ref = max(2 * (k0 - _mp_band(n, dist, lam)) / mpmath.mpf(dist) for dist in dists)
            assert abs(row.raw / ref - 1) <= 2e-14

    @pytest.mark.parametrize("m", [2 * 10**4, 99_000])
    def test_nodal_raw(self, m):
        # lambda theta_1 of `nodal` on S^2 against the first zero of P_m(cos theta), found in theta
        lam = eigenvalue(2, m)
        (row,) = probes.probe_nodal([m]).rows
        with mpmath.workdps(40):
            seed = 2.404825557695773 / (m + 0.5)  # j_{0,1} / (m + 1/2), Mehler-Heine
            root = mpmath.findroot(
                lambda th: mpmath.legendre(m, mpmath.cos(th)), (seed * (1 - 1e-6), seed * (1 + 1e-6)), solver="anderson"
            )
            assert abs(row.raw / (lam * root) - 1) <= 1e-14


class TestRemainderIsHalfTheLastStep:
    """The second term of e(x, y, lambda_M) at dist = tau/lambda_M is half the step at lambda_M.

    e - lambda^n Phi_n(tau) = (B_n(tau)/2) lambda^(n-1) (1 + c/M + ...), where
    B_n lambda^(n-1), B_n = n Phi_n + tau Phi_n', is the rise of lambda^n Phi_n(lambda
    theta) over a unit of lambda at fixed theta.  These pin M (q - 1) at M <= 10^5;
    past that, the rounding of the lambda^n-sized e moves it (ROADMAP item 8).
    """

    CASES = [
        (2, 1.5, (0.4999, 0.5000, 0.5002), (0.4999, 0.5000, 0.5002)),
        (2, 4.0, (0.5003, 0.5001, 0.5001), (0.4999, 0.5000, 0.5001)),
        (3, 1.5, (1.4821, 1.4822, 1.4822), (1.4818, 1.4821, 1.4822)),
    ]

    @staticmethod
    def _remainder(n, tau, m):
        lam = eigenvalue(n, m)
        return lam, spectral_function_sphere(n, tau / lam, lam) - lam**n * phi_kernel(n, tau)

    @pytest.mark.parametrize("n,tau,expected,_", CASES, ids=["2-1.5", "2-4", "3-1.5"])
    def test_against_the_profile(self, n, tau, expected, _):
        # Phi_n' = -tau Lambda_{n/2+1}(tau) / (2 pi)^(n/2)
        lo, hi = _profile_pair(n, tau)
        scale = (2.0 * math.pi) ** (n / 2.0)
        b_n = n * lo / scale - tau * tau * hi / scale
        for m, value in zip((3200, 10**4, 10**5), expected):
            lam, rem = self._remainder(n, tau, m)
            assert m * (rem / lam ** (n - 1) / (b_n / 2.0) - 1.0) == pytest.approx(value, abs=0.002)

    @pytest.mark.parametrize("n,tau,_,expected", CASES, ids=["2-1.5", "2-4", "3-1.5"])
    def test_against_the_band_kernel(self, n, tau, _, expected):
        # the band (lambda_M - ulp, lambda_M - ulp + 1] holds degree M alone
        for m, value in zip((3200, 10**4, 10**5), expected):
            lam, rem = self._remainder(n, tau, m)
            step = band_kernel_sphere(n, tau / lam, math.nextafter(lam, 0.0))
            assert m * (rem / (step / 2.0) - 1.0) == pytest.approx(value, abs=0.002)


class TestZonal:
    def test_constant_member(self):
        assert zonal_eval(2, 0, 1.0) == pytest.approx(1.0 / math.sqrt(FOUR_PI), abs=1e-16)

    def test_pole_value(self):
        assert zonal_eval(2, 5, 0.0) == pytest.approx(math.sqrt(11.0 / FOUR_PI), rel=1e-15)

    def test_zero_of_p2(self):
        assert zonal_eval(2, 2, math.acos(1.0 / math.sqrt(3.0))) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n,ms", [(2, (1, 3, 17, 60, 200, 500)), (3, (1, 3, 17, 60))])
    def test_l2_norm_is_one(self, n, ms):
        for m in ms:
            assert zonal_norms(n, [m], 2.0)[0] == pytest.approx(1.0, abs=1e-10)

    def test_sup_norm_and_pole(self):
        for m in (1, 6, 41):
            sup = zonal_norms(2, [m], math.inf)[0]
            assert sup == zonal_eval(2, m, 0.0)
            grid = np.linspace(0.0, math.pi, 40 * m + 1)
            fam_vals = np.array([zonal_eval(2, m, float(t)) for t in grid])
            assert np.max(np.abs(fam_vals)) <= sup * (1.0 + 1e-12)

    def test_sup_norm_closed_form(self):
        for m in (10, 100):
            assert zonal_norms(2, [m], math.inf)[0] == pytest.approx(
                math.sqrt((2 * m + 1) / FOUR_PI), rel=1e-14
            )

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            zonal_norms(2, [4000], 6.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            zonal_norms(2, [5], 1.5)
        for r in (math.nan, -math.inf):
            with pytest.raises(DomainError, match="r >= 2"):
                zonal_norms(2, [5], r)
        with pytest.raises(DomainError):
            ZonalFamily.create(2, -1)

    @pytest.mark.parametrize("m", [3000, 5000, 7000])
    def test_pole_value_past_the_float_range_refused(self, m):
        # multiplicity(150, 7000) ~ 2e313 raised a bare OverflowError as a float;
        # from m = 3000 the quotient by |S^150| ~ 2.4e-71 overflowed to an inf scale
        with pytest.raises(ResourceLimitError, match=rf"degree {m} on S\^150 .* float limit 1.79769e\+308"):
            ZonalFamily.create(150, m)

    def test_finite_pole_values_keep_their_bits(self):
        for n, m in ((2, 7000), (150, 2000), (342, 1)):
            assert ZonalFamily.create(n, m).scale == math.sqrt(multiplicity(n, m) / sphere_area(n))


# ||Z_400||_r for r = 4, 6 from a 34-digit Gauss-Legendre rule at the exact
# order (mpmath, Newton-refined nodes).  The r=4 value also equals, to the
# last digit, the exact sum Int P_m^4 = sum_L 2(2L+1) (m m L; 0 0 0)^4 done in
# rational arithmetic.  scipy.special.roots_legendre weights at orders 801 and
# 1201 are off by up to 4.5e-9 relative at the end nodes, which moves a
# roots_legendre reference by 6e-11 (r=4) and 7e-10 (r=6).
ZONAL_NORM_400 = {4.0: 0.8042785149369742, 6.0: 1.3775692329449976}

# ||Z_m||_r = sqrt((2m+1)/(4 pi)) (2 pi Int_{-1}^{1} P_m^r dt)^(1/r) on S^2, with
# the integral done exactly: P_m's coefficients from Rodrigues' formula, its
# r-th power and the moments 2/(k+1) in fractions.Fraction, and the root taken
# by 40-digit mpmath
ZONAL_NORM_EXACT = {
    (6.0, 200): 1.227529458357055013875425,
    (6.0, 400): 1.377569232944997604089894,
    (4.0, 400): 0.8042785149369742173521811,
}


def _legendre_zonal_norm(m: int, r: float) -> float:
    """||Z_m||_r on S^2 from scipy Legendre roots and values, exact order m r/2 + 1."""
    nodes, weights = special.roots_legendre(int(r) * m // 2 + 1)
    profile = math.sqrt((2 * m + 1) / FOUR_PI) * np.abs(special.eval_legendre(m, nodes))
    return float(2.0 * math.pi * np.sum(weights * profile**r)) ** (1.0 / r)


def _adaptive_zonal_norm(n: int, m: int, r: float) -> float:
    """||Z_m||_r by adaptive quadrature with the zeros of Z_m as break points."""
    if n == 2:
        scale = math.sqrt((2 * m + 1) / FOUR_PI)
        zeros = special.roots_legendre(m)[0]
        lo, hi, area = -1.0, 1.0, 2.0 * math.pi

        def f(t):
            return abs(scale * special.eval_legendre(m, t)) ** r

    else:
        # on S^3, Z_m = U_m(cos theta) / (pi sqrt 2) against sin^2(theta) dtheta
        zeros = np.sort(np.arccos(special.roots_chebyu(m)[0]))
        lo, hi, area = 0.0, math.pi, FOUR_PI

        def f(th):
            return abs(special.eval_chebyu(m, math.cos(th)) / (math.pi * math.sqrt(2.0))) ** r * math.sin(th) ** 2

    value, _ = integrate.quad(f, lo, hi, points=zeros, epsabs=0.0, epsrel=1e-12, limit=50 * (m + 1))
    return (area * value) ** (1.0 / r)


class TestZonalNorms:
    @pytest.mark.parametrize("r", [4.0, 6.0])
    def test_even_r_against_scipy_legendre(self, r):
        for m in (1, 20):
            assert zonal_norms(2, [m], r)[0] == pytest.approx(_legendre_zonal_norm(m, r), rel=1e-12)
        assert zonal_norms(2, [400], r)[0] == pytest.approx(ZONAL_NORM_400[r], rel=1e-12)

    def test_even_r_against_the_exact_integral(self):
        # m = 200 shares the order-1201 rule with m = 400, as on the default lp grid
        low, high = zonal_norms(2, [200, 400], 6.0)
        assert low == pytest.approx(ZONAL_NORM_EXACT[6.0, 200], rel=3e-14, abs=0)
        assert high == pytest.approx(ZONAL_NORM_EXACT[6.0, 400], rel=1e-14, abs=0)
        assert zonal_norms(2, [400], 4.0)[0] == pytest.approx(ZONAL_NORM_EXACT[4.0, 400], rel=1e-14, abs=0)

    @pytest.mark.parametrize(
        "n,m,r",
        [(2, 1, 3.0), (2, 20, 3.0), (2, 400, 3.0), (2, 100, 2.5), (2, 900, 5.0), (3, 1, 3.0), (3, 60, 3.0)],
    )
    def test_other_r_against_adaptive_quadrature(self, n, m, r):
        assert zonal_norms(n, [m], r)[0] == pytest.approx(_adaptive_zonal_norm(n, m, r), rel=1e-10)

    def test_one_rule_for_the_whole_grid(self):
        degrees = [0, 3, 20, 7, 20]
        gauss_legendre_rule.cache_clear()
        norms = zonal_norms(2, degrees, 6.0)
        assert gauss_legendre_rule.cache_info().misses == 1
        gauss_legendre_rule(3 * 20 + 1)
        assert gauss_legendre_rule.cache_info().misses == 1
        # single degrees use smaller exact rules, so only rounding may differ
        assert norms == pytest.approx([zonal_norms(2, [m], 6.0)[0] for m in degrees], rel=1e-13)

    @pytest.mark.parametrize("n,r", [(2, math.inf), (2, 3.0), (3, 2.0)])
    def test_batch_matches_single(self, n, r):
        degrees = [1, 5, 12]
        assert zonal_norms(n, degrees, r) == [zonal_norms(n, [m], r)[0] for m in degrees]

    def test_degree_zero(self):
        # Z_0 = area^(-1/2), so ||Z_0||_r = area^(1/r - 1/2)
        for n, area in ((2, FOUR_PI), (3, 2.0 * math.pi**2)):
            for r in (3.0, 6.0):
                assert zonal_norms(n, [0], r)[0] == pytest.approx(area ** (1.0 / r - 0.5), rel=1e-14)

    def test_resource_cap_counts_every_degree(self):
        with pytest.raises(ResourceLimitError):
            zonal_norms(2, [20, 4000], 6.0)
        with pytest.raises(ResourceLimitError):
            zonal_norms(2, [3334], 3.0)  # 3334 * 3/2 + 1 > 5000 nodes


class TestZonalGradient:
    def test_degree_one_closed_form(self):
        assert zonal_gradient_sup(2, 1) == pytest.approx(math.sqrt(3.0 / FOUR_PI), rel=1e-9)

    def test_bessel_limit_ratio(self):
        # d/dz J_0 = -J_1: the rescaled gradient sup approaches max |J_1|
        m = 300
        lam = eigenvalue(2, m)
        ratio = zonal_gradient_sup(2, m) / (lam * zonal_norms(2, [m], math.inf)[0])
        grid = np.linspace(1.0, 3.0, 4001)
        max_j1 = float(np.max(np.abs(special.j1(grid))))
        assert ratio == pytest.approx(max_j1, rel=5e-3)

    def test_scaling_with_lambda(self):
        vals = [zonal_gradient_sup(2, m) for m in (50, 100, 200)]
        lams = [eigenvalue(2, m) for m in (50, 100, 200)]
        slope = np.polyfit(np.log(lams), np.log(vals), 1)[0]
        assert slope == pytest.approx(1.5, abs=0.02)

    def test_high_dimension_reference(self):
        # 40-digit mpmath, |Z'| where Z'' = 0 nearest the pole: 2.23981448713e9
        # (the scan used to read 5.42e10 at theta = pi)
        assert zonal_gradient_sup(10, 260) == pytest.approx(2.2398144871e9, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 10, 150])
    def test_never_below_a_dense_scan(self, n):
        # |d/dtheta Z_m| = scale 2 nu sin(theta) |C_{m-1}^{nu+1}(cos theta)| / C_m^nu(1), from scipy
        nu = (n - 1) / 2.0
        for m in (2, 5, 40, 200):
            theta = np.linspace(0.0, math.pi, 200 * m + 1)
            slope = 2 * nu * np.sin(theta) * special.eval_gegenbauer(m - 1, nu + 1, np.cos(theta))
            scale = ZonalFamily.create(n, m).scale / special.eval_gegenbauer(m, nu, 1.0)
            scan = scale * float(np.max(np.abs(slope)))
            assert scan <= zonal_gradient_sup(n, m) * (1.0 + 1e-14)

    def test_against_scipy_derivative(self):
        # |Z'| = scale sin(theta) C_m'(cos theta) / C_m(1) at the scipy-located inflection
        for n, m in ((2, 30), (3, 17)):
            nu = (n - 1) / 2.0
            lam_sq = m * (m + n - 1)
            theta = np.linspace(1e-4, 1.5, 200001)
            t = np.cos(theta)
            d1 = 2 * nu * special.eval_gegenbauer(m - 1, nu + 1, t)
            g = lam_sq * special.eval_gegenbauer(m, nu, t) - (n - 1) * t * d1
            i = int(np.argmax(np.sign(g) != np.sign(g[0])))
            scale = ZonalFamily.create(n, m).scale / special.eval_gegenbauer(m, nu, 1.0)
            peak = np.max(scale * np.sin(theta[i - 5:i + 5]) * np.abs(d1[i - 5:i + 5]))
            assert zonal_gradient_sup(n, m) == pytest.approx(peak, rel=1e-9)

    def test_guard_on_the_inflection_point(self, monkeypatch):
        # an inflection point past the first zero is refused, not reported
        monkeypatch.setattr(sphere, "_zero_from_pole", lambda fn, what, tol: 1.5)
        with pytest.raises(NumericError, match="inflection"):
            zonal_gradient_sup(2, 10)


class TestHighestWeight:
    def test_normalized_at_two(self):
        assert hw_norm(2, 7, 2.0) == 1.0

    def test_raw_l2_closed_form(self):
        # the unnormalized ||Q_1||_2^2 = Int sin^2(psi) over S^2 = 8 pi/3
        raw = math.exp(sphere._hw_log_norm(2, 1, 2.0))
        assert raw**2 == pytest.approx(8.0 * math.pi / 3.0, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5, 19, 80, 250, 500])
    @pytest.mark.parametrize("r", [2.0, 4.0, 6.0])
    def test_closed_form_vs_quadrature(self, m, r):
        assert hw_norm(2, m, r) == pytest.approx(hw_norm_quad(2, m, r), rel=1e-8)

    @pytest.mark.parametrize("m", [1, 5, 40])
    def test_closed_form_vs_quadrature_n3(self, m):
        for r in (2.0, 4.0):
            assert hw_norm(3, m, r) == pytest.approx(hw_norm_quad(3, m, r), rel=1e-8)

    # 60-digit mpmath values of ||Q_m||_r / ||Q_m||_2, from the same Beta form.  At
    # m = 4999 and r = 4 both lgamma differences are taken directly (a =
    # (m r + 2)/2 < 1e4); at 5000 the r = 4 one comes from the series; at 9999 both
    @pytest.mark.parametrize(
        "n,m,r,expected,rel",
        [
            (2, 4999, 4.0, 1.455643942614832712758347, 1e-11),
            (2, 5000, 4.0, 1.45568032961941084977644, 1e-11),
            (2, 9999, 4.0, 1.587388494016095326757794, 1e-14),
            (3, 4999, 4.0, 3.354775207352538628355929, 1e-11),
            (3, 9999, 6.0, 6.638062994774040122996792, 1e-14),
            (2, 10**10, 4.0, 8.926527543492320391122427, 1e-14),
            (2, 10**13, 4.0, 21.16813269920483717316703, 1e-14),
            (2, 10**16, 4.0, 50.19755328085032646383631, 1e-14),
            (2, 10**18, 6.0, 408.6218890560350084421562, 1e-14),
            (3, 10**18, 6.0, 308108.1671763945621385558, 1e-14),
        ],
    )
    def test_against_mpmath_at_large_degree(self, n, m, r, expected, rel):
        assert abs(hw_norm(n, m, r) / expected - 1.0) <= rel

    def test_growth_exponent(self):
        # ||Q_m||_4 / ||Q_m||_2 ~ C m^{1/8}
        ratio = hw_norm(2, 400, 4.0) / hw_norm(2, 100, 4.0)
        assert ratio == pytest.approx(4.0**0.125, rel=0.01)

    def test_domain(self):
        with pytest.raises(DomainError):
            hw_norm(2, 0, 4.0)
        with pytest.raises(DomainError):
            hw_norm(2, 5, math.inf)
        with pytest.raises(DomainError, match="finite r >= 2"):
            hw_norm(2, 20, math.nan)


class TestNodalGap:
    def test_closed_form_m3(self):
        theta = nodal_gap_zonal(2, 3)
        assert theta == pytest.approx(math.acos(P3_ZERO), abs=1e-12)
        assert eigenvalue(2, 3) * theta == pytest.approx(2.371936897036044, abs=1e-9)

    def test_degree_one(self):
        assert nodal_gap_zonal(2, 1) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_bessel_limit(self):
        product = eigenvalue(2, 300) * nodal_gap_zonal(2, 300)
        assert abs(product / special.jn_zeros(0, 1)[0] - 1.0) <= 0.005

    def test_products_decrease_to_limit(self):
        prods = [eigenvalue(2, m) * nodal_gap_zonal(2, m) for m in (10, 30, 100, 300)]
        target = float(special.jn_zeros(0, 1)[0])
        errs = [abs(p - target) for p in prods]
        assert all(a >= b for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("m", [5000, 20_000, 99_000])
def test_nodal_gap_on_s3_against_its_exact_value(m):
    # C_m^1(cos theta) = sin((m + 1) theta)/sin theta, so theta_1 = pi/(m + 1)
    # exactly; a zero found in t = cos(theta) and passed through acos misses it
    # by 7.3e-12, 7.9e-10 and 1.4e-9 relative at these degrees
    exact = math.pi / (m + 1)
    assert abs(nodal_gap_zonal(3, m) - exact) <= 1e-13 * exact


def _mp_gegenbauer(m, nu, t):
    """C_m^nu(t) by the three-term recurrence, at mpmath's working precision."""
    c_prev, c = mpmath.mpf(0), mpmath.mpf(1)
    for k in range(1, m + 1):
        c_prev, c = c, (2 * t * (k + nu - 1) * c - (k + 2 * nu - 2) * c_prev) / k
    return c


def _first_zero_in_theta(n, m):
    """theta_1 of C_m^nu(cos theta) to 40 digits: scipy's root brackets it, mpmath refines it in theta."""
    with mpmath.workdps(40):
        nu = mpmath.mpf(n - 1) / 2
        at_one = _mp_gegenbauer(m, nu, mpmath.mpf(1))
        seed = mpmath.acos(float(np.max(special.roots_gegenbauer(m, float(nu))[0])))
        bracket = (seed * (1 - mpmath.mpf(1e-6)), seed * (1 + mpmath.mpf(1e-6)))
        return float(mpmath.findroot(
            lambda th: _mp_gegenbauer(m, nu, mpmath.cos(th)) / at_one, bracket, solver="anderson"))


@pytest.mark.parametrize("m", [40, 400, 5000])
@pytest.mark.parametrize("n", [2, 3, 10])
def test_nodal_gap_against_mpmath_in_theta(n, m):
    # the reference never rounds cos(theta); at n = 2 a zero found in t and
    # passed through acos is off by 1.4e-14, 1.3e-12 and 1.8e-10 relative
    assert nodal_gap_zonal(n, m) == pytest.approx(_first_zero_in_theta(n, m), rel=1e-14, abs=0)


@pytest.mark.parametrize("n", [2, 3, 10, 150])
class TestZonalExtremaAgainstScipy:
    """First zero and max/|min| ratio against scipy roots and values."""

    DEGREES = (1, 2, 7, 40, 301, 400)

    def test_first_zero(self, n):
        # the reference is a 40-digit root in theta: acos of scipy's root in t
        # was 1.8e-12 off at n = 2, m = 400
        for m in self.DEGREES:
            assert nodal_gap_zonal(n, m) == pytest.approx(_first_zero_in_theta(n, m), rel=1e-14, abs=0)

    def test_ratio(self, n):
        nu = (n - 1) / 2.0
        for m in self.DEGREES:
            # every critical point of C_m^nu: the zeros of C_{m-1}^{nu+1}, a
            # Jacobi polynomial with alpha = beta = nu + 1/2, plus t = +-1
            crit = np.array([-1.0, 1.0])
            if m >= 2:
                crit = np.concatenate((crit, special.roots_jacobi(m - 1, nu + 0.5, nu + 0.5)[0]))
            vals = special.eval_gegenbauer(m, nu, crit)
            ref = special.eval_gegenbauer(m, nu, 1.0) / -float(np.min(vals))
            assert nadirashvili_ratio(n, m) == pytest.approx(ref, rel=1e-12)


class TestNadirashvili:
    @pytest.mark.parametrize("m", [1, 3, 7, 29, 299])
    def test_odd_degree_exactly_one(self, m):
        assert nadirashvili_ratio(2, m) == pytest.approx(1.0, abs=1e-10)

    def test_degree_two(self):
        assert nadirashvili_ratio(2, 2) == pytest.approx(2.0, abs=1e-9)

    def test_even_bessel_limit(self):
        oracle = 1.0 / abs(special.j0(bessel_zero(1.0, 1)))
        assert nadirashvili_ratio(2, 300) == pytest.approx(oracle, rel=0.05)


class TestPoleValueTimesGegenbauerPastTheFloatRange:
    """Zonal values at n, m where scale * C_m^nu overflows a float, against 40-digit mpmath.

    The references evaluate at the program's own float angles.  Scaling before
    dividing by C_m^nu(1) made both ratios and the gradient sup inf or nan.
    """

    @pytest.mark.parametrize("n,m", [(150, 1000), (100, 4000)])
    def test_nadirashvili_ratio(self, n, m):
        # the trough at the largest zero of C_{m-1}^{nu+1}, as nadirashvili_ratio finds it
        theta = sphere._angle(_first_zero_in_s(m - 1, (n - 1) / 2.0 + 1.0))
        with mpmath.workdps(40):
            nu = mpmath.mpf(n - 1) / 2
            trough = _mp_gegenbauer(m, nu, mpmath.cos(mpmath.mpf(theta)))
            ref = _mp_gegenbauer(m, nu, 1) / -min(_mp_gegenbauer(m, nu, -1), trough)
        # 9.3e-15 and 1.0e-14 relative
        assert nadirashvili_ratio(n, m) == pytest.approx(float(ref), rel=2e-14, abs=0)

    def test_gradient_sup(self, monkeypatch):
        n, m = 150, 1000
        found = []
        real = sphere._zero_from_pole

        def recording(*args, **kwargs):
            found.append(real(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(sphere, "_zero_from_pole", recording)
        got = zonal_gradient_sup(n, m)
        with mpmath.workdps(40):
            nu, s = mpmath.mpf(n - 1) / 2, mpmath.mpf(found[0])
            # |d/dtheta Z| = scale sin(theta) 2 nu |C_{m-1}^{nu+1}(1 - s)| / C_m^nu(1)
            slope = 2 * nu * abs(_mp_gegenbauer(m - 1, nu + 1, 1 - s)) / _mp_gegenbauer(m, nu, 1)
            ref = mpmath.sqrt(multiplicity(n, m) / _mp_area(n)) * mpmath.sqrt(s * (2 - s)) * slope
        # 5.3e-15 relative
        assert got == pytest.approx(float(ref), rel=2e-14, abs=0)


class TestSobolevScale:
    def test_values(self):
        assert sobolev_scale(5.0, 0.0) == 1.0
        assert sobolev_scale(math.sqrt(110.0), 2.0) == pytest.approx(111.0, rel=1e-14)
        assert sobolev_scale(3.0, 1.0) == pytest.approx(math.sqrt(10.0), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            sobolev_scale(1.0, -0.5)
        with pytest.raises(DomainError, match="Sobolev order"):
            sobolev_scale(10.0, math.nan)
