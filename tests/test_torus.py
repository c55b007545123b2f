import functools
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import torus
from speclab.analytic import MultiIndex, phi_kernel, weyl_constant
from speclab.errors import DomainError, ResourceLimitError
from speclab.torus import (
    SmoothingWindow,
    band_diagonal_sum,
    default_direction,
    derivative_diagonal_sum,
    eigenvalue_count,
    norm_sq_bound,
    smoothed_diagonal_sum,
    spectral_function_torus,
    unit_direction,
)

TWO_PI = 2.0 * math.pi


def sinc4_reference(s, eps):
    """The sinc^4 window by np.sinc and a power, independent of SmoothingWindow.value."""
    return np.sinc(np.asarray(s, dtype=float) * (eps / (4.0 * math.pi))) ** 4


def brute_force_shells(n, lam_max):
    """r_n(q) for q <= lam_max^2 by a plain nested-loop cube scan (oracle)."""
    top = lam_max
    buckets = [0] * (lam_max * lam_max + 1)
    rng = range(-top, top + 1)
    if n == 2:
        for a in rng:
            for b in rng:
                q = a * a + b * b
                if q <= lam_max * lam_max:
                    buckets[q] += 1
    else:
        for a in rng:
            for b in rng:
                for c in rng:
                    q = a * a + b * b + c * c
                    if q <= lam_max * lam_max:
                        buckets[q] += 1
    return buckets


def cube_scan(n, top):
    """Every integer vector of the cube [-top, top]^n, one per row (oracle)."""
    axis = np.arange(-top, top + 1, dtype=np.int64)
    return np.stack([g.ravel() for g in np.meshgrid(*[axis] * n, indexing="ij")], axis=1)


def cube_norms_sq(n, top):
    """|k|^2 over the cube [-top, top]^n, without storing the vectors (oracle)."""
    sq = np.arange(-top, top + 1, dtype=np.int64) ** 2
    q = sq
    for _ in range(n - 1):
        q = (q[..., None] + sq).ravel()
    return q


def cube_scan_shells(n, top):
    """r_n(j) for j <= top^2 by a bincount over the cube [-top, top]^n, block by block (oracle)."""
    bound = top * top
    sq = np.arange(-top, top + 1, dtype=np.int64) ** 2
    rest = cube_norms_sq(n - 1, top)
    counts = np.zeros(bound + 1, dtype=np.int64)
    for block in np.array_split(sq, 16):
        q = (block[:, None] + rest).ravel()
        counts += np.bincount(q[q <= bound], minlength=bound + 1)
    return counts


def brute_force_counts(n, lam_max):
    """Cumulative shell counts from the cube-scan multiplicities."""
    out = {}
    total = 0
    for q, cnt in enumerate(brute_force_shells(n, lam_max)):
        total += cnt
        out[q] = total
    return out


class TestEnumeration:
    def test_radius_one(self):
        assert eigenvalue_count(2, 1.0) == 5

    def test_gauss_circle_examples(self):
        assert eigenvalue_count(2, 5.0) == 81
        assert eigenvalue_count(3, 2.0) == 33
        assert eigenvalue_count(2, 0.0) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_brute_force_cube_scan(self, n):
        lam_max = 50 if n == 2 else 25
        cumulative = brute_force_counts(n, lam_max)
        for lam in range(lam_max + 1):
            assert eigenvalue_count(n, float(lam)) == cumulative[lam * lam]

    def test_non_integer_radius(self):
        # |k|^2 <= 6.25 keeps 21 points: q in {0,1,2,4,5}
        assert eigenvalue_count(2, 2.5) == 21

    def test_nearby_radii_in_one_process(self):
        # the two radii agree to six significant digits but not in their counts
        def square_scan(lam):
            ks = np.arange(-math.floor(lam), math.floor(lam) + 1, dtype=np.int64)
            sq = ks * ks
            return int(np.count_nonzero(sq[:, None] + sq[None, :] <= lam * lam))

        for lam, expected in ((1234.5704, 4788329), (1234.5749, 4788369)):
            assert eigenvalue_count(2, lam) == expected
            assert square_scan(lam) == expected

    def test_limits(self):
        with pytest.raises(ResourceLimitError, match="1500"):
            eigenvalue_count(2, 1500.5)
        with pytest.raises(ResourceLimitError, match="radius cap of 1500"):
            eigenvalue_count(3, 1500.5)
        with pytest.raises(DomainError):
            eigenvalue_count(4, 1.0)
        with pytest.raises(DomainError):
            eigenvalue_count(2, -1.0)

    @pytest.mark.parametrize(
        "radius, count", [(300, 113_094_545), (1300, 9_202_742_701), (1500, 14_137_142_777)]
    )
    def test_n3_count_is_the_shell_sum(self, radius, count):
        # the row walker against the slice sums of r_2, up to the cap
        assert eigenvalue_count(3, float(radius)) == count
        assert int(torus.lattice_shells(3, radius).mult.sum()) == count

    def test_nan_radius_refused(self):
        with pytest.raises(DomainError):
            torus.check_radius(2, math.nan)
        with pytest.raises(DomainError):
            eigenvalue_count(2, math.nan)
        with pytest.raises(DomainError):
            smoothed_diagonal_sum(2, math.nan, shells=shells_1300())
        # an infinite radius lies past every cap
        with pytest.raises(ResourceLimitError):
            torus.check_radius(3, math.inf)


@functools.lru_cache(maxsize=1)
def square_scan_1300():
    return cube_scan_shells(2, 1300)


class TestShells:
    @pytest.mark.parametrize("n, radius", [(2, 20), (3, 12)])
    def test_multiplicities_match_cube_scan(self, n, radius):
        table = torus.lattice_shells(n, radius)
        expected = {q: cnt for q, cnt in enumerate(brute_force_shells(n, radius)) if cnt}
        assert table.values.tolist() == sorted(expected)
        assert dict(zip(table.values.tolist(), table.mult.tolist())) == expected
        assert int(table.mult.sum()) == eigenvalue_count(n, float(radius))
        assert table.radii.tolist() == [math.sqrt(v) for v in table.values.tolist()]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("radius", [0.0, 1.0, 2.5, 7.3, 5.0, math.sqrt(8.0)])
    def test_small_radii_match_cube_scan(self, n, radius):
        # non-integer radii, and exact shell radii whose shell the table must end on
        table = torus.lattice_shells(n, radius)
        scan = brute_force_shells(n, 8)[: math.floor(radius * radius) + 1]
        expected = {q: cnt for q, cnt in enumerate(scan) if cnt}
        assert table.values.tolist() == sorted(expected)
        assert dict(zip(table.values.tolist(), table.mult.tolist())) == expected
        assert table.radii.tolist() == [math.sqrt(v) for v in table.values.tolist()]

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        st.one_of(
            st.floats(0.0, 1300.0),
            st.integers(0, 1300).map(float),
            st.integers(0, 1300 * 1300).map(math.sqrt),
        )
    )
    def test_n2_prefix_of_square_scan(self, radius):
        table = torus.lattice_shells(2, radius)
        counts = square_scan_1300()[: math.floor(radius * radius) + 1]
        expected = np.flatnonzero(counts)
        np.testing.assert_array_equal(table.values, expected)
        np.testing.assert_array_equal(table.mult, counts[expected].astype(np.float64))

    def test_n3_matches_cube_bincount(self):
        table = torus.lattice_shells(3, 100)
        counts = cube_scan_shells(3, 100)
        expected = np.flatnonzero(counts)
        np.testing.assert_array_equal(table.values, expected)
        np.testing.assert_array_equal(table.mult, counts[expected].astype(np.float64))

    def test_radius_checked_first(self):
        with pytest.raises(ResourceLimitError, match="1500"):
            torus.lattice_shells(2, 1500.5)
        with pytest.raises(ResourceLimitError, match="radius cap of 1500"):
            torus.lattice_shells(3, 1500.5)
        for radius in (-1.0, math.nan):
            with pytest.raises(DomainError):
                torus.lattice_shells(2, radius)
        with pytest.raises(DomainError):
            torus.lattice_shells(4, 1.0)

    def test_tables_are_read_only(self):
        shells = torus.lattice_shells(2, 50.0)
        for table in (shells.values, shells.radii, shells.mult):
            assert not table.flags.writeable


def numpy_unit_direction(direction):
    """The unit direction as it was formed before it left numpy: np.sum, then one sqrt."""
    d = np.asarray(direction, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        norm_sq = float(np.sum(d * d))
    return norm_sq, d / math.sqrt(norm_sq) if 0.0 < norm_sq < math.inf else None


# finite floats with zero, subnormal and huge magnitudes among the draws
direction_components = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(0.0),
    st.floats(-1e-160, 1e-160, allow_nan=False),
    st.floats(1e150, 1e200).flatmap(lambda x: st.sampled_from([x, -x])),
)


class TestDirections:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(st.integers(2, 3).flatmap(lambda n: st.lists(direction_components, min_size=n, max_size=n)))
    def test_unit_direction_matches_the_numpy_route(self, direction):
        n = len(direction)
        norm_sq, reference = numpy_unit_direction(direction)
        if reference is None or norm_sq < sys.float_info.min:
            with pytest.raises(DomainError):
                unit_direction(n, direction)
            return
        got = unit_direction(n, direction)
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [float(v).hex() for v in reference]

    @pytest.mark.parametrize("direction", [(3e-161, 7e-161), (1.58e-162, 1.11e-162)])
    def test_subnormal_squared_length_refused(self, direction):
        # the quotient by a subnormal length is not unit: 1 - 2.9e-5 and 13% off
        norm_sq, reference = numpy_unit_direction(direction)
        assert 0.0 < norm_sq < sys.float_info.min
        assert abs(float(np.sum(reference * reference)) - 1.0) > 1e-5
        with pytest.raises(DomainError, match="smallest normal float"):
            unit_direction(2, direction)

    def test_wrong_length_refused(self):
        with pytest.raises(DomainError):
            unit_direction(3, (1.0, 2.0))


class TestDisplacement:
    """x - y: any sequence, reduced into (-pi, pi] by spectral_function_torus, or dist times d."""

    def test_reduction(self):
        # a shift by +-2 pi in any one component is the same displacement
        for n, u, lam in ((2, (0.9, -1.1), 25.0), (3, (0.3, -2.9, 1e-9), 9.0)):
            e0 = spectral_function_torus(n, (0.0,) * n, lam)
            base = spectral_function_torus(n, u, lam)
            for j in range(n):
                for shift in (TWO_PI, -TWO_PI):
                    moved = list(u)
                    moved[j] += shift
                    assert abs(spectral_function_torus(n, moved, lam) - base) <= 1e-12 * e0

    def test_boundary_lands_in_half_open_interval(self):
        # -pi goes to pi, so the two give the same bits
        for u, v in (((-math.pi, 0.4), (math.pi, 0.4)), ((0.4, -math.pi), (0.4, math.pi)),
                     ((-math.pi, -math.pi, 0.1), (math.pi, math.pi, 0.1))):
            n = len(u)
            assert spectral_function_torus(n, u, 17.0).hex() == spectral_function_torus(
                n, v, 17.0
            ).hex()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_component_refused(self, n, bad):
        # a nan used to give a nan sum with no error, and an inf a bare
        # ValueError from math.remainder
        for j in (0, n - 1):
            u = [0.3] * n
            u[j] = bad
            with pytest.raises(DomainError, match="finite"):
                spectral_function_torus(n, u, 10.0)
            with pytest.raises(DomainError, match="finite"):
                torus.band_kernel_torus(n, u, 10.0)

    def test_sequences_and_arrays_agree(self):
        u = (0.3, -1.1, 0.7)
        got = {spectral_function_torus(3, v, 12.0).hex() for v in (u, list(u), np.array(u))}
        assert len(got) == 1

    def test_default_directions_are_unit(self):
        for n in (2, 3):
            d = default_direction(n)
            assert isinstance(d, tuple) and len(d) == n
            assert all(type(v) is float for v in d)
            assert math.fsum(v * v for v in d) == pytest.approx(1.0, abs=1e-15)
            assert unit_direction(n) == d


class TestSpectralFunction:
    def test_diagonal_equals_count(self):
        assert spectral_function_torus(2, (0.0, 0.0), 5.0) == pytest.approx(81 / TWO_PI**2, abs=1e-13)

    def test_lambda_zero(self):
        assert spectral_function_torus(2, (0.9, -1.1), 0.0) == pytest.approx(1 / TWO_PI**2, abs=1e-16)

    def test_even_in_u(self):
        assert spectral_function_torus(2, (0.37, -0.22), 20.0) == spectral_function_torus(
            2, (-0.37, 0.22), 20.0
        )

    def test_dominated_by_diagonal(self):
        e0 = spectral_function_torus(2, (0.0, 0.0), 30.0)
        rng = np.random.default_rng(7)
        for _ in range(25):
            u = rng.uniform(-math.pi, math.pi, size=2)
            assert abs(spectral_function_torus(2, u, 30.0)) <= e0

    def test_diagonal_monotone_in_lambda(self):
        vals = [spectral_function_torus(2, (0.0, 0.0), lam) for lam in (1.0, 5.0, 10.0, 25.0)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_difference_sum_nonnegative(self):
        e0 = spectral_function_torus(2, (0.0, 0.0), 40.0)
        for tau in (0.5, 2.0, 3.83, 7.0):
            u = [v * (tau / 40.0) for v in default_direction(2)]
            assert 2.0 * (e0 - spectral_function_torus(2, u, 40.0)) >= 0.0

    def test_matches_phi_at_moderate_lambda(self):
        lam, tau = 300.0, 2.0
        u = [v * (tau / lam) for v in default_direction(2)]
        ratio = spectral_function_torus(2, u, lam) / lam**2
        assert abs(ratio - phi_kernel(2, tau)) <= 0.02 * weyl_constant(2)

    def test_dimension_mismatch(self):
        for n, u in ((3, (0.1, 0.2)), (2, (0.1, 0.2, 0.3)), (2, ())):
            with pytest.raises(DomainError):
                spectral_function_torus(n, u, 2.0)


class TestDerivativeSum:
    def test_zero_order_reduces_to_diagonal(self):
        z = MultiIndex.of(0, 0)
        assert derivative_diagonal_sum(2, z, z, 5.0) == pytest.approx(81 / TWO_PI**2, abs=1e-13)

    def test_parity_mismatch_exact_zero(self):
        a = MultiIndex.of(1, 0)
        for lam in (5.0, 20.0, 50.0):
            assert derivative_diagonal_sum(2, a, MultiIndex.of(0, 0), lam) == 0.0
            assert derivative_diagonal_sum(2, MultiIndex.of(2, 1), MultiIndex.of(1, 0), lam) == 0.0

    def test_symmetric_in_alpha_beta(self):
        a, b = MultiIndex.of(2, 0), MultiIndex.of(0, 2)
        assert derivative_diagonal_sum(2, a, b, 40.0) == derivative_diagonal_sum(2, b, a, 40.0)

    def test_leading_constant(self):
        a = MultiIndex.of(1, 0)
        lam = 300.0
        val = derivative_diagonal_sum(2, a, a, lam)
        assert val / lam**4 == pytest.approx(1.0 / (16.0 * math.pi), rel=0.01)

    def test_small_case_brute_force(self):
        # |k|^2 <= 4: sum of k1^2 = 2 (from (+-1,0)) + 4 (from (+-1,+-1)) + 8 (from (+-2,0))
        a = MultiIndex.of(1, 0)
        val = derivative_diagonal_sum(2, a, a, 2.0)
        assert val == pytest.approx(14.0 / TWO_PI**2, abs=1e-14)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            derivative_diagonal_sum(2, MultiIndex.of(4, 0), MultiIndex.of(4, 0), 5.0)


class TestBandSum:
    def test_example_band(self):
        assert band_diagonal_sum(2, 4.0) == pytest.approx((81 - 49) / TWO_PI**2, abs=1e-13)

    def test_lambda_zero_band(self):
        assert band_diagonal_sum(2, 0.0) == pytest.approx(4 / TWO_PI**2, abs=1e-15)

    def test_half_open_convention(self):
        # |k| = 5 lies in e(.,.,5) but not in the band (5, 6]
        n5 = eigenvalue_count(2, 5.0)
        n6 = eigenvalue_count(2, 6.0)
        assert band_diagonal_sum(2, 5.0) == pytest.approx((n6 - n5) / TWO_PI**2, abs=1e-13)
        shell5 = n5 - eigenvalue_count(2, 4.9)
        assert shell5 > 0  # the shell exists and is excluded from the band

    def test_nonnegative(self):
        for lam in np.linspace(0.0, 30.0, 61):
            assert band_diagonal_sum(2, float(lam)) >= 0.0


class TestSmoothingWindow:
    def test_basic_properties(self):
        w = SmoothingWindow()
        assert w.eps == 4.0 and w == SmoothingWindow(eps=4.0)
        assert w.value(0.0) == 1.0
        s = np.linspace(-40.0, 40.0, 4001)
        assert np.all(w.value(s) >= 0.0)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_quarter_lower_bound_for_eps_up_to_two(self, eps):
        w = SmoothingWindow(eps=eps)
        s = np.linspace(-1.0, 1.0, 2001)
        assert np.all(w.value(s) >= 0.25)

    def test_default_window_still_dominates(self):
        w = SmoothingWindow()
        s = np.linspace(-1.0, 1.0, 2001)
        assert np.all(w.value(s) >= 0.25)

    def test_truncation_radius(self):
        w = SmoothingWindow(eps=4.0)
        assert w.truncation_radius == pytest.approx(1000.0)
        assert w.value(w.truncation_radius) <= 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            SmoothingWindow(eps=0.0)
        for eps in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                SmoothingWindow(eps=eps)

    def test_eps_upper_bound(self):
        # up to 1e305, y = eps s/4 stays finite out to the n=2 radius cap, so
        # the sum at lambda is the one shell at s = 0: r_2(lambda^2)/(2 pi)^2
        table = torus.lattice_shells(2, 1499.0)
        w = SmoothingWindow(eps=1e305)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in (50.0, 1499.0):
                shell = np.searchsorted(table.values, int(lam) ** 2)
                expected = float(table.mult[shell]) / TWO_PI**2
                assert smoothed_diagonal_sum(2, lam, w, shells=table) == expected
        with pytest.raises(DomainError, match="1e\\+305"):
            SmoothingWindow(eps=math.nextafter(1e305, math.inf))
        with pytest.raises(DomainError):
            SmoothingWindow(eps=1e308)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 4.0, 5.5, 100.0])
    def test_matches_sinc_route(self, eps):
        w = SmoothingWindow(eps=eps)
        t = w.truncation_radius
        dense = np.linspace(-1.2 * t, 1.2 * t, 200_001)  # negative s and both sides of T
        near_t = t + np.linspace(-1e-6, 1e-6, 201)
        for s in (dense, near_t, np.array([0.0, -0.0, 5e-324, 1e-300])):
            np.testing.assert_allclose(w.value(s), sinc4_reference(s, eps), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("eps", [0.5, 4.0, 6.0, 80.0, 1e305])
    def test_bit_equal_to_sinc_route(self, eps):
        w = SmoothingWindow(eps=eps)
        radii = torus.lattice_shells(2, 1300.0).radii
        for lam in (0.0, 1.0, 50.0, 175.0, 300.0):
            s = lam - radii
            want = np.square(np.square(np.sinc(s * (eps / (4.0 * math.pi)))))
            assert w.value(s).tobytes() == want.tobytes()
        for s in (0.0, -0.0, 5e-324, 1e-300, 2.5, -7.0, 1000.0):
            want = np.square(np.square(np.sinc(s * (eps / (4.0 * math.pi)))))
            assert float(w.value(s)).hex() == float(want).hex()

    def test_exact_shell_radii(self):
        # at integer lambda, lambda - sqrt(lambda^2) is exactly 0 on that shell
        table = torus.lattice_shells(2, 1300.0)
        w = SmoothingWindow()
        s = 50.0 - table.radii[:200_000]
        got = w.value(s)
        assert got[np.searchsorted(table.values, 2500)] == 1.0
        np.testing.assert_allclose(got, sinc4_reference(s, 4.0), rtol=1e-15, atol=0.0)

    def test_scalar_and_0d_input(self):
        w = SmoothingWindow()
        for s in (0.0, 0, np.float64(0.0), np.asarray(0.0)):
            assert type(w.value(s)) is np.float64
            assert w.value(s) == 1.0
        for s in (2.5, -7.0, np.asarray(1000.0)):
            assert type(w.value(s)) is np.float64
            assert w.value(s) == pytest.approx(float(sinc4_reference(s, 4.0)), rel=1e-15, abs=0.0)
        assert w.value([0.0, 2.5]).shape == (2,)


class TestSmoothedSum:
    def test_converges_at_lambda_zero(self):
        w = SmoothingWindow(eps=100.0)  # small truncation radius keeps this cheap
        val = smoothed_diagonal_sum(2, 0.0, w, shells=torus.lattice_shells(2, w.truncation_radius))
        assert math.isfinite(val) and val > 0.0

    def test_dominates_band(self):
        w = SmoothingWindow()
        floor = float(np.min(w.value(np.linspace(-1.0, 0.0, 2001))))
        for lam in (30.0, 60.0, 100.0):
            smoothed = smoothed_diagonal_sum(2, lam, w, shells=shells_1300())
            assert smoothed >= floor * band_diagonal_sum(2, lam)

    def test_value_decreases_as_eps_grows(self):
        # wider Fourier support means a narrower weight in s, hence smaller sums
        vals = [
            smoothed_diagonal_sum(2, 80.0, SmoothingWindow(eps=e), shells=shells_1300())
            for e in (3.4, 4.0, 5.0, 6.5)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_truncation_resource_error(self):
        with pytest.raises(ResourceLimitError):
            smoothed_diagonal_sum(2, 600.0, SmoothingWindow(eps=4.0), shells=shells_1300())

    def test_table_short_of_the_cut_refused(self):
        # a table for R = 500 ends below lambda + T = 1050: the sum would stop at
        # its last shell, 7.7e-9 relative below the sum with a table of its own
        with pytest.raises(DomainError, match="shell table"):
            smoothed_diagonal_sum(2, 50.0, shells=torus.lattice_shells(2, 500.0))
        w = SmoothingWindow(eps=80.0)
        with pytest.raises(DomainError, match="shell table"):
            smoothed_diagonal_sum(2, 10.0, w, shells=torus.lattice_shells(2, 59.9))
        with pytest.raises(DomainError, match="shell table"):
            smoothed_diagonal_sum(2, 10.0, w, shells=torus.lattice_shells(3, 60.0))
        # a table that reaches the cut exactly serves, bit for bit
        table = torus.lattice_shells(2, 10.0 + w.truncation_radius)
        assert table.bound == norm_sq_bound(60.0)
        assert smoothed_diagonal_sum(2, 10.0, w, shells=table) == smoothed_diagonal_sum(
            2, 10.0, w, shells=torus.lattice_shells(2, 500.0))

    @pytest.mark.parametrize(
        "n, eps, lams", [(2, 4.0, (0.0, 57.3, 100.0)), (3, 80.0, (0.0, 10.0, 30.0))]
    )
    def test_shell_route_matches_pointwise_sum(self, n, eps, lams):
        w = SmoothingWindow(eps=eps)
        norms_sq = cube_norms_sq(n, math.floor(max(lams) + w.truncation_radius))
        shells = torus.lattice_shells(n, max(lams) + w.truncation_radius)
        for lam in lams:
            inside = norms_sq[norms_sq <= norm_sq_bound(lam + w.truncation_radius)]
            reference = float(np.sum(w.value(lam - np.sqrt(inside)))) / TWO_PI**n
            got = smoothed_diagonal_sum(n, lam, w, shells=shells)
            assert got == pytest.approx(reference, rel=1e-13, abs=0.0)

    def test_default_probe_rows_match_sinc_route(self):
        from speclab.probes import default_lambda_grid, probe_smoothed

        table = torus.lattice_shells(2, 1300.0)
        t = SmoothingWindow().truncation_radius
        res = probe_smoothed(2, None, default_lambda_grid())
        assert len(res.rows) == 11
        for row in res.rows:
            keep = table.values <= norm_sq_bound(row.abscissa + t)
            s = row.abscissa - np.sqrt(table.values[keep].astype(np.float64))
            reference = float(np.sum(table.mult[keep] * sinc4_reference(s, 4.0))) / TWO_PI**2
            assert row.raw == pytest.approx(reference, rel=1e-15, abs=0.0)

    def test_probe_rows_equal_standalone_sums(self, monkeypatch):
        # one table for the whole grid gives the sums of one table per lambda, bit for bit
        from speclab.probes import probe_smoothed

        built = []
        real = torus.lattice_shells

        def recording(n, radius):
            built.append(real(n, radius))
            return built[-1]

        for n, window, grid in ((2, SmoothingWindow(), [50.0, 57.3, 300.0]),
                                (3, SmoothingWindow(eps=80.0), [10.0, 25.5, 60.0])):
            built.clear()
            monkeypatch.setattr(torus, "lattice_shells", recording)
            res = probe_smoothed(n, window.eps, grid)
            monkeypatch.undo()
            [table] = built
            bound = math.floor((max(grid) + window.truncation_radius) ** 2)
            assert table.values[-1] == bound
            assert [row.raw for row in res.rows] == [
                smoothed_diagonal_sum(n, lam, window, shells=real(n, lam + window.truncation_radius))
                for lam in grid
            ]

    def test_default_probe_raws_pinned(self):
        from speclab.probes import probe_smoothed

        # every bit of the eleven default rows, beside the 1e-15 sinc-route check
        raws = [row.raw.hex() for row in probe_smoothed(2).rows]
        assert raws == [
            "0x1.0aaaaecf2886ap+4", "0x1.900001d2636cep+4", "0x1.0aaaab2be878ap+5",
            "0x1.4d5555a66f3a3p+5", "0x1.90000036ec6bap+5", "0x1.d2aaaad1c7c9dp+5",
            "0x1.0aaaaab914dc0p+6", "0x1.2c00000ae1074p+6", "0x1.4d55555dac789p+6",
            "0x1.6eaaaab11ebe5p+6", "0x1.90000005029e7p+6",
        ]

    def test_omitted_tail_is_bounded(self):
        # the cut at lambda + T bounds the weight by 1e-12, not the tail: the
        # shells out to the n=2 limit still add about 1e-8
        w = SmoothingWindow(eps=4.0)
        counts = cube_scan_shells(2, 1500)
        values = np.flatnonzero(counts)
        mult = counts[values]
        radii = np.sqrt(values.astype(np.float64))
        for lam in (50.0, 300.0):
            beyond = values > norm_sq_bound(lam + w.truncation_radius)
            tail = float(np.sum(mult[beyond] * w.value(lam - radii[beyond]))) / TWO_PI**2
            assert 0.0 < tail < 1e-7


@functools.lru_cache(maxsize=1)
def shells_1300():
    return torus.lattice_shells(2, 1300.0)


def int_or_float_bound(radius):
    """The bound smoothed_diagonal_sum used before norm_sq_bound took the floor."""
    r2 = radius * radius
    if r2 <= 2 ** 53 and float(r2).is_integer():
        return int(r2)
    return r2


class TestNormSqBound:
    def test_integer_radius(self):
        assert norm_sq_bound(5.0) == 25
        assert isinstance(norm_sq_bound(5.0), int)

    def test_non_integer_radius(self):
        assert norm_sq_bound(2.5) == 6
        assert isinstance(norm_sq_bound(2.5), int)

    @settings(derandomize=True, deadline=None)
    @given(st.one_of(st.floats(0.0, 1300.0), st.integers(0, 1300 ** 2).map(math.sqrt)))
    def test_same_shell_index_as_the_int_or_float_bound(self, radius):
        values = shells_1300().values
        assert values.searchsorted(norm_sq_bound(radius), side="right") == values.searchsorted(
            int_or_float_bound(radius), side="right"
        )

    def test_infinite_radius_refused_before_the_bound(self):
        # math.floor(inf) raises OverflowError; the radius check comes first
        with pytest.raises(ResourceLimitError):
            smoothed_diagonal_sum(2, math.inf, shells=shells_1300())
        with pytest.raises(ResourceLimitError):
            smoothed_diagonal_sum(2, 600.0, shells=shells_1300())


# --------------------------------------------------------------------------
# property tests: every row sum against a cube-scan point sum


@st.composite
def radii(draw, n):
    """lambda in [0, 20] (n = 2) or [0, 9] (n = 3): any float, an integer or sqrt(k)."""
    top = 20 if n == 2 else 9
    return draw(
        st.one_of(
            st.floats(0.0, float(top)),
            st.integers(0, top).map(float),
            st.integers(0, top * top).map(math.sqrt),
        )
    )


@st.composite
def displacements(draw, n):
    """u in [-pi, pi]^n whose last component is sometimes exactly 0 or about 1e-9."""
    head = [draw(st.floats(-math.pi, math.pi)) for _ in range(n - 1)]
    last = draw(
        st.one_of(
            st.floats(-math.pi, math.pi),
            st.just(0.0),
            st.floats(5e-10, 2e-9).flatmap(lambda x: st.sampled_from([x, -x])),
        )
    )
    return head + [last]


@st.composite
def matched_pairs(draw, n):
    """alpha, beta of matching parity and total order <= 6: each alpha_j + beta_j is even."""
    alpha, beta, budget = [], [], 3
    for _ in range(n):
        half = draw(st.integers(0, budget))
        budget -= half
        a = draw(st.integers(0, 2 * half))
        alpha.append(a)
        beta.append(2 * half - a)
    return MultiIndex(tuple(alpha)), MultiIndex(tuple(beta))


@st.composite
def torus_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    return n, draw(radii(n)), draw(displacements(n)), draw(matched_pairs(n))


class TestRowSumsAgainstCubeScan:
    @settings(derandomize=True, deadline=None)
    @given(torus_cases())
    def test_row_sums_match_point_sums(self, case):
        n, lam, u, (alpha, beta) = case
        pts = cube_scan(n, math.floor(lam) + 1)
        norms_sq = np.sum(pts * pts, axis=1)
        inside = pts[norms_sq <= lam * lam]
        count = len(inside)
        assert eigenvalue_count(n, lam) == count
        band = int(np.count_nonzero(norms_sq <= (lam + 1.0) * (lam + 1.0))) - count
        assert band_diagonal_sum(n, lam) == band / TWO_PI**n

        # |cos| <= 1, so the sum's rounding scale is the count
        cosines = float(np.sum(np.cos(inside @ np.array(u))))
        assert abs(spectral_function_torus(n, u, lam) * TWO_PI**n - cosines) <= 1e-12 * count

        # each weight k^gamma is at most lambda^|gamma|, which sets the scale here
        gam = alpha + beta
        moment = int(np.sum(np.prod(inside ** np.asarray(gam.entries), axis=1)))
        sign = -1 if (abs(alpha.order - beta.order) // 2) % 2 else 1
        got = derivative_diagonal_sum(n, alpha, beta, lam) * TWO_PI**n
        assert abs(got - sign * moment) <= 1e-12 * count * max(1.0, lam) ** gam.order


# --------------------------------------------------------------------------
# the Python-float n = 2 cosine sum against the numpy formula it replaced


def numpy_cosine_sum(u, lam, *, tiny_x_is_zero=False):
    """e(x, y, lambda) on T^2: the numpy formula's terms over the rows p = -R..R, summed by math.fsum.

    math.fsum rounds the exact sum of the terms once, so this is the exactly
    rounded sum of the numpy formula (oracle).

    With x = +-5e-324 the formula divides by sin(x/2) = 0.0 and returns nan;
    tiny_x_is_zero takes D_w(x) = 2w + 1 there instead.
    """
    bound = norm_sq_bound(lam)
    top = math.isqrt(bound)
    p = np.arange(-top, top + 1, dtype=np.int64)[:, None]
    w = np.floor(np.sqrt(bound - np.sum(p * p, axis=1))).astype(np.int64)
    rem = (math.remainder(v, TWO_PI) for v in u)
    u0, x = (r + TWO_PI if r <= -math.pi else r for r in rem)
    if x == 0.0 or (tiny_x_is_zero and abs(x) == 5e-324):
        kernel = (2 * w + 1).astype(np.float64)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = np.sin((w + 0.5) * x) / math.sin(0.5 * x)
    return math.fsum(np.cos(p @ np.array([u0])) * kernel) / TWO_PI**2


# components in and past [-pi, pi], the two ends, signed zeros and tiny values
u_components = st.one_of(
    st.floats(-math.pi, math.pi),
    st.floats(-50.0, 50.0),
    st.sampled_from([math.pi, -math.pi, 0.0, -0.0, 3 * math.pi, -2 * math.pi]),
    st.floats(-1e-300, 1e-300),
    st.floats(5e-10, 2e-9).flatmap(lambda x: st.sampled_from([x, -x])),
)
cap_radii = st.one_of(
    st.floats(0.0, 1500.0),
    st.integers(0, 1500).map(float),
    st.integers(0, 1500 * 1500).map(math.sqrt),
)


class TestCosineSumDualRoute:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(u_components, min_size=2, max_size=2), cap_radii)
    def test_bits_match_the_numpy_formula(self, u, lam):
        tiny = abs(math.remainder(u[1], TWO_PI)) == 5e-324
        got = spectral_function_torus(2, u, lam).hex()
        assert got == numpy_cosine_sum(u, lam, tiny_x_is_zero=tiny).hex()

    @pytest.mark.parametrize("n", [2, 3])
    def test_smallest_subnormal_last_component(self, n):
        # sin(x/2) rounds to 0.0 at x = 5e-324: the numpy formula gave nan, and
        # `offdiag --tau 5e-324 --direction=0,1 --grid 1` wrote a nan row with exit 0
        for x in (5e-324, -5e-324):
            u = (0.0,) * (n - 1) + (x,)
            got = spectral_function_torus(n, u, 12.0)
            assert got.hex() == (eigenvalue_count(n, 12.0) / TWO_PI**n).hex()
            if n == 2:
                assert math.isnan(numpy_cosine_sum(u, 12.0))
            moved = (0.3,) * (n - 1) + (x,)
            assert math.isfinite(spectral_function_torus(n, moved, 12.0))

    def test_diagonal_is_the_count(self):
        # at u = 0 each term of the float walker is an integer-valued float,
        # so math.fsum gives the count exactly
        for lam in (0.0, 7.5, 300.0, 1500.0):
            for u in ((0.0, 0.0), (-0.0, 0.0), (TWO_PI, -TWO_PI)):
                got = spectral_function_torus(2, u, lam)
                assert got.hex() == (eigenvalue_count(2, lam) / TWO_PI**2).hex()
                assert got.hex() == numpy_cosine_sum(u, lam).hex()
        for lam in (0.0, 7.5, 120.0, 199.0):
            for u in ((0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (TWO_PI, -TWO_PI, 2 * TWO_PI)):
                got = spectral_function_torus(3, u, lam)
                assert got.hex() == (eigenvalue_count(3, lam) / TWO_PI**3).hex()
        # the band kernel subtracts the two exact counts before its one division
        for n, lams in ((2, (0.0, 7.5, 300.0, 1499.0)), (3, (0.0, 7.5, 120.0, 199.0))):
            for lam in lams:
                count = (eigenvalue_count(n, lam + 1.0) - eigenvalue_count(n, lam)) / TWO_PI**n
                assert torus.band_kernel_torus(n, (0.0,) * n, lam).hex() == count.hex()


# --------------------------------------------------------------------------
# the n = 3 cosine sum against the numpy formula it replaced


def rows3_reference(radius):
    """The rows {(p, c) : |c| <= w} of {k in Z^3 : |k| <= radius}, from a (2R+1)^2 meshgrid.

    Returns the prefixes p, shape (rows, 2), and the float half-widths w.
    """
    bound = norm_sq_bound(radius)
    top = math.isqrt(bound)
    axis = np.arange(-top, top + 1, dtype=np.int64)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    inside = a * a + b * b <= bound
    p = np.stack([a[inside], b[inside]], axis=1)
    w = np.floor(np.sqrt(bound - np.sum(p * p, axis=1))).astype(np.int64)
    return p, w


def numpy_cosine_sum3(u, lam):
    """e(x, y, lambda) on T^3 as numpy formed it: cos(p . u') D_w(x) over every row (reference).

    p . u' is one BLAS matrix-vector product, which may fuse its multiply-adds.
    """
    rem = (math.remainder(v, TWO_PI) for v in u)
    *head, x = (r + TWO_PI if r <= -math.pi else r for r in rem)
    p, w = rows3_reference(lam)
    s = math.sin(0.5 * x)
    if s == 0.0:
        kernel = (2 * w + 1).astype(np.float64)
    else:
        kernel = np.sin((w + 0.5) * x) / s
    return float(np.sum(np.cos(p @ np.array(head)) * kernel)) / TWO_PI**3


# the ends, signed zeros, the smallest subnormal, 1e-9 and whole turns among the components
u3_components = st.one_of(
    st.floats(-math.pi, math.pi),
    st.floats(-50.0, 50.0),
    st.sampled_from([math.pi, -math.pi, 0.0, -0.0, 5e-324, -5e-324, 1e-9, -1e-9]),
    st.integers(-8, 8).map(lambda k: k * TWO_PI),
)


class TestCosineSum3AgainstReference:
    # Each term's argument p . u' carries a rounding of up to about
    # 2 (R + 1) pi 2^-52 (4.2e-13 at R = 300), and |D_w| <= 2w + 1, so the two
    # routes may differ by that fraction of the diagonal e(x, x, lambda).
    # The roundings mostly cancel: at R = 300 and 301 the gap read 1.3e-16.
    TOL = 1e-13

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        st.lists(u3_components, min_size=3, max_size=3),
        st.one_of(
            st.floats(0.0, 60.0),
            st.integers(0, 60).map(float),
            st.integers(0, 3600).map(math.sqrt),
        ),
    )
    def test_within_tolerance_of_the_meshgrid_formula(self, u, lam):
        diagonal = spectral_function_torus(3, (0.0, 0.0, 0.0), lam)
        got = spectral_function_torus(3, u, lam)
        assert abs(got - numpy_cosine_sum3(u, lam)) <= self.TOL * diagonal

        band = numpy_cosine_sum3(u, lam + 1.0) - numpy_cosine_sum3(u, lam)
        scale = spectral_function_torus(3, (0.0, 0.0, 0.0), lam + 1.0)
        assert abs(torus.band_kernel_torus(3, u, lam) - band) <= self.TOL * scale

    @pytest.mark.parametrize("lam", [300.0, 301.0])
    def test_at_the_end_of_the_default_grid(self, lam):
        diagonal = spectral_function_torus(3, (0.0, 0.0, 0.0), lam)
        for tau in (0.5, 2.0, 6.0):
            u = [tau / lam * v for v in default_direction(3)]
            got = spectral_function_torus(3, u, lam)
            assert abs(got - numpy_cosine_sum3(u, lam)) <= self.TOL * diagonal


def annulus(n, lam):
    """The lattice points k of the band's annulus lambda < |k| <= lambda + 1, one tuple each (oracle)."""
    lo, hi = norm_sq_bound(lam), norm_sq_bound(lam + 1.0)
    top = math.isqrt(hi)
    pts = []
    for head in itertools.product(range(-top, top + 1), repeat=n - 1):
        h = sum(a * a for a in head)
        if h > hi:
            continue
        first = math.isqrt(lo - h) + 1 if lo >= h else 0
        for c in range(first, math.isqrt(hi - h) + 1):
            pts += [(*head, c), (*head, -c)] if c else [(*head, c)]
    return pts


class TestBandKernel:
    @pytest.mark.parametrize("n", [2, 3])
    def test_diagonal_is_the_band_count(self, n):
        # both cosine sums are exact counts at u = 0 and are subtracted before
        # the division, so the kernel has band_diagonal_sum's bits; the sweep
        # ends at the cap for n = 2 and at 199 for n = 3, whose sums cost more
        top = {2: 1499, 3: 199}[n]
        step = {2: 15, 3: 11}[n]
        lams = [j / 4 for j in range(0, 4 * top + 1, step)] + [float(top)]
        lams += [math.sqrt(j) for j in range(0, top * top, top * top // 40)]
        for lam in lams:
            got = torus.band_kernel_torus(n, (0.0,) * n, lam)
            assert got.hex() == band_diagonal_sum(n, lam).hex(), lam

    @pytest.mark.parametrize("lam", [300.0, 1000.0, 1499.0])
    def test_n3_diagonal_is_the_band_count_up_to_the_cap(self, lam):
        got = torus.band_kernel_torus(3, (0.0, 0.0, 0.0), lam)
        assert got.hex() == band_diagonal_sum(3, lam).hex()

    # Each cosine sum is off by a few ulps of its size, the count N(lambda + 1),
    # and that is about (lambda + 1)/n times the band's count.  Measured: at most
    # 0.63 of this bound over the cases below, and 1.07 when each sum was divided
    # by (2 pi)^n before the subtraction.
    @pytest.mark.parametrize(
        "n,lam",
        [(2, 50.0), (2, 100.0), (2, 200.0), (2, 300.0), (2, 999.5), (2, 1498.0),
         (3, 10.0), (3, 25.5), (3, 40.0)],
    )
    def test_against_the_annulus_sum(self, n, lam):
        # the direct sum over the annulus has no cancellation of order lambda
        pts = annulus(n, lam)
        assert len(pts) == eigenvalue_count(n, lam + 1.0) - eigenvalue_count(n, lam)
        bound = 2.0**-52 * (lam + 1.0) / n * len(pts) / TWO_PI**n
        for d in (default_direction(n), unit_direction(n, (1.0, -2.0, 3.0)[:n])):
            for tau in (0.5, 1.5, 3.0, 6.0):
                u = [v * tau / lam for v in d]
                ref = math.fsum(math.cos(math.fsum(k * v for k, v in zip(p, u))) for p in pts)
                got = torus.band_kernel_torus(n, u, lam)
                assert abs(got - ref / TWO_PI**n) <= bound, (tau, d)

    def test_radius_checked(self):
        with pytest.raises(ResourceLimitError):
            torus.band_kernel_torus(2, (0.1, 0.2), 1499.5)
        for lam in (-0.5, math.nan):
            with pytest.raises(DomainError):
                torus.band_kernel_torus(2, (0.1, 0.2), lam)
        with pytest.raises(DomainError):
            torus.band_kernel_torus(2, (0.1, 0.2, 0.3), 5.0)
