import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import optimize, special

from speclab import analytic, probes
from speclab.analytic import (
    PHI_TAU_MAX,
    PHI_ZERO_TAU_MAX,
    PROFILE_POWER_MAX,
    ZERO_TOL,
    MultiIndex,
    ball_moment,
    bessel_profile,
    bessel_zero,
    deriv_weyl_constant,
    double_factorial,
    epsilon_exponent,
    gamma,
    gauss_legendre_rule,
    gegenbauer_at_one,
    gegenbauer_zeros,
    phi_kernel,
    phi_kernel_bessel,
    phi_kernel_zero,
    sphere_area,
    weyl_constant,
    _bessel_series,
    _first_zero_in_s,
    _hankel,
    _pairs_at_angle,
    _profile_pair,
    _zero_from_pole,
)
from speclab.errors import DomainError, NumericError
from speclab.sphere import ZonalFamily, _angle, addition_kernel

TWO_PI = 2.0 * math.pi

# independent oracle values, frozen from scipy.special / closed forms
J1_ZERO_1 = 3.8317059702075125
J0_ZERO_1 = 2.4048255576957724
TAN_ROOT_1 = 4.493409457909064
TAN_ROOT_2 = 7.725251836937708
P3_ZERO = 0.7745966692414834  # sqrt(3/5)

# Phi_n(tau) = J_{n/2}(tau) / (2 pi tau)^(n/2) at the double nearest each tau, from
# 40-digit mpmath (besselj), pinned
PHI_PIN_TAUS = (
    0.5, 2.25, 3.1, 5.75, 8.0, 9.5, 13.5, 37.25, 77.7, 101.5, 250.75, 512.0, 999.5, 1500.25,
    2047.75, 2448.0,
)
PHI_PIN_VALUES = {
    2: (
        "7.711644518841161436773781407182363377757e-2",
        "3.878983384221067953378216572353451284185e-2",
        "1.544938252059596177565482377641225279915e-2",
        "-8.800424801871504328357746694450313157392e-3",
        "4.667941803853124655999156701630343175513e-3",
        "2.701687505259111501146192396245184332407e-3",
        "4.485728086395896350638115345898384087055e-4",
        "-5.25463644012354835517080993894644145712e-4",
        "1.851858847374819189021324678068878021216e-4",
        "2.312791009912331143170492786958507984093e-5",
        "-3.128243884669743045199073480468040090483e-5",
        "8.33726396247742229242251366090556939741e-6",
        "-1.231629438101130357581287554950815811208e-6",
        "-1.74544605708902407916281066379599613736e-6",
        "-1.338202688861685782417397884373454552168e-6",
        "8.9973286793452988276310609846736907277e-8",
    ),
    3: (
        "1.646844432975718125958235852158049102703e-2",
        "9.746686902175219326162452193132203774369e-3",
        "5.337803794298108768846346439888182529309e-3",
        "-1.455023954746773681624185604573421208015e-3",
        "2.130672204668945824449000936689527855766e-4",
        "5.553082954088081965390821501194291760522e-4",
        "-1.488215208121510200844166328028884654336e-4",
        "-3.331540621929612483933588026552546161782e-5",
        "5.682420230575250490351587824287358884503e-6",
        "-2.743796227921033542564632895718173422847e-6",
        "-6.768556094746118844315115826074428703471e-7",
        "1.92672872931013430588908208819800029873e-7",
        "-4.510794514467640760859813347299444029914e-8",
        "-3.144769580165623515616742970091495698527e-9",
        "-1.018485003895324508084917452034104448238e-8",
        "6.467218715706409532803510437144865012334e-9",
    ),
    4: (
        "3.100835881051597064498231678537054010626e-3",
        "2.024910493965776285636066685795291131147e-3",
        "1.281557496635246881891417191722495115065e-3",
        "-1.429335307053529445215294636252651691062e-4",
        "-4.472052677793521835695418196135552377357e-5",
        "6.395840893955317299538893101320661021047e-5",
        "-2.909714145216497181636476987393214033698e-5",
        "-9.004578901349931100968028994254503755893e-7",
        "-1.150255792619442959206183412558976929505e-8",
        "-1.907759404609846811112991996406243752684e-7",
        "-4.340027344302317964775781326289383366344e-9",
        "2.219574321799913208251088411508652343277e-9",
        "-6.094172848905553269737016944560627215172e-10",
        "1.393097900442275508294292291414114853122e-10",
        "-2.30255650060255616745969374013751658625e-11",
        "6.791561036875069375530244238662612798737e-11",
    ),
    5: (
        "5.279933084772792387582347240916741463261e-4",
        "3.684882804669521346406717317787716632539e-4",
        "2.539505907231883263516413158522343810258e-4",
        "5.446293670453664202292560662128621867986e-7",
        "-1.399067100992226802493886239657847068735e-5",
        "3.644573788264073664900617649043077231213e-6",
        "-3.023965999010687047152251661248535415083e-6",
        "5.626386286483806771814346659235515334621e-8",
        "-1.234747771238515639819921371160605364662e-8",
        "-6.483377923959669583290331944408124546092e-9",
        "2.740160535267983739126935593892632034943e-10",
        "-4.425996299822035408410575027801604424527e-12",
        "-3.704046573058382303033950444454957366419e-12",
        "2.363942680965021268755123362607055120924e-12",
        "5.042903182847867785991877964737600387172e-13",
        "3.543002664285316324713732213569791141966e-13",
    ),
}


def gegenbauer(m, nu, theta):
    """C_m^nu(cos theta): the package's recurrence at a float angle, or elementwise over an array."""
    return next(_pairs_at_angle(nu, theta, (m,)))[0]


class TestGamma:
    def test_classical_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-13, abs=0)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13, abs=0)
        # recursion from gamma(0.5): 1.5 * 0.5 * sqrt(pi)
        assert gamma(2.5) == pytest.approx(1.329340388179137, rel=1e-13, abs=0)

    def test_recursion_identity(self):
        for x in np.linspace(0.5, 49.0, 313):
            assert gamma(float(x) + 1.0) == pytest.approx(float(x) * gamma(float(x)), rel=1e-13, abs=0)

    def test_against_stdlib(self):
        for x in np.linspace(0.5, 50.0, 499):
            assert gamma(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-13, abs=0)

    def test_small_argument_region(self):
        assert gamma(0.1) == pytest.approx(math.gamma(0.1), rel=1e-13, abs=0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            gamma(bad)


class TestDoubleFactorial:
    @pytest.mark.parametrize(
        "k,expected", [(-1, 1), (0, 1), (1, 1), (2, 2), (5, 15), (8, 384), (9, 945)]
    )
    def test_values(self, k, expected):
        assert double_factorial(k) == expected

    def test_recursion(self):
        for k in range(1, 30):
            assert double_factorial(k) == k * double_factorial(k - 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            double_factorial(-2)


def _weyl_constant_40_digits(n):
    """c_n = 1/(2^n pi^(n/2) Gamma(1 + n/2)) in 40-digit mpmath."""
    with mpmath.workdps(40):
        half = mpmath.mpf(n) / 2
        return 1 / (2 ** mpmath.mpf(n) * mpmath.pi ** half * mpmath.gamma(1 + half))


class TestWeylConstant:
    def test_known_dimensions(self):
        assert weyl_constant(2) == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-13)
        assert weyl_constant(3) == pytest.approx(1.0 / (6.0 * math.pi**2), abs=1e-13)
        assert weyl_constant(4) == pytest.approx(1.0 / (32.0 * math.pi**2), abs=1e-13)

    def test_ball_volume_form(self):
        for n in range(2, 9):
            vol = math.pi ** (n / 2.0) / math.gamma(1.0 + n / 2.0)
            assert weyl_constant(n) == pytest.approx(vol / TWO_PI**n, rel=1e-13, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            weyl_constant(1)

    def test_last_normal_dimension_against_mpmath(self):
        # c_225 = 1.04e-307 is the last c_n above the smallest normal float;
        # measured 4.5e-15 relative from 40-digit mpmath
        assert abs(weyl_constant(225) / _weyl_constant_40_digits(225) - 1) <= 1e-13

    def test_every_served_dimension_keeps_its_closed_form(self):
        # the refusal past n = 225 leaves every value below it bit for bit
        for n in range(2, 226):
            assert weyl_constant(n) == 1.0 / (2.0 ** n * math.pi ** (n / 2.0) * math.gamma(1.0 + n / 2.0))

    @pytest.mark.parametrize("n", [226, 341, 342, 400])
    def test_refuses_a_subnormal_constant(self, n):
        # 226 <= n <= 341 returned 0.0, and n >= 342 raised a bare OverflowError
        with pytest.raises(DomainError, match=rf"dimension must be <= 225, got {n}: .*smallest normal float"):
            weyl_constant(n)


class TestSphereArea:
    def test_every_served_dimension_keeps_its_closed_form(self):
        # the refusal past dim = 342 leaves every value below it bit for bit
        for dim in range(343):
            assert sphere_area(dim) == 2.0 * math.pi ** ((dim + 1) / 2.0) / math.gamma((dim + 1) / 2.0)

    @pytest.mark.parametrize("dim", [343, 398, 10**6])
    def test_refuses_past_the_float_range_of_gamma(self, dim):
        # Gamma((dim + 1)/2) overflowed from Gamma(172), dim = 343: a bare OverflowError
        with pytest.raises(DomainError, match=rf"sphere dimension must be <= 342, got {dim}: .*overflows"):
            sphere_area(dim)


def _multi_indices(n, top):
    if n == 1:
        return [(a,) for a in range(top + 1)]
    return [(a, *rest) for a in range(top + 1) for rest in _multi_indices(n - 1, top - a)]


class TestDerivWeylConstant:
    def test_examples(self):
        a = MultiIndex.of(1, 0)
        assert deriv_weyl_constant(2, a, a) == pytest.approx(1.0 / (16.0 * math.pi), rel=1e-13, abs=0)
        assert deriv_weyl_constant(2, a, MultiIndex.of(0, 0)) == 0.0
        zero = MultiIndex.of(0, 0)
        assert deriv_weyl_constant(2, zero, zero) == pytest.approx(weyl_constant(2), abs=1e-13)

    def test_symmetry(self):
        a, b = MultiIndex.of(2, 1), MultiIndex.of(0, 3)
        assert deriv_weyl_constant(2, a, b) == deriv_weyl_constant(2, b, a)

    @pytest.mark.parametrize("n", [2, 3])
    def test_double_factorial_vs_ball_moment(self, n):
        # every pair with |alpha + beta| <= 6: the two routes agree to 1e-12
        for a_ent in _multi_indices(n, 3):
            for b_ent in _multi_indices(n, 3):
                alpha, beta = MultiIndex(a_ent), MultiIndex(b_ent)
                if alpha.order + beta.order > 6:
                    continue
                closed = deriv_weyl_constant(n, alpha, beta)
                if not alpha.same_parity(beta):
                    assert closed == 0.0
                    continue
                half_gap = abs(alpha.order - beta.order) // 2
                sign = -1.0 if half_gap % 2 else 1.0
                moment = sign * ball_moment(n, alpha + beta) / TWO_PI**n
                assert closed == pytest.approx(moment, abs=1e-12)

    def test_mismatched_lengths(self):
        with pytest.raises(DomainError):
            deriv_weyl_constant(2, MultiIndex.of(1, 0, 0), MultiIndex.of(1, 0))


class TestMultiIndex:
    def test_invariants(self):
        with pytest.raises(DomainError):
            MultiIndex(())
        with pytest.raises(DomainError):
            MultiIndex((1, -1))
        with pytest.raises(DomainError):
            MultiIndex((1.0, 0))
        assert MultiIndex.of(1, 2, 3).order == 6
        assert MultiIndex((1, 2)) == MultiIndex.of(1, 2)
        assert hash(MultiIndex((1, 2))) == hash(MultiIndex.of(1, 2))

    def test_parity(self):
        assert MultiIndex.of(3, 1).same_parity(MultiIndex.of(1, 3))
        assert not MultiIndex.of(1, 0).same_parity(MultiIndex.of(0, 0))


class TestGegenbauer:
    def test_legendre_values(self):
        assert gegenbauer(2, 0.5, 0.0) == 1.0
        assert gegenbauer(3, 0.5, math.acos(P3_ZERO)) == pytest.approx(0.0, abs=1e-15)
        assert gegenbauer(1, 1.0, math.acos(0.3)) == pytest.approx(0.6, rel=1e-15, abs=0)

    def test_normalization_at_one(self):
        for m in range(0, 60, 7):
            assert gegenbauer(m, 0.5, 0.0) == 1.0
            assert gegenbauer_at_one(m, 0.5) == 1.0
        assert gegenbauer_at_one(5, 1.0) == pytest.approx(6.0, rel=1e-14, abs=0)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.5])
    def test_against_scipy(self, nu):
        thetas = np.linspace(0.0, math.pi, 41)
        ts = np.cos(thetas)
        for m in (0, 1, 2, 5, 12, 30):
            mine = gegenbauer(m, nu, thetas)
            ref = special.eval_gegenbauer(m, nu, ts) if nu != 0.5 else special.eval_legendre(m, ts)
            np.testing.assert_allclose(mine, ref, rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0, 5.0])
    def test_pairs_against_mpmath_near_the_poles(self, nu):
        # 40-digit three-term recurrence at the cosine of the same float theta;
        # run in floats at a rounded t = cos(theta), that form is up to 3.3e-12
        # C_m(1) off at these points
        near_pi = (math.pi - 4.5e-5, math.pi - 0.014, math.pi)
        for m in (20, 400, 2000):
            for theta in (0.0, 2.5e-6, 4.5e-4, 0.045, 1.27, math.pi / 2.0, 2.2, *near_pi):
                ((c, c_prev),) = _pairs_at_angle(nu, theta, (m,))
                with mpmath.workdps(40):
                    x, a = mpmath.cos(mpmath.mpf(theta)), mpmath.mpf(nu)
                    ref_prev, ref = mpmath.mpf(0), mpmath.mpf(1)
                    for k in range(1, m + 1):
                        ref_prev, ref = ref, (2 * x * (k + a - 1) * ref - (k + 2 * a - 2) * ref_prev) / k
                    err = max(abs(c - ref), abs(c_prev - ref_prev))
                assert err <= 1e-14 * gegenbauer_at_one(m, nu), (m, theta)

    def test_bounded_by_diagonal(self):
        thetas = np.linspace(0.0, math.pi, 501)
        for m, nu in ((7, 0.5), (20, 1.0), (13, 1.5)):
            assert np.max(np.abs(gegenbauer(m, nu, thetas))) <= gegenbauer_at_one(m, nu) * (1 + 1e-12)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_at_one_is_the_rounded_binomial(self, nu):
        # C_m^nu(1) = (m + 2 nu - 1 choose m); a product of m float ratios
        # lands up to 102 ulps off at nu = 3/2 and m <= 2000
        for m in range(2001):
            assert gegenbauer_at_one(m, nu) == float(math.comb(m + int(2 * nu) - 1, m))

    def test_domain(self):
        with pytest.raises(DomainError):
            addition_kernel(2, 3, 3.5)
        with pytest.raises(DomainError):
            addition_kernel(2, 3, math.nan)
        with pytest.raises(DomainError):
            gegenbauer_at_one(-1, 0.5)
        with pytest.raises(DomainError):
            gegenbauer_at_one(5, 0.3)

    @staticmethod
    def _numpy_scalar_pair(m, nu, s, sign):
        # Reinsch's recurrence at s as it runs on a 0-d array (numpy scalar
        # arithmetic), then C_k(-x) = (-1)^k C_k(x) for sign = -1
        c_prev, c, d = np.zeros_like(s), np.ones_like(s), np.ones_like(s)
        for k in range(1, m + 1):
            d = ((k + 2.0 * nu - 2.0) * d - 2.0 * (k + nu - 1.0) * s * c) / k
            c_prev, c = c, c + d
        return (sign * c, c_prev) if m % 2 else (c, sign * c_prev)

    def test_angle_route_matches_its_references(self):
        # the theta entry: s = 2 sin^2(theta/2) up to pi/2, and past it the
        # parity at s = 2 cos^2(theta/2).  Floats bit for bit against one pass
        # per degree and the 0-d numpy recurrence at the same s; arrays take
        # numpy's sin and cos, which may differ from math's by an ulp of s
        thetas = [0.0, 1e-9, 1e-3, 0.3, 1.0, math.pi / 2.0, 1.6, 2.5, 3.14, math.pi]
        degrees = (0, 0, 1, 2, 3, 7, 7, 40, 301)
        for nu in (0.5, 1.0, 1.5, 2.5, 6.0):
            arrays = list(_pairs_at_angle(nu, np.array(thetas), degrees))
            for i, theta in enumerate(thetas):
                far = theta > math.pi / 2.0
                half = math.cos(0.5 * theta) if far else math.sin(0.5 * theta)
                s = np.float64(2.0 * half * half)
                floats = list(_pairs_at_angle(nu, theta, degrees))
                for m, got, array_pair in zip(degrees, floats, arrays):
                    assert [type(v) for v in got] == [float, float], (m, nu, theta)
                    (single,) = _pairs_at_angle(nu, theta, (m,))
                    ref = self._numpy_scalar_pair(m, nu, s, -1.0 if far else 1.0)
                    want = [v.hex() for v in got]
                    assert [v.hex() for v in single] == want, (m, nu, theta)
                    assert [float(v).hex() for v in ref] == want, (m, nu, theta)
                    scale = gegenbauer_at_one(m, nu)
                    assert all(abs(float(v[i]) - w) <= 1e-15 * scale for v, w in zip(array_pair, got)), (m, nu, theta)

    def test_scalar_callers_keep_their_types(self):
        # Python floats in, Python floats out, at every degree
        for m in (0, 1, 2, 9):
            fam = ZonalFamily.create(2, m)
            assert type(fam.at(0.0)) is float and type(fam.at(2.0)) is float
            assert type(addition_kernel(2, m, 0.3)) is float
            assert type(gegenbauer(m, 0.5, 0.3)) is float
            assert all(type(v) is float for v in next(_pairs_at_angle(2.5, 2.0, (m,))))
        assert ZonalFamily.create(2, 0).at(0.0) == ZonalFamily.create(2, 0).at(math.pi / 2.0)


def _legendre_zeros_in_theta(m):
    """The zeros of P_m as 40-digit angles: Newton in theta from acos of scipy's roots, then parity."""
    with mpmath.workdps(40):
        out = []
        for t in special.roots_legendre(m)[0][::-1][: (m + 1) // 2]:
            theta = mpmath.acos(mpmath.mpf(float(t)))
            for _ in range(4):
                x = mpmath.cos(theta)
                prev, p = mpmath.mpf(0), mpmath.mpf(1)
                for k in range(1, m + 1):
                    prev, p = p, ((2 * k - 1) * x * p - (k - 1) * prev) / k
                # dP_m/dtheta = m (x P_m - P_{m-1}) / sin(theta)
                step = p * mpmath.sin(theta) / (m * (x * p - prev))
                theta -= step
                if abs(step) < mpmath.mpf(10) ** -20 * theta:  # quadratic: the error left is near step^2
                    break
            out.append(theta)
        if m % 2:
            out[-1] = mpmath.pi / 2
        return out + [mpmath.pi - z for z in out[: m // 2][::-1]]


class TestGegenbauerZeros:
    """gegenbauer_zeros returns angles; tests in t compare np.cos(z)[::-1] with the roots in t."""

    def test_closed_forms(self):
        np.testing.assert_allclose(np.cos(gegenbauer_zeros(1, 0.5))[::-1], [0.0], atol=1e-15)
        np.testing.assert_allclose(
            np.cos(gegenbauer_zeros(2, 0.5))[::-1], [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], atol=1e-15
        )
        np.testing.assert_allclose(np.cos(gegenbauer_zeros(3, 0.5))[::-1], [-P3_ZERO, 0.0, P3_ZERO], atol=1e-15)

    def test_count_and_sorted(self):
        for m in (1, 4, 17, 120):
            z = gegenbauer_zeros(m, 1.0)
            assert z.shape == (m,)
            assert 0.0 < z[0] and z[-1] < math.pi and np.all(np.diff(z) > 0.0)

    @pytest.mark.parametrize("m", [10, 50, 137, 400])
    def test_against_scipy_legendre(self, m):
        np.testing.assert_allclose(
            np.cos(gegenbauer_zeros(m, 0.5))[::-1], special.roots_legendre(m)[0], atol=5e-15
        )

    @pytest.mark.parametrize("nu", [0.5, 1.0])
    def test_residuals(self, nu):
        for m in (5, 20, 80, 200, 300):
            z = gegenbauer_zeros(m, nu)
            residual = np.max(np.abs(gegenbauer(m, nu, z)))
            assert residual <= 1e-12 * gegenbauer_at_one(m, nu)

    @pytest.mark.parametrize("nu", [0.5, 1.0])
    def test_interlacing(self, nu):
        degrees = list(range(1, 65)) + list(range(70, 501, 43)) + [500]
        for m in degrees:
            z_lo = gegenbauer_zeros(m, nu)
            z_hi = gegenbauer_zeros(m + 1, nu)
            assert np.all(z_hi[:-1] < z_lo) and np.all(z_lo < z_hi[1:])

    def test_large_degree_converges(self):
        z = gegenbauer_zeros(2000, 0.5)
        assert z.shape == (2000,)
        ref = special.roots_legendre(2000)[0]
        np.testing.assert_allclose(np.cos(z)[::-1], ref, atol=1e-14)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0])
    def test_against_scipy_gegenbauer(self, nu):
        for m in (2, 17, 400, 1201, 5000):
            z = gegenbauer_zeros(m, nu)
            np.testing.assert_allclose(np.cos(z)[::-1], special.roots_gegenbauer(m, nu)[0], rtol=0.0, atol=1e-15)
            assert z[0] > 0.0 and z[-1] < math.pi and np.all(np.diff(z) > 0.0)

    @pytest.mark.parametrize("m", [50, 200, 1000])
    def test_chebyshev_u_zeros_in_theta(self, m):
        # on S^3 the zeros are k pi/(m+1) exactly; acos of zeros found in t
        # was 6.9e-15, 2.4e-14 and 5.1e-12 off at these m
        ref = np.array([float(k * mpmath.pi / (m + 1)) for k in range(1, m + 1)])
        assert np.max(np.abs(gegenbauer_zeros(m, 1.0) - ref) / ref) <= 1e-15

    @pytest.mark.parametrize("m", [5, 40, 400])
    def test_legendre_zeros_against_mpmath_in_theta(self, m):
        ref = _legendre_zeros_in_theta(m)
        assert max(abs(z - r) / r for z, r in zip(gegenbauer_zeros(m, 0.5), ref)) <= 1e-15

    def test_first_zero_matches_the_pole_search(self):
        # the first angle against Newton in s from the pole, turned into theta
        for nu in (0.5, 1.0):
            for m in (1, 3, 20, 301, 1201):
                ref = _angle(_first_zero_in_s(m, nu))
                assert abs(gegenbauer_zeros(m, nu)[0] - ref) <= 1e-15 * ref, (m, nu)

    def test_guard_refuses_far_seeds(self):
        # the seeds drift too far from the zeros once nu >= 5
        for m, nu in ((400, 10.0), (200, 5.0), (40, 5.5)):
            with pytest.raises(NumericError):
                gegenbauer_zeros(m, nu)


class TestLargestZero:
    """The largest zero of C_m^nu as 1 - s_1, s_1 the first zero in s from the pole."""

    @pytest.mark.parametrize("nu", [0.5, 1.0, 4.5, 74.5])
    def test_against_scipy(self, nu):
        for m in (1, 2, 7, 40, 400):
            ref = float(np.max(special.roots_gegenbauer(m, nu)[0]))
            assert 1.0 - _first_zero_in_s(m, nu) == pytest.approx(ref, rel=0.0, abs=2e-16)

    def test_rising_iterates_refused(self):
        # t - 2 has its zero above the pole t = 1, at s = 1 - t = -1 below the
        # start s = 0: Newton would climb in t, step back in s, and is refused
        with pytest.raises(NumericError, match="fell"):
            _zero_from_pole(lambda s: (-1.0 - s, -1.0), "t - 2")

    def test_domain(self):
        with pytest.raises(DomainError):
            _first_zero_in_s(0, 0.5)


class TestGaussLegendre:
    def test_order_one_and_two(self):
        r1 = gauss_legendre_rule(1)
        np.testing.assert_allclose(r1.nodes, [0.0])
        np.testing.assert_allclose(r1.weights, [2.0])
        r2 = gauss_legendre_rule(2)
        np.testing.assert_allclose(r2.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        np.testing.assert_allclose(r2.weights, [1.0, 1.0], atol=1e-14)

    def test_quartic_moment_with_five_nodes(self):
        rule = gauss_legendre_rule(5)
        assert rule.integrate(rule.nodes**4) == pytest.approx(0.4, abs=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 7, 11, 16, 40])
    def test_monomial_exactness(self, order):
        rule = gauss_legendre_rule(order)
        assert abs(float(np.sum(rule.weights)) - 2.0) <= 1e-12
        assert np.all(np.diff(rule.nodes) > 0.0) or order == 1
        for k in range(2 * order):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert rule.integrate(rule.nodes**k) == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("order", [64, 501, 2016])
    def test_large_orders(self, order):
        rule = gauss_legendre_rule(order)
        assert abs(float(np.sum(rule.weights)) - 2.0) <= 1e-12
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
        np.testing.assert_allclose(rule.nodes, ref_nodes, atol=5e-15)
        np.testing.assert_allclose(rule.weights, ref_weights, atol=5e-14)

    def test_order_one_from_the_general_route(self):
        # the one Legendre zero is +0.0 and its weight exactly 2
        rule = gauss_legendre_rule(1)
        assert [float(v).hex() for v in rule.nodes] == [(0.0).hex()]
        assert [float(v).hex() for v in rule.weights] == [(2.0).hex()]

    @pytest.mark.parametrize("order", [1, 2, 3, 40, 1201])
    def test_angles_are_the_nodes_in_theta(self, order):
        # the angles come from Newton, and their cosines are the |nodes| except at an odd order's middle +0.0
        rule = gauss_legendre_rule(order)
        middle = order // 2 if order % 2 else None
        assert np.all(0.0 < rule.angles) and np.all(rule.angles <= math.pi / 2.0)
        for k, (angle, node) in enumerate(zip(rule.angles, rule.nodes)):
            assert (angle == math.pi / 2.0 and node == 0.0) if k == middle else math.cos(angle) == abs(node)
        assert rule.angles[: order // 2].tolist() == rule.angles[::-1][: order // 2].tolist()

    def test_rule_is_cached_and_frozen(self):
        assert gauss_legendre_rule(17) is gauss_legendre_rule(17)
        with pytest.raises(ValueError):
            gauss_legendre_rule(17).nodes[0] = 0.0
        with pytest.raises(ValueError):
            gauss_legendre_rule(17).angles[0] = 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss_legendre_rule(0)
        with pytest.raises(DomainError):
            gauss_legendre_rule(5001)


def _j0_series(x):
    """J_0 by its power series, as the package computed it before bessel_j."""
    q = 0.25 * x * x
    term = out = 1.0
    for k in range(1, 60):
        term *= -q / (k * k)
        out += term
        if abs(term) < 1e-18 * abs(out) + 1e-300:
            break
    return out


def _j1_over_x_series(x):
    """J_1(x)/x by its power series, as the package computed it before bessel_j."""
    q = 0.25 * x * x
    term = out = 0.5
    for k in range(1, 60):
        term *= -q / (k * (k + 1.0))
        out += term
        if abs(term) < 1e-18 * abs(out) + 1e-300:
            break
    return out


class TestBessel:
    """The series and Hankel routes behind phi_kernel_bessel, at its orders nu in {1, 3/2}."""

    @staticmethod
    def _bessel_j(nu, x):
        return x ** nu * _bessel_series(nu, x) if x < 12.0 else _hankel(nu, x)

    def test_series_matches_the_j0_and_j1_series(self):
        rng = np.random.default_rng(17)
        for x in (*rng.uniform(0.0, 12.0, 20000).tolist(), 0.0, 1e-300, 11.999999999999998):
            assert _bessel_series(0, x).hex() == _j0_series(x).hex(), x
            assert _bessel_series(1, x).hex() == _j1_over_x_series(x).hex(), x

    def test_against_scipy(self):
        # the largest gap seen on a 600,001-point grid was 9.4e-13, at the series cut
        xs = np.linspace(0.0, 60.0, 2401)
        for nu in (1, 1.5):
            got = [self._bessel_j(nu, float(x)) for x in xs]
            np.testing.assert_allclose(got, special.jv(nu, xs), rtol=0.0, atol=1e-12)

    def test_half_integer_orders_in_closed_form(self):
        for x in np.linspace(0.05, 60.0, 1200):
            x = float(x)
            j_three_halves = math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
            assert self._bessel_j(1.5, x) == pytest.approx(j_three_halves, abs=1e-12)

    def test_first_zero_by_newton(self):
        # Newton from McMahon's seed on the recurrence, not a grid walk and bisection
        assert bessel_zero(0, 1) == pytest.approx(J0_ZERO_1, abs=1e-15)


def _zeros_of_j(nu: float, count: int) -> list[float]:
    """The first `count` zeros of J_nu, for half-integer 0 <= nu <= 15, from scipy."""
    if nu == int(nu):
        return [float(z) for z in special.jn_zeros(int(nu), count)]
    if nu == 0.5:
        return [k * math.pi for k in range(1, count + 1)]
    if nu == 1.5:
        # x cos x - sin x changes sign once on (k pi, (k + 1/2) pi) for k >= 1
        f = lambda x: x * math.cos(x) - math.sin(x)  # noqa: E731
        return [optimize.brentq(f, k * math.pi, (k + 0.5) * math.pi, xtol=1e-14)
                for k in range(1, count + 1)]
    # zeros of J_nu lie at least pi apart for nu >= 1/2 and below (i + nu/2) pi, so
    # a grid of step 1/4 brackets each one alone
    xs = np.arange(0.25, (count + 0.5 * nu + 1.0) * math.pi, 0.25)
    values = special.jv(nu, xs)
    brackets = [(a, b) for a, b, fa, fb in zip(xs, xs[1:], values, values[1:]) if fa * fb < 0.0]
    return [optimize.brentq(lambda x: special.jv(nu, x), a, b, xtol=1e-15, rtol=1e-15)
            for a, b in brackets[:count]]


class TestBesselProfile:
    @pytest.mark.parametrize("power", [*range(9), 10, 20, PROFILE_POWER_MAX])
    def test_against_scipy(self, power):
        # measured at most 8.7e-15 Lambda_nu(0) on a 2400-point grid, 2.7e-15 for 2 nu <= 8
        nu = power / 2.0
        xs = np.linspace(0.0, 60.0, 601)[1:]
        ref = special.jv(nu, xs) / xs ** nu
        got = [bessel_profile(nu, float(x)) for x in xs]
        at_zero = 1.0 / (2.0 ** nu * math.gamma(nu + 1.0))
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14 * at_zero)
        assert bessel_profile(nu, 0.0) == pytest.approx(at_zero, rel=1e-14, abs=0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_phi_is_the_profile_at_half_the_dimension(self, n):
        for tau in (0.0, 1.5, 3.8, 9.5, 100.0):
            expected = bessel_profile(n / 2.0, tau) / TWO_PI ** (n / 2.0)
            assert phi_kernel(n, tau) == pytest.approx(expected, rel=0.0, abs=1e-15 * weyl_constant(n))

    def test_domain(self):
        for nu in (-0.5, 0.25, 15.5, math.nan, math.inf):
            with pytest.raises(DomainError, match="not a half-integer"):
                bessel_profile(nu, 1.0)
            with pytest.raises(DomainError, match="not a half-integer"):
                bessel_zero(nu, 1)
        for x in (-0.1, math.nan, PHI_TAU_MAX + 0.5):
            with pytest.raises(DomainError, match="x must lie in"):
                bessel_profile(1.0, x)

    @pytest.mark.parametrize("power", range(PROFILE_POWER_MAX + 1))
    def test_every_zero_below_the_cap(self, power):
        # measured at most 7.1e-14 from scipy and 1.8e-14 from 30-digit mpmath,
        # so the gap is mostly brentq's own
        nu = power / 2.0
        ref = [z for z in _zeros_of_j(nu, 64) if z <= PHI_ZERO_TAU_MAX]
        got = [bessel_zero(nu, i) for i in range(1, len(ref) + 1)]
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=ZERO_TOL)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)
        with pytest.raises(DomainError, match=rf"zero {len(ref) + 1} of J_{nu:g} lies beyond tau = 200"):
            bessel_zero(nu, len(ref) + 1)

    @pytest.mark.parametrize("power", range(PROFILE_POWER_MAX + 1))
    def test_first_zero_and_nodal_limit(self, power):
        # measured at most 7.0e-14 relative, at 2 nu = 30; it is nodal's limit on S^(2 nu + 2)
        nu = power / 2.0
        ref = _zeros_of_j(nu, 1)[0]
        assert bessel_zero(nu, 1) == pytest.approx(ref, rel=1e-12, abs=0)
        assert probes._nodal_limit(power + 2) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_seed_outside_its_bracket_is_refused(self):
        # from 2 nu = 34 on McMahon's seed lies more than 1/2 from j_{nu,1}
        with pytest.raises(NumericError, match="no sign change of J_17 across"):
            analytic._profile_zero(34, 1, "J_17")

    def test_zeros_past_the_first_for_every_order(self):
        assert bessel_zero(2.5, 1) == pytest.approx(5.763459196894550, rel=1e-13, abs=0)
        assert bessel_zero(2.5, 2) == pytest.approx(9.095011330476355, rel=1e-13, abs=0)
        with pytest.raises(DomainError, match="zero index"):
            bessel_zero(0, 0)

    def test_start_order_50_higher_moves_no_value_past_the_rounding_bound(self, monkeypatch):
        # _profile_pair's docstring bounds its rounding by 5e-14 of the envelope;
        # measured, the move was at most 1.4e-14
        xs = [0.0, 5e-324, 1e-300, 1e-3] + np.geomspace(0.01, PHI_TAU_MAX, 40).tolist()
        for power in range(PROFILE_POWER_MAX + 1):
            nu = power / 2.0
            at_zero = 1.0 / (2.0 ** nu * math.gamma(nu + 1.0))
            # for x <= 1/2, sqrt(2/(pi x)) / x^nu > 1 >= Lambda_nu(0), so the envelope is Lambda_nu(0)
            envelopes = [at_zero if x <= 0.5 else min(at_zero, math.sqrt(2.0 / (math.pi * x)) / x ** nu)
                         for x in xs]
            before = [_profile_pair(power, x) for x in xs]
            top = analytic._miller_top
            monkeypatch.setattr(analytic, "_miller_top", lambda p, x: top(p, x) + 100)
            after = [_profile_pair(power, x) for x in xs]
            monkeypatch.undo()
            for x, envelope, (a, _), (b, _) in zip(xs, envelopes, before, after):
                assert abs(a - b) <= 5e-14 * envelope, (power, x)


def _count_rule_sums(monkeypatch) -> list[int]:
    """Count the recurrence passes (_profile_pair calls) a zero takes."""
    calls = [0]
    profile_pair = analytic._profile_pair

    def counted(power, x):
        calls[0] += 1
        return profile_pair(power, x)

    monkeypatch.setattr(analytic, "_profile_pair", counted)
    return calls


class TestZeroCost:
    """Newton from McMahon's seed: a handful of recurrence passes per zero, at any index."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("i", [1, 30, 63])
    def test_rule_sums_per_phi_zero(self, monkeypatch, n, i):
        calls = _count_rule_sums(monkeypatch)
        if n == 4 and i == 63:  # j_{2,63} = 200.27 lies past the cap
            with pytest.raises(DomainError, match="zero 63 of Phi_4 lies beyond"):
                phi_kernel_zero(n, i)
        else:
            phi_kernel_zero(n, i)
        assert 2 <= calls[0] <= 16

    @pytest.mark.parametrize("n", range(2, PROFILE_POWER_MAX + 3))
    def test_rule_sums_per_nodal_limit(self, monkeypatch, n):
        calls = _count_rule_sums(monkeypatch)
        probes._nodal_limit(n)
        assert calls[0] <= 16
        assert calls[0] >= 2 or n == 3

    def test_no_sum_past_the_cap(self, monkeypatch):
        calls = _count_rule_sums(monkeypatch)
        with pytest.raises(DomainError, match="zero 64 of Phi_2 lies beyond tau = 200"):
            phi_kernel_zero(2, 64)
        # a far too large or non-integer index is refused before any float arithmetic on it
        with pytest.raises(DomainError, match="lies beyond tau = 200"):
            phi_kernel_zero(2, 10 ** 400)
        with pytest.raises(DomainError, match="lies beyond tau = 200"):
            bessel_zero(0, 10 ** 400)
        # past the 4300 digits Python converts to a string, the message names the index by its size
        with pytest.raises(DomainError, match="zero <16610-bit integer> of Phi_2 lies beyond tau = 200"):
            phi_kernel_zero(2, 10 ** 5000)
        with pytest.raises(DomainError, match="zero <16610-bit integer> of J_0 lies beyond tau = 200"):
            bessel_zero(0, 10 ** 5000)
        with pytest.raises(DomainError, match="zero <16610-bit integer> of J_3 lies beyond tau = 200"):
            bessel_zero(3.0, 10 ** 5000)
        with pytest.raises(DomainError, match="integer >= 1, got -<16610-bit integer>"):
            phi_kernel_zero(2, -10 ** 5000)
        with pytest.raises(DomainError, match="zero index must be an integer >= 1, got 1.5"):
            phi_kernel_zero(2, 1.5)
        with pytest.raises(DomainError, match="zero index must be an integer >= 1, got 2.5"):
            bessel_zero(0.0, 2.5)
        # the index's type is checked before it is compared with a float
        for nu, i in ((0.0, "a"), (3.0, None), (3.0, 1.5)):
            with pytest.raises(DomainError, match=f"zero index must be an integer >= 1, got {i!r}"):
                bessel_zero(nu, i)
        assert calls[0] == 0


class TestPhiKernel:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_value_at_zero_is_weyl_constant(self, n):
        assert phi_kernel(n, 0.0) == pytest.approx(weyl_constant(n), abs=1e-12)

    def test_vanishes_at_first_bessel_zero(self):
        assert abs(phi_kernel(2, J1_ZERO_1)) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_quadrature_vs_bessel_sup(self, n):
        # the recurrence route of phi_kernel, before its runtime cross-check
        taus = np.arange(0.0, 30.0001, 0.05)
        route = [bessel_profile(n / 2.0, float(t)) / TWO_PI ** (n / 2.0) for t in taus]
        sup = max(abs(v - phi_kernel_bessel(n, float(t))) for v, t in zip(route, taus))
        assert sup <= 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_kernel(2, -0.1)
        with pytest.raises(DomainError, match="tau must be >= 0, got nan"):
            phi_kernel(2, math.nan)
        with pytest.raises(DomainError):
            phi_kernel(1, 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_within_4_ulps_of_mpmath(self, n):
        # measured at most 1.5, 2.2, 2.6 and 2.0 ulp(c_n) for n = 2..5 at these taus
        taus = [float(t) for t in np.linspace(0.0, 8.0, 561)[1:]] + [1e-300, 5e-324]
        taus += [float(t) for t in np.arange(2.5, PHI_TAU_MAX, 2.5)]
        bound = 4.0 * math.ulp(weyl_constant(n))
        with mpmath.workdps(30):
            nu = mpmath.mpf(n) / 2
            for tau in taus:
                t = mpmath.mpf(tau)
                exact = mpmath.besselj(nu, t) / (2 * mpmath.pi * t) ** nu
                assert abs(phi_kernel(n, tau) - exact) <= bound, tau

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_within_bound_of_mpmath_up_to_tau_max(self, n):
        # measured at most 2.0e-16 c_n at these taus
        bound = Fraction(3e-15) * Fraction(weyl_constant(n))
        for tau, pinned in zip(PHI_PIN_TAUS, PHI_PIN_VALUES[n]):
            assert abs(Fraction(phi_kernel(n, tau)) - Fraction(pinned)) <= bound, tau

    def test_last_normal_dimension_against_mpmath(self):
        # Phi_225(0) = c_225; measured 4.7e-15 relative from 40-digit mpmath
        assert abs(phi_kernel(225, 0.0) / _weyl_constant_40_digits(225) - 1) <= 1e-13

    @pytest.mark.parametrize("n", [226, 250, 343])
    def test_refuses_past_the_last_normal_constant(self, n):
        # |Phi_n| <= Phi_n(0) = c_n; phi_kernel(250, 0) returned 0.0, and past
        # n = 342 it raised OverflowError
        with pytest.raises(DomainError, match=rf"dimension must be <= 225, got {n}"):
            phi_kernel(n, 0.0)

    def test_tau_beyond_rule_cap_names_the_limit(self):
        # the cap is the served domain, not a cost bound: a call at tau = 2448 takes about 1 ms
        assert PHI_TAU_MAX == 2448.0
        with pytest.raises(DomainError, match=r"tau = 2448\.5 .* 2448"):
            phi_kernel(2, 2448.5)


class TestPhiKernelZero:
    def test_known_zeros(self):
        assert phi_kernel_zero(2, 1) == pytest.approx(J1_ZERO_1, abs=1e-9)
        assert phi_kernel_zero(3, 1) == pytest.approx(TAN_ROOT_1, abs=1e-9)
        assert phi_kernel_zero(3, 2) == pytest.approx(TAN_ROOT_2, abs=1e-9)

    def test_phi3_zeros_satisfy_tan_identity(self):
        for i in (1, 2, 3, 4):
            z = phi_kernel_zero(3, i)
            # tan z = z, checked through the scale-free residual sin - z cos
            assert abs(math.sin(z) - z * math.cos(z)) <= 1e-10 * (1.0 + z * z)

    def test_range_error(self):
        with pytest.raises(DomainError, match=r"zero 100 of Phi_2 lies beyond tau = 200"):
            phi_kernel_zero(2, 100)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_zero_below_the_cap_is_found(self, n):
        # the zeros of Phi_n are those of J_{n/2}; each is found on its own, so
        # every one is checked, and the first past the cap is refused
        ref = _zeros_of_j(n / 2.0, 64)
        count = sum(z <= PHI_ZERO_TAU_MAX for z in ref)
        assert count == (62 if n == 4 else 63)
        got = [phi_kernel_zero(n, i) for i in range(1, count + 1)]
        np.testing.assert_allclose(got, ref[:count], rtol=0.0, atol=ZERO_TOL)
        with pytest.raises(DomainError, match=rf"zero {count + 1} of Phi_{n} lies beyond tau = 200"):
            phi_kernel_zero(n, count + 1)

    def test_domain(self):
        assert phi_kernel_zero(5, 2) == pytest.approx(9.095011330476355, rel=1e-13, abs=0)
        assert phi_kernel_zero(30, 1) == pytest.approx(_zeros_of_j(15.0, 1)[0], rel=1e-13, abs=0)
        with pytest.raises(DomainError, match=r"2 <= n <= 30, got n=31"):
            phi_kernel_zero(31, 1)
        with pytest.raises(DomainError):
            phi_kernel_zero(1, 1)
        with pytest.raises(DomainError):
            phi_kernel_zero(2, 0)


class TestEpsilonExponent:
    def test_examples(self):
        assert epsilon_exponent(2, math.inf) == 0.5
        assert epsilon_exponent(2, 6.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert epsilon_exponent(2, 2.0) == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_branches_cross_exactly(self, n):
        p_star = 2.0 * (n + 1) / (n - 1)
        assert (n - 1) / 2.0 - n / p_star == (0.25 - 0.5 / p_star) * (n - 1.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_monotone(self, n):
        grid = [2.0, 2.2, 3.0, 4.0, 6.0, 10.0, 40.0, 1e4, math.inf]
        vals = [epsilon_exponent(n, p) for p in grid]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            epsilon_exponent(2, 1.5)
        for p in (math.nan, -math.inf):
            with pytest.raises(DomainError, match="p >= 2"):
                epsilon_exponent(2, p)
