"""Special functions, universal constants and quadrature.

Everything in this module is independent of a particular manifold: the
leading Weyl constants, the radial kernel Phi_n that governs near-diagonal
projector asymptotics and the Bessel profile J_nu(x)/x^nu it comes from,
with its zeros, Gegenbauer/Legendre evaluation and zero finding,
Gauss-Legendre rules and the sharp L_p growth exponent.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, NumericError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MultiIndex",
    "QuadratureRule",
    "gamma",
    "double_factorial",
    "sphere_area",
    "weyl_constant",
    "deriv_weyl_constant",
    "ball_moment",
    "gegenbauer_at_one",
    "gegenbauer_zeros",
    "gauss_legendre_rule",
    "bessel_profile",
    "bessel_zero",
    "phi_kernel",
    "phi_kernel_bessel",
    "phi_kernel_zero",
    "epsilon_exponent",
]

TWO_PI = 2.0 * math.pi

# largest n whose c_n = vol(B_n)/(2 pi)^n is a normal float (c_225 = 1.04e-307,
# c_226 = 2.76e-309); weyl_constant and phi_kernel, |Phi_n| <= c_n, refuse past it
_WEYL_N_MAX = 225

# largest dim whose area |S^dim| = 2 pi^((dim+1)/2) / Gamma((dim+1)/2) is a float:
# Gamma(171.5) is, Gamma(172) overflows; sphere_area refuses past it
_SPHERE_AREA_DIM_MAX = 342

# Zeros of Lambda_nu = J_nu / x^nu by Newton on Miller's recurrence
# (_profile_zero).  Its error falls with x as the profile does, so every zero
# below PHI_ZERO_TAU_MAX for every 2 nu <= PROFILE_POWER_MAX was within 1.8e-14
# of 30-digit mpmath and 7.1e-14 of scipy's brentq, whose own error is most of
# that; from 2 nu = 34 on McMahon's seed misses its bracket.
ZERO_TOL = 1e-10
PHI_ZERO_TAU_MAX = 200.0
PROFILE_POWER_MAX = 30

# largest Gauss-Legendre order gauss_legendre_rule builds
QUAD_ORDER_MAX = 5000

# Newton's method settles once every step is at most NEWTON_TOL in theta, or relative to s
NEWTON_TOL = 1e-13
NEWTON_MAX_STEPS = 100


# --------------------------------------------------------------------------
# domain types


class MultiIndex(NamedTuple("MultiIndex", [("entries", tuple[int, ...])])):
    """A multi-index: a fixed-length tuple of non-negative integers."""

    __slots__ = ()

    def __new__(cls, entries: tuple[int, ...]) -> "MultiIndex":
        if len(entries) < 1:
            raise DomainError("multi-index must have length >= 1")
        if any((not isinstance(e, int)) or e < 0 for e in entries):
            raise DomainError(f"multi-index entries must be integers >= 0, got {entries}")
        return super().__new__(cls, entries)

    @classmethod
    def of(cls, *entries: int) -> "MultiIndex":
        return cls(tuple(entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if len(self) != len(other):
            raise DomainError("multi-index lengths differ")
        return MultiIndex(tuple(a + b for a, b in zip(self.entries, other.entries)))

    @property
    def order(self) -> int:
        return sum(self.entries)

    def same_parity(self, other: "MultiIndex") -> bool:
        """Componentwise difference even in every slot."""
        if len(self) != len(other):
            raise DomainError("multi-index lengths differ")
        return all((a - b) % 2 == 0 for a, b in zip(self.entries, other.entries))


class QuadratureRule(
    NamedTuple(
        "QuadratureRule",
        [("nodes", "np.ndarray"), ("weights", "np.ndarray"), ("order", int), ("angles", "np.ndarray")],
    )
):
    """Gauss-Legendre nodes/weights on (-1, 1), exact through degree 2N-1; cos(angles) = |nodes|; read-only."""

    __slots__ = ()

    def __new__(cls, nodes: np.ndarray, weights: np.ndarray, order: int, angles: np.ndarray) -> "QuadratureRule":
        for table in (nodes, weights, angles):
            table.setflags(write=False)
        return super().__new__(cls, nodes, weights, order, angles)

    def integrate(self, values: np.ndarray) -> float:
        return float((self.weights * values).sum())

    def mapped(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Affinely mapped nodes and weights for integration over [a, b]."""
        half = 0.5 * (b - a)
        return a + half * (self.nodes + 1.0), half * self.weights


# --------------------------------------------------------------------------
# gamma and friends

def gamma(x: float) -> float:
    """Gamma function on the positive axis, from math.gamma."""
    if not x > 0.0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


def double_factorial(k: int) -> int:
    """k!! with the empty-product convention (-1)!! = 0!! = 1."""
    if k < -1:
        raise DomainError(f"double factorial requires k >= -1, got {k}")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def sphere_area(dim: int) -> float:
    """Surface area of the unit sphere S^dim embedded in R^{dim+1}, for 0 <= dim <= 342."""
    if dim < 0:
        raise DomainError("sphere dimension must be >= 0")
    if dim > _SPHERE_AREA_DIM_MAX:
        raise DomainError(f"sphere dimension must be <= {_SPHERE_AREA_DIM_MAX}, got {dim}: past it "
                          "Gamma((dim + 1)/2) in the area |S^dim| overflows a float")
    return 2.0 * math.pi ** ((dim + 1) / 2.0) / math.gamma((dim + 1) / 2.0)


def _check_weyl_dimension(n: int) -> None:
    """Refuse n outside 2 <= n <= _WEYL_N_MAX, the dimensions whose c_n is a normal float."""
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got {n}")
    if n > _WEYL_N_MAX:
        raise DomainError(f"dimension must be <= {_WEYL_N_MAX}, got {n}: past it c_n is below "
                          "the smallest normal float")


def weyl_constant(n: int) -> float:
    """Leading constant of the diagonal spectral function, vol(B_n)/(2 pi)^n, for 2 <= n <= 225."""
    _check_weyl_dimension(n)
    return 1.0 / (2.0 ** n * math.pi ** (n / 2.0) * math.gamma(1.0 + n / 2.0))


def deriv_weyl_constant(n: int, alpha: MultiIndex, beta: MultiIndex) -> float:
    """Leading constant of the (alpha, beta)-derivative diagonal sum.

    Zero when alpha and beta differ in parity; otherwise the double-factorial
    closed form of the unit-ball moment of x^(alpha+beta), with the
    alternating sign attached to (|alpha| - |beta|)/2.
    """
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got {n}")
    if len(alpha) != n or len(beta) != n:
        raise DomainError("multi-index lengths must equal the dimension")
    if not alpha.same_parity(beta):
        return 0.0
    gam = alpha + beta
    num = 1.0
    for g in gam.entries:
        num *= double_factorial(g - 1)
    den = math.pi ** (n / 2.0) * 2.0 ** (n + gam.order // 2)
    den *= math.gamma((gam.order + n) / 2.0 + 1.0)
    half_gap = abs(alpha.order - beta.order) // 2
    sign = -1.0 if half_gap % 2 else 1.0
    return sign * num / den


def ball_moment(n: int, gam: MultiIndex) -> float:
    """Moment of x^gam over the unit ball in R^n by iterated 1-D Beta integrals.

    Independent cross-check route for deriv_weyl_constant; returns 0 whenever
    some exponent is odd.
    """
    if len(gam) != n:
        raise DomainError("multi-index length must equal the dimension")
    if any(g % 2 for g in gam.entries):
        return 0.0
    out = 1.0
    tail = gam.order
    for j, g in enumerate(gam.entries):
        tail -= g
        s = ((n - j - 1) + tail) / 2.0
        out *= math.gamma((g + 1) / 2.0) * math.gamma(s + 1.0) / math.gamma((g + 1) / 2.0 + s + 1.0)
    return out


# --------------------------------------------------------------------------
# Gegenbauer / Legendre machinery


def _check_gegenbauer_args(m: int, nu: float, least: int = 0) -> None:
    if m < least:
        raise DomainError(f"degree must be >= {least}, got {m}")
    if not nu > 0.0:
        raise DomainError(f"Gegenbauer parameter must be positive, got {nu}")


def _pairs_in_s(nu: float, s, degrees):
    """(C_m^nu(1 - s), C_{m-1}^nu(1 - s)) at each of the ascending `degrees`, by Reinsch's recurrence.

    D_k = C_k - C_{k-1} obeys k D_k = (k + 2 nu - 2) D_{k-1} - 2 (k + nu - 1) s C_{k-1}
    (DLMF 18.9.1 at t = 1 - s; Stoer and Bulirsch, 2.3), which carries s itself
    near the pole, where a rounded t = cos(theta) costs digits as 1/s.  A float
    s gives floats and an array arrays, by the same arithmetic (C_{-1} = 0).
    """
    c_prev = s - s  # +0.0 for every finite s, or an array of them
    c = d = c_prev + 1.0
    two_nu, two_s = 2.0 * nu, 2.0 * s
    k = 0
    for m in degrees:
        for k in range(k + 1, m + 1):
            d = ((k + two_nu - 2.0) * d - (k + nu - 1.0) * two_s * c) / k
            c_prev, c = c, c + d
        yield c, c_prev


def _pairs_at_angle(nu: float, theta, degrees):
    """C_m^nu and C_{m-1}^nu at cos(theta) for each ascending degree; theta a float in [0, pi], or an array.

    s = 2 sin^2(theta/2) up to pi/2, and past it the parity C_k(-x) = (-1)^k C_k(x)
    at s = 2 cos^2(theta/2), so no cosine of theta is rounded; a float theta never
    imports numpy.  Array entries may be any angle (2 sin^2(x/2) = 1 - cos x and
    2 cos^2(x/2) = 1 + cos x for every x): _hoelder_proxy's shifted points pass pi
    at low degree.
    """
    far = theta > 0.5 * math.pi
    if isinstance(theta, (int, float)):
        if not 0.0 <= theta <= math.pi:  # NaN fails this too
            raise DomainError(f"theta must lie in [0, pi], got {theta}")
        half = (math.cos if far else math.sin)(0.5 * theta)
    else:
        import numpy as np
        half = np.where(far, np.cos(0.5 * theta), np.sin(0.5 * theta))
    sign, pairs = 1.0 - 2.0 * far, _pairs_in_s(nu, 2.0 * half * half, degrees)
    return ((sign * c, c_prev) if m % 2 else (c, sign * c_prev) for m, (c, c_prev) in zip(degrees, pairs))


def gegenbauer_at_one(m: int, nu: float) -> float:
    """C_m^nu(1) = (2 nu)_m / m! = (m + 2 nu - 1 choose m), the maximum of |C_m^nu| on [-1, 1].

    Served for half-integer nu: the binomial is exact, then rounded once.
    """
    _check_gegenbauer_args(m, nu)
    if not (2.0 * nu).is_integer():
        raise DomainError(f"C_m^nu(1) is served for half-integer nu, got {nu}")
    return float(math.comb(m + int(2.0 * nu) - 1, m))


def _newton(fn, x, what: str, *, tol: float = NEWTON_TOL, rising: bool = False):
    """Newton's method for fn(x) -> (value, derivative), at a float or elementwise over an array x.

    Returns the iterate after the first step of at most tol in every entry.
    rising marks a float x below every zero of a polynomial whose zeros are all
    real: the iterates rise monotonically to the nearest, a step back is
    refused, and the stop is tol times the iterate, since such zeros near the
    pole s = 0 fall as m^-2 at degree m.
    """
    for _ in range(NEWTON_MAX_STEPS):
        val, der = fn(x)
        step = val / der
        bound = tol * abs(x) if rising else tol
        if rising and step > bound:
            raise NumericError(f"Newton iterates for {what} fell from the pole")
        x = x - step
        if (abs(step) if isinstance(step, float) else abs(step).max()) <= bound:
            return x
    raise NumericError(f"Newton refinement for {what} did not settle in {NEWTON_MAX_STEPS} steps")


def _zero_from_pole(fn, what: str, tol: float = NEWTON_TOL) -> float:
    """Smallest zero in s = 1 - t of a polynomial with real zeros, all below t = 1; fn(s) -> (p, dp/ds)."""
    return _newton(fn, 0.0, what, tol=tol, rising=True)


def _first_zero_in_s(m: int, nu: float) -> float:
    """s_1 = 1 - t_1, t_1 the largest zero of C_m^nu, by _zero_from_pole."""
    _check_gegenbauer_args(m, nu, 1)

    def value_and_deriv(s: float) -> tuple[float, float]:  # d/dt C_m^nu = 2 nu C_{m-1}^{nu+1}
        ((val, _),) = _pairs_in_s(nu, s, (m,))
        ((der, _),) = _pairs_in_s(nu + 1.0, s, (m - 1,))
        return val, -2.0 * nu * der

    return _zero_from_pole(value_and_deriv, f"C_{m}^{nu:g}")


def gegenbauer_zeros(m: int, nu: float) -> np.ndarray:
    """The m zeros cos(theta_k) of C_m^nu, as the angles 0 < theta_1 < ... < theta_m < pi.

    Newton runs in theta from the seeds pi (k + nu/2 - 1/2) / (m + nu), exact
    for Chebyshev U (nu = 1) and the standard Legendre guess at nu = 1/2, with
    dC_m/dtheta = (m t C_m - (m + 2 nu - 1) C_{m-1}) / sin(theta), t = cos(theta)
    (DLMF 18.9.8), from the same pass.  It runs on the zeros up to pi/2 only (an
    odd m's middle one is pi/2), which a float holds to full relative precision;
    the rest are pi - theta_k by parity.  Callers use nu = 1/2
    (Gauss-Legendre rules, zonal norms on S^2) and nu = 1 (S^3).  For nu >= 5 the
    seeds drift too far; if Newton does not settle, or the zeros leave (0, pi/2]
    or come out unordered, NumericError is raised.
    """
    import numpy as np
    _check_gegenbauer_args(m, nu, 1)

    def value_and_slope(theta):
        ((c, c_prev),) = _pairs_at_angle(nu, theta, (m,))
        return c, (m * np.cos(theta) * c - (m + 2.0 * nu - 1.0) * c_prev) / np.sin(theta)

    k = np.arange(1, (m + 1) // 2 + 1, dtype=float)
    half = _newton(value_and_slope, math.pi * (k + 0.5 * nu - 0.5) / (m + nu), f"the zeros of C_{m}^{nu:g}")
    if m % 2:
        half[-1] = 0.5 * math.pi
    theta = np.concatenate((half, math.pi - half[: m // 2][::-1]))
    if not (0.0 < theta[0] and np.all(np.diff(theta) > 0.0)):
        raise NumericError(f"Newton from the cosine seeds lost a zero of C_{m}^{nu:g}")
    return theta


@functools.lru_cache(maxsize=128)
def gauss_legendre_rule(order: int) -> QuadratureRule:
    """Gauss-Legendre rule of a given order on (-1, 1), from the Legendre zeros theta_k <= pi/2.

    Nodes +-cos(theta_k); weights 2 / ((1 - t^2) P_N'(t)^2) = 2 sin^2(theta_k) / (N P_{N-1}(cos theta_k))^2.
    """
    import numpy as np
    if order < 1 or order > QUAD_ORDER_MAX:
        raise DomainError(f"quadrature order must lie in [1, {QUAD_ORDER_MAX}], got {order}")
    half = gegenbauer_zeros(order, 0.5)[: (order + 1) // 2]
    ((_, below),) = _pairs_at_angle(0.5, half, (order,))
    angles, weights = (
        np.concatenate((v, v[: order // 2][::-1])) for v in (half, 2.0 * (np.sin(half) / (order * below)) ** 2)
    )
    x = np.cos(angles)
    x[: (order + 1) // 2] *= -1.0
    # exactly odd, so an odd order's middle node is +0.0
    return QuadratureRule(nodes=0.5 * (x - x[::-1]), weights=weights, order=order, angles=angles)


# --------------------------------------------------------------------------
# Miller's algorithm for the Bessel profile Lambda_nu = J_nu(x) / x^nu, and Phi_n from it


# largest tau (or x) that phi_kernel and bessel_profile serve; offdiag and
# difference name it when they refuse a larger --tau (ROADMAP item 21)
PHI_TAU_MAX = 2448.0


def _miller_top(power: int, x: float) -> int:
    """2N for the start order N = max(x, nu) + 30 + 12 x^(1/3) of _profile_pair, nu = power / 2.

    N is rounded up to nu plus an integer.  Starting at N puts a relative
    error of about J_{N+1}(x) Y_nu(x) / (Y_{N+1}(x) J_nu(x)) on the order nu
    (Gautschi, SIAM Review 9, 1967); for nu <= x, Debye's expansion (DLMF
    10.19.6) puts it near exp(-(4 sqrt(2)/3) d^(3/2) / sqrt(x)) at N = x + d,
    below e^-78 from the 12 x^(1/3) alone (40-digit mpmath: 3e-45 at
    x = 2448).  The 30 keeps it small where x is small or nu > x.
    """
    return power + 2 * math.ceil(max(x - 0.5 * power, 0.0) + 30.0 + 12.0 * x ** (1.0 / 3.0))


def _profile_pair(power: int, x: float) -> tuple[float, float]:
    """(Lambda_nu(x), Lambda_{nu+1}(x)) for nu = power / 2 >= 0 and x >= 0, by Miller's algorithm.

    J_{k-1} = (2k/x) J_k - J_{k+1}, times x^(1-k), is Lambda_{k-1} =
    2k Lambda_k - x^2 Lambda_{k+1}; it runs down from the order _miller_top
    gives, and is normalized by J_0 + 2 sum_k J_{2k} = 1 for integer nu, or by
    the larger in size of Lambda_{1/2} = sqrt(2/pi) sin(x)/x and
    Lambda_{-1/2} = sqrt(2/pi) cos(x).  No power of x or gamma function is
    formed, so x = 0 needs no branch.  Rounding: each value lies within 5e-14
    of the envelope min(Lambda_nu(0), sqrt(2/(pi x)) / x^nu) for 2 nu <= 30 and
    x <= PHI_TAU_MAX; measured, 1.8e-14 from 40-digit mpmath, and a start 50
    orders higher moved it by at most 1.4e-14.
    """
    above, f = 0.0, 1.0
    even_sum = value = upper = 0.0  # even_sum = sum_{k >= 1} x^{2k} Lambda_{2k}, by Horner
    # x * (x * v): a rounded x^2 would shift every step alike, as if the recurrence
    # ran at sqrt(fl(x^2)), and cost up to x/2 ulps of the envelope
    for j in range(_miller_top(power, x), 0, -2):  # j = 2k, and f becomes Lambda_{k-1}
        above, f = f, j * f - x * (x * above)
        if j == power + 4:
            upper = f
        elif j == power + 2:
            value = f
        if j % 4 == 2 and j > 4:
            even_sum = x * (x * (f + even_sum))
        if abs(f) > 2.0 ** 830:  # a power of two: rescaling rounds nothing above the subnormals
            above, f, even_sum, value, upper = (v * 2.0 ** -830 for v in (above, f, even_sum, value, upper))
    if power % 2 == 0:
        scale = 1.0 / (f + 2.0 * even_sum)
    elif abs(math.sin(x)) >= abs(math.cos(x)):
        scale = math.sqrt(2.0 / math.pi) * math.sin(x) / x / above
    else:
        scale = math.sqrt(2.0 / math.pi) * math.cos(x) / f
    return value * scale, upper * scale


def _profile_power(nu: float) -> int:
    power = 2.0 * nu
    if not (0.0 <= power <= PROFILE_POWER_MAX and power == int(power)):
        raise DomainError(f"order {nu} is not a half-integer in [0, {PROFILE_POWER_MAX // 2}]")
    return int(power)


def bessel_profile(nu: float, x: float) -> float:
    """Lambda_nu(x) = J_nu(x) / x^nu, for half-integer 0 <= nu <= 15 and 0 <= x <= PHI_TAU_MAX.

    Phi_n = Lambda_{n/2} / (2 pi)^{n/2}.  Against scipy's jv(nu, x) / x^nu on
    (0, 60] it was within 1e-14 Lambda_nu(0).
    """
    power = _profile_power(nu)
    if not 0.0 <= x <= PHI_TAU_MAX:
        raise DomainError(f"x must lie in [0, {PHI_TAU_MAX:g}], got {x}")
    return _profile_pair(power, x)[0]


def _index_text(i) -> str:
    """repr(i), or the size of an int with more digits than Python converts to a string."""
    try:
        return repr(i)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"{'-' if i < 0 else ''}<{i.bit_length()}-bit integer>"


def _profile_zero(power: int, i: int, what: str) -> float:
    """The i-th positive zero of Lambda_{power/2}, up to PHI_ZERO_TAU_MAX, by Newton from McMahon's seed.

    The seed (DLMF 10.21.19, through (8 beta)^-5) lies within 0.42 of its zero
    on the served domain; a sign change across seed +- 1/2, narrower than half
    the gap of consecutive zeros (at least j_{0,2} - j_{0,1} = 3.12), confirms
    it.  Newton converges quadratically, so the iterate after its first step
    of at most ZERO_TOL sits at the profile's rounding floor; one _profile_pair
    gives each step Lambda_nu and Lambda_nu' = -x Lambda_{nu+1}.  Zeros grow
    with nu and j_{0,i} > (i - 1/4) pi, so an i past PHI_ZERO_TAU_MAX / pi + 1/4
    is refused at once; an int compares exactly with a float, however large.
    """
    if not isinstance(i, int) or i < 1:
        raise DomainError(f"zero index must be an integer >= 1, got {_index_text(i)}")
    if i > PHI_ZERO_TAU_MAX / math.pi + 0.25:
        raise DomainError(f"zero {_index_text(i)} of {what} lies beyond tau = {PHI_ZERO_TAU_MAX}")
    mu = float(power * power)  # 4 nu^2
    beta = (i + 0.25 * power - 0.25) * math.pi
    r = 1.0 / (8.0 * beta)
    seed = (beta - (mu - 1.0) * r - 4.0 / 3.0 * (mu - 1.0) * (7.0 * mu - 31.0) * r ** 3
            - 32.0 / 15.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) * r ** 5)
    lo, hi = seed - 0.5, seed + 0.5
    if (_profile_pair(power, lo)[0] < 0.0) == (_profile_pair(power, hi)[0] < 0.0):
        raise NumericError(f"no sign change of {what} across [{lo:g}, {hi:g}], around zero {i}")

    def value_and_deriv(x: float) -> tuple[float, float]:
        value, upper = _profile_pair(power, x)
        return value, -x * upper

    zero = _newton(value_and_deriv, seed, f"zero {i} of {what}", tol=ZERO_TOL)
    if not lo <= zero <= hi:
        raise NumericError(f"Newton left the bracket [{lo:g}, {hi:g}] of zero {i} of {what}")
    if zero > PHI_ZERO_TAU_MAX:
        raise DomainError(f"zero {i} of {what} lies beyond tau = {PHI_ZERO_TAU_MAX}")
    return zero


def bessel_zero(nu: float, i: int) -> float:
    """j_{nu,i} for half-integer 0 <= nu <= 15: each zero up to PHI_ZERO_TAU_MAX."""
    return _profile_zero(_profile_power(nu), i, f"J_{nu:g}")


# --------------------------------------------------------------------------
# J_nu by its power series below 12, Hankel's expansion beyond: Phi_n's second route


def _bessel_series(nu: float, x: float) -> float:
    """J_nu(x) / x^nu by its power series, regular at the origin."""
    q = 0.25 * x * x
    term = out = 1.0 / (2.0 ** nu * math.gamma(nu + 1.0))
    for k in range(1, 60):
        term *= -q / (k * (k + nu))
        out += term
        if abs(term) < 1e-18 * abs(out) + 1e-300:
            break
    return out


def _hankel(nu: float, x: float) -> float:
    # Asymptotic expansion J_nu(x) ~ sqrt(2/(pi x)) (P cos w - Q sin w),
    # truncated at the smallest term; adequate beyond x ~ 12.  At half-integer
    # nu the sum terminates and is exact.
    mu = 4.0 * nu * nu
    pq, a, last = [1.0, 0.0], 1.0, math.inf
    for k in range(1, 30):
        a *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        if abs(a) >= last:
            break
        last = abs(a)
        pq[k % 2] += -a if k % 4 >= 2 else a  # the terms enter P, Q, P, Q as +, +, -, -
    w = x - (0.5 * nu + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (pq[0] * math.cos(w) - pq[1] * math.sin(w))


def phi_kernel_bessel(n: int, tau: float) -> float:
    """Phi_n(tau) = J_{n/2}(tau) / (2 pi tau)^{n/2} for n in {2, 3}; the independent route."""
    if n not in (2, 3):
        raise DomainError(f"closed Bessel form only available for n in {{2, 3}}, got n={n}")
    nu = n / 2.0
    if tau < 12.0:
        return _bessel_series(nu, tau) / TWO_PI ** nu
    return _hankel(nu, tau) / (TWO_PI * tau) ** nu


def phi_kernel(n: int, tau: float) -> float:
    """Phi_n(tau) = Lambda_{n/2}(tau) / (2 pi)^{n/2}, checked against the Bessel form for n in {2, 3}.

    Phi_n(0) equals the diagonal Weyl constant; the zeros of Phi_n mark the
    rescaled distances where the off-diagonal leading term degenerates.
    The tests check it against mpmath for n = 2 to 5 and tau <= 2448, and at
    (225, 0).  Past n = 225, where |Phi_n| <= Phi_n(0) = c_n is below the
    smallest normal float, DomainError is raised; below, large n can still
    underflow at large tau: -0.0 at (170, 1000), subnormal at (150, 2448); ROADMAP item 23.
    """
    _check_weyl_dimension(n)
    if not tau >= 0.0:
        raise DomainError(f"tau must be >= 0, got {tau}")
    if tau > PHI_TAU_MAX:
        raise DomainError(f"tau = {tau:g} exceeds the largest supported tau, {PHI_TAU_MAX:g}")
    value = _profile_pair(n, tau)[0] / TWO_PI ** (0.5 * n)
    if n in (2, 3):
        other = phi_kernel_bessel(n, tau)
        if abs(value - other) > 1e-9:
            raise NumericError(
                f"Phi_{n}({tau}): recurrence {value!r} and Bessel {other!r} routes disagree"
            )
    return value


def phi_kernel_zero(n: int, i: int) -> float:
    """i-th positive zero of Phi_n, j_{n/2,i}, up to PHI_ZERO_TAU_MAX for 2 <= n <= PROFILE_POWER_MAX."""
    if not 2 <= n <= PROFILE_POWER_MAX:
        raise DomainError(f"zeros are served for 2 <= n <= {PROFILE_POWER_MAX}, got n={n}")
    return _profile_zero(n, i, f"Phi_{n}")


# --------------------------------------------------------------------------
# the sharp projector growth exponent


def epsilon_exponent(n: int, p: float) -> float:
    """max((n-1)/2 - n/p, (1/4 - 1/(2p))(n-1)) for p in [2, inf].

    The two branches cross at p = 2(n+1)/(n-1); math.inf is accepted and
    handled as a distinguished case rather than fed into arithmetic.
    """
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got {n}")
    if not p >= 2.0:
        raise DomainError(f"exponent requires p >= 2, got {p}")
    if math.isinf(p):
        return (n - 1.0) / 2.0
    return max((n - 1.0) / 2.0 - n / p, (0.25 - 0.5 / p) * (n - 1.0))
