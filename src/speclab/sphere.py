"""Exact spectral objects on the round sphere S^n.

Degree-m eigenspaces have eigenvalue m(m+n-1) and an addition kernel
proportional to a Gegenbauer polynomial of the cosine of geodesic distance,
normalized here so the diagonal equals multiplicity/area.  The module also
carries the two extremizing families: zonal harmonics (concentration at a
pole) and highest-weight harmonics (concentration along a great circle).
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .analytic import (
    QUAD_ORDER_MAX,
    gauss_legendre_rule,
    gegenbauer_at_one,
    gegenbauer_zeros,
    _first_zero_in_s,
    _pairs_at_angle,
    _pairs_in_s,
    _zero_from_pole,
    sphere_area,
)
from .errors import DomainError, NumericError, ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ZonalFamily",
    "eigenvalue",
    "multiplicity",
    "max_degree",
    "band_degrees",
    "addition_kernel",
    "spectral_function_sphere",
    "band_kernel_sphere",
    "zonal_norm",
    "zonal_norms",
    "zonal_gradient_sup",
    "hw_norm",
    "hw_norm_quad",
    "nodal_gap_zonal",
    "nadirashvili_ratio",
    "sobolev_scale",
]


def _check_dim(n: int) -> None:
    if n < 2:
        raise DomainError(f"sphere dimension must be >= 2, got {n}")


def _check_degree(n: int, m: int) -> None:
    _check_dim(n)
    if m < 0:
        raise DomainError(f"degree must be >= 0, got {m}")


def multiplicity(n: int, m: int) -> int:
    """dim of the degree-m eigenspace, (2m+n-1)(m+n-2)! / (m!(n-1)!), exact."""
    _check_degree(n, m)
    num = (2 * m + n - 1) * math.comb(m + n - 2, n - 2)
    if num % (n - 1):
        raise ArithmeticError("multiplicity formula did not divide exactly")
    return num // (n - 1)


def eigenvalue(n: int, m: int) -> float:
    """sqrt(m(m+n-1)): the degree-m eigenvalue of S^n as a frequency."""
    _check_degree(n, m)
    return math.sqrt(m * (m + n - 1))


def max_degree(n: int, lam: float) -> int:
    """Largest degree m whose float eigenvalue(n, m) is <= lam, exact at every lam.

    eigenvalue rounds the integer m(m+n-1) to a float y, then sqrt(y), both
    monotonically; sqrt(y) rounds to at most lam iff y < h^2, h the midpoint
    of lam and the next float up (never a float's square root).
    """
    _check_dim(n)
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"lambda must be finite and >= 0, got {lam}")
    a, b = lam.as_integer_ratio()
    c, d = math.ulp(lam).as_integer_ratio()
    num, den = (2 * a * d + c * b) ** 2, (2 * b * d) ** 2  # h^2 = num/den
    # y: the largest float below h^2
    y = num / den if num < den * int(sys.float_info.max) else sys.float_info.max
    p, q = y.as_integer_ratio()
    if p * den >= num * q:
        y = math.nextafter(y, 0.0)
    # bound: the largest integer that rounds to y or below
    if y < 2.0**53:
        bound = math.floor(y)
    else:
        # the integers up to the midpoint to the next float round to y, the
        # midpoint itself only when y's last bit is even
        ulp = int(math.ulp(y))
        bound = int(y) + ulp // 2 - (int(y) // ulp) % 2
    # m(m+n-1) <= bound  iff  (2m+n-1)^2 <= (n-1)^2 + 4 bound
    return (math.isqrt((n - 1) ** 2 + 4 * bound) - (n - 1)) // 2


def band_degrees(n: int, lam: float) -> range:
    """Degrees whose eigenvalues fall in the half-open band (lam, lam+1]."""
    return range(max_degree(n, lam) + 1, max_degree(n, lam + 1.0) + 1)


# --------------------------------------------------------------------------
# addition kernel and projector sums


def addition_kernel(n: int, m: int, theta: float) -> float:
    """Degree-m reproducing kernel at geodesic distance theta.

    Normalized so the diagonal value (theta = 0) is multiplicity/area;
    for n = 2 this is (2m+1)/(4 pi) P_m(cos theta).
    """
    nu = (n - 1) / 2.0
    d = multiplicity(n, m)
    ((val, _),) = _pairs_at_angle(nu, theta, (m,))
    return d / sphere_area(n) * val / gegenbauer_at_one(m, nu)


def spectral_function_sphere(n: int, theta: float, lam: float) -> float:
    """e(x, y, lambda) on S^n with dist(x, y) = theta, in closed form.

    d_k / C_k^nu(1) = (k + nu)/nu and (k + nu)/nu C_k^nu = C_k^{nu+1} - C_{k-2}^{nu+1}
    (DLMF 18.9), so the sum over degrees 0..m, times the area of S^n, telescopes to
    C_m^{nu+1}(t) + C_{m-1}^{nu+1}(t).  At theta = 0 on S^2 it runs in exact integers.
    """
    ((c, c_prev),) = _pairs_at_angle((n + 1) / 2.0, theta, (max_degree(n, lam),))
    return (c + c_prev) / sphere_area(n)


def band_kernel_sphere(n: int, theta: float, lam: float) -> float:
    """Kernel of the unit-band projection: the addition kernels of the one or two degrees in (lam, lam+1].

    d_m / C_m^nu(1) = (2m + n - 1)/(n - 1), so at theta = 0 each term is the exact
    multiplicity.  One recurrence passes both degrees; no lambda^n-sized partial sums
    cancel.
    """
    degs = band_degrees(n, lam)
    terms = _pairs_at_angle((n - 1) / 2.0, theta, degs)
    return sum((2 * m + n - 1) * c / (n - 1) for m, (c, _) in zip(degs, terms)) / sphere_area(n)


# --------------------------------------------------------------------------
# zonal family


class ZonalFamily(NamedTuple):
    """L_2-normalized zonal harmonic of degree m about the north pole."""

    n: int
    m: int
    scale: float  # value at the pole, sqrt(multiplicity/area)

    @classmethod
    def create(cls, n: int, m: int) -> "ZonalFamily":
        # multiplicity checks n and m; the quotient turns its exact int into a float
        try:
            scale = math.sqrt(multiplicity(n, m) / sphere_area(n))
        except OverflowError:
            scale = math.inf
        if scale == math.inf:
            raise ResourceLimitError(
                f"the zonal harmonic of degree {m} on S^{n} has pole value sqrt(multiplicity/area) "
                f"past the float limit {sys.float_info.max:.6g}"
            )
        return cls(n=n, m=m, scale=scale)

    @property
    def nu(self) -> float:
        return (self.n - 1) / 2.0

    def at(self, theta):
        """The profile at colatitude theta in [0, pi]: a float at a number, elementwise over an array."""
        ((val, _),) = _pairs_at_angle(self.nu, theta, (self.m,))
        return self.scale * val / gegenbauer_at_one(self.m, self.nu)


def _zonal_quad_order(n: int, m: int, r: float) -> int:
    needed = int(math.ceil(m * max(r, 2.0) / 2.0)) + 1
    if needed > QUAD_ORDER_MAX:
        raise ResourceLimitError(
            f"zonal L_{r} norm at degree {m} needs a quadrature order beyond {QUAD_ORDER_MAX}"
        )
    return needed


def _exact_zonal_integrals(degrees: list[int], r: float, order: int) -> dict[int, float]:
    """Int_{-1}^{1} |Z_m(t)|^r dt on S^2 for each m, from one Gauss-Legendre rule.

    |Z_m|^r is a polynomial of degree m r for even r, so `order` = max m r/2 + 1
    nodes are exact for every degree at once; one Legendre recurrence at the rule's
    angles (|P_m| is even) passes each requested degree on the way.
    """
    rule = gauss_legendre_rule(order)
    out = {}
    ms = sorted(set(degrees))
    for m, (c, _) in zip(ms, _pairs_at_angle(0.5, rule.angles, ms)):
        profile = ZonalFamily.create(2, m).scale * abs(c) / gegenbauer_at_one(m, 0.5)
        out[m] = rule.integrate(profile**r)
    return out


# Gauss-Legendre nodes per nodal piece; the cubic map u -> 3u^2 - 2u^3 turns
# the |Z|^r ~ dist^r behaviour at the zeros bounding a piece into u^(2r+1)
_PIECE_NODES = 24


def _piecewise_zonal_integral(fam: ZonalFamily, r: float) -> float:
    """Int_0^pi |Z_m(theta)|^r sin^(n-1)(theta) dtheta, one small rule per nodal piece.

    Between consecutive zeros of Z_m the integrand is smooth, so a fixed rule
    per piece converges fast for every r; the reference test pins it against
    adaptive quadrature to 1e-10 relative.
    """
    import numpy as np
    edges = np.concatenate(([0.0], gegenbauer_zeros(fam.m, fam.nu) if fam.m else [], [math.pi]))
    rule = gauss_legendre_rule(_PIECE_NODES)
    u = 0.5 * (rule.nodes + 1.0)
    width = np.diff(edges)[:, None]
    theta = (edges[:-1, None] + width * (u * u * (3.0 - 2.0 * u))).ravel()
    w = (width * (3.0 * u * (1.0 - u) * rule.weights)).ravel()
    profile = np.abs(fam.at(theta))
    return float(np.sum(w * profile**r * np.sin(theta) ** (fam.n - 1)))


def zonal_norms(n: int, degrees, r: float) -> list[float]:
    """L_r norms of the zonal family members of the given degrees (L_2 norm 1 each).

    r = math.inf returns the pole values, which are the global maxima.  For
    n = 2 and even integer r, one Gauss-Legendre rule in cos(theta) at the
    exact order for the largest degree serves every degree.  Otherwise each
    degree integrates in theta over the pieces between consecutive zeros.
    """
    fams = [ZonalFamily.create(n, m) for m in degrees]
    if not r >= 2.0:
        raise DomainError(f"norm exponent must satisfy r >= 2, got {r}")
    if math.isinf(r):
        return [fam.scale for fam in fams]
    if n not in (2, 3):
        raise DomainError("zonal norms are implemented for n in {2, 3}")
    if not fams:
        return []
    # the resource cap applies to both routes, whatever size of rule each builds
    order = max(_zonal_quad_order(n, fam.m, r) for fam in fams)
    if n == 2 and r % 2.0 == 0.0:  # even integer r
        integrals = _exact_zonal_integrals([fam.m for fam in fams], r, order)
        values = [integrals[fam.m] for fam in fams]
    else:
        values = [_piecewise_zonal_integral(fam, r) for fam in fams]
    return [float((sphere_area(n - 1) * v) ** (1.0 / r)) for v in values]


def zonal_norm(n: int, m: int, r: float) -> float:
    """L_r norm of one zonal family member; see zonal_norms."""
    return zonal_norms(n, [m], r)[0]


def zonal_gradient_sup(n: int, m: int) -> float:
    """sup over theta of |d/dtheta Z_m|, at the first inflection point from the pole.

    By the zonal equation Z'' + (n-1) cot(theta) Z' + lambda^2 Z = 0, Z'' = 0
    exactly where g(t) = lambda^2 C_m(t) - (n-1) t C_m'(t) vanishes.  g has m
    real zeros in (-1, 1), one at each relative maximum of |Z'|.  The sup is
    taken at the first of these from the pole, by Newton in s = 1 - t from
    s = 0 to a step of 1e-12 s: near the zero g cancels to about 1e-15 of its
    terms (a 1e-13 stop met a rounding step back at n = 150), and |Z'| is
    stationary there.  That this maximum is the highest is checked, not proved:
    the tests hold it against a 200 m-point scan for n up to 150.  The zero
    must lie between the pole and the first zero of Z_m; otherwise NumericError.
    """
    if m < 1:
        raise DomainError("gradient sup requires degree >= 1")
    fam = ZonalFamily.create(n, m)
    nu, lam_sq = fam.nu, float(m * (m + n - 1))

    def slopes(s: float) -> tuple[float, float]:  # C_m', C_m'' by d/dt C_k^a = 2 a C_{k-1}^{a+1}
        ((d1, _),) = _pairs_in_s(nu + 1.0, s, (m - 1,))
        ((_, d2),) = _pairs_in_s(nu + 2.0, s, (m - 1,))  # C_{m-2}^{nu+2}, and C_{-1} = 0 at m = 1
        return 2.0 * nu * d1, 2.0 * nu * 2.0 * (nu + 1.0) * d2

    def g(s: float) -> tuple[float, float]:  # dg/ds = -dg/dt
        ((c, _),) = _pairs_in_s(nu, s, (m,))
        (d1, d2), t = slopes(s), 1.0 - s
        return lam_sq * c - (n - 1) * t * d1, (n - 1) * t * d2 - (lam_sq - (n - 1)) * d1

    s = _zero_from_pole(g, f"Z_{m}'' on S^{n}", tol=1e-12)
    first_zero = _first_zero_in_s(m, nu)
    if not 0.0 < s <= first_zero:
        raise NumericError(
            f"inflection point s = {s!r} of Z_{m} on S^{n} lies outside (0, {first_zero!r}]"
        )
    # |d/dtheta Z| = scale sin(theta) |C_m'(t)| / C_m(1), with sin^2(theta) = s (2 - s)
    return fam.scale * math.sqrt(s * (2.0 - s)) * abs(slopes(s)[0]) / gegenbauer_at_one(m, nu)


# --------------------------------------------------------------------------
# highest-weight family: the degree-m harmonic Q_m with |Q_m| = sin^m(psi) up
# to scale, psi the colatitude from the two-plane carrying the concentration
# great circle


# from a = (m r + 2)/2 = 1e4 on, _hw_log_norm takes lgamma(a + h) - lgamma(a) from
# its series: each lgamma value is about a log a and carries its rounding into
# the difference (hw_norm off by 1e-11 relative at m = 10^4, r = 4; 5e-2 at 10^13)
_HW_SERIES_FROM = 1e4


def _hw_log_norm(n: int, m: int, r: float) -> float:
    """log of the unnormalized L_r norm of Q_m, a Beta function of the exponent m r."""
    a, h = (m * r + 2.0) / 2.0, (n - 1.0) / 2.0
    if a < _HW_SERIES_FROM:
        lbeta = math.lgamma(a) + math.lgamma(h) - math.lgamma((m * r + n + 1.0) / 2.0)
    else:
        # lgamma(a + h) - lgamma(a) to O(a^-4), from the Bernoulli polynomials B_2..B_4 at h;
        # a = r (m/2 + 1/r), and neither m r nor a^3 is formed, so every finite r stays finite
        base = m / 2.0 + 1.0 / r
        inv_a = 1.0 / r / base
        rise = (
            h * (math.log(r) + math.log(base))
            + (h * h - h) / 2.0 * inv_a
            - (h**3 - 1.5 * h * h + 0.5 * h) / 6.0 * inv_a * inv_a
            + (h**4 - 2.0 * h**3 + h * h) / 12.0 * inv_a**3
        )
        lbeta = math.lgamma(h) - rise
    const = math.log(2.0 * math.pi * sphere_area(n - 2) * 0.5)
    return (const + lbeta) / r


def _check_hw_args(n: int, m: int, r: float) -> None:
    _check_dim(n)
    if m < 1:
        raise DomainError(f"degree must be >= 1, got {m}")
    if not 2.0 <= r < math.inf:
        raise DomainError(f"highest-weight norms require finite r >= 2, got {r}")


def hw_norm(n: int, m: int, r: float) -> float:
    """||Q_m||_r / ||Q_m||_2 via the closed Beta/Gamma form, in log space."""
    _check_hw_args(n, m, r)
    return math.exp(_hw_log_norm(n, m, r) - _hw_log_norm(n, m, 2.0))


def hw_norm_quad(n: int, m: int, r: float) -> float:
    """Quadrature route for the highest-weight norm ratio (cross-check).

    Integrates sin^{mr+1}(psi) cos^{n-2}(psi) on [0, pi/2] through t = cos(psi),
    where the integrand is a polynomial whenever m r is even.
    """
    _check_hw_args(n, m, r)

    def log_norm(rr: float) -> float:
        order = int(math.ceil(m * rr / 2.0)) + 24
        if order > QUAD_ORDER_MAX:
            raise ResourceLimitError("highest-weight quadrature order exceeds the cap")
        rule = gauss_legendre_rule(order)
        t, w = rule.mapped(0.0, 1.0)
        integral = float((w * (1.0 - t * t) ** (m * rr / 2.0) * t ** (n - 2)).sum())
        return (math.log(2.0 * math.pi * sphere_area(n - 2)) + math.log(integral)) / rr

    return math.exp(log_norm(r) - log_norm(2.0))


# --------------------------------------------------------------------------
# nodal geometry of the zonal family


def _angle(s: float) -> float:
    """theta in [0, pi/2] from s = 1 - cos(theta) = 2 sin^2(theta/2) in [0, 1], with no cosine rounded."""
    return 2.0 * math.asin(math.sqrt(0.5 * s))


def nodal_gap_zonal(n: int, m: int) -> float:
    """theta_1, the colatitude of the first zero of Z_m: the polar nodal domain is the cap it bounds.

    The pole is the concentration point, so theta_1 is simultaneously the
    nodal distance from the concentrating set and the cap's inner radius.
    """
    return _angle(_first_zero_in_s(m, (n - 1) / 2.0))


def nadirashvili_ratio(n: int, m: int) -> float:
    """max Z_m / |min Z_m| over the sphere, from the pole value and the deepest trough.

    The maximum is the pole value.  The relative maxima of |C_m^nu(cos theta)|
    fall from the pole to the equator (Sonine; Szego, Thm 7.33.1), so the
    minimum is either Z_m(pi) or the first trough from the pole.  That trough
    sits at the largest zero of C_m' = 2 nu C_{m-1}^{nu+1}.
    """
    if m < 1:
        raise DomainError("ratio requires degree >= 1")
    fam = ZonalFamily.create(n, m)
    troughs = [fam.at(math.pi)]
    if m >= 2:
        troughs.append(fam.at(_angle(_first_zero_in_s(m - 1, fam.nu + 1.0))))
    return float(fam.at(0.0) / -min(troughs))


def sobolev_scale(lambda_j: float, s: float) -> float:
    """(1 + lambda^2)^{s/2}: the exact fractional-Sobolev multiplier on an eigenline."""
    if not s >= 0.0:
        raise DomainError(f"Sobolev order must be >= 0, got {s}")
    return (1.0 + lambda_j * lambda_j) ** (s / 2.0)
