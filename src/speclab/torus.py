"""Exact spectral sums on the flat torus T^n = R^n/(2 pi Z)^n.

The orthonormal eigenbasis is (2 pi)^{-n/2} e^{i<k,x>} with eigenvalue |k|^2,
so every spectral quantity reduces to a finite lattice sum over integer
vectors.  A sum that depends on k only through |k|^2 runs over the lattice
shells |k|^2 = j, weighted by their multiplicities r_n(j).  The sums are
evaluated with numpy in a fixed order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError

__all__ = [
    "LatticeEnumeration",
    "Displacement",
    "SmoothingWindow",
    "default_direction",
    "enumeration_limit",
    "enumerate_lattice",
    "eigenvalue_count",
    "spectral_function_torus",
    "derivative_diagonal_sum",
    "band_diagonal_sum",
    "smoothed_diagonal_sum",
]

TWO_PI = 2.0 * math.pi

_RADIUS_LIMIT = {2: 1500.0, 3: 200.0}


def enumeration_limit(n: int) -> float:
    """Largest supported enumeration radius for dimension n."""
    try:
        return _RADIUS_LIMIT[n]
    except KeyError:
        raise DomainError(f"torus dimension must be 2 or 3, got {n}") from None


def default_direction(n: int) -> np.ndarray:
    """Generic unit direction used for off-diagonal probes.

    Axis-aligned directions maximize lattice resonance in the remainder, so
    the defaults are deliberately irrational with respect to the lattice.
    """
    s, c = math.sin(1.0), math.cos(1.0)
    if n == 2:
        return np.array([c, s])
    if n == 3:
        return np.array([c * s, s * s, c])
    raise DomainError(f"torus dimension must be 2 or 3, got {n}")


def norm_sq_bound(radius: float):
    """Comparison bound for |k|^2 <= radius^2, integer-exact when possible."""
    r2 = radius * radius
    if r2 <= 2 ** 53 and float(r2).is_integer():
        return int(r2)
    return r2


@dataclass(frozen=True)
class LatticeEnumeration:
    """All integer vectors k with |k| <= radius, lexicographically sorted."""

    n: int
    radius: float
    points: np.ndarray  # (count, n) int32

    def __post_init__(self) -> None:
        self.points.setflags(write=False)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @functools.cached_property
    def _norms_sq(self) -> np.ndarray:
        pts = self.points.astype(np.int64)
        out = pts[:, 0] * pts[:, 0]
        for j in range(1, self.n):
            out = out + pts[:, j] * pts[:, j]
        out.setflags(write=False)
        return out

    @functools.cached_property
    def _shells(self) -> tuple[np.ndarray, np.ndarray]:
        counts = np.bincount(self._norms_sq)
        values = np.flatnonzero(counts)
        mult = counts[values]
        values.setflags(write=False)
        mult.setflags(write=False)
        return values, mult

    def norms_sq(self) -> np.ndarray:
        return self._norms_sq

    def shells(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending distinct |k|^2 values and the number of points on each."""
        return self._shells


@dataclass(frozen=True)
class Displacement:
    """A torus displacement x - y with components reduced to (-pi, pi]."""

    u: np.ndarray

    def __post_init__(self) -> None:
        self.u.setflags(write=False)
        if np.any(np.abs(self.u) > math.pi):
            raise DomainError("displacement components must lie in (-pi, pi]")

    @classmethod
    def from_vector(cls, values) -> "Displacement":
        u = np.asarray(values, dtype=float).copy()
        for j, v in enumerate(u):
            r = math.remainder(v, TWO_PI)
            if r <= -math.pi:
                r += TWO_PI
            u[j] = r
        return cls(u=u)

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def norm(self) -> float:
        return float(math.sqrt(np.sum(self.u * self.u)))


@dataclass(frozen=True)
class SmoothingWindow:
    """Non-negative weight with compactly supported Fourier transform.

    The sinc^4 shape rho(s) = (sin(eps s/4)/(eps s/4))^4 has Fourier support
    in [-eps, eps] by construction and stays >= 1/4 on |s| <= 1 for every
    eps <= 5.5, so it dominates a quarter of the unit band indicator.
    """

    shape: str = "sinc4"
    eps: float = 4.0

    def __post_init__(self) -> None:
        if self.shape != "sinc4":
            raise DomainError(f"unknown window shape {self.shape!r}")
        if not self.eps > 0.0:
            raise DomainError("window eps must be positive")

    def value(self, s):
        # np.sinc(x) = sin(pi x)/(pi x), so rescale the argument
        return np.sinc(np.asarray(s, dtype=float) * (self.eps / (4.0 * math.pi))) ** 4

    @property
    def truncation_radius(self) -> float:
        """T with rho(T) <= 1e-12: the sinc envelope gives (4/(eps T))^4.

        This bounds the weight at T, not the sum over the lattice beyond it.
        In n = 2 there are about 2 pi |k| points per unit of |k|, so the tail a
        smoothed sum at lambda omits is at most about
        (4/eps)^4 (1/(2 T^2) + lambda/(3 T^3)) / (2 pi): 8e-8 to 1e-7 at
        eps 4 (T = 1000) for lambda <= 300.
        """
        return 4.0e3 / self.eps


# --------------------------------------------------------------------------
# enumeration


def _enumerate_points(n: int, radius: float) -> np.ndarray:
    # both branches emit rows in lexicographic order: ascending a, then b
    # (then c), so no final sort is needed
    bound = norm_sq_bound(radius)
    top = int(math.floor(radius))
    k1 = np.arange(-top, top + 1, dtype=np.int64)
    if n == 2:
        rows = []
        for a in k1:
            rem = bound - int(a * a)
            if rem < 0:
                continue
            b_top = math.isqrt(int(rem))
            bs = np.arange(-b_top, b_top + 1, dtype=np.int64)
            rows.append(np.stack([np.full_like(bs, a), bs], axis=1))
        pts = np.concatenate(rows, axis=0)
    elif n == 3:
        rows = []
        grid_b, grid_c = np.meshgrid(k1, k1, indexing="ij")
        bc_sq = grid_b * grid_b + grid_c * grid_c
        for a in k1:
            mask = bc_sq + a * a <= bound
            b, c = grid_b[mask], grid_c[mask]
            rows.append(np.stack([np.full_like(b, a), b, c], axis=1))
        pts = np.concatenate(rows, axis=0)
    else:
        raise DomainError(f"torus dimension must be 2 or 3, got {n}")
    return np.ascontiguousarray(pts.astype(np.int32))


def enumerate_lattice(n: int, radius: float) -> LatticeEnumeration:
    """Enumerate {k in Z^n : |k| <= radius} in memory, in lexicographic order.

    Each call builds the points afresh; a caller that evaluates several sums
    at radii up to R builds one enumeration of radius R and passes it to each.
    """
    limit = enumeration_limit(n)
    if radius < 0.0:
        raise DomainError(f"radius must be >= 0, got {radius}")
    if radius > limit:
        raise ResourceLimitError(
            f"radius {radius:g} exceeds the n={n} enumeration limit of {limit:g}"
        )
    return LatticeEnumeration(n=n, radius=radius, points=_enumerate_points(n, radius))


def eigenvalue_count(n: int, lam: float) -> int:
    """N(lambda): number of eigenvalues (with multiplicity) at most lambda^2."""
    return enumerate_lattice(n, lam).count


# --------------------------------------------------------------------------
# spectral sums; each accepts a pre-built enumeration covering its radius


def _covering(enum: LatticeEnumeration | None, n: int, radius: float) -> LatticeEnumeration:
    if enum is None:
        return enumerate_lattice(n, radius)
    if enum.n != n or enum.radius < radius:
        raise DomainError("supplied enumeration does not cover the requested radius")
    return enum


def _points_within(enum: LatticeEnumeration | None, n: int, radius: float) -> np.ndarray:
    cover = _covering(enum, n, radius)
    mask = cover.norms_sq() <= norm_sq_bound(radius)
    return cover.points[mask]


def spectral_function_torus(
    n: int, u: Displacement, lam: float, enum: LatticeEnumeration | None = None
) -> float:
    """e(x, y, lambda) on T^n as a cosine lattice sum, with x - y = u."""
    if u.n != n:
        raise DomainError("displacement length must equal the dimension")
    pts = _points_within(enum, n, lam)
    dots = pts[:, 0] * float(u.u[0])
    for j in range(1, n):
        dots = dots + pts[:, j] * float(u.u[j])
    return float(np.sum(np.cos(dots))) / TWO_PI ** n


def derivative_diagonal_sum(
    n: int,
    alpha,
    beta,
    lam: float,
    enum: LatticeEnumeration | None = None,
) -> float:
    """Diagonal sum of the (alpha, beta)-derivatives of the eigenbasis.

    On the torus this is a pure lattice moment: parity-mismatched pairs cancel
    under k -> -k, so they return an exact 0.0 without floating summation.
    """
    if len(alpha) != n or len(beta) != n:
        raise DomainError("multi-index lengths must equal the dimension")
    if alpha.order + beta.order > 6:
        raise DomainError("total derivative order is capped at 6")
    if not alpha.same_parity(beta):
        return 0.0
    gam = alpha + beta
    pts = _points_within(enum, n, lam).astype(np.float64)
    moment = np.ones(pts.shape[0])
    for j, g in enumerate(gam.entries):
        if g:
            moment = moment * pts[:, j] ** g
    half_gap = abs(alpha.order - beta.order) // 2
    sign = -1.0 if half_gap % 2 else 1.0
    return sign * float(np.sum(moment)) / TWO_PI ** n


def band_diagonal_sum(n: int, lam: float, enum: LatticeEnumeration | None = None) -> float:
    """Diagonal sum over the half-open eigenvalue band (lambda, lambda+1]."""
    if lam < 0.0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    inner = _points_within(enum, n, lam).shape[0]
    outer = _points_within(enum, n, lam + 1.0).shape[0]
    return (outer - inner) / TWO_PI ** n


def smoothed_diagonal_sum(
    n: int,
    lam: float,
    window: SmoothingWindow | None = None,
    enum: LatticeEnumeration | None = None,
) -> float:
    """Window-weighted diagonal sum sum_k rho(lambda - |k|) / (2 pi)^n.

    The weight depends on k only through |k|^2, so the sum runs over the
    lattice shells with |k| <= lambda + T (T = window.truncation_radius),
    each weighted by its multiplicity.  The cut drops weights below 1e-12,
    but the omitted tail is larger (see SmoothingWindow.truncation_radius):
    at eps 4 in n = 2, the shells in (lambda + T, 1500] alone add 1.2e-8 to
    1.7e-8 for lambda in [0, 300].
    """
    if lam < 0.0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    if window is None:
        window = SmoothingWindow()
    radius = lam + window.truncation_radius
    if radius > enumeration_limit(n):
        raise ResourceLimitError(
            f"truncation radius {radius:g} exceeds the n={n} enumeration limit "
            f"of {enumeration_limit(n):g}; increase the window eps"
        )
    values, mult = _covering(enum, n, radius).shells()
    top = int(np.searchsorted(values, norm_sq_bound(radius), side="right"))
    weights = window.value(lam - np.sqrt(values[:top].astype(np.float64)))
    return float(np.sum(mult[:top] * weights)) / TWO_PI ** n
