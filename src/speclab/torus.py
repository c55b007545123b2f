"""Exact spectral sums on the flat torus T^n = R^n/(2 pi Z)^n.

The orthonormal eigenbasis is (2 pi)^{-n/2} e^{i<k,x>} with eigenvalue |k|^2,
so every spectral quantity reduces to a finite lattice sum over integer
vectors.  No sum stores those vectors.  The ball |k| <= R is a set of rows
{(p, c) : |c| <= w(p)} along the last axis, where p is every coordinate but
the last, and each row's sum over c has a closed form: the Dirichlet kernel
for the spectral function, a power sum for the derivative sums and 2w + 1 for
counts.  A sum that depends on k only through |k|^2 runs over the lattice
shells |k|^2 = j, weighted by their multiplicities r_n(j).

One walker, _row_sum, serves every row sum.  Each term is even in each entry
of p, so it takes the rows with p >= 0 in every entry and restores the rest:
counts, band sums and derivative sums are exact sums of Python ints, and the
cosine sums of the spectral function run in Python floats, each level exactly
rounded by math.fsum.  On the diagonal every term of a cosine sum is an
integer-valued float, so the sum is exactly the count N(lambda).  numpy
serves only where arrays pay: the shell tables of the smoothed sums and their
window.  It is imported by the functions that use it, at their first call.
Every sum is either exact, exactly rounded or run in a fixed order, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SmoothingWindow",
    "default_direction",
    "unit_direction",
    "check_radius",
    "eigenvalue_count",
    "spectral_function_torus",
    "band_kernel_torus",
    "derivative_diagonal_sum",
    "band_diagonal_sum",
    "LatticeShells",
    "lattice_shells",
    "smoothed_diagonal_sum",
]

TWO_PI = 2.0 * math.pi

# largest supported radius, for n = 2 and 3 alike; it bounds the work of one
# sum, not of a run
_RADIUS_CAP = 1500

# largest window eps: at |s| <= 1500 + T, for n = 2 and 3 alike, the window
# forms y = eps s/4 of at most 1500 eps/4 + 1000 < 4e307, so y stays finite
_EPS_MAX = 1e305


def check_radius(n: int, radius: float) -> None:
    """Refuse a sum over |k| <= radius unless n is 2 or 3 and radius is within the cap.

    One cap serves both dimensions.  A probe calls this once with the largest
    radius its grid needs, so a run past the cap exits before any sum starts.
    """
    if n not in (2, 3):
        raise DomainError(f"torus dimension must be 2 or 3, got {n}")
    if not radius >= 0.0:
        raise DomainError(f"radius must be >= 0, got {radius}")
    if radius > _RADIUS_CAP:
        raise ResourceLimitError(f"radius {radius:g} exceeds the radius cap of {_RADIUS_CAP}")


def default_direction(n: int) -> tuple[float, ...]:
    """Generic unit direction used for off-diagonal probes.

    Axis-aligned directions maximize lattice resonance in the remainder, so
    the defaults are deliberately irrational with respect to the lattice.
    """
    s, c = math.sin(1.0), math.cos(1.0)
    if n == 2:
        return (c, s)
    if n == 3:
        return (c * s, s * s, c)
    raise DomainError(f"torus dimension must be 2 or 3, got {n}")


def unit_direction(n: int, direction=None) -> tuple[float, ...]:
    """`direction` scaled to unit length, or default_direction(n) when it is None.

    The squared length is summed left to right.
    A subnormal one has lost bits, so d/|d| would not have unit length.
    """
    if direction is None:
        return default_direction(n)
    d = [float(v) for v in direction]
    if len(d) != n:
        raise DomainError(f"direction must have length {n}")
    norm_sq = 0.0
    for v in d:
        norm_sq += v * v
    if not 0.0 < norm_sq < math.inf:
        # an all-zero direction, or a squared length that under- or overflows
        raise DomainError(f"direction must have a positive finite squared length, got {norm_sq!r}")
    if norm_sq < sys.float_info.min:
        raise DomainError(
            f"direction squared length {norm_sq!r} is below the smallest normal float "
            f"{sys.float_info.min!r}: scale the direction up"
        )
    norm = math.sqrt(norm_sq)
    return tuple(v / norm for v in d)


def norm_sq_bound(radius: float) -> int:
    """floor(radius^2): every |k|^2 is an integer, so |k| <= radius iff |k|^2 <= this."""
    return math.floor(radius * radius)


class SmoothingWindow(NamedTuple("SmoothingWindow", [("eps", float)])):
    """Non-negative weight with compactly supported Fourier transform.

    The sinc^4 shape rho(s) = (sin(eps s/4)/(eps s/4))^4 has Fourier support
    in [-eps, eps] by construction and stays >= 1/4 on |s| <= 1 for every
    eps <= 5.5, so it dominates a quarter of the unit band indicator.  eps is
    at most 1e305, which keeps eps s/4 finite over every shell a sum reads.
    """

    __slots__ = ()

    def __new__(cls, eps: float = 4.0) -> "SmoothingWindow":
        if not 0.0 < eps <= _EPS_MAX:
            raise DomainError(f"window eps must lie in (0, {_EPS_MAX:g}], got {eps}")
        return super().__new__(cls, eps)

    def value(self, s):
        """rho(s) elementwise: a fresh array, or a numpy scalar for scalar input.

        Bit-equal to np.square(np.square(np.sinc(s eps/(4 pi)))): y = eps s/4
        is formed as pi (s eps/(4 pi)), the argument np.sinc forms (rounding y
        once less would move rho by up to 1e-6 relative next to a zero of
        sin(y)), then sin(y)/y with an exact 1.0 where y == 0 and two squarings.
        The pass runs in place after the first product, so it allocates no
        temporaries: 5.4-6.2 ms a call against 6.6-7.7 ms for the np.sinc route
        at the 358,048 shells of lattice_shells(2, 1300) (quartiles, 2 cores).
        """
        import numpy as np
        y = np.atleast_1d(np.multiply(s, self.eps / (4.0 * math.pi), dtype=np.float64))
        y *= math.pi
        out = np.sin(y)
        zero = y == 0.0
        out[zero] = 1.0  # the limit of sin(y)/y; dividing by 1 below keeps it
        y[zero] = 1.0
        out /= y
        out *= out
        out *= out
        return out if np.ndim(s) else out[0]

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
# the ball as rows along the last axis


def _folded(terms: list[int]) -> int:
    """t_0 + 2 (t_1 + ... + t_top): the sum over p = -top..top of an even t_p, from p >= 0."""
    return 2 * sum(terms) - terms[0]


def _mirrored(terms: list[float]) -> float:
    """The same sum of floats, exactly rounded: math.fsum of t_0, t_1, t_1, ..., t_top, t_top.

    math.fsum rounds the exact sum of its terms once, whatever their order.
    """
    return math.fsum(terms + terms[1:])


def _row_sum(bound: int, weights: list[list], leaf: list, total) -> int | float:
    """sum over |k|^2 <= bound of weights[0][|k_1|] ... weights[-1][|k_{n-1}|] leaf[w].

    k = (p, c) with p every coordinate but the last and w = isqrt(bound - |p|^2)
    the half-width of row p; leaf[w] is the row's closed-form sum over c.
    Every term is even in each entry of p, so each level takes the entries
    a >= 0 and recurses on bound - a^2, and total (_folded for exact ints,
    _mirrored for floats) restores the entries a < 0.  weights[i] and leaf
    run over 0..isqrt(bound).  In floats each level is exactly rounded, so
    its error is half an ulp of its total plus the errors of its terms: the
    rounded products and, below the last level, the totals they multiply.
    """
    first, *rest = weights
    rows = range(math.isqrt(bound) + 1)
    if rest:
        return total([first[a] * _row_sum(bound - a * a, rest, leaf, total) for a in rows])
    return total([first[a] * leaf[math.isqrt(bound - a * a)] for a in rows])


def eigenvalue_count(n: int, lam: float) -> int:
    """N(lambda): number of eigenvalues (with multiplicity) at most lambda^2.

    Row p holds the 2 w + 1 points |c| <= w.
    """
    check_radius(n, lam)
    bound = norm_sq_bound(lam)
    top = math.isqrt(bound)
    ones = [1] * (top + 1)
    return _row_sum(bound, [ones] * (n - 1), [2 * w + 1 for w in range(top + 1)], _folded)


class LatticeShells(NamedTuple):
    """The lattice shells |k|^2 = j <= bound of T^n, as lattice_shells builds them.

    values holds the ascending j with r_n(j) > 0 (int64), radii the sqrt(j)
    and mult the multiplicities r_n(j), both float64; all three are
    read-only, so one table can serve every sum of a probe.  bound is the
    norm_sq_bound of the radius the table was built for: a sum that needs
    shells past it refuses the table.
    """

    n: int
    bound: int
    values: np.ndarray
    radii: np.ndarray
    mult: np.ndarray


def lattice_shells(n: int, radius: float) -> LatticeShells:
    """The lattice shells |k|^2 = j <= floor(radius^2) of T^n, n = 2 or 3.

    r_2 counts a^2 + b^2 over the octant 0 <= b <= a, a >= 1, one column b at
    a time; each point stands for 8 points of Z^2 minus the origin, or for 4
    on an axis (b = 0, j = a^2) or a diagonal (b = a, j = 2 a^2).
    r_3(j) = sum_c r_2(j - c^2) = r_2(j) + 2 sum_{c >= 1} r_2(j - c^2), the
    slices c >= 1 added into one array that is doubled once.
    """
    import numpy as np
    check_radius(n, radius)
    bound = norm_sq_bound(radius)
    top = math.isqrt(bound)
    sq = np.arange(top + 1, dtype=np.int64) ** 2
    diagonal = math.isqrt(bound // 2)
    # column b of the octant holds a = max(b, 1) .. isqrt(bound - b^2)
    columns = (sq[max(b, 1): math.isqrt(bound - b * b) + 1] + b * b for b in range(diagonal + 1))
    counts = np.bincount(np.concatenate(list(columns)), minlength=bound + 1)
    counts *= 8
    counts[sq[1:]] -= 4
    counts[2 * sq[1: diagonal + 1]] -= 4
    counts[0] = 1
    if n == 3:
        r2, counts = counts, np.zeros_like(counts)
        for c in range(1, top + 1):
            counts[c * c:] += r2[: bound + 1 - c * c]
        counts *= 2
        counts += r2
    values = np.flatnonzero(counts != 0)
    radii = np.sqrt(values.astype(np.float64))
    mult = counts[values].astype(np.float64)
    for table in (values, radii, mult):
        table.setflags(write=False)
    return LatticeShells(n, bound, values, radii, mult)


# --------------------------------------------------------------------------
# spectral sums


def _reduced(n: int, u) -> tuple[list[float], float]:
    """u reduced into (-pi, pi]^n, split into its head u' and last component."""
    if len(u) != n:
        raise DomainError("displacement length must equal the dimension")
    if not all(math.isfinite(v) for v in u):
        raise DomainError(f"displacement components must be finite, got {[float(v) for v in u]}")
    rem = (math.remainder(v, TWO_PI) for v in u)
    *head, x = (r + TWO_PI if r <= -math.pi else r for r in rem)  # -pi becomes pi
    return head, x


def _row_factors(head: list[float], x: float, top: int) -> tuple[list[list[float]], list[float]]:
    """cos(a v) for each v in head and a = 0..top, and the Dirichlet kernel D_w(x) for w = 0..top.

    sin(x/2) is 0.0 at x = 0 and also at x = +-5e-324, where x/2 rounds to
    0; D_w(x) is then 2w + 1 to the last bit, not 0/0.
    """
    cosines = [[math.cos(a * v) for a in range(top + 1)] for v in head]
    s = math.sin(0.5 * x)
    if s == 0.0:
        return cosines, [float(2 * w + 1) for w in range(top + 1)]
    return cosines, [math.sin((w + 0.5) * x) / s for w in range(top + 1)]


def _cosine_sums(n: int, u, radii) -> list[float]:
    """sum over |k| <= radius of cos(k . u) at each radius in order, not yet over (2 pi)^n.

    Each radius is checked in turn; the cosines and Dirichlet kernels are
    built once, for the largest, and every smaller sum reads their prefix.
    """
    head, x = _reduced(n, u)
    for radius in radii:
        check_radius(n, radius)
    bounds = [norm_sq_bound(radius) for radius in radii]
    cosines, kernel = _row_factors(head, x, math.isqrt(max(bounds)))
    return [_row_sum(bound, cosines, kernel, _mirrored) for bound in bounds]


def spectral_function_torus(n: int, u, lam: float, *, enum=None) -> float:
    """e(x, y, lambda) on T^n as a cosine lattice sum, with x - y = u.

    u is any length-n sequence of finite floats, reduced here into (-pi, pi].
    The sum over the rows p of cos(p . u') D_w(u_n), where u' is u without its
    last component and D_w(x) = sum_{|c|<=w} cos(c x) = sin((w + 1/2) x)/sin(x/2)
    is the Dirichlet kernel, runs as sum_a cos(a u_1) sum_b cos(b u_2) ... D_w(u_n):
    the sin . sin terms of cos(p . u') are odd in an entry of p and cancel.
    D_w(0) is exactly 2w + 1, and with every component zero each term is an
    integer-valued float, so the sum is exactly the count N(lambda).  `enum`
    is unused and stays only until ROADMAP item 0 changes the tracer.
    """
    return _cosine_sums(n, u, (lam,))[0] / TWO_PI ** n


def band_kernel_torus(n: int, u, lam: float) -> float:
    """The band kernel e(x, y, lambda + 1) - e(x, y, lambda) of (lambda, lambda + 1], x - y = u.

    The two cosine sums share their cosines and Dirichlet kernels and are
    subtracted before the one division by (2 pi)^n, so at u = 0 the kernel
    is the exact count difference, bit-equal to band_diagonal_sum.
    """
    outer, inner = _cosine_sums(n, u, (lam + 1.0, lam))
    return (outer - inner) / TWO_PI ** n


def derivative_diagonal_sum(n: int, alpha, beta, lam: float, *, enum=None) -> float:
    """Diagonal sum of the (alpha, beta)-derivatives of the eigenbasis.

    On the torus this is a pure lattice moment: parity-mismatched pairs cancel
    under k -> -k, so they return an exact 0.0 without floating summation.
    Matched parity makes every entry of gamma = alpha + beta even, so row p
    contributes p^gamma' S_g(w), where S_g(w) = sum_{|c|<=w} c^g with g the
    last entry of gamma, and every term is even in each entry of p.  The sum
    is formed in exact integers.  `enum` is unused and stays only until
    ROADMAP item 0 changes the tracer.
    """
    if len(alpha) != n or len(beta) != n:
        raise DomainError("multi-index lengths must equal the dimension")
    if alpha.order + beta.order > 6:
        raise DomainError("total derivative order is capped at 6")
    check_radius(n, lam)  # even where parity makes the sum 0
    if not alpha.same_parity(beta):
        return 0.0
    *head, g = (alpha + beta).entries
    bound = norm_sq_bound(lam)
    top = math.isqrt(bound)
    # S_g(w) = 2 sum_{c=0}^{w} c^g - 0^g, for w = 0..top
    power_sums = itertools.accumulate(c ** g for c in range(top + 1))
    row_sums = [2 * s - 0 ** g for s in power_sums]
    moments = [[a ** e for a in range(top + 1)] for e in head]
    half_gap = abs(alpha.order - beta.order) // 2
    sign = -1.0 if half_gap % 2 else 1.0
    return sign * float(_row_sum(bound, moments, row_sums, _folded)) / TWO_PI ** n


def band_diagonal_sum(n: int, lam: float, *, enum=None) -> float:
    """Diagonal sum over the half-open eigenvalue band (lambda, lambda+1].

    `enum` is unused and stays only until ROADMAP item 0 changes the tracer.
    """
    if lam < 0.0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    return (eigenvalue_count(n, lam + 1.0) - eigenvalue_count(n, lam)) / TWO_PI ** n


def smoothed_diagonal_sum(
    n: int,
    lam: float,
    window: SmoothingWindow | None = None,
    *,
    shells: LatticeShells,
    enum=None,
) -> float:
    """Window-weighted diagonal sum sum_k rho(lambda - |k|) / (2 pi)^n.

    The weight depends on k only through |k|^2, so the sum runs over the
    lattice shells with |k| <= lambda + T (T = window.truncation_radius),
    each weighted by its multiplicity.  `shells` is a `lattice_shells(n, R)`
    table with R >= lambda + T, which a probe builds once for its whole grid;
    a table for another n or a smaller R is refused.  There is one window
    pass over the shells inside the cut, an in-place product with their
    multiplicities and one pairwise np.sum in a fixed order, so the result
    does not depend on a BLAS, its threads or the size of the table.

    The cut drops weights below 1e-12, but the omitted tail is larger (see
    SmoothingWindow.truncation_radius): at eps 4 in n = 2, the shells in
    (lambda + T, 1500] alone add 1.2e-8 to 1.7e-8 for lambda in [0, 300].
    `enum` is unused and stays only until ROADMAP item 0 changes the tracer.
    """
    if not lam >= 0.0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    if window is None:
        window = SmoothingWindow()
    radius = lam + window.truncation_radius
    check_radius(n, radius)  # the bound below needs a finite radius
    bound = norm_sq_bound(radius)
    if shells.n != n or shells.bound < bound:
        raise DomainError(
            f"shell table covers |k|^2 <= {shells.bound} in n={shells.n}; the n={n} sum at "
            f"lambda + T = {radius:g} needs |k|^2 <= {bound}"
        )
    top = int(shells.values.searchsorted(bound, side="right"))
    weights = window.value(lam - shells.radii[:top])
    weights *= shells.mult[:top]
    return float(weights.sum()) / TWO_PI ** n
