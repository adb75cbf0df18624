"""Grid approximation of weighted-sup seminorms of approximation errors.

The seminorm ||f||_{p,q} = sup_t |t|^p |d^q f(t)| is approximated on a
finite grid [-T, T] with step h.  Theorem 1 at order q and Corollary 2 at
order q + r are one error, that of the m-th t-derivative of B(t/n), taken
by exact coefficient differencing (never finite differences in t).  The
Corollary-3 side S_r(xi) is the Fourier transform of (it)^r B(t/n), so
differentiating under the integral gives d^q/dxi^q S_r(xi) =
(-1)^q S_{q+r}(xi): its xi-derivatives are taken exactly, as the
transform of order q+r, read from the exact power series
``specfun.corollary3_quadrature``.

At q = 0 the maximum sits near t = 0, so B(t/n) is evaluated ring by ring,
on |t| <= 4 and then on rings of twice the radius each, until both sides of
the grid carry a certificate that no point beyond them can reach or tie the
maximum: phi and the log-concave B both fall outward there, so their values
at a ring's edge bound every point past it.  The value and the argmax are
those of the whole grid, bit for bit.  At q > 0 B^{(q)} is not unimodal, and
the whole grid is evaluated.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OrderTooHigh
from .knots import KnotVector
from .montecarlo import char_estimates
from .specfun import corollary3_quadrature, hermite, hermite_function
from .splines import bspline_stable_deriv

# the q = 0 sup evaluates B first on |t| <= _FIRST_RING, then on rings of
# twice the radius each (``_ring_sup``)
_FIRST_RING = 4.0


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid spanning [-T, T] with step h."""

    T: float
    h: float

    def __post_init__(self):
        if not 8 <= self.T < math.inf:
            raise ValueError("finite T >= 8 required")
        if not 0 < self.h <= 0.05:
            raise ValueError("0 < h <= 0.05 required")

    def points(self) -> np.ndarray:
        return np.arange(-self.T, self.T + self.h / 2, self.h)

    def points_avoiding(self, kv: KnotVector) -> np.ndarray:
        """Grid points, nudged off exact knot images n*x_k by h/10."""
        ts = self.points()
        images = kv.n * kv.xs
        # the images are sorted, so the nearest one is a neighbour in order
        idx = np.searchsorted(images, ts)
        below = np.abs(ts - images[np.maximum(idx - 1, 0)])
        above = np.abs(ts - images[np.minimum(idx, images.size - 1)])
        hit = np.minimum(below, above) < self.h * 1e-9
        return np.where(hit, ts + self.h / 10, ts)


@dataclass(frozen=True)
class SeminormResult:
    value: float
    argmax_t: float
    noise_floor: float | None = None


def default_grid(n: int, h: float = 0.05) -> GridSpec:
    """T = max(8, n): beyond |t| = n the spline term vanishes identically.

    Most of [-n, n] lies outside the support [n x_0, n x_{n-1}) at large n
    (about 0.15 of the points are inside on the n <= 256 scaling runs).  At
    q = 0 B is evaluated only on the central rings that the certificate of
    ``_ring_sup`` needs (160 of the 10241 points at p = 0 and n = 256), and
    the rest of the grid costs only its phi and |t|^p values.  At q > 0 the
    stable kernel runs on every point, and returns exact zeros outside the
    support without running the recursion.
    """
    return GridSpec(T=float(max(8, n)), h=h)


def _weighted_sup(ts, diffs, p, noise_floor=None) -> SeminormResult:
    vals = np.abs(ts) ** p * np.abs(diffs)
    best = float(vals.max())
    # tie-break: among near-maximal points prefer the smallest |t|
    cand = np.flatnonzero(vals >= best * (1 - 1e-12))
    arg = float(ts[cand[np.argmin(np.abs(ts[cand]))]])
    return SeminormResult(value=best, argmax_t=arg, noise_floor=noise_floor)


def _hermite_error(kv: KnotVector, p: int, m: int, grid: GridSpec) -> SeminormResult:
    """sup |t|^p |(-1)^m He_m(t) phi(t) - n^{-m} B^{(m)}(t/n)| on the grid.

    By the chain rule this is the m-th t-derivative of phi(t) - B(t/n),
    which Theorem 1 bounds.  It is B^{(m)}, not the oracle's exponent-reduced
    S_m(t/n) = (-1)^m B^{(m)}(t/n) / (n-2)_m of ``splines.bspline_naive``,
    whose factor n^m / (n-2)_m tends to 1 but dominates the error at small n
    (1.41 at n=16, m=2).  At m = 0 B is evaluated only on the central rings
    that ``_ring_sup`` certifies; B^{(m)} at m > 0 is not unimodal, so it is
    evaluated on the whole grid.
    """
    ts = grid.points_avoiding(kv)
    herm = (-1) ** m * hermite_function(m, ts)
    if m == 0:
        return _ring_sup(kv, ts, herm, p)
    spline = bspline_stable_deriv(kv, ts / kv.n, m) / kv.n**m
    return _weighted_sup(ts, herm - spline, p)


def _ring_sup(kv: KnotVector, ts, phi, p: int) -> SeminormResult:
    """sup |t|^p |phi(t) - B(t/n)| on the sorted grid ts, B evaluated ring by ring.

    Ring k holds the points with _FIRST_RING 2^(k-1) < |t| <= _FIRST_RING 2^k
    (ring 0 all of |t| <= _FIRST_RING), and each ring is one kernel call.
    After each, v is the sup over the evaluated points, and a side of the
    grid is closed when it has no unevaluated point, or when its outermost
    evaluated point e lies on that side of 0, B falls at e, and the bound
    below stays under the tie band v (1 - 1e-12) of ``_weighted_sup``.
    Once both sides are closed no pruned point reaches or ties v, so the
    sup over the evaluated window has the full grid's value and argmax, bit
    for bit.  When no ring closes both sides, the whole grid is evaluated.

    phi is decreasing in |t|, and B is log-concave, hence unimodal, as the
    density of a linear image of the uniform simplex measure
    (Curry-Schoenberg; Prekopa 1973).  B falls at e when fl B(e') >
    fl B(e) (1 + 3 eps) for e's evaluated inner neighbour e' (then
    B(e') > B(e) exactly, as (1 - eps)(1 + 3 eps) > 1 + eps), or when
    fl B(e) = 0, e past the support.  Every unevaluated t on that side then
    has |phi(t) - B(t/n)| <= max(phi(e), B(e/n)), and the side closes when
    max |t|^p over those t, times max(phi(e), fl B(e)) (1 + 1e-9), is below
    v (1 - 1e-12).

    eps = 8 n 2^-53 bounds the relative error of a positive Cox-de Boor
    value while nothing underflows.  Each level forms every value as the sum
    of two non-negative products, a quotient of two differences times a
    value of the level below: the two differences, the quotient, the
    product and the sum are rounded once each, and relative errors do not
    grow in sums and products of non-negative terms.  n - 2 levels and the
    division by the rounded support width make k < 5n roundings, so the
    relative error is at most k u / (1 - k u) < 8 n u, u = 2^-53.  The
    1e-9 margin covers 2 eps (fl B at a pruned point against fl B(e)),
    phi's last ulp and the rounding of |t|^p and of the product while
    n < 10^5.
    """
    eps = 8 * kv.n * 2.0**-53
    w = np.abs(ts) ** p
    spline = np.zeros_like(ts)
    lo = hi = int(np.searchsorted(ts, 0.0))
    radius = _FIRST_RING
    while True:
        a = int(np.searchsorted(ts, -radius))
        b = int(np.searchsorted(ts, radius, side="right"))
        new = np.r_[a:lo, hi:b]
        spline[new] = bspline_stable_deriv(kv, ts[new] / kv.n, 0)
        lo, hi = a, b
        cut = (w[lo:hi] * np.abs(phi[lo:hi] - spline[lo:hi])).max() * (1 - 1e-12)
        # (side, outermost evaluated point, |t|^p of the side's unevaluated points)
        sides = ((-1, lo, w[:lo]), (1, hi - 1, w[hi:]))
        if all(
            rest.size == 0
            or side * ts[e] > 0
            and (spline[e] == 0 or spline[e - side] > spline[e] * (1 + 3 * eps))
            and rest.max() * max(phi[e], spline[e]) * (1 + 1e-9) < cut
            for side, e, rest in sides
        ):
            break
        radius *= 2
    return _weighted_sup(ts[lo:hi], phi[lo:hi] - spline[lo:hi], p)


def theorem1_error(kv: KnotVector, p: int, q: int, grid: GridSpec) -> SeminormResult:
    """sup |t|^p |d^q (Gaussian pdf - rescaled spline)| on the grid."""
    if q > kv.n - 4:
        raise OrderTooHigh(f"q <= n-4 required (q={q}, n={kv.n})")
    if p + q > 8:
        raise ValueError("p + q <= 8 required")
    return _hermite_error(kv, p, q, grid)


def corollary2_error(
    kv: KnotVector, p: int, q: int, r: int, grid: GridSpec
) -> SeminormResult:
    """sup |t|^p |d^q (He_r(t) phi(t) - (-1)^r d^r/dt^r B(t/n))| on the grid.

    Corollary 2 is the Hermite consequence of Theorem 1:
    (-1)^r d^r/dt^r B(t/n) -> He_r(t) phi(t) in every Schwartz seminorm.
    PAPER.md does not state it, so this normalization is derived from
    Theorem 1, not quoted from the paper.  The difference here is (-1)^r
    times the (q+r)-th t-derivative of phi(t) - B(t/n), so under |.| this
    error is Theorem 1's at order q+r, read from the one body
    ``_hermite_error`` under this function's own guard.
    """
    if q + r > kv.n - 4:
        raise OrderTooHigh(f"q + r <= n-4 required (q={q}, r={r}, n={kv.n})")
    return _hermite_error(kv, p, q + r, grid)


def corollary3_error(
    kv: KnotVector, p: int, q: int, r: int, xi_grid
) -> SeminormResult:
    """d^q in xi of the transform S_r of (it)^r B(t/n) vs He_r(xi) e^{-xi^2/2}.

    Both sides are differentiated exactly: d^q S_r = (-1)^q S_{q+r} and
    d^q [He_r(xi) e^{-xi^2/2}] = (-1)^q He_{q+r}(xi) e^{-xi^2/2}, so the
    error is that of order q+r at q = 0 (the common sign drops under |.|).
    S_{q+r} comes correctly rounded from one series call for the whole
    grid; the Laguerre sum it equals (whose 2F0 form is the same integer
    polynomial) serves as an independent check only.
    """
    if r > 4:
        raise ValueError("r <= 4 required")
    if q > 2:
        raise ValueError("q <= 2 required")
    m = q + r
    xis = np.asarray(xi_grid, dtype=float)
    diffs = [
        s - hermite(m, xi) * math.exp(-xi * xi / 2)
        for xi, s in zip(xis.tolist(), corollary3_quadrature(kv, m, xis.tolist()))
    ]
    return _weighted_sup(xis, np.array(diffs), p)


def corollary4_error(kvs, p: int, q: int, xi_grid, N: int, seed: int):
    """MC cosine/sine means of simplex projections vs the Gaussian transform.

    The knot vectors, all of one n, share one streamed pass of N simplex
    points (``montecarlo.char_estimates``), and each gets the bits it would
    get alone.  Only q = 0 is supported (differentiating MC means is out of
    scope).  Returns one (cos, sin) pair of SeminormResults per knot vector,
    each with the MC noise floor max_xi 4 * SE * |xi|^p.
    """
    if q != 0:
        raise ValueError("q = 0 required")
    if N < 10**5:
        raise ValueError("N >= 1e5 required")
    xis = np.asarray(xi_grid, dtype=float)
    w = np.abs(xis) ** p
    gauss = np.array([math.exp(-xi * xi / 2) for xi in xis])
    means, ses = char_estimates(kvs, N, seed, xis)
    floors = np.max(4 * ses * w, axis=-1)
    return [
        (
            _weighted_sup(xis, means[0, i] - gauss, p, float(floors[0, i])),
            _weighted_sup(xis, means[1, i], p, float(floors[1, i])),
        )
        for i in range(len(kvs))
    ]
