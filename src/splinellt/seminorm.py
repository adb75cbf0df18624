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
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OrderTooHigh
from .knots import KnotVector
from .montecarlo import char_estimates
from .specfun import corollary3_quadrature, hermite, hermite_function
from .splines import bspline_stable_deriv


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
    (about 0.15 of the points are inside on the n <= 256 scaling runs); the
    stable kernel returns exact zeros there without running the recursion,
    so those points cost nothing.
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
    (1.41 at n=16, m=2).
    """
    ts = grid.points_avoiding(kv)
    herm = (-1) ** m * hermite_function(m, ts)
    spline = bspline_stable_deriv(kv, ts / kv.n, m) / kv.n**m
    return _weighted_sup(ts, herm - spline, p)


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
