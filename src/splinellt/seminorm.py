"""Grid approximation of weighted-sup seminorms of approximation errors.

The seminorm ||f||_{p,q} = sup_t |t|^p |d^q f(t)| is approximated on a
finite grid [-T, T] with step h.  Derivatives on the spline side come from
exact exponent reduction (never finite differences in t).  The Corollary-3
side S_r(xi) is the Fourier transform of (it)^r B(t/n), so differentiating
under the integral gives d^q/dxi^q S_r(xi) = (-1)^q S_{q+r}(xi): its
xi-derivatives are taken exactly, as the transform of order q+r, read from
the exact power series ``specfun.corollary3_quadrature``.
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
        if self.T < 8:
            raise ValueError("T >= 8 required")
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
    weights = np.abs(ts) ** p if p > 0 else np.ones_like(ts)
    vals = weights * np.abs(diffs)
    best = float(vals.max())
    # tie-break: among near-maximal points prefer the smallest |t|
    cand = np.flatnonzero(vals >= best * (1 - 1e-12))
    arg = float(ts[cand[np.argmin(np.abs(ts[cand]))]])
    return SeminormResult(value=best, argmax_t=arg, noise_floor=noise_floor)


def _spline_side(kv: KnotVector, ts: np.ndarray, q: int, r: int) -> np.ndarray:
    """d^q/dt^q of (-1)^r d^r/dt^r B(t/n), all algebraically exact.

    By the chain rule d^m/dt^m [B(t/n)] = n^{-m} B^{(m)}(t/n), so the value
    is (-1)^r n^{-(q+r)} B^{(q+r)}(t/n): one stable derivative evaluation of
    order q+r covers every (q, r).  This is the t-derivative that Theorem 1
    bounds, so it is the comparand whose limit is (-1)^q He_{q+r}(t) phi(t).

    It is not the exponent-reduced sum S_r(t/n) = sum_k (x_k - t/n)_+^{n-2-r}
    / W'(x_k), which ``splines.bspline_naive(kv, t/n, r)`` evaluates:
    S_r(s) = (-1)^r B^{(r)}(s) / (n-2)_r with the falling factorial (n-2)_r,
    so S_r(t/n) is this value (q = 0) times n^r / (n-2)_r.  That factor
    tends to 1, but at small n it dominates the Corollary 2 error (it is
    1.41 at n=16, r=2).
    """
    n = kv.n
    d = bspline_stable_deriv(kv, ts / n, r + q)
    return (-1) ** r * d / n ** (q + r)


def _hermite_error(kv, p, q, r, grid) -> SeminormResult:
    """sup |t|^p |(-1)^q He_{q+r}(t) phi(t) - _spline_side(q, r)| on the grid."""
    ts = grid.points_avoiding(kv)
    herm = (-1) ** q * hermite_function(q + r, ts)
    spline = _spline_side(kv, ts, q, r)
    return _weighted_sup(ts, herm - spline, p)


def theorem1_error(kv: KnotVector, p: int, q: int, grid: GridSpec) -> SeminormResult:
    """sup |t|^p |d^q (Gaussian pdf - rescaled spline)| on the grid."""
    if q > kv.n - 4:
        raise OrderTooHigh(f"q <= n-4 required (q={q}, n={kv.n})")
    if p + q > 8:
        raise ValueError("p + q <= 8 required")
    return _hermite_error(kv, p, q, 0, grid)


def corollary2_error(
    kv: KnotVector, p: int, q: int, r: int, grid: GridSpec
) -> SeminormResult:
    """sup |t|^p |d^q (He_r(t) phi(t) - (-1)^r d^r/dt^r B(t/n))| on the grid.

    Corollary 2 is the Hermite consequence of Theorem 1:
    (-1)^r d^r/dt^r B(t/n) -> He_r(t) phi(t) in every Schwartz seminorm.
    PAPER.md does not state it, so this normalization is derived from
    Theorem 1, not quoted from the paper.  Theorem 1 bounds every
    t-derivative of phi(t) - B(t/n); its (q+r)-th one, times (-1)^r, has
    the spline side (-1)^r n^{-(q+r)} B^{(q+r)}(t/n) (see ``_spline_side``)
    and the Gaussian side (-1)^q He_{q+r}(t) phi(t).  The difference here is
    therefore (-1)^r times the Theorem 1 difference at order q+r, and this
    error equals ``theorem1_error(kv, p, q + r, grid)`` bit for bit wherever
    both are defined.
    """
    if q + r > kv.n - 4:
        raise OrderTooHigh(f"q + r <= n-4 required (q={q}, r={r}, n={kv.n})")
    return _hermite_error(kv, p, q, r, grid)


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


def corollary4_error(
    kv: KnotVector, p: int, q: int, xi_grid, N: int, seed: int
):
    """MC cosine/sine means of simplex projections vs the Gaussian transform.

    Only q = 0 is supported (differentiating MC means is out of scope).
    Returns (cos SeminormResult, sin SeminormResult); each carries the MC
    noise floor max_xi 4 * SE * |xi|^p.  The means are streamed by
    ``montecarlo.char_estimates``, so the draws are never held.
    """
    if q != 0:
        raise ValueError("q = 0 required")
    if N < 10**5:
        raise ValueError("N >= 1e5 required")
    return corollary4_errors([kv], p, xi_grid, N, seed)[0]


def corollary4_errors(kvs, p: int, xi_grid, N: int, seed: int):
    """``corollary4_error`` at q = 0 for knot vectors of one n, from one pass.

    The knot vectors share the N simplex points, and each gets the bits of
    its own ``corollary4_error`` call.  Returns one (cos, sin) pair per
    knot vector.
    """
    xis = np.asarray(xi_grid, dtype=float)
    w = np.abs(xis) ** p if p > 0 else np.ones_like(xis)
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
