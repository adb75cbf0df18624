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

At every order the maximum sits near t = 0, so B^{(q)}(t/n) is evaluated
ring by ring, on |t| <= 4 and then on rings of twice the radius each, until
both sides of the grid carry a certificate that no point beyond them can
reach or tie the maximum.  B^{(q)} is not unimodal, but it is a signed sum
of B-splines of order n-1-q, each log-concave: once every one of them falls
at a ring's edge, and the Hermite side He_q phi keeps one sign and falls
past sqrt(4q + 6), the values at the edge bound every point past it.  The
value and the argmax are those of the whole grid, bit for bit, since the
kernel's value at a point does not depend on the other points of a call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OrderTooHigh
from .knots import KnotVector
from .montecarlo import char_estimates
from .specfun import corollary3_quadrature, hermite, hermite_function
from .splines import bspline_stable_deriv, bspline_stable_terms

# the grid sup evaluates B^(q) first on |t| <= _FIRST_RING, then on rings
# of twice the radius each (``_ring_sup``)
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
    every order B^{(q)} is evaluated only on the central rings that the
    certificate of ``_ring_sup`` needs (160 of the 10241 points at p = 0,
    q <= 1 and n = 256, 320 at q = 2), and the rest of the grid costs only
    its Hermite and |t|^p values.
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
    (1.41 at n=16, m=2).  At every order B^{(m)} is evaluated only on the
    central rings that ``_ring_sup`` certifies, and the value and argmax are
    those of the whole grid, bit for bit.
    """
    ts = grid.points_avoiding(kv)
    herm = (-1) ** m * hermite_function(m, ts)
    return _ring_sup(kv, ts, herm, p, m)


def _ring_sup(kv: KnotVector, ts, herm, p: int, q: int) -> SeminormResult:
    """sup |t|^p |h(t) - B^{(q)}(t/n) / n^q| on the sorted grid ts, ring by ring.

    h is the grid's Hermite side ``herm``.  Ring k holds the points with
    _FIRST_RING 2^(k-1) < |t| <= _FIRST_RING 2^k (ring 0 all of
    |t| <= _FIRST_RING), and each ring is one call of the kernel binding
    ``bspline_stable_deriv``, whose values at a point do not depend on the
    other points of the call.  After each, v is the sup over the evaluated
    points, and a side of the grid is closed when it has no unevaluated
    point, or when the certificate below holds at its outermost evaluated
    point e.  Once both sides are closed no pruned point reaches or ties the
    tie band v (1 - 1e-12) of ``_weighted_sup``, so the sup over the
    evaluated window has the whole grid's value and argmax, bit for bit.
    When no ring closes both sides, the whole grid is evaluated.

    B^{(q)} = sum_j c_j N_j / (x_{n-1} - x_0) over the order n-1-q basis
    (``splines.bspline_stable_terms``); write R_j = N_j / (x_{n-1} - x_0)
    >= 0, P = sum_{c_j > 0} c_j R_j(e) / n^q, N = sum_{c_j < 0} |c_j|
    R_j(e) / n^q, and h+ and h- for the positive and negative parts of h(e).
    The side closes when

    * |e| > sqrt(4q + 6), on e's side of 0.  The zeros of the physicists'
      H_k lie below sqrt(2k + 1) (Szego), so those of He_k(t) =
      2^{-k/2} H_k(t / sqrt 2) lie below sqrt(4k + 2), and past the largest
      zero of He_{q+1} the derivative -He_{q+1} phi of He_q phi keeps one
      sign: h keeps h(e)'s sign and falls in size to 0.
    * every row falls at e: fl R_j(e') > fl R_j(e) (1 + 3 eps) for e's
      evaluated inner neighbour e' (then R_j(e') > R_j(e) exactly, as
      (1 - eps)(1 + 3 eps) > 1 + eps, and R_j, a B-spline, is log-concave,
      hence unimodal, so it falls past e), or fl R_j(e) = 0 with e/n past the
      row's support on the outer side, x_{j+n-1-q} on the right and x_j on
      the left, where the kernel's row is an exact zero.  (A zero inside or
      before the support says nothing: at n = 8, q = 4 row 4 starts at a
      knot above 0.)
    * max |t|^p over the side's unevaluated points, times
      max(h+ + N, h- + P) (1 + 1e-9), is below v (1 - 1e-12).

    Every unevaluated t then has h(t) - B^{(q)}(t/n) / n^q in
    [-(h- + P), h+ + N] up to rounding.  The bound is on the values the
    whole grid computes, which use the same float c_j, so the c_j's own
    rounding drops out.  The grid's sum of q + 1 products of mixed sign errs
    by at most gamma_{q+1} (P + N), and max(h+ + N, h- + P) >= (P + N) / 2,
    so that costs at most 2 gamma_{q+1} relative.  The 1e-9 margin covers
    it, 2 eps (a pruned point's rows against e's), the Hermite side's
    error, and the roundings of |t|^p, of n^q and of the product, while
    n < 10^5.  The Hermite side is within 1e-13 relative of He_q phi on
    sqrt(4q + 6) <= |t| <= 37 at q <= 8 (``tests/test_seminorm.py``;
    5.6e-14 measured, from the rounding of t^2 / 2).  Past |t| = 38.61
    e^{-t^2/2} rounds to 0, and so does the grid's h; between, |h| <
    1e-284, while every ring edge lies within 0.06 of 4 2^k and an edge
    |e| <= 32 has |h(e)| > 1e-223.

    eps = 8 n 2^-53 bounds the relative error of a positive Cox-de Boor
    value while nothing underflows.  Each level forms every value as the sum
    of two non-negative products, a quotient of two differences times a
    value of the level below: the two differences, the quotient, the
    product and the sum are rounded once each, and relative errors do not
    grow in sums and products of non-negative terms.  n - 2 levels and the
    division by the rounded support width make k < 5n roundings, so the
    relative error is at most k u / (1 - k u) < 8 n u, u = 2^-53.

    At q = 0, c = [1], P = B(e), N = 0 and h = phi > 0, so the bound is
    max(phi(e), B(e)), and every ring edge has |e| >= 3.94 > sqrt 6.  The
    one row is B itself, which the ring already holds, so no further kernel
    call is made.  At q > 0 the rows at the four edge points e and e' of
    the two sides come from one ``bspline_stable_terms`` call per ring,
    which the kernel binding does not see.
    """
    n = kv.n
    eps = 8 * n * 2.0**-53
    root = math.sqrt(4 * q + 6)
    # rows j span [x_j, x_{j+n-1-q}): where each one starts and ends
    starts, ends = kv.xs[: q + 1], kv.xs[n - 1 - q :]
    w = np.abs(ts) ** p
    spline = np.zeros_like(ts)
    lo = hi = int(np.searchsorted(ts, 0.0))
    radius = _FIRST_RING
    while True:
        a = int(np.searchsorted(ts, -radius))
        b = int(np.searchsorted(ts, radius, side="right"))
        new = np.r_[a:lo, hi:b]
        spline[new] = bspline_stable_deriv(kv, ts[new] / n, q) / n**q
        lo, hi = a, b
        cut = (w[lo:hi] * np.abs(herm[lo:hi] - spline[lo:hi])).max() * (1 - 1e-12)
        # columns: each side's outermost point e and its inner neighbour e'
        edges = [lo, lo + 1, hi - 1, hi - 2]
        if q:
            coeffs, rows = bspline_stable_terms(kv, ts[edges] / n, q)
            rows = rows / (kv.xs[-1] - kv.xs[0])
        else:
            coeffs, rows = np.ones(1), spline[edges][None]
        pos, neg = coeffs > 0, coeffs < 0

        def closes(side, col, rest):
            e = edges[col]
            if rest.size == 0:
                return True
            if not side * ts[e] > root:
                return False
            r_e, r_in = rows[:, col], rows[:, col + 1]
            past = ts[e] / n >= ends if side > 0 else ts[e] / n < starts
            if not np.all((r_in > r_e * (1 + 3 * eps)) | ((r_e == 0) & past)):
                return False
            P = (coeffs[pos] * r_e[pos]).sum() / n**q
            N = (-coeffs[neg] * r_e[neg]).sum() / n**q
            h_pos, h_neg = max(herm[e], 0.0), max(-herm[e], 0.0)
            return rest.max() * max(h_pos + N, h_neg + P) * (1 + 1e-9) < cut

        if closes(-1, 0, w[:lo]) and closes(1, 2, w[hi:]):
            break
        radius *= 2
    return _weighted_sup(ts[lo:hi], herm[lo:hi] - spline[lo:hi], p)


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
