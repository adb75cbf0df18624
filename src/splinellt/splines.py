"""B-spline evaluation on arbitrary knots.

Two routes are provided for the same function

    B(t) = sum_k (x_k - t)_+^{n-2} / prod_{j != k} (x_k - x_j):

* ``bspline_naive`` evaluates the sum literally and exactly.  The knots and
  t are doubles, hence dyadic rationals, so over a common power of two the
  sum is one of Python integers; it is bracketed by integer floor
  divisions and narrowed until both ends round to the same double, which
  is then the correctly rounded value, at any n.  The terms cancel
  catastrophically -- their magnitudes grow like the divided-difference
  condition number -- so each point costs n divisions of integers of
  about 60n bits, and the route serves as the oracle.  That integer
  table, memoized per knot vector in ``_int_table``, is the only one of
  the W'(x_k): ``wprime`` rounds its entries to double,
  ``oscillatory_sum`` brackets over them the Corollary-3 sum of
  ``specfun``, with e^{-i theta_k} taken to Q bits in integers, and
  ``complete_homogeneous`` forms from its integer knots the sums h_j(x)
  from which the Corollary-3 oracle sums the transform of B exactly and
  ``exp_divided_difference`` the divided difference of e^t.
* ``bspline_stable`` evaluates the identical spline through the
  triangular Cox-de Boor recursion in plain doubles, which involves only
  convex combinations and is safe for large n.  It works only where B is
  nonzero: points outside [x_0, x_{n-1}) are exact zeros at no cost, and
  the rest are sorted and run in chunks of _CHUNK points, each level of
  the triangle one broadcast step over the band of rows the chunk's knot
  spans reach.  Each chunk forms the table D[i] = t - x_i once and runs
  every level as five ufunc calls into two preallocated level buffers.
  The values are bit-identical to the full row-by-row triangle, and the
  working set is at most (4n - 3) * _CHUNK doubles (D, the triangle and
  the two buffers), whatever the number of points.

Derivatives are never taken numerically: exponent reduction in the naive
sum and coefficient differencing in the stable recursion are both exact.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from .knots import KnotVector

# points per Cox-de Boor chunk: the working set is (4n - 3) * _CHUNK doubles
_CHUNK = 256


@functools.lru_cache(maxsize=256)
def _int_table(xs: tuple) -> tuple:
    """(L, (X_0, ..., X_{n-1}), (W_0, ..., W_{n-1})) in Python integers.

    X_k = x_k 2^L for the least L that makes every knot an integer, and
    W_k = prod_{j != k} (X_k - X_j) = W'(x_k) 2^{L(n-1)}.  Memoized per knot
    tuple: the one table of W' that every route reads.
    """
    ratios = [x.as_integer_ratio() for x in xs]
    L = max(den.bit_length() for _, den in ratios) - 1
    X = tuple(num << (L + 1 - den.bit_length()) for num, den in ratios)
    W = tuple(_prod([xk - xj for j, xj in enumerate(X) if j != k]) for k, xk in enumerate(X))
    return L, X, W


def _prod(factors: list) -> int:
    """Product of integers by pairwise halving, so large n multiplies balanced operands."""
    while len(factors) > 1:
        factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return factors[0] if factors else 1


def _to_double(a: int, b: int, k: int):
    """a / b * 2^k correctly rounded to double (CPython rounds int / int
    correctly), or None beyond the double range."""
    try:
        return a / (b << -k) if k < 0 else (a << k) / b
    except OverflowError:
        return None


def wprime(kv: KnotVector, k: int):
    """W'(x_k) = prod_{j != k} (x_k - x_j), correctly rounded to double at
    any n (None beyond the double range)."""
    L, _, W = _int_table(tuple(kv.xs.tolist()))
    return _to_double(W[k], 1, -L * (kv.n - 1))


def _round_scaled_sum(terms: list, s: int) -> float:
    """sum(num / w for num, w in terms) * 2^s, correctly rounded to double.

    With p bits below the point, A = sum floor(num 2^p / w) satisfies
    A <= 2^p sum < A + m for m terms, so the value lies in
    [A 2^{s-p}, (A + m) 2^{s-p}).  Rounding is monotone, so once both ends
    round to the same double the value does too.  Otherwise p grows: to
    about 60 bits below the value's magnitude when A shows it, and else
    straight to a bracket narrower than half the least subnormal, where a
    zero resolves to +0.0 (so the sign of a zero never rests on a -0.0 end
    comparing equal to a 0.0 one).  Only a value within that width of a
    halfway point (a tie) can stay unresolved there; it is rounded from the
    exact quotient over the common denominator instead.  An end beyond the
    double range counts as unresolved; a value beyond it raises
    OverflowError.
    """
    m = len(terms)
    if not m:
        return 0.0
    q_zero = 1076 + m.bit_length()
    q = 96 + m.bit_length()
    while True:
        p = max(q + s, 0)
        a = sum((num << p) // w for num, w in terms)
        lo, hi = _to_double(a, 1, s - p), _to_double(a + m, 1, s - p)
        if lo is not None and lo == hi:
            return lo + 0.0
        if p - s >= q_zero:
            break
        mag = abs(a) - m
        q = p - s + max(32, 60 + m.bit_length() - mag.bit_length()) if mag > m else q_zero
    den = math.lcm(*(w for _, w in terms))
    num = sum(c * (den // w) for c, w in terms)
    return (num << s) / den + 0.0 if s >= 0 else num / (den << -s) + 0.0


def _exp_i(a: int, E: int, Q: int) -> tuple:
    """(C, S, d): C and S are within d of 2^Q cos and 2^Q sin of a / 2^E.

    A Taylor series on phi = a / 2^{E+s}, |phi| <= 2^-7, each term
    floor-divided from the one before until one is at most a unit: each term
    is then off by under 1.01 and the rest sum to under 0.02, so d = 2J + 4
    after J terms.  Each of the s squarings maps d to 3d + 2 (2 sqrt(2) d,
    plus 2 d^2 / 2^Q and the floor) while d < 2^(Q-4); d only grows, and a
    larger final d leaves a bracket too wide to round.
    """
    s = max(0, abs(a).bit_length() - E + 7)
    t, j, parts = 1 << Q, 0, [1 << Q, 0]
    while abs(t) > 1:
        j += 1
        t = t * a // (j << (E + s))
        # i^j cycles through 1, i, -1, -i
        parts[j & 1] += -t if j & 2 else t
    c, si, d = parts[0], parts[1], 2 * j + 4
    for _ in range(s):
        c, si, d = (c * c - si * si) >> Q, (c * si) >> (Q - 1), 3 * d + 2
    return c, si, d


def oscillatory_sum(kv: KnotVector, w, coeffs, pref) -> complex:
    """pref sum_k e^{-i theta_k} N(theta_k) / W'(x_k), theta_k = w x_k, each
    part correctly rounded, at any n.

    N(theta) = sum_j (coeffs[j][0] + i coeffs[j][1]) theta^j; pref and w != 0
    are Fractions, w with a power-of-two denominator (as n xi).  Over
    ``_int_table`` theta_k = a_k / 2^E, and 2^{E deg N} N(theta_k) and W_k are
    integers.  ``_exp_i`` at Q bits gives X_k, the part of (C_k - i S_k)
    2^{E deg N} N(theta_k); with 2^g above every |N_k|_1 / |W_k|, A = sum
    floor(X_k 2^-g / W_k) in units of 2^(g-Q) puts the part in [A - D, A + m
    + D] for m terms, D = sum d_k.  The exact prefactor scales the two ends.
    Q starts at 64 bits plus the bit size of the largest summand and doubles
    until both ends round to one double (an end beyond the double range is
    unresolved; a zero part resolves to +0.0).
    """
    L, X, W = _int_table(tuple(kv.xs.tolist()))
    wn, wd = w.as_integer_ratio()
    pn, pd = pref.as_integer_ratio()
    E, deg = L + wd.bit_length() - 1, len(coeffs) - 1
    terms = [
        (a, *(sum(c[i] * a**j << E * (deg - j) for j, c in enumerate(coeffs)) for i in (0, 1)), wk)
        for a, wk in zip((wn * x for x in X), W)
    ]
    g = max((abs(nr) + abs(ni)).bit_length() - abs(wk).bit_length() + 1 for _, nr, ni, wk in terms)
    # value = pref 2^scale sum_k e^{-i theta_k} (Nr_k + i Ni_k) / W_k
    scale = L * (len(X) - 1) - E * deg
    Q = 64 + max(0, pn.bit_length() - pd.bit_length() + 1 + scale + g)
    parts = [None, None]
    while None in parts:
        sums, D = [0, 0], 0
        for a, nr, ni, wk in terms:
            c, s, d = _exp_i(a, E, Q)
            D += d
            for i, x in enumerate((c * nr + s * ni, c * ni - s * nr)):
                sums[i] += (x << -g) // wk if g < 0 else x // (wk << g)
        for i in (0, 1):
            lo = _to_double(pn * (sums[i] - D), pd, scale + g - Q)
            hi = _to_double(pn * (sums[i] + len(terms) + D), pd, scale + g - Q)
            if parts[i] is None and lo is not None and lo == hi:
                parts[i] = lo + 0.0
        Q *= 2
    return complex(*parts)


def complete_homogeneous(kv: KnotVector, J: int) -> tuple:
    """(L, (H_0, ..., H_J)), H_j = 2^{Lj} h_j(x) in integers, h_j being the
    complete homogeneous sum of degree j, [x_0..x_{n-1}] t^{j+n-1}.  Over
    X_k = x_k 2^L of ``_int_table``, h_j(x_0..x_k) = h_j(x_0..x_{k-1}) +
    x_k h_{j-1}(x_0..x_k) gives them in n J integer multiply-adds."""
    L, X, _ = _int_table(tuple(kv.xs.tolist()))
    H = [1] + [0] * J
    for xk in X:
        for j in range(1, J + 1):
            H[j] += xk * H[j - 1]
    return L, tuple(H)


def exp_divided_difference(kv: KnotVector) -> float:
    """[x_0..x_{n-1}] e^t = sum_j h_j(x) / (j+n-1)!, its terms j <= 60
    summed exactly in Fractions and rounded once to double.

    The knots are normalized, so |x_k| <= 1, |h_j| <= C(j+n-1, j) and term
    j is at most 1 / (j! (n-1)!).  The value is E e^{<x, S>} / (n-1)! over
    the uniform simplex S (Hermite-Genocchi), so it is at least
    e^-1 / (n-1)!, and the terms past j = 60 are below 2^-270 of it.
    """
    L, H = complete_homogeneous(kv, 60)
    return float(sum(Fraction(h, math.factorial(j + kv.n - 1) << L * j) for j, h in enumerate(H)))


def bspline_naive(kv: KnotVector, t: float, r: int = 0) -> float:
    """The explicit partial-fraction sum, exactly, correctly rounded to double.

    Returns sum_k (x_k - t)_+^e / W'(x_k), e = n-2-r, at any n.  The knots
    and t are doubles, so with a common 2^L they are integers X_k and T, and
    the sum is exactly 2^{L(r+1)} sum_{X_k > T} (X_k - T)^e / W_k over
    the integer table of ``_int_table``; ``_round_scaled_sum`` rounds it
    correctly.  No certificate is involved, interior zeros come out as 0.0,
    and a value beyond the double range raises OverflowError.
    """
    n = kv.n
    if not 0 <= r <= n - 2:
        raise ValueError(f"need 0 <= r <= n-2, got r={r}, n={n}")
    e = n - 2 - r
    # left of the support every summand is present (at x_0 the missing one
    # is 0 unless e = 0), so the sum is the divided difference over all n
    # knots of a polynomial of degree e < n - 1: exactly 0, which the
    # bracket would resolve only below the least subnormal
    if t < kv.xs[0] or (t == kv.xs[0] and e > 0):
        return 0.0
    L, X, W = _int_table(tuple(kv.xs.tolist()))
    num, den = float(t).as_integer_ratio()
    lt = den.bit_length() - 1
    # a t finer than every knot moves the common scale to 2^lt
    shift, T = max(lt - L, 0), num << max(L - lt, 0)
    terms = [(d**e, w) for x, w in zip(X, W) if (d := (x << shift) - T) > 0]
    return _round_scaled_sum(terms, L * (n - 1) - e * max(L, lt))


def _basis(xs: np.ndarray, ts: np.ndarray, order: int) -> np.ndarray:
    """All B-spline basis functions N_{i,order} on the given knots.

    Order counts spanned knot gaps: N_{i,1} is the indicator of
    [x_i, x_{i+1}).  Returns shape (n - order, len(ts)).

    Work is done only where a basis function can be nonzero.  Points
    outside [x_0, x_{n-1}) have every level-1 indicator 0, so their
    columns stay exact zeros.  The others are sorted and taken _CHUNK at a
    time; at level m a point in knot span j (x_j <= t < x_{j+1}) is nonzero
    only in rows j-m+1..j, so each level is one broadcast step over the
    chunk's band of rows and every row outside it stays an exact zero.

    Per chunk the table D[i] = t - x_i is formed once, and each level is
    five ufunc calls into two preallocated level buffers: two divides, two
    multiplies and one add.  The right-hand factor (x_{i+m} - t) /
    (x_{i+m} - x_{i+1}) is taken as D[i+m] / (x_{i+1} - x_{i+m}): both
    differences are the exact negations of the recursion's, and IEEE
    division is sign-symmetric, so every element is formed with the bits of
    the full recursion (the one signed zero this moves, at t = x_{i+m}, is
    added to a +0 or a positive left term).  The working set is D, the
    triangle and the two level buffers: at most (4n - 3) * _CHUNK doubles.
    """
    n = xs.size
    out = np.zeros((n - order, ts.size))
    inside = np.flatnonzero((xs[0] <= ts) & (ts < xs[-1]))
    inside = inside[np.argsort(ts[inside], kind="stable")]
    for start in range(0, inside.size, _CHUNK):
        cols = inside[start : start + _CHUNK]
        t = ts[cols]
        span = np.searchsorted(xs, t, side="right") - 1
        j_min, j_max = int(span[0]), int(span[-1])
        D = t - xs[:, None]
        # rows past the current band are exact zeros, as in the full triangle
        B = np.zeros((n - 1, t.size))
        B[span, np.arange(t.size)] = 1.0
        left, right = np.empty((2, n - 1, t.size))
        for m in range(2, order + 1):
            lo, hi = max(0, j_min - m + 1), min(j_max, n - m - 1) + 1
            x_lo, x_lo1 = xs[lo:hi, None], xs[lo + 1 : hi + 1, None]
            x_m1, x_m = xs[lo + m - 1 : hi + m - 1, None], xs[lo + m : hi + m, None]
            # (t - x_i) / (x_{i+m-1} - x_i) * B_i
            #   + (t - x_{i+m}) / (x_{i+1} - x_{i+m}) * B_{i+1}
            a = np.divide(D[lo:hi], x_m1 - x_lo, out=left[: hi - lo])
            a *= B[lo:hi]
            b = np.divide(D[lo + m : hi + m], x_lo1 - x_m, out=right[: hi - lo])
            b *= B[lo + 1 : hi + 1]
            np.add(a, b, out=B[lo:hi])
        out[:, cols] = B[: n - order]
    return out


def _deriv_coeffs(xs: np.ndarray, q: int):
    """Coefficients expressing d^q/dt^q N_{1,n-1} over order n-1-q basis."""
    m = xs.size - 1
    coeffs = np.array([1.0])
    for _ in range(q):
        new = np.zeros(coeffs.size + 1)
        for i, ci in enumerate(coeffs):
            new[i] += (m - 1) * ci / (xs[i + m - 1] - xs[i])
            new[i + 1] -= (m - 1) * ci / (xs[i + m] - xs[i + 1])
        coeffs = new
        m -= 1
    return coeffs, m


def bspline_stable_deriv(kv: KnotVector, t, q: int = 0):
    """q-th derivative of B via the de Boor derivative recursion (doubles).

    Accepts a scalar or an array of evaluation points.
    """
    if not 0 <= q <= kv.n - 2:
        raise ValueError(f"need 0 <= q <= n-2, got q={q}, n={kv.n}")
    xs = kv.xs
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    coeffs, order = _deriv_coeffs(xs, q)
    vals = coeffs @ _basis(xs, ts, order)
    vals = vals / (xs[-1] - xs[0])
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(vals[0])
    return vals


def bspline_stable(kv: KnotVector, t):
    """B(t) by the stable recursion; matches the oracle to 1e-10 relative."""
    return bspline_stable_deriv(kv, t, 0)


def integrate_bspline(kv: KnotVector) -> float:
    """Integral of B over its support, by knot-aligned Gauss-Legendre.

    On each knot interval B is a polynomial of degree n-2, so a rule with
    ceil((n-1)/2) + 1 nodes per panel integrates it exactly.
    """
    n_nodes = (kv.n - 1) // 2 + 2
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_nodes)
    a, b = kv.xs[:-1], kv.xs[1:]
    mids, halfs = 0.5 * (a + b), 0.5 * (b - a)
    # every panel's nodes in one kernel call, summed panel by panel
    vals = bspline_stable(kv, (mids[:, None] + halfs[:, None] * gl_x).ravel())
    total = 0.0
    for half, v in zip(halfs, vals.reshape(halfs.size, n_nodes)):
        total += half * float(gl_w @ v)
    return total
