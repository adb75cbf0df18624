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
  ``partial_fraction_sum`` divides the extended-precision (mpmath)
  numerators of the two Corollary-3 sums in ``specfun`` by them exactly,
  and ``spline_panels`` turns it into one exact polynomial per knot
  panel, which the Corollary-3 quadrature evaluates exactly at its mpf
  nodes.
* ``bspline_stable`` evaluates the identical spline through the
  triangular Cox-de Boor recursion in plain doubles, which involves only
  convex combinations and is safe for large n.  It works only where B is
  nonzero: points outside [x_0, x_{n-1}) are exact zeros at no cost, and
  the rest are sorted and run in chunks of _CHUNK points, each level of
  the triangle one broadcast step over the band of rows the chunk's knot
  spans reach.  The values are bit-identical to the full row-by-row
  triangle, and memory is bounded by (n - 1) * _CHUNK doubles per
  temporary, whatever the number of points.

Derivatives are never taken numerically: exponent reduction in the naive
sum and coefficient differencing in the stable recursion are both exact.
"""

import functools
import math

import mpmath as mp
import numpy as np

from .errors import DuplicateKnots, PrecisionLoss
from .knots import KnotVector

# digits and largest n of the extended-precision sums (the Corollary-3 routes)
ORACLE_DPS = 140
ORACLE_MAX_N = 24
# points per Cox-de Boor chunk: the working set is (n - 1) * _CHUNK doubles
_CHUNK = 256


def partial_fraction_sum(kv: KnotVector, term):
    """(sum_k term(x_k) / W'(x_k), max_k |summand|) at the current precision.

    ``term`` maps an mpf knot to its numerator, or to None where the summand
    vanishes.  The two Corollary-3 sums take this form; B is the same sum
    with numerator (x_k - t)_+^{n-2-r}, which ``bspline_naive`` and
    ``spline_panels`` (for the Corollary-3 quadrature) form exactly in
    integers instead.  1/W'(x_k) = 2^{L(n-1)} / W_k over the exact integer
    table of ``_int_table``, so each summand is rounded once, in the
    division, and the W' enter ``certify`` without error.
    """
    L, _, W = _int_table(tuple(kv.xs.tolist()))
    scale = mp.ldexp(mp.mpf(1), L * (kv.n - 1))
    total = biggest = mp.mpf(0)
    for x, w in zip(kv.xs.tolist(), W):
        num = term(mp.mpf(x))
        if num is not None:
            summand = num / w * scale
            total += summand
            biggest = max(biggest, abs(summand))
    return total, biggest


def certify(total, biggest):
    """``total``, or PrecisionLoss when the rounding error estimate (largest
    summand times the ORACLE_DPS epsilon, two digits of slack) exceeds 1e-10
    of it."""
    err = biggest * mp.mpf(10) ** (2 - ORACLE_DPS)
    if abs(total) > 0 and err > mp.mpf("1e-10") * abs(total):
        raise PrecisionLoss(f"cancellation too severe: est rel err {float(err / abs(total)):.2e}")
    return total


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


def _to_double(a: int, k: int):
    """a * 2^k correctly rounded to double (CPython rounds int / int and
    float(int) correctly), or None beyond the double range."""
    try:
        return a / (1 << -k) if k < 0 else float(a << k)
    except OverflowError:
        return None


def wprime(kv: KnotVector, k: int):
    """W'(x_k) = prod_{j != k} (x_k - x_j), correctly rounded to double at
    any n (None beyond the double range)."""
    L, _, W = _int_table(tuple(kv.xs.tolist()))
    return _to_double(W[k], -L * (kv.n - 1))


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
        lo, hi = _to_double(a, s - p), _to_double(a + m, s - p)
        if lo is not None and lo == hi:
            return lo + 0.0
        if p - s >= q_zero:
            break
        mag = abs(a) - m
        q = p - s + max(32, 60 + m.bit_length() - mag.bit_length()) if mag > m else q_zero
    den = math.lcm(*(w for _, w in terms))
    num = sum(c * (den // w) for c, w in terms)
    return (num << s) / den + 0.0 if s >= 0 else num / (den << -s) + 0.0


def _panel_value(L: int, mid: int, coeffs: tuple, den: int, s):
    """One panel of ``spline_panels`` at the mpf s, rounded once."""
    sign, man, exp, _ = s._mpf_
    man = -man if sign else man
    # D = s 2^{L+1} - mid = d / 2^g, exactly
    g = -(exp + L + 1)
    d = man - (mid << g) if g > 0 else (man << -g) - mid
    g = max(g, 0)
    p = len(coeffs) - 1
    # acc = 2^{g p} sum_i N_i D^i
    acc = coeffs[p]
    for i in range(p - 1, -1, -1):
        acc = acc * d + (coeffs[i] << g * (p - i))
    raw = mp.libmp.from_rational(acc, den, mp.mp.prec, mp.libmp.round_nearest)
    return mp.make_mpf(mp.libmp.mpf_shift(raw, L - p - g * p))


def spline_panels(kv: KnotVector) -> list:
    """B on each knot panel [x_k, x_{k+1}], as one exact polynomial per panel.

    On panel k, B(s) = sum_{j>k} (x_j - s)^p / W'(x_j), p = n-2, is a single
    polynomial.  With the integer table of ``_int_table`` taken at the scale
    2^{L+1}, where the panel midpoint M = X_k + X_{k+1} is an integer, and
    D = s 2^{L+1} - M, it is

        B(s) = 2^{L-p} sum_i N_i D^i / den,
        N_i = (-1)^i C(p, i) sum_{j>k} (2 X_j - M)^{p-i} den / W_j,

    den being the least common multiple of the W_j, j > k, and the N_i and
    den then divided by their greatest common divisor.  Returns one
    function per panel that maps an mpf s in the panel (a dyadic rational)
    to B(s), formed exactly by integer Horner and rounded once at the
    current precision.
    """
    L, X, W = _int_table(tuple(kv.xs.tolist()))
    p = kv.n - 2
    panels = []
    for k in range(kv.n - 1):
        mid = X[k] + X[k + 1]
        den = math.lcm(*W[k + 1 :])
        sums = [0] * (p + 1)
        for xj, wj in zip(X[k + 1 :], W[k + 1 :]):
            a, term = 2 * xj - mid, den // wj
            for i in range(p, -1, -1):
                sums[i] += term
                term *= a
        coeffs = [(-1) ** i * math.comb(p, i) * c for i, c in enumerate(sums)]
        # the sum over j > k is minus the one over j <= k, so near the ends
        # of the support the fraction reduces to a far smaller denominator
        g = math.gcd(den, *coeffs)
        coeffs = tuple(c // g for c in coeffs)
        panels.append(functools.partial(_panel_value, L, mid, coeffs, den // g))
    return panels


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
    Inside the band each element is formed by the same expression in the
    same order as the full recursion, so the values are bit-identical to
    it, and each temporary holds at most (n - 1) * _CHUNK doubles.
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
        # rows past the current band are exact zeros, as in the full triangle
        B = np.zeros((n - 1, t.size))
        B[span, np.arange(t.size)] = 1.0
        for m in range(2, order + 1):
            lo, hi = max(0, j_min - m + 1), min(j_max, n - m - 1) + 1
            x_lo, x_lo1 = xs[lo:hi, None], xs[lo + 1 : hi + 1, None]
            x_m1, x_m = xs[lo + m - 1 : hi + m - 1, None], xs[lo + m : hi + m, None]
            # (t - x_i) / (x_{i+m-1} - x_i) * B_i
            #   + (x_{i+m} - t) / (x_{i+m} - x_{i+1}) * B_{i+1}, op for op
            left = t - x_lo
            left /= x_m1 - x_lo
            left *= B[lo:hi]
            right = x_m - t
            right /= x_m - x_lo1
            right *= B[lo + 1 : hi + 1]
            np.add(left, right, out=B[lo:hi])
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


def divided_difference(pairs) -> float:
    """Divided difference of tabulated (node, value) pairs by the recursive triangle."""
    pts = list(pairs)
    nodes = [float(p[0]) for p in pts]
    if len(set(nodes)) != len(nodes):
        raise DuplicateKnots("divided difference needs distinct nodes")
    col = [float(p[1]) for p in pts]
    for step in range(1, len(pts)):
        col = [
            (col[i + 1] - col[i]) / (nodes[i + step] - nodes[i])
            for i in range(len(col) - 1)
        ]
    return col[0]


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
