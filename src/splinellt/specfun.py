"""Special functions: probabilists' Hermite, the integer coefficients of the
generalized Laguerre polynomial r! L_r^{(alpha)} at any integer (typically
negative) parameter, the oscillatory Laguerre sum that the Fourier transform
of the rescaled spline collapses to (its 2F0 form is the same integer
polynomial), and that transform as an exact power series, a route
independent of the sum at xi != 0.

Laguerre coefficients are exact products of integers; the parameter
alpha = -n-r+1 sits exactly on the gamma-function poles, so no gamma calls
appear anywhere here, and no Laguerre or 2F0 value is taken in floating point.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import PrecisionLoss
from .knots import KnotVector
from .splines import complete_homogeneous, oscillatory_sum, round_bracket

# corollary3_quadrature refuses a value whose fixed-point sum needs more bits
_SERIES_MAX_BITS = 1 << 13


def hermite(r: int, t):
    """Probabilists' Hermite polynomial He_r by the three-term recursion."""
    if r < 0:
        raise ValueError("degree must be >= 0")
    t = np.asarray(t, dtype=float) if np.ndim(t) else t
    if r == 0:
        return np.ones_like(t) if np.ndim(t) else 1.0
    h_prev, h = 1.0, t
    with np.errstate(invalid="ignore"):
        for k in range(1, r):
            h, h_prev = t * h - k * h_prev, h
    # the recursion meets inf - inf at t = +-inf, where He_r is (+-1)^r inf
    lim = t if r % 2 else abs(t)
    return np.where(np.isinf(t), lim, h) if np.ndim(t) else (lim if math.isinf(t) else h)


def hermite_function(r: int, t):
    """(2 pi)^{-1/2} He_r(t) e^{-t^2/2} = (-1)^r d^r/dt^r of the Gaussian pdf."""
    t = np.asarray(t, dtype=float) if np.ndim(t) else float(t)
    with np.errstate(invalid="ignore"):
        val = hermite(r, t) * np.exp(-np.square(t) / 2) / math.sqrt(2 * math.pi)
    # the Gaussian factor takes the limit at t = +-inf to 0, where the product reads inf * 0
    return np.where(np.isinf(t), 0.0, val) if np.ndim(t) else (0.0 if math.isinf(t) else val)


def laguerre_coefficients(r: int, alpha: int) -> list:
    """The integer coefficients of r! L_r^{(alpha)}(x), from x^0 up:
    (-1)^j C(r, j) (alpha+j+1)...(alpha+r), exact at every integer alpha,
    negative ones included."""
    if r < 0:
        raise ValueError("degree must be >= 0")
    return [(-1) ** j * math.comb(r, j) * math.prod(range(alpha + j + 1, alpha + r + 1))
            for j in range(r + 1)]


def _i_pow(k: int, v: int) -> tuple:
    """i^k v as a (real, imaginary) pair of integers."""
    return ((v, 0), (0, v), (-v, 0), (0, -v))[k % 4]


def corollary3_sum(kv: KnotVector, r: int, xi: float) -> complex:
    """The Laguerre-weighted exponential sum approximating He_r(xi) e^{-xi^2/2}.

    C_{r,n} / xi^{n+r-1} * sum_k e^{-i n xi x_k} L_r^{(-n-r+1)}(i n xi x_k) / W'(x_k)
    with C_{r,n} = (-1)^r (n-2)! r! i^{n-1} / n^{n-2}, which equals the
    Fourier transform of t -> (it)^r B(t/n).  r! L_r^{(a)} has the integer
    coefficients of ``laguerre_coefficients``, so
    ``splines.oscillatory_sum`` rounds each part correctly, at any n and any
    xi != 0, taking the bits that the xi^{-(n+r-1)} prefactor cancels.  At
    xi = 0, where that prefactor is undefined, the value is the limit from
    corollary3_quadrature, the same transform as an exact power series.

    The coefficient of theta^j is i^{n-1+j} C(r, j) (n-1)_{r-j}, and the
    terminating 2F0 form multiplies out to the same polynomial,
    i^{n-1+r} theta^r 2F0(-r, n-1; i/theta): the Laguerre and 2F0 sums of
    Corollary 3 are one sum.
    """
    if r > 6:
        raise ValueError("r <= 6 required")
    if xi == 0:
        return corollary3_quadrature(kv, r, (0.0,))[0]
    n = kv.n
    pref = Fraction(math.factorial(n - 2), n ** (n - 2)) / Fraction(xi) ** (n + r - 1)
    # (-1)^r i^{n-1} r! L_r^{(-n-r+1)}(i theta)
    coeffs = [_i_pow(n - 1 + j, (-1) ** r * c)
              for j, c in enumerate(laguerre_coefficients(r, 1 - n - r))]
    return oscillatory_sum(kv, n * Fraction(xi), coeffs, pref)


def corollary3_sum_2f0(kv: KnotVector, r: int, xi: float) -> complex:
    """The terminating-2F0 form of ``corollary3_sum``, which it returns.

    Multiplied out to a polynomial in theta = n xi x_k, the 2F0 form has the
    Laguerre sum's integer coefficients, so the two are one value.  The name
    stays callable only because the traced benchmark (``bench/tracing.py``)
    wraps it; its deletion waits for the benchmark regeneration of ROADMAP
    item 1.  It refuses xi = 0, where the 2F0 argument i/theta is undefined.
    """
    if xi == 0:
        raise ValueError("the 2F0 route needs xi != 0")
    return corollary3_sum(kv, r, xi)


def _tail(xi: float, y: Fraction, n: int, r: int, P: int) -> tuple:
    """(K, T): the least K >= z - 1, z = y |xi|, whose float estimate puts
    the terms past j = r + K below 2^-P, and T >= 2^P n/(n-1) y^r sum_{k>K}
    z^k/k! by z^{K+1}/(K+1)! / (1 - z/(K+2)); (0, 0) at z = 0.  PrecisionLoss
    when P bits and log2 e^z (the largest term) pass _SERIES_MAX_BITS."""
    z = y * abs(Fraction(xi))
    if P + z * math.log2(math.e) > _SERIES_MAX_BITS:
        raise PrecisionLoss(f"Corollary-3 series needs over {_SERIES_MAX_BITS} bits at P={P}")
    c = math.log(n / (n - 1)) + r * math.log(y) + P * math.log(2)
    K, zf = max(0, math.ceil(z) - 1), float(z)
    while zf and c + (K + 1) * math.log(zf) - math.lgamma(K + 2) - math.log(1 - zf / (K + 2)) > 0:
        K += 1
    tail = Fraction(n, n - 1) * y**r * z ** (K + 1) / math.factorial(K + 1) / (1 - z / (K + 2))
    return K, -((-tail.numerator << P) // tail.denominator)


def _series_sums(L: int, H: tuple, n: int, r: int, xi: float, J: int, P: int) -> tuple:
    """Per part (0 real, 1 imaginary), the sum of floor(2^P term_j) over
    j = r..J of its parity and the number of terms, where term_j is
    n^{r+1} (n-2)! j! / ((j+n-1)! (j-r)!) h_j (n xi)^{j-r} i^{2r-j}, h_j =
    H_j / 2^{Lj}, and i^{2r-j} = (-1)^{r - ceil(j/2)}, real for even j."""
    m, d = xi.as_integer_ratio()
    e, w = d.bit_length() - 1, n * m
    num = n ** (r + 1) * math.factorial(n - 2) * math.factorial(r)
    den, power, sums, counts = math.factorial(r + n - 1), 1, [0, 0], [0, 0]
    for j in range(r, J + 1):
        t = num * H[j] * power * (-1) ** (r + (j + 1) // 2)
        shift = P - L * j - e * (j - r)
        sums[j % 2] += (t << shift) // den if shift >= 0 else t // (den << -shift)
        counts[j % 2] += 1
        num, den, power = num * (j + 1), den * (j + n) * (j - r + 1), power * w
    return sums, counts


def corollary3_quadrature(kv: KnotVector, r: int, xis) -> list:
    """Oracle route: the integral of (i t)^r B(t/n) e^{-i t xi} dt as an
    exact power series, one complex value per xi in ``xis``, its real and
    imaginary parts each correctly rounded, at any n >= 2 and r >= 0.

    Since [x_0..x_{n-1}] t^{j+n-1} = h_j(x), the complete homogeneous sum,
    M = (n-1) B has the entire transform sum_j (n-1)!/(j+n-1)! h_j (-i w)^j,
    and the integral is n/(n-1) (-d/dxi)^r of it at w = n xi, taken term by
    term (``_series_sums``) from one table of H_j = 2^{Lj} h_j
    (``splines.complete_homogeneous``), rebuilt longer only when a xi needs
    more terms.  Each part is summed in fixed point at P bits, each term
    floor-divided, plus a bound on the terms left out (``_tail``: term j is
    at most n/(n-1) y^r z^{j-r}/(j-r)!, y = n max|x|, z = y |xi|).  P doubles
    until ``splines.round_bracket`` resolves the bracket, or past
    _SERIES_MAX_BITS the route raises PrecisionLoss.  At xi = 0 nothing is
    left out and the sum is its one term j = r; on exactly symmetric knots
    every odd h_j is 0, so the imaginary part is +0.0, unbracketed.
    """
    if r < 0:
        raise ValueError("r >= 0 required")
    n, xs, xis = kv.n, kv.xs.tolist(), [float(xi) for xi in xis]
    y = n * Fraction(max(map(abs, xs)))
    K = max((_tail(xi, y, n, r, 128)[0] for xi in xis), default=0)
    L, H = complete_homogeneous(kv, r + K)
    out = []
    for xi in xis:
        parts, P = [None, 0.0 if kv.symmetric else None], 128
        while None in parts:
            K, tail = _tail(xi, y, n, r, P)
            if r + K >= len(H):
                L, H = complete_homogeneous(kv, r + K)
            sums, counts = _series_sums(L, H, n, r, xi, r + K, P)
            parts = [round_bracket(a - tail, a + c + tail, 1, -P) if v is None else v
                     for v, a, c in zip(parts, sums, counts)]
            P *= 2
        out.append(complex(*parts))
    return out
