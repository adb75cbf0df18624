"""Special functions: probabilists' Hermite, generalized Laguerre with
arbitrary (typically negative integer) parameter, terminating 2F0, the
oscillatory Laguerre sum that the Fourier transform of the rescaled spline
collapses to, and that transform as an exact power series.

Laguerre coefficients are built from running products only; the parameter
alpha = -n-r+1 sits exactly on the gamma-function poles, so no gamma calls
appear anywhere here.
"""

import functools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import PrecisionLoss
from .knots import KnotVector
from .splines import ORACLE_DPS, ORACLE_MAX_N, certify, complete_homogeneous, partial_fraction_sum

XI_MIN = 0.05
# corollary3_quadrature refuses a value whose fixed-point sum needs more bits
_SERIES_MAX_BITS = 1 << 13


def hermite(r: int, t):
    """Probabilists' Hermite polynomial He_r by the three-term recursion."""
    if r < 0:
        raise ValueError("degree must be >= 0")
    t = np.asarray(t, dtype=float) if np.ndim(t) else t
    h_prev, h = 1.0, None
    if r == 0:
        return t * 0 + 1.0 if np.ndim(t) else 1.0
    h = t
    for k in range(1, r):
        h, h_prev = t * h - k * h_prev, h
    return h


def hermite_function(r: int, t):
    """(2 pi)^{-1/2} He_r(t) e^{-t^2/2} = (-1)^r d^r/dt^r of the Gaussian pdf."""
    t = np.asarray(t, dtype=float) if np.ndim(t) else float(t)
    return hermite(r, t) * np.exp(-np.square(t) / 2) / math.sqrt(2 * math.pi)


@functools.lru_cache(maxsize=None)
def _laguerre_coeff(r: int, alpha, j: int) -> Fraction:
    """The coefficient of x^j in L_r^{(alpha)}(x), exactly."""
    return Fraction((-1) ** j, math.factorial(j) * math.factorial(r - j)) * math.prod(
        (Fraction(alpha) + i for i in range(j + 1, r + 1)), start=Fraction(1)
    )


def laguerre(r: int, alpha, x):
    """Generalized Laguerre L_r^{(alpha)}(x) by its terminating series.

    Valid for every real alpha, including alpha < -1.  For an mpmath x each
    coefficient is formed exactly as a fraction and rounded once, at the
    working precision; for a Python number it is formed in floating point.
    """
    if r < 0:
        raise ValueError("degree must be >= 0")
    to_mp = isinstance(x, (mp.mpf, mp.mpc))
    total = 0
    for j in range(r + 1):
        if to_mp:
            c = _laguerre_coeff(r, alpha, j)
            c = mp.mpf(c.numerator) / c.denominator
        else:
            binom = math.prod(alpha + i for i in range(j + 1, r + 1)) / math.factorial(r - j)
            c = (-1) ** j / math.factorial(j) * binom
        total += c * x**j
    return total


def hyp2f0(r: int, a, z):
    """Terminating 2F0(-r, a; z): r+1 terms of rising factorials."""
    if r < 0:
        raise ValueError("r must be >= 0")
    total = 0
    for j in range(r + 1):
        rising_neg_r = math.prod(-r + i for i in range(j))
        rising_a = math.prod(a + i for i in range(j))
        total += rising_neg_r * rising_a * z**j / math.factorial(j)
    return total


def _check_c3_args(kv, r):
    if r > 6:
        raise ValueError("r <= 6 required")
    if kv.n > ORACLE_MAX_N:
        raise PrecisionLoss(f"extended-precision sum limited to n <= {ORACLE_MAX_N}")


def _c3_prefactor(n, r):
    return (
        mp.factorial(n - 2)
        * mp.factorial(r)
        * (-1) ** r
        * mp.mpc(0, 1) ** (n - 1)
        / mp.mpf(n) ** (n - 2)
    )


def corollary3_sum(kv: KnotVector, r: int, xi: float) -> complex:
    """The Laguerre-weighted exponential sum approximating He_r(xi) e^{-xi^2/2}.

    C_{r,n} / xi^{n+r-1} * sum_k e^{-i n xi x_k} L_r^{(-n-r+1)}(i n xi x_k) / W'(x_k)
    with C_{r,n} = (-1)^r (n-2)! r! i^{n-1} / n^{n-2}, which equals the
    Fourier transform of t -> (it)^r B(t/n).  The sum is certified at
    ORACLE_DPS digits and capped at n <= ORACLE_MAX_N.  Below |xi| = XI_MIN,
    where its xi^{-(n+r-1)} prefactor cancels the sum's removable
    singularity, it hands over to corollary3_quadrature, the same transform
    as an exact power series in xi (entire, so finite at xi = 0) that is
    correctly rounded and has no cap on n.
    """
    _check_c3_args(kv, r)
    if abs(xi) < XI_MIN:
        return corollary3_quadrature(kv, r, (xi,))[0]
    n = kv.n
    with mp.workdps(ORACLE_DPS):
        xim = mp.mpf(float(xi))
        w = mp.mpc(0, -1) * n * xim
        total = certify(*partial_fraction_sum(
            kv, lambda x: mp.exp(w * x) * laguerre(r, -n - r + 1, -w * x)
        ))
        return complex(_c3_prefactor(n, r) / xim ** (n + r - 1) * total)


def corollary3_sum_2f0(kv: KnotVector, r: int, xi: float) -> complex:
    """Same quantity through the derivative route and the terminating 2F0.

    The 2F0 argument 1/(n xi x_k) is rearranged into a polynomial in x_k so
    that knots at (or near) zero cost nothing.
    """
    _check_c3_args(kv, r)
    if xi == 0:
        raise ValueError("the 2F0 route needs xi != 0")
    n = kv.n
    with mp.workdps(ORACLE_DPS):
        xim = mp.mpf(float(xi))
        w = mp.mpc(0, -1) * n * xim
        # (-r)_j (n-1)_j / j! = (-1)^j C(r, j) (n-1)_j, an exact integer
        coeffs = [
            (-1) ** j * math.comb(r, j) * math.prod(n - 1 + i for i in range(j)) * w ** (-j)
            for j in range(r + 1)
        ]

        def term(x):
            poly = sum((cj * x ** (r - j) for j, cj in enumerate(coeffs)), mp.mpf(0))
            return mp.exp(w * x) * poly

        total = certify(*partial_fraction_sum(kv, term))
        # C_{r,n} / r!: the r! of the Laguerre polynomial is inside the 2F0
        pref = _c3_prefactor(n, r) / mp.factorial(r)
        val = pref * xim ** (-(n - 1)) * (mp.mpc(0, -1) * n) ** r * total
        return complex(val)


def _tail(xi: float, y: Fraction, n: int, r: int, P: int) -> tuple:
    """(K, T): the least K >= z - 1, z = y |xi|, whose float estimate puts
    the terms past j = r + K below 2^-P, and T >= 2^P n/(n-1) y^r sum_{k>K}
    z^k/k! by z^{K+1}/(K+1)! / (1 - z/(K+2)).  PrecisionLoss when P bits
    and log2 e^z (the largest term) pass _SERIES_MAX_BITS."""
    z = y * abs(Fraction(xi))
    if P + z * math.log2(math.e) > _SERIES_MAX_BITS:
        raise PrecisionLoss(f"Corollary-3 series needs over {_SERIES_MAX_BITS} bits at P={P}")
    c = math.log(n / (n - 1)) + r * math.log(y) + P * math.log(2)
    K = max(0, math.ceil(z) - 1)
    while c + (K + 1) * math.log(z) - math.lgamma(K + 2) - math.log(1 - z / (K + 2)) > 0:
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
    until both ends of the bracket round to the same double, or past
    _SERIES_MAX_BITS the route raises PrecisionLoss.  At xi = 0 the one term
    j = r is rounded exactly; on exactly symmetric knots every odd h_j is 0,
    so the imaginary part is +0.0, unbracketed.
    """
    if r < 0:
        raise ValueError("r >= 0 required")
    n, xs, xis = kv.n, kv.xs.tolist(), [float(xi) for xi in xis]
    y = n * Fraction(max(map(abs, xs)))
    K = max((_tail(xi, y, n, r, 128)[0] for xi in xis if xi), default=0)
    L, H = complete_homogeneous(kv, r + K)
    out = []
    for xi in xis:
        parts, P = [None, 0.0 if xs == [-x for x in reversed(xs)] else None], 128
        if xi == 0:
            # the one term j = r: n^{r+1} (n-2)! r! / (r+n-1)! h_r i^r
            t = n ** (r + 1) * math.factorial(n - 2) * math.factorial(r) * H[r] * (-1) ** (r // 2)
            parts = [0.0, 0.0]
            parts[r % 2] = t / (math.factorial(r + n - 1) << L * r) + 0.0
        while None in parts:
            K, tail = _tail(xi, y, n, r, P)
            if r + K >= len(H):
                L, H = complete_homogeneous(kv, r + K)
            sums, counts = _series_sums(L, H, n, r, xi, r + K, P)
            for i in (0, 1):
                lo, hi = (sums[i] - tail) / (1 << P), (sums[i] + counts[i] + tail) / (1 << P)
                if parts[i] is None and lo == hi and math.copysign(1, lo) == math.copysign(1, hi):
                    parts[i] = lo
            P *= 2
        out.append(complex(*parts))
    return out
