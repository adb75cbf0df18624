"""Special functions: probabilists' Hermite, generalized Laguerre with
arbitrary (typically negative integer) parameter, terminating 2F0, and the
oscillatory Laguerre sum that the Fourier transform of the rescaled spline
collapses to.

Laguerre coefficients are built from running products only; the parameter
alpha = -n-r+1 sits exactly on the gamma-function poles, so no gamma calls
appear anywhere here.
"""

import functools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import PrecisionLoss, QuadratureNotConverged
from .knots import KnotVector
from .splines import (
    ORACLE_DPS,
    ORACLE_MAX_N,
    certify,
    partial_fraction_sum,
    spline_panels,
)

XI_MIN = 0.05
# corollary3_quadrature refuses above this relative error bound, as certify
# does, and caps its sub-panels per knot panel so that a large |xi| raises
# instead of running for minutes
_QUAD_RTOL = 1e-10
_QUAD_MAX_SPLITS = 64


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
    Fourier transform of t -> (it)^r B(t/n).  Below |xi| = XI_MIN the
    removable singularity is handled by the equivalent oscillatory-moment
    quadrature (see corollary3_quadrature).
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


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m: int, prec: int) -> tuple:
    """The m-point Gauss-Legendre rule on [-1, 1] as pairs (u, w), u >= 0,
    each standing for the nodes +u and -u of weight w.

    mpmath's nodes and weights are symmetric to rounding; each mirrored
    pair is averaged, so the rule is exactly symmetric, and an odd m's
    middle node 0 enters with half its weight, counted once at +0 and once
    at -0.
    """
    with mp.workprec(prec):
        us, ws = mp.gauss_quadrature(m, "legendre")
        pairs = [((us[m - 1 - i] - us[i]) / 2, (ws[i] + ws[m - 1 - i]) / 2) for i in range(m // 2)]
        if m % 2:
            pairs.append((mp.mpf(0), ws[m // 2] / 2))
        return tuple(pairs)


def corollary3_quadrature(kv: KnotVector, r: int, xis) -> list:
    """Oracle route: integral of (i t)^r B(t/n) e^{-i t xi} dt, certified,
    one complex value per xi in ``xis``.

    Equals corollary3_sum identically (Fourier transform of the r-th
    moment-weighted rescaled spline); finite at xi = 0.  On each knot panel
    [n x_k, n x_{k+1}] the factor (i t)^r B(t/n) is a polynomial of degree
    d = n-2+r, so an m-point Gauss-Legendre rule, m = floor(d/2) + 17, is
    exact on it and only e^{-i t xi} is approximated.  The sum runs at 40
    digits plus 20 guard bits.  B at a node comes exactly from the panel's
    integer polynomial (``splines.spline_panels``), rounded once; it and
    the weight w h t^r are formed once per panel and split level and serve
    every xi.  The rule is symmetric about each sub-panel's centre c, so
    the nodes c +- h u share one e^{-i h u xi}, and e^{-i c xi} is taken
    once per sub-panel.

    Error bound: on a panel of half-width h, the Taylor remainder of
    e^{-i u h xi} beyond the degree 2m-1-d that the rule keeps exact, times
    |t|^r <= max|n x|^r and B <= 1/(x_{n-1} - x_0); a panel is split into
    equal sub-panels only when that term needs it, for each xi on its own.
    Rounding adds sum |w h t^r B| eps times the panel's node count, eps
    being the working epsilon with two digits of slack.  Raises
    QuadratureNotConverged when the bound exceeds 1e-10 of the value, or
    when a panel would need more than _QUAD_MAX_SPLITS sub-panels.  At
    xi = 0 the value is i^r times a moment of B, and symmetric knots make
    the odd ones exactly 0: there a value within its bound of zero is
    returned as exactly 0.
    """
    _check_c3_args(kv, r)
    n, d = kv.n, kv.n - 2 + r
    m = d // 2 + 17
    k1 = 2 * m - d  # the rule is exact on e^{-i t xi}'s Taylor terms below this degree
    spline = spline_panels(kv)
    with mp.workdps(40), mp.workprec(mp.mp.prec + 20):
        xs = [mp.mpf(x) for x in kv.xs.tolist()]
        rule_pairs = _gauss_legendre(m, mp.mp.prec)
        eps = 100 * mp.eps
        # per panel: its ends, half-width, and 4 h max|t|^r max B / k1!,
        # which times (h |xi| / splits)^k1 bounds the truncation error
        panels = []
        for a, b in zip(xs[:-1], xs[1:]):
            a, b, h = n * a, n * b, n * (b - a) / 2
            coef = 4 * h * max(-a, b) ** r / (xs[-1] - xs[0]) / mp.factorial(k1)
            panels.append((a, b, h, coef))
        rules = {}

        def rule(k, splits):
            """Panel k cut into equal sub-panels, as (sub-panels, rounding
            bound): per sub-panel its centre c and, per node pair, (h u,
            f+ + f-, f+ - f-) with f+- = w h t^r B(t/n) at t = c +- h u.
            Formed once per call."""
            if (k, splits) not in rules:
                a, b, _, _ = panels[k]
                h = (b - a) / (2 * splits)
                subpanels, sizes = [], []
                for j in range(splits):
                    c = a + (2 * j + 1) * h
                    pairs = []
                    for u, w in rule_pairs:
                        hu = h * u
                        fp, fm = (w * h * t**r * spline[k](t / n) for t in (c + hu, c - hu))
                        pairs.append((hu, fp + fm, fp - fm))
                        sizes += [abs(fp), abs(fm)]
                    subpanels.append((c, pairs))
                rules[k, splits] = subpanels, mp.fsum(sizes) * len(sizes) * eps
            return rules[k, splits]

        def panel(k, splits, xim):
            """(sum, rounding bound, truncation bound) on panel k at xi."""
            subpanels, rounding = rule(k, splits)
            value = mp.mpc(0)
            for c, pairs in subpanels:
                # e^{-i c xi} sum f+ e^{-i h u xi} + f- e^{i h u xi}
                re = im = mp.mpf(0)
                for hu, plus, minus in pairs:
                    cos, sin = mp.cos_sin(hu * xim)
                    re += plus * cos
                    im -= minus * sin
                value += mp.mpc(re, im) * mp.expj(-c * xim)
            _, _, h, coef = panels[k]
            return value, rounding, coef * (h * abs(xim) / splits) ** k1

        def value_at(xim):
            splits = [1] * len(panels)
            while max(splits) <= _QUAD_MAX_SPLITS:
                parts = zip(*(panel(k, sk, xim) for k, sk in enumerate(splits)))
                value, rounding, truncation = (mp.fsum(col) for col in parts)
                limit = _QUAD_RTOL * abs(value)
                if rounding + truncation <= limit:
                    return complex(mp.mpc(0, 1) ** r * value)
                # give each panel an equal share of what rounding leaves
                target = (limit - rounding) / len(panels)
                if target <= 0:
                    break
                grown = [
                    max(sk, int(mp.ceil(h * abs(xim) * (coef / target) ** (mp.mpf(1) / k1))))
                    for (_, _, h, coef), sk in zip(panels, splits)
                ]
                if grown == splits:
                    break
                splits = grown
            bound = rounding + truncation
            if xim == 0 and abs(value) <= bound:
                return 0j
            raise QuadratureNotConverged(
                f"Corollary-3 quadrature error bound {float(bound):.2e} "
                f"above {_QUAD_RTOL:g} of |value| {float(abs(value)):.2e}"
            )

        return [value_at(mp.mpf(float(xi))) for xi in xis]
