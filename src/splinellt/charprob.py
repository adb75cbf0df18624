"""Characteristic-function machinery for the exponential projection vector.

For xi in R^2 and t_k = <xi, v_k>, the characteristic function of
Q = sum v_k (P_k - 1) factorizes over k and equals e^{F + iG} with

    F = -1/2 sum ln(1 + t_k^2),    G = -sum (t_k - arctan t_k),

to be compared with the Gaussian exponent H = -|xi|^2/2.  This module
evaluates the state, its closed-form first derivatives, the xi-space L^1
closeness integral, 2-D Fourier inversion of the density, and quotient
densities (including the Gaussian-ratio benchmark).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import PrecisionLoss, QuadratureNotConverged
from .knots import KnotVector

_TAIL_THRESHOLD = 1e-12
INVERSION_TAIL_THRESHOLD = 1e-14
_R_MIN = 12.0
_R_CAP = 200.0


@dataclass(frozen=True)
class CharState:
    xi: tuple
    t: np.ndarray
    F: float
    G: float
    H: float
    Z: complex


def _tk(kv: KnotVector, xi1, xi2):
    """t_k = <xi, v_k> for scalar or array xi coordinates; k on the last axis."""
    return np.multiply.outer(xi1, kv.xs) + np.multiply.outer(
        xi2, np.full(kv.n, kv.n**-0.5)
    )


def _log_modulus(t):
    return -0.5 * np.log1p(t * t).sum(axis=-1)


def _phase(t):
    return -(t - np.arctan(t)).sum(axis=-1)


def eval_char_state(kv: KnotVector, xi) -> CharState:
    xi1, xi2 = float(xi[0]), float(xi[1])
    t = _tk(kv, xi1, xi2)
    F = float(_log_modulus(t))
    G = float(_phase(t))
    H = -0.5 * (xi1 * xi1 + xi2 * xi2)
    return CharState(xi=(xi1, xi2), t=t, F=F, G=G, H=H, Z=complex(F, G))


def phi_Q(kv: KnotVector, xi) -> complex:
    t = _tk(kv, float(xi[0]), float(xi[1]))
    vals = np.exp(-1j * t) / (1 - 1j * t)
    return complex(np.prod(vals))


def grad_FG(kv: KnotVector, xi, b: int):
    """Closed-form (dF/dxi_b, dG/dxi_b).

    dF/db = -sum v_kb t_k / (1 + t_k^2),  dG/db = -sum v_kb t_k^2 / (1 + t_k^2).
    """
    if b not in (1, 2):
        raise ValueError("b must be 1 or 2")
    t = _tk(kv, float(xi[0]), float(xi[1]))
    vb = kv.xs if b == 1 else np.full(kv.n, kv.n**-0.5)
    denom = 1 + t * t
    dF = -float((vb * t / denom).sum())
    dG = -float((vb * t * t / denom).sum())
    return dF, dG


def truncation_radius(kv: KnotVector, ell: int = 0, threshold: float = _TAIL_THRESHOLD):
    """Smallest radius >= 12 where max_theta |xi|^ell e^F drops below threshold.

    Returns (R, certified).  For very small n the product decays too slowly
    for any certified radius; the search then stops at a hard cap and the
    caller learns so through certified=False.
    """
    thetas = np.linspace(0, 2 * np.pi, 181)
    c, s = np.cos(thetas), np.sin(thetas)
    r = _R_MIN
    while r <= _R_CAP:
        worst = float(np.max(r**ell * np.exp(_log_modulus(_tk(kv, r * c, r * s)))))
        if worst < threshold:
            return r, True
        r *= 1.25
    return _R_CAP, False


def _polar_panels(R: float, n_panels: int):
    gl_x, gl_w = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(0.0, R, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * np.diff(edges)
    rs = (mids[:, None] + halfs[:, None] * gl_x[None, :]).ravel()
    ws = (halfs[:, None] * gl_w[None, :]).ravel()
    return rs, ws


def char_diff_integral(kv: KnotVector, ell: int = 0) -> float:
    """Polar quadrature of |xi|^ell |e^{F+iG} - e^H| over the plane.

    Radius is truncated where the slower of the two tails is below 1e-12;
    panels double until the estimate moves by less than 1e-9.
    """
    if ell > 6:
        raise ValueError("ell <= 6 required")
    R, _ = truncation_radius(kv, ell)
    prev = None
    n_theta = max(64, 2 * kv.n)
    for n_panels in (8, 16, 32, 64, 128):
        rs, ws = _polar_panels(R, n_panels)
        thetas = (np.arange(n_theta) + 0.5) * (2 * np.pi / n_theta)
        c, s = np.cos(thetas), np.sin(thetas)
        total = 0.0
        # keep the (radial nodes x angles x knots) workspace around ~4e6 floats
        rows = max(1, 4_000_000 // (n_theta * kv.n))
        n_chunks = max(1, math.ceil(rs.size / rows))
        for r_chunk, w_chunk in zip(np.array_split(rs, n_chunks), np.array_split(ws, n_chunks)):
            t = _tk(kv, np.multiply.outer(r_chunk, c), np.multiply.outer(r_chunk, s))
            F = _log_modulus(t)
            G = _phase(t)
            H = -0.5 * np.square(r_chunk)[:, None]
            diff = np.abs(np.exp(F + 1j * G) - np.exp(H))
            integrand = (r_chunk**ell * r_chunk)[:, None] * diff
            total += float((w_chunk @ integrand).sum()) * (2 * np.pi / n_theta)
        if prev is not None and abs(total - prev) < 1e-9:
            return total
        prev = total
        n_theta *= 2
    raise QuadratureNotConverged("char_diff_integral refinement stalled")


def _phi_node_chunks(kv: KnotVector, R: float, n_panels: int, n_theta: int):
    """Yield (xi1, xi2, weight * phi_Q) over quadrature nodes, chunked.

    Chunking keeps peak memory flat: the full node set at the finest
    refinement runs to millions of points, and a chunk holds about 200 000.
    """
    rs, ws = _polar_panels(R, n_panels)
    thetas = (np.arange(n_theta) + 0.5) * (2 * np.pi / n_theta)
    c, s = np.cos(thetas), np.sin(thetas)
    rows = max(1, 200_000 // n_theta)
    for lo in range(0, rs.size, rows):
        r_chunk, w_chunk = rs[lo : lo + rows], ws[lo : lo + rows]
        xi1 = np.multiply.outer(r_chunk, c).ravel()
        xi2 = np.multiply.outer(r_chunk, s).ravel()
        w = (
            np.multiply.outer(r_chunk * w_chunk, np.ones(n_theta))
            * (2 * np.pi / n_theta)
        ).ravel()
        # t is built twice rather than held through both sums: holding it
        # raised the n=16 inversion's peak RSS from 1084 to 1146 MB
        phi = np.exp(_log_modulus(_tk(kv, xi1, xi2)) + 1j * _phase(_tk(kv, xi1, xi2)))
        yield xi1, xi2, w * phi


def pdf_Q_inversion_grid(kv: KnotVector, s1, s2):
    """Density of Q on the grid s1 x s2 by 2-D Fourier inversion.

    Returns the pdf array of shape (len(s1), len(s2)).  Panel counts double
    until the whole grid moves by less than 1e-9; raises
    QuadratureNotConverged if that never happens or if the converged grid
    keeps an imaginary part above 1e-8.
    """
    if kv.n > 64:
        raise PrecisionLoss("inversion quadrature limited to n <= 64")
    s1 = np.atleast_1d(np.asarray(s1, dtype=float))
    s2 = np.atleast_1d(np.asarray(s2, dtype=float))
    R, _ = truncation_radius(kv, 0, threshold=INVERSION_TAIL_THRESHOLD)
    prev = None
    n_theta = 256
    for n_panels in (16, 32, 64, 128, 256):
        vals = np.zeros((s1.size, s2.size), dtype=complex)
        for xi1, xi2, wphi in _phi_node_chunks(kv, R, n_panels, n_theta):
            E1 = np.exp(-1j * np.multiply.outer(s1, xi1))
            E2 = np.exp(-1j * np.multiply.outer(s2, xi2))
            vals += (E1 * wphi[None, :]) @ E2.T
        vals /= 4 * np.pi**2
        if prev is not None and np.max(np.abs(vals - prev)) < 1e-9:
            max_imag = float(np.max(np.abs(vals.imag)))
            if max_imag > 1e-8:
                raise QuadratureNotConverged(f"imaginary residue {max_imag:.2e} too large")
            return vals.real
        prev = vals
        n_theta *= 2
    raise QuadratureNotConverged("pdf_Q_inversion_grid refinement stalled")


def quotient_pdf(joint, s: float, y_range, tol: float = 1e-10) -> float:
    """PDF of X1/X2 at s from the joint density: int |y| joint(sy, y) dy.

    ``y_range`` is the truncation interval for y, supplied by the caller.
    """
    a, b = y_range
    pts = [0.0] if a < 0 < b else None
    val, err = integrate.quad(
        lambda y: abs(y) * joint(s * y, y),
        a,
        b,
        epsabs=tol,
        epsrel=tol,
        limit=300,
        points=pts,
    )
    if err > max(tol, 1e-8 * abs(val)) * 100:
        raise QuadratureNotConverged(f"quotient_pdf error estimate {err:.2e}")
    return val


def gaussian_joint(a, b):
    """Standard 2-D Gaussian density."""
    return math.exp(-(a * a + b * b) / 2) / (2 * math.pi)


def pdf_gaussian_ratio(n: int, t: float) -> float:
    """Density of N1 / (1 + n^{-1/2} N2) at t; tends to the Gaussian pdf."""
    if n < 2:
        raise ValueError("n >= 2 required")
    rt = n**-0.5

    def joint(a, b):
        # second coordinate is 1 + n^{-1/2} N2
        z = (b - 1.0) / rt
        return (
            math.exp(-a * a / 2)
            / math.sqrt(2 * math.pi)
            * math.exp(-z * z / 2)
            / math.sqrt(2 * math.pi)
            / rt
        )

    return quotient_pdf(joint, t, (1.0 - 12.0 * rt, 1.0 + 12.0 * rt))
