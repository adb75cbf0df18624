"""Characteristic-function machinery for the exponential projection vector.

For xi in R^2 and t_k = <xi, v_k>, the characteristic function of
Q = sum v_k (P_k - 1) factorizes over k and equals e^{F + iG} with

    F = -1/2 sum ln(1 + t_k^2),    G = -sum (t_k - arctan t_k),

to be compared with the Gaussian exponent H = -|xi|^2/2.  This module
evaluates the exponent, its closed-form first derivatives, the xi-space L^1
closeness integral, the density of Q in closed form and by a certified 2-D
Fourier inversion, and quotient densities (including the Gaussian-ratio
benchmark).  Both one-dimensional integrals, the radial part of the
closeness integral and the quotient lemma, use the same 12-point
Gauss-Legendre rule on equal panels, refined by doubling.  Both 2-D sums
use the symmetry of phi_Q under xi -> -xi to evaluate only half of the
plane: the closeness integral half of the angles, the inversion the rows
with xi1 >= 0.  Tables of t over a grid of xi are made by one walker,
_t_blocks: in blocks of about _CACHE_FLOATS values (_ray_step rows),
through a t buffer and a work array that every block reuses, so that
scratch does not grow with n or with the grid.  The inversion's rows of
Phi and the truncation radius and tail walk it; the closeness integral,
the one exception, walks t = r u over its radii inside each angle block
of u by the same step rule.  _phi is the one e^{F + iG}, and
_CACHE_FLOATS the module's one block size.
"""

import math

import numpy as np

from .errors import PrecisionLoss, QuadratureNotConverged
from .knots import KnotVector
from .splines import bspline_stable

_TAIL_THRESHOLD = 1e-12
_INVERSION_TAIL_THRESHOLD = 1e-14
_R_MIN = 12.0
_R_CAP = 200.0
_INVERSION_TOL = 1e-9
_ALIAS_TOL = 1e-12
_DELTA_MIN = 0.01
_TAIL_ANGLES = 2048
_CACHE_FLOATS = 1 << 15
_QUOTIENT_RTOL = 1e-10
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)


def _tk(kv: KnotVector, xi1, xi2, out=None):
    """t_k = <xi, v_k> for scalar or array xi coordinates; k on the last axis.

    t is formed in one array, ``out`` when given: xi1 x_k is written and
    xi2 n^{-1/2} added to it, the same products and sum as the two outer
    products of xi1 with x and of xi2 with n^{-1/2} added, without a
    second table of t's size.
    """
    xi1, xi2 = np.asarray(xi1)[..., None], np.asarray(xi2)[..., None]
    if out is None:
        out = np.empty(np.broadcast(xi1, xi2, kv.xs).shape)
    np.multiply(xi1, kv.xs, out=out)
    out += xi2 * kv.n**-0.5
    return out


def _ray_step(kv: KnotVector, count: int, width: int) -> int:
    """Rows of width points per block of t: about _CACHE_FLOATS values, 1 to count rows."""
    return min(count, max(1, _CACHE_FLOATS // (width * kv.n)))


def _t_blocks(kv: KnotVector, x, y):
    """Yield (rows, t, work) over the broadcast grid (x, y), _ray_step rows at a time.

    The rows are those of the first axis.  t is written into one buffer
    that every block reuses, and work, an array of t's shape, is the one
    work array; each point's values depend on its own n values of t only,
    so the blocking does not move a bit.
    """
    x, y = np.broadcast_arrays(x, y)
    step = _ray_step(kv, len(x), math.prod(x.shape[1:]))
    t_buf, work = (np.empty((step, *x.shape[1:], kv.n)) for _ in range(2))
    for lo in range(0, len(x), step):
        hi = min(lo + step, len(x))
        yield slice(lo, hi), _tk(kv, x[lo:hi], y[lo:hi], out=t_buf[: hi - lo]), work[: hi - lo]


def _log_modulus(t, out=None):
    """F from t; ``out``, an array of t's shape, is overwritten as work space."""
    return -0.5 * np.log1p(np.multiply(t, t, out=out), out=out).sum(axis=-1)


def _phase(t, out=None):
    """G from t; ``out``, an array of t's shape, is overwritten as work space."""
    return -np.subtract(t, np.arctan(t, out=out), out=out).sum(axis=-1)


def _phi(t, work, out=None):
    """e^{F + iG} from t, into ``out`` when given; ``work``, of t's shape, is overwritten."""
    return np.exp(_log_modulus(t, work) + 1j * _phase(t, work), out=out)


def char_exponent(kv: KnotVector, xi) -> complex:
    """The exponent F + iG of phi_Q at xi, so that phi_Q(xi) = e^{F + iG}."""
    t = _tk(kv, float(xi[0]), float(xi[1]))
    return complex(float(_log_modulus(t)), float(_phase(t)))


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
        worst = max(
            float(np.max(r**ell * np.exp(_log_modulus(t, w))))
            for _, t, w in _t_blocks(kv, r * c, r * s)
        )
        if worst < threshold:
            return r, True
        r *= 1.25
    return _R_CAP, False


def _gl_panels(a: float, b: float, n_panels: int):
    """Nodes and weights of the 12-point Gauss-Legendre rule on n_panels equal panels of [a, b]."""
    edges = np.linspace(a, b, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * np.diff(edges)
    xs = (mids[:, None] + halfs[:, None] * _GL_X[None, :]).ravel()
    ws = (halfs[:, None] * _GL_W[None, :]).ravel()
    return xs, ws


def char_diff_integral(kv: KnotVector, ell: int = 0) -> float:
    """Polar quadrature of |xi|^ell |e^{F+iG} - e^H| over the plane.

    Radius is truncated where the slower of the two tails is below 1e-12;
    panels double until the estimate moves by less than 1e-9.  Raises
    QuadratureNotConverged when no such radius is certified (equispaced
    n <= 8 at ell = 0, n <= 16 at ell = 6) or the refinement stalls.

    The angular rule is the midpoint rule on N = n_theta angles, which
    converges geometrically on a periodic integrand, and only half of it is
    evaluated: t_k(theta + pi) = -t_k(theta), F is even in t and G odd, so
    the integrand at theta + pi is |conj(e^{F+iG}) - e^H|, the same value.
    N is even, so the nodes pair up as theta_{j+N/2} = theta_j + pi, and the
    sum over j < N/2 carries the weight 4 pi / N.  The direction matrix
    u[j, k] = t_k at unit radius and angle theta_j is built per angle block
    of _ray_step angles, and t = r u is walked over the radii inside each
    block, in _ray_step rows of N/2 angles: several radii at once when all
    N/2 angles fit in one block, else one radius at a time.  u, t and the
    work array are buffers of max(_CACHE_FLOATS, n) values that every block
    of every level reuses, so the scratch does not grow with n.  Each
    (radius block, angle block) contribution is stored, and they are added
    radius block by radius block, angle blocks in order within each, so the
    total does not depend on the order of the walk.
    """
    if ell > 6:
        raise ValueError("ell <= 6 required")
    R, certified = truncation_radius(kv, ell)
    if not certified:
        raise QuadratureNotConverged(f"no certified truncation radius for ell={ell} at n={kv.n}")
    prev = None
    n_theta = max(64, 2 * kv.n)
    # a block of u, or of t with its rows of radii, holds at most this many values
    u_buf, t_buf, work = (np.empty(max(_CACHE_FLOATS, kv.n)) for _ in range(3))
    for n_panels in (8, 16, 32, 64, 128):
        rs, ws = _gl_panels(0.0, R, n_panels)
        half = n_theta // 2
        thetas = (np.arange(half) + 0.5) * (2 * np.pi / n_theta)
        c, s = np.cos(thetas), np.sin(thetas)
        radial = ws * rs**ell * rs
        gauss = np.exp(-0.5 * np.square(rs))
        n_angles = _ray_step(kv, half, 1)
        n_rows = _ray_step(kv, rs.size, half)
        parts = np.empty((-(-rs.size // n_rows), -(-half // n_angles)))
        for j, a0 in enumerate(range(0, half, n_angles)):
            a = slice(a0, a0 + n_angles)
            u = _tk(kv, c[a], s[a], out=u_buf[: c[a].size * kv.n].reshape(-1, kv.n))
            for i, r0 in enumerate(range(0, rs.size, n_rows)):
                r = slice(r0, r0 + n_rows)
                shape = (rs[r].size, *u.shape)
                t = np.multiply(rs[r, None, None], u, out=t_buf[: math.prod(shape)].reshape(shape))
                w = work[: t.size].reshape(shape)
                diff = np.abs(_phi(t, w) - gauss[r, None])
                parts[i, j] = radial[r] @ diff.sum(axis=1)
        total = 0.0
        for part in parts.flat:
            total += float(part)
        total *= 4 * np.pi / n_theta
        if prev is not None and abs(total - prev) < 1e-9:
            return total
        prev = total
        n_theta *= 2
    raise QuadratureNotConverged("char_diff_integral refinement stalled")


def pdf_Q_exact(kv: KnotVector, q1, q2):
    """Density of Q at (q1, q2) in closed form; broadcasts over arrays.

    s = sum P_k = n + sqrt(n) q2 is Gamma(n) and independent of P/s, which
    is uniform on the simplex (Lukacs), and <x, P/s> has density (n-1) B
    (Curry-Schoenberg).  Since Q1 = s <x, P/s>,

        f_Q(q1, q2) = sqrt(n) gamma_n(s) (n-1) B(q1/s) / s  for s > 0, else 0.
    """
    n = kv.n
    q1, q2 = np.broadcast_arrays(np.asarray(q1, dtype=float), np.asarray(q2, dtype=float))
    s = n + math.sqrt(n) * q2
    out = np.zeros(s.shape)
    pos = s > 0
    sp = s[pos]
    gamma_n = np.exp((n - 1) * np.log(sp) - sp - math.lgamma(n))
    out[pos] = math.sqrt(n) * (n - 1) * gamma_n * bspline_stable(kv, q1[pos] / sp) / sp
    return out if out.ndim else float(out)


def _aliasing_bound(kv: KnotVector, s1, s2, delta: float) -> float:
    """Upper bound on max over the grid of sum_{k != 0} f_Q(s + 2 pi k / delta).

    f_Q vanishes unless s = n + sqrt(n) q2 > 0 and x_0 <= q1/s <= x_{n-1};
    there it is at most sqrt(n) (n-1) max B gamma_n(s) / s, with
    max B <= 1/(x_{n-1} - x_0) (partition of unity).  Each shift k2 of q2
    therefore contributes that envelope times the number of shifts k1 of q1
    that land in the support.
    """
    n, rn, h = kv.n, math.sqrt(kv.n), 2 * np.pi / delta
    lo, hi = float(kv.xs[0]), float(kv.xs[-1])
    log_c = 0.5 * math.log(n) + math.log(n - 1) - math.log(hi - lo) - math.lgamma(n)
    col = s1[:, None]
    total, prev = 0.0, math.inf
    # from the first shift with s > 0 upwards; past the mode (s > n) the
    # envelope falls faster than geometrically in k2, so once every term is
    # tiny and at most half the one before, the rest add up to at most it
    k2 = math.floor(-(rn + float(s2.max())) / h)
    while True:
        sk = n + rn * (s2 + k2 * h)
        s = np.maximum(sk, 1e-300)
        count = np.floor((s * hi - col) / h) - np.ceil((s * lo - col) / h) + 1
        if k2 == 0:
            count -= (s * lo <= col) & (col <= s * hi)
        env = np.where(sk > 0, np.exp(log_c + (n - 2) * np.log(s) - s), 0.0)
        term = env * np.maximum(count, 0.0)
        total = total + term
        past_mode = n + rn * (float(s2.min()) + k2 * h) > n
        if past_mode and term.max() < 1e-30 and np.all(term <= prev / 2):
            return float((total + term).max())
        prev, k2 = term, k2 + 1


def _truncation_tail(kv: KnotVector, R: float) -> float:
    """Estimate of (1/4 pi^2) times the integral of |phi_Q| outside radius R.

    Along each ray, with t_k = r a_k and c_k = R^2 a_k^2, convexity of
    log(1 + c e^y) in y gives 1 + r^2 a_k^2 >= (1 + c_k) (r/R)^{2c_k/(1+c_k)},
    so |phi_Q(r)| <= |phi_Q(R)| (r/R)^{-p} with p = sum c_k / (1 + c_k), and
    the radial integral beyond R is at most |phi_Q(R)| R^2 / (p - 2) (infinite
    when p <= 2).  The angular integral is a periodic trapezoid sum.
    """
    thetas = (np.arange(_TAIL_ANGLES) + 0.5) * (2 * np.pi / _TAIL_ANGLES)
    radial = np.empty(_TAIL_ANGLES)
    for rows, t, w in _t_blocks(kv, R * np.cos(thetas), R * np.sin(thetas)):
        c = np.multiply(t, t, out=w)
        p = (c / (1 + c)).sum(axis=-1)
        if np.any(p <= 2):
            return math.inf
        radial[rows] = np.exp(_log_modulus(t, w)) * R**2 / (p - 2)
    return float(radial.mean() / (2 * np.pi))


def pdf_Q_inversion_grid(kv: KnotVector, s1, s2):
    """Density of Q on the grid s1 x s2 by 2-D Fourier inversion.

    Returns the pdf array of shape (len(s1), len(s2)).  The inversion
    integral is the trapezoid sum over xi in delta {-J..J}^2, J = ceil(R /
    delta), of phi_Q(xi) e^{-i <s, xi>} delta^2 / 4 pi^2.  Q is real, so
    phi_Q(-xi) = conj phi_Q(xi), and the nodes are exactly symmetric: the
    row at -xi1 adds the conjugate of the row at xi1.  Only the J + 1 rows
    with xi1 >= 0 are summed, as acc = E1 Phi E2^T in blocks of about
    _CACHE_FLOATS values of Phi, and the sum is 2 Re acc - Re C, C being
    the term of the row xi1 = 0.  Beside the output it holds E1, E2, one
    block of Phi and its product with E2^T, and t only in blocks of about
    _CACHE_FLOATS values.  By Poisson summation its error is the aliasing
    sum sum_{k != 0} f_Q(s + 2 pi k / delta) plus the truncation beyond R:
    delta is the largest step of 0.9^j whose aliasing bound is below 1e-12,
    and QuadratureNotConverged is raised when the two bounds together
    exceed 1e-9, or when C, the one term the symmetry does not pair and
    real in exact arithmetic, keeps an imaginary part above 1e-8.
    Non-finite grid points raise ValueError.
    """
    if kv.n > 64:
        raise PrecisionLoss("inversion quadrature limited to n <= 64")
    s1 = np.atleast_1d(np.asarray(s1, dtype=float))
    s2 = np.atleast_1d(np.asarray(s2, dtype=float))
    if not (np.all(np.isfinite(s1)) and np.all(np.isfinite(s2))):
        raise ValueError("grid points must be finite")
    # the radius need not be certified by the per-circle maximum: the tail
    # estimate below is what certifies it
    R, _ = truncation_radius(kv, 0, threshold=_INVERSION_TAIL_THRESHOLD)
    tail = _truncation_tail(kv, R)
    delta = 1.0
    alias = _aliasing_bound(kv, s1, s2, delta)
    while alias > _ALIAS_TOL and delta > _DELTA_MIN:
        delta *= 0.9
        alias = _aliasing_bound(kv, s1, s2, delta)
    if alias + tail > _INVERSION_TOL:
        raise QuadratureNotConverged(
            f"inversion error bound {alias + tail:.2e} above {_INVERSION_TOL:g} "
            f"(aliasing {alias:.1e} at step {delta:.3g}, truncation {tail:.1e} beyond R={R:g})"
        )
    J = math.ceil(R / delta)
    nodes = delta * np.arange(-J, J + 1)
    E1 = np.exp(-1j * np.multiply.outer(s1, nodes[J:]))
    E2T = np.exp(-1j * np.multiply.outer(nodes, s2))
    step = max(1, _CACHE_FLOATS // nodes.size)
    phi = np.empty((min(step, J + 1), nodes.size), dtype=complex)
    acc = np.zeros((s1.size, s2.size), dtype=complex)
    for lo in range(0, J + 1, step):
        hi = min(lo + step, J + 1)
        for rows, t, w in _t_blocks(kv, nodes[J + lo : J + hi, None], nodes):
            _phi(t, w, out=phi[rows])
        del t, w  # the walker's buffers are freed before the products
        part = phi[: hi - lo] @ E2T
        if lo == 0:
            # E1 is 1 on the column xi1 = 0, so C does not depend on s1
            C = part[0]
        acc += E1[:, lo:hi] @ part
    scale = delta**2 / (4 * np.pi**2)
    max_imag = float(np.max(np.abs(C.imag))) * scale
    if max_imag > 1e-8:
        raise QuadratureNotConverged(f"imaginary residue {max_imag:.2e} too large")
    return (2 * acc.real - C.real) * scale


def quotient_pdf(joint, s: float, y_range) -> float:
    """PDF of X1/X2 at s from the joint density: int |y| joint(sy, y) dy.

    ``y_range`` is the truncation interval for y, supplied by the caller;
    ``joint(a, b)`` takes arrays.  Split at the kink y = 0, each piece gets
    the panel rule on 2, 4, ..., 64 panels until two levels agree to
    relative 1e-10; otherwise QuadratureNotConverged is raised.
    """
    a, b = y_range
    pieces = [(a, 0.0), (0.0, b)] if a < 0 < b else [(a, b)]
    prev = diff = None
    for n_panels in (2, 4, 8, 16, 32, 64):
        ys, ws = map(np.concatenate, zip(*(_gl_panels(lo, hi, n_panels) for lo, hi in pieces)))
        val = float(ws @ (np.abs(ys) * joint(s * ys, ys)))
        if prev is not None:
            diff = abs(val - prev)
            if diff <= _QUOTIENT_RTOL * abs(val):
                return val
        prev = val
    raise QuadratureNotConverged(f"quotient_pdf levels still differ by {diff:.2e} at 64 panels")


def gaussian_joint(a, b):
    """Standard 2-D Gaussian density; takes arrays."""
    return np.exp(-(a * a + b * b) / 2) / (2 * math.pi)


def pdf_gaussian_ratio(n: int, t: float) -> float:
    """Density of N1 / (1 + n^{-1/2} N2) at t; tends to the Gaussian pdf."""
    if n < 2:
        raise ValueError("n >= 2 required")
    rt = n**-0.5
    # the second coordinate 1 + n^{-1/2} N2 has density phi((b - 1) / rt) / rt
    return quotient_pdf(lambda a, b: gaussian_joint(a, (b - 1.0) / rt) / rt, t,
                        (1.0 - 12.0 * rt, 1.0 + 12.0 * rt))


def pdf_gaussian_ratio_closed_form(n: int, t: float) -> float:
    """pdf_gaussian_ratio(n, t) in closed form (Hinkley 1969, uncorrelated case).

    The exponent is written -n t^2 / (2A), since the textbook
    b^2/(2a^2) - 1/(2 sigma^2) cancels and loses about 1e-12 at n = 1e4.
    """
    A = t * t + n
    return n**1.5 * math.exp(-n * t * t / (2 * A)) * math.erf(n / math.sqrt(2 * A)) / (
        math.sqrt(2 * math.pi) * A**1.5
    ) + math.sqrt(n) * math.exp(-n / 2) / (math.pi * A)
