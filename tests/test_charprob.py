import math

import numpy as np
import pytest

from splinellt import charprob, harness, knots, montecarlo
from splinellt.errors import PrecisionLoss, QuadratureNotConverged

EQ6_F = -0.42803841055129477  # frozen: direct sum at xi=(0.8,-0.6)
EQ6_G = 0.14935561245541096


def test_state_n2_hand_value():
    kv = knots.family("equispaced", 2)
    z = charprob.char_exponent(kv, (1.0, 0.0))
    # t = (-1/sqrt2, 1/sqrt2): F = -ln(3/2), G = 0 by symmetry
    assert isinstance(z, complex)
    assert z.real == pytest.approx(-math.log(1.5), rel=1e-14)
    assert z.imag == pytest.approx(0.0, abs=1e-15)


def test_state_frozen_values():
    kv = knots.family("equispaced", 6)
    z = charprob.char_exponent(kv, (0.8, -0.6))
    assert z.real == pytest.approx(EQ6_F, rel=1e-14)
    assert z.imag == pytest.approx(EQ6_G, rel=1e-13)


def test_phi_product_vs_exponent():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        kv = knots.family("uniform_random", n, int(rng.integers(10**6)))
        xi = rng.normal(scale=2.0, size=2)
        z = charprob.char_exponent(kv, xi)
        prod = charprob.phi_Q(kv, xi)
        assert prod == pytest.approx(complex(np.exp(z)), rel=1e-12)
        assert abs(prod) == pytest.approx(math.exp(z.real), rel=1e-12)


def test_grad_matches_finite_differences():
    kv = knots.family("chebyshev", 9)
    xi = np.array([0.6, -1.1])
    h = 1e-6
    for b in (1, 2):
        dF, dG = charprob.grad_FG(kv, xi, b)
        e = np.zeros(2)
        e[b - 1] = h
        zp = charprob.char_exponent(kv, xi + e)
        zm = charprob.char_exponent(kv, xi - e)
        assert dF == pytest.approx((zp.real - zm.real) / (2 * h), abs=1e-7)
        assert dG == pytest.approx((zp.imag - zm.imag) / (2 * h), abs=1e-7)
    with pytest.raises(ValueError):
        charprob.grad_FG(kv, xi, 3)


def test_gradient_small_xi_cubic_bound():
    xi = (0.1, 0.0)
    for n in (8, 32):
        kv = knots.family("uniform_random", n, seed=n)
        m3 = knots.m3(kv)
        dF, _ = charprob.grad_FG(kv, xi, 1)
        assert abs(dF + xi[0]) <= m3 * abs(xi[0]) ** 3 + 1e-15


def test_truncation_radius_certified_for_moderate_n():
    kv = knots.family("equispaced", 16)
    R, certified = charprob.truncation_radius(kv, 0)
    assert certified
    assert 12 <= R <= 200


def test_char_diff_integral_positive_and_decreasing():
    vals = []
    for n in (12, 16, 64):
        kv = knots.family("equispaced", n)
        vals.append(charprob.char_diff_integral(kv, 0))
    assert all(v > 0 for v in vals)
    assert vals[2] < vals[1] < vals[0]  # closer to Gaussian as n grows
    with pytest.raises(ValueError):
        charprob.char_diff_integral(knots.family("equispaced", 8), 7)


def test_char_diff_integral_small_n_not_integrable():
    # |phi_Q| decays only like r^{-2} for n = 2, so the plane integral
    # diverges; at n = 8 it converges, but too slowly for the tail to drop
    # below 1e-12 within the radius cap, so neither may report a number
    for n in (2, 8):
        with pytest.raises(QuadratureNotConverged):
            charprob.char_diff_integral(knots.family("equispaced", n), 0)


def _full_circle_diff_integral(kv, ell):
    # the full-circle body that the half-period quadrature replaced: every
    # angle of the midpoint rule, t made by _tk for each block
    R, certified = charprob.truncation_radius(kv, ell)
    if not certified:
        raise QuadratureNotConverged(f"no certified truncation radius for ell={ell} at n={kv.n}")
    prev = None
    n_theta = max(64, 2 * kv.n)
    for n_panels in (8, 16, 32, 64, 128):
        rs, ws = charprob._gl_panels(0.0, R, n_panels)
        thetas = (np.arange(n_theta) + 0.5) * (2 * np.pi / n_theta)
        c, s = np.cos(thetas), np.sin(thetas)
        total = 0.0
        rows = max(1, 4_000_000 // (n_theta * kv.n))
        n_chunks = max(1, math.ceil(rs.size / rows))
        for r_chunk, w_chunk in zip(np.array_split(rs, n_chunks), np.array_split(ws, n_chunks)):
            t = charprob._tk(kv, np.multiply.outer(r_chunk, c), np.multiply.outer(r_chunk, s))
            F = charprob._log_modulus(t)
            G = charprob._phase(t)
            H = -0.5 * np.square(r_chunk)[:, None]
            diff = np.abs(np.exp(F + 1j * G) - np.exp(H))
            integrand = (r_chunk**ell * r_chunk)[:, None] * diff
            total += float((w_chunk @ integrand).sum()) * (2 * np.pi / n_theta)
        if prev is not None and abs(total - prev) < 1e-9:
            return total
        prev = total
        n_theta *= 2
    raise QuadratureNotConverged("char_diff_integral refinement stalled")


@pytest.mark.parametrize("n", [24, 64])
@pytest.mark.parametrize("kind", knots.FAMILIES)
def test_half_period_matches_full_circle(kind, n):
    kv = knots.family(kind, n, seed=1)
    for ell in (0, 2, 6):
        if (kind, n, ell) == ("clustered", 24, 6):
            # the one case without a certified radius: both refuse
            for body in (charprob.char_diff_integral, _full_circle_diff_integral):
                with pytest.raises(QuadratureNotConverged):
                    body(kv, ell)
            continue
        full = _full_circle_diff_integral(kv, ell)
        assert charprob.char_diff_integral(kv, ell) == pytest.approx(full, rel=1e-13, abs=0)


def _radius_major_diff_integral(kv, ell):
    # the body before u was built per angle block: the whole direction
    # table u per level, from two outer products, and the blocks of t = r u
    # walked radius block by radius block, each contribution added as made
    R, certified = charprob.truncation_radius(kv, ell)
    if not certified:
        raise QuadratureNotConverged(f"no certified truncation radius for ell={ell} at n={kv.n}")
    prev = None
    n_theta = max(64, 2 * kv.n)
    for n_panels in (8, 16, 32, 64, 128):
        rs, ws = charprob._gl_panels(0.0, R, n_panels)
        half = n_theta // 2
        thetas = (np.arange(half) + 0.5) * (2 * np.pi / n_theta)
        u = np.add(
            np.multiply.outer(np.cos(thetas), kv.xs),
            np.multiply.outer(np.sin(thetas), np.full(kv.n, kv.n**-0.5)),
        )
        radial = ws * rs**ell * rs
        gauss = np.exp(-0.5 * np.square(rs))
        n_rows = max(1, charprob._CACHE_FLOATS // u.size)
        n_angles = min(half, max(1, charprob._CACHE_FLOATS // kv.n))
        total = 0.0
        for r0 in range(0, rs.size, n_rows):
            r = slice(r0, r0 + n_rows)
            for a0 in range(0, half, n_angles):
                t = rs[r, None, None] * u[None, a0 : a0 + n_angles]
                F, G = charprob._log_modulus(t), charprob._phase(t)
                diff = np.abs(np.exp(F + 1j * G) - gauss[r, None])
                total += float(radial[r] @ diff.sum(axis=1))
        total *= 4 * np.pi / n_theta
        if prev is not None and abs(total - prev) < 1e-9:
            return total
        prev = total
        n_theta *= 2
    raise QuadratureNotConverged("char_diff_integral refinement stalled")


@pytest.mark.parametrize("ell", [0, 2])
@pytest.mark.parametrize("n", [24, 64, 256])
def test_char_diff_integral_bit_identical_to_radius_major_walk(n, ell):
    # at n = 24 and 64 every angle fits one block and the radii go in rows
    # of several; at n = 256 there are two angle blocks per radius
    kv = knots.family("uniform_random", n, seed=1)
    assert charprob.char_diff_integral(kv, ell) == _radius_major_diff_integral(kv, ell)


def test_char_diff_integral_memory_bounded(traced_peak):
    # u, t and the work array are three buffers of 2^15 doubles (0.8 MB)
    # that every block reuses, whatever n; with the whole direction table
    # per level and t made for each block it traced 3.96 MB at n = 256 and
    # 15.0 MB at n = 512, and the full-circle body with its 4e6-float
    # workspace about 95 MB
    for n in (256, 512):
        _, peak = traced_peak(charprob.char_diff_integral, knots.family("equispaced", n), 0)
        assert peak <= 1.5e6, n


@pytest.mark.parametrize("shapes", [((), ()), ((7,), (7,)), ((5, 1), (1, 9))])
def test_tk_bit_identical_to_outer_product_sum(shapes):
    # t in one array has the bits of the sum of the two outer products, for
    # scalar, array and broadcast coordinates, into a new array or into out
    kv = knots.family("uniform_random", 24, seed=1)
    rng = np.random.default_rng(3)
    xi1, xi2 = (rng.normal(0, 5, shape) if shape else float(rng.normal(0, 5)) for shape in shapes)
    ref = np.add(
        np.multiply.outer(xi1, kv.xs), np.multiply.outer(xi2, np.full(kv.n, kv.n**-0.5))
    )
    assert charprob._tk(kv, xi1, xi2).tobytes() == ref.tobytes()
    out = np.empty_like(ref)
    assert charprob._tk(kv, xi1, xi2, out=out) is out
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("cache_floats", [1, charprob._CACHE_FLOATS, 1 << 30])
def test_walker_covers_each_row_once_with_the_bits_of_tk(monkeypatch, cache_floats):
    # a 300 x 40 broadcast grid at n = 24: 300 blocks of one row, 9 blocks
    # of 34 rows, or the whole grid in one block
    kv = knots.family("uniform_random", 24, seed=1)
    rng = np.random.default_rng(5)
    x, y = rng.normal(0, 5, (300, 1)), rng.normal(0, 5, 40)
    whole = charprob._tk(kv, x, y)
    monkeypatch.setattr(charprob, "_CACHE_FLOATS", cache_floats)
    covered = np.zeros(300, dtype=int)
    for rows, t, w in charprob._t_blocks(kv, x, y):
        covered[rows] += 1
        assert w.shape == t.shape
        assert t.size <= max(cache_floats, 40 * kv.n)
        assert t.tobytes() == whole[rows].tobytes()
    assert np.all(covered == 1)


@pytest.mark.parametrize("n", [24, 64, 256])
def test_truncation_blocks_keep_bits(monkeypatch, n):
    # the truncation radius and tail take t in blocks of rays: one ray per
    # block and the whole table in one block give the same bits
    kv = knots.family("clustered", n, seed=1)
    values = []
    for cache_floats in (1, 1 << 30, charprob._CACHE_FLOATS):
        monkeypatch.setattr(charprob, "_CACHE_FLOATS", cache_floats)
        values.append(
            [charprob.truncation_radius(kv, ell) for ell in (0, 2, 6)]
            + [charprob._truncation_tail(kv, R) for R in (12.0, 30.0)]
        )
    assert values[0] == values[1] == values[2]


def test_quotient_pdf_cauchy():
    for s in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        v = charprob.quotient_pdf(charprob.gaussian_joint, s, (-40.0, 40.0))
        assert v == pytest.approx(1 / (math.pi * (1 + s * s)), abs=1e-6)


def test_gaussian_ratio_limits():
    # huge n: denominator is essentially 1, so the density is the Gaussian pdf
    peak = charprob.pdf_gaussian_ratio(10**4, 0.0)
    assert peak == pytest.approx(1 / math.sqrt(2 * math.pi), abs=2e-2)
    assert charprob.pdf_gaussian_ratio(50, 0.9) == pytest.approx(
        charprob.pdf_gaussian_ratio(50, -0.9), abs=1e-10
    )
    with pytest.raises(ValueError):
        charprob.pdf_gaussian_ratio(1, 0.0)


@pytest.mark.parametrize("n", harness.GAUSSIAN_RATIO_NS)
def test_gaussian_ratio_matches_closed_form(n):
    # the same body as validate's charprob.gaussian_ratio check
    assert harness.gaussian_ratio_deviation(n) <= 1e-12


def test_quotient_pdf_refuses_discontinuous_joint():
    # the jump at y = 0.3 falls inside a panel at every level, so the
    # refinement never settles
    with pytest.raises(QuadratureNotConverged):
        charprob.quotient_pdf(lambda a, b: (b < 0.3) * 1.0, 0.0, (-1.0, 1.0))


def test_inversion_point_and_grid_consistent():
    kv = knots.family("equispaced", 8)
    pt = charprob.pdf_Q_inversion_grid(kv, [0.4], [-0.2])[0, 0]
    # the step comes from the aliasing bound over the whole grid, so the
    # grid adds only the mirror point, whose bound is the same for these
    # symmetric knots
    grid = charprob.pdf_Q_inversion_grid(kv, [-0.4, 0.4], [-0.2])
    assert grid[1, 0] == pytest.approx(pt, abs=1e-12)
    assert pt > 0


def test_inversion_symmetric_knots_flip_first_coordinate():
    kv = knots.family("equispaced", 8)
    vals = charprob.pdf_Q_inversion_grid(kv, [0.7, -0.7], [0.3])
    assert vals[0, 0] == pytest.approx(vals[1, 0], abs=1e-8)


def test_inversion_rejects_large_n():
    with pytest.raises(PrecisionLoss):
        charprob.pdf_Q_inversion_grid(knots.family("equispaced", 65), [0.0], [0.0])


def test_inversion_rejects_non_finite_grid():
    # a NaN would never let the aliasing bound's sum over shifts terminate
    kv = knots.family("equispaced", 16)
    with pytest.raises(ValueError):
        charprob.pdf_Q_inversion_grid(kv, [0.0, np.nan], [0.0])
    with pytest.raises(ValueError):
        charprob.pdf_Q_inversion_grid(kv, [0.0], [np.inf])


def test_inversion_rejects_imaginary_residue(monkeypatch):
    # the row of Phi at xi1 = 0, the first row of the first block, replaced
    # by an imaginary constant: C keeps an imaginary part far above 1e-8 and
    # the guard must fire
    phi, calls = charprob._phi, []

    def imaginary_centre(t, work, out=None):
        out = phi(t, work, out)
        if not calls:
            out[0] = 1e-3j
        calls.append(True)
        return out

    monkeypatch.setattr(charprob, "_phi", imaginary_centre)
    with pytest.raises(QuadratureNotConverged, match="imaginary residue"):
        charprob.pdf_Q_inversion_grid(knots.family("equispaced", 8), [0.0], [0.0])


# the 80 cell-average nodes per axis of the inversion experiment's grid
CELL_NODES = harness._cell_average_nodes(montecarlo.default_grid())


def _rows_one_at_a_time(kv, xi1, nodes):
    """Phi[j, k] = phi_Q(xi1[j], nodes[k]), each row evaluated on its own."""
    out = np.empty((xi1.size, nodes.size), dtype=complex)
    for j, x in enumerate(xi1):
        t = charprob._tk(kv, x, nodes)
        out[j] = np.exp(charprob._log_modulus(t) + 1j * charprob._phase(t))
    return out


def _one_row_blocks(kv, x, y):
    """The walker with one row per block, each row's t and work made anew."""
    x, y = np.broadcast_arrays(x, y)
    for j in range(x.shape[0]):
        t = charprob._tk(kv, x[j : j + 1], y[j : j + 1])
        yield slice(j, j + 1), t, np.empty_like(t)


def _walked_phi(kv, xi1, nodes):
    """Phi as the inversion fills it: the walker over the rows, _phi per block."""
    phi = np.empty((xi1.size, nodes.size), dtype=complex)
    for rows, t, w in charprob._t_blocks(kv, xi1[:, None], nodes):
        charprob._phi(t, w, out=phi[rows])
    return phi


@pytest.mark.parametrize("kind, n", [("equispaced", 16), ("uniform_random", 16), ("clustered", 40)])
def test_half_plane_sum_matches_full_grid(monkeypatch, kind, n):
    # the inversion sums the J + 1 rows with xi1 >= 0 (here 184, 255 and 144
    # rows, in 3, 4 and 2 blocks); the sum over all M = 2J + 1 rows, each row
    # evaluated on its own and the whole of Phi held, agrees to rounding
    kv = knots.family(kind, n, seed=1)
    s = CELL_NODES[::4]
    seen = []
    walker = charprob._t_blocks

    def spy(kv, x, y):
        seen.append(y)
        return walker(kv, x, y)

    monkeypatch.setattr(charprob, "_t_blocks", spy)
    grid = charprob.pdf_Q_inversion_grid(kv, s, s)
    # the truncation radius and tail walk first; each block of Phi walks
    # its rows against y = nodes
    nodes = seen[-1]
    M = nodes.size
    # the nodes are exactly symmetric, which the conjugate pairing rests on
    assert np.array_equal(nodes[::-1], -nodes)
    phi = _rows_one_at_a_time(kv, nodes, nodes)
    E1 = np.exp(-1j * np.multiply.outer(s, nodes))
    E2T = np.exp(-1j * np.multiply.outer(nodes, s))
    full = (E1 @ (phi @ E2T)).real * nodes[M // 2 + 1] ** 2 / (4 * np.pi**2)
    assert np.max(np.abs(grid - full)) <= 1e-15


# validate's symmetry grid (charprob.inversion_symmetry), on the capped radius R = 200
CHECK_S1, CHECK_S2 = np.array([0.3, -0.3, 1.1, -1.1]), np.array([0.7, -0.4])


@pytest.mark.parametrize(
    "kind, n, s1, s2",
    [
        ("equispaced", 8, CHECK_S1, CHECK_S2),
        ("uniform_random", 16, CELL_NODES[::4], CELL_NODES[::4]),
        ("clustered", 48, CELL_NODES[::4], CELL_NODES[::4]),
    ],
)
def test_phi_evaluation_blocking_keeps_bits(monkeypatch, kind, n, s1, s2):
    # the walker evaluates t in blocks of _CACHE_FLOATS values: one-row
    # blocks and blocks of 2^20 give Phi the bits of each row on its own,
    # and a walker of one row per block gives the grid the same bits
    kv = knots.family(kind, n, seed=1)
    nodes = 0.37 * np.arange(-200, 201)
    phi = _rows_one_at_a_time(kv, nodes[200:], nodes)
    with monkeypatch.context() as m:
        for cache_floats in (1, 1 << 20, charprob._CACHE_FLOATS):
            m.setattr(charprob, "_CACHE_FLOATS", cache_floats)
            assert _walked_phi(kv, nodes[200:], nodes).tobytes() == phi.tobytes()
    grid = charprob.pdf_Q_inversion_grid(kv, s1, s2).tobytes()
    monkeypatch.setattr(charprob, "_t_blocks", _one_row_blocks)
    assert charprob.pdf_Q_inversion_grid(kv, s1, s2).tobytes() == grid


@pytest.mark.parametrize(
    "n, s1, s2",
    [(8, CHECK_S1, CHECK_S2), (16, CELL_NODES, CELL_NODES)],
    ids=["check-n8", "grid80-n16"],
)
def test_inversion_memory_bounded(traced_peak, n, s1, s2):
    # the scratch does not grow with the grid: beside E1, E2 and the output
    # it is one block of Phi and t in blocks of about _CACHE_FLOATS values
    # (peaks of 1.3 and 2.2 MB); the xi1 >= 0 half of Phi alone is 6.9 MB
    # for the n = 8 check
    kv = knots.family("equispaced", n)
    _, peak = traced_peak(charprob.pdf_Q_inversion_grid, kv, s1, s2)
    assert peak <= 3e6


@pytest.mark.parametrize(
    "kind, n, s1, s2",
    [
        ("equispaced", 16, CELL_NODES, CELL_NODES),
        ("equispaced", 48, CELL_NODES, CELL_NODES),
        ("clustered", 20, CELL_NODES, CELL_NODES),
        ("uniform_random", 16, CELL_NODES, CELL_NODES),
        ("equispaced", 8, CHECK_S1, CHECK_S2),
    ],
)
def test_inversion_matches_exact_density(kind, n, s1, s2):
    kv = knots.family(kind, n, seed=1)
    grid = charprob.pdf_Q_inversion_grid(kv, s1, s2)
    exact = charprob.pdf_Q_exact(kv, s1[:, None], s2[None, :])
    assert np.max(np.abs(grid - exact)) <= 1e-9


@pytest.mark.parametrize("n", [3, 4, 7])
def test_inversion_raises_when_error_bound_fails(n):
    # |phi_Q| decays like r^-n, so for small n the tail beyond the capped
    # radius alone exceeds 1e-9
    with pytest.raises(QuadratureNotConverged, match="error bound"):
        charprob.pdf_Q_inversion_grid(knots.family("equispaced", n), [0.3], [0.7])


def test_exact_density_support():
    kv = knots.family("chebyshev", 10)
    s = 10 + math.sqrt(10) * 0.5
    # zero for s <= 0 and outside s [x_0, x_{n-1}], positive inside
    assert charprob.pdf_Q_exact(kv, 0.0, -math.sqrt(10)) == 0.0
    assert charprob.pdf_Q_exact(kv, 1.01 * s * kv.xs[-1], 0.5) == 0.0
    assert charprob.pdf_Q_exact(kv, 0.99 * s * kv.xs[-1], 0.5) > 0.0
    assert charprob.pdf_Q_exact(kv, np.zeros((3, 1)), np.zeros(4)).shape == (3, 4)


def test_mc_histogram_matches_exact_cell_averages():
    kv = knots.family("equispaced", 16)
    N = 10**6
    counts = montecarlo.mc_pdf_Q(kv, N, seed=3)
    edges = montecarlo.default_grid()
    # 4-point Gauss-Legendre per cell and axis for the cell averages
    gx, gw = np.polynomial.legendre.leggauss(4)
    c, h = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    nodes = (c[:, None] + h[:, None] * gx).ravel()
    w = np.tile(gw / 2, c.size)
    vals = charprob.pdf_Q_exact(kv, nodes[:, None], nodes[None, :]) * np.multiply.outer(w, w)
    avg = vals.reshape(c.size, 4, c.size, 4).sum(axis=(1, 3))
    dev, kept = montecarlo.histogram_deviation(avg, counts, N, np.multiply.outer(2 * h, 2 * h))
    assert kept > 500
    assert dev <= 4.0
