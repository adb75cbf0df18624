import math

import numpy as np
import pytest

from splinellt import charprob, knots
from splinellt.errors import PrecisionLoss, QuadratureNotConverged

EQ6_F = -0.42803841055129477  # frozen: direct sum at xi=(0.8,-0.6)
EQ6_G = 0.14935561245541096


def test_state_n2_hand_value():
    kv = knots.family("equispaced", 2)
    st = charprob.eval_char_state(kv, (1.0, 0.0))
    # t = (-1/sqrt2, 1/sqrt2): F = -ln(3/2), G = 0 by symmetry
    assert st.F == pytest.approx(-math.log(1.5), rel=1e-14)
    assert st.G == pytest.approx(0.0, abs=1e-15)
    assert st.H == -0.5
    assert st.Z == complex(st.F, st.G)


def test_state_frozen_values():
    kv = knots.family("equispaced", 6)
    st = charprob.eval_char_state(kv, (0.8, -0.6))
    assert st.F == pytest.approx(EQ6_F, rel=1e-14)
    assert st.G == pytest.approx(EQ6_G, rel=1e-13)


def test_phi_product_vs_exponent():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        kv = knots.family("uniform_random", n, int(rng.integers(10**6)))
        xi = rng.normal(scale=2.0, size=2)
        st = charprob.eval_char_state(kv, xi)
        prod = charprob.phi_Q(kv, xi)
        assert prod == pytest.approx(complex(np.exp(st.Z)), rel=1e-12)
        assert abs(prod) == pytest.approx(math.exp(st.F), rel=1e-12)


def test_grad_matches_finite_differences():
    kv = knots.family("chebyshev", 9)
    xi = np.array([0.6, -1.1])
    h = 1e-6
    for b in (1, 2):
        dF, dG = charprob.grad_FG(kv, xi, b)
        e = np.zeros(2)
        e[b - 1] = h
        sp = charprob.eval_char_state(kv, xi + e)
        sm = charprob.eval_char_state(kv, xi - e)
        assert dF == pytest.approx((sp.F - sm.F) / (2 * h), abs=1e-7)
        assert dG == pytest.approx((sp.G - sm.G) / (2 * h), abs=1e-7)
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
    for n in (8, 16, 64):
        kv = knots.family("equispaced", n)
        vals.append(charprob.char_diff_integral(kv, 0))
    assert all(v > 0 for v in vals)
    assert vals[2] < vals[1]  # closer to Gaussian as n grows
    with pytest.raises(ValueError):
        charprob.char_diff_integral(knots.family("equispaced", 8), 7)


def test_char_diff_integral_small_n_not_integrable():
    # |phi_Q| decays only like r^{-2} for n = 2, so the plane integral
    # diverges and refinement must refuse to report a number
    with pytest.raises(QuadratureNotConverged):
        charprob.char_diff_integral(knots.family("equispaced", 2), 0)


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


def test_inversion_point_and_grid_consistent():
    kv = knots.family("equispaced", 8)
    pt = charprob.pdf_Q_inversion_grid(kv, [0.4], [-0.2])[0, 0]
    # refinement stops on the worst grid point, so the grid adds only the
    # mirror point, whose value refines in step for these symmetric knots
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


def test_inversion_rejects_imaginary_residue(monkeypatch):
    # one node at xi = 0 with an imaginary weight: every refinement level
    # returns 1e-5i / (4 pi^2), so refinement converges and the guard fires
    def imaginary_nodes(kv, R, n_panels, n_theta):
        yield np.zeros(1), np.zeros(1), np.array([1e-5j])

    monkeypatch.setattr(charprob, "_phi_node_chunks", imaginary_nodes)
    with pytest.raises(QuadratureNotConverged, match="imaginary residue"):
        charprob.pdf_Q_inversion_grid(knots.family("equispaced", 8), [0.0], [0.0])
