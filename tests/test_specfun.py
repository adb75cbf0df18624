import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinellt import knots, specfun, splines
from splinellt.errors import PrecisionLoss, QuadratureNotConverged

# frozen from a 50-digit evaluation of the closed-form Fourier transform
EQ6_FT_AT_07 = 0.97095882945561702


def test_hermite_base_cases():
    assert specfun.hermite(0, 3.7) == 1.0
    assert specfun.hermite(1, 3.7) == 3.7
    assert specfun.hermite(2, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert specfun.hermite(3, 2.0) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError):
        specfun.hermite(-1, 0.0)


def test_hermite_recursion_vs_derivative():
    # He_r e^{-t^2/2} = (-1)^r d^r e^{-t^2/2}, checked in extended precision
    with mp.workdps(30):
        for r in (2, 3, 5):
            for t in (-1.4, 0.3, 2.2):
                d = (-1) ** r * mp.diff(lambda z: mp.exp(-z * z / 2), mp.mpf(t), r)
                expected = float(d * mp.exp(t * t / 2))
                assert specfun.hermite(r, t) == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_hermite_function_values():
    assert specfun.hermite_function(0, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi))
    assert specfun.hermite_function(1, 0.0) == 0.0
    ts = np.linspace(-3, 3, 7)
    np.testing.assert_allclose(
        specfun.hermite_function(2, ts),
        (ts**2 - 1) * np.exp(-(ts**2) / 2) / math.sqrt(2 * math.pi),
        rtol=1e-14,
    )


def test_laguerre_negative_parameter():
    # L_1^{(a)}(x) = a + 1 - x, valid for any a including a < -1
    assert specfun.laguerre(1, -3, 2.0) == pytest.approx(-4.0)
    assert specfun.laguerre(0, -7.5, 123.0) == 1.0
    # classical value at a = 0: L_2(x) = (x^2 - 4x + 2)/2
    assert specfun.laguerre(2, 0, 1.0) == pytest.approx(-0.5)


def test_laguerre_accepts_complex():
    z = specfun.laguerre(2, -5, 1j)
    assert isinstance(z, complex)
    # (-r+...) coefficients are real, so conjugating the argument conjugates the value
    assert specfun.laguerre(2, -5, -1j) == pytest.approx(z.conjugate())


def test_hyp2f0_terminates():
    assert specfun.hyp2f0(0, 5.0, 0.3) == 1.0
    # r=1: 1 + (-1)(a) z
    assert specfun.hyp2f0(1, 4.0, 0.5) == pytest.approx(1 - 4 * 0.5)


@given(
    r=st.integers(0, 5),
    n=st.integers(3, 20),
    w=st.floats(0.05, 50, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_2f0_laguerre_identity(r, n, w):
    lhs = specfun.hyp2f0(r, n - 1, 1.0 / w)
    rhs = math.factorial(r) * w**-r * specfun.laguerre(r, -n - r + 1, -w)
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_corollary3_sum_at_zero_matches_mass():
    # the transform at xi -> 0 is the integral of B(t/n): n/(n-1)
    for n in (4, 9):
        kv = knots.family("equispaced", n)
        v = specfun.corollary3_sum(kv, 0, 0.0)
        assert v.real == pytest.approx(n / (n - 1), rel=1e-10)
        assert abs(v.imag) < 1e-10
        # first moment of the symmetric density vanishes
        assert abs(specfun.corollary3_sum(kv, 1, 0.0)) < 1e-10


def test_corollary3_crossover_continuity():
    kv = knots.family("chebyshev", 6)
    for r in (0, 1):
        below = specfun.corollary3_sum(kv, r, 0.049)
        above = specfun.corollary3_sum(kv, r, 0.051)
        assert abs(below - above) < 5e-3 * max(1.0, abs(above))


def test_corollary3_routes_agree():
    kv = knots.family("uniform_random", 7, seed=2)
    for r in (0, 1, 2):
        for xi in (0.3, 1.1, 4.0):
            a = specfun.corollary3_sum(kv, r, xi)
            b = specfun.corollary3_sum_2f0(kv, r, xi)
            (c,) = specfun.corollary3_quadrature(kv, r, (xi,))
            scale = max(abs(a), 1e-12)
            assert abs(a - b) / scale < 1e-10
            assert abs(a - c) / scale < 1e-8


def test_corollary3_routes_agree_at_high_order():
    # the Laguerre coefficients used to be rounded to double before the
    # 140-digit sum, whose xi^{-(n+r-1)} prefactor amplified that rounding
    # to 9.1e-4 relative at chebyshev n=16, r=6, xi=0.1
    for fam, n in (("chebyshev", 16), ("equispaced", 20)):
        kv = knots.family(fam, n)
        for r in (4, 5, 6):
            a = specfun.corollary3_sum(kv, r, 0.1)
            b = specfun.corollary3_sum_2f0(kv, r, 0.1)
            assert abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("family", ["uniform_random", "clustered"])
@pytest.mark.parametrize("n", [16, 24])
def test_corollary3_quadrature_matches_2f0(family, n):
    # the widest knot panels, where h * xi reaches the values at which the
    # Gauss-Legendre rule must split a panel to certify
    kv = knots.family(family, n, seed=1)
    xis = (0.1, 2.0, 5.0)
    for r in (0, 6):
        for xi, q in zip(xis, specfun.corollary3_quadrature(kv, r, xis)):
            b = specfun.corollary3_sum_2f0(kv, r, xi)
            assert abs(q - b) <= 1e-12 * abs(b)


def test_corollary3_quadrature_refuses_uncertified(monkeypatch):
    kv = knots.family("clustered", 8, seed=1)
    # clustered n=8, r=6, xi=5 needs sub-panels to bring its truncation
    # bound below 1e-10 of the value; without them the route must raise
    specfun.corollary3_quadrature(kv, 6, (5.0,))
    monkeypatch.setattr(specfun, "_QUAD_MAX_SPLITS", 1)
    with pytest.raises(QuadratureNotConverged):
        specfun.corollary3_quadrature(kv, 6, (5.0,))
    # at xi = 0 there is no truncation term, so the rounding term alone must
    # refuse a tolerance far below it
    monkeypatch.undo()
    monkeypatch.setattr(specfun, "_QUAD_RTOL", 1e-60)
    with pytest.raises(QuadratureNotConverged):
        specfun.corollary3_quadrature(kv, 0, (0.0,))


def test_corollary3_quadrature_odd_moments_vanish_on_symmetric_knots():
    # at xi = 0 the route gives i^r times the r-th moment; equispaced knots
    # are exactly symmetric, so the odd moments are exactly 0
    kv = knots.family("equispaced", 9)
    assert specfun.corollary3_quadrature(kv, 1, (0.0,)) == [0]
    assert specfun.corollary3_quadrature(kv, 3, (0.0,)) == [0]


def test_corollary3_quadrature_one_call_equals_per_xi_calls():
    # every xi reads the same nodes and B values, and splits its panels on
    # its own, so one call is the per-xi calls bit for bit
    kv = knots.family("clustered", 10, seed=2)
    xis = (0.0, 0.03, 0.7, 2.5, 5.0)
    for r in (0, 3):
        assert specfun.corollary3_quadrature(kv, r, xis) == [
            specfun.corollary3_quadrature(kv, r, (xi,))[0] for xi in xis
        ]


@pytest.mark.parametrize("family,n", [("uniform_random", 8), ("clustered", 16), ("chebyshev", 24)])
def test_spline_panels_exact_at_mpf_nodes(family, n):
    # B at a dyadic node, from the panel polynomial, is the partial-fraction
    # sum in exact fractions rounded once at the working precision
    prec = 156
    kv = knots.family(family, n, seed=4)
    xs = [Fraction(x) for x in kv.xs.tolist()]
    panels = splines.spline_panels(kv)
    with mp.workprec(prec):
        for k in (0, n // 2 - 1, n - 2):
            a, b = mp.mpf(kv.xs[k]), mp.mpf(kv.xs[k + 1])
            for u in (mp.mpf(-0.97), mp.mpf(1) / 3, mp.mpf(0.5)):
                s = (a + b) / 2 + u * (b - a) / 2
                man, exp = s.man_exp
                sf = int(mp.sign(s)) * man * Fraction(2) ** exp
                exact = sum(
                    (xj - sf) ** (n - 2) / math.prod(xj - xi for xi in xs if xi != xj)
                    for xj in xs[k + 1 :]
                )
                # round to nearest, ties to even, with prec bits
                e = exact.numerator.bit_length() - exact.denominator.bit_length() - prec
                while abs(exact) >= Fraction(2) ** (e + prec):
                    e += 1
                while abs(exact) < Fraction(2) ** (e + prec - 1):
                    e -= 1
                rounded = mp.ldexp(mp.mpf(round(exact / Fraction(2) ** e)), e)
                assert panels[k](s) == rounded


@pytest.mark.parametrize("family,n", [("chebyshev", 6), ("equispaced", 12), ("clustered", 16)])
def test_corollary3_sum_below_xi_min_matches_2f0(family, n):
    # below XI_MIN the sum hands over to the quadrature route
    kv = knots.family(family, n, seed=1)
    for r in (0, 1, 2):
        for xi in (0.01, 0.049):
            a = specfun.corollary3_sum(kv, r, xi)
            b = specfun.corollary3_sum_2f0(kv, r, xi)
            assert abs(a - b) <= 1e-12 * abs(b)


def test_corollary3_argument_checks():
    kv = knots.family("equispaced", 5)
    with pytest.raises(ValueError):
        specfun.corollary3_sum(kv, 7, 1.0)
    with pytest.raises(ValueError):
        specfun.corollary3_sum_2f0(kv, 1, 0.0)
    big = knots.family("equispaced", 30)
    with pytest.raises(PrecisionLoss):
        specfun.corollary3_sum(big, 0, 1.0)


def test_wprime_cache_order_independent():
    # the quadrature's panel polynomials, the oracle and the Corollary-3
    # sums read the one integer table; no result may depend on which of
    # them filled it first
    kv = knots.family("uniform_random", 8, seed=5)
    ts = (-0.2, 0.05, 0.3)
    consumers = (
        lambda: specfun.corollary3_quadrature(kv, 2, (0.8,)),
        lambda: [splines.bspline_naive(kv, t, 0) for t in ts],
        lambda: specfun.corollary3_sum(kv, 2, 0.8),
    )
    fresh = []
    for consumer in consumers:
        splines._int_table.cache_clear()
        fresh.append(consumer())
    for first in range(len(consumers)):
        splines._int_table.cache_clear()
        order = consumers[first:] + consumers[:first]
        results = [consumer() for consumer in order]
        assert results == fresh[first:] + fresh[:first]


def test_2f0_route_is_certified(monkeypatch):
    kv = knots.family("chebyshev", 8, seed=1)
    # with a 5-digit certificate epsilon no sum can meet the 1e-10 bound (the
    # sum itself still runs at 140 digits), so the route must raise
    monkeypatch.setattr(splines, "ORACLE_DPS", 5)
    with pytest.raises(PrecisionLoss):
        specfun.corollary3_sum_2f0(kv, 1, 0.5)


def test_fourier_of_b_frozen():
    kv = knots.family("equispaced", 6)
    v = specfun.corollary3_sum(kv, 0, 0.7)
    assert v.real == pytest.approx(EQ6_FT_AT_07, rel=1e-12)
    assert abs(v.imag) < 1e-12  # symmetric knots give a real transform
