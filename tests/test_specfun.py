import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinellt import knots, specfun, splines
from splinellt.errors import PrecisionLoss

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
    # the Laguerre sum and the series are each correctly rounded
    kv = knots.family("uniform_random", 7, seed=2)
    xis = (0.3, 1.1, 4.0)
    for r in (0, 1, 2):
        for xi, c in zip(xis, specfun.corollary3_quadrature(kv, r, xis)):
            assert specfun.corollary3_sum(kv, r, xi) == c


def test_corollary3_routes_agree_at_high_order():
    # the xi^{-(n+r-1)} prefactor amplifies any rounding of the Laguerre
    # coefficients (once 9.1e-4 relative at chebyshev n=16, r=6, xi=0.1);
    # the sum now takes its integer coefficients exactly
    for fam, n in (("chebyshev", 16), ("equispaced", 20)):
        kv = knots.family(fam, n)
        for r in (4, 5, 6):
            (c,) = specfun.corollary3_quadrature(kv, r, (0.1,))
            assert specfun.corollary3_sum(kv, r, 0.1) == c


@pytest.mark.parametrize("family", ["uniform_random", "clustered"])
@pytest.mark.parametrize("n", [16, 24])
def test_corollary3_quadrature_matches_2f0(family, n):
    # the widest knot gaps and the largest xi, where the series needs the
    # most terms and its bracket the most bits
    kv = knots.family(family, n, seed=1)
    xis = (0.1, 2.0, 5.0)
    for r in (0, 6):
        for xi, q in zip(xis, specfun.corollary3_quadrature(kv, r, xis)):
            b = specfun.corollary3_sum_2f0(kv, r, xi)
            assert abs(q - b) <= 1e-12 * abs(b)


def test_corollary3_quadrature_refuses_uncertified(monkeypatch):
    # chebyshev knots are symmetric only to rounding, so at n = 16, xi = 8 the
    # imaginary part is of order 1e-23 and its bracket must grow past the
    # first pass, 128 bits below the point and about 65 above it (the
    # largest term); with the cap between that pass and the next the route
    # must raise rather than return an unresolved value
    kv = knots.family("chebyshev", 16)
    (c,) = specfun.corollary3_quadrature(kv, 2, (8.0,))
    assert 0 < abs(c.imag) < 1e-20
    monkeypatch.setattr(specfun, "_SERIES_MAX_BITS", 220)
    with pytest.raises(PrecisionLoss):
        specfun.corollary3_quadrature(kv, 2, (8.0,))
    # a xi whose terms alone pass the cap is refused before any work
    monkeypatch.undo()
    with pytest.raises(PrecisionLoss):
        specfun.corollary3_quadrature(kv, 0, (1e4,))


def test_corollary3_quadrature_odd_moments_vanish_on_symmetric_knots():
    # at xi = 0 the route gives i^r times the r-th moment; equispaced knots
    # are exactly symmetric, so the odd moments are exactly 0, and so is
    # the imaginary part at every xi: +0.0, not a bracketed tiny value
    kv = knots.family("equispaced", 9)
    assert specfun.corollary3_quadrature(kv, 1, (0.0,)) == [0]
    assert specfun.corollary3_quadrature(kv, 3, (0.0,)) == [0]
    for r in (0, 1, 2):
        for c in specfun.corollary3_quadrature(kv, r, (0.5, 2.0)):
            assert c.imag == 0.0 and math.copysign(1.0, c.imag) == 1.0


@pytest.mark.parametrize("family", ["equispaced", "chebyshev", "uniform_random", "clustered"])
@pytest.mark.parametrize("n", [5, 9, 16])
def test_corollary3_quadrature_exact_moments(family, n):
    # at xi = 0 the value is n/(n-1) i^r E T^r, T = n S and S of density
    # (n-1) B, with E S^r = r! (n-1)! / (r+n-1)! [x_0..x_{n-1}] t^{n-1+r};
    # the divided difference is summed in exact fractions, sum_k x_k^{n-1+r}
    # / W'(x_k), and the route must return that value correctly rounded
    kv = knots.family(family, n, seed=2)
    xs = [Fraction(x) for x in kv.xs.tolist()]
    for r in range(5):
        dd = sum(xk ** (n - 1 + r) / math.prod(xk - xj for xj in xs if xj != xk) for xk in xs)
        moment = Fraction(n, n - 1) * n**r * math.factorial(r) * math.factorial(n - 1)
        moment *= dd / math.factorial(r + n - 1)
        part = float(-moment if r // 2 % 2 else moment)
        (c,) = specfun.corollary3_quadrature(kv, r, (0.0,))
        assert (c.real, c.imag) == ((part, 0.0) if r % 2 == 0 else (0.0, part))
        assert math.copysign(1.0, c.imag if r % 2 == 0 else c.real) == 1.0


@pytest.mark.parametrize("family", ["uniform_random", "clustered"])
@pytest.mark.parametrize("n", [64, 256])
def test_corollary3_quadrature_past_sum_cap_matches_float_integral(family, n):
    # at large n compare the series with the integral
    # of (it)^r B(t/n) e^{-it xi} by a float Gauss-Legendre rule on each knot
    # image [n x_k, n x_{k+1}], B from the Cox-de Boor kernel (no integer
    # table); the rule is exact on the polynomial factor and has 12 nodes
    # to spare for the exponential
    kv = knots.family(family, n, seed=1)
    u, w = np.polynomial.legendre.leggauss(n // 2 + 12)
    a, b = n * kv.xs[:-1, None], n * kv.xs[1:, None]
    t = ((a + b) / 2 + (b - a) / 2 * u).ravel()
    weights = ((b - a) / 2 * w).ravel()
    spline = splines.bspline_stable(kv, t / n)
    xis = (0.5, 2.0)
    for r in (0, 2):
        for xi, c in zip(xis, specfun.corollary3_quadrature(kv, r, xis)):
            ref = np.sum(weights * (1j * t) ** r * spline * np.exp(-1j * t * xi))
            assert abs(c - ref) <= 1e-10 * abs(ref)


def test_corollary3_quadrature_one_call_equals_per_xi_calls():
    # every xi is correctly rounded on its own, whatever length of H table
    # the call built, so one call is the per-xi calls bit for bit
    kv = knots.family("clustered", 10, seed=2)
    xis = (0.0, 0.03, 0.7, 2.5, 5.0)
    for r in (0, 3):
        assert specfun.corollary3_quadrature(kv, r, xis) == [
            specfun.corollary3_quadrature(kv, r, (xi,))[0] for xi in xis
        ]


def _2f0_coefficients(n, r):
    # i^{r+n-1} (-i)^j C(r, j) (n-1)_j, the coefficient of theta^{r-j} in
    # i^{r+n-1} theta^r 2F0(-r, n-1; i/theta), listed from theta^0 up
    coeffs = []
    for j in range(r, -1, -1):
        v = math.comb(r, j) * math.prod(range(n - 1, n - 1 + j))
        coeffs.append(((v, 0), (0, v), (-v, 0), (0, -v))[(r + n - 1 + 3 * j) % 4])
    return coeffs


@pytest.mark.parametrize("family,n", [("chebyshev", 6), ("equispaced", 12), ("clustered", 16)])
def test_2f0_polynomial_sum_bit_equal_to_corollary3_sum(family, n):
    # the 2F0 form of Corollary 3, through the same partial-fraction bracket,
    # is the Laguerre sum bit for bit; below XI_MIN, where the Laguerre sum
    # hands over to the series, this also pins the bracket against the series
    kv = knots.family(family, n, seed=1)
    for r in (0, 1, 2, 6):
        for xi in (0.01, 0.049, 0.5, 3.0):
            pref = Fraction(math.factorial(n - 2), n ** (n - 2)) / Fraction(xi) ** (n + r - 1)
            v = splines.oscillatory_sum(kv, n * Fraction(xi), _2f0_coefficients(n, r), pref)
            c = specfun.corollary3_sum(kv, r, xi)
            assert v == c, (r, xi)
            assert math.copysign(1, v.imag) == math.copysign(1, c.imag)


def test_corollary3_argument_checks():
    kv = knots.family("equispaced", 5)
    with pytest.raises(ValueError):
        specfun.corollary3_sum(kv, 7, 1.0)
    with pytest.raises(ValueError):
        specfun.corollary3_sum_2f0(kv, 1, 0.0)


def test_wprime_cache_order_independent():
    # the series' H table, the oracle and the Corollary-3 sums read the one
    # integer table; no result may depend on which of them filled it first
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


@pytest.mark.parametrize("n", [8, 16, 24, 32])
def test_corollary3_sums_bit_equal_to_series(n):
    # the sum and the series are each correctly rounded, so they agree bit
    # for bit, the +0.0 imaginary part of exactly symmetric knots included
    xis = (0.1, 1.0, 5.0)
    for family in knots.FAMILIES:
        kv = knots.family(family, n, seed=1)
        for r in (0, 2, 3):
            for xi, c in zip(xis, specfun.corollary3_quadrature(kv, r, xis)):
                v = specfun.corollary3_sum(kv, r, xi)
                assert v == c, (family, r, xi)
                assert math.copysign(1, v.imag) == math.copysign(1, c.imag)


def test_corollary3_sums_bit_equal_to_series_clustered_n64():
    # small xi on clustered knots: the xi^{-(n+r-1)} prefactor cancels the
    # most bits, more than 140 fixed digits could carry
    kv = knots.family("clustered", 64, seed=1)
    (c,) = specfun.corollary3_quadrature(kv, 0, (0.1,))
    assert specfun.corollary3_sum(kv, 0, 0.1) == c


@pytest.mark.parametrize("theta", [0.3, -1e-3, 2.75, -40.0, 317.5625])
def test_exp_i_error_count_brackets_a_finer_value(theta):
    # (C, S) +- d must contain the same exponential taken at 4Q bits, whose
    # own error count is at least 4 units, so a zero count cannot pass
    num, den = theta.as_integer_ratio()
    E, Q = den.bit_length() - 1, 96
    C, S, d = splines._exp_i(num, E, Q)
    C4, S4, d4 = splines._exp_i(num, E, 4 * Q)
    for x, x4 in ((C, C4), (S, S4)):
        assert (x - d) << 3 * Q <= x4 - d4 and x4 + d4 <= (x + d) << 3 * Q
    assert d < 2**40
    assert (C / 2**Q, S / 2**Q) == pytest.approx((math.cos(theta), math.sin(theta)), abs=1e-15)


def test_fourier_of_b_frozen():
    kv = knots.family("equispaced", 6)
    v = specfun.corollary3_sum(kv, 0, 0.7)
    assert v.real == pytest.approx(EQ6_FT_AT_07, rel=1e-12)
    assert abs(v.imag) < 1e-12  # symmetric knots give a real transform
