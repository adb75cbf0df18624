import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinellt import charprob, knots, seminorm, splines
from splinellt.errors import PrecisionLoss

# values frozen from a 50-digit direct evaluation of the partial-fraction sum
CHEB5_B_AT_03 = 0.16341026289513260153
CHEB5_S1_AT_01 = 0.35950584109472236364
EQ6_B_AT_M025 = 0.14846851204581197585
EQ6_S2_AT_02 = 0.34566276575411198754
EQ6_DD_EXP = 0.0084330847834005358491


def test_n2_boundary_conventions():
    # at n = 2, B is the indicator of [x_0, x_1) over x_1 - x_0: the
    # truncated power (x_k - t)_+^0 is 0 at t = x_k, so the support is
    # closed on the left and open on the right in both routes
    kv = knots.family("equispaced", 2)
    x0, x1 = (float(x) for x in kv.xs)
    assert splines.bspline_naive(kv, x0, 0) == splines.bspline_stable(kv, x0) == 1 / (x1 - x0)
    assert splines.bspline_naive(kv, x1, 0) == splines.bspline_stable(kv, x1) == 0.0


def test_n2_indicator_value():
    kv = knots.family("equispaced", 2)
    v = 1 / math.sqrt(2)
    assert splines.bspline_naive(kv, 0.0, 0) == pytest.approx(v, abs=1e-15)
    assert splines.bspline_stable(kv, 0.0) == pytest.approx(v, abs=1e-15)


def test_n3_exactness_seed():
    kv = knots.family("equispaced", 3)
    v = 1 / math.sqrt(2)
    assert abs(splines.bspline_naive(kv, 0.0, 0) - v) <= 1e-12
    assert abs(splines.bspline_stable(kv, 0.0) - v) <= 1e-12


def test_frozen_values():
    cheb5 = knots.family("chebyshev", 5)
    assert splines.bspline_stable(cheb5, 0.3) == pytest.approx(CHEB5_B_AT_03, rel=1e-13)
    assert splines.bspline_naive(cheb5, 0.1, 1) == pytest.approx(CHEB5_S1_AT_01, rel=1e-13)
    eq6 = knots.family("equispaced", 6)
    assert splines.bspline_stable(eq6, -0.25) == pytest.approx(EQ6_B_AT_M025, rel=1e-13)
    assert splines.bspline_naive(eq6, 0.2, 2) == pytest.approx(EQ6_S2_AT_02, rel=1e-13)


def test_stable_derivative_matches_exponent_reduction():
    # S_r(t) = (-1)^r B^(r)(t) / (n-2)(n-3)...(n-1-r), both sides exact routes
    kv = knots.family("uniform_random", 9, seed=8)
    n = kv.n
    for r in (1, 2, 3):
        fall = math.prod(n - 2 - i for i in range(r))
        for t in (-0.4, 0.05, 0.3):
            naive = splines.bspline_naive(kv, t, r)
            stable = (-1) ** r * splines.bspline_stable_deriv(kv, t, r) / fall
            assert stable == pytest.approx(naive, rel=1e-11, abs=1e-13)


def test_bspline_scaled_matches_naive():
    # the exponent-reduced sum at the rescaled point, S_r(t/n), through the
    # stable route: (-1)^r B^(r)(t/n) / (n-2)_r
    kv = knots.family("chebyshev", 7)
    n = kv.n
    for r in (0, 1, 2):
        fall = math.prod(n - 2 - i for i in range(r))
        for t in (-2.0, 0.0, 1.5):
            scaled = (-1) ** r * splines.bspline_stable_deriv(kv, t / n, r) / fall
            assert scaled == pytest.approx(
                splines.bspline_naive(kv, t / n, r), rel=1e-11, abs=1e-14
            )


def test_support_and_positivity():
    kv = knots.family("clustered", 10, seed=0)
    lo, hi = kv.xs[0], kv.xs[-1]
    ts = np.linspace(lo, hi, 101)[1:-1]
    vals = splines.bspline_stable(kv, ts)
    assert np.all(vals > 0)
    assert splines.bspline_stable(kv, lo - 1e-9) == 0.0
    assert splines.bspline_stable(kv, hi + 1e-9) == 0.0
    assert splines.bspline_stable(kv, hi + 5.0) == 0.0


def test_vectorized_matches_scalar():
    kv = knots.family("equispaced", 12)
    ts = np.linspace(-0.8, 0.8, 17)
    vec = splines.bspline_stable_deriv(kv, ts, 2)
    scal = np.array([splines.bspline_stable_deriv(kv, float(t), 2) for t in ts])
    # batched and scalar paths may sum in different orders; allow 1-ulp drift
    np.testing.assert_allclose(vec, scal, rtol=1e-14, atol=1e-300)


def test_vectorized_matches_scalar_bitwise_at_q0():
    # at q = 0 every point runs the same elementwise recursion, so one array
    # call must reproduce the scalar loop exactly (oracle_agreement relies on it)
    for kind in knots.FAMILIES:
        for n in range(2, 25):
            kv = knots.family(kind, n, seed=1)
            lo, hi = kv.xs[0], kv.xs[-1]
            ts = np.concatenate(
                [lo + (hi - lo) * (np.arange(101) + 0.5) / 101, [lo - 0.5, lo, hi, hi + 0.5]]
            )
            vec = splines.bspline_stable(kv, ts)
            scal = np.array([splines.bspline_stable(kv, float(t)) for t in ts])
            np.testing.assert_array_equal(vec, scal)


def _row_loop_levels(xs, ts, orders):
    # the full Cox-de Boor triangle, one row at a time over every point: the
    # reference the trimmed, chunked kernel must reproduce bit for bit.  The
    # levels named in orders are kept, so one triangle serves every q
    n = xs.size
    B = np.zeros((n - 1, ts.size))
    for i in range(n - 1):
        B[i] = (xs[i] <= ts) & (ts < xs[i + 1])
    levels = {1: B} if 1 in orders else {}
    for m in range(2, max(orders) + 1):
        nb = n - m
        new = np.empty((nb, ts.size))
        for i in range(nb):
            new[i] = (ts - xs[i]) / (xs[i + m - 1] - xs[i]) * B[i] + (
                xs[i + m] - ts
            ) / (xs[i + m] - xs[i + 1]) * B[i + 1]
        B = new
        if m in orders:
            levels[m] = B
    return levels


def _row_loop_deriv(kv, levels, q, cols=slice(None)):
    # cols picks points of the reference triangle; a contiguous copy keeps
    # the product's layout that of a triangle over those points alone
    coeffs, order = splines._deriv_coeffs(kv.xs, q)
    vals = coeffs @ np.ascontiguousarray(levels[order][: coeffs.size, cols])
    return vals / (kv.xs[-1] - kv.xs[0])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 24, 64, 256])
def test_kernel_bit_identical_to_row_loop(n):
    rng = np.random.default_rng(n)
    qs = range(min(3, n - 2) + 1)
    for kind in knots.FAMILIES:
        kv = knots.family(kind, n, seed=1)
        lo, hi = float(kv.xs[0]), float(kv.xs[-1])
        # unsorted, more than one chunk, every knot, both ends and outside
        ts = np.concatenate(
            [rng.uniform(lo - 0.2, hi + 0.2, 700), kv.xs, [lo - 1.0, hi + 1.0]]
        )
        rng.shuffle(ts)
        inputs = [ts]
        if n <= 64:
            # the sorted scaling grid of Theorem 1: many points per knot span
            inputs.append(seminorm.default_grid(n).points_avoiding(kv) / n)
        outside = np.array([lo - 0.5, hi, hi + 0.5])
        for i, pts in enumerate(inputs):
            levels = _row_loop_levels(kv.xs, pts, [n - 1 - q for q in qs])
            for q in qs:
                np.testing.assert_array_equal(
                    splines.bspline_stable_deriv(kv, pts, q), _row_loop_deriv(kv, levels, q)
                )
                if i == 0:
                    ref = _row_loop_deriv(kv, levels, q, slice(0, 1))[0]
                    assert splines.bspline_stable_deriv(kv, float(ts[0]), q) == ref
        for q in qs:
            np.testing.assert_array_equal(
                splines.bspline_stable_deriv(kv, outside, q), np.zeros(3)
            )


def test_theorem1_rate_past_n128():
    # symmetric knots have no third cumulant, so the error of Theorem 1
    # falls like 1/n; doubling n from 256 to 512 must about halve it, at a
    # size no oracle reaches
    errs = []
    for n in (256, 512):
        kv = knots.family("equispaced", n)
        errs.append(seminorm.theorem1_error(kv, 0, 0, seminorm.default_grid(n)).value)
    assert 0.45 <= errs[1] / errs[0] <= 0.55


@pytest.mark.parametrize("n", [32, 64])
def test_stable_matches_fourier_slice_above_oracle_range(n):
    # pdf_Q_exact reads B(s1/n) through the kernel at q2 = 0; the trapezoid
    # inversion of phi_Q gives the same slice through neither the kernel nor
    # the partial-fraction sum
    s1 = np.linspace(-9, 9, 181)
    for kind in knots.FAMILIES:
        kv = knots.family(kind, n, seed=1)
        grid = charprob.pdf_Q_inversion_grid(kv, s1, [0.0])
        exact = charprob.pdf_Q_exact(kv, s1[:, None], 0.0)
        assert np.max(np.abs(grid - exact)) <= 1e-9


def test_wprime_equispaced_n3():
    kv = knots.family("equispaced", 3)
    # middle knot: (0 + 1/sqrt2)(0 - 1/sqrt2) = -1/2
    assert splines.wprime(kv, 1) == pytest.approx(-0.5, rel=1e-14)


@pytest.mark.parametrize("n", [3, 8, 24, 64])
def test_wprime_correctly_rounded(n):
    for kind in knots.FAMILIES:
        kv = knots.family(kind, n, seed=2)
        xs = [Fraction(x) for x in kv.xs.tolist()]
        for k, xk in enumerate(xs):
            exact = math.prod(xk - xj for j, xj in enumerate(xs) if j != k)
            assert splines.wprime(kv, k) == float(exact)


def test_normalization_all_families():
    for kind in knots.FAMILIES:
        for n in range(2, 21):
            kv = knots.family(kind, n, seed=3)
            assert (n - 1) * splines.integrate_bspline(kv) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n", [64, 256])
def test_oracle_past_n24(n):
    # the integer sum has no cap on n; the kernel it checks agrees to a few
    # ulps wherever B is normal, and near the ends of the support, where B
    # falls into the subnormal range, to an absolute floor there
    for kind in knots.FAMILIES:
        kv = knots.family(kind, n, seed=1)
        lo, hi = float(kv.xs[0]), float(kv.xs[-1])
        for frac in (0.02, 0.1, 0.3, 0.5, 0.77, 0.95):
            t = lo + (hi - lo) * frac
            assert splines.bspline_naive(kv, t, 0) == pytest.approx(
                splines.bspline_stable(kv, t), rel=1e-13, abs=1e-300
            )


def test_oracle_at_n1024():
    kv = knots.family("equispaced", 1024)
    assert splines.bspline_naive(kv, 0.0, 0) == pytest.approx(
        splines.bspline_stable(kv, 0.0), rel=1e-13
    )


@pytest.mark.parametrize("n", [13, 16])
def test_oracle_interior_zero(n):
    # B is even on symmetric knots, so S_1(0) = -B'(0) / (n-2) is exactly 0;
    # the 140-digit sum could not certify it
    kv = knots.family("equispaced", n)
    assert np.array_equal(kv.xs, -kv.xs[::-1])
    v = splines.bspline_naive(kv, 0.0, 1)
    assert v == 0.0 and math.copysign(1.0, v) == 1.0
    assert abs(splines.bspline_stable_deriv(kv, 0.0, 1) / (n - 2)) <= 1e-15


def _mpmath_oracle(kv, t, r):
    # the 140-digit route the integer sum replaced: each summand rounded once,
    # in its division by the exact W_k, and PrecisionLoss where the rounding
    # estimate (largest summand times the 140-digit epsilon, two digits of
    # slack) passes 1e-10 of the sum
    e, (L, _, W) = kv.n - 2 - r, splines._int_table(tuple(kv.xs.tolist()))
    with mp.workdps(140):
        tm, scale = mp.mpf(t), mp.ldexp(mp.mpf(1), L * (kv.n - 1))
        summands = [(mp.mpf(x) - tm) ** e / w * scale for x, w in zip(kv.xs.tolist(), W) if x > t]
        total = sum(summands, mp.mpf(0))
        if abs(total) > 0 and max(map(abs, summands)) * mp.mpf(10) ** -138 > mp.mpf("1e-10") * abs(total):
            raise PrecisionLoss("cancellation too severe")
        return float(total)


def _oracle_points(kv):
    lo, hi = float(kv.xs[0]), float(kv.xs[-1])
    return (lo + (hi - lo) * (np.arange(101) + 0.5) / 101).tolist()


def test_oracle_bit_identical_to_mpmath_route():
    compared = skipped = 0
    for kind in knots.FAMILIES:
        for n in (3, 8, 16, 24):
            kv = knots.family(kind, n, seed=1)
            for r in range(min(2, n - 2) + 1):
                for t in _oracle_points(kv):
                    try:
                        ref = _mpmath_oracle(kv, t, r)
                    except PrecisionLoss:
                        skipped += 1
                        continue
                    v = splines.bspline_naive(kv, t, r)
                    assert v == ref and math.copysign(1.0, v) == math.copysign(1.0, ref)
                    compared += 1
    assert compared == 4444 - skipped and skipped <= 8


def _fraction_oracle(kv, t, r):
    # the same sum in exact rationals; float(Fraction) rounds correctly
    xs = [Fraction(x) for x in kv.xs.tolist()]
    tf, e = Fraction(t), kv.n - 2 - r
    total = sum(
        (x - tf) ** e / math.prod(x - y for j, y in enumerate(xs) if j != k)
        for k, x in enumerate(xs)
        if x > tf
    )
    return float(total)


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_oracle_correctly_rounded(n):
    for kind in knots.FAMILIES:
        kv = knots.family(kind, n, seed=2)
        ts = _oracle_points(kv)[::5] + kv.xs.tolist()
        for r in range(min(2, n - 2) + 1):
            for t in ts:
                assert splines.bspline_naive(kv, t, r) == _fraction_oracle(kv, t, r)


def test_bracket_end_past_double_range_is_unresolved():
    # the value sits 2^-100 / 3 below the halfway point between the largest
    # double and 2^1024, so the first brackets' upper ends round past the
    # double range; the bracket must narrow instead of failing
    half_way = 2**1024 - 2**970
    terms = [(3 * (half_way << 100) - 1, 3 << 100)]
    assert splines._round_scaled_sum(terms, 0) == sys.float_info.max
    with pytest.raises(OverflowError):
        splines._round_scaled_sum([(3 * half_way + 1, 3)], 0)


def test_bracket_zero_and_tie():
    # a zero sum whose bracket ends round to -0.0 and 0.0 comes out as +0.0
    zero = splines._round_scaled_sum([(1, 3), (-1, 3)], 0)
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    # an exact tie between 1 and its successor never leaves the bracket's
    # middle, and rounds half to even from the exact quotient
    terms = [((2**53 + 1) * 3, 3 << 53), (1, 3), (-1, 3)]
    assert splines._round_scaled_sum(terms, 0) == 1.0 == float(Fraction(2**53 + 1, 2**53))
    terms = [((2**53 + 3) * 3, 3 << 53), (1, 3), (-1, 3)]
    assert splines._round_scaled_sum(terms, 0) == 1 + 2**-51


def test_oracle_exact_zero_left_of_support():
    # left of x_0 (and at x_0 unless n - 2 - r = 0) the sum is a divided
    # difference of a polynomial of degree n - 2 - r, so it is exactly 0
    for kind in knots.FAMILIES:
        for n in range(3, 25):
            kv = knots.family(kind, n, seed=1)
            x0 = float(kv.xs[0])
            for r in range(min(2, n - 2) + 1):
                assert splines.bspline_naive(kv, x0 - 0.1, r) == 0.0
                if n - 2 - r > 0:
                    assert splines.bspline_naive(kv, x0, r) == 0.0
                else:
                    # only the x_0 summand is missing: 0 - 1/W'(x_0)
                    expected = -1.0 / float(np.prod(x0 - kv.xs[1:]))
                    assert splines.bspline_naive(kv, x0, r) == pytest.approx(expected, rel=1e-14)


def test_derivative_order_bounds():
    kv = knots.family("equispaced", 5)
    with pytest.raises(ValueError):
        splines.bspline_naive(kv, 0.0, 4)
    with pytest.raises(ValueError):
        splines.bspline_stable_deriv(kv, 0.0, 7)


def test_divided_difference_exp_frozen():
    kv = knots.family("equispaced", 6)
    assert splines.exp_divided_difference(kv) == pytest.approx(EQ6_DD_EXP, rel=1e-15)


@pytest.mark.parametrize("family,n", [("equispaced", 16), ("clustered", 24), ("uniform_random", 64)])
def test_exp_divided_difference_matches_partial_fractions(family, n):
    # sum_k e^{x_k} / W'(x_k) at 400 digits: its terms cancel to 5e-88 at
    # uniform_random n = 64, where a float triangle returns -4.6e52, and
    # the digits left over still round to the one double
    kv = knots.family(family, n, seed=1)
    with mp.workdps(400):
        xs = [mp.mpf(x) for x in kv.xs.tolist()]
        ref = mp.fsum(mp.exp(xk) / mp.fprod(xk - xj for xj in xs if xj != xk) for xk in xs)
        assert splines.exp_divided_difference(kv) == float(ref)


@given(n=st.integers(3, 16), seed=st.integers(0, 10**4))
@settings(max_examples=30, deadline=None)
def test_stable_agrees_with_oracle(n, seed):
    kv = knots.family("uniform_random", n, seed)
    rng = np.random.default_rng(seed)
    for t in rng.uniform(kv.xs[0], kv.xs[-1], size=5):
        o = splines.bspline_naive(kv, float(t), 0)
        s = splines.bspline_stable(kv, float(t))
        assert s == pytest.approx(o, rel=1e-10, abs=1e-13)
