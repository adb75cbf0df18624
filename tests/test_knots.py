import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinellt import knots
from splinellt.errors import DegenerateInput, DuplicateKnots


def test_equispaced_n3_exact():
    kv = knots.family("equispaced", 3)
    assert kv.xs == pytest.approx([-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)], abs=1e-15)


def test_m3_equispaced_n3():
    # hand evaluation: two knots at x^2 = 1/2 and one at 0, each plus 1/3
    kv = knots.family("equispaced", 3)
    expected = 2 * (5 / 6) ** 1.5 + (1 / 3) ** 1.5
    assert knots.m3(kv) == pytest.approx(expected, rel=1e-14)
    assert knots.m3(kv) == pytest.approx(1.7139, abs=1e-4)


@pytest.mark.parametrize("kind", knots.FAMILIES)
@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 20])
def test_families_normalized(kind, n):
    kv = knots.family(kind, n, seed=1)
    assert kv.n == n
    assert np.all(np.diff(kv.xs) > 0)
    assert abs(kv.sum_x) <= 1e-12
    assert abs(kv.sum_x2 - 1.0) <= 1e-12


def test_uniform_random_deterministic():
    a = knots.family("uniform_random", 10, seed=42)
    b = knots.family("uniform_random", 10, seed=42)
    c = knots.family("uniform_random", 10, seed=43)
    np.testing.assert_array_equal(a.xs, b.xs)
    assert not np.array_equal(a.xs, c.xs)


def test_direction_vectors_orthonormal():
    for n in (2, 7, 33):
        kv = knots.family("uniform_random", n, seed=n)
        V = knots.direction_vectors(kv)
        np.testing.assert_allclose(V.T @ V, np.eye(2), atol=1e-12)


def test_m3_between_l3_and_bound():
    for kind in knots.FAMILIES:
        for n in (4, 16, 64):
            kv = knots.family(kind, n, seed=0)
            l3 = knots.x_l3_cubed(kv)
            m = knots.m3(kv)
            assert m >= max(l3, n**-0.5) - 1e-12
            assert m <= 4 * (l3 + n**-0.5)


def test_l3_below_max_abs_knot():
    kv = knots.family("clustered", 12, seed=0)
    assert knots.x_l3_cubed(kv) <= np.max(np.abs(kv.xs)) + 1e-14
    assert np.max(np.abs(kv.xs)) <= 1.0 + 1e-14


def test_symmetric_is_exact():
    # the predicate compares doubles exactly: normalize leaves equispaced
    # knots symmetric at n = 8, 9 and 16, but only to rounding at n = 24
    for n in (8, 9, 16):
        assert knots.family("equispaced", n).symmetric
    assert not knots.family("equispaced", 24).symmetric
    assert not knots.family("uniform_random", 8, seed=1).symmetric
    assert knots.KnotVector(np.array([-1.0, 0.0, 1.0]) / np.sqrt(2)).symmetric


def test_normalize_rejects_duplicates():
    with pytest.raises(DuplicateKnots):
        knots.normalize([0.0, 1.0, 1.0, 2.0])


def test_normalize_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        knots.normalize([3.0])
    with pytest.raises(DegenerateInput):
        knots.family("equispaced", 1)
    with pytest.raises(DegenerateInput):
        knots.family("no_such_family", 5)


def test_knotvector_immutable():
    kv = knots.family("equispaced", 4)
    with pytest.raises(ValueError):
        kv.xs[0] = 0.0


@given(
    raw=st.lists(
        st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=40,
        unique=True,
    )
)
@settings(max_examples=60, deadline=None)
def test_normalize_properties(raw):
    spread = max(raw) - min(raw)
    if spread < 1e-9 * max(1.0, max(abs(v) for v in raw)):
        return  # nearly coincident inputs are a degenerate-input concern
    try:
        kv = knots.normalize(raw)
    except DuplicateKnots:
        return  # values collided after float conversion
    assert kv.n == len(raw)
    assert abs(kv.sum_x) <= 1e-12
    assert abs(kv.sum_x2 - 1.0) <= 1e-12
    # normalization is affine and increasing, so order is that of sorted input
    assert np.all(np.diff(kv.xs) > 0)


@given(n=st.integers(2, 50), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_uniform_random_gap_guard(n, seed):
    kv = knots.family("uniform_random", n, seed)
    gaps = np.diff(kv.xs)
    assert gaps.min() > 1e-7 * (kv.xs[-1] - kv.xs[0])


@pytest.mark.parametrize("n", [4096, 2**15 + 1])
def test_uniform_random_returns_at_large_n(n):
    # the gap guard shrinks as n^-2 past n = 1000, so a draw passes it with
    # probability about 1/e instead of exp(-n^2 * 1e-6)
    t0 = time.perf_counter()
    kv = knots.family("uniform_random", n, seed=1)
    assert time.perf_counter() - t0 < 1.0
    assert np.min(np.diff(kv.xs)) > 0.5 * (kv.xs[-1] - kv.xs[0]) / n**2
