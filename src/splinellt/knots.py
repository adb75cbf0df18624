"""Knot sequences, their normalization and basic size functionals.

A knot vector here is a strictly increasing sequence x_1 < ... < x_n with
sum(x) = 0 and sum(x^2) = 1.  Attached to it are the planar direction
vectors v_k = (x_k, n^{-1/2}), whose cubed norms control every error bound
in this library.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DuplicateKnots

FAMILIES = ("equispaced", "chebyshev", "uniform_random", "clustered")

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class KnotVector:
    """Normalized strictly increasing knots."""

    xs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        xs.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        if xs.size < 2:
            raise DegenerateInput(f"need n >= 2 knots, got {xs.size}")
        if not np.all(np.diff(xs) > 0):
            raise DuplicateKnots("knots must be strictly increasing")
        if abs(xs.sum()) > _SUM_TOL or abs((xs * xs).sum() - 1.0) > _SUM_TOL:
            raise DegenerateInput("knots are not normalized to sum 0, sum of squares 1")

    @property
    def n(self) -> int:
        return self.xs.size

    @property
    def symmetric(self) -> bool:
        """Exactly symmetric about 0: x_{n-1-k} = -x_k for every k."""
        return bool(np.array_equal(self.xs, -self.xs[::-1]))

    @property
    def sum_x(self) -> float:
        return float(self.xs.sum())

    @property
    def sum_x2(self) -> float:
        return float((self.xs * self.xs).sum())


def normalize(raw) -> KnotVector:
    """Affinely map raw values onto a valid KnotVector.

    The map is x -> (x - mean) / sqrt(sum((x - mean)^2)), which preserves
    ordering and enforces the two moment constraints exactly (to rounding).
    """
    xs = np.sort(np.asarray(raw, dtype=float))
    if xs.size < 2:
        raise DegenerateInput("need at least two knots")
    if xs[0] == xs[-1]:
        raise DegenerateInput("all knot values equal")
    if np.any(np.diff(xs) == 0):
        raise DuplicateKnots("duplicate knot values")
    centered = xs - xs.mean()
    scale = float(np.sqrt((centered * centered).sum()))
    out = centered / scale
    # one Newton-style cleanup pass keeps both sums within 1e-12 of target
    out = out - out.mean()
    out = out / np.sqrt((out * out).sum())
    return KnotVector(out)


def family(kind: str, n: int, seed: int = 0) -> KnotVector:
    """Deterministic generator for the four experiment knot families."""
    if n < 2:
        raise DegenerateInput("need n >= 2")
    if kind == "equispaced":
        return normalize(np.arange(n, dtype=float))
    if kind == "chebyshev":
        k = np.arange(1, n + 1)
        return normalize(np.cos((2 * k - 1) * np.pi / (2 * n)))
    if kind == "uniform_random":
        rng = np.random.default_rng(seed)
        # every gap of n uniform points exceeds g * span with probability
        # about exp(-n^2 g), so past n = 1000 the guard g shrinks as n^-2
        # and a draw is kept with probability about 1/e
        while True:
            raw = np.sort(rng.random(n))
            span = raw[-1] - raw[0]
            if span > 0 and np.min(np.diff(raw)) > min(1e-6, n**-2) * span:
                return normalize(raw)
    if kind == "clustered":
        # half the knots crowded into [-eps, eps], the rest equispaced;
        # exercises large sum|x|^3 at fixed n
        eps = 0.05
        c = n // 2
        outer = np.linspace(-1.0, 1.0, n - c)
        inner = np.linspace(-eps, eps, c) + eps * 1e-3
        return normalize(np.concatenate([outer, inner]))
    raise DegenerateInput(f"unknown knot family {kind!r}")


def direction_vectors(kv: KnotVector) -> np.ndarray:
    """The (n, 2) array of rows v_k = (x_k, n^{-1/2}); it satisfies V^T V = I_2."""
    return np.column_stack([kv.xs, np.full(kv.n, kv.n ** -0.5)])


def m3(kv: KnotVector) -> float:
    """Sum of |v_k|^3 = (x_k^2 + 1/n)^{3/2}, the error-controlling quantity."""
    return float(((kv.xs * kv.xs + 1.0 / kv.n) ** 1.5).sum())


def x_l3_cubed(kv: KnotVector) -> float:
    """Sum of |x_k|^3, the right-hand side of the main approximation bound."""
    return float((np.abs(kv.xs) ** 3).sum())
