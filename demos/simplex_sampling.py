#!/usr/bin/env python3
"""Simplex projections really are distributed like the B-spline density.

Draw a uniform point S on the standard (n-1)-simplex, project it onto the
normalized knot vector, rescale by n, and histogram the result.  The claim:
the histogram matches (n-1) B(t) cell for cell, within Monte Carlo noise.
"""

import math

import numpy as np

from splinellt import knots, montecarlo, splines


def main():
    kv = knots.family("uniform_random", 7, seed=42)
    N = 400_000
    print(f"uniform_random knots, n = {kv.n}, N = {N} samples")

    samples = montecarlo.simplex_projection_samples(kv, N, seed=0)
    lo, hi = kv.xs[0], kv.xs[-1]
    edges = np.linspace(lo, hi, 25)
    counts, _ = np.histogram(samples, bins=edges)
    width = edges[1] - edges[0]
    density = counts / (N * width)

    # the histogram estimates cell averages, so average the exact density
    # over each cell too (2-point Gauss); midpoint values are visibly biased
    # in the steep tails at this sample size
    mids = 0.5 * (edges[:-1] + edges[1:])
    off = 0.5 * width / np.sqrt(3)
    exact = (kv.n - 1) * 0.5 * (
        splines.bspline_stable(kv, mids - off) + splines.bspline_stable(kv, mids + off)
    )

    print(f"{'t':>7} {'mc density':>11} {'exact':>9}  bar")
    for t, d, e in zip(mids, density, exact):
        bar = "#" * int(round(40 * e / exact.max()))
        print(f"{t:>7.3f} {d:>11.4f} {e:>9.4f}  {bar}")
    worst, kept = montecarlo.histogram_deviation(exact, counts, N, width)
    print(f"\nworst cell: {worst:.2f} SE over {kept} cells expecting >= 20 draws (<= 4 expected)")

    # the same samples estimate divided differences (Hermite-Genocchi):
    # E[f^{(n-1)}(<x, S>)] / (n-1)! equals the divided difference of f
    exact_dd = splines.divided_difference([(x, float(np.exp(x))) for x in kv.xs])
    est = montecarlo.estimate(np.exp(samples) / math.factorial(kv.n - 1))
    print(
        f"divided difference of exp:  mc {est.mean:.6f} +/- {est.std_error:.1e}"
        f"  exact {exact_dd:.6f}"
    )


if __name__ == "__main__":
    main()
