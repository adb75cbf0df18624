"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Each test computes its quantities first, prints a single summary line, then
asserts.  Tolerances are part of the contract and must not be loosened; a red
line here means the property genuinely fails at the stated tolerance.
"""

import math

import numpy as np
import pytest

from splinellt import charprob, harness, knots, montecarlo, seminorm, splines
from splinellt.harness import fit_slope, inversion_vs_mc


def _report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_exactness_seed():
    kv = knots.family("equispaced", 3)
    target = 1 / math.sqrt(2)
    naive = splines.bspline_naive(kv, 0.0, 0)
    stable = splines.bspline_stable(kv, 0.0)
    dev = max(abs(naive - target), abs(stable - target), abs(naive - stable))
    _report(1, "exactness seed", dev <= 1e-12, f"max deviation from 1/sqrt(2): {dev:.2e}")


def test_criterion_02_density_normalization():
    # max |(n-1) int B - 1| over every family and n = 2..20, tolerance 1e-8
    ok, detail = harness.check_spline_normalization(1)
    _report(2, "density normalization", ok, detail)


def test_criterion_03_oracle_agreement():
    worst = harness.oracle_sweep(1, range(2, 25))
    _report(3, "oracle agreement", worst <= 1e-10, f"max relative deviation {worst:.2e}")


def test_criterion_04_theorem1_scaling():
    # the scaling run's own checks: -1.2 <= slope <= -0.45, residual < 0.15
    config = harness.ExperimentConfig("scaling", n_list=[8, 16, 32, 64, 128])
    records, summary = harness.run_scaling(config)
    errs = [r.error_value for r in records]
    fit = summary["slopes"]["equispaced"]
    ok = all(summary["checks"].values()) and errs[-1] < errs[0]
    _report(
        4,
        "Theorem 1 scaling",
        ok,
        f"slope {fit['slope']:.3f}, residual {fit['residual']:.3f}, "
        f"err128/err8 = {errs[-1] / errs[0]:.3f}",
    )


def test_criterion_05_ratio_bounded():
    # mean log-ratio slope at most 0.1
    ok, detail = harness.check_seminorm_ratio_bounded(1)
    _report(5, "ratio boundedness", ok, detail)


def test_criterion_06_corollary2():
    vals = {}
    for n in (16, 64):
        kv = knots.family("equispaced", n)
        g = seminorm.default_grid(n)
        for r in (0, 1, 2):
            vals[n, r] = seminorm.corollary2_error(kv, 0, 0, r, g).value
    decreasing = all(vals[64, r] < vals[16, r] for r in (1, 2))
    ratios = {(n, r): vals[n, r] / vals[n, 0] for n in (16, 64) for r in (1, 2)}
    within3 = all(v <= 3.0 for v in ratios.values())
    detail = "ratios " + ", ".join(
        f"n={n} r={r}: {ratios[n, r]:.2f}" for n in (16, 64) for r in (1, 2)
    ) + ("" if decreasing else "; not decreasing")
    _report(6, "Corollary 2", decreasing and within3, detail)


def test_criterion_07_corollary3_identity():
    worst = 0.0
    for n in (8, 12):
        kv = knots.family("equispaced", n)
        for r in range(4):
            worst = max(
                worst, harness.corollary3_route_agreement(kv, r, (0.1, 0.5, 1.0, 2.0, 5.0))
            )
    _report(7, "Corollary 3 identity", worst <= 1e-8, f"max relative route deviation {worst:.2e}")


def test_criterion_08_phi_consistency():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 40))
        kv = knots.family("uniform_random", n, int(rng.integers(10**6)))
        worst = max(worst, harness.phi_deviation(kv, rng.normal(scale=2.0, size=2)))
    _report(8, "phi_Q consistency", worst <= 1e-12, f"max relative deviation {worst:.2e}")


def test_criterion_09_quotient_pdf_cauchy():
    # max Cauchy deviation of the Gaussian quotient at seven points, tolerance 1e-6
    ok, detail = harness.check_quotient_cauchy(1)
    _report(9, "quotient-PDF lemma", ok, detail)


def test_criterion_10_inversion_vs_mc():
    kv = knots.family("equispaced", 16)
    dev, kept = inversion_vs_mc(kv, 10**6, seed=2)
    _report(10, "inversion vs MC", dev <= 4.0, f"max deviation {dev:.2f} SE over {kept} cells")


def test_criterion_11_hermite_genocchi_mc():
    kv = knots.family("uniform_random", 8, seed=5)
    exact = splines.exp_divided_difference(kv)
    # Hermite-Genocchi: the divided difference of f is E f^{(n-1)}(<x, S>) / (n-1)!
    proj = montecarlo.simplex_projection_samples(kv, 10**6, seed=1)
    est = montecarlo.estimate(np.exp(proj) / math.factorial(kv.n - 1))
    z = abs(est.mean - exact) / est.std_error
    # f = t^{n+1}: f^{(n-1)} / (n-1)! = (n+1) n / 2 t^2, whose divided
    # difference is h_2(x), exact from the complete homogeneous sums
    L, H = splines.complete_homogeneous(kv, 2)
    mono = montecarlo.estimate((kv.n + 1) * kv.n / 2 * proj**2)
    z_mono = abs(mono.mean - H[2] / (1 << 2 * L)) / mono.std_error
    ok = z <= 4.0 and z_mono <= 4.0
    _report(11, "Hermite-Genocchi MC", ok, f"exp case {z:.2f} SE; t^(n+1) case {z_mono:.2f} SE")


def test_criterion_12_corollary4():
    # the corollary4 run's own checks: each sup error within
    # max(noise floor, 5 m3) at every n; records r = 0 are cos, r = 1 sin
    config = harness.ExperimentConfig("corollary4", n_list=[16, 32, 64], N_mc=10**6, seed=4)
    records, summary = harness.run_corollary4(config)
    sup = {(rec.n, rec.r): rec for rec in records}
    c32 = sup[32, 0]
    bound = max(c32.noise_floor, 5 * c32.m3)
    dec = all(sup[64, r].error_value < sup[16, r].error_value for r in (0, 1))
    _report(
        12,
        "Corollary 4",
        all(summary["checks"].values()) and dec,
        f"n=32 cos {c32.error_value:.2e} sin {sup[32, 1].error_value:.2e} (bound {bound:.2e}); "
        f"cos 16->64: {sup[16, 0].error_value:.2e}->{sup[64, 0].error_value:.2e}, "
        f"sin 16->64: {sup[16, 1].error_value:.2e}->{sup[64, 1].error_value:.2e}",
    )


def test_criterion_13_gradient_checks():
    rng = np.random.default_rng(31)
    worst_grad = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 25))
        kv = knots.family("uniform_random", n, int(rng.integers(10**6)))
        worst_grad = max(worst_grad, harness.grad_fd_deviation(kv, rng.normal(scale=1.5, size=2)))

    # the ladder draws its points from the same stream, after the gradient loop
    worst_ladder = 0.0
    for n in (6, 8, 12):
        kv = knots.family("uniform_random", n, seed=n)
        worst_ladder = max(worst_ladder, harness.derivative_ladder_deviation(kv, rng))
    ok = worst_grad <= 1e-6 and worst_ladder <= 1e-8
    _report(
        13,
        "gradient checks",
        ok,
        f"grad_FG FD deviation {worst_grad:.2e}; derivative ladder {worst_ladder:.2e}",
    )


def test_criterion_14_xi_space_l1_bound():
    ns = [16, 64, 256]
    ratios = []
    for n in ns:
        kv = knots.family("equispaced", n)
        ratios.append(charprob.char_diff_integral(kv, 0) / knots.m3(kv))
    slope, _ = fit_slope(ns, ratios)
    _report(14, "xi-space L1 bound", slope <= 0.1, f"log-log slope of I/m3: {slope:.3f}")
