"""Experiment harness: reproducible runs, CSV/JSON output, invariant suite.

Each experiment takes an ExperimentConfig, emits ExperimentRecord rows
(schema below, stable across versions) plus a JSON summary with fitted
log-log slopes and named check outcomes.  Any NaN or infinite error value
in a record fails the run loudly.
"""

import csv
import json
import math
import time
from dataclasses import astuple, dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import charprob, knots, montecarlo, seminorm, specfun, splines
from .errors import ConfigError, InsufficientData

SCHEMA_VERSION = 1

DEFAULT_XI_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0)


@dataclass
class ExperimentConfig:
    experiment: str
    families: list = field(default_factory=lambda: ["equispaced"])
    n_list: list = field(default_factory=list)
    p: int = 0
    q: int = 0
    r: int = 0
    N_mc: int = 10**6
    seed: int = 1
    grid_T: float | None = None
    grid_h: float = 0.05
    out: str | None = None

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        for fam in self.families:
            if fam not in knots.FAMILIES:
                raise ConfigError(f"unknown family {fam!r}")
        if min(self.p, self.q, self.r) < 0:
            raise ConfigError("p, q, r must be >= 0")
        if not 0 <= self.seed < 2**64:
            # the Monte Carlo stream takes the seed as a 64-bit key
            raise ConfigError("seed must lie in [0, 2^64)")
        if self.experiment != "validate":
            if not self.families:
                raise ConfigError("families must not be empty")
            if not self.n_list:
                raise ConfigError("n_list must not be empty")
            if any(n < 2 for n in self.n_list):
                raise ConfigError("all n must be >= 2")
        if self.experiment in ("scaling", "corollary3", "corollary4") and self.p + self.q > 8:
            # theorem1_error's range, kept by every weighted-sup experiment:
            # a weight |xi|^p past it (p = 2000) overflows to inf records
            raise ConfigError("p + q <= 8 required")
        if self.experiment == "scaling":
            if any(self.q > n - 4 for n in self.n_list):
                raise ConfigError("q <= n-4 required for every n")
            try:
                for n in self.n_list:
                    _scaling_grid(self, n)
            except ValueError as exc:
                raise ConfigError(f"scaling grid: {exc}") from exc
        if self.experiment == "corollary3":
            if self.r > 4 or self.q > 2:
                raise ConfigError("corollary3 needs r <= 4 and q <= 2")
        if self.experiment == "corollary4":
            if self.q != 0:
                raise ConfigError("corollary4 supports q = 0 only")
            if self.N_mc < 10**5:
                raise ConfigError("corollary4 needs N >= 1e5")
        if self.experiment == "inversion":
            if any(n > 64 for n in self.n_list):
                raise ConfigError("inversion limited to n <= 64")
            if self.N_mc < 10**4:
                raise ConfigError("inversion needs N >= 1e4")


@dataclass
class ExperimentRecord:
    family: str
    n: int
    m3: float
    sum_abs_x3: float
    p: int
    q: int
    r: int
    error_value: float
    argmax: float
    noise_floor: float
    runtime_ms: float
    seed: int


CSV_HEADER = [f.name for f in fields(ExperimentRecord)]


def fit_slope(ns, errs):
    """OLS slope of log(err) against log(n); returns (slope, rms residual)."""
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if ns.size < 3:
        raise InsufficientData("need >= 3 records per family for a slope fit")
    X = np.log(ns)
    Y = np.log(errs)
    A = np.column_stack([X, np.ones_like(X)])
    coef, *_ = np.linalg.lstsq(A, Y, rcond=None)
    resid = Y - A @ coef
    return float(coef[0]), float(np.sqrt(np.mean(resid * resid)))


def fit_slopes_by_family(records):
    out = {}
    for fam in sorted({r.family for r in records}):
        rows = sorted((r for r in records if r.family == fam), key=lambda r: r.n)
        try:
            slope, resid = fit_slope([r.n for r in rows], [r.error_value for r in rows])
            out[fam] = {"slope": slope, "residual": resid}
        except InsufficientData:
            out[fam] = None
    return out


def _record(config, family, kv, p, q, r, value, argmax, noise, t0):
    return ExperimentRecord(
        family=family,
        n=kv.n,
        m3=knots.m3(kv),
        sum_abs_x3=knots.x_l3_cubed(kv),
        p=p,
        q=q,
        r=r,
        error_value=value,
        argmax=argmax,
        noise_floor=noise,
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _sweep(config):
    """Yield (family, kv, t0) for every family and n, t0 taken before the knots are built."""
    for fam in config.families:
        for n in config.n_list:
            t0 = time.perf_counter()
            yield fam, knots.family(fam, n, config.seed), t0


def _scaling_grid(config, n):
    """The scaling grid at n; GridSpec states its limits and raises ValueError."""
    if config.grid_T is None:
        return seminorm.default_grid(n, config.grid_h)
    return seminorm.GridSpec(T=config.grid_T, h=config.grid_h)


def run_scaling(config):
    records = []
    for fam, kv, t0 in _sweep(config):
        res = seminorm.theorem1_error(kv, config.p, config.q, _scaling_grid(config, kv.n))
        records.append(
            _record(config, fam, kv, config.p, config.q, 0, res.value, res.argmax_t, 0.0, t0)
        )
    slopes = fit_slopes_by_family(records)
    checks = {}
    if "equispaced" in config.families and slopes.get("equispaced"):
        s = slopes["equispaced"]
        checks["equispaced_slope_in_range"] = -1.2 <= s["slope"] <= -0.45
        checks["equispaced_residual_small"] = s["residual"] < 0.15
    summary = {"slopes": slopes, "checks": checks}
    return records, summary


def oracle_agreement(kv) -> float:
    """Max pointwise relative deviation of the stable path from the oracle."""
    lo, hi = float(kv.xs[0]), float(kv.xs[-1])
    ts = lo + (hi - lo) * (np.arange(101) + 0.5) / 101
    stable = splines.bspline_stable(kv, ts).tolist()
    worst = 0.0
    for t, s in zip(ts, stable):
        o = splines.bspline_naive(kv, float(t), 0)
        if o == 0.0:
            worst = max(worst, abs(s))
        else:
            worst = max(worst, abs(s - o) / abs(o))
    return worst


def oracle_sweep(seed, ns) -> float:
    """Max ``oracle_agreement`` over every knot family and every n in ns."""
    return max(oracle_agreement(kv) for _, _, kv in _all_kvs(seed, ns))


def phi_deviation(kv, xi) -> float:
    """Relative deviation of the phi_Q product from exp(F + iG), and of |phi_Q| from e^F."""
    z = charprob.char_exponent(kv, xi)
    prod = charprob.phi_Q(kv, xi)
    expz = complex(np.exp(z))
    worst = abs(prod - expz) / abs(expz)
    return max(worst, abs(abs(prod) - math.exp(z.real)) / math.exp(z.real))


def phi_consistency(kv, seed, trials=20) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, phi_deviation(kv, rng.normal(scale=2.0, size=2)))
    return worst


_FD_STEP = 1e-5


def grad_fd_deviation(kv, xi) -> float:
    """Max |central difference - closed form| of dF and dG along both xi axes."""
    worst = 0.0
    for b in (1, 2):
        dF, dG = charprob.grad_FG(kv, xi, b)
        e = np.zeros(2)
        e[b - 1] = _FD_STEP
        zp, zm = charprob.char_exponent(kv, xi + e), charprob.char_exponent(kv, xi - e)
        d = (zp - zm) / (2 * _FD_STEP)
        worst = max(worst, abs(d.real - dF), abs(d.imag - dG))
    return worst


def derivative_ladder_deviation(kv, rng) -> float:
    """Max |d/dt S_r + (n-2-r) S_{r+1}| for r = 0, 1, S_r the oracle sum.

    The derivative is a Richardson-extrapolated central difference at 20
    points per r drawn from rng, each at least 1e-3 from every knot.
    """
    n = kv.n
    worst = 0.0
    for r in (0, 1):
        pts = 0
        while pts < 20:
            t = rng.uniform(kv.xs[0], kv.xs[-1])
            if np.min(np.abs(kv.xs - t)) < 1e-3:
                continue
            pts += 1

            def fd(step):
                return (
                    splines.bspline_naive(kv, t + step, r)
                    - splines.bspline_naive(kv, t - step, r)
                ) / (2 * step)

            rich = (4 * fd(_FD_STEP / 2) - fd(_FD_STEP)) / 3
            exact = -(n - 2 - r) * splines.bspline_naive(kv, t, r + 1)
            worst = max(worst, abs(rich - exact))
    return worst


def _laguerre_2f0_mismatches(n) -> list:
    """The r <= 6 at which 2F0(-r, n-1; 1/w) = r! w^-r L_r^(-n-r+1)(-w)
    fails, compared exactly coefficient by coefficient: at w^-m the left
    side has (-r)_m (n-1)_m / m!, the right (-1)^(r-m) times the coefficient
    of x^(r-m) in ``specfun.laguerre_coefficients``."""
    bad = []
    for r in range(7):
        lag = specfun.laguerre_coefficients(r, 1 - n - r)
        hyp = [math.prod(range(-r, m - r)) * math.prod(range(n - 1, n - 1 + m)) // math.factorial(m)
               for m in range(r + 1)]
        if hyp != [(-1) ** (r - m) * lag[r - m] for m in range(r + 1)]:
            bad.append(r)
    return bad


def run_identity(config):
    records = []
    details = {}
    for fam, kv, t0 in _sweep(config):
        devs = {"oracle": oracle_agreement(kv), "phi": phi_consistency(kv, config.seed)}
        records.append(_record(config, fam, kv, 0, 0, 0, max(devs.values()), 0.0, 0.0, t0))
        details[f"{fam}/n={kv.n}"] = {**devs, "laguerre_2f0_mismatches": _laguerre_2f0_mismatches(kv.n)}
    checks = {
        "oracle_agreement": all(d["oracle"] <= 1e-10 for d in details.values()),
        "phi_consistency": all(d["phi"] <= 1e-12 for d in details.values()),
        "laguerre_2f0": not any(d["laguerre_2f0_mismatches"] for d in details.values()),
    }
    return records, {"details": details, "checks": checks}


def corollary3_route_agreement(kv, r, xis=(0.5, 1.0, 2.0)) -> float:
    """Largest relative gap between the Laguerre sum and the exact series."""
    worst = 0.0
    for xi, c in zip(xis, specfun.corollary3_quadrature(kv, r, xis)):
        a = specfun.corollary3_sum(kv, r, xi)
        worst = max(worst, abs(a - c) / max(abs(a), 1e-300))
    return worst


def run_corollary3(config):
    records = []
    details = {}
    for fam, kv, t0 in _sweep(config):
        res = seminorm.corollary3_error(kv, config.p, config.q, config.r, DEFAULT_XI_GRID)
        details[f"{fam}/n={kv.n}"] = {"route_agreement": corollary3_route_agreement(kv, config.r)}
        records.append(
            _record(config, fam, kv, config.p, config.q, config.r, res.value, res.argmax_t, 0.0, t0)
        )
    checks = {
        "route_agreement": all(d["route_agreement"] <= 1e-8 for d in details.values())
    }
    return records, {"details": details, "checks": checks, "slopes": fit_slopes_by_family(records)}


def run_corollary4(config):
    # the families at one n share one Monte Carlo draw, so each record's
    # runtime_ms runs from the start of that draw
    records, checks = [], {}
    for n in config.n_list:
        t0 = time.perf_counter()
        kvs = [knots.family(fam, n, config.seed) for fam in config.families]
        results = seminorm.corollary4_error(
            kvs, config.p, 0, (0.5, 1.0, 2.0), config.N_mc, config.seed
        )
        for fam, kv, (cos_res, sin_res) in zip(config.families, kvs, results):
            floor = 5 * knots.m3(kv)
            for r, (name, res) in enumerate((("cos", cos_res), ("sin", sin_res))):
                records.append(
                    _record(config, fam, kv, config.p, 0, r, res.value, res.argmax_t, res.noise_floor, t0)
                )
                checks[f"{fam}/n={n}/{name}"] = res.value <= max(res.noise_floor, floor)
    return records, {"checks": checks}


def _cell_average_nodes(edges):
    """2-point Gauss nodes per cell; averaging 2x2 blocks of pdf values then
    integrates a bicubic exactly, removing midpoint bias against histograms."""
    c = 0.5 * (edges[:-1] + edges[1:])
    h = 0.5 * np.diff(edges) / math.sqrt(3.0)
    return np.column_stack([c - h, c + h]).ravel()


def _density_vs_mc(kv, N, seed):
    """Max |(n-1) B at the cell midpoints - histogram of N projections <x, S>| in SE
    units over retained cells, on 40 equal cells spanning the knots."""
    edges = np.linspace(float(kv.xs[0]), float(kv.xs[-1]), 41)
    counts = montecarlo.projection_counts(kv, N, seed, edges)
    model = (kv.n - 1) * splines.bspline_stable(kv, 0.5 * (edges[:-1] + edges[1:]))
    return montecarlo.histogram_deviation(model, counts, N, np.diff(edges))


def inversion_vs_mc(kv, N, seed):
    """Max |cell-averaged inversion - histogram| in SE units over retained cells."""
    edges = montecarlo.default_grid()
    g = _cell_average_nodes(edges)
    # the grid certifies itself or raises, before any sampling
    fine = charprob.pdf_Q_inversion_grid(kv, g, g)
    counts = montecarlo.mc_pdf_Q(kv, N, seed)
    pdf = fine.reshape(g.size // 2, 2, g.size // 2, 2).mean(axis=(1, 3))
    width = np.diff(edges)
    area = np.multiply.outer(width, width)
    return montecarlo.histogram_deviation(pdf, counts, N, area)


def run_inversion(config):
    records = []
    checks = {}
    for fam, kv, t0 in _sweep(config):
        dev, kept = inversion_vs_mc(kv, config.N_mc, config.seed)
        checks[f"{fam}/n={kv.n}"] = dev <= 4.0
        records.append(_record(config, fam, kv, 0, 0, 0, dev, 0.0, 4.0, t0))
    return records, {"checks": checks}


# ---------------------------------------------------------------------------
# validate: the named invariant suite
# ---------------------------------------------------------------------------

_VALIDATE_NS = (2, 3, 5, 8, 16, 20)
_RATIO_NS, _RATIO_SEEDS = (16, 64), 20


def _all_kvs(seed, ns=_VALIDATE_NS):
    for fam in knots.FAMILIES:
        for n in ns:
            yield fam, n, knots.family(fam, n, seed)


def check_knot_normalization(seed):
    worst = max(
        max(abs(kv.sum_x), abs(kv.sum_x2 - 1.0)) for _, _, kv in _all_kvs(seed)
    )
    return worst <= 1e-12, f"max moment deviation {worst:.2e}"


def check_direction_orthonormal(seed):
    worst = 0.0
    for _, _, kv in _all_kvs(seed):
        V = knots.direction_vectors(kv)
        worst = max(worst, float(np.max(np.abs(V.T @ V - np.eye(2)))))
    return worst <= 1e-10, f"max |V^T V - I| = {worst:.2e}"


def check_l3_bound(seed):
    ok = all(
        knots.x_l3_cubed(kv) <= float(np.max(np.abs(kv.xs))) + 1e-12 <= 1 + 1e-12
        for _, _, kv in _all_kvs(seed)
    )
    return ok, "sum|x|^3 <= max|x| <= 1"


def check_m3_bounds(seed):
    for _, _, kv in _all_kvs(seed):
        m = knots.m3(kv)
        l3 = knots.x_l3_cubed(kv)
        if m < max(l3, kv.n**-0.5) - 1e-12:
            return False, "m3 lower bound violated"
        if m > 4 * (l3 + kv.n**-0.5):
            return False, "m3 upper bound violated"
    return True, "m3 comparable to sum|x|^3 + n^{-1/2}"


def check_spline_positivity(seed):
    for fam, n, kv in _all_kvs(seed):
        lo, hi = kv.xs[0], kv.xs[-1]
        inside = lo + (hi - lo) * (np.arange(64) + 0.5) / 64
        vals = splines.bspline_stable(kv, inside)
        if np.any(vals < 0) or np.any(vals[1:-1] <= 0):
            return False, f"positivity broken for {fam}, n={n}"
        outside = np.array([lo - 0.5, hi + 0.5, lo - 1e-9, hi + 1e-9])
        if np.any(splines.bspline_stable(kv, outside) != 0):
            return False, f"support broken for {fam}, n={n}"
    return True, "B >= 0, positive inside, 0 outside support"


def check_spline_normalization(seed):
    kvs = _all_kvs(seed, range(2, 21))
    worst = max(abs((n - 1) * splines.integrate_bspline(kv) - 1.0) for _, n, kv in kvs)
    return worst <= 1e-8, f"max |(n-1) int B - 1| = {worst:.2e}"


def check_oracle_agreement(seed):
    worst = oracle_sweep(seed, (2, 3, 4, 6, 8, 12, 16, 20, 24))
    return worst <= 1e-10, f"max relative deviation {worst:.2e}"


def check_derivative_ladder(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (6, 8, 12):
        kv = knots.family("uniform_random", n, seed)
        worst = max(worst, derivative_ladder_deviation(kv, rng))
    return worst <= 1e-8, f"max |FD - exponent reduction| = {worst:.2e}"


def check_hermite_fd(seed):
    # d^r/dt^r phi = P_r phi, P_0 = 1 and P_{r+1} = P_r' - t P_r, with the
    # integer coefficients of P_r formed exactly
    worst, P = 0.0, [1]
    for r in (1, 2, 3, 4):
        P = [(k + 1) * a - b for k, (a, b) in enumerate(zip(P[1:] + [0, 0], [0] + P))]
        for t in (-2.0, 0.0, 1.3):
            d = sum(c * t**k for k, c in enumerate(P)) * math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
            worst = max(worst, abs((-1) ** r * d - specfun.hermite_function(r, t)))
    return worst <= 1e-6, f"max Hermite-function derivative deviation {worst:.2e}"


def check_2f0_laguerre(seed):
    bad = {n: rs for n in (4, 8, 16) if (rs := _laguerre_2f0_mismatches(n))}
    return not bad, f"r <= 6 whose coefficient lists differ, by n: {bad}"


def check_wprime_sums(seed):
    # divided differences of monomials, in exact fractions: degree < n-1
    # kills the sum and degree n-1 (leading coefficient 1) gives 1
    bad = []
    for fam in ("equispaced", "uniform_random"):
        for n in (3, 5, 8, 12):
            kv = knots.family(fam, n, seed)
            terms = [(Fraction(x), splines.wprime(kv, k)) for k, x in enumerate(kv.xs.tolist())]
            bad += [(fam, n, j) for j in range(n) if sum(x**j / w for x, w in terms) != (j == n - 1)]
    return not bad, f"(family, n, degree) of the inexact sums: {bad}"


def check_phi_consistency(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 33))
        kv = knots.family("uniform_random", n, int(rng.integers(0, 2**31)))
        worst = max(worst, phi_consistency(kv, int(rng.integers(0, 2**31)), trials=1))
    return worst <= 1e-12, f"max |phi product - exp(F+iG)| relative {worst:.2e}"


def check_grad_fd(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 25))
        kv = knots.family("uniform_random", n, int(rng.integers(0, 2**31)))
        worst = max(worst, grad_fd_deviation(kv, rng.normal(scale=1.5, size=2)))
    return worst <= 1e-6, f"max gradient FD deviation {worst:.2e}"


def check_small_xi_gradient(seed):
    xi = (0.1, 0.0)
    for fam, n, kv in _all_kvs(seed, (8, 16)):
        m = knots.m3(kv)
        for b in (1, 2):
            dF, _ = charprob.grad_FG(kv, xi, b)
            if abs(dF + xi[b - 1]) > m * abs(xi[0]) ** 3 + 1e-15:
                return False, f"gradient bound broken for {fam}, n={n}"
    return True, "|dF + xi_b| <= m3 |xi|^3 at xi=(0.1, 0)"


def check_tail_bound(seed):
    for n in (16, 64):
        kv = knots.family("equispaced", n, seed)
        _, certified = charprob.truncation_radius(kv, 0)
        if not certified:
            return False, f"no certified truncation radius at n={n}"
    return True, "integrand < 1e-12 at the truncation radius"


def check_quotient_cauchy(seed):
    worst = max(
        abs(
            charprob.quotient_pdf(charprob.gaussian_joint, s, (-40.0, 40.0))
            - 1.0 / (math.pi * (1 + s * s))
        )
        for s in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)
    )
    return worst <= 1e-6, f"max Cauchy deviation {worst:.2e}"


GAUSSIAN_RATIO_NS = (2, 16, 64, 256, 10**4)
GAUSSIAN_RATIO_TS = (-3.0, -0.7, 0.0, 0.9, 2.0, 5.0)


def gaussian_ratio_deviation(n):
    """Largest relative deviation of pdf_gaussian_ratio(n, .) from Hinkley's closed form."""
    return max(
        abs(charprob.pdf_gaussian_ratio(n, t) / charprob.pdf_gaussian_ratio_closed_form(n, t) - 1)
        for t in GAUSSIAN_RATIO_TS
    )


def check_gaussian_ratio(seed):
    worst = max(gaussian_ratio_deviation(n) for n in GAUSSIAN_RATIO_NS)
    return worst <= 1e-12, f"max relative deviation from Hinkley's closed form {worst:.2e}"


def check_inversion_symmetry(seed):
    # equispaced knots are symmetric under x -> -x, so the inversion grid's
    # mirrored points agree to the last bit; the check therefore compares
    # the grid, two points and their mirror images, with the exact density
    kv = knots.family("equispaced", 8, seed)
    s1, s2 = np.array([0.3, -0.3, 1.1, -1.1]), np.array([0.7, -0.4])
    vals = charprob.pdf_Q_inversion_grid(kv, s1, s2)
    worst = float(np.max(np.abs(vals - charprob.pdf_Q_exact(kv, s1[:, None], s2))))
    return worst <= 1e-9, f"max deviation from the exact density {worst:.2e}"


def check_mc_determinism(seed):
    kv = knots.family("uniform_random", 8, seed)
    a = montecarlo.simplex_projection_samples(kv, 10**4, seed)
    b = montecarlo.simplex_projection_samples(kv, 10**4, seed)
    return np.array_equal(a, b), "bit-identical rerun"


def check_mc_moments(seed):
    # the first 2000 simplex points that the block sampler yields at n = 4
    e = montecarlo.sample_exp_vector(8000, montecarlo.rng_stream(seed)).reshape(2000, 4)
    # the 1e6 draws of the same stream, streamed block by block: no copy of them is held
    count, mean, m2, blocks = montecarlo.exp_moments(10**6, seed)
    var = m2 / (count - 1)
    measured = f"mean {mean:.5f}, var {var:.5f} over {count} draws in {blocks} blocks"
    if abs(mean - 1.0) > 4e-3 or abs(var - 1.0) > 1e-2:
        return False, f"Exp(1) moments off: {measured}"
    coords = e / e.sum(axis=1, keepdims=True)
    if np.max(np.abs(coords.sum(axis=1) - 1.0)) > 1e-14:
        return False, "simplex coordinates do not sum to 1"
    se = coords.std(axis=0, ddof=1) / math.sqrt(coords.shape[0])
    if np.any(np.abs(coords.mean(axis=0) - 0.25) > 4 * se):
        return False, "simplex coordinate means off"
    return True, f"Exp(1) and simplex moments within 4 SE: {measured}"


def check_mc_density_histogram(seed):
    dev, kept = _density_vs_mc(knots.family("equispaced", 8, seed), 10**6, seed)
    return dev <= 4.0, f"max deviation {dev:.2f} SE over {kept} cells"


def check_mc_cos_sin_bound(seed):
    kv = knots.family("equispaced", 16, seed)
    xis = (0.0, 0.5, 1.0, 2.0, 4.0)
    means, ses = montecarlo.char_estimates([kv], 10**5, seed, xis)
    for xi, (c, s), (c_se, s_se) in zip(xis, means[:, 0].T, ses[:, 0].T):
        if c**2 + s**2 > 1 + 4 * math.hypot(c_se, s_se):
            return False, f"cos^2 + sin^2 > 1 + 4 SE at xi={xi}"
    return True, "cos^2 + sin^2 <= 1 + 4 SE"


def check_mc_covariance(seed):
    kv = knots.family("uniform_random", 8, seed)
    N = 10**6
    def sums(q1, q2):
        # sum q and sum q q^T of one block, on the thread that drew it
        return np.array([q1.sum(), q2.sum()]), np.array([[q1 @ q1, q1 @ q2], [q2 @ q1, q2 @ q2]])

    total, outer = np.zeros(2), np.zeros((2, 2))
    for block_total, block_outer in montecarlo.q_blocks(kv, N, seed, sums):  # in block order
        total += block_total
        outer += block_outer
    mean = total / N
    cov = (outer - N * np.outer(mean, mean)) / (N - 1)
    se_mean = np.sqrt(np.diag(cov) / N)
    if np.any(np.abs(mean) > 4 * se_mean):
        return False, "Q mean off"
    # Q_a = sum_k v_ka (P_k - 1) and Exp(1) has fourth cumulant 6, so the
    # product Q_a Q_b has variance 1 + [a = b] + 6 sum_k v_ka^2 v_kb^2
    v2 = knots.direction_vectors(kv) ** 2
    se = np.sqrt((1 + np.eye(2) + 6 * v2.T @ v2) / N)
    if np.any(np.abs(cov - np.eye(2)) > 4 * se):
        return False, "Q covariance off"
    return True, "Q centered with covariance I within 4 SE"


def _grid_change(seed, a, b):
    """|Theorem-1 error on grid a - on grid b| for equispaced knots at n = 16."""
    kv = knots.family("equispaced", 16, seed)
    ea, eb = (seminorm.theorem1_error(kv, 0, 0, grid).value for grid in (a, b))
    return abs(ea - eb)


def check_seminorm_grid_stability(seed):
    change = _grid_change(seed, seminorm.GridSpec(16.0, 0.02), seminorm.GridSpec(16.0, 0.01))
    return change <= 1e-6, f"change {change:.2e}"


def check_seminorm_grid_truncation(seed):
    change = _grid_change(seed, seminorm.GridSpec(16.0, 0.05), seminorm.GridSpec(32.0, 0.05))
    return change < 1e-9, f"change {change:.2e}"


def check_seminorm_monotone(seed):
    errs = []
    for n in (8, 16, 32, 64, 128):
        kv = knots.family("equispaced", n, seed)
        errs.append(seminorm.theorem1_error(kv, 0, 0, seminorm.default_grid(n)).value)
    ok = all(errs[i + 1] <= errs[i] * 1.05 for i in range(len(errs) - 1))
    return ok, f"errors {['%.3e' % e for e in errs]}"


def check_seminorm_ratio_bounded(seed):
    """Two-point slope of mean log(sup error / sum|x|^3) against log n, over
    _RATIO_SEEDS uniform_random knot vectors at each n of _RATIO_NS, at most 0.1."""
    means = []
    for n in _RATIO_NS:
        logs = []
        for s in range(_RATIO_SEEDS):
            kv = knots.family("uniform_random", n, seed + s)
            err = seminorm.theorem1_error(kv, 0, 0, seminorm.default_grid(n)).value
            logs.append(math.log(err / knots.x_l3_cubed(kv)))
        means.append(np.mean(logs))
    slope = (means[-1] - means[0]) / (math.log(_RATIO_NS[-1]) - math.log(_RATIO_NS[0]))
    return slope <= 0.1, f"mean log-ratio slope {slope:.3f}"


def check_fit_slope_exact(seed):
    ns = [8, 16, 32, 64]
    s1, _ = fit_slope(ns, [3.0 / n for n in ns])
    s0, _ = fit_slope(ns, [2.0] * 4)
    return abs(s1 + 1.0) <= 1e-12 and abs(s0) <= 1e-12, "exact power laws recovered"


VALIDATE_CHECKS = {
    "knotset.normalization": check_knot_normalization,
    "knotset.direction_orthonormal": check_direction_orthonormal,
    "knotset.l3_bound": check_l3_bound,
    "knotset.m3_bounds": check_m3_bounds,
    "splinecore.positivity_support": check_spline_positivity,
    "splinecore.normalization": check_spline_normalization,
    "splinecore.oracle_agreement": check_oracle_agreement,
    "splinecore.derivative_ladder": check_derivative_ladder,
    "specfun.hermite_finite_difference": check_hermite_fd,
    "specfun.laguerre_2f0_identity": check_2f0_laguerre,
    "specfun.wprime_monomial_sums": check_wprime_sums,
    "charprob.phi_consistency": check_phi_consistency,
    "charprob.gradient_finite_difference": check_grad_fd,
    "charprob.small_xi_gradient_bound": check_small_xi_gradient,
    "charprob.tail_bound": check_tail_bound,
    "charprob.quotient_cauchy": check_quotient_cauchy,
    "charprob.gaussian_ratio": check_gaussian_ratio,
    "charprob.inversion_symmetry": check_inversion_symmetry,
    "montecarlo.determinism": check_mc_determinism,
    "montecarlo.moments": check_mc_moments,
    "montecarlo.density_histogram": check_mc_density_histogram,
    "montecarlo.cos_sin_bound": check_mc_cos_sin_bound,
    "montecarlo.covariance": check_mc_covariance,
    "seminorm.grid_stability": check_seminorm_grid_stability,
    "seminorm.grid_truncation": check_seminorm_grid_truncation,
    "seminorm.monotone_trend": check_seminorm_monotone,
    "seminorm.ratio_bounded": check_seminorm_ratio_bounded,
    "harness.fit_slope_exact": check_fit_slope_exact,
}


def run_validate(config):
    checks = {}
    for name, fn in VALIDATE_CHECKS.items():
        ok, detail = fn(config.seed)
        checks[name] = {"passed": bool(ok), "detail": detail}
    return [], {"checks": {k: v["passed"] for k, v in checks.items()}, "details": checks}


# ---------------------------------------------------------------------------
# dispatch and output
# ---------------------------------------------------------------------------

_RUNNERS = {
    "validate": run_validate,
    "scaling": run_scaling,
    "identity": run_identity,
    "corollary3": run_corollary3,
    "corollary4": run_corollary4,
    "inversion": run_inversion,
}

EXPERIMENTS = tuple(_RUNNERS)


def run(config: ExperimentConfig):
    """Execute one experiment; returns (records, summary, exit_code)."""
    config.validate()
    records, summary = _RUNNERS[config.experiment](config)
    records.sort(key=lambda r: (r.family, r.n, r.p, r.q, r.r))
    non_finite = not all(math.isfinite(r.error_value) for r in records)
    passed = all(summary.get("checks", {}).values()) and not non_finite
    summary["schema_version"] = SCHEMA_VERSION
    summary["experiment"] = config.experiment
    summary["seed"] = config.seed
    summary["passed"] = passed
    if non_finite:
        # the key keeps the name of the schema; it covers +-inf as well as NaN
        summary["nan_records"] = True
    exit_code = 0 if passed else 1
    if config.out:
        write_outputs(config.out, records, summary)
    return records, summary, exit_code


def write_outputs(out_path: str, records, summary):
    """Write RFC-4180 CSV to out_path and the JSON summary next to it."""
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        w.writerows(astuple(r) for r in records)
    json_path = out_path.rsplit(".", 1)[0] + ".json" if out_path.endswith(".csv") else out_path + ".json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, default=float)
        fh.write("\n")
