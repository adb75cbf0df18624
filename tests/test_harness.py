import csv
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from splinellt import charprob, cli, harness, knots, montecarlo, seminorm, specfun, splines
from splinellt.errors import ConfigError, InsufficientData


def test_fit_slope_exact_power_laws():
    ns = [8, 16, 32, 64]
    slope, resid = harness.fit_slope(ns, [3.0 / n for n in ns])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)
    slope, _ = harness.fit_slope(ns, [2.0, 2.0, 2.0, 2.0])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_needs_three_points():
    with pytest.raises(InsufficientData):
        harness.fit_slope([8, 16], [1.0, 0.5])


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(experiment="nope").validate()
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(experiment="scaling", families=["martian"], n_list=[8]).validate()
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(experiment="scaling", n_list=[]).validate()
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(experiment="scaling", families=[], n_list=[8]).validate()
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(experiment="corollary4", n_list=[16], q=1).validate()
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(experiment="corollary4", n_list=[16], N_mc=100).validate()
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(experiment="corollary3", n_list=[64], r=5).validate()
    harness.ExperimentConfig(experiment="scaling", n_list=[8, 16]).validate()


def _scaling_config(tmp_path, name="out.csv"):
    return harness.ExperimentConfig(
        experiment="scaling",
        families=["equispaced"],
        n_list=[8, 16, 32],
        out=str(tmp_path / name),
    )


def test_scaling_run_outputs(tmp_path):
    cfg = _scaling_config(tmp_path)
    records, summary, code = harness.run(cfg)
    assert code == 0
    assert len(records) == 3
    assert summary["passed"]
    with open(tmp_path / "out.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # the header is the record's field order, and it is a stable schema
    assert rows[0] == harness.CSV_HEADER == (
        "family,n,m3,sum_abs_x3,p,q,r,error_value,argmax,noise_floor,runtime_ms,seed".split(",")
    )
    assert len(rows) == 4
    with open(tmp_path / "out.json") as fh:
        js = json.load(fh)
    assert js["experiment"] == "scaling"
    assert js["slopes"]["equispaced"]["slope"] < -0.45


def test_rerun_reproduces_csv_modulo_runtime(tmp_path):
    cfg_a = _scaling_config(tmp_path, "a.csv")
    cfg_b = _scaling_config(tmp_path, "b.csv")
    harness.run(cfg_a)
    harness.run(cfg_b)
    strip = lambda p: [
        [v for i, v in enumerate(row) if harness.CSV_HEADER[i] != "runtime_ms"]
        if j > 0
        else row
        for j, row in enumerate(csv.reader(open(p, newline="")))
    ]
    assert strip(tmp_path / "a.csv") == strip(tmp_path / "b.csv")


def test_record_schema_values():
    cfg = harness.ExperimentConfig(
        experiment="scaling", families=["chebyshev"], n_list=[8, 12, 16], seed=9
    )
    records, _, _ = harness.run(cfg)
    for r in records:
        assert r.family == "chebyshev"
        assert r.seed == 9
        assert r.error_value > 0 and np.isfinite(r.error_value)
        assert r.m3 > 0 and r.sum_abs_x3 > 0
        assert r.runtime_ms >= 0


def test_corollary4_draws_once_per_n(monkeypatch):
    # the families at one n share one pass over the simplex stream, and give
    # the records and checks of separate corollary4_error calls bit for bit
    passes = []
    blocks = montecarlo._exp_blocks

    def counted(*args):
        passes.append(args)
        return blocks(*args)

    monkeypatch.setattr(montecarlo, "_exp_blocks", counted)
    families = ["equispaced", "uniform_random"]
    config = harness.ExperimentConfig(
        experiment="corollary4", families=families, n_list=[16], p=1, N_mc=10**5, seed=2
    )
    records, summary, code = harness.run(config)
    assert code == 0 and len(passes) == 1
    expected, checks = [], {}
    for fam in families:
        kv = knots.family(fam, 16, 2)
        ((cos_res, sin_res),) = seminorm.corollary4_error([kv], 1, 0, (0.5, 1.0, 2.0), 10**5, 2)
        floor = 5 * knots.m3(kv)
        for r, res in enumerate((cos_res, sin_res)):
            expected.append((fam, r, res.value, res.argmax_t, res.noise_floor))
            checks[f"{fam}/n=16/{('cos', 'sin')[r]}"] = res.value <= max(res.noise_floor, floor)
    assert [(rec.family, rec.r, rec.error_value, rec.argmax, rec.noise_floor) for rec in records] == expected
    assert summary["checks"] == checks


def test_corollary4_memory_peak(monkeypatch, traced_peak):
    # two families at n = 32 on 1e6 draws, streamed: with two workers pinned
    # here, two block buffers and the block-sized arrays made for each of
    # the at most W + 1 blocks in flight, about 1.8 MB; submitting every
    # block at once (pool.map) read 2.6 MB, as did the ring of 3W - 2 blocks
    # that the caller consumed, and holding the two projections and one
    # estimate buffer of N doubles 22.9 MB
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 2)
    config = harness.ExperimentConfig(
        experiment="corollary4", families=["equispaced", "uniform_random"], n_list=[32], N_mc=10**6
    )
    (_, _, code), peak = traced_peak(harness.run, config)
    assert code == 0
    assert peak <= 2.4e6


def test_validate_checks_memory_peak(monkeypatch, traced_peak):
    # no check holds an array of its 1e5 or 1e6 draws: with two workers
    # pinned here, the largest, montecarlo.cos_sin_bound, traces about 1.9 MB
    # and montecarlo.moments, streamed by exp_moments, about 1.1 MB; holding
    # the moments check's 1e6 draws read 8.3 MB, and var(ddof=1) beside them 16 MB
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 2)
    seed = harness.ExperimentConfig(experiment="validate").seed
    peaks = {}
    for name, check in harness.VALIDATE_CHECKS.items():
        (ok, detail), peaks[name] = traced_peak(check, seed)
        assert ok, f"{name}: {detail}"
    assert {name: peak for name, peak in peaks.items() if peak > 2.4e6} == {}


def test_validate_experiment_passes(tmp_path):
    cfg = harness.ExperimentConfig(experiment="validate", out=str(tmp_path / "v.csv"))
    records, summary, code = harness.run(cfg)
    failed = [k for k, v in summary["checks"].items() if not v]
    assert code == 0, f"failing checks: {failed}"
    assert records == []
    # validate emits a header-only CSV; its content is the JSON check map
    with open(tmp_path / "v.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [harness.CSV_HEADER]
    with open(tmp_path / "v.json") as fh:
        assert json.load(fh)["passed"]


def test_mc_determinism_detects_a_moved_sample(monkeypatch):
    # the rerun differs from the first draw in one sample by one ulp
    ok, detail = harness.check_mc_determinism(3)
    assert ok, detail
    sample = montecarlo.simplex_projection_samples
    calls = []

    def moved_on_rerun(kv, N, seed):
        out = sample(kv, N, seed)
        calls.append(N)
        if len(calls) == 2:
            out[N // 2] = np.nextafter(out[N // 2], np.inf)
        return out

    monkeypatch.setattr(montecarlo, "simplex_projection_samples", moved_on_rerun)
    ok, detail = harness.check_mc_determinism(3)
    assert not ok, detail


def test_mc_covariance_bounds_each_entry_by_its_own_se(monkeypatch):
    # Q2's variance is moved to 1 + d, with d between 4 of its own SE,
    # sqrt((2 + 6/n) / N), and the looser 4 sqrt(3/N) that bounded every entry
    seed, n, N = 3, 8, 10**6
    ok, detail = harness.check_mc_covariance(seed)
    assert ok, detail
    kv = knots.family("uniform_random", n, seed)
    q2 = np.concatenate(list(montecarlo.q_blocks(kv, N, seed, lambda q1, q2: q2)))
    d = 2 * math.sqrt((2 + 6 / n) / N) + 2 * math.sqrt(3 / N)
    scale = math.sqrt((1 + d) / q2.var(ddof=1))
    blocks = montecarlo.q_blocks

    def scaled(kv, N, seed, work):
        return blocks(kv, N, seed, lambda q1, q2: work(q1, scale * q2))

    monkeypatch.setattr(montecarlo, "q_blocks", scaled)
    q = np.concatenate(list(montecarlo.q_blocks(kv, N, seed, lambda q1, q2: np.column_stack((q1, q2)))))
    dev = np.abs(np.cov(q.T) - np.eye(2))
    assert 4 * math.sqrt((2 + 6 / n) / N) < dev[1, 1] < 4 * math.sqrt(3 / N)
    assert np.max(dev) < 4 * math.sqrt(3 / N)
    ok, detail = harness.check_mc_covariance(seed)
    assert not ok, detail


def test_wprime_sums_detect_one_ulp(monkeypatch):
    # one W'(x_k) moved by a unit in the last place of its double leaves
    # every float sum within 1e-12 max|1/W'|, but not the exact sums
    assert harness.check_wprime_sums(1)[0]
    wprime = splines.wprime

    def moved(kv, k):
        w = wprime(kv, k)
        return w + Fraction(math.ulp(float(w))) if k == 0 else w

    monkeypatch.setattr(splines, "wprime", moved)
    assert not harness.check_wprime_sums(1)[0]


def test_laguerre_2f0_checks_detect_one_wrong_coefficient(monkeypatch):
    coefficients = specfun.laguerre_coefficients

    def moved(r, alpha):
        c = coefficients(r, alpha)
        return c[:-1] + [c[-1] + 1] if r == 3 else c

    config = harness.ExperimentConfig(experiment="identity", n_list=[4])
    assert harness.check_2f0_laguerre(1)[0]
    assert harness.run_identity(config)[1]["checks"]["laguerre_2f0"]
    monkeypatch.setattr(specfun, "laguerre_coefficients", moved)
    assert not harness.check_2f0_laguerre(1)[0]
    assert not harness.run_identity(config)[1]["checks"]["laguerre_2f0"]


def test_validate_check_names_cover_modules():
    prefixes = {name.split(".")[0] for name in harness.VALIDATE_CHECKS}
    assert prefixes >= {
        "knotset",
        "splinecore",
        "specfun",
        "charprob",
        "montecarlo",
        "seminorm",
        "harness",
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_package_import_loads_no_module(run_python):
    # each module is the one way to its names: the package re-exports nothing
    script = (
        "import sys, splinellt\n"
        "print(sorted(m for m in sys.modules if m.startswith('splinellt.')),\n"
        "      sorted(k for k in vars(splinellt) if not k.startswith('_')),\n"
        "      hasattr(splinellt, '__version__'))\n"
    )
    assert run_python("-c", script).strip() == "[] [] True"


def test_cli_import_loads_no_scipy(run_python):
    # nor concurrent.futures: the Monte Carlo blocks import their thread
    # pool when they first run, which keeps it out of the CLI's setup time
    script = (
        "import sys, splinellt.cli\n"
        "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    assert run_python("-c", script).strip() == "False False"


def test_cli_and_validate_load_no_mpmath(run_python):
    # every route is a Python-integer bracket: no extended-precision library
    # is imported, by the CLI or by any validate check
    script = (
        "import sys, splinellt.cli\n"
        "from splinellt import harness\n"
        "harness.run_validate(harness.ExperimentConfig('validate'))\n"
        "print('mpmath' in sys.modules)\n"
    )
    assert run_python("-c", script).strip() == "False"


def test_cli_unknown_family_exits_2(capsys):
    rc = cli.main(["scaling", "--family", "klingon", "--n", "8,16,32"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_bad_precondition_exits_2(capsys):
    rc = cli.main(["corollary3", "--family", "equispaced", "--n", "64", "--r", "5"])
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [["scaling", "--n", "8,16,32", "--grid-h", "0.1"],
     ["scaling", "--n", "8,16,32", "--grid-T", "5"],
     ["scaling", "--family", "uniform_random", "--n", "8", "--seed", "-1"],
     ["corollary4", "--family", "uniform_random", "--n", "8", "--N", "100000",
      "--seed", str(2**64 + 1)],
     ["corollary3", "--n", "8,1"],
     ["scaling", "--n", "8,16,32", "--grid-T", "nan"],
     ["scaling", "--n", "8,16,32", "--grid-T", "inf"]],
    ids=["grid_h", "grid_T", "negative_seed", "seed_past_64_bits", "corollary3_n",
         "grid_T_nan", "grid_T_inf"],
)
def test_cli_bad_config_exits_2_before_any_work(monkeypatch, capsys, argv):
    # no knot vector is built, so no experiment has started
    def no_work(*args):
        raise AssertionError("work started before the configuration was checked")

    monkeypatch.setattr(knots, "family", no_work)
    assert cli.main(argv) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["scaling", "identity", "corollary3", "inversion", "corollary4"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_empty_family_list_exits_2(tmp_path, capsys, experiment, source):
    # with no family every experiment would pass with no records, or crash
    if source == "flag":
        argv = ["--family", ","]
    else:
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("family =\n")
        argv = ["--config", str(cfg_file)]
    assert cli.main([experiment, *argv, "--n", "16"]) == 2
    assert "config error" in capsys.readouterr().err


def test_corollary3_error_falls_at_least_at_the_sum_abs_x3_rate():
    # slopes of -1.001 and -1.185 at seed 1; uniform_random read -0.978,
    # -0.758 and -1.086 at seeds 2, 3 and 4507.  The bound is the margin of
    # scaling's equispaced_slope_in_range check
    config = harness.ExperimentConfig(
        experiment="corollary3", families=["equispaced", "uniform_random"],
        n_list=[32, 64, 128, 256], r=2, seed=1,
    )
    _, summary, code = harness.run(config)
    assert code == 0 and summary["checks"]["route_agreement"]
    for family in config.families:
        assert summary["slopes"][family]["slope"] <= -0.45, family


def test_cli_identity_runs_past_oracle_max_n(capsys):
    # the oracle, the kernel and the 2F0 identity have no cap on n
    assert cli.main(["identity", "--family", "equispaced", "--n", "32"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_corollary3_runs_past_n24(capsys):
    # the two Corollary-3 sums are exact integer brackets, with no cap on n
    assert cli.main(["corollary3", "--n", "32"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_scaling_end_to_end(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = cli.main(
        ["scaling", "--family", "equispaced", "--n", "8", "--n", "16,32", "--out", str(out)]
    )
    assert rc == 0
    assert out.exists() and (tmp_path / "run.json").exists()
    assert "PASS" in capsys.readouterr().out


def test_cli_seed_precedence(tmp_path, monkeypatch):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("family = equispaced\nn = 8,16,32\nseed = 7\n")
    args = cli.build_parser().parse_args(["scaling", "--config", str(cfg_file)])
    assert cli.config_from_args(args).seed == 7

    monkeypatch.setenv("SPLINE_LLT_SEED", "55")
    args = cli.build_parser().parse_args(["scaling", "--n", "8"])
    assert cli.config_from_args(args).seed == 55

    # explicit flag beats both the environment and the config file
    args = cli.build_parser().parse_args(
        ["scaling", "--config", str(cfg_file), "--seed", "3"]
    )
    assert cli.config_from_args(args).seed == 3


def test_cli_env_seed_invalid(monkeypatch, capsys):
    monkeypatch.setenv("SPLINE_LLT_SEED", "not-a-number")
    rc = cli.main(["scaling", "--n", "8,16"])
    assert rc == 2


def test_config_file_parsing(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\nfamily = chebyshev, equispaced\nn = 8\ngrid_h = 0.02\n")
    cfg = cli.read_config_file(str(p))
    assert cfg == {"family": "chebyshev, equispaced", "n": "8", "grid_h": "0.02"}
    p.write_text("this is not a key value line\n")
    with pytest.raises(ConfigError):
        cli.read_config_file(str(p))


def test_config_file_unknown_key(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("frobnicate = 1\n")
    args = cli.build_parser().parse_args(["scaling", "--config", str(p)])
    with pytest.raises(ConfigError):
        cli.config_from_args(args)


def test_cli_missing_config_file_exits_2():
    assert cli.main(["scaling", "--config", "/no/such/file.cfg"]) == 2


@pytest.mark.parametrize(
    "argv, config_text",
    [(["--n", "abc"], None), (["--n", "8,x"], None), (["--n", "8", "--p", "x"], None),
     ([], "n = x\n")],
)
def test_cli_malformed_value_exits_2(tmp_path, capsys, argv, config_text):
    if config_text is not None:
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(config_text)
        argv = ["--config", str(cfg_file)]
    assert cli.main(["scaling", *argv]) == 2
    assert "config error" in capsys.readouterr().err


def test_nan_record_fails_run(monkeypatch, tmp_path):
    def bad_runner(config):
        rec = harness.ExperimentRecord(
            family="equispaced", n=8, m3=1.0, sum_abs_x3=0.5, p=0, q=0, r=0,
            error_value=float("nan"), argmax=0.0, noise_floor=0.0,
            runtime_ms=1.0, seed=config.seed,
        )
        return [rec], {"checks": {}}

    monkeypatch.setitem(harness._RUNNERS, "scaling", bad_runner)
    cfg = harness.ExperimentConfig(experiment="scaling", n_list=[8])
    _, summary, code = harness.run(cfg)
    assert code == 1
    assert summary["nan_records"]


@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
def test_infinite_record_fails_run(monkeypatch, value):
    def bad_runner(config):
        rec = harness.ExperimentRecord(
            family="equispaced", n=8, m3=1.0, sum_abs_x3=0.5, p=0, q=0, r=0,
            error_value=value, argmax=0.0, noise_floor=value,
            runtime_ms=1.0, seed=config.seed,
        )
        return [rec], {"checks": {"inf <= inf": value <= value}}

    monkeypatch.setitem(harness._RUNNERS, "scaling", bad_runner)
    cfg = harness.ExperimentConfig(experiment="scaling", n_list=[8])
    _, summary, code = harness.run(cfg)
    assert code == 1
    assert summary["nan_records"]


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
def test_cli_corollary4_overflowing_weight_exits_1():
    # |xi|^2000 overflows: error_value and noise_floor are both inf, and the
    # run's own check reads inf <= inf
    argv = ["corollary4", "--family", "equispaced", "--n", "8", "--N", "100000", "--p", "2000"]
    assert cli.main(argv) == 1


def test_scaling_to_n1024():
    # Theorem 1 at q = 0: the error decays like n^-1 on equispaced knots and
    # within scaling's check margin on random ones
    config = harness.ExperimentConfig(
        "scaling", families=["equispaced", "uniform_random"], n_list=[64, 128, 256, 512, 1024]
    )
    _, summary = harness.run_scaling(config)
    assert summary["checks"] == {"equispaced_slope_in_range": True, "equispaced_residual_small": True}
    assert summary["slopes"]["uniform_random"]["slope"] <= -0.45


def test_cli_inversion_refuses_uncertified_radius(capsys, monkeypatch):
    # the grid's own error bound is the one refusal, and it comes before any
    # sampling: equispaced n=5 cannot be certified on the capped disc
    def no_sampling(*args):
        raise AssertionError("sampled before the grid was certified")

    with monkeypatch.context() as m:
        m.setattr(montecarlo, "mc_pdf_Q", no_sampling)
        t0 = time.perf_counter()
        rc = cli.main(["inversion", "--family", "equispaced", "--n", "5"])
        assert time.perf_counter() - t0 < 1.0
    assert rc == 1
    assert "inversion error bound" in capsys.readouterr().err
    # uniform_random n=8 has no certified radius below the cap, yet the
    # grid's bound certifies it on the experiment's grid
    config = harness.ExperimentConfig(
        experiment="inversion", families=["uniform_random"], n_list=[8], N_mc=20000
    )
    records, _, _ = harness.run(config)
    assert len(records) == 1 and np.isfinite(records[0].error_value)


def test_inversion_symmetry_detects_asymmetric_knots():
    # equispaced knots are symmetric under x -> -x; uniform_random ones are not,
    # so the batched grid must see the first coordinate's flip change the density
    def asymmetry(kv):
        vals = charprob.pdf_Q_inversion_grid(kv, [0.3, -0.3, 1.1, -1.1], [0.7, -0.4])
        return max(abs(vals[0, 0] - vals[1, 0]), abs(vals[2, 1] - vals[3, 1]))

    assert asymmetry(knots.family("equispaced", 8, 1)) <= 1e-8
    assert asymmetry(knots.family("uniform_random", 8, 1)) > 1e-8


def test_inversion_symmetry_check_detects_scaled_inversion(monkeypatch):
    # a scaling error keeps the mirror symmetry; the comparison with the
    # exact density must still see it
    ok, detail = harness.check_inversion_symmetry(1)
    assert ok, detail
    grid = charprob.pdf_Q_inversion_grid
    monkeypatch.setattr(charprob, "pdf_Q_inversion_grid", lambda *a: 1.001 * grid(*a))
    ok, detail = harness.check_inversion_symmetry(1)
    assert not ok, detail


def test_inversion_counts_an_empty_cell(monkeypatch):
    # a cell that expects many draws but got none is as far off as it can
    # be, not a cell without a standard error
    sample = montecarlo.mc_pdf_Q

    def emptied(kv, N, seed):
        counts = sample(kv, N, seed)
        counts[np.unravel_index(np.argmax(counts), counts.shape)] = 0.0
        return counts

    monkeypatch.setattr(montecarlo, "mc_pdf_Q", emptied)
    dev, kept = harness.inversion_vs_mc(knots.family("equispaced", 16), 2 * 10**4, seed=1)
    assert kept > 0
    assert dev >= 20
