"""The four benchmark workloads, how one operation runs, and reference checks.

An operation is one ``spline-llt`` experiment, parsed by the CLI's own
parser and run through ``harness.run`` in-process, or one direct library
call.  Each operation returns its outputs (the record table without
``runtime_ms``, the embedded check outcomes, or a value) and the problems
found: an exception, a non-zero exit code, a NaN record or a failed check.
Outputs are then compared with the stored reference for the seed.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# The --seed argument picks one of these library seeds (ExperimentConfig.seed),
# each with stored reference outputs.  HELD_OUT_SEED has references too but
# is reached only through --held-out, so that a performance claim can be
# rechecked on a seed that was not used while the change was written.
REFERENCE_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
HELD_OUT_SEED = 4507
# the warm-up operations always run on this seed, whose reduced-size
# outputs are stored in references/<workload>.smoke.json
WARMUP_SEED = REFERENCE_SEEDS[0]

# A float output matches its reference within these tolerances; exact
# equality is reported separately as harness.records_bit_identical.
REL_TOL = 1e-6
ABS_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # "experiment", "diff_integral" or "checks"
    args: tuple


def experiment(*argv):
    return Op(argv[0], "experiment", argv)


@dataclass(frozen=True)
class Workload:
    why: str
    # passes per run = max(1, round(seconds / nominal_pass_s)); a constant,
    # so the pass count never depends on how fast the code under test is
    nominal_pass_s: float
    ops: tuple
    smoke: tuple
    # the smoke operations, less these by name, run once untimed before the
    # timed passes: they fill mpmath's quadrature-node caches and load the
    # code paths, so the first timed pass costs what the others cost
    warmup_skip: tuple = ()

    def warmup_ops(self):
        return tuple(op for op in self.smoke if op.name not in self.warmup_skip)


WORKLOADS = {
    "large_n": Workload(
        why="vector Cox-de Boor kernel at n up to 256, where most of the default grid lies outside the support",
        nominal_pass_s=5.6,
        ops=(experiment("scaling", "--family", "equispaced,uniform_random",
                        "--n", "32,64,128,256", "--p", "0", "--q", "0"),),
        smoke=(experiment("scaling", "--family", "equispaced,uniform_random",
                          "--n", "8,16,32"),),
    ),
    "exact_oracle": Workload(
        why="extended-precision routes: mpmath oracle, three Corollary-3 routes, O(n^2) W' products, scalar kernel calls",
        nominal_pass_s=10.5,
        ops=(experiment("identity", "--family", "equispaced,chebyshev", "--n", "8,12,16,20"),
             experiment("corollary3", "--family", "equispaced,uniform_random",
                        "--n", "8,12", "--r", "2")),
        smoke=(experiment("identity", "--family", "equispaced", "--n", "8"),
               experiment("corollary3", "--family", "uniform_random", "--n", "8", "--r", "2")),
    ),
    "fourier_mc": Workload(
        why="2-D Fourier inversion on the 80x80 grid, polar quadrature at n=256 and the Philox simplex sampler",
        nominal_pass_s=17.8,
        ops=(experiment("inversion", "--family", "equispaced", "--n", "16", "--N", "1000000"),
             experiment("corollary4", "--family", "equispaced,uniform_random",
                        "--n", "32", "--N", "1000000"),
             Op("char_diff_integral", "diff_integral", ("equispaced", 256, 0))),
        smoke=(experiment("inversion", "--family", "equispaced", "--n", "48", "--N", "20000"),
               experiment("corollary4", "--family", "uniform_random", "--n", "8", "--N", "100000"),
               Op("char_diff_integral", "diff_integral", ("equispaced", 32, 0))),
        # the reduced inversion alone takes about 5 s
        warmup_skip=("inversion",),
    ),
    "invariants": Workload(
        why="the 28-check validate suite: single-point inversions, scipy quotient quadrature, oracle sweeps",
        nominal_pass_s=17.0,
        ops=(experiment("validate"),),
        smoke=(Op("validate", "checks", ("charprob.tail_bound", "charprob.quotient_cauchy",
                                         "montecarlo.determinism", "seminorm.grid_truncation",
                                         "harness.fit_slope_exact")),),
    ),
}

# The workloads in BENCHMARK.json each join two of the four above, so that
# a run holds two passes and lasts long enough to average over the speed
# drift of a shared host (tens of seconds at a time); the four stay
# runnable on their own.  One group holds the vectorised numpy paths, the
# other the scalar, mpmath and scipy-quadrature paths.
GROUPS = {
    "vector_paths": ("large_n", "fourier_mc"),
    "exact_paths": ("exact_oracle", "invariants"),
}

# every operation name a workload runs, for the harness.<op>.s metrics;
# names are unique across WORKLOADS, so a group's references are the union
OPERATIONS = tuple(dict.fromkeys(op.name for wl in WORKLOADS.values() for op in wl.ops))


def parts(name):
    return GROUPS.get(name, (name,))


def get(name):
    """The workload of that name, joining a group's parts in order."""
    wls = [WORKLOADS[part] for part in parts(name)]
    if len(wls) == 1:
        return wls[0]
    return Workload(why="; ".join(wl.why for wl in wls),
                    nominal_pass_s=sum(wl.nominal_pass_s for wl in wls),
                    ops=sum((wl.ops for wl in wls), ()),
                    smoke=sum((wl.smoke for wl in wls), ()),
                    warmup_skip=sum((wl.warmup_skip for wl in wls), ()))


def library_seed(bench_seed, held_out=False):
    if held_out:
        return HELD_OUT_SEED
    return REFERENCE_SEEDS[bench_seed % len(REFERENCE_SEEDS)]


def run_op(op, seed):
    """Run one operation; returns (outputs, problems)."""
    from splinellt import charprob, cli, harness, knots

    problems = []
    if op.kind == "experiment":
        args = cli.build_parser().parse_args([*op.args, "--seed", str(seed)])
        records, summary, code = harness.run(cli.config_from_args(args))
        rows = [[getattr(r, k) for k in harness.CSV_HEADER if k != "runtime_ms"]
                for r in records]
        checks = {k: bool(v) for k, v in summary.get("checks", {}).items()}
        if code != 0:
            problems.append(f"exit code {code}")
        if any(isinstance(v, float) and math.isnan(v) for row in rows for v in row):
            problems.append("NaN record")
        outputs = {"records": rows, "checks": checks}
    elif op.kind == "diff_integral":
        family, n, ell = op.args
        value = charprob.char_diff_integral(knots.family(family, n, seed), ell)
        if not math.isfinite(value):
            problems.append(f"non-finite value {value}")
        outputs = {"value": value}
    else:
        checks = {name: bool(harness.VALIDATE_CHECKS[name](seed)[0]) for name in op.args}
        outputs = {"checks": checks}
    problems += [f"check {k} failed" for k, ok in outputs.get("checks", {}).items() if not ok]
    return outputs, problems


def _close(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def compare(outputs, reference):
    """Returns (mismatch descriptions, items bit-identical, items compared).

    Items are record rows, check outcomes and the library-call value.
    """
    mismatches, exact, total = [], 0, 0
    rows, ref_rows = outputs.get("records", []), reference.get("records", [])
    if len(rows) != len(ref_rows):
        mismatches.append(f"{len(rows)} records, reference has {len(ref_rows)}")
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        total += 1
        exact += row == ref
        if not all(_close(a, b) for a, b in zip(row, ref)):
            mismatches.append(f"record {i}: {row} != reference {ref}")
    checks, ref_checks = outputs.get("checks", {}), reference.get("checks", {})
    if checks.keys() != ref_checks.keys():
        mismatches.append("check names differ from the reference")
    for name in checks.keys() & ref_checks.keys():
        total += 1
        exact += checks[name] == ref_checks[name]
        if checks[name] != ref_checks[name]:
            mismatches.append(f"check {name}: {checks[name]} != reference {ref_checks[name]}")
    if "value" in outputs or "value" in reference:
        total += 1
        value, ref_value = outputs.get("value"), reference.get("value")
        exact += value == ref_value
        if value is None or ref_value is None or not _close(value, ref_value):
            mismatches.append(f"value {value!r} != reference {ref_value!r}")
    return mismatches, exact, total


def reference_path(workload, smoke):
    return REFERENCE_DIR / f"{workload}{'.smoke' if smoke else ''}.json"


def _load(part, smoke):
    path = reference_path(part, smoke)
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_references(workload, smoke):
    """{seed: {op name: outputs}}, merged over the parts of a group."""
    refs = {}
    for part in parts(workload):
        for seed, by_op in _load(part, smoke).items():
            refs.setdefault(seed, {}).update(by_op)
    return refs


def store_reference(workload, smoke, seed, outputs_by_op):
    REFERENCE_DIR.mkdir(exist_ok=True)
    for part in parts(workload):
        names = {op.name for op in (WORKLOADS[part].smoke if smoke else WORKLOADS[part].ops)}
        refs = _load(part, smoke)
        refs[str(seed)] = {k: v for k, v in outputs_by_op.items() if k in names}
        with open(reference_path(part, smoke), "w", encoding="utf-8") as fh:
            json.dump(dict(sorted(refs.items(), key=lambda kv: int(kv[0]))), fh, indent=1)
            fh.write("\n")
