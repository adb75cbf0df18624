"""spline-llt benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload exact_paths --seed 0 --seconds 50 --trace 0

Run from a source checkout; the library is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones from a traced pass.  A workload is one of the two groups in
BENCHMARK.json or one of the four parts they join.  ``--workload all`` runs
each part in its own child process and prints a table.  See bench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_SAMPLES = 5
SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import splinellt.cli\n"
    "splinellt.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)
IMPORT_MODULES = ("splinellt", "errors", "knots", "splines", "specfun", "charprob",
                  "montecarlo", "seminorm", "harness", "cli")


def cap_threads():
    """Run BLAS/OpenMP pools on one thread; call before numpy loads.

    Done here rather than in the library, so the load comes from this one
    process and one thread; child interpreters inherit the cap.  One thread
    is at most nproc on any machine.  With two threads on a shared 2-vCPU
    host every operation was slower in wall time, burned up to 50% more CPU,
    and its time followed the neighbours' load rather than the code.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def measure_setup():
    """Median over fresh interpreters of import splinellt + CLI parser build."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def measure_import_times():
    """Cumulative import seconds per splinellt module, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_SNIPPET],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {mod: cumulative.get(mod if mod == "splinellt" else "splinellt." + mod, 0.0)
            for mod in IMPORT_MODULES}


def machine_record(nproc):
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__}


class Tally:
    """Tallies of one or more passes over a workload's operations."""

    def __init__(self):
        self.attempted = self.failed = self.exact = self.compared = 0


def run_pass(workload, ops, seed, references, tally, tracer=None, collect=None):
    """One pass over the operations; returns (wall seconds, CPU seconds)."""
    import workloads

    ref = None if references is None else references.get(str(seed))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in ops:
        tally.attempted += 1
        try:
            if tracer is None:
                outputs, problems = workloads.run_op(op, seed)
            else:
                with tracer.span("harness." + op.name):
                    outputs, problems = workloads.run_op(op, seed)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            tally.failed += 1
            continue
        if collect is not None:
            collect[op.name] = outputs
        if ref is not None:
            mismatches, exact, compared = workloads.compare(outputs, ref.get(op.name, {}))
            problems += mismatches
            tally.exact += exact
            tally.compared += compared
        elif references is not None:
            problems.append(f"no reference outputs for seed {seed}")
        if problems:
            tally.failed += 1
            print(f"{workload}/{op.name}: " + "; ".join(problems[:5]), file=sys.stderr)
    return time.perf_counter() - wall0, time.process_time() - cpu0


def warm_up(workload, tally):
    """Runs the workload's warm-up operations once, untimed but checked."""
    import workloads

    run_pass(workload, workloads.get(workload).warmup_ops(), workloads.WARMUP_SEED,
             workloads.load_references(workload, True), tally)


def run_workload(args):
    import tracing
    import workloads

    wl = workloads.get(args.workload)
    ops = wl.smoke if args.smoke else wl.ops
    seed = workloads.library_seed(args.seed, args.held_out)
    references = workloads.load_references(args.workload, args.smoke)
    tally = Tally()

    if args.write_reference:
        outputs = {}
        run_pass(args.workload, ops, seed, None, tally, collect=outputs)
        if tally.failed:
            return tally, {}
        workloads.store_reference(args.workload, args.smoke, seed, outputs)
        return tally, {}

    if not args.trace:
        setup_s = measure_setup()
        warm_up(args.workload, tally)
        passes = max(1, round(args.seconds / wl.nominal_pass_s))
        walls, cpus = zip(*(run_pass(args.workload, ops, seed, references, tally)
                            for _ in range(passes)))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("passes wall_s=" + ",".join(f"{w:.4f}" for w in walls)
              + " cpu_s=" + ",".join(f"{c:.4f}" for c in cpus))
        return tally, {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "pass_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
        }

    from splinellt import harness

    import_times = measure_import_times()
    warm_up(args.workload, tally)
    untraced_s, _ = run_pass(args.workload, ops, seed, references, tally)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, harness.VALIDATE_CHECKS)
    try:
        with tracer.span(tracing.WORKLOAD_SPAN):
            run_pass(args.workload, ops, seed, references, tally, tracer=tracer)
    finally:
        tracing.uninstall(undo)
    traced_s = tracer.ends[0] - tracer.starts[0]

    metrics = tracing.layer_metrics(tracer, workloads.OPERATIONS, list(harness.VALIDATE_CHECKS))
    metrics["harness.records_bit_identical"] = (
        tally.exact / tally.compared if tally.compared else 0.0, "ratio")
    for mod, secs in import_times.items():
        metrics[f"setup.import.{mod}_s"] = (secs, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")

    OUT_DIR.mkdir(exist_ok=True)
    name = f"spans-{args.workload}{'-smoke' if args.smoke else ''}-seed{seed}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": seed, "untraced_s": untraced_s,
                   **tracer.to_json()}, fh)
    return tally, metrics


def run_all(args):
    """Every part in its own child process (so peak RSS is per part)."""
    import workloads

    rows, attempted, failed = {}, 0, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        cmd += ["--smoke"] * args.smoke + ["--held-out"] * args.held_out
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows[name] = result
        attempted += result["attempted"]
        failed += result["failed"]
    for name, result in rows.items():
        cells = "  ".join(f"{k}={v['value']:.6g}{v['unit']}"
                          for k, v in result["metrics"].items())
        print(f"{name:13s} fail_ratio={result['failed'] / result['attempted']:.6g}  {cells}")
    return attempted, failed, {
        f"{name}.{k}": v for name, result in rows.items() for k, v in result["metrics"].items()
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size operations (benchmark self-test)")
    parser.add_argument("--held-out", action="store_true",
                        help="use the held-out library seed instead of --seed")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference for its seed")
    args = parser.parse_args(argv)
    nproc = cap_threads()

    if not (SRC / "splinellt" / "__init__.py").is_file():
        print(f"error: no splinellt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import splinellt
    import workloads

    if Path(splinellt.__file__).resolve().parent != SRC / "splinellt":
        print(f"error: imported splinellt from {splinellt.__file__}", file=sys.stderr)
        return 2
    if args.workload != "all" and not set(workloads.parts(args.workload)) <= workloads.WORKLOADS.keys():
        parser.error(f"unknown workload {args.workload!r}")

    print("machine " + json.dumps(machine_record(nproc)))
    if args.workload == "all":
        attempted, failed, metrics = run_all(args)
    else:
        tally, named = run_workload(args)
        attempted, failed = tally.attempted, tally.failed
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        print(f"{args.workload} seed={workloads.library_seed(args.seed, args.held_out)} "
              f"attempted={attempted} failed={failed} fail_ratio={failed / max(attempted, 1):.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if args.write_reference and failed else 0


if __name__ == "__main__":
    sys.exit(main())
