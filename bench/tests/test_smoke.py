"""Self-test of the benchmark: a reduced-size run of every workload.

    python3 -m pytest -q bench/tests

Each workload runs once untraced and once traced with ``--smoke``.  The test
checks the result line against BENCHMARK.json, that no operation fails, and
that the recorded spans form one tree under the workload span.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    return request.param, _result(request.param, 0), _result(request.param, 1)


def _assert_metrics(result, spec):
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_no_operation_fails(runs):
    _, untraced, traced = runs
    for result in (untraced, traced):
        assert result["attempted"] >= 1
        assert result["failed"] == 0
        assert result["correct"] is True
    assert untraced["metrics"]["pass_ratio"]["value"] == 1.0
    assert traced["metrics"]["harness.records_bit_identical"]["value"] == 1.0


def test_every_metric_is_printed_with_its_unit(runs):
    _, untraced, traced = runs
    _assert_metrics(untraced, SPEC["end_to_end"])
    _assert_metrics(traced, SPEC["per_layer"])
    assert all(untraced["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_spans_nest_under_the_workload_span(runs):
    workload, _, traced = runs
    # --seed 0 selects library seed 1
    path = ROOT / "bench" / "out" / f"spans-{workload}-smoke-seed1.json"
    spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
    root = spans[0]
    assert root["name"] == "workload" and root["parent"] == -1
    child_time = [0.0] * len(spans)
    for span in spans[1:]:
        parent = spans[span["parent"]]
        assert parent["id"] < span["id"]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        child_time[span["parent"]] += span["end"] - span["start"]
    self_times = [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]
    assert min(self_times) >= -1e-9
    wall = root["end"] - root["start"]
    assert sum(self_times) == pytest.approx(wall, abs=1e-6)
    # the operation spans account for the traced wall time; what is left
    # is the benchmark's own loop and reference comparison
    ops = sum(s["end"] - s["start"] for s in spans if s["parent"] == 0)
    overhead = abs(traced["metrics"]["trace.overhead_s"]["value"])
    assert wall - ops <= overhead + 0.05
    layer_self = sum(v["value"] for k, v in traced["metrics"].items()
                     if k.endswith("self_s"))
    assert 0 <= layer_self <= wall


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
