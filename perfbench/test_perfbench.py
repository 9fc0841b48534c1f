"""Self-test of the benchmark at a tiny size (about two minutes)::

    python3 -m pytest perfbench -q

Tiny paper-suite runs fail some of the experiments' shape checks (the
shapes need full-size programs), so that workload's tests compare
failure counts against an unperturbed tiny run instead of zero.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TINY = {
    "paper_suite": {"scale": 0.3, "max_instructions": 20_000},
    "sim_hot": {"scale": 0.1},
    "sim_branchy": {"scale": 0.1},
}


@pytest.fixture(scope="module")
def tiny_run():
    runs = {}

    def run(workload, trace=False, golden=None):
        key = (workload, trace, json.dumps(golden, sort_keys=True))
        if key not in runs:
            runs[key] = bench.run_workload(workload, seconds=0, trace=trace,
                                           golden=golden, **TINY[workload])
        return runs[key]

    return run


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_prints_every_named_metric_with_its_unit(tiny_run, workload, trace):
    result, _report, ledger = tiny_run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared}
    assert all(isinstance(metric["value"], (int, float))
               for metric in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == ledger.failed
    if workload != "paper_suite":
        assert result["failed"] == 0, ledger.failures
    json.dumps(result)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_perturbed_golden_digest_is_one_failed_operation(tiny_run, workload):
    _result, _report, ledger = tiny_run(workload)
    failing = {failure.split(":")[0] for failure in ledger.failures}
    key = next(key for key in sorted(ledger.digests) if key not in failing)
    golden = dict(ledger.digests, **{key: "0" * 16})
    result, _report, perturbed = tiny_run(workload, golden=golden)
    assert result["failed"] == ledger.failed + 1
    assert not result["correct"]
    assert [failure for failure in perturbed.failures
            if failure.startswith(key + ":")]


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "sim_hot", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
