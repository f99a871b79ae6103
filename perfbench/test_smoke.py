"""Self-test of the benchmark: every workload passes its gate at a tiny
size, and the gates reject tampered outputs.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gates  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("dend-sweep", "tri-sweep", "deep-product", "rb-extend")
SMOKE = workloads.SCALES["smoke"]


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_its_gate(workload):
    result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    result = bench("dend-sweep", 1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    assert result["metrics"]["axioms.products_per_instance"]["value"] == 14


def run_unit(state):
    return state.run(workloads.NullProbe(), workloads.StepTimer())


def test_gate_rejects_a_dropped_term():
    oracle = gates.load_oracle(ROOT)
    state = workloads.DeepProduct().setup(random.Random(1), SMOKE)
    outputs = run_unit(state)
    assert state.check(outputs, oracle)[1] == []
    result, text, alphabet, semigroup = outputs[0]
    outputs[0] = (result, text.rsplit(" + ", 1)[0], alphabet, semigroup)
    attempted, failures = state.check(outputs, oracle)
    assert failures, "a product span with one term dropped passed the gate"


def test_gate_rejects_a_flipped_coordinate():
    state = workloads.RBExtend().setup(random.Random(1), SMOKE)
    outputs = run_unit(state)
    assert state.check(outputs, None)[1] == []
    vector = list(outputs[0])
    vector[0] += 1
    outputs[0] = tuple(vector)
    attempted, failures = state.check(outputs, None)
    assert failures, "an extend result with one coordinate changed passed the gate"


def test_gate_rejects_a_failed_instance():
    oracle = gates.load_oracle(ROOT)
    state = workloads.Sweep("tri-sweep").setup(random.Random(1), SMOKE)
    holds = run_unit(state)
    assert state.check(holds, oracle)[1] == []
    assert state.check(holds[:-1], oracle)[1], "a skipped instance passed the gate"
    holds[0] = False
    assert state.check(holds, oracle)[1], "a failed instance passed the gate"


def test_closed_forms():
    # 18 binary trees for dend-sweep, 15 Schröder trees for tri-sweep
    assert gates.basis_count("binary", 2, 2, 3) == 18
    assert gates.basis_count("schroder", 1, 1, 4) == 15
    assert [gates.spine_terms("prec", 8, 8), gates.spine_terms("prec", 100, 1)] == [6435, 100]


def test_bare_benchmark_directory_fails():
    """Without the library sources the benchmark fails and prints no result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dend-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
