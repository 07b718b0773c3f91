"""Toy-size self-test of the benchmark; no timing thresholds.

    python3 -m pytest -q perfbench/test_selftest.py

Every workload runs at tiny sizes, untraced and traced, and must print
every metric BENCHMARK.json declares, with its unit, and pass its output
checks. Tracing must leave the program's outputs byte-identical and put
back every attribute it wrapped.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in lines), m["name"]
    assert any(line.startswith("env ") for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_strict_training_log_is_byte_identical(tmp_path):
    from hqinet.dataset import SyntheticSpec, generate_dataset
    from hqinet.runconfig import DataConfig, RunConfig
    from hqinet.trainer import train

    data = str(tmp_path / "data")
    generate_dataset(data, SyntheticSpec(n_train=2, n_test=1, n_slices=4, size=32,
                                         n_views=24, n_detectors=47), seed=0)

    def run(out):
        return train(RunConfig(epochs=2, seed=0, output_dir=str(tmp_path / out),
                               data=DataConfig(root=data, crop=16),
                               strict_determinism=True))

    plain = run("plain")
    tracer = Tracer().install()
    try:
        assert all(getattr(t, a) is not o for t, a, o in tracer.patched)
        traced = run("traced")
    finally:
        tracer.restore()
    assert tracer.restored()
    with open(plain.log_path, "rb") as a, open(traced.log_path, "rb") as b:
        assert a.read() == b.read()
    layers = tracer.metrics()
    assert layers["optim.step.calls"] == traced.steps
    assert layers["tensor.graph_nodes_per_step"] > 0
    assert layers["nn.BatchNorm2d.bwd_ms"] > 0 and layers["losses.ssim.bwd_ms"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "generate", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
