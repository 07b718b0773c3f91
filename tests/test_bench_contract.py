"""The benchmark's tracer wraps package attributes by name and reads the
arguments of the ops it wraps; this checks that every name it wraps still
exists and that it reads every conv a model step makes, without timing
anything. It also runs each benchmark workload once at toy size and checks
that its outputs pass and it reports every end-to-end metric."""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hqinet import tensor as T
from hqinet.losses import loss_terms
from hqinet.network import build_model
from hqinet.runconfig import RunConfig
from hqinet.tensor import Tensor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_installs_and_restores():
    t = _load_tracer().Tracer()
    try:
        t.install()
    finally:
        t.restore()
    assert t.patched
    assert t.restored()


@pytest.fixture
def traced(monkeypatch):
    """An installed tracer, and a list that gains one entry per conv2d call."""
    calls = []
    real = T.conv2d

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    # Patched first, so the tracer wraps the counter.
    monkeypatch.setattr(T, "conv2d", counted)
    t = _load_tracer().Tracer().install()
    try:
        yield t, calls
    finally:
        t.restore()


def _conv_spans(tracer):
    """How many forward and backward ``tensor.conv2d.*`` spans were recorded."""
    names = [s[0] for s in tracer.spans if s[0].startswith("tensor.conv2d.")]
    backward = sum(n.endswith(".bwd") for n in names)
    return len(names) - backward, backward


def test_every_conv_of_a_training_step_is_traced(traced):
    tracer, calls = traced
    cfg = RunConfig.desk()
    model = build_model(cfg.model, seed=3)
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))
    y = Tensor(rng.normal(size=(2, 1, 32, 32)).astype(np.float32))
    loss_terms(model(x), y, cfg.loss_weights, cfg.ssim)[0].backward()
    assert calls
    assert _conv_spans(tracer) == (len(calls), len(calls))
    assert tracer.metrics()["tensor.graph_nodes_per_step"] > 0


def test_every_conv_of_an_inference_forward_is_traced(traced):
    tracer, calls = traced
    model = build_model(RunConfig.desk().model, seed=3).eval()
    x = Tensor(np.random.default_rng(5).normal(size=(2, 3, 32, 32)).astype(np.float32))
    with T.no_grad():
        model(x)
    assert calls
    assert _conv_spans(tracer) == (len(calls), 0)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_workload_is_correct_and_reports_end_to_end_metrics(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--size", "toy", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
