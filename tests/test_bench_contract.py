"""The benchmark's tracer wraps package attributes by name and reads the
arguments of the ops it wraps; this checks that every name it wraps still
exists and that it reads every conv a model step makes, without timing
anything. A toy ``train`` and ``evaluate`` must reach every data-path name
it wraps, so a refactor that stops calling one fails here instead of
zeroing its per-layer metrics. It also runs each benchmark workload once at
toy size and checks that its outputs pass and it reports every end-to-end
metric."""

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
from hqinet.runconfig import DataConfig, RunConfig
from hqinet.tensor import Tensor
from hqinet.trainer import evaluate, train
from hqinet.volume_io import write_volume

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


# The spans of the trainer's data path: the names each entry point must
# call through the attribute the tracer wraps.
TRAIN_SPANS = {"dataset.load_triplets", "dataset.random_crop", "dataset.stack_batch",
               "losses.loss_terms", "trainer.validation", "checkpoint.save"}
EVALUATE_SPANS = {"checkpoint.load", "dataset.load_volume_pairs", "metrics.metrics_report"}


def test_train_and_evaluate_reach_every_wrapped_data_path_name(tmp_path):
    data = tmp_path / "data"
    rng = np.random.default_rng(6)
    for split, pids in (("train", ("p000", "p001")), ("test", ("p002",))):
        (data / split).mkdir(parents=True)
        for pid in pids:
            for kind in ("low", "full"):
                write_volume(str(data / split / f"{pid}_{kind}.hqiv"),
                             rng.uniform(0.1, 1.0, (4, 32, 32)).astype(np.float32))
    cfg = RunConfig(batch_size=2, epochs=1, data=DataConfig(root=str(data), crop=16),
                    output_dir=str(tmp_path / "run"), strict_determinism=True)
    seen = {}
    for entry, call in (("train", lambda: train(cfg)),
                        ("evaluate", lambda: evaluate(str(tmp_path / "run" / "last.hqic"),
                                                      str(data), str(tmp_path / "eval")))):
        t = _load_tracer().Tracer().install()
        try:
            call()
        finally:
            t.restore()
        seen[entry] = {s[0] for s in t.spans}
    assert not TRAIN_SPANS - seen["train"]
    assert not EVALUATE_SPANS - seen["evaluate"]
    # evaluate reads volumes through trainer.load_volume_pairs, not load_triplets.
    assert "dataset.load_triplets" not in seen["evaluate"]


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
