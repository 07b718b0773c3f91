"""Span tracing installed from outside the hqinet package.

Every wrapper replaces a function or method at the name its caller looks
it up by (``trainer`` imports ``loss_terms`` directly, so the wrapper
goes on ``hqinet.trainer.loss_terms``), records one span per call and
calls the original unchanged. A span is ``[name, start, end, parent,
owner, value]``: ``parent`` is the index of the span open when it
started (-1 at the top), ``owner`` the innermost layer span open when a
tensor op created its result, and ``value`` an optional computed count.
Spans stay in memory until the run ends; ``restore`` puts every wrapped
attribute back.

Backward time is charged to the layer that created an op: the op wrapper
replaces the ``_backward`` closure on the tensor the op returns with a
timed closure that calls the original.
"""

from __future__ import annotations

import math
import os
import statistics
import time
import weakref

import numpy as np

MIB = float(2 ** 20)

# Every public tensor op other than conv2d and bilinear_upsample; the
# "elementwise" group therefore also holds reshape, reductions and concat.
ELEMENTWISE_OPS = ("add", "sub", "mul", "div", "neg", "sqrt", "absolute", "relu",
                   "sigmoid", "reshape", "tsum", "tmean", "global_avg_pool",
                   "concat_channels", "mul_broadcast")
CONV_KINDS = ("k3", "k1", "depthwise", "window")
NETWORK_CHILDREN = ("stem", "stage1", "stage2", "stage3", "stage4", "aspp",
                    "decoder1", "decoder2", "decoder3", "decoder4", "head")
# Spans that sit directly under an entry-point call in some workload; each
# gets a top.<name>.self_ms metric.
TOP_SPANS = ("dataset.generate_patient_pair", "volume_io.write", "dataset.load_triplets",
             "dataset.random_crop", "dataset.stack_batch", "network.forward",
             "losses.loss_terms", "optim.zero_grad", "tensor.backward", "optim.step",
             "trainer.validation", "checkpoint.save", "checkpoint.load",
             "dataset.load_volume_pairs", "metrics.metrics_report")
ROOT_PREFIX = "run."


def _radon_taps(args, kwargs, _out):
    """Bilinear taps one radon call weighs: 4 per ray sample."""
    size = np.asarray(args[0]).shape[0]
    n_views, n_detectors = args[1], args[2]
    oversample = kwargs.get("oversample", args[4] if len(args) > 4 else 2)
    step = 1.0 / oversample
    n_steps = int(math.ceil(size * math.sqrt(2.0) / step)) + 1
    return 4.0 * n_views * n_detectors * n_steps


def _conv_kind(args, layer):
    x, w = args[0], args[1]
    if layer == "losses.ssim":
        return "window"
    if w.shape[2] == 1 and w.shape[3] == 1:
        return "k1"
    if x.shape[1] != w.shape[1]:
        return "depthwise"
    return "k3"


def _conv_gflop(args, out):
    """Forward multiply-adds times two, from the output and weight shapes."""
    w = args[1].shape
    return 2.0 * out.data.size * w[1] * w[2] * w[3] / 1e9


def graph_size(loss):
    """(op nodes, MiB of op outputs that own their memory) reachable from loss."""
    seen = set()
    stack = [loss]
    nodes = 0
    nbytes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backward is not None:
            nodes += 1
            if t.data.flags.owndata:
                nbytes += t.data.nbytes
        stack.extend(t._parents)
    return nodes, nbytes / MIB


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.layer = None
        self.op_depth = 0
        self.patched = []
        self.module_names = weakref.WeakKeyDictionary()
        self.step_start = None
        self.step_ms = []
        self.graph = None

    # -- spans -----------------------------------------------------------------

    def open(self, name, owner=None):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, owner, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; used for the entry-point (root) calls."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrapping --------------------------------------------------------------

    def patch(self, target, attr, make):
        if isinstance(target, type) and attr not in vars(target):
            raise AttributeError(f"{target.__name__}.{attr} is inherited; wrap its owner")
        original = getattr(target, attr)
        setattr(target, attr, make(original))
        self.patched.append((target, attr, original))

    def restore(self):
        for target, attr, original in reversed(self.patched):
            setattr(target, attr, original)

    def restored(self):
        return all(getattr(t, a) is o for t, a, o in self.patched)

    def spanned(self, name, value=None, layer=False):
        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self.open(name)
                prev = self.layer
                if layer:
                    self.layer = name
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.layer = prev
                    self.close(idx)
                if value is not None:
                    self.spans[idx][5] = value(args, kwargs, out)
                return out
            return wrapper
        return make

    def timed_backward(self, bw, name, owner):
        def run(grad):
            idx = self.open(name, owner)
            try:
                return bw(grad)
            finally:
                self.close(idx)
        return run

    def op(self, group):
        def make(fn):
            def wrapper(*args, **kwargs):
                if self.op_depth:
                    return fn(*args, **kwargs)
                if group == "conv2d":
                    name = "tensor.conv2d." + _conv_kind(args, self.layer)
                else:
                    name = "tensor." + group
                idx = self.open(name, self.layer)
                self.op_depth += 1
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.op_depth -= 1
                    self.close(idx)
                if group == "conv2d":
                    self.spans[idx][5] = _conv_gflop(args, out)
                if out._backward is not None:
                    out._backward = self.timed_backward(out._backward, name + ".bwd",
                                                        self.layer)
                return out
            return wrapper
        return make

    def _module_name(self, module):
        from hqinet.network import HQINet
        from hqinet.nn import BatchNorm2d
        if isinstance(module, HQINet):
            for child in NETWORK_CHILDREN:
                value = getattr(module, child)
                for m in (value if isinstance(value, list) else [value]):
                    self.module_names[m] = "network." + child
            name = "network.forward"
        elif isinstance(module, BatchNorm2d):
            name = "nn.BatchNorm2d"
        else:
            name = ""
        self.module_names[module] = name
        return name

    def module_call(self, fn):
        def call(module, *args, **kwargs):
            name = self.module_names.get(module)
            if name is None:
                name = self._module_name(module)
            if not name:
                return fn(module, *args, **kwargs)
            if name == "network.forward" and module.training and self.step_start is None:
                self.step_start = time.perf_counter()
            idx = self.open(name)
            prev = self.layer
            self.layer = name
            try:
                return fn(module, *args, **kwargs)
            finally:
                self.layer = prev
                self.close(idx)
        return call

    def optimizer_step(self, fn):
        wrapped = self.spanned("optim.step")(fn)

        def step(optimizer):
            out = wrapped(optimizer)
            if self.step_start is not None:
                self.step_ms.append((time.perf_counter() - self.step_start) * 1e3)
                self.step_start = None
            return out
        return step

    def backward(self, fn):
        wrapped = self.spanned("tensor.backward")(fn)

        def run(loss):
            if self.graph is None:
                self.graph = graph_size(loss)
            return wrapped(loss)
        return run

    def install(self):
        """Wrap every traced entry point; returns self for chaining."""
        from hqinet import dataset, losses, nn, optim, tensor, trainer

        def file_mib(args, _kwargs, _out):
            return os.path.getsize(args[0]) / MIB

        span = self.spanned
        self.patch(dataset, "radon", span("ctsim.radon", value=_radon_taps))
        self.patch(dataset, "fbp", span("ctsim.fbp"))
        self.patch(dataset, "apply_low_dose", span("ctsim.apply_low_dose"))
        self.patch(dataset, "generate_phantom_volume", span("ctsim.phantom"))
        self.patch(dataset, "generate_patient_pair", span("dataset.generate_patient_pair"))
        self.patch(dataset, "write_volume", span(
            "volume_io.write", value=lambda a, k, o: np.asarray(a[1]).size * 4 / MIB))
        self.patch(dataset, "read_volume", span(
            "volume_io.read", value=lambda a, k, o: o.nbytes / MIB))
        # load_triplets reaches load_volume_pairs through dataset, evaluate
        # through trainer.
        self.patch(dataset, "load_volume_pairs", span("dataset.load_volume_pairs"))
        self.patch(trainer, "load_volume_pairs", span("dataset.load_volume_pairs"))
        self.patch(trainer, "load_triplets", span("dataset.load_triplets"))
        self.patch(trainer, "random_crop", span("dataset.random_crop"))
        self.patch(trainer, "stack_batch", span("dataset.stack_batch"))
        # Training calls loss_terms directly; validation reaches it through
        # combined_loss inside losses.
        self.patch(trainer, "loss_terms", span("losses.loss_terms"))
        self.patch(losses, "loss_terms", span("losses.loss_terms"))
        self.patch(losses, "ssim", span("losses.ssim", layer=True))
        self.patch(trainer, "_validation_loss", span("trainer.validation"))
        self.patch(trainer, "save_checkpoint", span("checkpoint.save", value=file_mib))
        self.patch(trainer, "load_checkpoint", span("checkpoint.load"))
        self.patch(trainer, "metrics_report", span("metrics.metrics_report"))
        self.patch(optim.Adam, "step", self.optimizer_step)
        self.patch(optim.Adam, "zero_grad", span("optim.zero_grad"))
        self.patch(tensor.Tensor, "backward", self.backward)
        self.patch(nn.Module, "__call__", self.module_call)
        self.patch(tensor, "conv2d", self.op("conv2d"))
        self.patch(tensor, "bilinear_upsample", self.op("bilinear"))
        for name in ELEMENTWISE_OPS:
            self.patch(tensor, name, self.op("elementwise"))
        return self

    # -- aggregation -----------------------------------------------------------

    def metrics(self):
        """Per-layer values (without units) from the recorded spans."""
        n = len(self.spans)
        dur = [0.0] * n
        child = [0.0] * n
        for i, (_, start, end, parent, _, _) in enumerate(self.spans):
            dur[i] = (end - start) * 1e3
            if parent >= 0:
                child[parent] += dur[i]
        calls, ms, self_ms, value, top_self = {}, {}, {}, {}, {}
        owner_bwd = {}
        root_ms = root_self = 0.0
        batch_wait_ms = 0.0
        for i, (name, _, _, parent, owner, val) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            ms[name] = ms.get(name, 0.0) + dur[i]
            self_ms[name] = self_ms.get(name, 0.0) + dur[i] - child[i]
            value[name] = value.get(name, 0.0) + val
            if name.endswith(".bwd"):
                owner_bwd[owner] = owner_bwd.get(owner, 0.0) + dur[i]
            if name.startswith(ROOT_PREFIX):
                root_ms += dur[i]
                root_self += dur[i] - child[i]
            elif parent >= 0 and self.spans[parent][0].startswith(ROOT_PREFIX):
                top_self[name] = top_self.get(name, 0.0) + dur[i] - child[i]
                if name in ("dataset.random_crop", "dataset.stack_batch"):
                    batch_wait_ms += dur[i]

        def c(name):
            return calls.get(name, 0)

        def t(name):
            return ms.get(name, 0.0)

        out = {}
        for name in ("radon", "fbp", "apply_low_dose", "phantom"):
            out[f"ctsim.{name}.calls"] = c(f"ctsim.{name}")
            out[f"ctsim.{name}.ms"] = t(f"ctsim.{name}")
        out["ctsim.radon.taps"] = value.get("ctsim.radon", 0.0)
        out["dataset.generate_patient_pair.self_ms"] = self_ms.get(
            "dataset.generate_patient_pair", 0.0)
        out["dataset.batch.calls"] = c("dataset.stack_batch")
        out["dataset.batch.ms"] = t("dataset.random_crop") + t("dataset.stack_batch")
        out["dataset.load_volume_pairs.ms"] = t("dataset.load_volume_pairs")
        for name in ("write", "read"):
            out[f"volume_io.{name}.calls"] = c(f"volume_io.{name}")
            out[f"volume_io.{name}.ms"] = t(f"volume_io.{name}")
            out[f"volume_io.{name}.mib"] = value.get(f"volume_io.{name}", 0.0)
        out["network.forward.calls"] = c("network.forward")
        out["network.forward.ms"] = t("network.forward")
        for child_name in NETWORK_CHILDREN:
            out[f"network.{child_name}.fwd_ms"] = t(f"network.{child_name}")
        out["nn.BatchNorm2d.calls"] = c("nn.BatchNorm2d")
        out["nn.BatchNorm2d.fwd_ms"] = t("nn.BatchNorm2d")
        out["nn.BatchNorm2d.bwd_ms"] = owner_bwd.get("nn.BatchNorm2d", 0.0)
        for kind in CONV_KINDS:
            name = f"tensor.conv2d.{kind}"
            out[f"{name}.calls"] = c(name)
            out[f"{name}.fwd_ms"] = t(name)
            out[f"{name}.bwd_ms"] = t(name + ".bwd")
            out[f"{name}.gflop"] = value.get(name, 0.0)
        for group in ("bilinear", "elementwise"):
            name = f"tensor.{group}"
            out[f"{name}.calls"] = c(name)
            out[f"{name}.fwd_ms"] = t(name)
            out[f"{name}.bwd_ms"] = t(name + ".bwd")
        out["tensor.backward.self_ms"] = self_ms.get("tensor.backward", 0.0)
        nodes, act_mib = self.graph or (0, 0.0)
        out["tensor.graph_nodes_per_step"] = nodes
        out["tensor.activation_mib_per_step"] = act_mib
        out["losses.loss_terms.calls"] = c("losses.loss_terms")
        out["losses.loss_terms.fwd_ms"] = t("losses.loss_terms")
        out["losses.ssim.fwd_ms"] = t("losses.ssim")
        out["losses.ssim.bwd_ms"] = owner_bwd.get("losses.ssim", 0.0)
        out["optim.step.calls"] = c("optim.step")
        out["optim.step.ms"] = t("optim.step")
        out["optim.zero_grad.ms"] = t("optim.zero_grad")
        out["checkpoint.save.calls"] = c("checkpoint.save")
        out["checkpoint.save.ms"] = t("checkpoint.save")
        out["checkpoint.save.mib"] = value.get("checkpoint.save", 0.0)
        out["checkpoint.load.calls"] = c("checkpoint.load")
        out["checkpoint.load.ms"] = t("checkpoint.load")
        out["metrics.metrics_report.calls"] = c("metrics.metrics_report")
        out["metrics.metrics_report.ms"] = t("metrics.metrics_report")
        steps = self.step_ms
        if steps:
            q = statistics.quantiles(steps, n=10) if len(steps) > 1 else [steps[0]] * 9
            out["trainer.step_ms.p50"] = statistics.median(steps)
            out["trainer.step_ms.p90"] = q[8]
            out["trainer.data_wait_ms"] = batch_wait_ms / len(steps)
        else:
            out["trainer.step_ms.p50"] = out["trainer.step_ms.p90"] = 0.0
            out["trainer.data_wait_ms"] = 0.0
        out["trainer.validation.calls"] = c("trainer.validation")
        out["trainer.validation.ms"] = t("trainer.validation")
        for name in TOP_SPANS:
            out[f"top.{name}.self_ms"] = top_self.get(name, 0.0)
        out["trace.uncovered_pct"] = 100.0 * root_self / root_ms if root_ms else 0.0
        out["trace.spans"] = n
        return out
