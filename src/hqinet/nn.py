"""Layer modules, parameter registry and weight initialization.

Modules track their Parameters and child modules through attribute
order, which fixes the hierarchical parameter names and therefore the
checkpoint serialization order.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Conv2d",
    "BatchNorm2d",
    "init_truncated_gaussian",
    "initialize_parameters",
]


class Parameter(Tensor):
    """A trainable tensor; named when its module tree is walked."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(np.asarray(data), requires_grad=True)


class Module:
    """Base class with parameter / buffer discovery and train-eval state."""

    def __init__(self):
        self.training = True
        self._buffers = {}

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def register_buffer(self, name, array):
        self._buffers[name] = np.asarray(array)

    def _children(self):
        for attr, value in vars(self).items():
            if attr.startswith("_") or attr == "training":
                continue
            if isinstance(value, Module):
                yield attr, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{attr}.{i}", item

    def named_parameters(self, prefix=""):
        for attr, value in vars(self).items():
            if attr.startswith("_") or attr == "training":
                continue
            if isinstance(value, Parameter):
                yield prefix + attr, value
        for name, child in self._children():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self, prefix=""):
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for name, child in self._children():
            yield from child.named_buffers(prefix + name + ".")

    def set_buffer(self, name, array):
        """Replace a registered buffer by dotted name (list indices allowed)."""
        parts = name.split(".")
        obj = self
        try:
            for part in parts[:-1]:
                if isinstance(obj, (list, tuple)):
                    obj = obj[int(part)]
                else:
                    obj = getattr(obj, part)
        except (AttributeError, IndexError, ValueError) as exc:
            raise KeyError(name) from exc
        if not isinstance(obj, Module) or parts[-1] not in obj._buffers:
            raise KeyError(name)
        obj._buffers[parts[-1]] = np.asarray(array)

    def modules(self):
        yield self
        for _, child in self._children():
            yield from child.modules()

    def train(self, mode=True):
        for m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def astype(self, dtype):
        """Convert every parameter and float buffer in place."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
            p.grad = None
        for m in self.modules():
            for name, buf in m._buffers.items():
                if np.issubdtype(buf.dtype, np.floating):
                    m._buffers[name] = buf.astype(dtype)
        return self

    def num_parameters(self):
        return sum(p.data.size for p in self.parameters())


class Conv2d(Module):
    def __init__(self, in_channels, out_channels, kernel_size, stride=1,
                 dilation=1, groups=1, padding=0, bias=True, dtype=np.float32):
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"channels ({in_channels}->{out_channels}) not divisible by groups {groups}"
            )
        self.stride = stride
        self.dilation = dilation
        self.groups = groups
        self.padding = padding
        self.weight = Parameter(np.zeros(
            (out_channels, in_channels // groups, kernel_size, kernel_size), dtype=dtype))
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype)) if bias else None

    def forward(self, x):
        return T.conv2d(x, self.weight, self.bias, stride=self.stride,
                        dilation=self.dilation, groups=self.groups,
                        zero_padding=self.padding)


class BatchNorm2d(Module):
    """Per-channel normalization over the (n, h, w) axes.

    Train mode normalizes with batch statistics and folds them into the
    running estimates; eval mode normalizes with the running estimates
    (initialized to mean 0, variance 1, so a freshly built model can run
    inference before any update).
    """

    def __init__(self, channels, momentum=0.1, epsilon=1e-5, dtype=np.float32):
        super().__init__()
        if epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {epsilon}")
        self.channels = channels
        self.momentum = momentum
        self.epsilon = epsilon
        self.gamma = Parameter(np.ones(channels, dtype=dtype))
        self.beta = Parameter(np.zeros(channels, dtype=dtype))
        self.register_buffer("running_mean", np.zeros(channels, dtype=dtype))
        self.register_buffer("running_var", np.ones(channels, dtype=dtype))

    def forward(self, x):
        c = self.channels
        if x.data.shape[1] != c:
            raise ValueError(f"expected {c} channels, got {x.data.shape[1]}")
        buf, m = self._buffers, self.momentum
        stats = None if self.training else (buf["running_mean"], buf["running_var"])
        out, mean, var = T.batch_norm(x, self.gamma, self.beta, self.epsilon, stats)
        if self.training:
            buf["running_mean"] = (1.0 - m) * buf["running_mean"] + m * mean
            buf["running_var"] = (1.0 - m) * buf["running_var"] + m * var
        return out


def init_truncated_gaussian(shape, mean=0.0, std=0.01, seed=None, rng=None,
                            dtype=np.float64):
    """Gaussian draw with values outside ``mean +/- 2 std`` redrawn.

    Deterministic for a fixed seed (or caller-supplied generator).
    """
    if std <= 0:
        raise ValueError(f"std must be > 0, got {std}")
    if rng is None:
        rng = np.random.default_rng(seed)
    vals = rng.normal(mean, std, size=int(np.prod(shape)))
    bad = np.abs(vals - mean) > 2.0 * std
    while bad.any():
        vals[bad] = rng.normal(mean, std, size=int(bad.sum()))
        bad = np.abs(vals - mean) > 2.0 * std
    return Tensor(vals.reshape(shape).astype(dtype))


def initialize_parameters(module, seed, std=0.01):
    """Truncated-Gaussian conv weights, zero biases, unit batch-norm gains.

    One generator streams through the parameters in registration order,
    so the full assignment is a function of the seed alone.
    """
    rng = np.random.default_rng(seed)
    for name, p in module.named_parameters():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "weight":
            drawn = init_truncated_gaussian(p.data.shape, 0.0, std, rng=rng)
            p.data = drawn.data.astype(p.data.dtype)
        elif leaf == "gamma":
            p.data = np.ones_like(p.data)
        else:
            p.data = np.zeros_like(p.data)
        p.grad = None
    return module
