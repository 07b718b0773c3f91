"""Layer modules, parameter registry and weight initialization.

Modules track their Parameters, buffers and child modules through
attribute order, which fixes the hierarchical names and therefore the
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
    "conv_bn",
    "init_truncated_gaussian",
    "initialize_parameters",
]

BN_MOMENTUM = 0.1  # BatchNorm2d's running-statistics update rate
INIT_STD = 0.01  # standard deviation of the conv weight init


class Parameter(Tensor):
    """A trainable tensor; named when its module tree is walked."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(np.asarray(data), requires_grad=True)


class Module:
    """Base class with parameter / buffer discovery and train-eval state.
    A buffer is a float ndarray attribute, checkpointed but not trained."""

    def __init__(self):
        self.training = True

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def _walk(self, prefix=""):
        """Yield ``(name, owner, value)`` for every parameter, buffer and
        child module below this one, depth first in assignment order.

        Parameters and buffers are read from public attributes, child
        modules also from the items of list or tuple attributes (named by
        index). ``owner`` is the module whose attribute holds ``value``.
        """
        for attr, value in vars(self).items():
            if attr.startswith("_"):
                continue
            if isinstance(value, (list, tuple)):
                items = [(f"{attr}.{i}", v) for i, v in enumerate(value)
                         if isinstance(v, Module)]
            else:
                items = [(attr, value)]
            for name, item in items:
                if isinstance(item, (Parameter, Module)) or (
                        isinstance(item, np.ndarray) and item.dtype.kind == "f"):
                    yield prefix + name, self, item
                if isinstance(item, Module):
                    yield from item._walk(prefix + name + ".")

    def named_parameters(self):
        return ((name, v) for name, _, v in self._walk() if isinstance(v, Parameter))

    def parameters(self):
        return (p for _, p in self.named_parameters())

    def named_buffers(self):
        return ((name, v) for name, _, v in self._walk() if isinstance(v, np.ndarray))

    def modules(self):
        return [self] + [v for _, _, v in self._walk() if isinstance(v, Module)]

    def train(self, mode=True):
        for m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def astype(self, dtype):
        """Convert every parameter and buffer in place."""
        for name, owner, value in self._walk():
            if isinstance(value, Parameter):
                value.data = value.data.astype(dtype)
                value.grad = None
            elif isinstance(value, np.ndarray):
                setattr(owner, name.rpartition(".")[2], value.astype(dtype))
        return self

    def num_parameters(self):
        return sum(p.data.size for p in self.parameters())


class Conv2d(Module):
    def __init__(self, in_channels, out_channels, kernel_size, stride=1,
                 dilation=1, groups=1, padding=0, bias=True):
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
            (out_channels, in_channels // groups, kernel_size, kernel_size), dtype=np.float32))
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None

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

    def __init__(self, channels):
        super().__init__()
        self.channels = channels
        self.gamma = Parameter(np.ones(channels, dtype=np.float32))
        self.beta = Parameter(np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def forward(self, x, relu=False):
        """Normalize ``x``, then apply a relu in the same op if ``relu``."""
        c = self.channels
        if x.data.shape[1] != c:
            raise ValueError(f"expected {c} channels, got {x.data.shape[1]}")
        m = BN_MOMENTUM
        stats = None if self.training else (self.running_mean, self.running_var)
        out, mean, var = T.batch_norm(x, self.gamma, self.beta, stats, relu)
        if self.training:
            self.running_mean = (1.0 - m) * self.running_mean + m * mean
            self.running_var = (1.0 - m) * self.running_var + m * var
        return out


def conv_bn(conv, bn, x, relu=False):
    """``bn(conv(x), relu)`` for a bias-free ``conv``. In eval mode with no
    graph recorded, the BatchNorm is folded into the conv (Jacob et al.
    2018): one conv whose weight is scaled per output channel by
    ``gamma / sqrt(running_var + BN_EPSILON)`` and whose bias is the
    matching shift, with the relu applied in place to its fresh output.
    The fold makes new arrays; no parameter or buffer changes."""
    if bn.training or T.grad_enabled():
        return bn(conv(x), relu=relu)
    _, scale, shift = T.bn_scale_shift(bn.gamma.data, bn.beta.data,
                                       bn.running_mean, bn.running_var)
    weight = Tensor(conv.weight.data * scale.reshape(-1, 1, 1, 1))
    out = T.conv2d(x, weight, Tensor(shift), stride=conv.stride, dilation=conv.dilation,
                   groups=conv.groups, zero_padding=conv.padding)
    if relu:
        np.maximum(out.data, 0, out=out.data)
    return out


def init_truncated_gaussian(shape, rng):
    """float64 zero-mean Gaussian draw with std ``INIT_STD`` from the
    generator ``rng``, with values outside ``+/- 2 INIT_STD`` redrawn."""
    vals = rng.normal(0.0, INIT_STD, size=int(np.prod(shape)))
    bad = np.abs(vals) > 2.0 * INIT_STD
    while bad.any():
        vals[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
        bad = np.abs(vals) > 2.0 * INIT_STD
    return vals.reshape(shape)


def initialize_parameters(module, seed):
    """Truncated-Gaussian conv weights, zero biases, unit batch-norm gains.

    One generator streams through the parameters in registration order,
    so the full assignment is a function of the seed alone.
    """
    rng = np.random.default_rng(seed)
    for name, p in module.named_parameters():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "weight":
            p.data = init_truncated_gaussian(p.data.shape, rng).astype(p.data.dtype)
        elif leaf == "gamma":
            p.data = np.ones_like(p.data)
        else:
            p.data = np.zeros_like(p.data)
        p.grad = None
    return module
