"""Reverse-mode differentiable tensors on numpy arrays.

The engine records a computation graph as ops execute and replays it in
reverse topological order when ``backward`` is called on a scalar. It
supplies exactly the operations the reconstruction network and its
training objective need: elementwise arithmetic, reductions, 2-D
convolution (stride / dilation / groups), batch normalization,
bilinear upsampling, channel concatenation and the gating primitives.

Conventions:
    * feature maps are 4-D ``(n, c, h, w)``; biases are 1-D; losses 0-D.
    * relu uses subgradient 0 at 0; sigmoid is computed in split form so
      large negative inputs cannot overflow.
    * bilinear upsampling samples half-pixel centers,
      ``src = (dst + 0.5) * (in / out) - 0.5``, clamped to the edge.
    * all ops preserve the input floating dtype (float32 or float64 run
      through the same code paths).
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "sqrt",
    "absolute",
    "relu",
    "sigmoid",
    "reshape",
    "tsum",
    "tmean",
    "conv2d",
    "conv_output_size",
    "separable",
    "batch_norm",
    "bilinear_upsample",
    "global_avg_pool",
    "concat_channels",
    "mul_broadcast",
]

_GRAD_ENABLED = True

# conv2d accumulates its taps into bands of output rows whose input and
# output rows take about this many bytes per sample, so a band stays in cache.
_BAND_BYTES = 1 << 18


class no_grad:
    """Context manager that suspends graph recording."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """A numpy array plus an optional gradient and graph linkage."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    # -- reverse-mode pass ---------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every reachable leaf that requires grad.

        Only valid on single-element tensors. Repeated calls accumulate.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            raise RuntimeError("backward on a tensor with no gradient path")

        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is not None:
                for parent, pg in node._backward(g):
                    pid = id(parent)
                    if pid in grads:
                        grads[pid] = grads[pid] + pg
                    else:
                        grads[pid] = pg
            elif node.requires_grad:
                if node.grad is None:
                    node.grad = np.array(g)
                else:
                    node.grad = node.grad + g


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _make(data, parents, backward_fn):
    """Wrap an op result, recording the graph only when it can matter."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic --------------------------------------------------


def _operands(a, b):
    """``a`` as a tensor, ``b``'s data, and ``b`` as a tensor or None. A Python
    number ``b`` is a constant: it records no parent and stays a Python
    scalar, so numpy keeps ``a``'s dtype."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        return a, b, None
    b = _as_tensor(b)
    return a, b.data, b


def _binary(data, a, b, grad_a, grad_b):
    """Record a two-operand result; ``grad_a``/``grad_b`` map the output
    gradient to each operand's before it is unbroadcast."""

    def bw(grad):
        out = []
        if a.requires_grad:
            out.append((a, _unbroadcast(grad_a(grad), a.data.shape)))
        if b is not None and b.requires_grad:
            out.append((b, _unbroadcast(grad_b(grad), b.data.shape)))
        return out

    return _make(data, (a,) if b is None else (a, b), bw)


def add(a, b):
    a, bd, b = _operands(a, b)
    return _binary(a.data + bd, a, b, lambda g: g, lambda g: g)


def sub(a, b):
    a, bd, b = _operands(a, b)
    return _binary(a.data - bd, a, b, lambda g: g, lambda g: -g)


def mul(a, b):
    a, bd, b = _operands(a, b)
    return _binary(a.data * bd, a, b, lambda g: g * bd, lambda g: g * a.data)


def div(a, b):
    if isinstance(b, (int, float)):
        # The reciprocal rounds differently from a true division; strict
        # loss logs are pinned to it.
        return mul(a, 1.0 / b)
    a, bd, b = _operands(a, b)
    data = a.data / bd
    return _binary(data, a, b, lambda g: g / bd, lambda g: -g * data / bd)


def neg(a):
    a = _as_tensor(a)

    def bw(grad):
        return [(a, -grad)]

    return _make(-a.data, (a,), bw)


def sqrt(a):
    a = _as_tensor(a)
    data = np.sqrt(a.data)

    def bw(grad):
        return [(a, grad * (0.5 / data))]

    return _make(data, (a,), bw)


def absolute(a):
    a = _as_tensor(a)
    data = np.abs(a.data)

    def bw(grad):
        # subgradient 0 at exact ties
        return [(a, grad * np.sign(a.data))]

    return _make(data, (a,), bw)


def relu(a):
    a = _as_tensor(a)
    data = np.maximum(a.data, 0)

    def bw(grad):
        return [(a, grad * (a.data > 0))]

    return _make(data, (a,), bw)


def sigmoid(a):
    a = _as_tensor(a)
    x = a.data
    data = np.empty_like(x)
    pos = x >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    data[~pos] = ex / (1.0 + ex)

    def bw(grad):
        return [(a, grad * data * (1.0 - data))]

    return _make(data, (a,), bw)


# -- shape & reductions -------------------------------------------------------


def reshape(a, shape):
    a = _as_tensor(a)
    orig = a.data.shape
    data = a.data.reshape(shape)

    def bw(grad):
        return [(a, grad.reshape(orig))]

    return _make(data, (a,), bw)


def _expand_reduced(grad, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(grad, shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(ax % len(shape) for ax in axes)
        grad = np.expand_dims(grad, axes)
    return np.broadcast_to(grad, shape)


def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(grad):
        return [(a, _expand_reduced(grad, a.data.shape, axis, keepdims))]

    return _make(data, (a,), bw)


def tmean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size // max(data.size, 1)

    def bw(grad):
        g = _expand_reduced(grad, a.data.shape, axis, keepdims)
        return [(a, g / count)]

    return _make(data, (a,), bw)


# -- convolution ---------------------------------------------------------------


def conv_output_size(size, kernel, stride, dilation, padding):
    return (size + 2 * padding - dilation * (kernel - 1) - 1) // stride + 1


def conv2d(x, weight, bias=None, stride=1, dilation=1, groups=1, zero_padding=0):
    """2-D cross-correlation over ``(n, c, h, w)`` input.

    ``weight`` has shape ``(c_out, c_in // groups, k, k)``. A direct
    convolution with no patch matrix (Zhang, Franchetti & Low, ICML 2018):
    the input is zero-padded once into a flat buffer per stride phase, in
    which each tap is one contiguous slice and one batched matmul,
    accumulated into bands of output rows that are ``wq`` wide. The
    backward pass runs the same taps transposed and keeps only the buffer.
    """
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    xd, wd = x.data, weight.data

    if xd.ndim != 4:
        raise ValueError(f"conv2d input must be 4-D (n,c,h,w), got {xd.ndim}-D")
    if wd.ndim != 4:
        raise ValueError(f"conv2d weight must be 4-D, got {wd.ndim}-D")
    if stride < 1 or dilation < 1:
        raise ValueError(f"stride and dilation must be >= 1, got {stride}, {dilation}")
    if zero_padding < 0:
        raise ValueError(f"zero_padding must be >= 0, got {zero_padding}")

    n, c_in, h, w = xd.shape
    c_out, c_in_g, kh, kw = wd.shape
    if groups < 1 or c_in % groups != 0:
        raise ValueError(f"input channels {c_in} not divisible by groups {groups}")
    if c_out % groups != 0:
        raise ValueError(f"output channels {c_out} not divisible by groups {groups}")
    if c_in_g != c_in // groups:
        raise ValueError(
            f"weight channel dim expects {c_in // groups} (c_in/groups), got {c_in_g}"
        )

    oh = conv_output_size(h, kh, stride, dilation, zero_padding)
    ow = conv_output_size(w, kw, stride, dilation, zero_padding)
    if oh < 1 or ow < 1:
        raise ValueError(
            f"kernel span {dilation * (kh - 1) + 1} exceeds padded input "
            f"{h + 2 * zero_padding}x{w + 2 * zero_padding}"
        )

    if bias is not None:
        bias = _as_tensor(bias)
        if bias.data.shape != (c_out,):
            raise ValueError(
                f"bias length expects output channels {c_out}, got {bias.data.shape}"
            )

    g, cg, cog = groups, c_in // groups, c_out // groups
    s, d, p = stride, dilation, zero_padding
    if kh == kw == 1 and p == 0:  # a 1x1 conv reads only every s-th pixel
        xd, h, w, s = xd[:, :, ::s, ::s], oh, ow, 1

    # Stride phase (a, b) holds padded rows a, a+s, ... and columns b, b+s, ...;
    # tap (i, j) reads phase ((i*d) % s, (j*d) % s) at stride 1 from flat
    # offset (i*d // s) * wq + j*d // s, and a spare row takes wrapped reads.
    hq, wq = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    taps = [((i * d) % s * s + (j * d) % s, (i * d) // s * wq + (j * d) // s)
            for i in range(kh) for j in range(kw)]
    xp = xd
    if s > 1 or p > 0 or kw > 1:  # else there is no padding and nothing wraps
        xp = np.zeros((n, c_in, (hq + 1) * s, wq * s), dtype=xd.dtype)
        xp[:, :, p:p + h, p:p + w] = xd
    xf = xp.reshape(n, g, cg, -1, s, wq, s).transpose(0, 1, 2, 4, 6, 3, 5)
    xf = xf.reshape(n, g, cg, s * s, -1)  # a view when s == 1

    # A depthwise tap is a per-channel scale; matmul would call BLAS per channel.
    product = np.multiply if cg == cog == 1 else np.matmul
    wt = np.ascontiguousarray(wd.reshape(g, cog, cg, kh * kw).transpose(3, 0, 1, 2))
    rows = max(1, _BAND_BYTES // ((c_in + c_out) * wq * xd.itemsize))
    bands = [(r0 * wq, min(r0 + rows, oh) * wq) for r0 in range(0, oh, rows)]
    wide = np.empty((n, g, cog, oh * wq), dtype=np.result_type(wd, xd))
    part = np.empty_like(wide[..., :bands[0][1]])
    for lo, hi in bands:
        dst = wide[..., lo:hi]
        for t, (ph, off) in enumerate(taps):
            src = xf[:, :, :, ph, off + lo:off + hi]
            if t == 0:
                product(wt[0], src, out=dst)
            else:
                product(wt[t], src, out=part[..., :hi - lo])
                dst += part[..., :hi - lo]
    out = wide.reshape(n, c_out, oh, wq)[..., :ow]  # drop the wrap-around columns
    out = np.ascontiguousarray(out) if bias is None else out + bias.data.reshape(1, c_out, 1, 1)

    def bw(grad):
        grads = []
        go = grad
        if wq != ow:  # zeros in the wrap-around columns; a 1x1 conv has none
            go = np.zeros((n, c_out, oh, wq), dtype=grad.dtype)
            go[..., :ow] = grad
        go = go.reshape(n, g, cog, oh * wq)
        gw, gxf = np.zeros(wt.shape, grad.dtype), np.zeros(xf.shape, grad.dtype)
        gpart = np.empty((n, g, cg, bands[0][1]), dtype=grad.dtype)
        for lo, hi in bands:
            gob = go[..., lo:hi]
            for t, (ph, off) in enumerate(taps):
                if weight.requires_grad:
                    src = xf[:, :, :, ph, off + lo:off + hi]
                    gw[t] += np.matmul(gob, src.transpose(0, 1, 3, 2)).sum(axis=0)
                if x.requires_grad:
                    product(wt[t].transpose(0, 2, 1), gob, out=gpart[..., :hi - lo])
                    gxf[:, :, :, ph, off + lo:off + hi] += gpart[..., :hi - lo]
        if weight.requires_grad:
            grads.append((weight, gw.transpose(1, 2, 3, 0).reshape(wd.shape)))
        if x.requires_grad:
            gx = gxf.reshape(n, c_in, s, s, -1, wq).transpose(0, 1, 4, 2, 5, 3)
            gx = gx.reshape(n, c_in, -1, wq * s)[:, :, p:p + h, p:p + w]
            if s < stride:  # back onto the pixels the 1x1 conv read
                gx, sub = np.zeros(x.data.shape, dtype=grad.dtype), gx
                gx[:, :, ::stride, ::stride] = sub
            grads.append((x, gx))
        if bias is not None and bias.requires_grad:
            grads.append((bias, grad.sum(axis=(0, 2, 3))))
        return grads

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out, parents, bw)


def batch_norm(x, gamma, beta, epsilon, stats=None):
    """Per-channel ``gamma * (x - mean) / sqrt(var + epsilon) + beta`` over
    ``(n, c, h, w)`` input as one scale and shift, with the batch's mean and
    biased variance over ``(n, h, w)`` or with constant ``stats = (mean, var)``.
    Returns ``(out, mean, var)``. The backward pass is closed form (Ioffe &
    Szegedy 2015) and recomputes ``xhat`` from ``x``."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    xd, axes, col = x.data, (0, 2, 3), (1, -1, 1, 1)
    mean, var = (xd.mean(axis=axes), xd.var(axis=axes)) if stats is None else stats
    inv = 1.0 / np.sqrt(var + epsilon)
    scale = gamma.data * inv
    out = xd * scale.reshape(col) + (beta.data - mean * scale).reshape(col)

    def bw(grad):
        xhat = (xd - mean.reshape(col)) * inv.reshape(col)
        gx = grad * scale.reshape(col)
        if stats is None:
            gx = (gx - gx.mean(axis=axes, keepdims=True)
                  - xhat * (gx * xhat).mean(axis=axes, keepdims=True))
        grads = ((x, gx), (gamma, (grad * xhat).sum(axis=axes)), (beta, grad.sum(axis=axes)))
        return [(t, g) for t, g in grads if t.requires_grad]

    return _make(out, (x, gamma, beta), bw), mean, var


# -- resampling & pooling -------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _interp_matrix(n_in, n_out, dtype):
    """Row matrix mapping ``n_in`` samples to ``n_out`` half-pixel-center taps."""
    d = np.arange(n_out)
    s = np.clip((d + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    i0 = np.floor(s).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    f = (s - i0).astype(dtype)
    m = np.zeros((n_out, n_in), dtype=dtype)
    np.add.at(m, (d, i0), 1.0 - f)
    np.add.at(m, (d, i1), f)
    return m


def separable(x, ry, rx):
    """``ry · X · rxᵀ`` for every ``(h, w)`` map ``X`` of ``x``, with constant
    ``ry`` ``(out_h, h)`` and ``rx`` ``(out_w, w)``: a linear map that factors
    over rows and columns, such as a resize or a separable window. The
    backward pass is ``ryᵀ · G · rx``."""
    x = _as_tensor(x)
    out = np.matmul(np.matmul(ry, x.data), rx.T)

    def bw(grad):
        return [(x, np.matmul(np.matmul(ry.T, grad), rx))]

    return _make(out, (x,), bw)


def bilinear_upsample(x, out_h, out_w):
    """Bilinear resize to ``(out_h, out_w)`` with half-pixel centers,
    applied as one interpolation matrix per axis. A same-size resize is
    the identity and returns ``x`` itself."""
    x = _as_tensor(x)
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"bilinear_upsample input must be 4-D, got {xd.ndim}-D")
    n, c, h, w = xd.shape
    if out_h < h or out_w < w:
        raise ValueError(f"output size ({out_h},{out_w}) must not shrink input ({h},{w})")
    if (out_h, out_w) == (h, w):
        return x
    return separable(x, _interp_matrix(h, out_h, xd.dtype),
                     _interp_matrix(w, out_w, xd.dtype))


def global_avg_pool(x):
    """Spatial mean per channel, shape ``(n, c, 1, 1)``."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ValueError(f"global_avg_pool input must be 4-D, got {x.data.ndim}-D")
    return tmean(x, axis=(2, 3), keepdims=True)


def concat_channels(*tensors):
    """Concatenate 4-D tensors along the channel axis."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat_channels needs at least one tensor")
    first = ts[0].data.shape
    for t in ts[1:]:
        s = t.data.shape
        if len(s) != 4 or s[0] != first[0] or s[2:] != first[2:]:
            raise ValueError(
                f"concat_channels expects matching (n,h,w); got {first} vs {s}"
            )
    data = np.concatenate([t.data for t in ts], axis=1)
    widths = [t.data.shape[1] for t in ts]

    def bw(grad):
        grads = []
        off = 0
        for t, cw in zip(ts, widths):
            if t.requires_grad:
                grads.append((t, grad[:, off : off + cw]))
            off += cw
        return grads

    return _make(data, tuple(ts), bw)


def mul_broadcast(x, gate):
    """Scale feature map ``x`` by a per-channel or per-pixel gate."""
    x = _as_tensor(x)
    gate = _as_tensor(gate)
    n, c, h, w = x.data.shape
    gs = gate.data.shape
    if gs not in ((n, c, 1, 1), (n, 1, h, w)):
        raise ValueError(
            f"gate shape {gs} must be ({n},{c},1,1) or ({n},1,{h},{w})"
        )
    return mul(x, gate)
