"""Reverse-mode differentiable tensors on numpy arrays.

The engine records a computation graph as ops execute and replays it in
reverse topological order when ``backward`` is called on a scalar. It
supplies exactly the operations the reconstruction network and its
training objective need: elementwise arithmetic, reductions, 2-D
convolution (stride / dilation / groups), batch-stat building blocks,
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
    "bilinear_upsample",
    "global_avg_pool",
    "concat_channels",
    "mul_broadcast",
]

_GRAD_ENABLED = True

# Under no_grad, conv2d builds its patch matrix in bands of output rows of
# about this many bytes per sample, so each band stays in cache until used.
_PATCH_BAND_BYTES = 1 << 18


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

    ``weight`` has shape ``(c_out, c_in // groups, k, k)``. Realized as
    im2col (a strided patch view collapsed to a matrix) followed by
    batched matmuls; the backward pass scatters gradients back through the
    same patch geometry, so while the graph is recorded the patch matrix
    covers the whole map. Under ``no_grad`` it is built in row bands.
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

    g = groups
    cg = c_in // g
    cog = c_out // g
    p = zero_padding

    if p > 0:
        xp = np.pad(xd, ((0, 0), (0, 0), (p, p), (p, p)))
    else:
        xp = xd
    hp, wp = xp.shape[2], xp.shape[3]
    L = oh * ow
    k = cg * kh * kw

    if _GRAD_ENABLED or (kh == 1 and kw == 1 and stride == 1 and p == 0):
        # backward keeps the whole patch matrix; a 1x1 one is the input itself
        rows = oh
    else:
        rows = max(1, _PATCH_BAND_BYTES // (g * k * ow * xp.itemsize))
    wmat = wd.reshape(g, cog, k)
    out = np.empty((n, g, cog, L), dtype=np.result_type(wd, xd))
    sn, sc, sh, sw = xp.strides
    for r0 in range(0, oh, rows):
        r = min(rows, oh - r0)
        view = np.lib.stride_tricks.as_strided(
            xp[:, :, r0 * stride:],
            shape=(n, g, cg, kh, kw, r, ow),
            strides=(sn, cg * sc, sc, dilation * sh, dilation * sw, stride * sh, stride * sw),
            writeable=False,
        )
        cols = view.reshape(n, g, k, r * ow)
        np.matmul(wmat, cols, out=out[..., r0 * ow:(r0 + r) * ow])
    out = out.reshape(n, c_out, oh, ow)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    need_w = weight.requires_grad
    need_x = x.requires_grad
    saved_cols = cols if need_w else None

    def bw(grad):
        grads = []
        go = grad.reshape(n, g, cog, L)
        if need_w:
            gw = np.matmul(go, saved_cols.transpose(0, 1, 3, 2)).sum(axis=0)
            grads.append((weight, gw.reshape(wd.shape)))
        if need_x:
            gcols = np.matmul(wmat.transpose(0, 2, 1), go)
            gxp = np.zeros((n, g, cg, hp, wp), dtype=grad.dtype)
            gc = gcols.reshape(n, g, cg, kh, kw, oh, ow)
            for ki in range(kh):
                hs = ki * dilation
                for kj in range(kw):
                    ws = kj * dilation
                    gxp[:, :, :, hs : hs + stride * oh : stride,
                        ws : ws + stride * ow : stride] += gc[:, :, :, ki, kj]
            gx = gxp.reshape(n, c_in, hp, wp)
            if p > 0:
                gx = gx[:, :, p : hp - p, p : wp - p]
            grads.append((x, gx))
        if bias is not None and bias.requires_grad:
            grads.append((bias, grad.sum(axis=(0, 2, 3))))
        return grads

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out, parents, bw)


# -- resampling & pooling -------------------------------------------------------

_INTERP_CACHE = {}


def _interp_matrix(n_in, n_out, dtype):
    """Row matrix mapping ``n_in`` samples to ``n_out`` half-pixel-center taps."""
    key = (n_in, n_out, np.dtype(dtype).str)
    m = _INTERP_CACHE.get(key)
    if m is None:
        d = np.arange(n_out)
        s = np.clip((d + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
        i0 = np.floor(s).astype(np.intp)
        i1 = np.minimum(i0 + 1, n_in - 1)
        f = (s - i0).astype(dtype)
        m = np.zeros((n_out, n_in), dtype=dtype)
        np.add.at(m, (d, i0), 1.0 - f)
        np.add.at(m, (d, i1), f)
        _INTERP_CACHE[key] = m
    return m


def bilinear_upsample(x, out_h, out_w):
    """Bilinear resize to ``(out_h, out_w)`` with half-pixel centers.

    Separable, so it is applied as two interpolation matrices; the
    backward pass is the transposed pair.
    """
    x = _as_tensor(x)
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"bilinear_upsample input must be 4-D, got {xd.ndim}-D")
    n, c, h, w = xd.shape
    if out_h < h or out_w < w:
        raise ValueError(
            f"output size ({out_h},{out_w}) must not shrink input ({h},{w})"
        )

    ry = _interp_matrix(h, out_h, xd.dtype)
    rx = _interp_matrix(w, out_w, xd.dtype)
    out = np.matmul(np.matmul(ry, xd), rx.T)

    def bw(grad):
        gx = np.matmul(np.matmul(ry.T, grad), rx)
        return [(x, gx)]

    return _make(out, (x,), bw)


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
