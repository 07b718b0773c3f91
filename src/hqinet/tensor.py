"""Reverse-mode differentiable tensors on numpy arrays.

The engine records a computation graph as ops execute and replays it in
reverse topological order when ``backward`` is called on a scalar. It
supplies exactly the operations the reconstruction network and its
training objective need: elementwise arithmetic, reductions, 2-D
convolution (stride / dilation / groups), batch normalization (with an
optional relu in the same op, so a conv-BN-relu unit holds one
activation after its conv), bilinear upsampling, channel concatenation
and the gating primitives.

Conventions:
    * feature maps are 4-D ``(n, c, h, w)``; biases are 1-D; losses 0-D.
    * relu, alone or in batch_norm, uses subgradient 0 at 0; sigmoid is
      computed in split form so large negative inputs cannot overflow.
    * bilinear upsampling samples half-pixel centers,
      ``src = (dst + 0.5) * (in / out) - 0.5``, clamped to the edge.
    * all ops preserve the input floating dtype (float32 or float64 run
      through the same code paths).
    * every operand is a ``Tensor`` (``conv2d`` also reads a
      ``ChannelParts``); only the second operand of ``add``, ``sub``,
      ``mul`` and ``div`` may instead be a Python ``int`` or ``float``,
      which is a constant. Wrap an array in ``Tensor`` before passing it.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "grad_enabled",
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
    "bn_scale_shift",
    "bilinear_upsample",
    "global_avg_pool",
    "concat_channels",
    "ChannelParts",
    "mul_broadcast",
]


class _GradMode(threading.local):
    """Whether ops record the graph, per thread: each thread starts with
    recording on, and its no_grad blocks touch no other thread's flag."""

    enabled = True


_GRAD_MODE = _GradMode()

# conv2d works in bands that take about this many bytes per sample, so a band
# stays in cache: output rows with the input rows they read, and in the
# backward, input positions with the output-gradient rows of their patch.
_BAND_BYTES = 1 << 18

BN_EPSILON = 1e-5  # batch_norm's variance floor


def grad_enabled():
    """Whether ops called in this thread record the graph."""
    return _GRAD_MODE.enabled


class no_grad:
    """Context manager that suspends graph recording in the calling thread.

    The flag does not pass to threads started inside the block: each new
    thread starts with recording on, so a worker that should record no
    graph must enter no_grad itself.
    """

    def __enter__(self):
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc):
        _GRAD_MODE.enabled = self._prev
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


def _make(data, parents, backward_fn):
    """Wrap an op result, recording the graph only when it can matter."""
    out = Tensor(data)
    if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
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


def _operands(b):
    """``b``'s data, and ``b`` as a tensor or None. A Python number ``b`` is
    a constant: it records no parent and stays a Python scalar, so numpy
    keeps the first operand's dtype."""
    if isinstance(b, (int, float)):
        return b, None
    return b.data, b


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
    bd, b = _operands(b)
    return _binary(a.data + bd, a, b, lambda g: g, lambda g: g)


def sub(a, b):
    bd, b = _operands(b)
    return _binary(a.data - bd, a, b, lambda g: g, lambda g: -g)


def mul(a, b):
    bd, b = _operands(b)
    return _binary(a.data * bd, a, b, lambda g: g * bd, lambda g: g * a.data)


def div(a, b):
    if isinstance(b, (int, float)):
        # The reciprocal rounds differently from a true division; strict
        # loss logs are pinned to it.
        return mul(a, 1.0 / b)
    bd, b = _operands(b)
    data = a.data / bd
    return _binary(data, a, b, lambda g: g / bd, lambda g: -g * data / bd)


def neg(a):
    def bw(grad):
        return [(a, -grad)]

    return _make(-a.data, (a,), bw)


def sqrt(a):
    data = np.sqrt(a.data)

    def bw(grad):
        return [(a, grad * (0.5 / data))]

    return _make(data, (a,), bw)


def absolute(a):
    data = np.abs(a.data)

    def bw(grad):
        # subgradient 0 at exact ties
        return [(a, grad * np.sign(a.data))]

    return _make(data, (a,), bw)


def relu(a):
    data = np.maximum(a.data, 0)

    def bw(grad):
        return [(a, grad * (a.data > 0))]

    return _make(data, (a,), bw)


def sigmoid(a):
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
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(grad):
        return [(a, _expand_reduced(grad, a.data.shape, axis, keepdims))]

    return _make(data, (a,), bw)


def tmean(a, axis=None, keepdims=False):
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

    ``x`` is a tensor or a ``ChannelParts``, read as the concatenation of
    its parts. ``weight`` has shape ``(c_out, c_in // groups, k, k)``. A
    direct convolution with no patch matrix (Zhang, Franchetti & Low, ICML
    2018): each band of output rows zero-pads the input rows it reads into
    a reused flat buffer per stride phase, in which each tap is one
    contiguous slice and one batched matmul. An unpadded 1x1 conv of one
    tensor reads it in place. The graph keeps no padded copy: the weight
    gradient refills the bands from the input, and the input gradient takes
    one matmul per band of input positions and stride phase, against a patch
    of the output gradient's shifted rows (the transposed unrolled
    convolution of Chellapilla, Puri & Simard 2006, one band at a time).
    """
    parts = x.parts if isinstance(x, ChannelParts) else (x,)
    wd = weight.data

    if parts[0].data.ndim != 4:
        raise ValueError(f"conv2d input must be 4-D (n,c,h,w), got {parts[0].data.ndim}-D")
    if wd.ndim != 4:
        raise ValueError(f"conv2d weight must be 4-D, got {wd.ndim}-D")
    if stride < 1 or dilation < 1:
        raise ValueError(f"stride and dilation must be >= 1, got {stride}, {dilation}")
    if zero_padding < 0:
        raise ValueError(f"zero_padding must be >= 0, got {zero_padding}")

    n, _, h0, w0 = parts[0].data.shape
    c_in = sum(t.data.shape[1] for t in parts)
    c_out, c_in_g, kh, kw = wd.shape
    if groups < 1 or c_in % groups != 0:
        raise ValueError(f"input channels {c_in} not divisible by groups {groups}")
    if c_out % groups != 0:
        raise ValueError(f"output channels {c_out} not divisible by groups {groups}")
    if c_in_g != c_in // groups:
        raise ValueError(
            f"weight channel dim expects {c_in // groups} (c_in/groups), got {c_in_g}"
        )

    oh = conv_output_size(h0, kh, stride, dilation, zero_padding)
    ow = conv_output_size(w0, kw, stride, dilation, zero_padding)
    if oh < 1 or ow < 1:
        raise ValueError(
            f"kernel span {dilation * (kh - 1) + 1} exceeds padded input "
            f"{h0 + 2 * zero_padding}x{w0 + 2 * zero_padding}"
        )

    if bias is not None and bias.data.shape != (c_out,):
        raise ValueError(
            f"bias length expects output channels {c_out}, got {bias.data.shape}"
        )

    g, cg, cog = groups, c_in // groups, c_out // groups
    s, d, p, h, w = stride, dilation, zero_padding, h0, w0
    arrays = [t.data for t in parts]
    if kh == kw == 1 and p == 0:  # a 1x1 conv reads only every s-th pixel
        arrays = [a[:, :, ::s, ::s] for a in arrays]
        h, w, s = oh, ow, 1
    dtype = np.result_type(*arrays)

    # Stride phase (a, b) holds padded rows a, a+s, ... and columns b, b+s, ...;
    # tap (i, j) reads phase ((i*d) % s, (j*d) % s) at stride 1 from flat
    # offset (i*d // s) * wq + j*d // s past its band's first row, and one
    # spare row takes wrapped reads.
    wq = -(-(w + 2 * p) // s)
    taps = [((i * d) % s * s + (j * d) % s, (i * d) // s * wq + (j * d) // s)
            for i in range(kh) for j in range(kw)]
    rows = min(oh, max(1, _BAND_BYTES // ((c_in + c_out) * wq * dtype.itemsize)))
    spans = [(r0, min(r0 + rows, oh)) for r0 in range(0, oh, rows)]
    halo = (kh - 1) * d // s + 1  # phase rows a band reads below its last output row

    def reader():
        """A function from a band's first output row to a flat array whose
        phase ``ph`` slice ``[off, off + len)`` is a tap's input for the band."""
        if len(arrays) == 1 and s == 1 and p == 0 and kw == 1:  # no padding, no wrap
            xf = arrays[0].reshape(n, g, cg, 1, -1)
            return lambda r0: xf[..., r0 * wq:]
        buf = np.zeros((n, c_in, (rows + halo) * s, wq * s), dtype=dtype)

        def band(r0):
            y = r0 * s - p  # the input row of the band's first padded row
            lo = min(max(0, -y), buf.shape[2])
            hi = max(lo, min(buf.shape[2], h - y))
            buf[:, :, :lo] = 0  # padding rows; padding columns stay zero
            buf[:, :, hi:] = 0
            ch = 0
            for a in arrays:
                buf[:, ch:ch + a.shape[1], lo:hi, p:p + w] = a[:, :, y + lo:y + hi]
                ch += a.shape[1]
            xf = buf.reshape(n, g, cg, -1, s, wq, s).transpose(0, 1, 2, 4, 6, 3, 5)
            return xf.reshape(n, g, cg, s * s, -1)  # a view when s == 1
        return band

    # A depthwise tap is a per-channel scale; matmul would call BLAS per channel.
    product = np.multiply if cg == cog == 1 else np.matmul
    wt = np.ascontiguousarray(wd.reshape(g, cog, cg, kh * kw).transpose(3, 0, 1, 2))
    wide = np.empty((n, g, cog, oh * wq), dtype=np.result_type(wd, dtype))
    part = np.empty_like(wide[..., :rows * wq])
    band = reader()
    for r0, r1 in spans:
        src, dst, m = band(r0), wide[..., r0 * wq:r1 * wq], (r1 - r0) * wq
        for t, (ph, off) in enumerate(taps):
            if t == 0:
                product(wt[0], src[:, :, :, ph, off:off + m], out=dst)
            else:
                product(wt[t], src[:, :, :, ph, off:off + m], out=part[..., :m])
                dst += part[..., :m]
    out = wide.reshape(n, c_out, oh, wq)[..., :ow]  # drop the wrap-around columns
    out = np.ascontiguousarray(out) if bias is None else out + bias.data.reshape(1, c_out, 1, 1)

    rq = -(-(p + h) // s)  # phase rows that hold input pixels
    margin = taps[-1][1]  # the largest tap offset

    def grad_weight(gop):
        """Per tap and band, ``go`` times the band's input rows, refilled
        from the saved input."""
        band = reader()
        gw = np.zeros(wt.shape, gop.dtype)
        for r0, r1 in spans:
            go = gop[..., margin + r0 * wq:margin + r1 * wq]
            src = band(r0)
            for t, (ph, off) in enumerate(taps):
                tap = src[:, :, :, ph, off:off + go.shape[-1]]
                gw[t] += np.matmul(go, tap.transpose(0, 1, 3, 2)).sum(axis=0)
        return gw.transpose(1, 2, 3, 0).reshape(wd.shape)

    def grad_input(gop):
        """The flat phase planes of the input gradient. Position q of phase
        ``ph`` is ``sum_t W_t^T go[q - off_t]`` over that phase's taps: per
        band of q, the taps' shifted rows of ``go`` are stacked into one
        patch and contracted with the phase's weights in one matmul (for a
        depthwise conv too, where it beat an einsum)."""
        gxf = np.empty((n, g, cg, s * s, rq * wq), gop.dtype)
        phases = [[t for t, (ph, _) in enumerate(taps) if ph == a] for a in range(s * s)]
        most = max(len(ts) for ts in phases)
        cols = max(1, _BAND_BYTES // ((most * c_out + c_in) * gop.dtype.itemsize))
        patch = np.empty((n, g, most * cog, min(cols, rq * wq)), gop.dtype)
        for ph, ts in enumerate(phases):
            if not ts:  # no tap reads this phase
                gxf[:, :, :, ph] = 0
                continue
            # (g, cg, taps * cog): the phase's weights side by side, transposed
            wcat = wt[ts].transpose(1, 3, 0, 2).reshape(g, cg, len(ts) * cog)
            for q0 in range(0, rq * wq, cols):
                q1 = min(q0 + cols, rq * wq)
                lows = [margin + q0 - taps[t][1] for t in ts]
                if len(ts) == 1:  # the patch is go itself
                    src = gop[..., lows[0]:lows[0] + q1 - q0]
                else:
                    src = patch[:, :, :len(ts) * cog, :q1 - q0]
                    for i, lo in enumerate(lows):
                        src[:, :, i * cog:(i + 1) * cog] = gop[..., lo:lo + q1 - q0]
                np.matmul(wcat, src, out=gxf[:, :, :, ph, q0:q1])
        return gxf

    def bw(grad):
        grads = []
        # gop[..., margin + q] is the output gradient at flat position q:
        # zero in the wrap-around columns and in the margins a tap shifts into
        m = oh * wq
        if kh == kw == 1:  # no tap shifts and no wrap-around columns
            gop = grad.reshape(n, g, cog, m)
        else:
            gop = np.zeros((n, c_out, margin + max(m, rq * wq)), dtype=grad.dtype)
            gop[..., margin:margin + m].reshape(n, c_out, oh, wq)[..., :ow] = grad
            gop = gop.reshape(n, g, cog, -1)
        if weight.requires_grad:
            grads.append((weight, grad_weight(gop)))
        if any(t.requires_grad for t in parts):
            gx = grad_input(gop).reshape(n, c_in, s, s, rq, wq).transpose(0, 1, 4, 2, 5, 3)
            gx = gx.reshape(n, c_in, -1, wq * s)[:, :, p:p + h, p:p + w]
            if s < stride:  # back onto the pixels the 1x1 conv read
                gx, sub = np.zeros((n, c_in, h0, w0), dtype=grad.dtype), gx
                gx[:, :, ::stride, ::stride] = sub
            ch = 0
            for t in parts:
                if t.requires_grad:
                    grads.append((t, gx[:, ch:ch + t.data.shape[1]]))
                ch += t.data.shape[1]
        if bias is not None and bias.requires_grad:
            grads.append((bias, grad.sum(axis=(0, 2, 3))))
        return grads

    parents = parts + (weight,) + (() if bias is None else (bias,))
    return _make(out, parents, bw)


def bn_scale_shift(gamma, beta, mean, var):
    """``(inv, scale, shift)`` arrays of batch normalization with statistics
    ``(mean, var)``: ``inv = 1 / sqrt(var + BN_EPSILON)``, ``scale = gamma *
    inv`` and ``shift = beta - mean * scale``, so the normalized input is
    ``x * scale + shift``. ``batch_norm`` and the conv folding of
    ``nn.conv_bn`` both take them from here."""
    inv = 1.0 / np.sqrt(var + BN_EPSILON)
    scale = gamma * inv
    return inv, scale, beta - mean * scale


def batch_norm(x, gamma, beta, stats=None, relu=False):
    """Per-channel ``gamma * (x - mean) / sqrt(var + BN_EPSILON) + beta`` over
    ``(n, c, h, w)`` input, with the batch's mean and biased variance over
    ``(n, h, w)`` or with constant ``stats = (mean, var)``, followed by a
    relu when ``relu`` is set. Returns ``(out, mean, var)``. With batch
    statistics the input is centred once and the variance is one
    per-channel dot product; with constant ones the op is one scale and
    shift. The relu runs in place on that result, so the op holds one
    activation and records one graph node. The backward pass masks the
    gradient by the output's sign as ``relu`` does, then is closed form
    (Ioffe & Szegedy 2015): it centres the input again and needs two
    per-channel reductions, ``sum g`` and ``sum g * (x - mean)``."""
    xd = x.data
    n, c = xd.shape[:2]
    x3, col, m = xd.reshape(n, c, -1), (1, c, 1), xd.size // c  # m values per channel
    if stats is None:
        mean = x3.mean(axis=(0, 2))
        xc = x3 - mean.reshape(col)
        var = np.einsum("nci,nci->c", xc, xc) / m
    else:
        mean, var = stats
    inv, scale, shift = bn_scale_shift(gamma.data, beta.data, mean, var)
    # one scale and shift: of x with constant statistics, of x - mean without
    base, shift = (xc, beta.data) if stats is None else (x3, shift)
    out = (base * scale.reshape(col) + shift.reshape(col)).reshape(xd.shape)
    if relu:
        np.maximum(out, 0, out=out)

    def bw(grad):
        if relu:  # subgradient 0 at 0, as relu's
            grad = grad * (out > 0)
        g3 = grad.reshape(n, c, -1)
        xc = x3 - mean.reshape(col)
        sum_g, sum_gxc = g3.sum(axis=(0, 2)), np.einsum("nci,nci->c", g3, xc)
        gx = g3 * scale.reshape(col)
        if stats is None:  # the batch statistics depend on x too
            xc *= (-scale * inv * inv * sum_gxc / m).reshape(col)
            gx += xc
            gx -= (scale * sum_g / m).reshape(col)
        grads = ((x, gx.reshape(xd.shape)), (gamma, sum_gxc * inv), (beta, sum_g))
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
    out = np.matmul(np.matmul(ry, x.data), rx.T)

    def bw(grad):
        return [(x, np.matmul(np.matmul(ry.T, grad), rx))]

    return _make(out, (x,), bw)


def bilinear_upsample(x, out_h, out_w):
    """Bilinear resize to ``(out_h, out_w)`` with half-pixel centers,
    applied as one interpolation matrix per axis. A same-size resize is
    the identity and returns ``x`` itself."""
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
    if x.data.ndim != 4:
        raise ValueError(f"global_avg_pool input must be 4-D, got {x.data.ndim}-D")
    return tmean(x, axis=(2, 3), keepdims=True)


def _channel_parts(tensors):
    """The tuple ``tensors``, checked to hold 4-D tensors sharing ``(n, h, w)``."""
    if not tensors:
        raise ValueError("channel concatenation needs at least one tensor")
    first = tensors[0].data.shape
    for t in tensors:
        s = t.data.shape
        if len(s) != 4 or s[0] != first[0] or s[2:] != first[2:]:
            raise ValueError(
                f"channel concatenation expects matching (n,h,w); got {first} vs {s}"
            )
    return tensors


class ChannelParts:
    """Feature maps that ``conv2d`` reads as their concatenation along the
    channel axis, without building it. ``shape`` is the concatenation's."""

    __slots__ = ("parts",)

    def __init__(self, *tensors):
        self.parts = _channel_parts(tensors)

    @property
    def shape(self):
        n, _, h, w = self.parts[0].data.shape
        return (n, sum(t.data.shape[1] for t in self.parts), h, w)


def concat_channels(*tensors):
    """Concatenate 4-D tensors along the channel axis."""
    ts = _channel_parts(tensors)
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

    return _make(data, ts, bw)


def mul_broadcast(x, gate):
    """Scale feature map ``x`` by a per-channel or per-pixel gate."""
    n, c, h, w = x.data.shape
    gs = gate.data.shape
    if gs not in ((n, c, 1, 1), (n, 1, h, w)):
        raise ValueError(
            f"gate shape {gs} must be ({n},{c},1,1) or ({n},1,{h},{w})"
        )
    return mul(x, gate)
