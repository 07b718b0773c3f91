"""Independent reference implementations used to check the real ones.

Everything here is written the slow, obvious way (explicit loops,
direct summation) on purpose: these are the oracles the fast
implementations are compared against, so they must not share any code
or algebraic shortcuts with them. ``batch_norm_naive`` and ``ssim_naive``
differ in form: they are the compositions of tensor ops that
``tensor.batch_norm`` and ``losses.ssim`` replaced, so their gradients come
from the chain rule through every intermediate rather than from the closed
form.
"""

import math

import numpy as np

from hqinet import tensor as T
from hqinet.losses import SsimParams, _window_rows
from hqinet.tensor import Tensor


def conv2d_naive(x, w, b=None, stride=1, dilation=1, groups=1, padding=0):
    """Direct seven-loop convolution (cross-correlation) in float64."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n, cin, h, wid = x.shape
    cout, cg, kh, kw = w.shape
    if padding:
        xp = np.zeros((n, cin, h + 2 * padding, wid + 2 * padding))
        xp[:, :, padding:padding + h, padding:padding + wid] = x
        x = xp
        h, wid = h + 2 * padding, wid + 2 * padding
    oh = (h - dilation * (kh - 1) - 1) // stride + 1
    ow = (wid - dilation * (kw - 1) - 1) // stride + 1
    out = np.zeros((n, cout, oh, ow))
    cog = cout // groups
    for ni in range(n):
        for co in range(cout):
            g = co // cog
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cg):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky * dilation
                                ix = ox * stride + kx * dilation
                                acc += x[ni, g * cg + ci, iy, ix] * w[co, ci, ky, kx]
                    out[ni, co, oy, ox] = acc
            if b is not None:
                out[ni, co] += b[co]
    return out


def conv2d_grad_input_naive(grad_out, w, in_shape, stride=1, dilation=1, groups=1,
                            padding=0):
    """The adjoint of ``conv2d_naive`` in its input, in float64: every output
    gradient value goes back, weighted by its tap, onto the padded input
    pixel that tap read. Loops over channels and taps; each step moves
    every (sample, output pixel) at once."""
    go = np.asarray(grad_out, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n, cin, h, wid = in_shape
    cout, cg, kh, kw = w.shape
    _, _, oh, ow = go.shape
    gx = np.zeros((n, cin, h + 2 * padding, wid + 2 * padding))
    cog = cout // groups
    for co in range(cout):
        g = co // cog
        for ci in range(cg):
            for ky in range(kh):
                for kx in range(kw):
                    y0, x0 = ky * dilation, kx * dilation
                    rows = slice(y0, y0 + (oh - 1) * stride + 1, stride)
                    cols = slice(x0, x0 + (ow - 1) * stride + 1, stride)
                    gx[:, g * cg + ci, rows, cols] += go[:, co] * w[co, ci, ky, kx]
    return gx[:, :, padding:padding + h, padding:padding + wid]


def batch_norm_naive(x, gamma, beta, epsilon, stats=None):
    """Batch normalization composed of elementwise tensor ops: 11 graph nodes
    with the batch's statistics, 6 with ``stats = (running_mean,
    running_var)``. Returns ``(out, mean, var)`` like ``tensor.batch_norm``."""
    c = x.data.shape[1]
    if stats is None:
        mu = T.tmean(x, axis=(0, 2, 3), keepdims=True)
        xc = T.sub(x, mu)
        var = T.tmean(T.mul(xc, xc), axis=(0, 2, 3), keepdims=True)
        xhat = T.div(xc, T.sqrt(T.add(var, epsilon)))
        stats = (mu.data.reshape(c), var.data.reshape(c))
    else:
        rm = stats[0].reshape(1, c, 1, 1)
        rv = stats[1].reshape(1, c, 1, 1)
        scale = 1.0 / np.sqrt(rv + epsilon)
        xhat = T.mul(T.sub(x, Tensor(rm)), Tensor(scale))
    out = T.add(T.mul(xhat, T.reshape(gamma, (1, c, 1, 1))),
                T.reshape(beta, (1, c, 1, 1)))
    return (out,) + stats


def ssim_naive(pred, ref, params=None):
    """Mean local SSIM composed of tensor ops, with the signature of
    ``losses.ssim``: 21 graph nodes for a 4-D batch when only ``pred``
    requires grad (26 when both do), plus a reshape per 2-D input."""

    def as4d(x):
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x))
        if x.data.ndim == 2:
            h, w = x.data.shape
            return T.reshape(x, (1, 1, h, w))
        if x.data.ndim == 4:
            return x
        raise ValueError(f"expected a 2-d image or (n,c,h,w) batch, got shape {x.data.shape}")

    if params is None:
        params = SsimParams()
    x = as4d(pred)
    y = as4d(ref)
    if x.data.shape != y.data.shape:
        raise ValueError(f"shape mismatch: {x.data.shape} vs {y.data.shape}")
    h, w = x.data.shape[2:]
    k = params.window_size
    if k > min(h, w):
        raise ValueError(f"window {k} larger than image {h}x{w}")
    ah = _window_rows(h, k, params.window_sigma, x.data.dtype)
    aw = _window_rows(w, k, params.window_sigma, x.data.dtype)
    mu_x, mu_y, e_xx, e_yy, e_xy = [T.separable(t, ah, aw) for t in (
        x, y, T.mul(x, x), T.mul(y, y), T.mul(x, y))]
    mu_xx = T.mul(mu_x, mu_x)
    mu_yy = T.mul(mu_y, mu_y)
    mu_xy = T.mul(mu_x, mu_y)
    var_x = T.sub(e_xx, mu_xx)
    var_y = T.sub(e_yy, mu_yy)
    cov = T.sub(e_xy, mu_xy)
    c1 = float(params.c1)
    c2 = float(params.c2)
    num = T.mul(T.add(T.mul(mu_xy, 2.0), c1), T.add(T.mul(cov, 2.0), c2))
    den = T.mul(T.add(T.add(mu_xx, mu_yy), c1), T.add(T.add(var_x, var_y), c2))
    return T.tmean(T.div(num, den))


def l1_naive(pred, ref):
    p = np.asarray(pred, dtype=np.float64).ravel()
    r = np.asarray(ref, dtype=np.float64).ravel()
    total = 0.0
    for a, b in zip(p, r):
        total += abs(a - b)
    return total / p.size


def nmse_naive(pred, ref):
    p = np.asarray(pred, dtype=np.float64).ravel()
    r = np.asarray(ref, dtype=np.float64).ravel()
    num = 0.0
    den = 0.0
    for a, b in zip(p, r):
        num += (a - b) ** 2
        den += b * b
    return num / den


def psnr_naive(pred, ref):
    p = np.asarray(pred, dtype=np.float64).ravel()
    r = np.asarray(ref, dtype=np.float64).ravel()
    peak = max(r)
    mse = 0.0
    for a, b in zip(p, r):
        mse += (a - b) ** 2
    mse /= p.size
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def mi_naive(pred, ref, bins=64, data_range=1.0):
    """Mutual information by explicit per-pixel binning."""
    p = np.asarray(pred, dtype=np.float64).ravel()
    r = np.asarray(ref, dtype=np.float64).ravel()
    joint = np.zeros((bins, bins))
    width = data_range / bins
    for a, b in zip(p, r):
        a = min(max(a, 0.0), data_range)
        b = min(max(b, 0.0), data_range)
        ia = min(int(a / width), bins - 1)
        ib = min(int(b / width), bins - 1)
        joint[ia, ib] += 1.0
    joint /= joint.sum()
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mi = 0.0
    for i in range(bins):
        for j in range(bins):
            if joint[i, j] > 0:
                mi += joint[i, j] * math.log(joint[i, j] / (px[i] * py[j]))
    return mi


def ssim_windowed_naive(x, y, window, c1, c2):
    """Per-pixel windowed structural similarity, averaged.

    ``window`` is a normalized 2-d weight array; x and y are 2-d images.
    Statistics use the weighted biased form E[x^2] - E[x]^2.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    k = window.shape[0]
    h, w = x.shape
    oh, ow = h - k + 1, w - k + 1
    vals = []
    for oy in range(oh):
        for ox in range(ow):
            px = x[oy:oy + k, ox:ox + k]
            py = y[oy:oy + k, ox:ox + k]
            mx = float((window * px).sum())
            my = float((window * py).sum())
            vx = float((window * px * px).sum()) - mx * mx
            vy = float((window * py * py).sum()) - my * my
            cxy = float((window * px * py).sum()) - mx * my
            num = (2 * mx * my + c1) * (2 * cxy + c2)
            den = (mx * mx + my * my + c1) * (vx + vy + c2)
            vals.append(num / den)
    return float(np.mean(vals))


def gaussian_window_naive(size, sigma):
    d = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(d * d) / (2.0 * sigma * sigma))
    w = np.outer(g, g)
    return w / w.sum()


def adam_step_naive(p, g, m, v, t, lr, beta1, beta2, epsilon):
    """One bias-corrected moment update; returns (p_new, m_new, v_new)."""
    m_new = beta1 * m + (1 - beta1) * g
    v_new = beta2 * v + (1 - beta2) * g * g
    m_hat = m_new / (1 - beta1 ** t)
    v_hat = v_new / (1 - beta2 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + epsilon), m_new, v_new


def truncated_std(std, cut=2.0):
    """Analytic standard deviation of a zero-mean Gaussian truncated at
    +/- cut standard deviations."""
    phi = lambda z: math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
    Phi = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    z = cut
    var_unit = 1.0 + (-z * phi(z) - z * phi(z)) / (Phi(z) - Phi(-z))
    return std * math.sqrt(var_unit)


# Per-slice parallel-beam projector and FBP as they stood before the
# stacked versions in hqinet.ctsim: one slice at a time, geometry rebuilt
# for every call.


def radon_naive(image, n_views, n_detectors):
    """Parallel-beam forward projection of a square image: its
    ``(n_views, n_detectors)`` sinogram.

    Each view rotates the sampling grid and sums bilinearly interpolated
    values along rays at two steps per pixel, with detectors one pixel
    apart.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ValueError(f"image must be square 2-d, got {img.shape}")
    if n_views < 1 or n_detectors < 1:
        raise ValueError("n_views and n_detectors must be >= 1")
    s = img.shape[0]
    pad = np.zeros((s + 2, s + 2), dtype=np.float64)
    pad[1:-1, 1:-1] = img
    center = (s - 1) / 2.0
    angles = np.arange(n_views, dtype=np.float64) * math.pi / n_views
    t = np.arange(n_detectors, dtype=np.float64) - (n_detectors - 1) / 2.0
    step = 0.5
    half_len = s * math.sqrt(2.0) / 2.0
    n_steps = int(math.ceil(2.0 * half_len / step)) + 1
    ray = -half_len + step * np.arange(n_steps, dtype=np.float64)
    data = np.empty((n_views, n_detectors), dtype=np.float64)
    for v, theta in enumerate(angles):
        ct, st = math.cos(theta), math.sin(theta)
        # px/py carry the +1 shift into the zero-padded frame.
        px = center + 1.0 + t[:, None] * ct - ray[None, :] * st
        py = center + 1.0 + t[:, None] * st + ray[None, :] * ct
        x0 = np.floor(px).astype(np.int64)
        y0 = np.floor(py).astype(np.int64)
        inside = (x0 >= 0) & (x0 <= s) & (y0 >= 0) & (y0 <= s)
        x0c = np.clip(x0, 0, s)
        y0c = np.clip(y0, 0, s)
        fx = px - x0
        fy = py - y0
        vals = (pad[y0c, x0c] * (1 - fy) * (1 - fx)
                + pad[y0c, x0c + 1] * (1 - fy) * fx
                + pad[y0c + 1, x0c] * fy * (1 - fx)
                + pad[y0c + 1, x0c + 1] * fy * fx)
        data[v] = (vals * inside).sum(axis=1) * step
    return data


def _ramlak_kernel(n_detectors):
    """Discrete ramp filter taps for offsets -(n-1) .. (n-1), unit spacing."""
    n = np.arange(-(n_detectors - 1), n_detectors, dtype=np.float64)
    kern = np.zeros_like(n)
    kern[n_detectors - 1] = 1.0 / 4.0
    odd = (np.abs(n) % 2) == 1
    kern[odd] = -1.0 / (math.pi * n[odd]) ** 2
    return kern


def fbp_naive(sino, out_size):
    """Filtered backprojection of one ``(n_views, n_detectors)`` sinogram
    onto an out_size x out_size grid.

    Ramp filtering runs as an FFT-based linear convolution with the
    discrete ramp kernel; backprojection interpolates each filtered view
    linearly and weights the angle sum by pi / n_views. Output is
    clamped to [0, 1.5]; any volume-level renormalization is the
    caller's concern.
    """
    if out_size < 1:
        raise ValueError(f"out_size must be >= 1, got {out_size}")
    nv, nd = sino.shape
    kern = _ramlak_kernel(nd)
    m = 1
    while m < nd + kern.size - 1:
        m *= 2
    kf = np.fft.rfft(kern, m)
    pf = np.fft.rfft(sino, m, axis=1)
    conv = np.fft.irfft(pf * kf[None, :], m, axis=1)
    # Taps start at offset -(nd-1), so the aligned slice begins there.
    filtered = conv[:, nd - 1:2 * nd - 1]
    center = (out_size - 1) / 2.0
    ys, xs = np.mgrid[0:out_size, 0:out_size]
    x = xs - center
    y = ys - center
    recon = np.zeros((out_size, out_size), dtype=np.float64)
    det_center = (nd - 1) / 2.0
    for v in range(nv):
        theta = v * math.pi / nv
        tcoord = x * math.cos(theta) + y * math.sin(theta) + det_center
        idx = np.floor(tcoord).astype(np.int64)
        frac = tcoord - idx
        valid = (idx >= 0) & (idx <= nd - 2)
        idxc = np.clip(idx, 0, nd - 2)
        view = filtered[v]
        recon += np.where(valid, view[idxc] * (1 - frac) + view[idxc + 1] * frac, 0.0)
    recon *= math.pi / nv
    return np.clip(recon, 0.0, 1.5)
