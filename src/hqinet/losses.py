"""Training objective: weighted sum of L1 and structural-similarity losses.

All functions here build on the differentiable tensor ops, so gradients
flow to the prediction. The similarity index uses local Gaussian-window
statistics by default; a non-positive ``window_sigma`` selects a uniform
window, and a uniform window spanning the whole image reduces exactly to
the single-global-statistics form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

__all__ = [
    "LossWeights",
    "SsimParams",
    "l1_loss",
    "ssim",
    "ssim_loss",
    "loss_terms",
]


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.85
    beta: float = 0.15

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(
                f"loss weights must be >= 0, got alpha={self.alpha} beta={self.beta}")


@dataclass(frozen=True)
class SsimParams:
    """window_sigma > 0: Gaussian window; otherwise uniform.

    c1 and c2 default to (0.01 * data_range)^2 and (0.03 * data_range)^2.
    """

    window_size: int = 11
    window_sigma: float = 1.5
    data_range: float = 1.0
    c1: float = None
    c2: float = None

    def __post_init__(self):
        if self.data_range <= 0:
            raise ValueError(f"data_range must be > 0, got {self.data_range}")
        if self.window_size < 1 or self.window_size % 2 == 0:
            raise ValueError(
                f"window_size must be a positive odd int, got {self.window_size}")
        if self.c1 is None:
            object.__setattr__(self, "c1", (0.01 * self.data_range) ** 2)
        if self.c2 is None:
            object.__setattr__(self, "c2", (0.03 * self.data_range) ** 2)
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError(f"c1, c2 must be > 0, got {self.c1}, {self.c2}")


def _as4d(x):
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x))
    if x.data.ndim == 2:
        h, w = x.data.shape
        return T.reshape(x, (1, 1, h, w))
    if x.data.ndim == 4:
        return x
    raise ValueError(f"expected a 2-d image or (n,c,h,w) batch, got shape {x.data.shape}")


def l1_loss(pred, ref):
    """Mean absolute difference over all elements."""
    p = pred if isinstance(pred, Tensor) else Tensor(np.asarray(pred))
    r = ref if isinstance(ref, Tensor) else Tensor(np.asarray(ref))
    if p.data.shape != r.data.shape:
        raise ValueError(f"shape mismatch: {p.data.shape} vs {r.data.shape}")
    return T.tmean(T.absolute(T.sub(p, r)))


_WINDOW_CACHE = {}


def _window(channels, size, sigma, dtype):
    key = (channels, size, float(sigma), np.dtype(dtype).str)
    win = _WINDOW_CACHE.get(key)
    if win is None:
        if sigma > 0:
            d = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
            g = np.exp(-(d * d) / (2.0 * sigma * sigma))
            w2 = np.outer(g, g)
        else:
            w2 = np.ones((size, size), dtype=np.float64)
        w2 = w2 / w2.sum()
        arr = np.ascontiguousarray(
            np.broadcast_to(w2.astype(dtype), (channels, 1, size, size)))
        win = Tensor(arr)
        _WINDOW_CACHE[key] = win
    return win


def ssim(pred, ref, params: SsimParams = None):
    """Mean local structural similarity, differentiable, in [-1, 1].

    Per-window means, variances and covariance come from a depthwise
    convolution with the (normalized) window; the variance uses the
    biased form E[x^2] - E[x]^2 over the window weights.
    """
    if params is None:
        params = SsimParams()
    x = _as4d(pred)
    y = _as4d(ref)
    if x.data.shape != y.data.shape:
        raise ValueError(f"shape mismatch: {x.data.shape} vs {y.data.shape}")
    n, c, h, w = x.data.shape
    k = params.window_size
    if k > min(h, w):
        raise ValueError(f"window {k} larger than image {h}x{w}")
    win = _window(c, k, params.window_sigma, x.data.dtype)
    mu_x = T.conv2d(x, win, groups=c)
    mu_y = T.conv2d(y, win, groups=c)
    e_xx = T.conv2d(T.mul(x, x), win, groups=c)
    e_yy = T.conv2d(T.mul(y, y), win, groups=c)
    e_xy = T.conv2d(T.mul(x, y), win, groups=c)
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


def ssim_loss(pred, ref, params: SsimParams = None):
    """1 - ssim; in [0, 2]."""
    return T.add(T.neg(ssim(pred, ref, params)), 1.0)


def loss_terms(pred, ref, weights: LossWeights = None, params: SsimParams = None):
    """(total, l1 part, ssim-loss part) sharing one graph."""
    if weights is None:
        weights = LossWeights()
    l1 = l1_loss(pred, ref)
    sl = ssim_loss(pred, ref, params)
    total = T.add(T.mul(l1, float(weights.alpha)), T.mul(sl, float(weights.beta)))
    return total, l1, sl
