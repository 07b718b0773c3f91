"""Training objective: weighted sum of L1 and structural-similarity losses.

Gradients flow to the prediction: L1 is composed of tensor ops, and the
similarity index is one graph node with a closed-form backward. It uses
local Gaussian-window statistics by default; a non-positive
``window_sigma`` selects a uniform window, and a uniform window spanning
the whole image reduces exactly to the single-global-statistics form. Both
windows are separable (Wang et al. 2004), so they are applied along each
axis in turn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T

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


def l1_loss(pred, ref):
    """Mean absolute difference over all elements."""
    p, r = T._as_tensor(pred), T._as_tensor(ref)
    if p.data.shape != r.data.shape:
        raise ValueError(f"shape mismatch: {p.data.shape} vs {r.data.shape}")
    return T.tmean(T.absolute(T.sub(p, r)))


def _window_rows(n, size, sigma, dtype):
    """``(n - size + 1, n)`` band matrix whose row ``r`` holds the normalized
    1-D window (Gaussian for sigma > 0, else uniform) at columns ``r`` to
    ``r + size - 1``, so ``A_h · X · A_wᵀ`` is the 2-D window's mean."""
    d = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(d * d) / (2.0 * sigma * sigma)) if sigma > 0 else np.ones(size)
    r = np.arange(n - size + 1)[:, None]
    rows = np.zeros((n - size + 1, n))
    rows[r, r + np.arange(size)] = g / g.sum()
    return rows.astype(dtype)


def ssim(pred, ref, params: SsimParams = None):
    """Mean local structural similarity of a 2-d image or an ``(n, c, h, w)``
    batch, in [-1, 1], as one graph node with a closed-form backward. Window
    means, variances and covariance come from the normalized window applied
    as one band matrix per axis; variances take the biased form
    E[x^2] - E[x]^2 over the window weights."""
    if params is None:
        params = SsimParams()
    x, y = T._as_tensor(pred), T._as_tensor(ref)
    xd, yd = x.data, y.data
    if xd.ndim not in (2, 4):
        raise ValueError(f"expected a 2-d image or (n,c,h,w) batch, got shape {xd.shape}")
    if xd.shape != yd.shape:
        raise ValueError(f"shape mismatch: {xd.shape} vs {yd.shape}")
    h, w = xd.shape[-2:]
    k = params.window_size
    if k > min(h, w):
        raise ValueError(f"window {k} larger than image {h}x{w}")
    ah, aw = [_window_rows(n, k, params.window_sigma, xd.dtype) for n in (h, w)]
    mu_x, mu_y, e_xx, e_yy, e_xy = [np.matmul(np.matmul(ah, t), aw.T) for t in (
        xd, yd, xd * xd, yd * yd, xd * yd)]
    mu_xx, mu_yy, mu_xy = mu_x * mu_x, mu_y * mu_y, mu_x * mu_y
    c1, c2 = float(params.c1), float(params.c2)
    a1, a2 = mu_xy * 2.0 + c1, (e_xy - mu_xy) * 2.0 + c2
    b1, b2 = (mu_xx + mu_yy) + c1, ((e_xx - mu_xx) + (e_yy - mu_yy)) + c2
    smap = (a1 * a2) / (b1 * b2)

    def back(m):  # the window's adjoint, A_hᵀ · M · A_w
        return np.matmul(np.matmul(ah.T, m), aw)

    def bw(grad):
        g = grad / smap.size
        gd, gs = g / (b1 * b2), g * smap
        d_xy = back(2.0 * a1 * gd)  # through E[xy]
        d_sq = back(-gs / b2)  # through E[x^2], and E[y^2] alike
        rec = 1.0 / b1 - 1.0 / b2
        return [(t, back(2.0 * (mu_o * (a2 - a1) * gd - mu * gs * rec))  # through E[x]
                 + 2.0 * td * d_sq + od * d_xy)
                for t, td, od, mu, mu_o in ((x, xd, yd, mu_x, mu_y), (y, yd, xd, mu_y, mu_x))
                if t.requires_grad]

    return T._make(smap.mean(), (x, y), bw)


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
