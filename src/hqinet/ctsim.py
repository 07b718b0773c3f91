"""Synthetic CT substrate: ellipse phantoms, parallel-beam projection,
photon-statistics dose noise, and filtered backprojection.

Geometry conventions: images are square, pixel units, rotation center at
((s-1)/2, (s-1)/2). Detectors are one pixel apart, and rays are sampled
at two steps per pixel (_OVERSAMPLE). The n_views view angles are
k * pi / n_views for k = 0 .. n_views - 1. Sinograms are plain float64
arrays: ``radon`` maps an ``(n, s, s)`` image stack to an
``(n, n_views, n_detectors)`` stack, ``apply_low_dose`` degrades one
``(n_views, n_detectors)`` sinogram, and ``fbp`` maps an
``(m, n_views, n_detectors)`` stack to ``(m, out_size, out_size)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Phantom",
    "render_ellipses",
    "generate_phantom_volume",
    "radon",
    "apply_low_dose",
    "fbp",
    "OPTICAL_DEPTHS",
]

# apply_low_dose scales attenuation so the sinogram peak maps to this
# many optical depths (exp(-4) ~ 1.8% transmission at the thickest path).
OPTICAL_DEPTHS = 4.0

# radon builds ray geometry for blocks of detectors of about this many
# taps (256 KiB per float64 array), so a block's geometry and work
# buffers stay in cache while every slice of a stack is gathered.
_RAY_BLOCK_TAPS = 1 << 15

# Ray samples per pixel along each ray.
_OVERSAMPLE = 2


@dataclass
class Phantom:
    """A 2-D attenuation map in [0, 1]."""

    image: np.ndarray


def render_ellipses(size, ellipses):
    """Sum of ellipse indicators on a size x size grid, clipped to [0, 1].

    Each ellipse is (cx, cy, a, b, theta, intensity) in normalized
    coordinates: centers and axes relative to the half-width, so the
    image square spans [-1, 1] on both axes.
    """
    img = np.zeros((size, size), dtype=np.float64)
    if not ellipses:
        return img
    half = (size - 1) / 2.0
    ys, xs = np.mgrid[0:size, 0:size]
    x = (xs - half) / half
    y = (ys - half) / half
    for cx, cy, a, b, theta, intensity in ellipses:
        ct, st = math.cos(theta), math.sin(theta)
        xr = (x - cx) * ct + (y - cy) * st
        yr = -(x - cx) * st + (y - cy) * ct
        inside = (xr / a) ** 2 + (yr / b) ** 2 <= 1.0
        img[inside] += intensity
    return np.clip(img, 0.0, 1.0)


def generate_phantom_volume(seed, n_slices, size, n_ellipses_range=(4, 8)):
    """Deterministic stack of phantoms with slow inter-slice drift.

    One draw fixes base ellipse parameters and per-slice velocities; each
    slice adds a small seeded jitter. Neighboring slices therefore stay
    strongly correlated while distant slices diverge.
    """
    if size < 32:
        raise ValueError(f"size must be >= 32, got {size}")
    if n_slices < 1:
        raise ValueError(f"n_slices must be >= 1, got {n_slices}")
    lo, hi = n_ellipses_range
    rng = np.random.default_rng(seed)
    n_ell = int(rng.integers(lo, hi + 1))
    base = []
    vel = []
    for e in range(n_ell):
        if e == 0:
            # Body outline: large, nearly centered, slow.
            base.append((rng.uniform(-0.03, 0.03), rng.uniform(-0.03, 0.03),
                         rng.uniform(0.75, 0.85), rng.uniform(0.6, 0.7),
                         rng.uniform(-0.2, 0.2), rng.uniform(0.25, 0.35)))
            vel.append((rng.uniform(-0.002, 0.002), rng.uniform(-0.002, 0.002),
                        rng.uniform(-0.002, 0.002), rng.uniform(-0.002, 0.002),
                        rng.uniform(-0.005, 0.005), 0.0))
        else:
            base.append((rng.uniform(-0.45, 0.45), rng.uniform(-0.35, 0.35),
                         rng.uniform(0.06, 0.3), rng.uniform(0.06, 0.3),
                         rng.uniform(0.0, math.pi), rng.uniform(0.15, 0.45)))
            vel.append((rng.uniform(-0.012, 0.012), rng.uniform(-0.012, 0.012),
                        rng.uniform(-0.006, 0.006), rng.uniform(-0.006, 0.006),
                        rng.uniform(-0.03, 0.03), rng.uniform(-0.01, 0.01)))
    seed_list = list(np.atleast_1d(np.asarray(seed, dtype=np.int64)))
    out = []
    for i in range(n_slices):
        jrng = np.random.default_rng([int(v) for v in seed_list] + [i])
        ellipses = []
        for (bp, vp) in zip(base, vel):
            jit = jrng.uniform(-0.002, 0.002, size=6)
            cx = bp[0] + i * vp[0] + jit[0]
            cy = bp[1] + i * vp[1] + jit[1]
            a = max(0.02, bp[2] + i * vp[2] + jit[2])
            b = max(0.02, bp[3] + i * vp[3] + jit[3])
            theta = bp[4] + i * vp[4] + jit[4]
            intensity = float(np.clip(bp[5] + i * vp[5] + jit[5], 0.05, 0.6))
            ellipses.append((cx, cy, a, b, theta, intensity))
        out.append(Phantom(image=render_ellipses(size, ellipses)))
    return out


def _view_angles(n_views):
    """Angles of the n_views parallel-beam views, evenly covering [0, pi)."""
    return np.arange(n_views, dtype=np.float64) * math.pi / n_views


def radon(images, n_views, n_detectors):
    """Parallel-beam forward projection of an ``(n, s, s)`` image stack.

    Each view rotates the sampling grid and sums bilinearly interpolated
    values along rays at _OVERSAMPLE steps per pixel (Joseph's ray-driven
    method). A view's ray geometry (corner indices, weights, inside mask)
    depends only on the geometry, so it is built once and applied to
    every slice. Returns the ``(n, n_views, n_detectors)`` sinograms.
    """
    stack = np.asarray(images, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[0] < 1 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"images must be a non-empty (n, s, s) stack, got {stack.shape}")
    if n_views < 1 or n_detectors < 1:
        raise ValueError("n_views and n_detectors must be >= 1")
    n, s = stack.shape[0], stack.shape[1]
    w = s + 2
    pad = np.zeros((n, w, w), dtype=np.float64)
    pad[:, 1:-1, 1:-1] = stack
    # Flat views shifted by one column, one row, and both: taking the
    # top-left corner index from them gathers the other three corners.
    flat = pad.reshape(n, w * w)
    corners = [(flat[i], flat[i, 1:], flat[i, w:], flat[i, w + 1:]) for i in range(n)]
    center = (s - 1) / 2.0
    t = np.arange(n_detectors, dtype=np.float64) - (n_detectors - 1) / 2.0
    step = 1.0 / _OVERSAMPLE
    half_len = s * math.sqrt(2.0) / 2.0
    n_steps = int(math.ceil(2.0 * half_len / step)) + 1
    ray = -half_len + step * np.arange(n_steps, dtype=np.float64)
    data = np.empty((n, n_views, n_detectors), dtype=np.float64)
    rows = max(1, _RAY_BLOCK_TAPS // n_steps)
    vals_buf = np.empty((rows, n_steps), dtype=np.float64)
    term_buf = np.empty_like(vals_buf)
    for v, theta in enumerate(_view_angles(n_views)):
        ct, st = math.cos(theta), math.sin(theta)
        for r0 in range(0, n_detectors, rows):
            tb = t[r0:r0 + rows, None]
            vals = vals_buf[:tb.shape[0]]
            term = term_buf[:tb.shape[0]]
            # px/py carry the +1 shift into the zero-padded frame.
            px = center + 1.0 + tb * ct - ray[None, :] * st
            py = center + 1.0 + tb * st + ray[None, :] * ct
            x0 = np.floor(px).astype(np.int64)
            y0 = np.floor(py).astype(np.int64)
            inside = ((x0 >= 0) & (x0 <= s) & (y0 >= 0) & (y0 <= s)).astype(np.float64)
            corner = np.clip(y0, 0, s) * w + np.clip(x0, 0, s)
            fx = px - x0
            fy = py - y0
            gx = 1 - fx
            gy = 1 - fy
            # Per slice, the same products and sums in the same order as
            # p00*(1-fy)*(1-fx) + p01*(1-fy)*fx + p10*fy*(1-fx) + p11*fy*fx.
            # The corner indices are already in range; take's "wrap" mode
            # writes straight into the buffer, where "raise" would copy.
            for i, (p00, p01, p10, p11) in enumerate(corners):
                np.take(p00, corner, out=vals, mode="wrap")
                vals *= gy
                vals *= gx
                for p, wy, wx in ((p01, gy, fx), (p10, fy, gx), (p11, fy, fx)):
                    np.take(p, corner, out=term, mode="wrap")
                    term *= wy
                    term *= wx
                    vals += term
                vals *= inside
                data[i, v, r0:r0 + rows] = vals.sum(axis=1) * step
    return data


def apply_low_dose(sino, i0, seed):
    """Photon-count noise at dose i0 on one ``(n_views, n_detectors)``
    sinogram, via Beer-Lambert transmission.

    The line integrals are scaled so the sinogram peak corresponds to
    OPTICAL_DEPTHS; counts are Poisson-sampled and clamped to >= 1
    before the log transform back to line integrals.
    """
    sino = np.asarray(sino, dtype=np.float64)
    if sino.ndim != 2:
        raise ValueError(f"sinogram must be (n_views, n_detectors), got {sino.shape}")
    if not (i0 > 0):
        raise ValueError(f"i0 must be > 0, got {i0}")
    pmax = float(sino.max())
    mu = OPTICAL_DEPTHS / pmax if pmax > 0 else 1.0
    rng = np.random.default_rng(seed)
    expected = i0 * np.exp(-mu * sino)
    counts = np.maximum(rng.poisson(expected), 1)
    return -np.log(counts / i0) / mu


def _ramlak_kernel(n_detectors):
    """Discrete ramp filter taps for offsets -(n-1) .. (n-1)."""
    n = np.arange(-(n_detectors - 1), n_detectors, dtype=np.float64)
    kern = np.zeros_like(n)
    kern[n_detectors - 1] = 0.25
    odd = (np.abs(n) % 2) == 1
    kern[odd] = -1.0 / (math.pi * n[odd]) ** 2
    return kern


def fbp(sinos, out_size):
    """Filtered backprojection of an ``(m, n_views, n_detectors)`` sinogram
    stack onto ``(m, out_size, out_size)``.

    Each view's detector coordinates are computed once for the whole
    stack. Ramp filtering runs as an FFT-based linear convolution with the
    discrete ramp kernel; backprojection interpolates each filtered view
    linearly and weights the angle sum by pi / n_views. Output is
    clamped to [0, 1.5]; any volume-level renormalization is the
    caller's concern.
    """
    sinos = np.asarray(sinos, dtype=np.float64)
    if sinos.ndim != 3 or 0 in sinos.shape:
        raise ValueError(f"sinograms must be a non-empty (m, n_views, n_detectors) "
                         f"stack, got {sinos.shape}")
    if out_size < 1:
        raise ValueError(f"out_size must be >= 1, got {out_size}")
    n_sinos, nv, nd = sinos.shape
    kern = _ramlak_kernel(nd)
    m = 1
    while m < nd + kern.size - 1:
        m *= 2
    kf = np.fft.rfft(kern, m)
    # One FFT per sinogram: a batched transform over the stack would hold
    # every spectrum at once.
    filtered = np.empty((n_sinos, nv, nd), dtype=np.float64)
    for j, sino in enumerate(sinos):
        conv = np.fft.irfft(np.fft.rfft(sino, m, axis=1) * kf[None, :], m, axis=1)
        # Taps start at offset -(nd-1), so the aligned slice begins there.
        filtered[j] = conv[:, nd - 1:2 * nd - 1]
    center = (out_size - 1) / 2.0
    ys, xs = np.mgrid[0:out_size, 0:out_size]
    x = xs - center
    y = ys - center
    recon = np.zeros((n_sinos, out_size, out_size), dtype=np.float64)
    lo = np.empty((out_size, out_size), dtype=np.float64)
    hi = np.empty_like(lo)
    det_center = (nd - 1) / 2.0
    for v, theta in enumerate(_view_angles(nv)):
        tcoord = x * math.cos(theta) + y * math.sin(theta) + det_center
        idx = np.floor(tcoord).astype(np.int64)
        frac = tcoord - idx
        invalid = (idx < 0) | (idx > nd - 2)
        idxc = np.clip(idx, 0, nd - 2)
        idxc1 = idxc + 1
        gfrac = 1 - frac
        # Per sinogram, view[idxc]*(1-frac) + view[idxc+1]*frac, zero off
        # the detector. The indices are already in range; take's "wrap"
        # mode writes straight into the buffer, where "raise" would copy.
        for j in range(n_sinos):
            view = filtered[j, v]
            np.take(view, idxc, out=lo, mode="wrap")
            lo *= gfrac
            np.take(view, idxc1, out=hi, mode="wrap")
            hi *= frac
            lo += hi
            lo[invalid] = 0.0
            recon[j] += lo
    recon *= math.pi / nv
    np.clip(recon, 0.0, 1.5, out=recon)
    return recon
