"""Evaluation metrics: L1, NMSE, PSNR and mutual information, plus the
aggregate report. These operate on plain arrays and are not differentiated.

A report has one format, the one ``report.json`` holds:
``{"n", "<metric>": {"mean", "std"}, "per_image": {"<metric>": [...]}}``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "l1_error",
    "nmse",
    "psnr",
    "mutual_information",
    "metrics_report",
    "format_table",
]

METRIC_KEYS = ("l1", "nmse", "psnr_db", "mi")
MI_BINS = 64  # mutual_information's bins per axis over [0, 1]
_MI_EDGES = np.linspace(0.0, 1.0, MI_BINS + 1)  # the edges np.histogram2d uses
PSNR_CAP_DB = 100.0  # psnr of identical images, and its upper bound


def _pair(pred, ref):
    p = np.asarray(pred, dtype=np.float64)
    r = np.asarray(ref, dtype=np.float64)
    if p.shape != r.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {r.shape}")
    return p, r


def l1_error(pred, ref):
    p, r = _pair(pred, ref)
    return float(np.mean(np.abs(p - r)))


def nmse(pred, ref):
    """||pred - ref||^2 / ||ref||^2."""
    p, r = _pair(pred, ref)
    denom = float(np.sum(r * r))
    if denom == 0.0:
        raise ValueError("reference has zero norm; NMSE undefined")
    return float(np.sum((p - r) ** 2) / denom)


def psnr(pred, ref):
    """Peak signal-to-noise ratio in dB, 10*log10(peak^2 / MSE) with the
    reference's maximum as the peak, capped at ``PSNR_CAP_DB``; identical
    images score the cap, so a report stays finite. A NaN in either image
    gives NaN."""
    p, r = _pair(pred, ref)
    peak = float(r.max())
    if peak <= 0:
        raise ValueError(f"peak must be > 0, got {peak}")
    mse = float(np.mean((p - r) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    # np.minimum, unlike min, keeps a NaN.
    return float(np.minimum(PSNR_CAP_DB, 10.0 * math.log10(peak * peak / mse)))


def _bin_index(x):
    """Each value's bin among ``MI_BINS`` equal-width bins over [0, 1], as
    np.histogram2d assigns it: ``_MI_EDGES[k] <= x < _MI_EDGES[k + 1]``,
    and 1.0 in the last bin. ``x`` lies in [0, 1]. ``floor(x * MI_BINS)``
    is at most one bin off the edges, so one comparison on each side
    corrects it."""
    i = np.minimum((x * MI_BINS).astype(np.intp), MI_BINS - 1)
    i -= x < _MI_EDGES[i]
    i += x >= _MI_EDGES[i + 1]
    return np.minimum(i, MI_BINS - 1, out=i)


def _joint_histogram(p, r):
    """The (MI_BINS, MI_BINS) pixel counts of ``p`` against ``r`` over
    [0, 1]², with values clipped to that square. A pixel that is NaN in
    either image is dropped, as np.histogram2d drops it."""
    p = np.clip(p.ravel(), 0.0, 1.0)
    r = np.clip(r.ravel(), 0.0, 1.0)
    nan = np.isnan(p) | np.isnan(r)
    if nan.any():
        p, r = p[~nan], r[~nan]
    flat = _bin_index(p) * MI_BINS + _bin_index(r)
    return np.bincount(flat, minlength=MI_BINS * MI_BINS).reshape(MI_BINS, MI_BINS)


def mutual_information(pred, ref):
    """Joint-histogram mutual information in nats, >= 0.

    Intensities are clipped to [0, 1] and binned into ``MI_BINS``
    equal-width bins per axis, count for count as np.histogram2d bins
    them; a pixel that is NaN in either image is left out.
    """
    joint = _joint_histogram(*_pair(pred, ref))
    joint = joint / joint.sum()
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    outer = px[:, None] * py[None, :]
    return float(np.sum(joint[nz] * np.log(joint[nz] / outer[nz])))


def metrics_report(pred_set, ref_set):
    """The report of ``pred_set`` against ``ref_set``: per-image values of
    every metric, with their mean and sample standard deviation (0 for a
    single image)."""
    preds = list(pred_set)
    refs = list(ref_set)
    if len(preds) != len(refs):
        raise ValueError(f"set sizes differ: {len(preds)} vs {len(refs)}")
    if not preds:
        raise ValueError("empty image set")
    per = {k: [] for k in METRIC_KEYS}
    for p, r in zip(preds, refs):
        per["l1"].append(l1_error(p, r))
        per["nmse"].append(nmse(p, r))
        per["psnr_db"].append(psnr(p, r))
        per["mi"].append(mutual_information(p, r))
    n = len(preds)
    report = {"n": n}
    for k, v in per.items():
        report[k] = {"mean": float(np.mean(v)),
                     "std": float(np.std(v, ddof=1)) if n > 1 else 0.0}
    report["per_image"] = per
    return report


def format_table(rows):
    """Plain-text table; ``rows`` is a list of (label, report).

    Columns: L1 error, NMSE, PSNR [dB], MI.
    """
    header = ["", "L1 error", "NMSE", "PSNR [dB]", "MI"]
    lines = [header]
    for label, rep in rows:
        lines.append([label] + [f"{rep[k]['mean']:.4f} +/- {rep[k]['std']:.4f}"
                                for k in METRIC_KEYS])
    widths = [max(len(row[i]) for row in lines) for i in range(len(header))]
    out = []
    for row in lines:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"
