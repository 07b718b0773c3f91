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
    reference's maximum as the peak; +inf for identical images."""
    p, r = _pair(pred, ref)
    peak = float(r.max())
    if peak <= 0:
        raise ValueError(f"peak must be > 0, got {peak}")
    mse = float(np.mean((p - r) ** 2))
    if mse == 0.0:
        return math.inf
    return float(10.0 * math.log10(peak * peak / mse))


def mutual_information(pred, ref):
    """Joint-histogram mutual information in nats, >= 0.

    Intensities are clipped to [0, 1] and binned into ``MI_BINS``
    equal-width bins per axis.
    """
    p, r = _pair(pred, ref)
    p = np.clip(p.ravel(), 0.0, 1.0)
    r = np.clip(r.ravel(), 0.0, 1.0)
    joint, _, _ = np.histogram2d(p, r, bins=MI_BINS,
                                 range=[[0.0, 1.0], [0.0, 1.0]])
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
