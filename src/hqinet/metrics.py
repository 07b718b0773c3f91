"""Evaluation metrics: L1, NMSE, PSNR and mutual information, plus the
aggregate report. These operate on plain arrays and are not differentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "l1_error",
    "nmse",
    "psnr",
    "mutual_information",
    "MetricsReport",
    "metrics_report",
    "format_table",
]

METRIC_KEYS = ("l1", "nmse", "psnr_db", "mi")


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


def psnr(pred, ref, mode="standard", peak=None):
    """Peak signal-to-noise ratio in dB; +inf for identical images.

    standard: 10*log10(peak^2 / MSE). root_mse keeps a square root in
    the denominator, 10*log10(peak^2 / sqrt(MSE)).
    """
    if mode not in ("standard", "root_mse"):
        raise ValueError(f"unknown psnr mode {mode!r}")
    p, r = _pair(pred, ref)
    if peak is None:
        peak = float(r.max())
    if peak <= 0:
        raise ValueError(f"peak must be > 0, got {peak}")
    mse = float(np.mean((p - r) ** 2))
    if mse == 0.0:
        return math.inf
    denom = mse if mode == "standard" else math.sqrt(mse)
    return float(10.0 * math.log10(peak * peak / denom))


def mutual_information(pred, ref, bins=64, data_range=1.0):
    """Joint-histogram mutual information in nats, >= 0.

    Intensities are clipped to [0, data_range] and binned into
    ``bins`` equal-width bins per axis.
    """
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    if data_range <= 0:
        raise ValueError(f"data_range must be > 0, got {data_range}")
    p, r = _pair(pred, ref)
    p = np.clip(p.ravel(), 0.0, data_range)
    r = np.clip(r.ravel(), 0.0, data_range)
    joint, _, _ = np.histogram2d(p, r, bins=bins,
                                 range=[[0.0, data_range], [0.0, data_range]])
    joint = joint / joint.sum()
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    outer = px[:, None] * py[None, :]
    return float(np.sum(joint[nz] * np.log(joint[nz] / outer[nz])))


@dataclass
class MetricsReport:
    """Per-image metric values with mean and sample standard deviation.

    With a single image the standard deviation is reported as 0.
    """

    per_image: dict
    mean: dict
    std: dict
    n: int

    def to_json_dict(self):
        out = {"n": self.n}
        for key in METRIC_KEYS:
            out[key] = {"mean": self.mean[key], "std": self.std[key]}
        out["per_image"] = {k: list(self.per_image[k]) for k in METRIC_KEYS}
        return out


def metrics_report(pred_set, ref_set) -> MetricsReport:
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
    mean = {k: float(np.mean(v)) for k, v in per.items()}
    std = {k: (float(np.std(v, ddof=1)) if n > 1 else 0.0) for k, v in per.items()}
    return MetricsReport(per_image=per, mean=mean, std=std, n=n)


def _cell(mean, std):
    return f"{mean:.4f} +/- {std:.4f}"


def format_table(rows):
    """Plain-text table; ``rows`` is a list of (label, MetricsReport).

    Columns: L1 error, NMSE, PSNR [dB], MI.
    """
    header = ["", "L1 error", "NMSE", "PSNR [dB]", "MI"]
    lines = [header]
    for label, rep in rows:
        lines.append([
            label,
            _cell(rep.mean["l1"], rep.std["l1"]),
            _cell(rep.mean["nmse"], rep.std["nmse"]),
            _cell(rep.mean["psnr_db"], rep.std["psnr_db"]),
            _cell(rep.mean["mi"], rep.std["mi"]),
        ])
    widths = [max(len(row[i]) for row in lines) for i in range(len(header))]
    out = []
    for row in lines:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"
