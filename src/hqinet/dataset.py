"""Dataset assembly: paired low/full-dose volumes on disk, slice
triplets, crops and batches.

Each synthetic patient is a phantom volume projected as one stack; each
slice's noise-free sinogram is degraded at the low and full dose levels,
each dose's sinograms are reconstructed as one stack by filtered
backprojection, and both volumes are normalized by the full-dose
volume's max so the pair shares one scale.
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass

import numpy as np

from .ctsim import apply_low_dose, fbp, generate_phantom_volume, radon
from .errors import DataError
from .volume_io import read_manifest, read_volume, write_volume

__all__ = [
    "SliceTriplet",
    "SyntheticSpec",
    "build_triplets",
    "generate_patient_pair",
    "generate_dataset",
    "load_volume_pairs",
    "load_triplets",
    "random_crop",
    "stack_batch",
]


@dataclass
class SliceTriplet:
    """Three contiguous low-dose slices and the full-dose middle slice."""

    input: np.ndarray   # (3, h, w) float32
    target: np.ndarray  # (1, h, w) float32
    patient_id: str
    slice_index: int


@dataclass
class SyntheticSpec:
    """Generation parameters for the synthetic dataset."""

    n_train: int = 8
    n_test: int = 2
    n_slices: int = 8
    size: int = 128
    n_views: int = 180
    n_detectors: int = 185
    low_i0: float = 1e4
    full_i0: float = 1e6
    n_ellipses_range: tuple = (4, 8)

    def __post_init__(self):
        self.n_ellipses_range = tuple(self.n_ellipses_range)
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be >= 1")
        if self.n_slices < 3:
            raise ValueError(f"n_slices must be >= 3 for triplets, got {self.n_slices}")
        if self.low_i0 <= 0 or self.full_i0 <= 0:
            raise ValueError("dose levels must be > 0")
        if self.size < 32 or self.n_views < 1 or self.n_detectors < 1:
            raise ValueError(f"need size >= 32, n_views >= 1 and n_detectors >= 1, got "
                             f"{self.size}, {self.n_views}, {self.n_detectors}")
        lo_hi = self.n_ellipses_range
        if len(lo_hi) != 2 or not 1 <= lo_hi[0] <= lo_hi[1]:
            raise ValueError(f"n_ellipses_range needs 1 <= low <= high, got {lo_hi}")


def build_triplets(low_volume, full_volume, patient_id=""):
    """One triplet per interior slice; channels ordered (i-1, i, i+1)."""
    low = np.asarray(low_volume)
    full = np.asarray(full_volume)
    if low.shape != full.shape:
        raise ValueError(
            f"volume geometry mismatch: low {low.shape} vs full {full.shape}")
    if low.ndim != 3 or low.shape[0] < 3:
        raise ValueError(f"need >= 3 slices of equal size, got shape {low.shape}")
    out = []
    for i in range(1, low.shape[0] - 1):
        out.append(SliceTriplet(
            input=np.ascontiguousarray(low[i - 1:i + 2], dtype=np.float32),
            target=np.ascontiguousarray(full[i:i + 1], dtype=np.float32),
            patient_id=patient_id,
            slice_index=i,
        ))
    return out


def generate_patient_pair(spec: SyntheticSpec, seed, patient_index):
    """(low_volume, full_volume) float32 stacks for one synthetic patient.

    Every random draw is keyed by (seed, patient_index, slice, dose), so
    patients and slices are independent and reproducible in isolation.
    """
    # One expression, so neither the phantoms nor their stack are held
    # through the reconstructions.
    sinos = radon(
        np.stack([ph.image for ph in generate_phantom_volume(
            [seed, patient_index], spec.n_slices, spec.size, spec.n_ellipses_range)]),
        spec.n_views, spec.n_detectors)
    # Both doses reconstruct as one stack: the low-dose slices, then the
    # full-dose ones.
    low, full = np.split(fbp(np.stack([
        apply_low_dose(sino, i0, [seed, patient_index, si, dose])
        for dose, i0 in enumerate((spec.low_i0, spec.full_i0))
        for si, sino in enumerate(sinos)]), spec.size), 2)
    norm = float(full.max())
    if norm > 0:
        low /= norm
        full /= norm
    return low.astype(np.float32), full.astype(np.float32), norm


# Files generate_dataset writes, and the temp files an interrupted write
# leaves beside them: p<id>_{low,full}.{hqiv,json}[.tmp].
_VOLUME_FILE = re.compile(r"p\d+_(low|full)\.(hqiv|json)(\.tmp)?")


def _patient_files(out_dir, split, pid):
    base = os.path.join(out_dir, split, pid)
    return base + "_low.hqiv", base + "_full.hqiv"


def _generate_patient(spec, seed, patient_index):
    # The pool pickles this function by name; generate_patient_pair is
    # looked up when it runs, so a replacement (a test double, a profiling
    # wrapper) inherited by a forked worker is the one called.
    return generate_patient_pair(spec, seed, patient_index)


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def generate_dataset(out_dir, spec: SyntheticSpec, seed, force=False):
    """Write train/ and test/ splits of paired volumes with manifests.

    Patient ids are globally numbered, so the splits never share one.
    Refuses to touch an existing non-empty directory unless forced.
    Patients are computed in a pool of worker processes, one per
    available CPU and at most one per patient; this process writes each
    patient's files as its result arrives, in patient order, so files,
    return value and any partial state a failure leaves are those of
    generating one patient after another.
    """
    # Imported here, so that importing the package (every CLI verb) does not
    # pay for the pool machinery.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if os.path.isdir(out_dir) and os.listdir(out_dir) and not force:
        raise DataError(
            f"output directory {out_dir} is not empty; pass force to overwrite")
    # A forced run over a larger earlier dataset would otherwise keep its
    # extra patients, some under the other split's new ids.
    for split in ("train", "test"):
        split_dir = os.path.join(out_dir, split)
        if os.path.isdir(split_dir):
            for name in os.listdir(split_dir):
                if _VOLUME_FILE.fullmatch(name):
                    os.remove(os.path.join(split_dir, name))
    jobs = [(split, offset + k) for split, count, offset in
            (("train", spec.n_train, 0), ("test", spec.n_test, spec.n_train))
            for k in range(count)]
    written = []
    pool = ProcessPoolExecutor(min(_cpu_count(), len(jobs)))
    try:
        results = pool.map(_generate_patient, itertools.repeat(spec),
                           itertools.repeat(seed), [pidx for _, pidx in jobs])
        for split, pidx in jobs:
            os.makedirs(os.path.join(out_dir, split), exist_ok=True)
            pid = f"p{pidx:03d}"
            try:
                low, full, norm = next(results)
            except BrokenProcessPool as exc:
                raise DataError(f"a worker process died before patient {pid} "
                                f"was generated: {exc}") from exc
            low_path, full_path = _patient_files(out_dir, split, pid)
            common = {
                "patient_id": pid,
                "n_views": spec.n_views,
                "seed": int(seed),
                "normalization": "full-volume-max",
                "norm_max": norm,
            }
            write_volume(low_path, low, manifest={**common, "dose": "low",
                                                  "i0": spec.low_i0})
            write_volume(full_path, full, manifest={**common, "dose": "full",
                                                    "i0": spec.full_i0})
            written.append((split, pid))
    finally:
        # Drop the patients no worker has started and join every worker,
        # whether all patients were written or one failed.
        pool.shutdown(cancel_futures=True)
    return written


def load_volume_pairs(data_dir, split):
    """[(patient_id, low_volume, full_volume, low_manifest), ...] sorted by id."""
    split_dir = os.path.join(data_dir, split)
    if not os.path.isdir(split_dir):
        raise DataError(f"missing dataset split directory {split_dir}")
    pids = sorted(
        name[:-len("_low.hqiv")] for name in os.listdir(split_dir)
        if name.endswith("_low.hqiv"))
    if not pids:
        raise DataError(f"no volumes found under {split_dir}")
    out = []
    for pid in pids:
        low_path, full_path = _patient_files(data_dir, split, pid)
        if not os.path.exists(full_path):
            raise DataError(f"{low_path} has no full-dose counterpart")
        low = read_volume(low_path)
        full = read_volume(full_path)
        if low.shape != full.shape:
            raise DataError(
                f"{pid}: low volume {low.shape} vs full volume {full.shape}")
        if low.shape[0] < 3:
            raise DataError(f"{pid}: {low.shape[0]} slices; slice triplets need >= 3")
        try:
            manifest = read_manifest(low_path)
        except FileNotFoundError:
            manifest = {}
        out.append((pid, low, full, manifest))
    return out


def load_triplets(data_dir, split):
    triplets = []
    for pid, low, full, _ in load_volume_pairs(data_dir, split):
        triplets.extend(build_triplets(low, full, patient_id=pid))
    return triplets


def random_crop(triplet: SliceTriplet, crop, rng):
    """Crop input and target to the same square window."""
    _, h, w = triplet.input.shape
    if crop > h or crop > w:
        raise ValueError(f"crop {crop} exceeds slice size {h}x{w}")
    top = int(rng.integers(0, h - crop + 1))
    left = int(rng.integers(0, w - crop + 1))
    return SliceTriplet(
        input=triplet.input[:, top:top + crop, left:left + crop],
        target=triplet.target[:, top:top + crop, left:left + crop],
        patient_id=triplet.patient_id,
        slice_index=triplet.slice_index,
    )


def stack_batch(triplets):
    """(inputs (b,3,h,w), targets (b,1,h,w)) float32 arrays."""
    inputs = np.stack([t.input for t in triplets]).astype(np.float32, copy=False)
    targets = np.stack([t.target for t in triplets]).astype(np.float32, copy=False)
    return inputs, targets
