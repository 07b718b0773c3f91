"""Training, evaluation, and volume reconstruction drivers.

Training iterates seeded-shuffled triplet batches, logs one CSV row per
step, saves a checkpoint every epoch plus the best-by-validation-loss
one, and aborts on a non-finite loss with a diagnostic dump. With
strict determinism enabled the loss log is a pure function of (config,
seed): the wall-time column is written as 0.000 so two runs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .checkpoint import (check_model_config, load_checkpoint, restore_model_state,
                         restore_optimizer_state, save_checkpoint)
from .dataset import build_triplets, load_triplets, load_volume_pairs, random_crop, stack_batch
from .errors import ConfigError, DataError, NumericError
from .losses import loss_terms
from .metrics import format_table, metrics_report
from .network import OUTPUT_STRIDE, build_model
from .optim import Adam
from .runconfig import RunConfig
from .tensor import Tensor
from .volume_io import atomic_write, read_manifest, read_volume, write_volume

__all__ = ["TrainResult", "train", "evaluate", "reconstruct"]

LOG_HEADER = "step,epoch,loss,l1_part,ssim_part,wall_time"
VAL_LOG_HEADER = "epoch,val_loss"
_M_TRIM_THRESHOLD = -1  # glibc mallopt parameters, from <malloc.h>
_M_MMAP_THRESHOLD = -3


@dataclass
class TrainResult:
    log_path: str
    best_path: str | None
    last_path: str
    epochs_run: int
    steps: int
    best_val: float


def _grad_norm(model):
    total = 0.0
    for p in model.parameters():
        if p.grad is not None:
            total += float(np.sum(np.asarray(p.grad, dtype=np.float64) ** 2))
    return math.sqrt(total)


def _hold_heap():
    """Keep freed memory in this process's heap between forwards.

    glibc raises its mmap threshold to the largest block freed so far, so
    after each forward it trims the heap above twice that and the next
    forward faults it in again. Fixed thresholds (32 MiB mmap, 64 MiB
    trim) stop that and change no output. Does nothing where the C
    library has no ``mallopt``; calling it again is harmless.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _predict(model, triplets, batch_size):
    """The model's (b, 1, h, w) outputs in eval mode for the inputs of
    ``triplets``, one array per chunk; targets are not read. A chunk holds
    up to ``batch_size`` consecutive triplets of one size, so a size change
    starts a new chunk. Every size is checked before the first forward. A
    non-finite output raises NumericError naming its triplet."""
    inputs = [t.input for t in triplets]
    for h, w in sorted({x.shape[1:] for x in inputs}):
        _check_slice_size(h, w)
    # Runs of consecutive inputs of one size, each cut into batch_size chunks.
    cuts = [i for i in range(1, len(inputs)) if inputs[i].shape != inputs[i - 1].shape]
    model.eval()
    preds = []
    with T.no_grad():
        for lo, hi in zip([0] + cuts, cuts + [len(inputs)]):
            for start in range(lo, hi, batch_size):
                pred = model(Tensor(np.stack(inputs[start:min(start + batch_size, hi)]))).data
                bad = np.flatnonzero(~np.isfinite(pred).all(axis=(1, 2, 3)))
                if bad.size:
                    t = triplets[start + bad[0]]
                    raise NumericError(
                        f"non-finite model output for {t.patient_id} slice {t.slice_index}")
                preds.append(pred)
    return preds


def _validation_loss(model, triplets, config: RunConfig):
    total = 0.0
    start = 0
    for pred in _predict(model, triplets, config.batch_size):
        y = np.stack([t.target for t in triplets[start:start + len(pred)]])
        loss = loss_terms(Tensor(pred), Tensor(y), config.loss_weights, config.ssim)[0]
        total += float(loss.data) * len(pred)
        start += len(pred)
    return total / len(triplets)


def _kept_rows(path, keep_below):
    """The complete rows of an existing CSV log whose leading step or epoch
    is below ``keep_below``, as one string; "" when there is no log."""
    if not os.path.exists(path):
        return ""
    try:
        with open(path) as f:
            rows = f.read().split("\n")[1:-1]
        return "".join(r + "\n" for r in rows if int(r.split(",", 1)[0]) < keep_below)
    except ValueError as exc:
        raise DataError(f"cannot resume from log {path}: {exc}") from exc


def _check_slice_size(h, w):
    if min(h, w) < OUTPUT_STRIDE or h % OUTPUT_STRIDE or w % OUTPUT_STRIDE:
        raise DataError(f"slices are {h}x{w}; the model needs sizes divisible by "
                        f"{OUTPUT_STRIDE} and >= {OUTPUT_STRIDE}")


def train(config: RunConfig, resume=None) -> TrainResult:
    """Run the full training loop on the train and test splits under
    config.data.root; returns paths to log and checkpoints. A patient in
    both splits is a data error."""
    _hold_heap()
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    triplets = load_triplets(config.data.root, "train")
    val_triplets = load_triplets(config.data.root, "test")
    shared = sorted({t.patient_id for t in triplets} & {t.patient_id for t in val_triplets})
    if shared:
        raise DataError(f"patients {shared} are in both splits of {config.data.root}")
    crop = config.data.crop
    if crop:
        h = min(t.input.shape[1] for t in triplets)
        w = min(t.input.shape[2] for t in triplets)
        if crop > h or crop > w:
            raise ConfigError(f"crop {crop} exceeds slice size {h}x{w}")
    uncropped = {t.input.shape[1:] for t in val_triplets + ([] if crop else triplets)}
    for h, w in uncropped:
        _check_slice_size(h, w)
    smallest = min([min(s) for s in uncropped] + ([crop] if crop else []))
    if config.ssim.window_size > smallest:
        raise ConfigError(f"ssim window_size {config.ssim.window_size} exceeds {smallest}px maps")
    # Validation and uncropped training batches stack slices across patients.
    if len(uncropped) > 1:
        raise DataError(f"slices of sizes {sorted(uncropped)} cannot share a batch")

    model = build_model(config.model, seed=config.seed)
    optimizer = Adam(list(model.named_parameters()), lr=config.optimizer.lr,
                     beta1=config.optimizer.beta1, beta2=config.optimizer.beta2,
                     epsilon=config.optimizer.epsilon)
    rng = np.random.default_rng([config.seed, 1])
    start_epoch = 0
    step = 0
    best_val = math.inf

    log_path = os.path.join(out_dir, "loss_log.csv")
    val_log_path = os.path.join(out_dir, "val_log.csv")
    loss_rows = val_rows = ""
    if resume is not None:
        state = load_checkpoint(resume)
        check_model_config(config, state)
        if state.epoch > config.epochs:
            raise ConfigError(f"{resume} is from epoch {state.epoch}, past the "
                              f"configured {config.epochs} epochs")
        restore_model_state(model, state)
        restore_optimizer_state(optimizer, state)
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = state.rng_state
        start_epoch = state.epoch
        step = state.step
        if state.best_val is not None:
            best_val = state.best_val
        # Drop the rows written after the checkpoint, so the logs end as an
        # uninterrupted run's would. Both are read before either is rewritten.
        loss_rows = _kept_rows(log_path, step + 1)
        val_rows = _kept_rows(val_log_path, start_epoch)
    # Append mode leaves both logs as they were until both are open.
    with open(log_path, "a") as log_file, open(val_log_path, "a") as val_log:
        for f, text in ((log_file, LOG_HEADER + "\n" + loss_rows),
                        (val_log, VAL_LOG_HEADER + "\n" + val_rows)):
            f.truncate(0)
            f.write(text)
        for epoch in range(start_epoch, config.epochs):
            model.train()
            order = rng.permutation(len(triplets))
            for start in range(0, len(order), config.batch_size):
                chunk = [triplets[i] for i in order[start:start + config.batch_size]]
                if crop:
                    chunk = [random_crop(t, crop, rng) for t in chunk]
                x, y = stack_batch(chunk)
                t0 = time.perf_counter()
                pred = model(Tensor(x))
                total, l1_part, ssim_part = loss_terms(
                    pred, Tensor(y), config.loss_weights, config.ssim)
                optimizer.zero_grad()
                total.backward()
                loss_val = float(total.data)
                if not math.isfinite(loss_val):
                    raise NumericError(
                        f"non-finite loss {loss_val} at step {step + 1} "
                        f"(epoch {epoch}): lr={optimizer.lr}, "
                        f"grad_norm={_grad_norm(model)}")
                optimizer.step()
                step += 1
                wall = 0.0 if config.strict_determinism else time.perf_counter() - t0
                log_file.write(
                    f"{step},{epoch},{loss_val!r},{float(l1_part.data)!r},"
                    f"{float(ssim_part.data)!r},{wall:.3f}\n")
            log_file.flush()
            val_loss = _validation_loss(model, val_triplets, config)
            val_log.write(f"{epoch},{val_loss!r}\n")
            val_log.flush()
            is_best = val_loss < best_val
            if is_best:
                best_val = val_loss
            # last.hqic goes last: a run killed between these writes resumes
            # from it to the files an uninterrupted run leaves.
            names = [f"epoch_{epoch + 1:03d}.hqic"] + (["best.hqic"] if is_best else [])
            for name in names + ["last.hqic"]:
                save_checkpoint(os.path.join(out_dir, name), model=model, optimizer=optimizer,
                                config_dict=config.to_dict(), epoch=epoch + 1, step=step,
                                rng_state=rng.bit_generator.state,
                                best_val=None if math.isinf(best_val) else best_val)
    best_path = os.path.join(out_dir, "best.hqic")
    if math.isinf(best_val) or not os.path.exists(best_path):
        best_path = None
    return TrainResult(log_path=log_path, best_path=best_path,
                       last_path=os.path.join(out_dir, "last.hqic"),
                       epochs_run=config.epochs - start_epoch, steps=step,
                       best_val=best_val)


def _load_model_from_checkpoint(ckpt_path):
    state = load_checkpoint(ckpt_path)
    model = build_model(state.config.model)
    restore_model_state(model, state)
    return model, state.config


def evaluate(ckpt_path, data_dir, out_dir):
    """Metric table for the test split's low-dose inputs and model outputs
    vs full dose.

    Writes report.txt (two rows mirroring the low-dose / model
    comparison) and report.json, and returns the report.json object:
    ``{"low_dose", "model", "delta"}``, two metric reports and the model's
    mean PSNR and MI gains over the low-dose inputs.
    """
    _hold_heap()
    model, config = _load_model_from_checkpoint(ckpt_path)
    os.makedirs(out_dir, exist_ok=True)
    triplets = [t for pid, low, full, _manifest in load_volume_pairs(data_dir, "test")
                for t in build_triplets(low, full, pid)]
    for t in triplets:
        if not (t.target > 0).any():  # no peak for PSNR, no norm for NMSE
            raise DataError(f"{t.patient_id}: full-dose slice {t.slice_index} "
                            f"has no positive value")
    low_mids = [t.input[1] for t in triplets]
    full_mids = [t.target[0] for t in triplets]
    # Batches span volumes: a sample's output in eval mode does not depend
    # on the others in its batch.
    pred_mids = [p[0] for pred in _predict(model, triplets, config.batch_size) for p in pred]
    low_rep = metrics_report(low_mids, full_mids)
    model_rep = metrics_report(pred_mids, full_mids)
    table = format_table([("Low-dose", low_rep), ("HQINet", model_rep)])
    report = {"low_dose": low_rep, "model": model_rep,
              "delta": {k: model_rep[k]["mean"] - low_rep[k]["mean"] for k in ("psnr_db", "mi")}}
    try:
        report_json = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"report has a non-finite metric: {exc}") from exc
    for name, text in (("report.txt", table), ("report.json", report_json)):
        with atomic_write(os.path.join(out_dir, name), "w") as f:
            f.write(text)
    return report


def _write_pgm(path, image):
    """8-bit binary PGM scaled by the fixed [0, 1] display window."""
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    data = np.round(img * 255.0).astype(np.uint8)
    h, w = data.shape
    with atomic_write(path) as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def reconstruct(ckpt_path, input_path, out_dir):
    """Reconstruct a low-dose volume slice by slice.

    Interior slices come from the model; the first and last slices are
    copied from the input unchanged (a triplet needs both neighbors).
    Writes recon.hqiv, its manifest, and one PGM per slice.
    """
    _hold_heap()
    model, config = _load_model_from_checkpoint(ckpt_path)
    volume = read_volume(input_path)
    if volume.shape[0] < 3:
        raise DataError(
            f"{input_path} has {volume.shape[0]} slices; reconstruction needs >= 3")
    preds = _predict(model, build_triplets(volume, volume, input_path), config.batch_size)
    os.makedirs(out_dir, exist_ok=True)
    out = volume.copy()
    out[1:-1] = np.concatenate(preds)[:, 0]
    try:
        src_manifest = read_manifest(input_path)
    except FileNotFoundError:
        src_manifest = {}
    manifest = {
        "patient_id": src_manifest.get("patient_id",
                                       os.path.splitext(os.path.basename(input_path))[0]),
        "dose": "model",
        "i0": src_manifest.get("i0"),
        "n_views": src_manifest.get("n_views"),
        "seed": src_manifest.get("seed"),
        "source": os.path.basename(input_path),
        "boundary_slices": "copied-from-input",
    }
    out_path = os.path.join(out_dir, "recon.hqiv")
    write_volume(out_path, out, manifest=manifest)
    for i in range(out.shape[0]):
        _write_pgm(os.path.join(out_dir, f"slice_{i:03d}.pgm"), out[i])
    return out_path
