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
from .dataset import load_triplets, load_volume_pairs, random_crop, stack_batch
from .errors import ConfigError, DataError, NumericError
from .losses import loss_terms
from .metrics import format_table, metrics_report
from .network import OUTPUT_STRIDE, build_model
from .optim import Adam
from .runconfig import RunConfig
from .tensor import Tensor
from .volume_io import read_manifest, read_volume, write_volume

__all__ = ["TrainResult", "train", "evaluate", "reconstruct"]

LOG_HEADER = "step,epoch,loss,l1_part,ssim_part,wall_time"
VAL_LOG_HEADER = "epoch,val_loss"


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


def _validation_loss(model, triplets, config: RunConfig):
    model.eval()
    total = 0.0
    count = 0
    bs = config.batch_size
    with T.no_grad():
        for start in range(0, len(triplets), bs):
            chunk = triplets[start:start + bs]
            x, y = stack_batch(chunk)
            loss = loss_terms(model(Tensor(x)), Tensor(y),
                              config.loss_weights, config.ssim)[0]
            total += float(loss.data) * len(chunk)
            count += len(chunk)
    model.train()
    return total / count


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


def _open_log(path, header, rows):
    f = open(path, "w")
    f.write(header + "\n" + rows)
    return f


def _check_slice_size(h, w):
    if h % OUTPUT_STRIDE or w % OUTPUT_STRIDE:
        raise DataError(f"slices are {h}x{w}; the model needs sizes divisible by {OUTPUT_STRIDE}")


def train(config: RunConfig, resume=None, triplets=None, val_triplets=None) -> TrainResult:
    """Run the full training loop; returns paths to log and checkpoints.

    ``triplets``/``val_triplets`` may be passed directly (tests);
    otherwise they are loaded from config.data.root. When both splits are
    loaded, a patient in both is a data error.
    """
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    from_root = triplets is None and val_triplets is None
    if triplets is None:
        triplets = load_triplets(config.data.root, "train")
    if val_triplets is None:
        val_triplets = load_triplets(config.data.root, "test")
    if from_root:
        shared = sorted({t.patient_id for t in triplets} & {t.patient_id for t in val_triplets})
        if shared:
            raise DataError(f"patients {shared} are in both splits of {config.data.root}")
    if not triplets:
        raise DataError("no training triplets")
    crop = config.data.crop
    if crop:
        h = min(t.input.shape[1] for t in triplets)
        w = min(t.input.shape[2] for t in triplets)
        if crop > h or crop > w:
            raise ConfigError(f"crop {crop} exceeds slice size {h}x{w}")
    uncropped = {t.input.shape[1:] for t in list(val_triplets) + ([] if crop else list(triplets))}
    for h, w in uncropped:
        _check_slice_size(h, w)
    smallest = min([min(s) for s in uncropped] + ([crop] if crop else []))
    if config.ssim.window_size > smallest:
        raise ConfigError(f"ssim window_size {config.ssim.window_size} exceeds {smallest}px maps")

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
        check_model_config(config.to_dict(), state)
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
    log_file = _open_log(log_path, LOG_HEADER, loss_rows)
    val_log = _open_log(val_log_path, VAL_LOG_HEADER, val_rows)

    best_path = os.path.join(out_dir, "best.hqic")
    last_path = os.path.join(out_dir, "last.hqic")
    strict = config.strict_determinism
    model.train()
    try:
        for epoch in range(start_epoch, config.epochs):
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
                wall = 0.0 if strict else time.perf_counter() - t0
                log_file.write(
                    f"{step},{epoch},{loss_val!r},{float(l1_part.data)!r},"
                    f"{float(ssim_part.data)!r},{wall:.3f}\n")
            log_file.flush()
            val_loss = _validation_loss(model, val_triplets, config) if val_triplets else math.nan
            val_log.write(f"{epoch},{val_loss!r}\n")
            val_log.flush()
            is_best = val_triplets and val_loss < best_val
            if is_best:
                best_val = val_loss
            ckpt_args = dict(
                model=model, optimizer=optimizer, config_dict=config.to_dict(),
                epoch=epoch + 1, step=step, rng_state=rng.bit_generator.state,
                best_val=None if math.isinf(best_val) else best_val)
            epoch_path = os.path.join(out_dir, f"epoch_{epoch + 1:03d}.hqic")
            save_checkpoint(epoch_path, **ckpt_args)
            save_checkpoint(last_path, **ckpt_args)
            if is_best:
                save_checkpoint(best_path, **ckpt_args)
    finally:
        log_file.close()
        val_log.close()
    if math.isinf(best_val) or not os.path.exists(best_path):
        best_path = None
    return TrainResult(log_path=log_path, best_path=best_path, last_path=last_path,
                       epochs_run=config.epochs - start_epoch, steps=step,
                       best_val=best_val)


def _load_model_from_checkpoint(ckpt_path):
    state = load_checkpoint(ckpt_path)
    config = RunConfig.from_dict(state.config)
    model = build_model(config.model)
    restore_model_state(model, state)
    model.eval()
    return model, config, state


def _predict_volume(model, low_volume, batch_size):
    """Model outputs for every interior slice of a low-dose volume."""
    n, h, w = low_volume.shape
    _check_slice_size(h, w)
    inputs = [low_volume[i - 1:i + 2] for i in range(1, n - 1)]
    preds = []
    with T.no_grad():
        for start in range(0, len(inputs), batch_size):
            x = np.stack(inputs[start:start + batch_size]).astype(np.float32)
            out = model(Tensor(x))
            preds.extend(np.asarray(out.data)[:, 0])
    return np.stack(preds)


def evaluate(ckpt_path, data_dir, out_dir):
    """Metric table for the test split's low-dose inputs and model outputs
    vs full dose.

    Writes report.txt (two rows mirroring the low-dose / model
    comparison) and report.json; returns (low_report, model_report).
    """
    model, config, _ = _load_model_from_checkpoint(ckpt_path)
    os.makedirs(out_dir, exist_ok=True)
    low_mids, full_mids, pred_mids = [], [], []
    for pid, low, full, _manifest in load_volume_pairs(data_dir, "test"):
        for i in range(1, low.shape[0] - 1):
            if not (full[i] > 0).any():  # no peak for PSNR, no norm for NMSE
                raise DataError(f"{pid}: full-dose slice {i} has no positive value")
        preds = _predict_volume(model, low, batch_size=config.batch_size)
        low_mids.extend(low[1:-1])
        full_mids.extend(full[1:-1])
        pred_mids.extend(preds)
    low_report = metrics_report(low_mids, full_mids)
    model_report = metrics_report(pred_mids, full_mids)
    table = format_table([("Low-dose", low_report), ("HQINet", model_report)])
    with open(os.path.join(out_dir, "report.txt"), "w") as f:
        f.write(table)
    report = {
        "low_dose": low_report.to_json_dict(),
        "model": model_report.to_json_dict(),
        "delta": {
            "psnr_db": model_report.mean["psnr_db"] - low_report.mean["psnr_db"],
            "mi": model_report.mean["mi"] - low_report.mean["mi"],
        },
    }
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return low_report, model_report


def _write_pgm(path, image):
    """8-bit binary PGM scaled by the fixed [0, 1] display window."""
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    data = np.round(img * 255.0).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def reconstruct(ckpt_path, input_path, out_dir):
    """Reconstruct a low-dose volume slice by slice.

    Interior slices come from the model; the first and last slices are
    copied from the input unchanged (a triplet needs both neighbors).
    Writes recon.hqiv, its manifest, and one PGM per slice.
    """
    model, config, _ = _load_model_from_checkpoint(ckpt_path)
    volume = read_volume(input_path)
    if volume.shape[0] < 3:
        raise DataError(
            f"{input_path} has {volume.shape[0]} slices; reconstruction needs >= 3")
    os.makedirs(out_dir, exist_ok=True)
    preds = _predict_volume(model, volume, batch_size=config.batch_size)
    out = volume.copy()
    out[1:-1] = preds
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
