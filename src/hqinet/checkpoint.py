"""Checkpoint format for exact training-state round trips.

Layout: magic "HQIC", u16 format version, u32 header length, canonical
JSON header (sorted keys, no whitespace), then raw little-endian array
blobs in header order: parameters, optimizer first moments, optimizer
second moments, batch-norm buffers. Canonical JSON plus raw blobs makes
save -> load -> save byte-identical.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import ConfigError
from .volume_io import atomic_write

__all__ = [
    "CheckpointError",
    "CheckpointMagicError",
    "CheckpointVersionError",
    "CheckpointTruncatedError",
    "CheckpointShapeError",
    "CheckpointState",
    "save_checkpoint",
    "load_checkpoint",
    "restore_model_state",
    "restore_optimizer_state",
    "check_model_config",
]

MAGIC = b"HQIC"
FORMAT_VERSION = 1
_PREFIX = struct.Struct("<4sHI")
_HEADER_KEYS = ("config", "epoch", "step", "best_val", "rng", "adam", "params",
                "buffers")


class CheckpointError(Exception):
    """Base for malformed or incompatible checkpoints."""


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


class CheckpointState:
    """Decoded checkpoint: header fields plus named arrays."""

    def __init__(self, config, epoch, step, best_val, rng_state, adam,
                 params, moments_m, moments_v, buffers):
        self.config = config
        self.epoch = epoch
        self.step = step
        self.best_val = best_val
        self.rng_state = rng_state
        self.adam = adam
        self.params = params
        self.moments_m = moments_m
        self.moments_v = moments_v
        self.buffers = buffers


def _le_dtype(arr):
    dt = arr.dtype.newbyteorder("<")
    return np.ascontiguousarray(arr, dtype=dt), dt.str


def save_checkpoint(path, model, optimizer, config_dict, epoch, step,
                    rng_state, best_val=None):
    params = [(name, p.data) for name, p in model.named_parameters()]
    buffers = list(model.named_buffers())
    blobs = []
    param_meta = []
    for name, arr in params:
        arr, dts = _le_dtype(arr)
        param_meta.append([name, list(arr.shape), dts])
        blobs.append(arr)
    for store in (optimizer.m, optimizer.v):
        for name, _ in params:
            arr, _ = _le_dtype(store[name])
            blobs.append(arr)
    buffer_meta = []
    for name, arr in buffers:
        arr, dts = _le_dtype(arr)
        buffer_meta.append([name, list(arr.shape), dts])
        blobs.append(arr)
    header = {
        "config": config_dict,
        "epoch": int(epoch),
        "step": int(step),
        "best_val": best_val,
        "rng": rng_state,
        "adam": {
            "lr": optimizer.lr,
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "epsilon": optimizer.epsilon,
            "step_count": optimizer.step_count,
        },
        "params": param_meta,
        "buffers": buffer_meta,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # A failed write leaves the previous checkpoint whole.
    with atomic_write(path) as f:
        f.write(_PREFIX.pack(MAGIC, FORMAT_VERSION, len(head)))
        f.write(head)
        for blob in blobs:
            f.write(blob.tobytes())


def _well_formed(meta):
    """True for a ``[name, shape, dtype]`` entry describing a float array."""
    try:
        name, shape, dts = meta
        return (isinstance(name, str) and isinstance(shape, list) and isinstance(dts, str)
                and all(type(d) is int and d >= 0 for d in shape)
                and np.dtype(dts).kind == "f")
    except (TypeError, ValueError, SyntaxError):
        return False


def _resumable(header):
    """True when counters, best value, config, Adam and RNG state can be restored."""
    adam, num = header["adam"], (int, float)
    try:
        np.random.PCG64(0).state = header["rng"]
    except (TypeError, ValueError, KeyError, OverflowError):
        return False
    return (isinstance(header["config"], dict) and isinstance(adam, dict)
            and all(type(v) is int and v >= 0
                    for v in (header["epoch"], header["step"], adam.get("step_count")))
            and (header["best_val"] is None or type(header["best_val"]) in num)
            and all(type(adam[k]) in num for k in ("lr", "beta1", "beta2", "epsilon") if k in adam))


def load_checkpoint(path):
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _PREFIX.size:
        raise CheckpointTruncatedError(
            f"{path}: {len(raw)} bytes is shorter than the {_PREFIX.size}-byte prefix")
    magic, version, head_len = _PREFIX.unpack_from(raw, 0)
    if magic != MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, this reader supports {FORMAT_VERSION}")
    if len(raw) < _PREFIX.size + head_len:
        raise CheckpointTruncatedError(f"{path}: header truncated")
    try:
        header = json.loads(raw[_PREFIX.size:_PREFIX.size + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointTruncatedError(f"{path}: unreadable header: {exc}") from exc
    if not (isinstance(header, dict) and all(key in header for key in _HEADER_KEYS)
            and all(isinstance(header[key], list) and all(map(_well_formed, header[key]))
                    for key in ("params", "buffers")) and _resumable(header)):
        raise CheckpointError(f"{path}: header lacks a field or holds a malformed value")
    offset = _PREFIX.size + head_len

    def take(meta):
        nonlocal offset
        name, shape, dts = meta
        count = math.prod(shape)
        nbytes = count * np.dtype(dts).itemsize
        if offset + nbytes > len(raw):
            raise CheckpointTruncatedError(
                f"{path}: blob for {name} runs past end of file")
        arr = np.frombuffer(raw, dtype=dts, count=count, offset=offset)
        offset += nbytes
        return name, arr.reshape(shape).copy()

    # Blob order: parameters, first moments, second moments, buffers.
    params, moments_m, moments_v, buffers = (
        dict(take(meta) for meta in header[key])
        for key in ("params", "params", "params", "buffers"))
    if offset != len(raw):
        raise CheckpointTruncatedError(
            f"{path}: {len(raw) - offset} unexpected trailing bytes")
    return CheckpointState(
        config=header["config"], epoch=header["epoch"], step=header["step"],
        best_val=header["best_val"], rng_state=header["rng"], adam=header["adam"],
        params=params, moments_m=moments_m, moments_v=moments_v, buffers=buffers)


def _check_names_and_shapes(kind, live, saved):
    """Raise CheckpointShapeError at the first name that is not in both
    ``live`` and ``saved`` or whose arrays differ in shape."""
    for name, arr in live.items():
        if name not in saved:
            raise CheckpointShapeError(f"{kind} {name} missing from checkpoint")
        if saved[name].shape != arr.shape:
            raise CheckpointShapeError(
                f"{kind} {name}: checkpoint shape {saved[name].shape} "
                f"does not match model shape {arr.shape}")
    for name in saved:
        if name not in live:
            raise CheckpointShapeError(f"{kind} {name} not present in model")


def restore_model_state(model, state: CheckpointState):
    """Copy checkpoint parameters and buffers into the model, cast to its
    dtypes, once every name and shape lines up; otherwise raise on the
    first that does not and leave the model as it was."""
    params = dict(model.named_parameters())
    buffers = dict(model.named_buffers())
    _check_names_and_shapes("parameter", {n: p.data for n, p in params.items()},
                            state.params)
    _check_names_and_shapes("buffer", buffers, state.buffers)
    for name, p in params.items():
        p.data = state.params[name].astype(p.data.dtype, copy=True)
        p.grad = None
    for name, buf in buffers.items():
        buf[...] = state.buffers[name]


def restore_optimizer_state(optimizer, state: CheckpointState):
    stores = ((optimizer.m, state.moments_m), (optimizer.v, state.moments_v))
    for kind, (store, saved) in zip(("first moment", "second moment"), stores):
        _check_names_and_shapes(kind, store, saved)
    for store, saved in stores:
        for name in store:
            store[name] = saved[name].astype(store[name].dtype, copy=True)
    adam = state.adam
    for key in ("lr", "beta1", "beta2", "epsilon"):
        if key in adam:
            setattr(optimizer, key, adam[key])
    optimizer.step_count = int(adam["step_count"])


def check_model_config(config_dict, state: CheckpointState):
    """Raise ConfigError when the checkpoint's model section differs."""
    saved = state.config.get("model")
    if saved != config_dict.get("model"):
        raise ConfigError(
            "checkpoint was produced with a different model configuration; "
            f"saved {saved}, requested {config_dict.get('model')}")
