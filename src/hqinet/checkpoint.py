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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .runconfig import RunConfig
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
# Run settings are stored once, in "config"; a resumed run takes them from the
# config it is given.
_HEADER_KEYS = ("config", "epoch", "step", "best_val", "rng", "params", "buffers")


class CheckpointError(DataError):
    """Base for malformed or incompatible checkpoints."""


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


@dataclass
class CheckpointState:
    """Decoded checkpoint: header fields plus named arrays."""

    config: RunConfig
    epoch: int
    step: int
    best_val: float | None
    rng_state: dict
    params: dict
    moments_m: dict
    moments_v: dict
    buffers: dict


def _table(named_arrays):
    """The ``[name, shape, dtype]`` header entries and little-endian blobs
    of ``(name, array)`` pairs, in order."""
    blobs = [(name, np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))
             for name, arr in named_arrays]
    return [[name, list(b.shape), b.dtype.str] for name, b in blobs], [b for _, b in blobs]


def save_checkpoint(path, model, optimizer, config_dict, epoch, step,
                    rng_state, best_val=None):
    params = [(name, p.data) for name, p in model.named_parameters()]
    # Blob order: parameters, first moments, second moments, buffers. The
    # moments are read with the parameters' entries, so each is stored in
    # its parameter's dtype.
    moments = [[(name, store[name].astype(arr.dtype, copy=False)) for name, arr in params]
               for store in (optimizer.m, optimizer.v)]
    sections = [_table(named) for named in (params, *moments, model.named_buffers())]
    header = {
        "config": config_dict,
        "epoch": int(epoch),
        "step": int(step),
        "best_val": best_val,
        "rng": rng_state,
        "params": sections[0][0],
        "buffers": sections[3][0],
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # A failed write leaves the previous checkpoint whole.
    with atomic_write(path) as f:
        f.write(_PREFIX.pack(MAGIC, FORMAT_VERSION, len(head)))
        f.write(head)
        for _, blobs in sections:
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
    """True when counters, best value and RNG state can be restored; the
    best value is null or finite (json reads NaN and Infinity tokens)."""
    try:
        np.random.PCG64(0).state = header["rng"]
    except (TypeError, ValueError, KeyError, OverflowError):
        return False
    return (all(type(header[k]) is int and header[k] >= 0 for k in ("epoch", "step"))
            and (header["best_val"] is None
                 or type(header["best_val"]) in (int, float) and math.isfinite(header["best_val"])))


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
    try:
        config = RunConfig.from_dict(header["config"])
    except ConfigError as exc:
        raise CheckpointError(f"{path}: header holds a run config that does not decode: "
                              f"{exc}") from exc
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
        config=config, epoch=header["epoch"], step=header["step"],
        best_val=header["best_val"], rng_state=header["rng"],
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
    # Adam takes one step per logged step; its settings stay as constructed.
    optimizer.step_count = state.step


def check_model_config(config: RunConfig, state: CheckpointState):
    """Raise ConfigError when the checkpoint's model configuration differs."""
    if state.config.model != config.model:
        raise ConfigError(
            "checkpoint was produced with a different model configuration; "
            f"saved {state.config.model}, requested {config.model}")
