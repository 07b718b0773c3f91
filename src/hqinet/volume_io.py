"""On-disk volume format.

Layout: magic "HQIV", u16 format version, u16 dtype code (0 = float32
little-endian), u32 n_slices, u32 height, u32 width, then the payload of
n*h*w float32 values, little-endian, row-major within each slice, slices
in order. A sidecar JSON manifest shares the basename with a ".json"
extension.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct

import numpy as np

from .errors import DataError

__all__ = [
    "VolumeFormatError",
    "VolumeMagicError",
    "VolumeVersionError",
    "VolumeDtypeError",
    "VolumeTruncatedError",
    "VolumeShapeError",
    "write_volume",
    "read_volume",
    "manifest_path",
    "write_manifest",
    "read_manifest",
    "atomic_write",
    "MAGIC",
    "FORMAT_VERSION",
]

MAGIC = b"HQIV"
FORMAT_VERSION = 1
DTYPE_FLOAT32_LE = 0
_HEADER = struct.Struct("<4sHHIII")
_U32_MAX = 2 ** 32 - 1


class VolumeFormatError(DataError):
    """Base for malformed volume files."""


class VolumeMagicError(VolumeFormatError):
    pass


class VolumeVersionError(VolumeFormatError):
    pass


class VolumeDtypeError(VolumeFormatError):
    pass


class VolumeTruncatedError(VolumeFormatError):
    pass


class VolumeShapeError(VolumeFormatError):
    pass


@contextlib.contextmanager
def atomic_write(path, mode="wb"):
    """Open ``<path>.tmp`` for writing and rename it over ``path`` once the
    block succeeds; on any failure remove it, so ``path`` is either whole
    or as it was before."""
    tmp = os.fspath(path) + ".tmp"
    f = open(tmp, mode)
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def manifest_path(path):
    return os.path.splitext(os.fspath(path))[0] + ".json"


def write_volume(path, volume, manifest=None):
    """Write an (n_slices, h, w) array; optionally its JSON manifest."""
    vol = np.asarray(volume)
    if vol.ndim != 3:
        raise ValueError(f"volume must be (n_slices, h, w), got shape {vol.shape}")
    n, h, w = vol.shape
    if max(n, h, w) > _U32_MAX:
        raise ValueError(f"dimensions {vol.shape} exceed the format's u32 fields")
    payload = np.ascontiguousarray(vol, dtype="<f4")
    with atomic_write(path) as f:
        f.write(_HEADER.pack(MAGIC, FORMAT_VERSION, DTYPE_FLOAT32_LE, n, h, w))
        f.write(payload.tobytes())
    if manifest is not None:
        write_manifest(path, manifest)


def read_volume(path):
    """Read a volume back as a (n_slices, h, w) float32 array."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise VolumeTruncatedError(
            f"{path}: {len(raw)} bytes is shorter than the {_HEADER.size}-byte header")
    magic, version, dtype_code, n, h, w = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise VolumeMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise VolumeVersionError(
            f"{path}: format version {version}, this reader supports {FORMAT_VERSION}")
    if dtype_code != DTYPE_FLOAT32_LE:
        raise VolumeDtypeError(f"{path}: unknown dtype code {dtype_code}")
    expect = n * h * w * 4
    got = len(raw) - _HEADER.size
    if got < expect:
        raise VolumeTruncatedError(
            f"{path}: payload has {got} bytes, header dimensions "
            f"{n}x{h}x{w} require {expect}")
    if got != expect:
        raise VolumeShapeError(
            f"{path}: payload has {got} bytes but header dimensions "
            f"{n}x{h}x{w} account for {expect}")
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    return data.reshape(n, h, w).copy()


def write_manifest(volume_path, manifest):
    with atomic_write(manifest_path(volume_path), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def read_manifest(volume_path):
    """The sidecar manifest as a dict; DataError when it is not a JSON object."""
    path = manifest_path(volume_path)
    with open(path) as f:
        try:
            manifest = json.load(f)
        except ValueError as exc:  # JSON or UTF-8 decoding
            raise DataError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"manifest {path} must hold a JSON object")
    return manifest
