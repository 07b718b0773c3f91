"""Seeded mutation fuzzing of the two binary readers and the config reader.

Each byte case flips 1-3 bytes of a valid file's prefix and header and, one
time in four, also truncates it. Each value case drops a key from, or
swaps the JSON type of a value in, a checkpoint header's counters, best
value, config, Adam settings and RNG state. A reader may accept the result
or raise its declared error; any other exception is a defect. Each config
case swaps the JSON type of one value of a run config, or adds an unknown
key to one of its objects; the config reader must reject every one of them
with ConfigError, apart from an integer for a float and null where a
field's default is None.
"""

import json
from pathlib import Path

import numpy as np

from hqinet.checkpoint import _PREFIX, CheckpointError, load_checkpoint, save_checkpoint
from hqinet.errors import ConfigError
from hqinet.network import ModelConfig, build_model
from hqinet.optim import Adam
from hqinet.runconfig import DataConfig, RunConfig
from hqinet.trainer import train
from hqinet.volume_io import VolumeFormatError, read_volume, write_volume

CASES = 1500


def _fuzz(raw, header_end, path, read, declared, seed):
    """Run CASES mutations of ``raw`` through ``read``; return escapes."""
    rng = np.random.default_rng(seed)
    escaped = []
    for case in range(CASES):
        m = bytearray(raw)
        for pos in rng.integers(0, header_end, size=rng.integers(1, 4)):
            m[pos] ^= int(rng.integers(1, 256))
        if rng.random() < 0.25:
            m = m[:rng.integers(0, len(m))]
        with open(path, "wb") as f:
            f.write(m)
        try:
            read(path)
        except declared:
            pass
        except Exception as exc:
            escaped.append((case, type(exc).__name__, str(exc)[:80]))
    return escaped


def test_checkpoint_mutations_raise_only_checkpoint_errors(tmp_path):
    model = build_model(ModelConfig.desk(), seed=0)
    opt = Adam(list(model.named_parameters()), lr=1e-3)
    path = str(tmp_path / "ok.hqic")
    save_checkpoint(path, model, opt, RunConfig().to_dict(), 1, 3,
                    np.random.default_rng(0).bit_generator.state, best_val=0.25)
    raw = Path(path).read_bytes()
    header_end = _PREFIX.size + _PREFIX.unpack_from(raw)[2]
    escaped = _fuzz(raw, header_end, str(tmp_path / "bad.hqic"), load_checkpoint,
                    CheckpointError, seed=0)
    assert not escaped, escaped[:5]


def test_volume_mutations_raise_only_volume_errors(tmp_path):
    path = str(tmp_path / "ok.hqiv")
    write_volume(path, np.random.default_rng(1).normal(size=(3, 8, 8)).astype(np.float32))
    raw = Path(path).read_bytes()
    escaped = _fuzz(raw, 20, str(tmp_path / "bad.hqiv"), read_volume,
                    VolumeFormatError, seed=1)
    assert not escaped, escaped[:5]


VALUE_CASES = 150
# Replacements for a header value; each case picks one whose type differs.
SWAPS = (None, True, "x", [], {}, 1.5, 7, -1)


def _value_paths(header):
    """Key paths to every value under the fuzzed header fields; the
    config is swapped whole, its contents belong to RunConfig."""
    paths = []

    def walk(node, path):
        paths.append(path)
        if isinstance(node, dict) and path[0] != "config":
            for key in node:
                walk(node[key], path + (key,))

    for key in ("rng", "epoch", "step", "best_val", "config"):
        walk(header[key], (key,))
    return paths


def test_checkpoint_value_mutations_raise_only_checkpoint_errors(tmp_path):
    rng = np.random.default_rng(2)
    vol = rng.random((4, 32, 32)).astype(np.float32)
    data = tmp_path / "data"
    for split, pid in (("train", "p000"), ("test", "p001")):
        (data / split).mkdir(parents=True)
        for kind in ("low", "full"):
            write_volume(str(data / split / f"{pid}_{kind}.hqiv"), vol)
    # A checkpoint of the final epoch, so an accepted resume trains no step.
    cfg = RunConfig(epochs=1, data=DataConfig(root=str(data), crop=16),
                    output_dir=str(tmp_path / "run"))
    model = build_model(cfg.model, seed=cfg.seed)
    opt = Adam(list(model.named_parameters()), lr=1e-3)
    path = str(tmp_path / "ok.hqic")
    save_checkpoint(path, model, opt, cfg.to_dict(), 1, 2,
                    np.random.default_rng(0).bit_generator.state, best_val=0.25)
    raw = Path(path).read_bytes()
    magic, version, head_len = _PREFIX.unpack_from(raw)
    head = json.loads(raw[_PREFIX.size:_PREFIX.size + head_len])
    blobs = raw[_PREFIX.size + head_len:]
    paths = _value_paths(head)
    bad = str(tmp_path / "bad.hqic")
    escaped, rejected = [], 0
    for case in range(VALUE_CASES):
        header = json.loads(json.dumps(head))
        *parents, key = paths[rng.integers(len(paths))]
        node = header
        for p in parents:
            node = node[p]
        old = node[key]
        if rng.random() < 0.3:
            del node[key]
        else:
            options = [s for s in SWAPS if type(s) is not type(old)]
            node[key] = options[rng.integers(len(options))]
        new_head = json.dumps(header).encode()
        with open(bad, "wb") as f:
            f.write(_PREFIX.pack(magic, version, len(new_head)) + new_head + blobs)
        for read in (load_checkpoint,
                     lambda p: train(cfg, resume=p)):
            try:
                read(bad)
            except CheckpointError:
                rejected += 1
            except Exception as exc:
                escaped.append((case, parents + [key], type(exc).__name__, str(exc)[:80]))
    assert not escaped, escaped[:5]
    assert rejected > VALUE_CASES  # most mutations are malformed


CONFIG_CASES = 200
# Replacements for a config value; each case picks one whose type differs.
CONFIG_SWAPS = (2.5, 7, "x", True, None, [1, 2], {"k": 1})
# The fields whose default is None, so null keeps that default.
NULLABLE = {("ssim", "c1"), ("ssim", "c2")}


def _config_paths(config):
    """(objects, values): key paths to every object of a config dict and to
    every value under them, lists and their elements included."""
    objects, values = [], []

    def walk(node, path):
        if path:
            values.append(path)
        if isinstance(node, dict):
            objects.append(path)
            for key in node:
                walk(node[key], path + (key,))
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, path + (i,))

    walk(config, ())
    return objects, values


def _reads(config):
    try:
        RunConfig.from_dict(config)
    except ConfigError:
        return False
    return True


def test_config_mutations_raise_only_config_errors():
    base = RunConfig.desk().to_dict()
    objects, values = _config_paths(base)
    rng = np.random.default_rng(3)
    wrong, rejected = [], 0
    for case in range(CONFIG_CASES):
        config = json.loads(json.dumps(base))
        if rng.random() < 0.2:
            path = objects[rng.integers(len(objects))]
            node, key, old, new = config, "unknown_key", None, 1
            for p in path:
                node = node[p]
        else:
            *parents, key = path = values[rng.integers(len(values))]
            node = config
            for p in parents:
                node = node[p]
            old = node[key]
            options = [s for s in CONFIG_SWAPS if type(s) is not type(old)]
            new = options[rng.integers(len(options))]
        accept = new is None and path in NULLABLE
        # Every float in the desk config is a float field's value, and an int
        # there is read as the float of the same value, range checks and all.
        if type(new) is int and type(old) is float:
            node[key] = float(new)
            accept = _reads(config)
        node[key] = new
        try:
            RunConfig.from_dict(config)
            if not accept:
                wrong.append((case, path, new, "accepted"))
        except ConfigError:
            rejected += 1
            if accept:
                wrong.append((case, path, new, "rejected"))
        except Exception as exc:
            wrong.append((case, path, new, type(exc).__name__))
    assert not wrong, wrong[:5]
    assert rejected > 0.9 * CONFIG_CASES
