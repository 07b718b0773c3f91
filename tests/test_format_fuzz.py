"""Seeded byte-mutation fuzzing of the two binary readers.

Each case flips 1-3 bytes of a valid file's prefix and header and, one
time in four, also truncates it. A reader may accept the result or raise
its declared error; any other exception is a defect.
"""

import numpy as np

from hqinet.checkpoint import _PREFIX, CheckpointError, load_checkpoint, save_checkpoint
from hqinet.network import ModelConfig, build_model
from hqinet.optim import Adam
from hqinet.runconfig import RunConfig
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
    raw = open(path, "rb").read()
    header_end = _PREFIX.size + _PREFIX.unpack_from(raw)[2]
    escaped = _fuzz(raw, header_end, str(tmp_path / "bad.hqic"), load_checkpoint,
                    CheckpointError, seed=0)
    assert not escaped, escaped[:5]


def test_volume_mutations_raise_only_volume_errors(tmp_path):
    path = str(tmp_path / "ok.hqiv")
    write_volume(path, np.random.default_rng(1).normal(size=(3, 8, 8)).astype(np.float32))
    raw = open(path, "rb").read()
    escaped = _fuzz(raw, 20, str(tmp_path / "bad.hqiv"), read_volume,
                    VolumeFormatError, seed=1)
    assert not escaped, escaped[:5]
