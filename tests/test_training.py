"""Training loop mechanics, checkpoint round trips, CLI behavior."""

import contextlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hqinet
from hqinet import checkpoint as ckpt
from hqinet import trainer
from hqinet.checkpoint import (CheckpointError, CheckpointMagicError, CheckpointShapeError,
                               CheckpointTruncatedError, CheckpointVersionError,
                               check_model_config, load_checkpoint,
                               restore_model_state, restore_optimizer_state,
                               save_checkpoint)
from hqinet.cli import main
from hqinet.dataset import (SliceTriplet, SyntheticSpec, build_triplets, generate_dataset,
                            load_triplets, load_volume_pairs)
from hqinet import tensor as T
from hqinet.errors import ConfigError, DataError, NumericError
from hqinet.losses import SsimParams
from hqinet.metrics import PSNR_CAP_DB, format_table, metrics_report
from hqinet.network import ModelConfig, build_model
from hqinet.optim import Adam
from hqinet.runconfig import DataConfig, OptimizerConfig, RunConfig
from hqinet.tensor import Tensor
from hqinet.trainer import LOG_HEADER, evaluate, reconstruct, train
from hqinet.volume_io import manifest_path, read_manifest, read_volume, write_volume

from test_network import with_random_statistics

SPEC = SyntheticSpec(n_train=2, n_test=1, n_slices=4, size=32,
                     n_views=24, n_detectors=47)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinydata") / "data"
    generate_dataset(str(root), SPEC, seed=0)
    return str(root)


def make_config(data_dir, out_dir, epochs=2, seed=0, lr=1e-3, strict=True):
    return RunConfig(batch_size=2, epochs=epochs, seed=seed,
                     optimizer=OptimizerConfig(lr=lr),
                     data=DataConfig(root=data_dir, crop=16, synthetic=SPEC),
                     output_dir=str(out_dir), strict_determinism=strict)


def _rewrite_header(src, dst, mutate):
    """Write checkpoint ``src`` to ``dst`` with ``mutate`` applied to its
    decoded header and the blobs unchanged; returns ``dst`` as a str."""
    raw = Path(src).read_bytes()
    magic, version, head_len = ckpt._PREFIX.unpack_from(raw)
    start = ckpt._PREFIX.size
    header = json.loads(raw[start:start + head_len])
    mutate(header)
    head = json.dumps(header).encode()
    with open(dst, "wb") as f:
        f.write(ckpt._PREFIX.pack(magic, version, len(head)) + head + raw[start + head_len:])
    return str(dst)


class _Killed(BaseException):
    """Stands in for a kill: ``except Exception`` does not catch it."""


class TestTrainLoop:
    def test_artifacts_and_log_shape(self, data_dir, tmp_path):
        cfg = make_config(data_dir, tmp_path / "run")
        result = train(cfg)
        # 2 patients x 2 interior slices = 4 triplets, batch 2 -> 2 steps/epoch
        assert result.steps == 4
        assert result.epochs_run == 2
        lines = Path(result.log_path).read_text().splitlines()
        assert lines[0] == LOG_HEADER
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"
        assert float(first[2]) > 0
        # strict mode zeroes the wall-time column
        assert all(line.rsplit(",", 1)[1] == "0.000" for line in lines[1:])
        for name in ("epoch_001.hqic", "epoch_002.hqic", "last.hqic", "best.hqic"):
            assert os.path.exists(tmp_path / "run" / name), name
        val_lines = (tmp_path / "run" / "val_log.csv").read_text().splitlines()
        assert val_lines[0] == "epoch,val_loss"
        assert len(val_lines) == 3
        assert result.best_val <= float(val_lines[1].split(",")[1])

    def test_loss_composition_in_log(self, data_dir, tmp_path):
        cfg = make_config(data_dir, tmp_path / "run")
        result = train(cfg)
        for line in Path(result.log_path).read_text().splitlines()[1:]:
            _, _, loss, l1, sl, _ = line.split(",")
            assert float(loss) == pytest.approx(
                0.85 * float(l1) + 0.15 * float(sl), rel=1e-6)

    def test_strict_logs_byte_identical(self, data_dir, tmp_path):
        a = train(make_config(data_dir, tmp_path / "a"))
        b = train(make_config(data_dir, tmp_path / "b"))
        assert Path(a.log_path).read_bytes() == Path(b.log_path).read_bytes()
        c = train(make_config(data_dir, tmp_path / "c", seed=1))
        assert Path(a.log_path).read_bytes() != Path(c.log_path).read_bytes()

    def test_resume_matches_uninterrupted(self, data_dir, tmp_path):
        full = train(make_config(data_dir, tmp_path / "full", epochs=3))
        # same run interrupted after one epoch, then resumed to completion
        part_cfg = make_config(data_dir, tmp_path / "part", epochs=1)
        part = train(part_cfg)
        resumed_cfg = make_config(data_dir, tmp_path / "part", epochs=3)
        train(resumed_cfg, resume=part.last_path)
        full_log = Path(full.log_path).read_bytes()
        part_log = (tmp_path / "part" / "loss_log.csv").read_bytes()
        assert part_log == full_log
        # final checkpoints agree except for the embedded output_dir string
        a = load_checkpoint(full.last_path)
        b = load_checkpoint(tmp_path / "part" / "last.hqic")
        assert a.epoch == b.epoch and a.step == b.step
        for name, arr in a.params.items():
            assert np.array_equal(arr, b.params[name]), name
        for name, arr in a.moments_m.items():
            assert np.array_equal(arr, b.moments_m[name]), name
        assert a.rng_state == b.rng_state

    def test_resume_takes_optimizer_settings_from_config(self, data_dir, tmp_path):
        part = train(make_config(data_dir, tmp_path / "part", epochs=1))
        logs = {}
        for lr in (1e-3, 5e-2):
            run_dir = tmp_path / f"lr_{lr}"
            shutil.copytree(tmp_path / "part", run_dir)
            train(make_config(data_dir, run_dir, epochs=3, lr=lr), resume=part.last_path)
            logs[lr] = (run_dir / "loss_log.csv").read_text().splitlines()
            assert load_checkpoint(run_dir / "last.hqic").config.optimizer.lr == lr
        # A step logs its loss before its update: rows up to step 3 agree,
        # and every later row follows an update at the new lr.
        same, new = logs[1e-3], logs[5e-2]
        assert len(same) == len(new) == 1 + 6
        assert same[:4] == new[:4]
        assert all(a != b for a, b in zip(same[4:], new[4:]))

    def test_resume_from_earlier_epoch_drops_later_rows(self, data_dir, tmp_path):
        cfg = make_config(data_dir, tmp_path / "run")
        train(cfg)
        run = tmp_path / "run"
        names = ("loss_log.csv", "val_log.csv", "epoch_002.hqic", "last.hqic", "best.hqic")
        full = {n: (run / n).read_bytes() for n in names}
        # resume over complete logs, then over logs cut off mid-row by a
        # crash during epoch 2
        for loss_log, val_log in ((full["loss_log.csv"], full["val_log.csv"]),
                                  (full["loss_log.csv"][:-20], full["val_log.csv"][:-5])):
            (run / "loss_log.csv").write_bytes(loss_log)
            (run / "val_log.csv").write_bytes(val_log)
            train(cfg, resume=str(run / "epoch_001.hqic"))
            for n in names:
                assert (run / n).read_bytes() == full[n], n

    @pytest.mark.parametrize("kill_after", range(3), ids=["epoch_002", "best", "last"])
    def test_kill_after_each_save_resumes_to_uninterrupted_files(
            self, data_dir, tmp_path, monkeypatch, kill_after):
        def files(name):
            return {p.name: p.read_bytes() for p in (tmp_path / name / "run").iterdir()}

        def config_in(name):  # the header stores output_dir, so both runs use "run"
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            return make_config(data_dir, "run")

        train(config_in("full"))
        full = files("full")
        assert full["best.hqic"] == full["epoch_002.hqic"]  # epoch 2 improves

        cfg = config_in("killed")
        saves = []
        real_save = trainer.save_checkpoint

        def save_then_kill(path, **kwargs):
            real_save(path, **kwargs)
            if kwargs["epoch"] == cfg.epochs:
                saves.append(os.path.basename(path))
                if len(saves) == kill_after + 1:
                    raise _Killed(path)

        monkeypatch.setattr(trainer, "save_checkpoint", save_then_kill)
        with pytest.raises(_Killed):
            train(cfg)
        assert saves == ["epoch_002.hqic", "best.hqic", "last.hqic"][:kill_after + 1]
        train(cfg, resume=os.path.join("run", "last.hqic"))
        assert files("killed") == full

    def test_resume_rejects_model_config_change(self, data_dir, tmp_path):
        part = train(make_config(data_dir, tmp_path / "run", epochs=1))
        other = make_config(data_dir, tmp_path / "run", epochs=2)
        other.model = ModelConfig(stage_block_counts=(2, 1, 1, 1),
                                  aspp_rates=(1, 2, 3), width_multiplier=0.25)
        with pytest.raises(ConfigError):
            train(other, resume=part.last_path)

    def test_nonfinite_loss_aborts_with_diagnostics(self, data_dir, tmp_path):
        cfg = make_config(data_dir, tmp_path / "run", epochs=3, lr=1e25)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as exc:
                train(cfg)
        msg = str(exc.value)
        assert "step" in msg and "lr=" in msg and "grad_norm=" in msg


class TestCheckpointFormat:
    def _trained(self, data_dir, tmp_path):
        result = train(make_config(data_dir, tmp_path / "run", epochs=1))
        return result.last_path

    def test_save_load_save_byte_identical(self, data_dir, tmp_path):
        path = self._trained(data_dir, tmp_path)
        original = Path(path).read_bytes()
        state = load_checkpoint(path)
        model = build_model(state.config.model)
        settings = state.config.optimizer
        optimizer = Adam(list(model.named_parameters()), lr=settings.lr,
                         beta1=settings.beta1, beta2=settings.beta2,
                         epsilon=settings.epsilon)
        restore_model_state(model, state)
        restore_optimizer_state(optimizer, state)
        assert optimizer.step_count == state.step
        path2 = str(tmp_path / "resaved.hqic")
        save_checkpoint(path2, model, optimizer, state.config.to_dict(), state.epoch,
                        state.step, state.rng_state, state.best_val)
        assert Path(path2).read_bytes() == original

    def test_failed_save_keeps_previous_file(self, data_dir, tmp_path, monkeypatch):
        path = self._trained(data_dir, tmp_path)
        before = Path(path).read_bytes()
        state = load_checkpoint(path)
        model = build_model(state.config.model)
        optimizer = Adam(list(model.named_parameters()), lr=1e-3)

        real = ckpt.atomic_write
        writes = []

        class FailingFile:
            def __init__(self, f):
                self.f = f

            def write(self, data):
                writes.append(None)
                # the third blob fails, after the prefix, the header and
                # two blobs are written
                if len(writes) == 5:
                    raise OSError("disk full")
                return self.f.write(data)

        @contextlib.contextmanager
        def failing_write(path):
            with real(path) as f:
                yield FailingFile(f)

        monkeypatch.setattr(ckpt, "atomic_write", failing_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, optimizer, state.config.to_dict(), 9, 99,
                            state.rng_state)
        assert Path(path).read_bytes() == before
        assert not [n for n in os.listdir(os.path.dirname(path)) if n.endswith(".tmp")]

    def test_header_fields(self, data_dir, tmp_path):
        state = load_checkpoint(self._trained(data_dir, tmp_path))
        assert state.epoch == 1
        assert state.step == 2
        assert state.config.optimizer == OptimizerConfig(lr=1e-3)
        assert state.rng_state["bit_generator"] == "PCG64"
        assert state.config.seed == 0
        assert set(state.buffers) == {
            n for n, _ in build_model(state.config.model).named_buffers()}

    def test_header_holds_each_field_once(self, data_dir, tmp_path):
        # Settings are in "config" alone; a second copy must be added on purpose.
        raw = Path(self._trained(data_dir, tmp_path)).read_bytes()
        _, _, head_len = ckpt._PREFIX.unpack_from(raw)
        header = json.loads(raw[ckpt._PREFIX.size:ckpt._PREFIX.size + head_len])
        assert set(header) == {"config", "epoch", "step", "best_val", "rng", "params", "buffers"}

    def test_header_with_former_adam_field_resumes_alike(self, data_dir, tmp_path):
        # Checkpoints written before the header lost its "adam" copy of the
        # optimizer settings and step count still load and resume the same.
        part = train(make_config(data_dir, tmp_path / "part", epochs=1))

        def add_adam(header):
            header["adam"] = dict(header["config"]["optimizer"], step_count=header["step"])

        old = _rewrite_header(part.last_path, tmp_path / "old.hqic", add_adam)
        assert load_checkpoint(old).step == load_checkpoint(part.last_path).step == 2
        logs = []
        for name, resume in (("new", part.last_path), ("old", old)):
            shutil.copytree(tmp_path / "part", tmp_path / name)
            train(make_config(data_dir, tmp_path / name, epochs=2), resume=resume)
            logs.append((tmp_path / name / "loss_log.csv").read_bytes())
        assert logs[0] == logs[1]

    def test_restore_names_first_mismatch(self, data_dir, tmp_path):
        state = load_checkpoint(self._trained(data_dir, tmp_path))
        wider = build_model(ModelConfig(width_multiplier=0.5,
                                        stage_block_counts=(1, 1, 1, 1),
                                        aspp_rates=(1, 2, 3)))
        with pytest.raises(CheckpointShapeError) as exc:
            restore_model_state(wider, state)
        assert "stem.unit1.conv.weight" in str(exc.value)

    def test_restore_detects_missing_and_extra_params(self, data_dir, tmp_path):
        state = load_checkpoint(self._trained(data_dir, tmp_path))
        deeper = build_model(ModelConfig(stage_block_counts=(2, 1, 1, 1),
                                         aspp_rates=(1, 2, 3),
                                         width_multiplier=0.25))
        with pytest.raises(CheckpointShapeError) as exc:
            restore_model_state(deeper, state)
        assert "stage1.1" in str(exc.value)

    def test_optimizer_restore_shape_guard(self, data_dir, tmp_path):
        state = load_checkpoint(self._trained(data_dir, tmp_path))
        model = build_model(state.config.model)
        opt = Adam(list(model.named_parameters()), lr=0.001)
        state.moments_m["stem.unit1.conv.weight"] = np.zeros((1, 1, 1, 1))
        with pytest.raises(CheckpointShapeError):
            restore_optimizer_state(opt, state)

    def test_check_model_config(self, data_dir, tmp_path):
        state = load_checkpoint(self._trained(data_dir, tmp_path))
        check_model_config(RunConfig.from_dict(state.config.to_dict()), state)  # no error
        other = replace(state.config, model=ModelConfig(width_multiplier=0.5,
                                                        stage_block_counts=(1, 1, 1, 1),
                                                        aspp_rates=(1, 2, 3)))
        with pytest.raises(ConfigError):
            check_model_config(other, state)

    def _corrupt(self, path, tmp_path, mutate):
        raw = bytearray(Path(path).read_bytes())
        out = str(tmp_path / "bad.hqic")
        with open(out, "wb") as f:
            f.write(mutate(raw))
        return out

    def test_corrupted_magic(self, data_dir, tmp_path):
        path = self._trained(data_dir, tmp_path)
        def mut(raw):
            raw[:4] = b"ZZZZ"
            return raw
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(self._corrupt(path, tmp_path, mut))

    def test_corrupted_version(self, data_dir, tmp_path):
        path = self._trained(data_dir, tmp_path)
        def mut(raw):
            raw[4:6] = (9).to_bytes(2, "little")
            return raw
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(self._corrupt(path, tmp_path, mut))

    def test_truncated_blob(self, data_dir, tmp_path):
        path = self._trained(data_dir, tmp_path)
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(self._corrupt(path, tmp_path, lambda raw: raw[:-100]))

    def test_trailing_garbage(self, data_dir, tmp_path):
        path = self._trained(data_dir, tmp_path)
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(self._corrupt(path, tmp_path,
                                          lambda raw: raw + b"\x00" * 3))


@pytest.fixture(scope="module")
def run(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trainrun")
    return train(make_config(data_dir, out / "run", epochs=1))


class TestEvaluateAndReconstruct:
    def test_evaluate_reports(self, data_dir, run, tmp_path):
        out = tmp_path / "eval"
        returned = evaluate(run.last_path, data_dir, str(out))
        text = (out / "report.txt").read_text()
        lines = text.splitlines()
        assert lines[1].startswith("Low-dose")
        assert lines[2].startswith("HQINet")
        report = json.loads((out / "report.json").read_text())
        assert report == returned
        assert set(report) == {"low_dose", "model", "delta"}
        assert report["delta"]["psnr_db"] == pytest.approx(
            report["model"]["psnr_db"]["mean"] - report["low_dose"]["psnr_db"]["mean"])
        # 1 test patient x 2 interior slices
        assert report["model"]["n"] == 2

    def test_evaluate_batches_span_volumes_of_one_size(self, data_dir, run, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        rng = np.random.default_rng(3)
        # p002 is 4x32x32 from the fixture; with batch size 2 the 32px slices
        # batch as 2+2+2+2, one batch holding p003's last slice and p004's
        # first, and the 48px ones as 2+1.
        for pid, size in (("p003", 32), ("p004", 32), ("p005", 48)):
            for kind in ("low", "full"):
                write_volume(str(data / "test" / f"{pid}_{kind}.hqiv"),
                             rng.uniform(0.1, 1.0, (5, size, size)).astype(np.float32))
        out = tmp_path / "eval"
        returned = evaluate(run.last_path, str(data), str(out))
        assert returned["model"]["n"] == 2 + 3 + 3 + 3
        # The report of per-volume predictions, byte for byte.
        model, config = trainer._load_model_from_checkpoint(run.last_path)
        lows, fulls, preds = [], [], []
        for pid, low, full, _manifest in load_volume_pairs(str(data), "test"):
            pred = trainer._predict(model, build_triplets(low, full, pid), config.batch_size)
            preds.extend(np.concatenate(pred)[:, 0])
            lows.extend(low[1:-1])
            fulls.extend(full[1:-1])
        low_rep, model_rep = metrics_report(lows, fulls), metrics_report(preds, fulls)
        report = {"low_dose": low_rep, "model": model_rep,
                  "delta": {k: model_rep[k]["mean"] - low_rep[k]["mean"]
                            for k in ("psnr_db", "mi")}}
        assert (out / "report.json").read_text() == json.dumps(
            report, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert (out / "report.txt").read_text() == format_table(
            [("Low-dose", low_rep), ("HQINet", model_rep)])

    def test_predict_chunks_break_at_size_changes(self):
        class Recorder:
            def __init__(self):
                self.batches = []

            def eval(self):
                pass

            def __call__(self, x):
                self.batches.append(x.shape)
                return Tensor(x.data[:, :1])

        sizes = [32] * 5 + [48] * 2 + [32]
        inputs = [np.full((3, s, s), i, np.float32) for i, s in enumerate(sizes)]
        model = Recorder()
        preds = trainer._predict(model, _triplets(inputs), 3)
        assert model.batches == [(3, 3, 32, 32), (2, 3, 32, 32), (2, 3, 48, 48),
                                 (1, 3, 32, 32)]
        flat = [p for pred in preds for p in pred]
        assert all(np.array_equal(p, x[:1]) for p, x in zip(flat, inputs))
        # Every size is checked before the first forward.
        model = Recorder()
        with pytest.raises(DataError, match="slices are 40x40"):
            trainer._predict(model, _triplets(inputs + [np.zeros((3, 40, 40), np.float32)]), 3)
        assert model.batches == []

    def test_reconstruct_outputs(self, data_dir, run, tmp_path):
        out = tmp_path / "recon"
        src = os.path.join(data_dir, "test", "p002_low.hqiv")
        out_path = reconstruct(run.last_path, src, str(out))
        vol = read_volume(out_path)
        src_vol = read_volume(src)
        assert vol.shape == src_vol.shape
        # boundary slices pass through untouched; interiors come from the model
        assert np.array_equal(vol[0], src_vol[0])
        assert np.array_equal(vol[-1], src_vol[-1])
        assert not np.array_equal(vol[1], src_vol[1])
        manifest = read_manifest(out_path)
        assert manifest["dose"] == "model"
        assert manifest["boundary_slices"] == "copied-from-input"
        assert manifest["source"] == "p002_low.hqiv"
        pgms = sorted(p for p in os.listdir(out) if p.endswith(".pgm"))
        assert pgms == [f"slice_{i:03d}.pgm" for i in range(vol.shape[0])]

    def test_pgm_format(self, data_dir, run, tmp_path):
        out = tmp_path / "recon"
        src = os.path.join(data_dir, "test", "p002_low.hqiv")
        reconstruct(run.last_path, src, str(out))
        raw = (out / "slice_000.pgm").read_bytes()
        header, rest = raw.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        w, h = map(int, dims.split())
        maxval, payload = rest.split(b"\n", 1)
        assert maxval == b"255"
        assert (w, h) == (32, 32)
        assert len(payload) == w * h


def _triplets(inputs):
    """Each (3, h, w) input as a triplet of patient "p"; no target is read."""
    return [SliceTriplet(input=x, target=None, patient_id="p", slice_index=i)
            for i, x in enumerate(inputs)]


def unfolded(*args, **kwargs):
    """Stands in for ``tensor.batch_norm`` where every BatchNorm must fold."""
    raise AssertionError("a BatchNorm ran unfolded")


class TestFoldedPredict:
    """``_predict``, and validation, ``evaluate`` and ``reconstruct`` through
    it, run every BatchNorm folded into its conv."""

    def test_every_path_folds_every_batch_norm(self, data_dir, run, tmp_path, monkeypatch):
        monkeypatch.setattr(T, "batch_norm", unfolded)
        model, config = trainer._load_model_from_checkpoint(run.last_path)
        low = read_volume(os.path.join(data_dir, "test", "p002_low.hqiv"))
        trainer._predict(model, build_triplets(low, low, "p002"), config.batch_size)
        trainer._validation_loss(model, load_triplets(data_dir, "test"), config)
        evaluate(run.last_path, data_dir, str(tmp_path / "eval"))
        reconstruct(run.last_path, os.path.join(data_dir, "test", "p002_low.hqiv"),
                    str(tmp_path / "recon"))

    @pytest.mark.parametrize("source,dtype,tol", [
        ("random", np.float32, 1e-6), ("random", np.float64, 1e-12),
        ("trained", np.float32, 1e-6)])
    def test_matches_unfolded_eval_forward(self, run, source, dtype, tol):
        if source == "trained":
            model = trainer._load_model_from_checkpoint(run.last_path)[0]
        else:
            model = with_random_statistics(
                build_model(ModelConfig.desk(), seed=3).astype(dtype), 4)
        rng = np.random.default_rng(5)
        inputs = [rng.uniform(size=(3, 32, 32)).astype(dtype) for _ in range(5)]
        got = np.concatenate(trainer._predict(model, _triplets(inputs), 2))
        want = model(Tensor(np.stack(inputs))).data  # eval mode, graph recorded
        assert got.dtype == dtype
        assert np.abs(got - want).max() <= tol * np.abs(want).max()

    def test_changes_no_parameter_buffer_or_input(self):
        model = with_random_statistics(build_model(ModelConfig.desk(), seed=6), 7)
        rng = np.random.default_rng(8)
        inputs = [rng.normal(size=(3, 32, 32)).astype(np.float32) for _ in range(3)]
        kept = [x.copy() for x in inputs]

        def state():
            return [(name, v.data.tobytes() if isinstance(v, Tensor) else v.tobytes())
                    for name, v in list(model.named_parameters()) + list(model.named_buffers())]

        before = state()
        trainer._predict(model, _triplets(inputs), 2)
        assert state() == before
        assert all(np.array_equal(x, k) for x, k in zip(inputs, kept))


class TestHeap:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's mallopt")
    def test_forwards_do_not_refault_the_heap(self, monkeypatch):
        monkeypatch.setattr(T, "batch_norm", unfolded)  # the folded forward
        trainer._hold_heap()
        model = build_model(RunConfig.desk().model, seed=0)
        model.eval()
        x = Tensor(np.random.default_rng(0).uniform(size=(4, 3, 128, 128)).astype(np.float32))
        with T.no_grad():
            for _ in range(2):  # warm-up
                model(x)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(10):
                model(x)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        # Without the setting each forward faults its heap in again, about
        # 5,000 faults per forward.
        assert faults <= 300

    @staticmethod
    def _no_library(name):
        raise OSError(f"cannot load {name}")

    @pytest.mark.parametrize("cdll", [lambda name: object(), _no_library],
                             ids=["no-mallopt", "no-library"])
    def test_hold_heap_without_mallopt_does_nothing(self, monkeypatch, cdll):
        import ctypes

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert trainer._hold_heap() is None


class TestRunConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = RunConfig.desk()
        cfg.epochs = 7
        cfg.data.root = "somewhere"
        path = str(tmp_path / "cfg.json")
        cfg.to_json(path)
        back = RunConfig.from_json(path)
        assert back.to_dict() == cfg.to_dict()

    def test_from_json_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_json(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError):
            RunConfig.from_json(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            RunConfig.from_json(str(arr))

    def test_from_dict_errors(self):
        for bad in ({"bogus_field": 1}, {"optimizer": {"lr": -1.0}}, {"batch_size": 0},
                    {"epochs": True}, {"optimizer": {"lr": True}}, {"seed": "7"},
                    {"model": {"aspp_rates": [1, 2, 3.0]}}, {"model": []},
                    {"output_dir": None}, {"strict_determinism": 0}):
            with pytest.raises(ConfigError):
                RunConfig.from_dict(bad)
        with pytest.raises(ConfigError, match="RunConfig.data.crop must be int, got 16.0"):
            RunConfig.from_dict({"data": {"crop": 16.0}})

    def test_from_dict_takes_int_for_float_and_null_for_none_default(self):
        assert RunConfig.from_dict({"optimizer": {"lr": 1}}).optimizer.lr == 1
        assert RunConfig.from_dict({"ssim": {"c1": None}}).ssim.c1 == pytest.approx(1e-4)

    def test_data_config_crop_validation(self):
        with pytest.raises(ValueError):
            DataConfig(crop=10)
        assert DataConfig(crop=0).crop == 0

    def test_full_scale_preset(self):
        cfg = RunConfig.full_scale()
        assert cfg.batch_size == 88
        assert cfg.optimizer.lr == 0.01
        assert cfg.data.crop == 0
        assert cfg.model.width_multiplier == 1.0


def _zeros(*shape):
    return Tensor(np.zeros(shape))


class TestArgumentChecks:
    @pytest.mark.parametrize("call,message", [
        (lambda: T.conv2d(_zeros(3, 8, 8), _zeros(4, 3, 3, 3)), "input must be 4-D"),
        (lambda: T.conv2d(_zeros(1, 3, 8, 8), _zeros(4, 3, 3)), "weight must be 4-D"),
        (lambda: T.conv2d(_zeros(1, 3, 8, 8), _zeros(4, 3, 3, 3), stride=0),
         "stride and dilation must be >= 1"),
        (lambda: T.conv2d(_zeros(1, 3, 8, 8), _zeros(4, 3, 3, 3), dilation=0),
         "stride and dilation must be >= 1"),
        (lambda: T.conv2d(_zeros(1, 3, 8, 8), _zeros(4, 3, 3, 3), zero_padding=-1),
         "zero_padding must be >= 0"),
        (lambda: T.conv2d(_zeros(1, 3, 8, 8), _zeros(4, 1, 3, 3), groups=2),
         "input channels 3 not divisible by groups 2"),
        (lambda: T.conv2d(_zeros(1, 4, 8, 8), _zeros(3, 2, 3, 3), groups=2),
         "output channels 3 not divisible by groups 2"),
        (lambda: T.conv2d(_zeros(1, 3, 8, 8), _zeros(4, 3, 3, 3), _zeros(5)),
         "bias length expects output channels 4"),
        (lambda: T.bilinear_upsample(_zeros(3, 8, 8), 16, 16),
         "bilinear_upsample input must be 4-D"),
        (lambda: T.bilinear_upsample(_zeros(1, 3, 8, 8), 4, 16), "must not shrink input"),
        (lambda: T.global_avg_pool(_zeros(3, 8, 8)), "global_avg_pool input must be 4-D"),
        (lambda: T.ChannelParts(), "needs at least one tensor"),
        (lambda: ModelConfig(se_reduction=0), "se_reduction must be >= 1"),
        (lambda: ModelConfig(aspp_channels=0), "channel counts must be >= 1"),
        (lambda: DataConfig(crop=-16), "crop must be >= 0"),
        (lambda: RunConfig(epochs=0), "epochs must be >= 1"),
    ], ids=["conv-input-3d", "conv-weight-3d", "conv-stride-0", "conv-dilation-0",
            "conv-padding-negative", "conv-groups-c-in", "conv-groups-c-out",
            "conv-bias-length", "bilinear-input-3d", "bilinear-shrink", "pool-input-3d",
            "channel-parts-empty", "se-reduction-0", "channels-0", "crop-negative",
            "epochs-0"])
    def test_raises_value_error(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestCLI:
    def _write_config(self, tmp_path, data_root, out_dir, **overrides):
        cfg = make_config(data_root, out_dir, **overrides)
        path = str(tmp_path / "config.json")
        cfg.to_json(path)
        return path

    def test_generate_train_eval_reconstruct_pipeline(self, tmp_path, capsys):
        data_root = str(tmp_path / "data")
        run_dir = str(tmp_path / "run")
        cfg_path = self._write_config(tmp_path, data_root, run_dir, epochs=1)

        assert main(["generate", "--config", cfg_path]) == 0
        assert "volume pairs" in capsys.readouterr().out

        # refuses to clobber, force overrides
        assert main(["generate", "--config", cfg_path]) == 3
        assert main(["generate", "--config", cfg_path, "--force"]) == 0
        capsys.readouterr()

        assert main(["train", "--config", cfg_path]) == 0
        assert "trained 1 epochs" in capsys.readouterr().out
        last = os.path.join(run_dir, "last.hqic")

        eval_dir = str(tmp_path / "eval")
        assert main(["eval", "--config", cfg_path, "--checkpoint", last,
                     "--out", eval_dir]) == 0
        out = capsys.readouterr().out
        assert "PSNR delta" in out and "Low-dose" in out
        assert os.path.exists(os.path.join(eval_dir, "report.json"))

        recon_dir = str(tmp_path / "recon")
        src = os.path.join(data_root, "test", "p002_low.hqiv")
        assert main(["reconstruct", "--config", cfg_path, "--checkpoint", last,
                     "--input", src, "--out", recon_dir]) == 0
        assert os.path.exists(os.path.join(recon_dir, "recon.hqiv"))
        capsys.readouterr()

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus_field": 1}')
        assert main(["train", "--config", str(bad)]) == 2
        capsys.readouterr()

    def test_unreadable_config_is_config_error(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"output_dir": "caf\u00e9"}'.encode("latin-1"))
        for path in (latin1, tmp_path):
            assert main(["train", "--config", str(path)]) == 2
            assert f"config file {path} cannot be read" in capsys.readouterr().err

    def test_wrong_json_type_is_config_error(self, data_dir, tmp_path, capsys):
        good = make_config(data_dir, tmp_path / "run").to_dict()
        path = tmp_path / "config.json"
        for key, value, where in (("seed", 1.5, "seed"), ("batch_size", 2.5, "batch_size"),
                                  ("data", dict(good["data"], crop=16.0), "data.crop")):
            path.write_text(json.dumps(dict(good, **{key: value})))
            assert main(["train", "--config", str(path)]) == 2
            assert f"RunConfig.{where} must be int" in capsys.readouterr().err

    def test_invalid_synthetic_spec_is_config_error(self, tmp_path, capsys):
        good = make_config(str(tmp_path / "data"), tmp_path / "run").to_dict()
        path = tmp_path / "config.json"
        for key, value in (("size", 0), ("n_views", 0), ("n_detectors", 0),
                           ("n_ellipses_range", [5, 2])):
            synthetic = dict(good["data"]["synthetic"], **{key: value})
            path.write_text(json.dumps(dict(good, data=dict(good["data"],
                                                            synthetic=synthetic))))
            assert main(["generate", "--config", str(path)]) == 2
            assert "invalid RunConfig.data.synthetic" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_negative_seed_is_config_error(self, data_dir, tmp_path, capsys):
        good = make_config(data_dir, tmp_path / "run").to_dict()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(good, seed=-1)))
        assert main(["train", "--config", str(path)]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        path.write_text(json.dumps(good))
        for verb in ("generate", "train"):
            assert main([verb, "--config", str(path), "--seed", "-3",
                         "--out", str(tmp_path / verb)]) == 2
            assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_resume_past_configured_epochs_is_config_error(self, data_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        train(make_config(data_dir, run_dir, epochs=2))
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        resume = str(run_dir / "epoch_002.hqic")
        cfg_path = self._write_config(tmp_path, data_dir, str(run_dir), epochs=1)
        assert main(["train", "--config", cfg_path, "--resume", resume]) == 2
        assert "past the configured 1 epochs" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        # Resuming at exactly the configured epoch trains nothing.
        cfg_path = self._write_config(tmp_path, data_dir, str(run_dir), epochs=2)
        assert main(["train", "--config", cfg_path, "--resume", resume]) == 0
        assert "trained 0 epochs" in capsys.readouterr().out
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_malformed_manifest_is_data_error(self, run, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        low = str(data / "test" / "p002_low.hqiv")
        for text in ("{nope", "[1, 2]"):
            with open(manifest_path(low), "w") as f:
                f.write(text)
            assert main(["eval", "--checkpoint", run.last_path, "--data", str(data),
                         "--out", str(tmp_path / "eval")]) == 3
            assert "manifest" in capsys.readouterr().err
            assert main(["reconstruct", "--checkpoint", run.last_path, "--input", low,
                         "--out", str(tmp_path / "recon")]) == 3
            assert "manifest" in capsys.readouterr().err
            cfg_path = self._write_config(tmp_path, str(data), str(tmp_path / "run"))
            assert main(["train", "--config", cfg_path]) == 3
            assert "manifest" in capsys.readouterr().err
            assert not (tmp_path / "run" / "loss_log.csv").exists()

    def test_crop_larger_than_slice_is_config_error(self, data_dir, tmp_path, capsys):
        cfg = make_config(data_dir, tmp_path / "run")
        cfg.data.crop = 64  # the dataset's slices are 32x32
        cfg_path = str(tmp_path / "config.json")
        cfg.to_json(cfg_path)
        assert main(["train", "--config", cfg_path]) == 2
        assert "crop 64 exceeds slice size 32x32" in capsys.readouterr().err

    def test_slices_not_divisible_by_16_are_data_error(self, tmp_path, capsys):
        data_root = str(tmp_path / "data")
        generate_dataset(data_root, SyntheticSpec(n_train=1, n_test=1, n_slices=3, size=40,
                                                  n_views=24, n_detectors=59), seed=0)
        run_dir = tmp_path / "run"
        # Uncropped training slices, then uncropped validation slices.
        for crop in (0, 16):
            cfg = make_config(data_root, run_dir)
            cfg.data.crop = crop
            cfg.to_json(str(tmp_path / "config.json"))
            assert main(["train", "--config", str(tmp_path / "config.json")]) == 3
            assert "slices are 40x40; the model needs sizes divisible by 16" in (
                capsys.readouterr().err)
            assert not run_dir.exists() or not any(run_dir.iterdir())

    def test_ssim_window_larger_than_maps_is_config_error(self, data_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        # The 16px training crops, then the uncropped 32px training slices.
        for crop, window in ((16, 17), (0, 33)):
            cfg = make_config(data_dir, run_dir)
            cfg.data.crop = crop
            cfg.ssim = SsimParams(window_size=window)
            cfg.to_json(str(tmp_path / "config.json"))
            assert main(["train", "--config", str(tmp_path / "config.json")]) == 2
            assert f"ssim window_size {window} exceeds {window - 1}px maps" in (
                capsys.readouterr().err)
            assert not run_dir.exists() or not any(run_dir.iterdir())
        # Validation slices are never cropped, so they bound the window too:
        # 16px test slices under 32px training crops.
        data = tmp_path / "data"
        for split, pid, size in (("train", "p000", 32), ("test", "p001", 16)):
            os.makedirs(data / split)
            for kind in ("low", "full"):
                write_volume(str(data / split / f"{pid}_{kind}.hqiv"),
                             np.ones((4, size, size), np.float32))
        cfg = make_config(str(data), run_dir)
        cfg.data.crop = 32
        cfg.ssim = SsimParams(window_size=17)
        with pytest.raises(ConfigError, match="exceeds 16px maps"):
            train(cfg)
        assert not any(run_dir.iterdir())

    @pytest.mark.parametrize("argv", [
        ["train", "--resume", "{dir}"],
        ["eval", "--checkpoint", "{dir}"],
        ["reconstruct", "--checkpoint", "{last}", "--input", "{dir}"],
        ["generate", "--out", "{file}"],
        ["train", "--out", "{file}"],
    ], ids=["resume-dir", "checkpoint-dir", "input-dir", "generate-out-file",
            "train-out-file"])
    def test_os_error_is_data_error(self, argv, run, data_dir, tmp_path, capsys):
        a_file = tmp_path / "a_file"
        a_file.write_bytes(b"")
        cfg_path = self._write_config(tmp_path, data_dir, str(tmp_path / "run"))
        paths = {"dir": str(tmp_path), "file": str(a_file), "last": run.last_path}
        assert main([a.format(**paths) for a in argv] + ["--config", cfg_path]) == 3
        assert "data error: [Errno" in capsys.readouterr().err

    def test_resume_over_malformed_log_is_data_error(self, run, data_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(os.path.dirname(run.last_path), run_dir)
        cfg_path = self._write_config(tmp_path, data_dir, str(run_dir), epochs=1)
        resume = str(run_dir / "epoch_001.hqic")
        with open(run_dir / "loss_log.csv", "a") as f:  # a row a resume would drop
            f.write("99,1,0.5,0.1,0.4,0.000\n")
        for name, row in (("loss_log.csv", "one,0,0.5,0.1,0.4,0.000\n"),
                          ("val_log.csv", "epoch0,0.5\n")):
            with open(run_dir / name, "a") as f:
                f.write(row)
            logs = {n: (run_dir / n).read_bytes() for n in ("loss_log.csv", "val_log.csv")}
            assert main(["train", "--config", cfg_path, "--resume", resume]) == 3
            assert f"cannot resume from log {run_dir / name}" in capsys.readouterr().err
            assert {n: (run_dir / n).read_bytes() for n in logs} == logs
            (run_dir / name).write_bytes(logs[name].replace(row.encode(), b""))

    def test_data_error_exit_code(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, str(tmp_path / "nodata"),
                                      str(tmp_path / "run"))
        assert main(["train", "--config", cfg_path]) == 3
        assert main(["eval", "--config", cfg_path,
                     "--checkpoint", str(tmp_path / "missing.hqic")]) == 3
        capsys.readouterr()

    def test_invalid_adam_settings_are_config_error(self, data_dir, tmp_path, capsys):
        good = make_config(data_dir, tmp_path / "run").to_dict()
        path = tmp_path / "config.json"
        betas = "beta1 and beta2 must be in [0, 1)"
        lr = "lr must be finite and > 0"
        for key, value, message in (("lr", 0.0, lr), ("lr", float("inf"), lr),
                                    ("beta1", 1.5, betas), ("beta1", -0.1, betas),
                                    ("beta2", 1.0, betas), ("epsilon", -1.0, "epsilon must be > 0"),
                                    ("epsilon", 0.0, "epsilon must be > 0")):
            path.write_text(json.dumps(dict(good, optimizer=dict(good["optimizer"],
                                                                 **{key: value}))))
            assert main(["train", "--config", str(path)]) == 2
            assert f"invalid RunConfig.optimizer: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run" / "loss_log.csv").exists()

    def test_volume_under_three_slices_is_data_error(self, run, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        for split, pid in (("train", "p000"), ("test", "p002")):
            for dose in ("low", "full"):
                path = str(data / split / f"{pid}_{dose}.hqiv")
                write_volume(path, read_volume(path)[:2], manifest=read_manifest(path))
        cfg_path = self._write_config(tmp_path, str(data), str(tmp_path / "run"))
        assert main(["train", "--config", cfg_path]) == 3
        assert "p000: 2 slices; slice triplets need >= 3" in capsys.readouterr().err
        assert main(["eval", "--checkpoint", run.last_path, "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 3
        assert "p002: 2 slices; slice triplets need >= 3" in capsys.readouterr().err

    def test_reconstruct_under_three_slices_is_data_error(self, run, data_dir, tmp_path,
                                                          capsys):
        src = str(tmp_path / "short_low.hqiv")
        write_volume(src, read_volume(os.path.join(data_dir, "test", "p002_low.hqiv"))[:2])
        out = tmp_path / "recon"
        assert main(["reconstruct", "--checkpoint", run.last_path, "--input", src,
                     "--out", str(out)]) == 3
        assert "has 2 slices; reconstruction needs >= 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("h,w", [(0, 0), (16, 0)])
    def test_reconstruct_slices_under_16_are_data_error(self, run, tmp_path, capsys, h, w):
        # 0 divides by 16, but no conv fits a side of 0.
        src = str(tmp_path / "empty_low.hqiv")
        write_volume(src, np.zeros((5, h, w), np.float32))
        out = tmp_path / "recon"
        assert main(["reconstruct", "--checkpoint", run.last_path, "--input", src,
                     "--out", str(out)]) == 3
        assert f"slices are {h}x{w}; the model needs sizes divisible by 16 and >= 16" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_low_and_full_slice_counts_differ_is_data_error(self, run, data_dir, tmp_path,
                                                            capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        path = str(data / "test" / "p002_full.hqiv")
        write_volume(path, read_volume(path)[:3], manifest=read_manifest(path))
        assert main(["eval", "--checkpoint", run.last_path, "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 3
        assert "p002: low volume (4, 32, 32) vs full volume (3, 32, 32)" in (
            capsys.readouterr().err)

    def test_checkpoint_shorter_than_prefix_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "short.hqic"
        bad.write_bytes(b"HQIC\x00")
        assert main(["eval", "--checkpoint", str(bad), "--out", str(tmp_path / "eval")]) == 3
        assert "5 bytes is shorter than the 10-byte prefix" in capsys.readouterr().err

    def test_low_dose_equal_to_full_dose_reports_psnr_cap(self, run, data_dir, tmp_path,
                                                          capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        low = str(data / "test" / "p002_low.hqiv")
        shutil.copy(str(data / "test" / "p002_full.hqiv"), low)
        out = tmp_path / "eval"
        # An exact low-dose slice scores the PSNR cap, which report.json holds.
        assert main(["eval", "--checkpoint", run.last_path, "--data", str(data),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["low_dose"]["per_image"]["psnr_db"] == [PSNR_CAP_DB] * 2
        assert report["low_dose"]["psnr_db"] == {"mean": PSNR_CAP_DB, "std": 0.0}
        assert report["low_dose"]["l1"]["mean"] == 0.0
        assert all(np.isfinite(v) for rep in (report["low_dose"], report["model"])
                   for values in rep["per_image"].values() for v in values)
        assert np.isfinite(report["delta"]["psnr_db"])

    def test_reference_slice_without_positive_value_is_data_error(self, run, data_dir,
                                                                   tmp_path, capsys,
                                                                   monkeypatch):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        for kind in ("low", "full"):  # p003, the last patient, holds the bad slice
            shutil.copy(data / "test" / f"p002_{kind}.hqiv", data / "test" / f"p003_{kind}.hqiv")
        path = str(data / "test" / "p003_full.hqiv")
        full = read_volume(path).copy()
        full[2] = 0.0
        write_volume(path, full)
        predicted = []
        monkeypatch.setattr(trainer, "_predict", lambda *args: predicted.append(args))
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", run.last_path, "--data", str(data),
                     "--out", str(out)]) == 3
        assert "p003: full-dose slice 2 has no positive value" in capsys.readouterr().err
        assert not (out / "report.txt").exists() and not (out / "report.json").exists()
        assert predicted == []  # no forward ran

    def test_mixed_slice_sizes_are_data_error(self, run, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        other = tmp_path / "other"
        generate_dataset(str(other), SyntheticSpec(n_train=3, n_test=1, n_slices=4, size=48,
                                                   n_views=24, n_detectors=71), seed=0)
        for name in os.listdir(other / "test"):  # p003 joins p002 in the test split
            shutil.copy(other / "test" / name, data / "test" / name)
        run_dir = tmp_path / "run"
        cfg = make_config(str(data), run_dir)
        cfg.batch_size = 3  # a validation batch holds slices of both patients
        cfg_path = str(tmp_path / "config.json")
        cfg.to_json(cfg_path)
        assert main(["train", "--config", cfg_path]) == 3
        assert "slices of sizes [(32, 32), (48, 48)] cannot share a batch" in (
            capsys.readouterr().err)
        assert not run_dir.exists() or not any(run_dir.iterdir())
        # eval starts a new batch where the slice size changes.
        assert main(["eval", "--checkpoint", run.last_path, "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 0
        capsys.readouterr()

    def test_unopenable_val_log_leaks_no_handle(self, data_dir, tmp_path):
        run_dir = tmp_path / "run"
        (run_dir / "val_log.csv").mkdir(parents=True)
        log = LOG_HEADER + "\n1,0,0.5,0.1,0.4,0.000\n"
        (run_dir / "loss_log.csv").write_text(log)
        cfg_path = self._write_config(tmp_path, data_dir, str(run_dir))
        src = os.path.dirname(os.path.dirname(hqinet.__file__))
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-m", "hqinet.cli", "train", "--config", cfg_path],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
        assert proc.returncode == 3, proc.stderr
        assert "val_log.csv" in proc.stderr and "ResourceWarning" not in proc.stderr
        assert (run_dir / "loss_log.csv").read_text() == log

    def test_patient_in_both_splits_is_data_error(self, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        for name in os.listdir(data / "train"):
            if name.startswith("p000_"):
                shutil.copy(data / "train" / name, data / "test" / name)
        run_dir = tmp_path / "run"
        cfg_path = self._write_config(tmp_path, str(data), str(run_dir))
        assert main(["train", "--config", cfg_path]) == 3
        assert "patients ['p000'] are in both splits" in capsys.readouterr().err
        assert not run_dir.exists() or not any(run_dir.iterdir())

    def test_empty_train_split_is_data_error(self, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        for name in os.listdir(data / "train"):
            os.remove(data / "train" / name)
        run_dir = tmp_path / "run"
        cfg_path = self._write_config(tmp_path, str(data), str(run_dir))
        assert main(["train", "--config", cfg_path]) == 3
        assert "no volumes found" in capsys.readouterr().err
        assert not run_dir.exists() or not any(run_dir.iterdir())

    def test_malformed_checkpoint_header_exit_code(self, run, data_dir, tmp_path, capsys):
        bad = str(tmp_path / "bad.hqic")

        def write(mutate):
            _rewrite_header(run.last_path, bad, mutate)

        for mutate in (lambda h: h.pop("buffers"),
                       lambda h: h["params"][0].__setitem__(1, [-1]),
                       lambda h: h["params"][0].__setitem__(2, "<i4"),
                       lambda h: h["buffers"][0].pop(),
                       lambda h: h["rng"].__setitem__("bit_generator", "MT19937"),
                       lambda h: h["rng"].__setitem__("state", 5),
                       lambda h: h.__setitem__("epoch", 1.0),
                       lambda h: h.__setitem__("step", -1),
                       lambda h: h.__setitem__("best_val", "0.5")):
            write(mutate)
            with pytest.raises(CheckpointError):
                load_checkpoint(bad)
        cfg_path = self._write_config(tmp_path, data_dir, str(tmp_path / "resumed"), epochs=1)
        # json reads these tokens, but a resumed run must compare against a
        # finite best value or none.
        for value in (math.nan, math.inf, -math.inf):
            write(lambda h: h.__setitem__("best_val", value))
            with pytest.raises(CheckpointError):
                load_checkpoint(bad)
            assert main(["train", "--config", cfg_path, "--resume", bad]) == 3, value
            assert "header" in capsys.readouterr().err
        write(lambda h: h.pop("buffers"))
        assert main(["eval", "--checkpoint", bad, "--out", str(tmp_path / "eval")]) == 3
        assert "header" in capsys.readouterr().err
        for mutate in (lambda h: h["rng"].__setitem__("bit_generator", "MT19937"),
                       lambda h: h.__setitem__("epoch", "1")):
            write(mutate)
            assert main(["train", "--config", cfg_path, "--resume", bad]) == 3
            assert "header" in capsys.readouterr().err

    def test_undecodable_config_in_checkpoint_exit_code(self, run, data_dir, tmp_path,
                                                         capsys):
        # The fault is in the checkpoint, not the user's config: a data error.
        bad = str(tmp_path / "bad.hqic")
        low = os.path.join(data_dir, "test", "p002_low.hqiv")
        cfg_path = self._write_config(tmp_path, data_dir, str(tmp_path / "resumed"), epochs=1)
        for mutate in (lambda c: c.__setitem__("batch_size", 0),
                       lambda c: c.__setitem__("unknown_key", 1),
                       lambda c: c["model"].__setitem__("width_multiplier", -1.0)):
            _rewrite_header(run.last_path, bad, lambda h: mutate(h["config"]))
            with pytest.raises(CheckpointError, match="run config"):
                load_checkpoint(bad)
            for argv in (["eval", "--checkpoint", bad, "--data", data_dir,
                          "--out", str(tmp_path / "eval")],
                         ["reconstruct", "--checkpoint", bad, "--input", low,
                          "--out", str(tmp_path / "recon")],
                         ["train", "--config", cfg_path, "--resume", bad]):
                assert main(argv) == 3, argv
                assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists() and not (tmp_path / "recon").exists()

    def test_out_of_range_adam_header_exit_code(self, run, data_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(os.path.dirname(run.last_path), run_dir)
        logs = {n: (run_dir / n).read_bytes() for n in ("loss_log.csv", "val_log.csv")}
        # Two epochs, so a resume from the epoch-1 checkpoint would train.
        cfg_path = self._write_config(tmp_path, data_dir, str(run_dir), epochs=2)
        bad = str(tmp_path / "bad.hqic")
        for key, value in (("lr", 0.0), ("lr", -1.0), ("lr", float("inf")),
                           ("beta1", 1.0), ("beta1", -0.1),
                           ("beta2", 1.5), ("epsilon", 0.0), ("epsilon", -1e-8)):
            _rewrite_header(run.last_path, bad,
                            lambda h: h["config"]["optimizer"].__setitem__(key, value))
            with pytest.raises(CheckpointError):
                load_checkpoint(bad)
            assert main(["train", "--config", cfg_path, "--resume", bad]) == 3, (key, value)
            assert "header" in capsys.readouterr().err
            assert {n: (run_dir / n).read_bytes() for n in logs} == logs

    def test_misshaped_buffer_checkpoint_exit_code(self, run, data_dir, tmp_path, capsys):
        # A buffer entry with another shape and dtype but the same byte
        # count loads, and restoring it is refused.
        name = "stem.unit1.bn.running_mean"

        def halve(header):
            entry = next(e for e in header["buffers"] if e[0] == name)
            assert entry[2] == "<f4" and entry[1][0] % 2 == 0
            entry[1:] = [[entry[1][0] // 2], "<f8"]

        bad = _rewrite_header(run.last_path, tmp_path / "bad.hqic", halve)
        state = load_checkpoint(bad)
        with pytest.raises(CheckpointShapeError, match=f"buffer {name}"):
            restore_model_state(build_model(state.config.model), state)
        low = os.path.join(data_dir, "test", "p002_low.hqiv")
        assert main(["reconstruct", "--checkpoint", bad, "--input", low,
                     "--out", str(tmp_path / "recon")]) == 3
        assert f"buffer {name}" in capsys.readouterr().err

    def test_train_without_best_checkpoint_says_so(self, data_dir, tmp_path, capsys,
                                                   monkeypatch):
        # A non-finite validation loss is never best.
        monkeypatch.setattr(trainer, "_validation_loss", lambda model, triplets, config: math.nan)
        cfg_path = self._write_config(tmp_path, data_dir, str(tmp_path / "run"), epochs=1)
        assert main(["train", "--config", cfg_path]) == 0
        assert "no best checkpoint" in capsys.readouterr().out
        assert not (tmp_path / "run" / "best.hqic").exists()

    def test_nonfinite_model_output_is_numeric_error(self, run, data_dir, tmp_path,
                                                     capsys):
        state = load_checkpoint(run.last_path)
        model = build_model(state.config.model)
        restore_model_state(model, state)
        optimizer = Adam(list(model.named_parameters()), lr=1e-3)
        restore_optimizer_state(optimizer, state)
        dict(model.named_parameters())["head.out.weight"].data[0, 0, 0, 0] = np.nan
        bad = str(tmp_path / "nan.hqic")
        save_checkpoint(bad, model, optimizer, state.config.to_dict(), state.epoch, state.step,
                        state.rng_state, state.best_val)
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", bad, "--data", data_dir,
                     "--out", str(out)]) == 4
        assert "non-finite model output for p002 slice 1" in capsys.readouterr().err
        assert not (out / "report.txt").exists() and not (out / "report.json").exists()
        low = os.path.join(data_dir, "test", "p002_low.hqiv")
        recon = tmp_path / "recon"
        assert main(["reconstruct", "--checkpoint", bad, "--input", low,
                     "--out", str(recon)]) == 4
        assert f"non-finite model output for {low} slice 1" in capsys.readouterr().err
        assert not (recon / "recon.hqiv").exists()

    @staticmethod
    def _failing_atomic_write(monkeypatch):
        """Make every trainer artifact write fail after writing part of its file."""
        real = trainer.atomic_write

        @contextlib.contextmanager
        def failing(path, mode="wb"):
            with real(path, mode) as f:
                f.write(b"part" if "b" in mode else "part")
                raise OSError("disk full")
            yield f  # unreachable; makes this a generator

        monkeypatch.setattr(trainer, "atomic_write", failing)

    def test_failed_report_write_keeps_previous_reports(self, run, data_dir, tmp_path,
                                                        capsys, monkeypatch):
        out = tmp_path / "eval"
        argv = ["eval", "--checkpoint", run.last_path, "--data", data_dir, "--out", str(out)]
        assert main(argv) == 0
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert set(before) == {"report.txt", "report.json"}
        json.loads(before["report.json"])
        self._failing_atomic_write(monkeypatch)
        assert main(argv) == 3
        assert "disk full" in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    def test_failed_pgm_write_keeps_previous_slices(self, run, data_dir, tmp_path, capsys,
                                                   monkeypatch):
        out = tmp_path / "recon"
        low = os.path.join(data_dir, "test", "p002_low.hqiv")
        argv = ["reconstruct", "--checkpoint", run.last_path, "--input", low,
                "--out", str(out)]
        assert main(argv) == 0
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert "slice_000.pgm" in before
        self._failing_atomic_write(monkeypatch)
        assert main(argv) == 3
        assert "disk full" in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    def test_numeric_error_exit_code(self, data_dir, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, data_dir, str(tmp_path / "run"),
                                      epochs=3, lr=1e25)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", cfg_path]) == 4
        assert "numeric failure" in capsys.readouterr().err

    def test_seed_override_changes_data(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, str(tmp_path / "d0"),
                                      str(tmp_path / "run"))
        assert main(["generate", "--config", cfg_path, "--out",
                     str(tmp_path / "d1"), "--seed", "5"]) == 0
        assert main(["generate", "--config", cfg_path, "--out",
                     str(tmp_path / "d2"), "--seed", "5"]) == 0
        assert main(["generate", "--config", cfg_path, "--out",
                     str(tmp_path / "d3"), "--seed", "6"]) == 0
        capsys.readouterr()
        a = (tmp_path / "d1" / "train" / "p000_low.hqiv").read_bytes()
        b = (tmp_path / "d2" / "train" / "p000_low.hqiv").read_bytes()
        c = (tmp_path / "d3" / "train" / "p000_low.hqiv").read_bytes()
        assert a == b
        assert a != c

    @pytest.mark.parametrize("argv", [
        ["eval", "--checkpoint", "c.hqic", "--force"],
        ["reconstruct", "--checkpoint", "c.hqic", "--input", "v.hqiv", "--seed", "1"],
        ["generate", "--strict-determinism"],
    ], ids=["eval-force", "reconstruct-seed", "generate-strict"])
    def test_flag_a_verb_does_not_read_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
