"""Package acceptance gate: one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured values and
the tolerance they are held to (run with -s to see the lines as they
appear). Tests are ordered cheap to expensive; the final two train real
models and dominate the runtime (roughly seven minutes on a desktop CPU),
so they carry the ``slow`` marker: ``-m "not slow"`` leaves them out.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from hqinet import tensor as T
from hqinet.checkpoint import (CheckpointMagicError, CheckpointTruncatedError,
                               CheckpointVersionError, load_checkpoint,
                               restore_model_state, restore_optimizer_state,
                               save_checkpoint)
from hqinet.ctsim import apply_low_dose, fbp, generate_phantom_volume, radon
from hqinet.dataset import (SyntheticSpec, build_triplets, generate_dataset,
                            generate_patient_pair)
from hqinet.losses import SsimParams, l1_loss, loss_terms, ssim
from hqinet.metrics import l1_error, mutual_information, nmse, psnr
from hqinet.network import ModelConfig, build_model, parameter_count
from hqinet.optim import Adam
from hqinet.runconfig import DataConfig, OptimizerConfig, RunConfig
from hqinet.tensor import Tensor
from hqinet.trainer import evaluate, train
from hqinet.volume_io import (VolumeMagicError, VolumeShapeError,
                              VolumeVersionError, read_volume, write_volume)

from _gradcheck import max_rel_error
from _oracles import (conv2d_naive, gaussian_window_naive, l1_naive, mi_naive,
                      nmse_naive, psnr_naive, ssim_windowed_naive)
from test_network import GRADCHECK_PROBES, scaled_tiny_model


def _gate(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def _dten(shape, seed, lo=-1.0, hi=1.0, away=0.0):
    """Double-precision leaf tensor; ``away`` pushes values off zero so
    finite differences never straddle a kink."""
    data = np.random.default_rng(seed).uniform(lo, hi, size=shape)
    if away:
        data = np.sign(data) * (np.abs(data) + away)
    return Tensor(data, requires_grad=True)


def _rel(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-12))


def test_gradient_suite():
    t0 = time.perf_counter()

    def quad(out):
        return T.tsum(T.mul(out, out))

    a = _dten((2, 3, 4, 4), 1)
    b = _dten((2, 3, 4, 4), 2)
    pos = _dten((2, 3, 4, 4), 3, lo=0.5, hi=1.5)
    kink = _dten((2, 3, 4, 4), 4, away=0.2)
    den = _dten((2, 3, 4, 4), 5, away=0.5)
    x = _dten((2, 3, 8, 8), 6)
    w = _dten((4, 3, 3, 3), 7)
    bias = _dten((4,), 8)
    gate_c = _dten((2, 3, 1, 1), 9)
    gate_s = _dten((2, 1, 4, 4), 10)

    cases = [
        ("add", lambda: quad(T.add(a, b)), [a, b]),
        ("sub", lambda: quad(T.sub(a, b)), [a, b]),
        ("mul", lambda: quad(T.mul(a, b)), [a, b]),
        ("div", lambda: quad(T.div(a, den)), [a, den]),
        ("neg", lambda: quad(T.neg(a)), [a]),
        ("sqrt", lambda: quad(T.sqrt(pos)), [pos]),
        ("absolute", lambda: quad(T.absolute(kink)), [kink]),
        ("relu", lambda: quad(T.relu(kink)), [kink]),
        ("sigmoid", lambda: quad(T.sigmoid(a)), [a]),
        ("reshape", lambda: quad(T.reshape(a, (2, 48))), [a]),
        ("tsum", lambda: quad(T.tsum(a, axis=(2, 3), keepdims=True)), [a]),
        ("tmean", lambda: quad(T.tmean(a, axis=1)), [a]),
        ("conv2d", lambda: quad(T.conv2d(x, w, bias, stride=2, zero_padding=1)),
         [x, w, bias]),
        ("bilinear_upsample", lambda: quad(T.bilinear_upsample(a, 7, 9)), [a]),
        ("global_avg_pool", lambda: quad(T.global_avg_pool(a)), [a]),
        ("concat_channels", lambda: quad(T.concat_channels(a, b)), [a, b]),
        ("mul_broadcast_channel", lambda: quad(T.mul_broadcast(a, gate_c)),
         [a, gate_c]),
        ("mul_broadcast_spatial", lambda: quad(T.mul_broadcast(a, gate_s)),
         [a, gate_s]),
    ]
    per_op = 0.0
    per_op_name = ""
    for name, fn, tensors in cases:
        err = max_rel_error(fn, tensors, eps=1e-5, max_entries=12)
        if err > per_op:
            per_op, per_op_name = err, name

    m = scaled_tiny_model(seed=6)
    named = dict(m.named_parameters())
    probes = [named[k] for k in GRADCHECK_PROBES]
    xin = Tensor(np.random.default_rng(26).normal(size=(2, 3, 16, 16)),
                 requires_grad=True)
    e2e = max_rel_error(lambda: T.tmean(T.mul(m(xin), m(xin))), probes + [xin],
                        eps=1e-5, max_entries=4)

    elapsed = time.perf_counter() - t0
    ok = per_op < 1e-4 and e2e < 1e-4 and elapsed < 120.0
    _gate("gradient suite", ok,
          f"central differences at step 1e-5, worst op {per_op:.2e} ({per_op_name}), "
          f"end-to-end network {e2e:.2e} (tol 1e-4), {elapsed:.0f}s (budget 120s)")


def test_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0

    for st, dil, g, pad, k in [(1, 1, 1, 0, 3), (2, 1, 1, 1, 3), (1, 2, 2, 2, 3),
                               (1, 1, 4, 1, 3), (2, 1, 2, 2, 5), (1, 1, 1, 0, 1)]:
        x = rng.normal(size=(2, 4, 8, 8))
        w = rng.normal(size=(4, 4 // g, k, k))
        b = rng.normal(size=(4,))
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=st, dilation=dil,
                       groups=g, zero_padding=pad).data
        want = conv2d_naive(x, w, b, stride=st, dilation=dil, groups=g,
                            padding=pad)
        worst = max(worst, _rel(got, want))

    ximg = rng.uniform(0.0, 1.0, size=(8, 8))
    yimg = rng.uniform(0.0, 1.0, size=(8, 8))
    p = SsimParams(window_size=5, window_sigma=1.5)
    got = float(ssim(ximg, yimg, p).data)
    want = ssim_windowed_naive(ximg, yimg, gaussian_window_naive(5, 1.5),
                               p.c1, p.c2)
    worst = max(worst, abs(got - want) / abs(want))

    worst = max(worst, _rel(float(l1_loss(ximg, yimg).data),
                            l1_naive(ximg, yimg)))
    worst = max(worst, _rel(l1_error(ximg, yimg), l1_naive(ximg, yimg)))
    worst = max(worst, _rel(nmse(ximg, yimg), nmse_naive(ximg, yimg)))
    for mode in ("standard", "root_mse"):
        worst = max(worst, _rel(psnr(ximg, yimg, mode=mode),
                                psnr_naive(ximg, yimg, mode=mode)))
    worst = max(worst, _rel(mutual_information(ximg, yimg),
                            mi_naive(ximg, yimg)))

    _gate("oracle equivalence", worst < 1e-10,
          f"conv2d/SSIM/L1/NMSE/PSNR/MI vs direct-summation oracles on 8x8 "
          f"doubles, worst relative deviation {worst:.2e} (tol 1e-10)")


def test_loss_identities():
    rng = np.random.default_rng(11)
    worst_ident = 0.0
    worst_comp = 0.0
    for _ in range(3):
        same = rng.uniform(0.0, 1.0, size=(2, 1, 16, 16))
        worst_ident = max(worst_ident,
                          abs(float(loss_terms(same, same)[0].data)))
        worst_ident = max(worst_ident,
                          abs(float(ssim(same, same).data) - 1.0))
        a = rng.uniform(0.0, 1.0, size=(2, 1, 16, 16))
        b = rng.uniform(0.0, 1.0, size=(2, 1, 16, 16))
        whole = float(loss_terms(a, b)[0].data)
        composed = (0.85 * float(l1_loss(a, b).data)
                    + 0.15 * (1.0 - float(ssim(a, b).data)))
        worst_comp = max(worst_comp, abs(whole - composed))
    ok = worst_ident < 1e-12 and worst_comp < 1e-12
    _gate("loss identities", ok,
          f"loss(I,I) and 1-ssim(I,I) within {worst_ident:.2e} of 0, "
          f"0.85/0.15 composition within {worst_comp:.2e} (tol 1e-12)")


def test_architecture_contract():
    cfg = ModelConfig.desk()
    model = build_model(cfg, seed=0)
    model.eval()
    xin = Tensor(np.random.default_rng(0).normal(
        size=(2, 3, 64, 64)).astype(np.float32))
    with T.no_grad():
        enc = model.encode(xin)
        s0, s1, s2, s3 = enc.skips
        d1 = model.decoder1(enc.bottom, s3)
        d2 = model.decoder2(d1, s2)
        d3 = model.decoder3(d2, s1)
        d4 = model.decoder4(d3, T.bilinear_upsample(s0, 64, 64))
        out = model.head((d1, d2, d3, d4), 64, 64)
    enc_sizes = [t.data.shape[2] for t in (s1, s2, s3, enc.bottom)]
    dec_sizes = [t.data.shape[2] for t in (d1, d2, d3, d4)]
    shapes_ok = (enc_sizes == [32, 16, 8, 4] and dec_sizes == [8, 16, 32, 64]
                 and out.data.shape == (2, 1, 64, 64))
    n1 = build_model(cfg, seed=0).num_parameters()
    n2 = build_model(cfg, seed=123).num_parameters()
    census_ok = n1 == n2 == parameter_count(cfg) == 64748
    _gate("architecture contract", shapes_ok and census_ok,
          f"64x64 input: encoder maps {enc_sizes} (strides 2/4/8/16), decoder "
          f"maps {dec_sizes} (strides 8/4/2/1), output {tuple(out.data.shape)}; "
          f"parameter count {n1} (pinned 64748, stable across builds)")


def test_simulation_sanity():
    spec = SyntheticSpec()
    phantom = generate_phantom_volume([0, 0], 1, spec.size,
                                      spec.n_ellipses_range)[0].image
    sino = radon(phantom[None], spec.n_views, spec.n_detectors)
    clean_db = psnr(fbp(sino, spec.size)[0], phantom)
    dose_db = []
    for i0 in (1e3, 1e4, 1e5, 1e6):
        noisy = apply_low_dose(sino[0], i0, [0, 17])
        dose_db.append(psnr(fbp(noisy[None], spec.size)[0], phantom))
    monotone = all(lo < hi for lo, hi in zip(dose_db, dose_db[1:]))
    ok = clean_db >= 25.0 and monotone
    ladder = "/".join(f"{v:.2f}" for v in dose_db)
    _gate("simulation sanity", ok,
          f"noise-free 128px/180-view roundtrip {clean_db:.2f} dB (needs >= 25); "
          f"PSNR over dose 1e3..1e6 = {ladder} dB, strictly increasing: {monotone}")


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("accdata") / "data")
    generate_dataset(root, SyntheticSpec(n_train=2, n_test=1, n_slices=4,
                                         size=32, n_views=24, n_detectors=47),
                     seed=0)
    return root


def _tiny_config(data_root, out_dir, epochs):
    return RunConfig(batch_size=2, epochs=epochs, seed=0,
                     optimizer=OptimizerConfig(lr=1e-3),
                     data=DataConfig(root=data_root, crop=16),
                     output_dir=str(out_dir), strict_determinism=True)


def test_determinism_and_resume(tiny_data, tmp_path):
    a = train(_tiny_config(tiny_data, tmp_path / "a", 3))
    b = train(_tiny_config(tiny_data, tmp_path / "b", 3))
    log_a = Path(a.log_path).read_bytes()
    identical = log_a == Path(b.log_path).read_bytes()

    part = train(_tiny_config(tiny_data, tmp_path / "c", 1))
    train(_tiny_config(tiny_data, tmp_path / "c", 3), resume=part.last_path)
    resumed = (tmp_path / "c" / "loss_log.csv").read_bytes()
    resume_ok = resumed == log_a

    state_a = load_checkpoint(a.last_path)
    state_c = load_checkpoint(tmp_path / "c" / "last.hqic")
    params_ok = all(np.array_equal(arr, state_c.params[name])
                    for name, arr in state_a.params.items())

    ok = identical and resume_ok and params_ok
    _gate("determinism and resume", ok,
          f"same-seed strict loss logs byte-identical: {identical}; "
          f"interrupt+resume log matches uninterrupted: {resume_ok}; "
          f"final parameters bit-equal: {params_ok}")


def test_format_robustness(tmp_path):
    vol = np.random.default_rng(5).normal(size=(3, 8, 8)).astype(np.float32)
    vol[0, 0, :4] = [0.0, -0.0, np.inf, -np.inf]
    vol[0, 1, 0] = np.nan
    vpath = str(tmp_path / "v.hqiv")
    write_volume(vpath, vol)
    volume_ok = np.array_equal(read_volume(vpath).view(np.uint32),
                               vol.view(np.uint32))

    raw = Path(vpath).read_bytes()

    def mutated(mut):
        m = bytearray(raw)
        mut(m)
        bad = str(tmp_path / "bad.hqiv")
        with open(bad, "wb") as f:
            f.write(bytes(m))
        return bad

    def set_magic(m):
        m[:4] = b"XXXX"

    def set_version(m):
        m[4:6] = (9).to_bytes(2, "little")

    def set_shape(m):
        m[8:12] = (2).to_bytes(4, "little")  # header says 2 slices, payload has 3

    errors_ok = True
    for mut, exc in ((set_magic, VolumeMagicError),
                     (set_version, VolumeVersionError),
                     (set_shape, VolumeShapeError)):
        try:
            read_volume(mutated(mut))
            errors_ok = False
        except exc:
            pass

    model = build_model(ModelConfig.desk(), seed=3)
    opt = Adam(list(model.named_parameters()), lr=1e-3)
    grng = np.random.default_rng(9)
    for _, p in model.named_parameters():
        p.grad = grng.normal(size=p.data.shape).astype(np.float32)
    opt.step()
    ck1 = str(tmp_path / "one.hqic")
    save_checkpoint(ck1, model, opt, RunConfig.desk().to_dict(), epoch=1, step=1,
                    rng_state=np.random.default_rng(4).bit_generator.state,
                    best_val=0.5)
    state = load_checkpoint(ck1)
    model2 = build_model(ModelConfig.desk(), seed=8)
    opt2 = Adam(list(model2.named_parameters()), lr=1e-3)
    restore_model_state(model2, state)
    restore_optimizer_state(opt2, state)
    ck2 = str(tmp_path / "two.hqic")
    save_checkpoint(ck2, model2, opt2, state.config, state.epoch, state.step,
                    state.rng_state, state.best_val)
    ckpt_raw = Path(ck1).read_bytes()
    ckpt_ok = ckpt_raw == Path(ck2).read_bytes()

    def ckpt_mutated(mut):
        m = bytearray(ckpt_raw)
        mut(m)
        bad = str(tmp_path / "bad.hqic")
        with open(bad, "wb") as f:
            f.write(bytes(m))
        return bad

    def ck_magic(m):
        m[:4] = b"ZZZZ"

    def ck_version(m):
        m[4:6] = (9).to_bytes(2, "little")

    for mut, exc in ((ck_magic, CheckpointMagicError),
                     (ck_version, CheckpointVersionError)):
        try:
            load_checkpoint(ckpt_mutated(mut))
            errors_ok = False
        except exc:
            pass
    try:
        load_checkpoint(ckpt_mutated(lambda m: m.__delitem__(slice(-64, None))))
        errors_ok = False
    except CheckpointTruncatedError:
        pass

    ok = volume_ok and ckpt_ok and errors_ok
    _gate("format robustness", ok,
          f"volume round trip bit-exact (incl. inf/nan/-0): {volume_ok}; "
          f"checkpoint save-load-save byte-identical: {ckpt_ok}; corrupted "
          f"magic/version/shape raise their distinct errors: {errors_ok}")


@pytest.mark.slow
def test_overfit_smoke(tmp_path):
    t0 = time.perf_counter()
    spec = SyntheticSpec(n_train=1, n_test=1, n_slices=10, size=64,
                         n_views=60, n_detectors=93)
    low, full, _ = generate_patient_pair(spec, seed=0, patient_index=0)
    triplets = build_triplets(low, full, "p000")[:8]
    cfg = RunConfig(batch_size=4, epochs=250, seed=0,
                    optimizer=OptimizerConfig(lr=1e-3),
                    data=DataConfig(root="unused", crop=0),
                    output_dir=str(tmp_path / "run"), strict_determinism=True)
    result = train(cfg, triplets=triplets, val_triplets=[])
    rows = Path(result.log_path).read_text().splitlines()[1:]
    first = float(rows[0].split(",")[2])
    final = float(rows[-1].split(",")[2])
    elapsed = time.perf_counter() - t0
    ok = result.steps <= 500 and final < 0.25 * first and elapsed < 300.0
    _gate("overfit smoke", ok,
          f"8 fixed slices, loss {first:.4f} -> {final:.4f} in {result.steps} "
          f"steps (needs < 25% of initial within 500), {elapsed:.0f}s "
          f"(budget 300s)")


@pytest.mark.slow
def test_denoising_improvement(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    data_dir = str(root / "data")
    t0 = time.perf_counter()
    generate_dataset(data_dir, SyntheticSpec(), seed=0)
    cfg = RunConfig.desk()
    cfg.epochs = 240
    cfg.data.root = data_dir
    cfg.output_dir = str(root / "run")
    cfg.strict_determinism = True
    result = train(cfg)
    minutes = (time.perf_counter() - t0) / 60.0
    low_rep, model_rep = evaluate(result.best_path, data_dir, str(root / "eval"))
    d_psnr = model_rep.mean["psnr_db"] - low_rep.mean["psnr_db"]
    d_mi = model_rep.mean["mi"] - low_rep.mean["mi"]
    ok = d_psnr >= 2.0 and d_mi > 0.0 and minutes <= 30.0
    _gate("denoising improvement", ok,
          f"held-out PSNR {low_rep.mean['psnr_db']:.2f} -> "
          f"{model_rep.mean['psnr_db']:.2f} dB (delta {d_psnr:+.2f}, needs "
          f">= +2.00), MI delta {d_mi:+.4f} (needs > 0), generate+train "
          f"{minutes:.1f} min (budget 30)")
