"""One benchmark process: prepare a workload's inputs, or measure it.

    python3 perfbench/workloads.py setup   --workload W --seed N --dir D [--size toy]
    python3 perfbench/workloads.py measure --workload W --seed N --dir D --seconds S
                                           --trace 0|1 [--size toy]

``run.py`` starts each of these as a fresh process with the BLAS thread
count pinned in its environment. ``setup`` writes the inputs under D;
``measure`` calls the package entry point in a closed loop (one caller,
next call after the previous returns) until S seconds have passed, checks
every output outside the timed region, and writes D/result.json. Garbage
is collected before each call, so no call pays for the previous one's.
``peak_rss_mib`` is taken after the first call: one call in a fresh
process, as one CLI run makes. Later calls add heap fragmentation that
differs from run to run.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import hqinet  # noqa: E402
from hqinet.checkpoint import save_checkpoint  # noqa: E402
from hqinet.ctsim import generate_phantom_volume  # noqa: E402
from hqinet.dataset import SyntheticSpec, generate_dataset  # noqa: E402
from hqinet.network import build_model  # noqa: E402
from hqinet.optim import Adam  # noqa: E402
from hqinet.runconfig import DataConfig, RunConfig  # noqa: E402
from hqinet.trainer import evaluate, train  # noqa: E402

from tracer import Tracer  # noqa: E402

if not os.path.abspath(hqinet.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"imported hqinet from {hqinet.__file__}, not from {SRC}")

NPROC = len(os.sched_getaffinity(0))
HEADER = 20  # HQIV: magic, u16 version, u16 dtype, u32 n, h, w

# Workload sizes. "bench" is what BENCHMARK.json measures; "toy" is the
# self-test's. generate keeps the default geometry and at least nproc
# patients so a per-patient pool or a cached projector can show; train
# keeps the default 4:1 patient ratio and 128-pixel slices so validation
# keeps its share of epoch time, but projects only a few views to keep
# set-up short.
SIZES = {
    "bench": {
        "generate": dict(n_train=max(2, NPROC) - 1, n_test=1),
        "train": dict(n_train=4, n_test=1, n_views=6),
        "infer": dict(n_train=1, n_test=2, n_views=6),
        "crop": 64,
        "epochs": 3,
    },
    "toy": {
        "generate": dict(n_train=1, n_test=1, n_slices=4, size=32, n_views=24,
                         n_detectors=47),
        "train": dict(n_train=4, n_test=1, n_slices=4, size=32, n_views=24,
                      n_detectors=47),
        "infer": dict(n_train=1, n_test=2, n_slices=4, size=32, n_views=24,
                      n_detectors=47),
        "crop": 0,
        "epochs": 3,
    },
}


def read_hqiv(path):
    """Plain-numpy HQIV reader, independent of hqinet.volume_io."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw[:4].tobytes() != b"HQIV":
        raise ValueError(f"{path}: bad magic")
    n, h, w = (int(v) for v in raw[8:HEADER].view("<u4"))
    return raw[HEADER:].view("<f4").reshape(n, h, w)


def plain_psnr(pred, ref):
    p = np.asarray(pred, dtype=np.float64)
    r = np.asarray(ref, dtype=np.float64)
    peak = float(r.max())
    return 10.0 * math.log10(peak * peak / float(np.mean((p - r) ** 2)))


def environment():
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "hqinet": hqinet.__version__,
    }


# -- set-up ---------------------------------------------------------------------


def setup(workload, seed, work, size):
    sizes = SIZES[size]
    if workload == "generate":
        return  # generate's set-up is starting the interpreter and importing
    generate_dataset(os.path.join(work, "data"), SyntheticSpec(**sizes[workload]), seed)
    if workload == "infer":
        config = RunConfig.desk()
        model = build_model(config.model, seed=seed)
        opt = Adam(list(model.named_parameters()), lr=config.optimizer.lr)
        save_checkpoint(os.path.join(work, "model.hqic"), model, opt, config.to_dict(),
                        epoch=0, step=0,
                        rng_state=np.random.default_rng(seed).bit_generator.state)


# -- measured loops ---------------------------------------------------------------
#
# Each loop gets call(span_name, fn, *args) -> (fn's result, wall seconds)
# and returns run_call(i), which the timed loop calls until the deadline.
# run_call returns the call's items (slices, or training samples), its
# operations (slices, or training steps), its wall seconds and the
# operations its output checks failed.


def measure_generate(seed, work, size, call):
    spec = SyntheticSpec(**SIZES[size]["generate"])
    slices = (spec.n_train + spec.n_test) * spec.n_slices

    def run_call(i):
        out = os.path.join(work, f"gen{i}")
        _, dt = call("run.generate_dataset", generate_dataset, out, spec, seed)
        failed = check_generate(out, spec, seed)
        shutil.rmtree(out)
        return slices, slices, dt, failed
    return run_call, {}


def check_generate(out, spec, seed):
    """Failed slices: wrong shape, non-finite, or low dose not noisier.

    The reference is the seeded phantom; volumes are scaled back by the
    normalization their manifest records.
    """
    failed = 0
    for split, count, offset in (("train", spec.n_train, 0),
                                 ("test", spec.n_test, spec.n_train)):
        for k in range(count):
            pidx = offset + k
            base = os.path.join(out, split, f"p{pidx:03d}")
            try:
                low = read_hqiv(base + "_low.hqiv")
                full = read_hqiv(base + "_full.hqiv")
                with open(base + "_low.json") as f:
                    norm = json.load(f)["norm_max"]
            except (OSError, ValueError, KeyError):
                failed += spec.n_slices
                continue
            if low.shape != (spec.n_slices, spec.size, spec.size) or full.shape != low.shape:
                failed += spec.n_slices
                continue
            phantoms = generate_phantom_volume([seed, pidx], spec.n_slices, spec.size,
                                               spec.n_ellipses_range)
            for si, ph in enumerate(phantoms):
                ok = np.isfinite(low[si]).all() and np.isfinite(full[si]).all()
                ok = ok and (plain_psnr(low[si] * norm, ph.image)
                             < plain_psnr(full[si] * norm, ph.image))
                failed += not ok
    return failed


def measure_train(seed, work, size, call):
    sizes = SIZES[size]
    spec = sizes["train"]
    n_triplets = spec["n_train"] * (SyntheticSpec(**spec).n_slices - 2)
    state = {"log": None, "last_log": None, "loss_end": None}

    def run_call(i):
        config = RunConfig(epochs=sizes["epochs"], seed=seed,
                           data=DataConfig(root=os.path.join(work, "data"),
                                           crop=sizes["crop"]),
                           output_dir=os.path.join(work, f"train{i}"),
                           strict_determinism=True)
        result, dt = call("run.train", train, config)
        steps = result.steps
        with open(result.log_path, "rb") as f:
            log = f.read()
        failed, loss_end = check_train(log, steps)
        if state["log"] is None:
            state.update(log=log, loss_end=loss_end)
        elif log != state["log"]:
            failed = steps  # same inputs, same seed: the log must repeat exactly
        state["last_log"] = result.log_path
        return config.epochs * n_triplets, steps, dt, failed
    return run_call, state


def check_train(log, steps):
    """(failed steps, final-epoch mean loss): every loss finite and the
    final epoch's mean below the first epoch's."""
    rows = list(csv.DictReader(log.decode().splitlines()))
    by_epoch = {}
    failed = steps - len(rows)
    for row in rows:
        loss = float(row["loss"])
        if not math.isfinite(loss):
            failed += 1
        by_epoch.setdefault(int(row["epoch"]), []).append(loss)
    if not by_epoch:
        return steps, math.nan
    first = statistics.fmean(by_epoch[min(by_epoch)])
    last_rows = by_epoch[max(by_epoch)]
    last = statistics.fmean(last_rows)
    if not last < first:
        failed += len(last_rows)
    return min(failed, steps), last


def measure_infer(seed, work, size, call):
    data = os.path.join(work, "data")
    ckpt = os.path.join(work, "model.hqic")
    test_dir = os.path.join(data, "test")
    lows, fulls = [], []
    for name in sorted(os.listdir(test_dir)):
        if name.endswith("_low.hqiv"):
            low = read_hqiv(os.path.join(test_dir, name))
            full = read_hqiv(os.path.join(test_dir, name[:-len("_low.hqiv")] + "_full.hqiv"))
            lows.extend(low[1:-1])
            fulls.extend(full[1:-1])
    expected_psnr = [plain_psnr(lo, fu) for lo, fu in zip(lows, fulls)]
    slices = len(expected_psnr)

    def run_call(i):
        out = os.path.join(work, "eval")
        _, dt = call("run.evaluate", evaluate, ckpt, data, out)
        with open(os.path.join(out, "report.json")) as f:
            report = json.load(f)
        return slices, slices, dt, check_infer(report, expected_psnr)
    return run_call, {}


def check_infer(report, expected_psnr):
    """Failed slices: wrong slice count, a non-finite value, or a low-dose
    PSNR that differs from the plain-numpy one."""
    n = len(expected_psnr)
    rows = (report["low_dose"], report["model"])
    if any(r["n"] != n or len(r["per_image"]["psnr_db"]) != n for r in rows):
        return n
    failed = set()
    for r in rows:
        for key in ("l1", "nmse", "psnr_db", "mi"):
            if not (math.isfinite(r[key]["mean"]) and math.isfinite(r[key]["std"])):
                return n
            failed.update(j for j, v in enumerate(r["per_image"][key]) if not math.isfinite(v))
    for j, (got, want) in enumerate(zip(report["low_dose"]["per_image"]["psnr_db"],
                                        expected_psnr)):
        if not math.isclose(got, want, rel_tol=1e-9):
            failed.add(j)
    return len(failed)


LOOPS = {"generate": measure_generate, "train": measure_train, "infer": measure_infer}


def measure(workload, seed, work, size, seconds, trace):
    """Closed loop over the workload's entry point; writes work/result.json.

    With trace, a first call runs under tracemalloc alone for the memory
    peak (tracemalloc slows allocation-heavy code several-fold), then the
    span tracer is installed and the timed loop runs as without it.
    """
    tracer = Tracer() if trace else None

    def call(name, fn, *args):
        t0 = time.perf_counter()
        if tracer is None or not tracer.patched:
            out = fn(*args)
        else:
            out = tracer.call(name, fn, *args)
        return out, time.perf_counter() - t0

    run_call, state = LOOPS[workload](seed, work, size, call)
    rates, attempted, failed, calls = [], 0, 0, 0
    peak_rss_mib = None

    def one_call():
        nonlocal attempted, failed, calls
        gc.collect()  # every call starts without the previous call's garbage
        items, ops, dt, bad = run_call(calls)
        calls += 1
        attempted += ops
        failed += bad
        return items / dt

    if tracer is not None:
        tracemalloc.start()
        one_call()
        peak_traced = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        tracer.install()
    start = time.perf_counter()
    try:
        while not rates or time.perf_counter() - start < seconds:
            rates.append(one_call())
            if peak_rss_mib is None:
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "attempted": attempted,
        "failed": failed,
        "calls": calls,
        "items_per_s": statistics.median(rates),
        "peak_rss_mib": peak_rss_mib,
        "env": environment(),
    }
    if workload == "train":
        result["loss_log"] = state["last_log"]
    if tracer is not None:
        layers = tracer.metrics()
        layers["mem.peak_traced_mib"] = peak_traced / 2 ** 20
        layers["trainer.loss_end"] = state.get("loss_end") or 0.0
        result["per_layer"] = layers
        result["restored"] = tracer.restored()
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump(result, f)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=sorted(LOOPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="bench")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.workload, args.seed, args.dir, args.size)
    else:
        measure(args.workload, args.seed, args.dir, args.size, args.seconds, args.trace)


if __name__ == "__main__":
    main()
