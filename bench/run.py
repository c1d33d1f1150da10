#!/usr/bin/env python3
"""Closed-loop benchmark of lesionformer's public functions.

    python3 bench/run.py --workload train-default --seed 11 --seconds 20 --trace 0

One client, one process: each call is issued after the previous one returns.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it wraps the program's public functions (see ``tracer.py``) and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Temporary
files live under ``.bench_work/`` at the repository root and are removed at
exit. See ``README.md`` in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# Set before NumPy loads. One BLAS thread: the matrices are at most 257 x 257,
# and a second thread would contend with the interpreter for the second core.
BLAS_THREADS = "1"

SETUP_REPS = 5            # setup_s is the median of this many full set-ups
WARMUP_STEPS = 2          # train steps in every set-up, before timing
INFER_TRAIN_STEPS = 4     # steps that produce the checkpoint infer-default loads
GOLDEN_STEPS = 3          # steps of the fixed-seed loss check
N_SAMPLES = 80            # synthetic images per workload, split 64 train / 16 held out
HELD_OUT = 0.2
TRACE_UNTRACED_SHARE = 0.4  # share of a traced run spent untraced, to measure overhead
STEPS_PER_ROUND = 2       # train: steps between checkpoint round trips
AUX_PER_ROUND = 2         # train: held-out images evaluated per round
EPILOGUE_STEPS = 2        # traced run: train steps after the loop, on every workload
EPILOGUE_CAMS = 2         # traced run: Grad-CAM calls after the loop, on every workload
REF_REPS = 15             # calls of each reference kernel per speed measurement
REF_POOL = 1500           # 33 x 32 float64 arrays in the memory kernel's pool (12 MB)
REF_STRIDE = 120          # pool arrays one memory kernel call walks through
REF_NOMINAL_MS = 0.45     # reference kernel time that timings are scaled to

# Loss after GOLDEN_STEPS train steps from seed 0 on the batch
# synth_generate(batch, seed=0); recorded when the benchmark was added.
GOLDEN_LOSS = {
    "default-float64": 1.8556359905891227,
    "large-float32": 0.9545978307723999,
}

LARGE = dict(image_h=64, image_w=64, embed_dim=64, heads=4, scales=3, layers=2)


@dataclass(frozen=True)
class Workload:
    kind: str                 # "train" or "infer"
    model: dict
    dtype: str
    batch: int
    golden: str
    memory_weight: float      # weight of the memory kernel in the speed factor


WORKLOADS = {
    "train-default": Workload("train", {}, "float64", 8, "default-float64", 0.5),
    "train-large-f32": Workload("train", LARGE, "float32", 4, "large-float32", 0.2),
    "infer-default": Workload("infer", {}, "float64", 8, "default-float64", 0.5),
}

# name -> (unit, what it is on the train workloads, on infer-default)
E2E = {
    "samples_per_s": ("1/s", "train_samples_per_s", "eval_images_per_s"),
    "main_ms.p50": ("ms", "train_step_ms.p50", "eval_image_ms.p50"),
    "main_ms.p90": ("ms", "train_step_ms.p90", "eval_image_ms.p90"),
    "aux_ms.p50": ("ms", "held-out eval_image_ms.p50", "gradcam_ms.p50"),
    "aux_ms.p90": ("ms", "held-out eval_image_ms.p90", "gradcam_ms.p90"),
    "ckpt_load_ms.p50": ("ms", "ckpt_load_ms.p50", "ckpt_load_ms.p50"),
    "peak_rss_mb": ("MB", "peak_rss_mb", "peak_rss_mb"),
    "setup_s": ("s", "setup_s", "setup_s"),
}


OPS = ("main", "aux", "save", "load")


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def check(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Tally:
    """Operations attempted and failed, and the timings of the ones that passed.

    ``raw`` holds each wall time with the index of the round it was taken
    in. ``factors`` holds the speed factor (see ``Reference``) measured
    before each round and once after the last, so round ``r`` lies between
    ``factors[r]`` and ``factors[r + 1]`` and is scaled by their geometric
    mean.
    """
    attempted: int = 0
    failed: int = 0
    factors: list = field(default_factory=list)
    raw: dict = field(default_factory=lambda: {k: [] for k in OPS + ("report",)})
    main_samples: int = 0

    def record(self, kind, seconds, samples=0):
        self.raw[kind].append((seconds, len(self.factors) - 1))
        self.main_samples += samples

    def wall(self, kind):
        return [s for s, _ in self.raw[kind]]

    def scaled(self, kind):
        f = self.factors
        return [s * math.sqrt(f[r] * f[r + 1]) for s, r in self.raw[kind]]

    def attempt(self, what, fn, *args):
        """Run one operation; a raise or a failed check counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # an operation boundary: count it and go on
            self.failed += 1
            if self.failed <= 3:
                print(f"bench: {what} failed: {e!r}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return None


class Reference:
    """Fixed kernels, independent of the program, that measure machine speed.

    The host this benchmark was tuned on runs the same code up to 25% faster
    or slower from one few-second stretch to the next, and over minutes the
    mean drifts as much. Raw timings of 30 s runs had quartile spreads of
    13-20%. Two kernels follow that drift:

    - ``_compute``: interpreter loops, small NumPy ops on a 33 x 32 float64
      array, and a 257 x 64 float32 product with an exp over 257 x 257;
    - ``_memory``: element-wise ops streaming through a 12 MB pool of
      33 x 32 arrays, the way a backward pass walks its tape. Cache and
      memory contention from other tenants slows the default-config
      workloads more than the compute kernel, and this kernel catches it.

    The memory kernel is timed only on arrays it has just walked, so the
    pool is as warm as it can be whatever the program did in the round
    before: a program that grows its working set cannot slow the kernel and
    so hide its own cost. The speed factor is ``REF_NOMINAL_MS`` over the
    geometric mean of the two median kernel times, weighted by the
    workload's ``memory_weight``. The kernels run between rounds, and each
    timing is multiplied by the geometric mean of the factors measured
    before and after its round. It then reads as the time at the kernels'
    nominal speed.
    """

    def __init__(self, np, memory_weight):
        rng = np.random.default_rng(12345)
        self.np = np
        self.memory_weight = memory_weight
        self.a = rng.standard_normal((33, 32))
        self.w = rng.standard_normal((32, 32)) / 6.0
        self.big = (rng.standard_normal((257, 64)) / 8.0).astype(np.float32)
        self.big_t = np.ascontiguousarray(self.big.T)
        # Written in place: a fresh 257 x 257 array would come from mmap or
        # from the heap depending on the allocator's history. Its page faults
        # would make the kernel's speed depend on what ran before it.
        self.s = np.empty((257, 257), dtype=np.float32)
        self.pool = [rng.standard_normal((33, 32)) for _ in range(REF_POOL)]
        self.pool_mb = sum(x.nbytes for x in self.pool) / 2**20
        self.out = np.empty((33, 32))
        self.next = 0

    def _compute(self):
        np = self.np
        x = self.a
        for _ in range(4):
            y = np.tanh(x @ self.w)
            e = np.exp(y - y.max(axis=1, keepdims=True))
            x = e / e.sum(axis=1, keepdims=True) * 2.0 + 0.5
        s = self.s
        np.matmul(self.big, self.big_t, out=s)
        np.subtract(s, s.max(axis=1, keepdims=True), out=s)
        np.exp(s, out=s)
        acc = 0
        for i in range(300):
            acc += i * i
        return x, s, acc

    def _memory(self):
        np, pool, out = self.np, self.pool, self.out
        k = self.next
        for j in range(k, k + REF_STRIDE):
            np.multiply(pool[j], 1.0001, out=out)
            np.add(pool[j + 1], out, out=out)
        self.next = (k + REF_STRIDE) % (REF_POOL - REF_STRIDE)
        return out

    def factor(self):
        """REF_NOMINAL_MS over the weighted geometric mean of the kernel times."""
        compute, memory = [], []
        start = self.next
        for _ in range(REF_REPS):
            t0 = perf_counter()
            self._compute()
            compute.append(perf_counter() - t0)
            self._memory()  # untimed: warms the arrays timed below
        self.next = start
        for _ in range(REF_REPS):
            t0 = perf_counter()
            self._memory()
            memory.append(perf_counter() - t0)
        w = self.memory_weight
        kernel_ms = statistics.median(compute) ** (1 - w) * statistics.median(memory) ** w * 1e3
        return REF_NOMINAL_MS / kernel_ms


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


# ---------------------------------------------------------------------------
# set-up


class Bench:
    def __init__(self, lf, np, name, seed):
        self.lf, self.np = lf, np
        self.name, self.seed = name, seed
        self.wl = WORKLOADS[name]
        self.mcfg = lf.model.ModelConfig(**self.wl.model, seed=seed)
        self.tcfg = lf.training.TrainConfig(batch_size=self.wl.batch, lambda_attn=0.1,
                                            attn_mode="focusing", dtype=self.wl.dtype,
                                            seed=seed)
        self.dir = None

    def setup(self, workdir):
        """Synthesise, write and reload the images, init, warm up.

        Everything a run needs before its first timed call; repeated
        SETUP_REPS times for setup_s.
        """
        lf, np, m = self.lf, self.np, self.mcfg
        data = lf.data
        workdir.mkdir(parents=True)
        self.dir = workdir
        syn = data.SynthConfig(height=m.image_h, width=m.image_w, channels=m.channels,
                               classes=m.classes, seed=self.seed)
        rows = []
        for i, s in enumerate(data.synth_generate(N_SAMPLES, syn)):
            data.write_netpbm(workdir / f"img{i:05d}.ppm", _to_uint8(np, s.image))
            data.write_netpbm(workdir / f"mask{i:05d}.pgm", _to_uint8(np, s.mask))
            rows.append((f"img{i:05d}.ppm", s.label, f"mask{i:05d}.pgm"))
        data.write_manifest(workdir / "manifest.csv", rows)
        samples = data.load_samples(workdir / "manifest.csv", (m.image_h, m.image_w),
                                    m.channels)
        self.train_set, self.held_out = data.split_samples(samples, HELD_OUT, self.seed)
        B = self.wl.batch
        self.batches = [self.train_set[i:i + B] for i in range(0, len(self.train_set), B)]
        self.next_batch = 0
        self.params = lf.model.init_params(m, dtype=self.tcfg.np_dtype)
        self.opt = lf.training.init_adam(self.params)
        self.weights = lf.losses.class_weights(
            data.class_frequencies(self.train_set, m.classes), self.tcfg.weight_epsilon)
        self.steps = 0
        warm = INFER_TRAIN_STEPS if self.wl.kind == "infer" else WARMUP_STEPS
        for _ in range(warm):
            self.train_step()
        if self.wl.kind == "infer":
            self.ckpt_path = workdir / "model.ckpt"
            lf.training.save_checkpoint(self.ckpt_path, self.checkpoint())
            self.ckpt_bytes = self.ckpt_path.read_bytes()

    def checkpoint(self):
        return self.lf.training.Checkpoint(model_config=self.mcfg, train_config=self.tcfg,
                                           params=self.params, opt=self.opt, step=self.steps)

    # -- operations ---------------------------------------------------------

    def train_step(self):
        batch = self.batches[self.next_batch]
        self.next_batch = (self.next_batch + 1) % len(self.batches)
        bd, dt = timed(self.lf.training.train_step, self.params, self.mcfg, self.tcfg,
                       batch, self.opt, self.weights, self.tcfg.learning_rate)
        self.steps += 1
        check(math.isfinite(bd.total) and math.isfinite(bd.l_ce) and math.isfinite(bd.l_attn),
              f"non-finite loss at step {self.steps}: {bd}")
        return dt

    def eval_image(self, params, sample):
        (_, probs, _), dt = timed(self.lf.training.evaluate, params, self.mcfg,
                                         [sample], False)
        check(probs.shape == (1, self.mcfg.classes), f"probs shape {probs.shape}")
        check(abs(float(probs.sum()) - 1.0) <= 1e-6 and bool((probs >= 0).all()),
              f"probability row {probs[0].tolist()} does not sum to 1")
        return probs[0], dt

    def report(self, probs, labels):
        rep, dt = timed(self.lf.metrics.report, probs, labels, self.mcfg.classes, False)
        check_report(self.np, rep, probs, labels, self.mcfg.classes)
        return dt

    def grad_cam(self, params, sample):
        (grid, _), dt = timed(self.lf.model.grad_cam, params, sample.image, sample.label,
                               self.mcfg)
        G = self.mcfg.grid_side
        check(grid.shape == (G, G), f"grad-cam grid shape {grid.shape}, expected {(G, G)}")
        check(bool(((grid >= 0) & (grid <= 1)).all()), "grad-cam grid outside [0, 1]")
        return dt

    def save(self, path, ckpt):
        _, dt = timed(self.lf.training.save_checkpoint, path, ckpt)
        return dt

    def load_and_resave(self, path, expect):
        """load, save again, and require the bytes to match ``expect``."""
        ckpt, dt = timed(self.lf.training.load_checkpoint, path)
        again = self.dir / "resaved.ckpt"
        self.lf.training.save_checkpoint(again, ckpt)
        check(again.read_bytes() == expect, "save -> load -> save is not byte-identical")
        return ckpt, dt

    # -- rounds -------------------------------------------------------------

    def train_round(self, t):
        """Steps, a checkpoint round trip, then held-out images evaluated one by one."""
        wl = self.wl
        for _ in range(STEPS_PER_ROUND):
            dt = t.attempt("train step", self.train_step)
            if dt is not None:
                t.record("main", dt, wl.batch)
        path = self.dir / "train.ckpt"
        dt = t.attempt("checkpoint save", self.save, path, self.checkpoint())
        if dt is not None:
            t.record("save", dt)
            out = t.attempt("checkpoint load", self.load_and_resave, path, path.read_bytes())
            if out is not None:
                t.record("load", out[1])
        probs, labels = [], []
        for _ in range(AUX_PER_ROUND):
            s = self.held_out[self.next_aux]
            self.next_aux = (self.next_aux + 1) % len(self.held_out)
            out = t.attempt("held-out eval", self.eval_image, self.params, s)
            if out is not None:
                probs.append(out[0])
                labels.append(s.label)
                t.record("aux", out[1])
        if probs:
            t.attempt("report", self.report, self.np.stack(probs), self.np.asarray(labels))

    def infer_round(self, t):
        """Load the checkpoint, classify every held-out image, report, explain each."""
        out = t.attempt("checkpoint load", self.load_and_resave, self.ckpt_path, self.ckpt_bytes)
        if out is None:
            return
        ckpt, dt = out
        t.record("load", dt)
        dt = t.attempt("checkpoint save", self.save, self.dir / "copy.ckpt", ckpt)
        if dt is not None:
            t.record("save", dt)
        probs, labels = [], []
        for s in self.held_out:
            out = t.attempt("eval image", self.eval_image, ckpt.params, s)
            if out is not None:
                probs.append(out[0])
                labels.append(s.label)
                t.record("main", out[1], 1)
        if probs:
            # eval_images_per_s counts the report over the images in its time
            dt = t.attempt("report", self.report, self.np.stack(probs), self.np.asarray(labels))
            if dt is not None:
                t.record("report", dt)
        for s in self.held_out:
            dt = t.attempt("grad-cam", self.grad_cam, ckpt.params, s)
            if dt is not None:
                t.record("aux", dt)

    def run_loop(self, seconds, t, ref):
        self.next_aux = 0
        one_round = self.train_round if self.wl.kind == "train" else self.infer_round
        end = perf_counter() + seconds
        while perf_counter() < end:
            t.factors.append(ref.factor())
            one_round(t)
        t.factors.append(ref.factor())

    def epilogue(self, t):
        """Train steps and Grad-CAM calls, so that a traced run measures every
        layer on every workload, also the ones its loop does not call."""
        for _ in range(EPILOGUE_STEPS):
            t.attempt("train step", self.train_step)
        for s in self.held_out[:EPILOGUE_CAMS]:
            t.attempt("grad-cam", self.grad_cam, self.params, s)

    def golden(self):
        """GOLDEN_STEPS steps from seed 0 must reproduce the recorded loss."""
        lf, np = self.lf, self.np
        m = lf.model.ModelConfig(**self.wl.model)
        tc = lf.training.TrainConfig(batch_size=self.wl.batch, lambda_attn=0.1,
                                     attn_mode="focusing", dtype=self.wl.dtype)
        batch = lf.data.synth_generate(
            self.wl.batch, lf.data.SynthConfig(height=m.image_h, width=m.image_w,
                                               channels=m.channels, classes=m.classes))
        params = lf.model.init_params(m, dtype=tc.np_dtype)
        opt = lf.training.init_adam(params)
        weights = lf.losses.class_weights(lf.data.class_frequencies(batch, m.classes),
                                          tc.weight_epsilon)
        for _ in range(GOLDEN_STEPS):
            bd = lf.training.train_step(params, m, tc, batch, opt, weights, tc.learning_rate)
        expect = GOLDEN_LOSS[self.wl.golden]
        tol = math.sqrt(np.finfo(tc.np_dtype).eps) * abs(expect)
        check(abs(bd.total - expect) <= tol,
              f"loss after {GOLDEN_STEPS} steps is {bd.total!r}, recorded {expect!r}")


def check_report(np, rep, probs, labels, k):
    """report() must agree with its own confusion matrix and with the inputs."""
    pred = probs.argmax(axis=1)
    expect = np.zeros((k, k), dtype=np.int64)
    np.add.at(expect, (labels, pred), 1)
    cm = rep.confusion
    check(np.array_equal(cm, expect), f"confusion matrix {cm.tolist()} != {expect.tolist()}")
    n = int(cm.sum())
    check(rep.n == n == len(labels), f"report n={rep.n}, confusion sum {n}")
    diag = np.diag(cm).astype(np.float64)
    predicted, actual = cm.sum(axis=0), cm.sum(axis=1)
    prec = np.divide(diag, predicted, out=np.zeros(k), where=predicted > 0)
    rec = np.divide(diag, actual, out=np.zeros(k), where=actual > 0)
    f1 = np.divide(2 * prec * rec, prec + rec, out=np.zeros(k), where=prec + rec > 0)
    for what, got, want in (("acc", rep.acc, diag.sum() / n),
                            ("precision_macro", rep.precision_macro, prec.mean()),
                            ("f1_macro", rep.f1_macro, f1.mean())):
        check(math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12),
              f"report {what}={got!r}, confusion matrix gives {want!r}")


def check_measured(metrics):
    """Every per-layer metric must be measured: finite and never 0."""
    bad = [k for k, (v, _) in metrics.items() if not (math.isfinite(v) and v != 0)]
    check(not bad, f"per-layer metrics not measured: {bad}")


def _to_uint8(np, img):
    return np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# results


def percentile(xs, q):
    """The q-th percentile, 1 <= q <= 99, interpolated between samples."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def e2e_metrics(times, main_samples, setup_times, rss_mb):
    """``times`` maps each kind of operation to its timings in seconds."""
    for kind in OPS:
        if not times[kind]:
            raise CheckFailed(f"no successful {kind} operation in the timed loop")
    return {
        "samples_per_s": main_samples / (sum(times["main"]) + sum(times["report"])),
        "main_ms.p50": percentile(times["main"], 50) * 1e3,
        "main_ms.p90": percentile(times["main"], 90) * 1e3,
        "aux_ms.p50": percentile(times["aux"], 50) * 1e3,
        "aux_ms.p90": percentile(times["aux"], 90) * 1e3,
        "ckpt_load_ms.p50": percentile(times["load"], 50) * 1e3,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup_times),
    }


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def settings(b, args):
    return {
        "workload": b.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "model": dataclasses.asdict(b.mcfg),
        "train": {k: getattr(b.tcfg, k) for k in ("batch_size", "learning_rate",
                                                   "lambda_attn", "attn_mode", "dtype")},
        "samples": N_SAMPLES, "held_out": HELD_OUT, "setup_reps": SETUP_REPS,
        "warmup_steps": WARMUP_STEPS, "golden_steps": GOLDEN_STEPS,
        "steps_per_round": STEPS_PER_ROUND, "aux_per_round": AUX_PER_ROUND,
    }


def print_result(t, metrics, units, correct):
    """The last line of stdout, read by whoever runs the benchmark."""
    out = {"correct": correct, "attempted": t.attempted, "failed": t.failed,
           "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(out))


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program():
    """Import lesionformer from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "lesionformer" / "__init__.py").is_file():
        raise SystemExit(f"bench: no lesionformer sources under {src}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import numpy as np
    import lesionformer as lf
    from lesionformer import data, losses, metrics, model, training  # noqa: F401
    if Path(lf.__file__).resolve().parent != (src / "lesionformer").resolve():
        raise SystemExit(f"bench: imported lesionformer from {lf.__file__}, not {src}")
    return lf, np


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("bench: --seconds must be positive")
    lf, np = load_program()
    b = Bench(lf, np, args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    t = Tally()
    try:
        print("env: " + json.dumps(environment(np)))
        print("settings: " + json.dumps(settings(b, args)))
        ref = Reference(np, b.wl.memory_weight)
        if args.trace:
            metrics, units = traced_run(lf, b, args, run_dir, t, ref)
        else:
            metrics, units = untraced_run(b, args, run_dir, t, ref)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    correct = t.failed == 0
    print(f"error_rate = {t.failed / t.attempted:.6g} ({t.failed} of {t.attempted} operations)")
    print_result(t, metrics, units, correct)
    return 0


def untraced_run(b, args, run_dir, t, ref):
    setup_raw, factors = [], [ref.factor()]
    for _ in range(SETUP_REPS):
        shutil.rmtree(run_dir, ignore_errors=True)
        t0 = perf_counter()
        b.setup(run_dir)
        setup_raw.append(perf_counter() - t0)
        factors.append(ref.factor())
    setup_times = [s * math.sqrt(f0 * f1) for s, f0, f1 in zip(setup_raw, factors, factors[1:])]
    t.attempt("golden loss", b.golden)
    b.run_loop(args.seconds, t, ref)
    units = {k: E2E[k][0] for k in E2E}
    try:
        # The reference pool stays resident all run; it is the benchmark's, not the program's.
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - ref.pool_mb
        metrics = e2e_metrics({k: t.scaled(k) for k in t.raw}, t.main_samples, setup_times,
                              rss_mb)
        raw = e2e_metrics({k: t.wall(k) for k in t.raw}, t.main_samples, setup_raw, rss_mb)
    except CheckFailed as e:
        print(f"bench: {e}", file=sys.stderr)
        t.failed += 1
        t.attempted += 1
        return {}, units
    col = 1 if b.wl.kind == "train" else 2
    print(f"speed factor: median {statistics.median(t.factors):.4f}, "
          f"range {min(t.factors):.4f}-{max(t.factors):.4f}, {len(t.factors) - 1} rounds")
    print(f"{'metric':<18} {'scaled':>12} {'raw':>12} unit")
    for k, v in metrics.items():
        print(f"{k:<18} {v:>12.4f} {raw[k]:>12.4f} {units[k]:<4} {E2E[k][col]}")
    # Printed, not reported: its run-to-run spread reached 19% (see README.md).
    print(f"{'ckpt_save_ms.p50':<18} {percentile(t.scaled('save'), 50) * 1e3:>12.4f} "
          f"{percentile(t.wall('save'), 50) * 1e3:>12.4f} ms   not in the result")
    print("raw: " + json.dumps(raw))
    return metrics, units


def traced_run(lf, b, args, run_dir, t, ref):
    from tracer import Tracer
    tracer = Tracer(lf)
    tracer.install()
    try:
        b.setup(run_dir)
        metrics = tracer.data_metrics(N_SAMPLES)
    finally:
        tracer.uninstall()
    t.attempt("golden loss", b.golden)

    plain = Tally()
    b.run_loop(args.seconds * TRACE_UNTRACED_SHARE, plain, ref)
    tracer.reset()
    tracer.install()
    traced = Tally()
    try:
        b.run_loop(args.seconds * (1 - TRACE_UNTRACED_SHARE), traced, ref)
        b.epilogue(t)
    finally:
        tracer.uninstall()
    for part in (plain, traced):
        t.attempted += part.attempted
        t.failed += part.failed
    metrics.update(tracer.layer_metrics())
    fast, slow = (part.main_samples / (sum(part.scaled("main")) + sum(part.scaled("report")))
                  if part.raw["main"] else 0.0 for part in (plain, traced))
    metrics["trace.samples_per_s"] = (slow, "1/s")
    metrics["trace.untraced_samples_per_s"] = (fast, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (fast / slow - 1.0) if slow else 0.0, "%")
    for k, (v, unit) in metrics.items():
        print(f"{k:<54} {v:>14.4f} {unit}")
    print("forward op calls: " + json.dumps(dict(tracer.forward_ops.most_common())))
    t.attempt("per-layer metrics", check_measured, metrics)
    units = {k: unit for k, (v, unit) in metrics.items()}
    return {k: v for k, (v, unit) in metrics.items()}, units


if __name__ == "__main__":
    sys.exit(main())
