"""One workload process: set up the program, run its ops, time them.

Started by ``harness.py`` as ``python3 worker.py JOB.json SPAWN`` with
BLAS pinned through the environment. SPAWN is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start and every import below. The job's ``mode`` is
``setup`` (stop after the first op) or ``run`` (the first op, then the
timed ops). The result is written as JSON to the job's ``result`` path.
"""

import gc
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from cenet import checkpoint, dataset, imageio, inference, metrics, training
from cenet.blocks import EnhancementNetwork
from cenet.config import desk_preset, load_config

from spans import SPAN_FIELDS, Tracer, layer_metrics

# What a user sees as a failed op: the program's own errors (all of them
# derive from these), running out of memory, and I/O errors.
FAILURES = (RuntimeError, ValueError, OSError, MemoryError)
PAGE_MIB = os.sysconf("SC_PAGE_SIZE") / 2 ** 20


class SetupDone(Exception):
    """Raised from the op clock to end a set-up-only process."""


def rss_mib() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * PAGE_MIB


class GcMeter:
    """Time and count of cyclic GC collections, via ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.counts = [0, 0, 0]
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.counts[info["generation"]] += 1

    def snapshot(self):
        return self.seconds, list(self.counts)


class OpClock:
    """Marks op ends. Op 0 ends set-up; ops 1.. are timed.

    With a tracer, ops 0, 2, 4, ... and the tail after the last op are
    traced and the odd ops run the untouched program, which gives the
    tracing overhead within one run.
    """

    def __init__(self, spawn: float, total_ops: int, setup_only: bool, tracer, gc_meter):
        self.spawn = spawn
        self.total_ops = total_ops
        self.setup_only = setup_only
        self.tracer = tracer
        self.gc_meter = gc_meter
        self.ends: list[float] = []
        self.rss: list[float] = []
        self.setup_s = None
        self.gc_at_setup = None

    def tick(self):
        now = time.perf_counter()
        if not self.ends:
            self.setup_s = time.monotonic() - self.spawn
            self.gc_at_setup = self.gc_meter.snapshot()
        self.ends.append(now)
        self.rss.append(rss_mib())
        if self.setup_only:
            raise SetupDone
        if self.tracer is not None:
            nxt = len(self.ends)
            self.tracer.op = nxt
            if nxt % 2 == 0 or nxt >= self.total_ops:
                self.tracer.install()
            else:
                self.tracer.uninstall()


def run_train(job: dict, clock: OpClock) -> dict:
    w = job["workload"]
    config = desk_preset()
    config.network.num_stages = w["stages"]
    config.network.base_channels = w["channels"]
    config.augment.crop_size = w["crop"]
    config.schedule.initial_lr = w["lr"]
    config.batch_size = 1
    config.workers = 0
    config.seed = job["seed"]
    config.schedule.total_iters = clock.total_ops
    config.log_every = 1
    config.checkpoint_every = clock.total_ops
    config.data_root = job["data"]
    config.output_dir = job["out"]
    out = {"attempted": 0, "failed": 0, "errors": [], "losses": []}
    try:
        result = training.train(config, echo=lambda msg: clock.tick())
        out["losses"] = [loss for _, _, loss in result.loss_rows]
    except FAILURES as exc:
        out["failed"] = 1
        out["errors"].append(f"iteration {len(clock.ends)}: {type(exc).__name__}: {exc}")
    out["attempted"] = len(clock.ends) + out["failed"]
    out["phase_end"] = time.perf_counter()
    timed = max(len(clock.ends) - 1, 0)
    out["pixels"] = timed * w["crop"] ** 2 * config.batch_size
    out["ok_ops"] = list(range(1, len(clock.ends)))
    return out


def _check_eval_op(pair, enhanced, psnr_db: float, ssim_v: float) -> str | None:
    px = enhanced.pixels
    if px.shape != pair.input.pixels.shape:
        return f"output shape {px.shape} != input shape {pair.input.pixels.shape}"
    if not (px.min() >= 0.0 and px.max() <= 1.0):
        return f"output outside [0, 1]: [{px.min()}, {px.max()}]"
    if not (math.isfinite(psnr_db) and math.isfinite(ssim_v)):
        return f"non-finite PSNR {psnr_db} or SSIM {ssim_v}"
    return None


def run_eval(job: dict, clock: OpClock) -> dict:
    ckpt = job["checkpoint"]
    config = load_config(f"{ckpt}.cfg")
    network = EnhancementNetwork(config.network, seed=config.seed)
    training.restore(checkpoint.load(ckpt), network)
    records = dataset.scan_dataset(job["data"])
    out_dir = Path(job["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    out = {"attempted": 0, "failed": 0, "check_failures": 0, "errors": [],
           "psnr": [], "ssim": [], "ok_ops": [], "pixels": 0}
    for i in range(clock.total_ops):
        record = records[i % len(records)]
        out["attempted"] += 1
        pair = enhanced = None
        try:
            pair = dataset.load_pair(record)
            enhanced = inference.enhance(network, pair.input)
            imageio.save_image(enhanced, out_dir / f"{record.identifier}.png")
            psnr_db = metrics.psnr(enhanced.pixels, pair.target.pixels)
            ssim_v = metrics.ssim(enhanced.pixels, pair.target.pixels)
            problem = _check_eval_op(pair, enhanced, psnr_db, ssim_v)
            out["check_failures"] += problem is not None
        except FAILURES as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem is None:
            out["psnr"].append(psnr_db)
            out["ssim"].append(ssim_v)
            if i > 0:
                out["ok_ops"].append(i)
                out["pixels"] += pair.input.width * pair.input.height
        else:
            out["failed"] += 1
            out["errors"].append(f"op {i} ({record.identifier}): {problem}")
        clock.tick()
    out["phase_end"] = time.perf_counter()
    return out


def _openblas_threads():
    import ctypes
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": _openblas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def main(job_path: str, spawn: str) -> int:
    job = json.loads(Path(job_path).read_text())
    gc_meter = GcMeter()
    gc.callbacks.append(gc_meter)
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    clock = OpClock(float(spawn), job["ops"], job["mode"] == "setup", tracer, gc_meter)
    runner = run_train if job["workload"]["kind"] == "train" else run_eval
    try:
        out = runner(job, clock)
    except SetupDone:
        out = {}
    if tracer is not None:
        tracer.uninstall()
    out["setup_s"] = clock.setup_s
    if job["mode"] == "run":
        ends = clock.ends
        op_s = {i: ends[i] - ends[i - 1] for i in out.pop("ok_ops")}
        out["op_s"] = list(op_s.values())
        out["phase_s"] = out.pop("phase_end") - ends[0] if ends else 0.0
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gc_s, gc_counts = gc_meter.snapshot()
        gc0_s, gc0_counts = clock.gc_at_setup or (0.0, [0, 0, 0])
        timed = max(len(ends) - 1, 1)
        out["runtime"] = {
            "gc_s": (gc_s - gc0_s) / timed,
            "gc_gen2_count": float(gc_counts[2] - gc0_counts[2]),
            "rss_growth_mib": clock.rss[-1] - clock.rss[0] if clock.rss else 0.0,
        }
        out["env"] = environment()
        if tracer is not None:
            traced = {i for i in op_s if i % 2 == 0}
            out["layers"] = layer_metrics(tracer.spans, op_s, traced)
            if job["spans"]:
                Path(job["spans"]).write_text(json.dumps(
                    {"fields": SPAN_FIELDS, "traced_ops": sorted(traced),
                     "op_s": op_s, "spans": tracer.spans}))
    gc.callbacks.remove(gc_meter)
    Path(job["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
