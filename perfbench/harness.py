"""Workload definitions and the run of one workload.

A run writes the seeded inputs, starts fresh worker processes for the
set-up samples and the measured run, checks the outputs, and turns the
workers' raw timings into the reported metrics.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import inputs
from cenet.config import RunConfig

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# a run must end within 180 s; keep a margin for start-up and clean-up
DEADLINE_S = 170.0
P90_MIN_OPS = 100


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "train" or "eval"
    stages: int
    channels: int        # base width of the network
    crop: int            # training crop edge; 0 for eval
    lr: float            # training learning rate; 0 for eval
    height: int          # extents of the generated pairs
    width: int
    pairs: int           # pairs written; eval ops cycle through them
    ops_per_s: float     # timed ops per second of --seconds


# Why each workload exists is recorded in README.md. Runs are sized to a
# fixed op count. On a 2-CPU x86 VM, desk and paper steps take about 0.06 s
# and 0.83 s, and an eval op about 3.3 s. eval-photos gets 12 ops: with 7,
# the per-run median followed the machine's drift. train-paper is held to
# 30 steps, because each step leaves about 95 MB of tape cycles that no
# generation-2 collection frees within the run. It is not declared in
# BENCHMARK.json: repeated runs of all three did not fit the time budget.
WORKLOADS = {w.name: w for w in (
    Workload("train-desk", "train", 2, 8, 64, 1e-3, 128, 128, 8, 14.0),
    Workload("train-paper", "train", 4, 32, 64, 1e-4, 128, 128, 8, 1.0),
    Workload("eval-photos", "eval", 2, 8, 0, 0.0, 320, 480, 3, 0.4),
)}


def ops_for(workload: Workload, seconds: float) -> int:
    """Ops in a run: one set-up op plus ``seconds * ops_per_s`` timed ops.
    The count, not the clock, ends a run, so a parent commit and a change
    do identical work."""
    return 1 + max(2, round(seconds * workload.ops_per_s))


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def _spawn(job: dict, workdir: Path, tag: str, deadline: float) -> dict:
    job = dict(job, result=str(workdir / f"result-{tag}.json"))
    job_path = workdir / f"job-{tag}.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start the {tag} worker")
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path), repr(spawn)],
            env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{tag} worker exited with code {proc.returncode}")
    return json.loads(Path(job["result"]).read_text())


def _check_losses(losses: list[float]) -> str | None:
    if not losses:
        return "no losses logged"
    if not all(math.isfinite(x) for x in losses):
        return "non-finite training loss"
    tenth = max(1, len(losses) // 10)
    first = statistics.fmean(losses[:tenth])
    last = statistics.fmean(losses[-tenth:])
    if not last < first:
        return f"loss did not fall: first tenth {first:.6f}, last tenth {last:.6f}"
    return None


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        workdir: Path, spans_path: Path | None = None,
        corrupt: int | None = None) -> dict:
    """One run of ``workload``; returns the contract result plus a report.

    A traced run writes its spans to ``spans_path`` when one is given.
    ``corrupt`` names a pair whose input file is damaged after it was
    written, to show that a failing op is counted, not fatal.
    """
    deadline = time.monotonic() + DEADLINE_S
    ops = ops_for(workload, seconds)
    data = workdir / "data"
    job = {"workload": asdict(workload), "seed": seed, "ops": ops, "trace": trace,
           "data": str(data), "out": str(workdir / "out"),
           "spans": str(spans_path) if trace and spans_path else None}
    t0 = time.perf_counter()
    if workload.kind == "train":
        data_info = inputs.write_train_set(data, seed, workload.pairs,
                                           (workload.height, workload.width))
    else:
        data_info = inputs.write_eval_set(data, seed, workload.pairs,
                                          (workload.height, workload.width))
        config = RunConfig()
        config.network.num_stages = workload.stages
        config.network.base_channels = workload.channels
        config.seed = seed
        job["checkpoint"] = str(workdir / "model.ckpt")
        data_info.update(inputs.write_eval_model(workdir / "model.ckpt", config, seed))
    if corrupt is not None:
        victim = sorted((data / "input").iterdir())[corrupt]
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
    data_info["write_s"] = time.perf_counter() - t0

    setups = []
    if not trace:
        for k in range(SETUP_REPEATS - 1):
            setup = _spawn(dict(job, mode="setup"), workdir, f"setup{k}", deadline)
            setups.append(setup["setup_s"])
    main = _spawn(dict(job, mode="run"), workdir, "run", deadline)
    setups.append(main["setup_s"])

    op_s = main["op_s"]
    if not op_s:
        raise BenchError(f"no timed op succeeded: {main['errors'][:3]}")
    checks = main.get("check_failures", 0)
    problem = _check_losses(main["losses"]) if workload.kind == "train" else None
    e2e = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": statistics.median(op_s) * 1e3,
        "mpix_per_s": main["pixels"] / 1e6 / main["phase_s"],
        "peak_rss_mib": main["peak_rss_mib"],
    }
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "ops": ops, "timed_ops": len(op_s),
        "failed_ratio": main["failed"] / main["attempted"],
        "op_ms_p90": (statistics.quantiles(op_s, n=10)[-1] * 1e3
                      if len(op_s) >= P90_MIN_OPS else None),
        "setup_samples_s": setups,
        "errors": main["errors"][:5],
        "check": problem or (f"{checks} op output check(s) failed" if checks else "ok"),
        "runtime": main["runtime"],
        "inputs": data_info,
        "env": dict(main["env"], commit=git_commit(ROOT)),
        "spans_file": job["spans"],
    }
    if workload.kind == "train" and main["losses"]:
        report["first_loss"] = main["losses"][0]
        report["final_loss"] = main["losses"][-1]
    if workload.kind == "eval" and main["psnr"]:
        report["mean_psnr_db"] = statistics.fmean(main["psnr"])
        report["mean_ssim"] = statistics.fmean(main["ssim"])
    if trace:
        values = dict(main["layers"])
        values.update((f"runtime.{k}", v) for k, v in main["runtime"].items())
    else:
        values = e2e
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_metrics("per_layer" if trace else "end_to_end")}
    result = {"correct": problem is None and checks == 0,
              "attempted": main["attempted"], "failed": main["failed"],
              "metrics": metrics}
    return {"result": result, "report": report, "end_to_end": e2e}


def declared_metrics(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of every metric BENCHMARK.json declares under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def make_workdir(name: str, seed: int) -> Path:
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def remove_workdir(workdir: Path):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass
