"""cenet benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 15 --trace 0

Prints a readable summary and a ``report`` line (inputs, checks,
environment) on standard output, then, as the last line, the result
object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones, and the run's spans are written to
``.perfbench_traces/<workload>-seed<seed>.json``. ``--workload all`` runs
every workload and ends with one object mapping workload name to its
result. See perfbench/README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS is pinned before numpy is first imported, here and in every worker.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
# The workloads are single-threaded, so the run and its workers share one
# CPU: migrations between CPUs were the largest source of run-to-run noise.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent


def _summary(out: dict) -> str:
    r, e = out["report"], out["end_to_end"]
    lines = [f"== {r['workload']}  seed {r['seed']}  trace {int(r['trace'])}  "
             f"ops {r['ops']} ({r['timed_ops']} timed) ==",
             f"setup_s       {e['setup_s']:12.4f} s       median of {len(r['setup_samples_s'])}",
             f"op_ms_p50     {e['op_ms_p50']:12.3f} ms"]
    if r["op_ms_p90"] is not None:
        lines.append(f"op_ms_p90     {r['op_ms_p90']:12.3f} ms")
    lines += [f"mpix_per_s    {e['mpix_per_s']:12.6f} Mpix/s",
              f"peak_rss_mib  {e['peak_rss_mib']:12.1f} MiB",
              f"failed_ratio  {r['failed_ratio']:12.4f}         "
              f"{out['result']['failed']} of {out['result']['attempted']} ops"]
    for key in ("first_loss", "final_loss", "mean_psnr_db", "mean_ssim"):
        if key in r:
            lines.append(f"{key:<13} {r[key]:12.6f}")
    lines.append(f"check         {r['check']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cenet" / "__init__.py").is_file():
        print(f"error: no cenet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in harness.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(harness.WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        workdir = harness.make_workdir(name, args.seed)
        spans_path = None
        if args.trace:
            spans_path = ROOT / ".perfbench_traces" / f"{name}-seed{args.seed}.json"
            spans_path.parent.mkdir(exist_ok=True)
        try:
            out = harness.run(harness.WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace), workdir, spans_path)
        except harness.BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            harness.remove_workdir(workdir)
        print(_summary(out))
        print("report " + json.dumps(out["report"]))
        results[name] = out["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
