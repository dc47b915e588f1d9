"""Command-line entry point: train, infer, eval, gradcheck, ablate."""

import argparse
import logging
import statistics
import sys
import time
from pathlib import Path

from .ablation import format_ablation_table, run_ablation
from .checkpoint import CheckpointError
from .config import desk_preset, load_config, parse_config
from .dataset import DatasetError, PairError, scan_dataset
from .imageio import encoder_for, load_image, save_image
from .inference import enhance, evaluate_network
from .tensor import ContractError
from .training import TrainingError, load_network, train
from .verify import format_report, op_names, run_full_suite

# ValueError covers the config, image-parse and dimension errors, which subclass it.
_EXPECTED_ERRORS = (CheckpointError, DatasetError, PairError, TrainingError, ContractError,
                    ValueError, OSError, MemoryError)


class _LevelPrefixed(logging.Formatter):
    """A log record as ``<level>: <message>``, the form of the CLI's own
    ``error: ...`` lines."""

    def format(self, record):
        return f"{record.levelname.lower()}: {super().format(record)}"


def _cmd_train(args) -> int:
    config = load_config(args.config)
    result = train(config, resume=args.resume, echo=print)
    print(f"finished {result.iterations} iterations; "
          f"final checkpoint: {result.final_checkpoint}")
    return 0


def _cmd_infer(args) -> int:
    encoder_for(Path(args.output).suffix)  # reject the format before the network runs
    network = load_network(args.checkpoint)
    image = [load_image(args.input)]  # popped: enhance holds the only reference
    start = time.perf_counter()
    out = enhance(network, image.pop(), tile=args.tile)
    seconds = time.perf_counter() - start
    save_image(out, args.output)
    print(f"wrote {args.output} (enhanced in {seconds:.3f} s)")
    return 0


def _cmd_eval(args) -> int:
    network = load_network(args.checkpoint)
    records = scan_dataset(args.data)
    start = time.perf_counter()
    report = evaluate_network(network, records, tile=args.tile)
    seconds = time.perf_counter() - start
    print(report.to_table())
    median = statistics.median(row.seconds for row in report.rows)
    print(f"time: {seconds:.3f} s for {len(report.rows)} images, "
          f"median {median:.3f} s per image")
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
        print(f"wrote {args.csv}")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_full_suite(trials=args.trials, seed=args.seed, fault=args.inject_fault)
    print(format_report(results))
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("all gradient checks passed")
    return 0


def _cmd_ablate(args) -> int:
    base = desk_preset() if args.preset == "desk" else None
    config = parse_config(Path(args.config).read_text(), base=base)
    results = run_ablation(config, echo=print)
    print()
    print(format_ablation_table(results))
    return 0


def positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cenet",
        description="Context-aware low-light image enhancement")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train from a run config")
    p.add_argument("--config", required=True, help="run config file")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", help="enhance one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="input image (png/ppm)")
    p.add_argument("--output", required=True, help="output image path")
    p.add_argument("--tile", type=int, help="process in overlapping tiles of this size")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("eval", help="PSNR/SSIM over a paired dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset root with input/ and target/")
    p.add_argument("--csv", help="also write per-image rows to this CSV file")
    p.add_argument("--tile", type=int)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of all ops and blocks")
    p.add_argument("--trials", type=positive_int, default=5,
                   help="random instances per op (at least 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", metavar="OP", choices=op_names(),
                   help="corrupt OP's backward rule (negative control)")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="train and score all four context variants")
    p.add_argument("--config", required=True)
    p.add_argument("--preset", choices=["desk"],
                   help="start from the bundled desk-scale preset; the config "
                        "file then only needs data_root and output_dir")
    p.set_defaults(func=_cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the package's warnings go to stderr, prefixed, for this command only
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_LevelPrefixed())
    package_log = logging.getLogger("cenet")
    package_log.addHandler(handler)
    try:
        return args.func(args)
    except _EXPECTED_ERRORS as exc:
        if isinstance(exc, MemoryError):
            print(f"error: out of memory ({str(exc) or 'allocation failed'})\n"
                  "hint: pass --tile to infer/eval, or lower crop_size in the run "
                  "config for train", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        package_log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
