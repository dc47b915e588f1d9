"""Training loop: sample, forward, L1 loss, backward, Adam step.

A run is fully determined by its config: the parameter init is seeded,
every sampled patch depends only on (seed, iteration, sample), and
checkpoints capture parameters plus optimizer state bit-exactly, so a
resumed run reproduces the loss sequence of an uninterrupted one.
"""

import ctypes
import logging
from dataclasses import dataclass
from pathlib import Path

from .blocks import EnhancementNetwork, NetworkConfig
from .checkpoint import Checkpoint, CheckpointError, load, save, write_atomic
from .config import RunConfig, format_config
from .dataset import SampleStream, scan_dataset
from .optim import Adam
from .tensor import ContractError, Tape, Tensor, backward, l1_loss

log = logging.getLogger(__name__)


class TrainingError(RuntimeError):
    """Training aborted; the message names the failing iteration."""


@dataclass
class TrainResult:
    final_checkpoint: Path
    iterations: int
    loss_rows: list[tuple[int, float, float]]


def snapshot(network: EnhancementNetwork, optimizer: Adam, iteration: int) -> Checkpoint:
    """Parameter records, then Adam's ``m.<param>`` and ``v.<param>`` records."""
    tensors = {name: p.data for name, p in network.named_parameters().items()}
    return Checkpoint(iteration, tensors, optimizer_step=optimizer.step_count,
                      optimizer_tensors=optimizer.moments())


def _check_records(records: dict, shapes: dict[str, tuple[int, ...]], what: str):
    """Require exactly the records named in ``shapes``, each of its shape."""
    if records.keys() != shapes.keys():
        raise CheckpointError(
            f"checkpoint {what} records do not match the network parameter census; "
            f"missing {sorted(shapes.keys() - records.keys()) or 'none'}, "
            f"unexpected {sorted(records.keys() - shapes.keys()) or 'none'}")
    for name, shape in shapes.items():
        if records[name].shape != shape:
            raise CheckpointError(
                f"checkpoint tensor {name!r} has shape {records[name].shape}, "
                f"network expects {shape}")


def restore(ckpt: Checkpoint, network: EnhancementNetwork,
            optimizer: Adam | None = None):
    """Load the checkpoint into ``network``, and, when ``optimizer`` is given,
    its optimizer state into ``optimizer``, once every record matches the
    parameter census. A checkpoint without optimizer state loads weights
    only; resuming from one would restart Adam, so that is refused.
    Parameters and moments are overwritten in place, in ``optimizer``'s
    arena when it holds them, so a conv weight keeps its tap order."""
    params = network.named_parameters()
    shapes = {name: p.data.shape for name, p in params.items()}
    _check_records(ckpt.tensors, shapes, "parameter")
    if optimizer is not None:
        if not ckpt.has_optimizer_state:
            raise CheckpointError(
                "checkpoint has no optimizer state (Adam step and m./v. records), "
                "so training cannot continue from it exactly")
        moments = optimizer.moments()
        _check_records(ckpt.optimizer_tensors,
                       {name: view.shape for name, view in moments.items()}, "optimizer")
        for name, view in moments.items():
            view[...] = ckpt.optimizer_tensors[name]
        optimizer.step_count = ckpt.optimizer_step
    for name, param in params.items():
        param.data[...] = ckpt.tensors[name]  # in place, so each keeps its layout


def _save_checkpoint(path: Path, network, optimizer, iteration, config):
    save(snapshot(network, optimizer, iteration), path)
    write_atomic(f"{path}.cfg", (format_config(config).encode(),))


def _warn_of_config_changes(config: RunConfig, checkpoint):
    """Log a warning for each config key whose value differs from the one
    in ``checkpoint``'s ``.cfg`` sidecar (old -> new), or one warning when
    there is no sidecar. Through the logger, not ``echo``: ``train`` echoes
    exactly one line per logged loss row."""
    sidecar = Path(f"{checkpoint}.cfg")
    if not sidecar.is_file():
        log.warning("%s is missing, so the config changes of this resume are unknown", sidecar)
        return
    old, new = (dict(line.partition(" = ")[::2] for line in text.splitlines())
                for text in (sidecar.read_text(errors="replace"), format_config(config)))
    for key in dict.fromkeys([*new, *old]):
        if old.get(key) != new.get(key):
            log.warning("resume changes %s: %s -> %s", key, old.get(key, "(unset)"),
                        new.get(key, "(unset)"))


def load_network(checkpoint) -> EnhancementNetwork:
    """The network saved in ``checkpoint``, its architecture read off the records."""
    ckpt = load(checkpoint)
    network = EnhancementNetwork(
        NetworkConfig.of_parameters({name: arr.shape for name, arr in ckpt.tensors.items()}))
    restore(ckpt, network)
    return network


def _reset_loss_log(path: Path, iteration: int):
    """Rewrite the loss log as its header plus the rows logged at or before
    ``iteration``, so a resumed run appends exactly what an uninterrupted
    one would have written. Rows past the checkpoint, and a row cut short
    by a crash, are dropped; at iteration 0 (a fresh run) the old log is
    not read. The rewrite replaces the file atomically."""
    rows = path.read_text().splitlines(keepends=True)[1:] if iteration and path.exists() else []
    kept = [row for row in rows
            if row.endswith("\n") and int(row.split(",", 1)[0]) <= iteration]
    write_atomic(path, (("iteration,lr,loss\n" + "".join(kept)).encode(),))


# glibc's mallopt parameters, and the largest block its heap serves; its
# own dynamic thresholds stop at these values
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_BLOCK_BYTES = 32 * 2 ** 20


def _keep_freed_memory():
    """Have the C library's malloc keep the memory a step frees for the next.

    glibc's returns the top of its heap to the system whenever a free leaves
    more there than its trim threshold, twice the largest block it has
    unmapped so far, and each step then faults those pages back in: about
    850 page faults per desk iteration, and 2000 once PReLU outputs are
    freed mid-forward. Here blocks up to 32 MiB come from the heap, which
    keeps up to 64 MiB free at its top: the ceilings of glibc's own
    thresholds, set from the start. The refaulting stops; the peak moves
    little (+0.3 MiB on a desk run). Does nothing where the C library has
    no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _HEAP_BLOCK_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _HEAP_BLOCK_BYTES)


def train(config: RunConfig, resume=None, echo=None) -> TrainResult:
    """Run (or continue) a training run; returns the final checkpoint path.

    A resume continues whatever the config says, warning of each key that
    differs from the checkpoint's sidecar (``_warn_of_config_changes``).
    ``echo``, when given, is called exactly once per logged loss row. The
    process's malloc keeps freed memory from then on
    (``_keep_freed_memory``)."""
    config.validate()
    _keep_freed_memory()
    data_root = Path(config.data_root)
    if not data_root.is_dir():
        raise TrainingError(f"data_root {data_root} is not a directory")
    records = scan_dataset(data_root)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    network = EnhancementNetwork(config.network, seed=config.seed)
    params = network.parameters()
    optimizer = Adam(params)
    start = 0
    if resume is not None:
        ckpt = load(resume)
        restore(ckpt, network, optimizer)
        _warn_of_config_changes(config, resume)
        start = ckpt.iteration
        del ckpt  # its arrays are views of the whole file
        if start >= config.schedule.total_iters:
            raise TrainingError(
                f"checkpoint is already at iteration {start} of {config.schedule.total_iters}")

    stream = SampleStream(records, config.augment, config.seed, config.batch_size)
    total = config.schedule.total_iters
    loss_path = out_dir / "loss_log.csv"
    _reset_loss_log(loss_path, start)
    loss_rows: list[tuple[int, float, float]] = []

    with open(loss_path, "a") as loss_file:
        for i in range(start, total):
            inputs, targets = stream.batch(i)
            lr = config.schedule.lr_at(i)
            try:
                with Tape():
                    out = network.forward(Tensor(inputs))
                    loss = l1_loss(out, Tensor(targets))
                    backward(loss)
            except ContractError as exc:
                raise TrainingError(f"aborted at iteration {i}: {exc}") from exc
            loss_value = loss.item()
            optimizer.step(params, lr)
            done = i + 1
            if done % config.log_every == 0 or done == total:
                row = (done, lr, loss_value)
                loss_rows.append(row)
                loss_file.write(f"{done},{lr:.10g},{loss_value:.9e}\n")
                loss_file.flush()
                if echo is not None:
                    echo(f"iter {done}/{total}  lr {lr:.3g}  loss {loss_value:.6f}")
            if done % config.checkpoint_every == 0 and done != total:
                _save_checkpoint(out_dir / f"checkpoint_{done:08d}.ckpt",
                                 network, optimizer, done, config)

    final_path = out_dir / "checkpoint_final.ckpt"
    _save_checkpoint(final_path, network, optimizer, total, config)
    return TrainResult(final_path, total, loss_rows)
