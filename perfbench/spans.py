"""Span tracing from outside the program, and the per-layer metrics.

The tracer replaces public functions and methods of ``cenet`` at the names
their callers look them up under (``cenet.blocks.conv2d``,
``cenet.training.backward``, ``SampleStream.batch``, ...) with wrappers
that record spans, and puts the originals back when uninstalled. Each op
wrapper also wraps the ``backward_fn`` its result leaves on
``Tensor.tape_node``, so backward is timed per op. Spans stay in memory
as ``[name, start, end, parent, op, amount]`` lists; ``amount`` is the
work a span did (FLOPs, bytes, tape nodes), computed from shapes.
"""

import statistics
from pathlib import Path
from time import perf_counter

from cenet import blocks, checkpoint, dataset, imageio, inference, metrics, optim, training

SPAN_FIELDS = ["name", "start", "end", "parent", "op", "amount"]
NAME, START, END, PARENT, OP, AMOUNT = range(6)

# ops the network calls through ``cenet.blocks``; every other op is "other"
TENSOR_GROUPS = ("conv2d", "matmul", "softmax_rows", "prelu", "concat_channels")
OTHER_OPS = ("add", "maxpool2d", "upsample_nearest2x", "reshape", "permute")


def _conv_flops(out, args, kwargs):
    weight = args[1]
    cout = weight.shape[0]
    return 2.0 * out.size * (weight.size // cout)


class Tracer:
    """Records spans while installed; op ids come from ``self.op``, and
    set-up counts as op 0."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches = []
        self._build_patches()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def _timed(self, name, fn, amount=None):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if amount is not None:
                self.spans[idx][AMOUNT] = amount(out, args, kwargs)
            return out
        return wrapper

    def _tensor_op(self, group, fn, amount=None):
        fwd, bwd = f"tensor.{group}.fwd", f"tensor.{group}.bwd"

        def wrapper(*args, **kwargs):
            idx = self._open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            work = amount(out, args, kwargs) if amount is not None else 0.0
            self.spans[idx][AMOUNT] = work
            node = out.tape_node
            if node is not None:
                # backward computes the input and weight gradients: 2x the
                # forward work for conv2d
                node.backward_fn = self._timed(bwd, node.backward_fn,
                                               lambda *_: 2.0 * work)
            return out
        return wrapper

    def _build_patches(self):
        t = self
        patches = []
        for name in TENSOR_GROUPS:
            amount = {"conv2d": _conv_flops,
                      "softmax_rows": lambda out, *_: float(out.data.nbytes)}.get(name)
            patches.append((blocks, name, t._tensor_op(name, getattr(blocks, name), amount)))
        for name in OTHER_OPS:
            patches.append((blocks, name, t._tensor_op("other", getattr(blocks, name))))
        patches += [
            (training, "l1_loss", t._tensor_op("other", training.l1_loss)),
            (training, "backward", t._timed(
                "tensor.backward", training.backward,
                lambda out, args, kw: float(len(args[0].tape_node.tape.nodes)))),
            (blocks.BasicBlock, "forward", t._timed("blocks.basic.fwd", blocks.BasicBlock.forward)),
            (blocks.DenseResidualBlock, "forward",
             t._timed("blocks.dense.fwd", blocks.DenseResidualBlock.forward)),
            (blocks.NonLocalBlock, "forward",
             t._timed("blocks.attn.fwd", blocks.NonLocalBlock.forward)),
            (blocks.EnhancementNetwork, "forward",
             t._timed("blocks.network.fwd", blocks.EnhancementNetwork.forward)),
            # Adam reads p, g, m, v and writes p, m, v: 7 passes over the params
            (optim.Adam, "step", t._timed(
                "optim.adam_step", optim.Adam.step,
                lambda out, args, kw: 7.0 * sum(p.data.nbytes for p in args[1]))),
            (dataset.SampleStream, "batch", t._timed(
                "dataset.batch", dataset.SampleStream.batch,
                lambda out, args, kw: float(args[0].batch_size))),
            (dataset, "load_pair", t._timed("dataset.load_pair", dataset.load_pair)),
            (dataset, "load_image", t._timed(
                "imageio.decode", dataset.load_image, lambda out, *_: float(out.pixels.size))),
            (imageio, "save_image", t._timed(
                "imageio.encode", imageio.save_image,
                lambda out, args, kw: float(args[0].pixels.size))),
            (training, "save", t._timed(
                "checkpoint.save", training.save,
                lambda out, args, kw: float(Path(args[1]).stat().st_size))),
            (checkpoint, "load", t._timed("checkpoint.load", checkpoint.load)),
            (inference, "enhance", t._timed("inference.enhance", inference.enhance)),
            (metrics, "psnr", t._timed("metrics.psnr", metrics.psnr)),
            (metrics, "ssim", t._timed("metrics.ssim", metrics.ssim)),
        ]
        self._patches = [(owner, attr, getattr(owner, attr), wrapped)
                         for owner, attr, wrapped in patches]

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], op_s: dict[int, float], traced: set[int]) -> dict:
    """Per-layer metrics from the spans of the traced steady-state ops.

    ``op_s`` maps op id to wall seconds for every timed op; ``traced`` is
    the subset recorded with the tracer installed. Times are seconds per
    traced op, except the checkpoint ones, which are seconds per call
    wherever the call happened (set-up or after the last op).
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    work: dict[str, float] = {}
    count: dict[str, int] = {}
    for s, own_s in zip(spans, own):
        name = s[NAME]
        if not name.startswith("checkpoint.") and s[OP] not in traced:
            continue
        total[name] = total.get(name, 0.0) + s[END] - s[START]
        self_total[name] = self_total.get(name, 0.0) + own_s
        work[name] = work.get(name, 0.0) + s[AMOUNT]
        count[name] = count.get(name, 0) + 1
    n = max(len(traced), 1)

    def per_op(name):
        return total.get(name, 0.0) / n

    def rate(names, scale):
        seconds = sum(total.get(x, 0.0) for x in names)
        return sum(work.get(x, 0.0) for x in names) / seconds / scale if seconds else 0.0

    out = {}
    for group in TENSOR_GROUPS + ("other",):
        out[f"tensor.{group}.fwd_s"] = per_op(f"tensor.{group}.fwd")
        out[f"tensor.{group}.bwd_s"] = per_op(f"tensor.{group}.bwd")
    out["tensor.backward_s"] = per_op("tensor.backward")
    out["tensor.backward_accumulate_s"] = self_total.get("tensor.backward", 0.0) / n
    out["tensor.tape_nodes"] = work.get("tensor.backward", 0.0) / n
    out["tensor.conv2d.gflop_per_s"] = rate(["tensor.conv2d.fwd", "tensor.conv2d.bwd"], 1e9)
    attn = [s[AMOUNT] for s in spans if s[NAME] == "tensor.softmax_rows.fwd"]
    out["tensor.attn_matrix_mib"] = max(attn, default=0.0) / 2 ** 20
    for block in ("basic", "dense", "attn", "network"):
        out[f"blocks.{block}.fwd_s"] = per_op(f"blocks.{block}.fwd")
    out["optim.adam_step_s"] = per_op("optim.adam_step")
    out["optim.adam_gb_per_s"] = rate(["optim.adam_step"], 1e9)
    out["dataset.batch_s"] = per_op("dataset.batch")
    out["dataset.load_pair_s"] = per_op("dataset.load_pair")
    # every sample a batch draws is a cache hit unless it loads its pair
    drawn = work.get("dataset.batch", 0.0)
    loaded = sum(1 for s in spans if s[NAME] == "dataset.load_pair" and s[OP] in traced
                 and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "dataset.batch")
    out["dataset.cache_hit_ratio"] = (drawn - loaded) / drawn if drawn else 0.0
    out["imageio.decode_s"] = per_op("imageio.decode")
    out["imageio.decode_mb_per_s"] = rate(["imageio.decode"], 1e6)
    out["imageio.encode_mb_per_s"] = rate(["imageio.encode"], 1e6)
    for name in ("save", "load"):
        key = f"checkpoint.{name}"
        out[f"{key}_s"] = total.get(key, 0.0) / count[key] if count.get(key) else 0.0
    out["checkpoint.save_mb_per_s"] = rate(["checkpoint.save"], 1e6)
    out["inference.enhance_s"] = per_op("inference.enhance")
    out["inference.pad_crop_s"] = self_total.get("inference.enhance", 0.0) / n
    out["metrics.ssim_s"] = per_op("metrics.ssim")
    out["metrics.psnr_s"] = per_op("metrics.psnr")

    traced_s = [op_s[i] for i in sorted(traced)]
    plain_s = [t for i, t in op_s.items() if i not in traced]
    out["trace.overhead_ratio"] = (statistics.median(traced_s) / statistics.median(plain_s)
                                   if traced_s and plain_s else 0.0)
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0 and s[OP] in traced)
    out["trace.coverage"] = roots / sum(traced_s) if traced_s else 0.0
    return out
