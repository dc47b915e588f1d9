"""Dense 4-D tensors with reverse-mode automatic differentiation.

Every tensor is a contiguous NCHW array of 32-bit floats (64-bit for
verification runs). Operators record themselves onto the active tape;
``backward`` replays the tape in reverse and accumulates gradients into
the tensors the tape did not produce: parameters and inputs. A tape lives
for exactly one forward/backward pass and is confined to the thread that
created it.

``backward`` releases each recorded node once its rule has run, with the
gradient of the tensor it produced, so a step's backward holds only what
the rest of the walk still reads. Whatever it leaves, and the whole graph
when no backward ran, is released when the tape's ``with`` block exits,
normally or through an exception: every recorded tensor's ``tape_node``
is ``None`` afterwards, so a finished step is freed by reference counting
alone, while the ``.grad`` of every parameter and input is kept. Run
``backward`` inside the block.
"""

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

DEFAULT_DTYPE = np.float32


class DimensionError(ValueError):
    """A tensor shape violates an operator's contract."""


class ContractError(RuntimeError):
    """An operator was used outside its stated contract."""


# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------

class Tensor:
    """A dense (N, C, H, W) array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "tape_node")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        if arr.ndim != 4:
            raise DimensionError(f"tensors are 4-D (N, C, H, W), got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)
        self.grad = None
        self.tape_node = None

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


class Parameter(Tensor):
    """A named trainable tensor; the name keys optimizer and checkpoint state."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


class _TapeNode:
    __slots__ = ("tape", "op_name", "inputs", "output", "backward_fn")

    def __init__(self, tape, op_name, inputs, output, backward_fn):
        self.tape = tape
        self.op_name = op_name
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of operations for one forward pass.

    Recording order is the topological order; ``backward`` walks the node
    list in exact reverse. A tape is single-use: once consumed it cannot
    be replayed.

    ``backward`` overwrites each node it has finished with ``None`` in
    place, so the list keeps its length. Leaving the ``with`` block,
    normally or through an exception, releases the rest of the graph: each
    remaining output's ``tape_node`` becomes ``None`` and the node list is
    emptied, which breaks the tensor <-> node reference cycles. Gradients
    already accumulated into ``.grad`` are kept.
    """

    def __init__(self):
        self.nodes: list[_TapeNode | None] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        _LOCAL.tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _LOCAL.tape_stack
        if not stack or stack[-1] is not self:
            raise ContractError("tape context exited out of order")
        stack.pop()
        for node in self.nodes:
            if node is not None:
                node.output.tape_node = None
        self.nodes.clear()
        return False


class _ThreadState(threading.local):
    """Per-thread stacks of the open tapes and op censuses."""

    def __init__(self):
        self.tape_stack: list[Tape] = []
        self.census_stack: list[dict[str, int]] = []


_LOCAL = _ThreadState()


@contextmanager
def op_census():
    """Collect per-operation invocation counts for the enclosed code."""
    counts: dict[str, int] = {}
    _LOCAL.census_stack.append(counts)
    try:
        yield counts
    finally:
        _LOCAL.census_stack.pop()


def _emit(op_name, out_data, inputs, backward_fn) -> Tensor:
    """Wrap an op result in a Tensor and record it on the active tape."""
    if not np.isfinite(out_data).all():
        raise ContractError(f"{op_name} produced non-finite values")
    out = Tensor(out_data)
    for counts in _LOCAL.census_stack:
        counts[op_name] = counts.get(op_name, 0) + 1
    if _LOCAL.tape_stack:
        tape = _LOCAL.tape_stack[-1]
        node = _TapeNode(tape, op_name, inputs, out, backward_fn)
        tape.nodes.append(node)
        out.tape_node = node
    return out


def _accumulate(tensor: Tensor, grad: np.ndarray):
    if tensor.grad is None:  # a copy: backward rules may return one array twice
        tensor.grad = np.array(grad, dtype=tensor.data.dtype, order="C")
    else:
        tensor.grad += grad


def _run_rule(node: _TapeNode, upstream: np.ndarray):
    """Accumulate one node's input gradients. A function of its own, so that
    the rule's returned arrays die on return, not during the next rule."""
    for tensor, grad in zip(node.inputs, node.backward_fn(upstream)):
        if grad is not None:
            _accumulate(tensor, grad)


def backward(loss: Tensor):
    """Accumulate d(loss)/d(tensor) into every parameter and input of the
    loss's tape: each tensor the tape used but did not produce.

    The seed gradient is 1. Tensors feeding multiple consumers receive the
    sum over all paths. The tape is consumed: a second call is an error.

    Once a node's rule has run, every consumer of its output has run
    before it, so nothing later reads the node, its saved arrays or its
    output's gradient. Each is released there: the output loses ``.grad``
    and ``tape_node``, and the node's list entry becomes ``None``. So a
    step's backward peaks near its forward, not at the sum of every
    activation and every intermediate gradient. The loss keeps its node
    and its gradient until the tape exits.
    """
    node = loss.tape_node
    if node is None:
        raise ContractError("backward() requires a loss recorded on an active tape")
    if loss.data.size != 1:
        raise ContractError(f"backward() requires a scalar loss, got shape {loss.shape}")
    tape = node.tape
    if tape.consumed:
        raise ContractError("tape already consumed; build a new tape for another backward pass")
    tape.consumed = True
    loss.grad = np.ones_like(loss.data)
    nodes = tape.nodes
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        out = node.output
        if out.grad is not None:
            _run_rule(node, out.grad)
        if out is not loss:
            out.grad = out.tape_node = nodes[i] = None


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

# Byte budget of one band of convolution output rows: the padded input rows
# and the output rows it covers, so a band's k² GEMMs run from cache.
_CONV_BAND_BYTES = 256 * 2 ** 10


def _bands(xs: list[np.ndarray], cout: int, k: int):
    """Walk the output of a stride-1 "same" convolution of ``xs`` band by band.

    Yields (image, first row, end row, windows) per band of output rows.
    The band reads one slab: the input rows first - p up to end + p
    (p = k // 2) of every input, stacked along channels in order, zero
    outside the image, padded by p columns on each side and by one zero
    row below, flattened to (Cin, (rows + 2p + 1) * (W + 2p)). ``windows``
    are the k² shifted slices of that slab, in row-major tap order, each
    (Cin, rows * (W + 2p)): the band's output rows at the slab's pitch,
    whose last 2p columns per row fall over the padding. A band holds
    ``_CONV_BAND_BYTES`` of input and output rows, or as many rows as the
    taps' bytes when those are larger, so that deep layers stream their
    taps once per band of about their own size, not once per few rows.
    """
    n, _, h, w = xs[0].shape
    p = k // 2
    wp = w + 2 * p
    cin = sum(x.shape[1] for x in xs)
    row_bytes = (cin + cout) * wp * xs[0].itemsize
    weight_bytes = k * k * cout * cin * xs[0].itemsize
    rows = max(1, _CONV_BAND_BYTES // row_bytes, -(-weight_bytes // row_bytes))
    for i in range(n):
        for r0 in range(0, h, rows):
            r1 = min(r0 + rows, h)
            lo, hi = max(r0 - p, 0), min(r1 + p, h)
            slab = np.zeros((cin, r1 - r0 + 2 * p + 1, wp), dtype=xs[0].dtype)
            np.concatenate([x[i, :, lo:hi] for x in xs],
                           out=slab[:, lo - r0 + p:hi - r0 + p, p:p + w])
            slab = slab.reshape(cin, -1)
            span = (r1 - r0) * wp
            yield i, r0, r1, [slab[:, dy * wp + dx:dy * wp + dx + span]
                              for dy in range(k) for dx in range(k)]


def _prelu_gain(neg: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """PReLU's gain per element: ``slope`` where ``neg``, else 1.

    Branch-free, so mixed signs cost no more than one sign: ``neg * slope``
    minus ``neg - 1``. Where ``neg`` that subtracts +0.0, which keeps every
    slope's bits, -0.0 included (adding ``~neg`` would turn it into +0.0).
    """
    gain = neg * slope
    gain -= neg - gain.dtype.type(1)
    return gain


def _prelu_grads(pre: np.ndarray, slope: np.ndarray, up: np.ndarray):
    """Gradients of PReLU at pre-activation ``pre``: the input's and the slope's."""
    neg = pre < 0
    d_slope = (pre * up * neg).sum(axis=(0, 2, 3)).reshape(slope.shape)
    return _prelu_gain(neg, slope) * up, d_slope


def _same_conv(xs: list[np.ndarray], taps: np.ndarray, k: int, bias=None, slope=None,
               pre=None) -> np.ndarray:
    """Stride-1 "same" convolution of the channel concatenation of ``xs``.

    ``xs`` are (N, Cin_j, H, W) arrays and ``taps`` the (k*k, Cout, Cin)
    tap matrices. Per band of output rows, each tap is one GEMM with its
    window of the band's slab, summed into the band's accumulator, whose
    columns over the padding are computed and dropped. While the band is in
    cache, the accumulator gets the (Cout, 1) ``bias`` added, is copied into
    ``pre`` when that is given, and is scaled in place by the PReLU of
    the (Cout, 1) ``slope``.
    """
    n, _, h, w = xs[0].shape
    cout = taps.shape[1]
    out = np.empty((n, cout, h, w), dtype=xs[0].dtype)
    for i, r0, r1, windows in _bands(xs, cout, k):
        acc = np.zeros((cout, windows[0].shape[1]), dtype=out.dtype)
        part = np.empty_like(acc)
        for tap, window in zip(taps, windows):
            acc += np.matmul(tap, window, out=part)
        rows = acc.reshape(cout, r1 - r0, -1)[:, :, :w]
        if bias is not None:
            acc += bias
        if pre is not None:
            pre[i, :, r0:r1] = rows
        if slope is not None:
            acc *= _prelu_gain(acc < 0, slope)
        out[i, :, r0:r1] = rows
    return out


def conv2d(x: Tensor | tuple[Tensor, ...], weight: Tensor, bias: Tensor,
           slope: Tensor | None = None) -> Tensor:
    """2-D cross-correlation at stride 1 with "same" zero padding.

    ``x`` is one (N, Cin, H, W) tensor or a tuple of tensors with equal N,
    H and W, read as the channel concatenation of the tuple in order, bit
    for bit, without building it. ``weight`` is (Cout, Cin, k, k) with odd
    k and Cin the inputs' total width; ``bias`` is (1, Cout, 1, 1). With a
    (1, Cout, 1, 1) ``slope``, the output is the PReLU of the
    pre-activation ``pre = conv2d(x, weight, bias)``, bit for bit
    ``where(pre < 0, slope * pre, pre)``, applied to each band while it is
    in cache; the pre-activation is kept only while a tape records, for
    the backward. The output keeps the inputs' H and W. The
    work runs in bands of output rows, each stacking and padding only its
    own input rows, so no padded copy or concatenation of the inputs exists
    whole and the tape keeps only the inputs themselves. The backward rule
    yields a gradient for each input, the weight, the bias and the slope;
    the input gradient is the same convolution of the upstream gradient with
    the kernel flipped in space and its channel axes swapped.
    """
    xs = (x,) if isinstance(x, Tensor) else tuple(x)
    if not xs:
        raise DimensionError("conv2d needs at least one input")
    n, _, h, w = xs[0].shape
    for t in xs[1:]:
        if (t.shape[0], t.shape[2], t.shape[3]) != (n, h, w):
            raise DimensionError(
                f"conv2d inputs disagree on batch/spatial extents: {xs[0].shape} vs {t.shape}")
    widths = [t.shape[1] for t in xs]
    cin = sum(widths)
    cout, wcin, kh, kw = weight.shape
    if kh != kw:
        raise DimensionError(f"conv2d kernels are square, got {kh}x{kw}")
    k = kh
    if k % 2 == 0:
        raise DimensionError(f"conv2d kernel size must be odd, got {k}")
    if wcin != cin:
        raise DimensionError(f"conv2d input has {cin} channels but weight expects {wcin}")
    if bias.shape != (1, cout, 1, 1):
        raise DimensionError(f"conv2d bias must have shape (1, {cout}, 1, 1), got {bias.shape}")
    if slope is not None and slope.shape != (1, cout, 1, 1):
        raise DimensionError(f"conv2d slope must have shape (1, {cout}, 1, 1), got {slope.shape}")

    splits = np.cumsum(widths)[:-1]
    taps = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1)).reshape(k * k, cout, cin)
    data = [t.data for t in xs]
    pre = None
    if slope is not None and _LOCAL.tape_stack:
        pre = np.empty((n, cout, h, w), dtype=data[0].dtype)
    out = _same_conv(data, taps, k, bias.data.reshape(cout, 1),
                     None if slope is None else slope.data.reshape(cout, 1), pre)

    def backward_fn(up):
        if slope is not None:
            up, d_slope = _prelu_grads(pre, slope.data, up)
        # a spatial flip reverses the tap order
        d_x = _same_conv([up], taps[::-1].transpose(0, 2, 1), k)
        d_taps = np.zeros_like(taps)
        for i, r0, r1, windows in _bands(data, cout, k):
            up_band = np.zeros((cout, windows[0].shape[1]), dtype=up.dtype)
            up_band.reshape(cout, r1 - r0, -1)[:, :, :w] = up[i, :, r0:r1]
            for d, window in zip(d_taps, windows):
                d += up_band @ window.T
        d_weight = d_taps.reshape(k, k, cout, cin).transpose(2, 3, 0, 1)
        d_bias = up.sum(axis=(0, 2, 3), keepdims=True)
        grads = (*np.split(d_x, splits, axis=1), d_weight, d_bias)
        return grads if slope is None else (*grads, d_slope)

    params = (weight, bias) if slope is None else (weight, bias, slope)
    return _emit("conv2d", out, (*xs, *params), backward_fn)


def _window_views(a: np.ndarray) -> list[np.ndarray]:
    """The four strided (N, C, H/2, W/2) views of ``a``'s 2x2 windows, one
    per window position in row-major order."""
    return [a[:, :, dy::2, dx::2] for dy in (0, 1) for dx in (0, 1)]


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2.

    Each output is its window's first maximal element in row-major order,
    bits included, so -0.0 before +0.0 gives -0.0: on a tie
    ``np.maximum`` returns its second operand, so each pair puts the
    earlier element second. The backward rule routes each window's
    upstream gradient to that same element, found again by comparison, so
    gradient mass is deposited exactly once per window and the tape keeps
    no index array.
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2d requires even spatial extents, got {h}x{w}")
    v = _window_views(x.data)
    out = np.maximum(np.maximum(v[3], v[2]), np.maximum(v[1], v[0]))

    def backward_fn(up):
        d_x = np.empty_like(x.data)
        # the gradient's bit patterns times a mask: exact where it is set,
        # +0.0 elsewhere
        bits = up.view(f"u{up.itemsize}")
        free = np.ones(out.shape, dtype=bool)
        for view, d in zip(_window_views(x.data), _window_views(d_x.view(bits.dtype))):
            hit = view == out
            hit &= free
            free ^= hit
            np.multiply(bits, hit, out=d)
        return (d_x,)

    return _emit("maxpool2d", out, (x,), backward_fn)


def upsample_nearest2x(x: Tensor) -> Tensor:
    """Replicate every element into a 2x2 block; backward sums the block."""
    n, c, h, w = x.shape
    out = np.empty((n, c, 2 * h, 2 * w), dtype=x.dtype)
    for view in _window_views(out):
        view[...] = x.data

    def backward_fn(up):
        # column pairs first, then row pairs: bitwise the block sum
        # ``up.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))``
        cols = up[..., 0::2] + up[..., 1::2]
        return (cols[:, :, 0::2] + cols[:, :, 1::2],)

    return _emit("upsample_nearest2x", out, (x,), backward_fn)


# Byte budget of the affinity-matrix row blocks alive at once; attention
# memory grows with positions x block height instead of positions squared.
_ATTENTION_BLOCK_BYTES = 8 * 2 ** 20


def _attention_row_blocks(positions: int, itemsize: int, buffers: int = 1):
    """Row slices whose ``buffers`` (rows, positions) arrays fit the budget."""
    rows = max(1, _ATTENTION_BLOCK_BYTES // (buffers * positions * itemsize))
    for start in range(0, positions, rows):
        yield slice(start, min(start + rows, positions))


def _attention_probs(q_t: np.ndarray, k: np.ndarray, rows: slice, out=None) -> np.ndarray:
    """Row-softmaxed affinities of the query positions ``rows`` to every key.

    ``q_t`` is (positions, C') and ``k`` is (C', positions); the result is
    a (rows, positions) array, written into ``out`` when that is given.
    """
    p = np.matmul(q_t[rows], k, out=out)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


# exp(x) for |x| <= 80 is finite and normal in float32 (which spans about
# e**-87.3 to e**88.7), with room for rounding in the logits.
_UNSHIFTED_EXP_LIMIT = 80.0


def _unshifted_rows(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per query position: whether its softmax can skip the max shift.

    ``q``, ``k`` and ``v`` are (C', positions). Each logit q_i . k_j lies
    within ``bound_i = |q_i| max_j |k_j|``. Where ``bound_i`` is at most
    ``80 - ln(positions * max(1, max|v|))``, every exp(q_i . k_j) and its
    row sum are finite and normal, and its sums weighted by ``v`` are
    finite: each adds at most ``positions`` terms of at most
    e**bound_i * max|v|.
    """
    with np.errstate(over="ignore"):  # an infinite norm only means "not safe"
        bound = np.linalg.norm(q, axis=0) * np.linalg.norm(k, axis=0).max()
    limit = _UNSHIFTED_EXP_LIMIT - math.log(q.shape[1] * max(1.0, float(np.abs(v).max())))
    return bound <= limit


def _attention_operands(*tensors: Tensor):
    """(N, C', H*W) views of equally shaped attention operands."""
    n, c, h, w = tensors[0].shape
    if any(t.shape != (n, c, h, w) for t in tensors):
        raise DimensionError(
            f"attention operands must share one shape, got {[t.shape for t in tensors]}")
    return [t.data.reshape(n, c, h * w) for t in tensors]


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Embedded-Gaussian self-attention over all spatial positions.

    ``q``, ``k`` and ``v`` are (N, C', H, W). Output position i is the
    sum over positions j of softmax_j(q_i . k_j) v_j, again (N, C', H, W).
    Query positions are processed in row blocks, one block alive at a
    time, so the positions x positions affinity matrix never exists whole.

    Every logit of query i lies within ``|q_i| max_j |k_j|``. A block
    whose rows all keep that bound within ``80 - ln(positions * max(1,
    max|v|))`` (``_unshifted_rows``) skips the max shift and normalises
    after the value GEMM: it computes ``e = exp(Q^T[rows] K)`` in place,
    the (rows, C') product ``e V^T`` and the row sums of ``e``, and divides
    the one by the other; no exp or sum can overflow there. Any other block
    keeps the exact max-shifted softmax before its value GEMM, the only
    correct form for large logits. Backward recomputes each block's
    affinities from ``q`` and ``k`` in the max-shifted form.
    """
    qs, ks, vs = _attention_operands(q, k, v)
    n, c, positions = qs.shape
    blocks = list(_attention_row_blocks(positions, qs.itemsize))
    affinities = np.empty((blocks[0].stop, positions), dtype=qs.dtype)
    out = np.empty_like(qs)
    for i in range(n):
        q_t, v_t = qs[i].T, vs[i].T
        unshifted = _unshifted_rows(qs[i], ks[i], vs[i])
        for rows in blocks:
            block = affinities[:rows.stop - rows.start]
            if unshifted[rows].all():
                np.exp(np.matmul(q_t[rows], ks[i], out=block), out=block)
                mixed = block @ v_t
                # numpy's pairwise sum: row sums taken inside the GEMM gave
                # up to 1.5x the max-shifted path's float32 error
                mixed /= block.sum(axis=-1, keepdims=True)
            else:
                mixed = _attention_probs(q_t, ks[i], rows, out=block) @ v_t
            out[i][:, rows] = mixed.T

    def backward_fn(up):
        ups = up.reshape(n, c, positions)
        d_q, d_k, d_v = np.empty_like(qs), np.zeros_like(ks), np.zeros_like(vs)
        # three block arrays alive at once: P, dS and their product
        blocks = list(_attention_row_blocks(positions, qs.itemsize, buffers=3))
        for i in range(n):
            q_t, k_i, v_i = qs[i].T, ks[i], vs[i]
            for rows in blocks:
                p = _attention_probs(q_t, k_i, rows)
                u = ups[i][:, rows].T
                d_v[i] += (p.T @ u).T
                d_s = u @ v_i
                d_s -= (d_s * p).sum(axis=-1, keepdims=True)
                d_s *= p
                d_q[i][:, rows] = (d_s @ k_i.T).T
                d_k[i] += q_t[rows].T @ d_s
        return tuple(d.reshape(q.shape) for d in (d_q, d_k, d_v))

    return _emit("attention", out.reshape(q.shape), (q, k, v), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of identically shaped tensors."""
    if a.shape != b.shape:
        raise DimensionError(f"add requires identical shapes, got {a.shape} and {b.shape}")
    out = a.data + b.data

    def backward_fn(up):
        return up, up

    return _emit("add", out, (a, b), backward_fn)


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute difference; the target is a constant.

    The subgradient at an exact zero difference is 0.
    """
    if pred.shape != target.shape:
        raise DimensionError(f"l1_loss shapes disagree: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    out = np.abs(diff).mean().reshape(1, 1, 1, 1)

    def backward_fn(up):
        g = np.sign(diff) * (up.reshape(()) / pred.size)
        return g, None

    return _emit("l1_loss", out, (pred, target), backward_fn)


def weighted_sum(x: Tensor, weights: np.ndarray) -> Tensor:
    """Dot product with a constant weight array, as a scalar tensor."""
    w = np.asarray(weights, dtype=x.dtype)
    if w.shape != x.shape:
        raise DimensionError(f"weighted_sum weights must match {x.shape}, got {w.shape}")
    out = (x.data * w).sum().reshape(1, 1, 1, 1)

    def backward_fn(up):
        return (w * up.reshape(()),)

    return _emit("weighted_sum", out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

# Central-difference step of ``gradcheck``, in 64-bit arithmetic.
_GRADCHECK_STEP = 1e-5


def _corrupted(backward_fn):
    """``backward_fn`` with its first non-None gradient scaled by 1.02."""
    def faulty(up):
        grads = list(backward_fn(up))
        for i, g in enumerate(grads):
            if g is not None:
                grads[i] = g * 1.02
                break
        return tuple(grads)

    return faulty


@dataclass
class GradcheckResult:
    """Outcome of one analytic-vs-numeric gradient comparison."""

    name: str
    tolerance: float
    per_input: list[float] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max(self.per_input) if self.per_input else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def gradcheck(forward_fn, inputs, tol: float = 1e-4, rng=None, max_coords: int | None = None,
              name: str = "op", fault: str | None = None) -> GradcheckResult:
    """Compare analytic gradients against central finite differences.

    ``forward_fn()`` recomputes the output from the current contents of
    ``inputs``, which must be float64 tensors; differences are taken in
    64-bit arithmetic with step ``_GRADCHECK_STEP``. The output is
    scalarized by a fixed random weighting so the full Jacobian is
    exercised. With ``max_coords`` set, only a deterministic random subset
    of each input's coordinates is probed (needed to keep whole-network
    checks fast). Failure is a report outcome, not an exception. With
    ``fault`` naming an op, that op's backward rules on this check's tape
    are corrupted, so the check must fail (a negative control).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    for t in inputs:
        if t.dtype != np.float64:
            raise ContractError("gradcheck inputs must be float64 tensors")
        t.grad = None

    with Tape() as tape:
        out = forward_fn()
        probe = rng.standard_normal(out.shape)
        loss = weighted_sum(out, probe)
        for node in tape.nodes:
            if node.op_name == fault:
                node.backward_fn = _corrupted(node.backward_fn)
        backward(loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    def scalar_eval() -> float:
        return float((forward_fn().data * probe).sum())

    result = GradcheckResult(name=name, tolerance=tol)
    scale_floor = max(max(np.abs(a).max() for a in analytic), 1e-6)
    for t, a in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        worst = 0.0
        for c in coords:
            orig = flat[c]
            flat[c] = orig + _GRADCHECK_STEP
            f_plus = scalar_eval()
            flat[c] = orig - _GRADCHECK_STEP
            f_minus = scalar_eval()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2 * _GRADCHECK_STEP)
            ana = a.reshape(-1)[c]
            denom = max(abs(ana), abs(numeric), 1e-3 * scale_floor, 1e-12)
            worst = max(worst, abs(ana - numeric) / denom)
        result.per_input.append(worst)
    return result
