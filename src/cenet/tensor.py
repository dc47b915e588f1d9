"""Dense 4-D tensors with reverse-mode automatic differentiation.

Every tensor is an NCHW array of 32-bit floats (64-bit for verification
runs), C-contiguous when built; a parameter may then be given another
layout, as ``blocks.Conv`` gives its weight. Four operators record
themselves onto the active tape: ``conv2d``, ``maxpool2d``, ``attention``
and ``l1_loss``. ``backward`` seeds an output's gradient, 1 for a scalar
loss or a given array of its shape, replays the tape in reverse and
accumulates gradients, each in its tensor's layout, into the tensors the
tape did not produce: parameters and inputs. A tape lives
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

Of a ``conv2d`` that ends in a PReLU without a skip, the tape keeps the
pre-activation alone: its node records a twin of the returned tensor,
with its shape and dtype and no values, so the forward's own references
decide when the returned array dies, as without a tape. The backward
rebuilds the twin's values once, bit for bit, from the pre-activation.
"""

import itertools
import math
import threading
import weakref

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

    __slots__ = ("data", "grad", "tape_node", "__weakref__")

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
    """One recorded op. ``output`` is the tensor the tape holds for the
    op's result, ``returned`` a weak reference to the one the op returned.
    They are one tensor unless ``rebuild`` is set: then ``output`` is a
    twin without values, which ``rebuild`` recomputes from what the node
    keeps."""

    __slots__ = ("tape", "op_name", "inputs", "output", "backward_fn", "returned", "rebuild")

    def __init__(self, tape, op_name, inputs, output, backward_fn, returned, rebuild):
        self.tape = tape
        self.op_name = op_name
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn
        self.returned = returned
        self.rebuild = rebuild

    def release(self):
        """Detach the recorded and the returned tensor from this node."""
        self.output.tape_node = None
        returned = self.returned()
        if returned is not None:
            returned.tape_node = None


class Tape:
    """Ordered record of operations for one forward pass.

    Recording order is the topological order; ``backward`` walks the node
    list in exact reverse. A tape is single-use: once consumed it cannot
    be replayed.

    ``backward`` overwrites each node it has finished with ``None`` in
    place, so the list keeps its length. Leaving the ``with`` block,
    normally or through an exception, releases the rest of the graph: each
    remaining node releases its tensors (``_TapeNode.release``) and the
    node list is emptied, which breaks the tensor <-> node reference
    cycles. Gradients already accumulated into ``.grad`` are kept.
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
                node.release()
        self.nodes.clear()
        return False


class _ThreadState(threading.local):
    """Per-thread stack of the open tapes."""

    def __init__(self):
        self.tape_stack: list[Tape] = []


_LOCAL = _ThreadState()


def _all_finite(a: np.ndarray) -> bool:
    """Whether every element of ``a`` is finite, without an ``a``-sized
    temporary: a finite sum of squares (one BLAS dot) proves it, and only
    when that sum is not finite, as it also is when a finite ``a`` is large
    enough to overflow it, are the elements checked one by one."""
    flat = a.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.dot(flat, flat)
    return math.isfinite(squares) or bool(np.isfinite(a).all())


def _read_only_nan(dtype) -> np.ndarray:
    nan = np.full((1, 1, 1, 1), np.nan, dtype=dtype)
    nan.flags.writeable = False
    return nan


# What a twin's ``data`` views, per dtype: one read-only NaN, seen with zero
# strides in the twin's shape, so its shape and dtype stay readable without
# values, and the view is read-only as its base is.
_EVICTED = {np.dtype(t): _read_only_nan(t) for t in (np.float32, np.float64)}


def _recorded(t: Tensor) -> Tensor:
    """The tensor the tape holds for ``t``: its node's output, or ``t`` itself."""
    return t if t.tape_node is None else t.tape_node.output


def _emit(op_name, out_data, inputs, backward_fn, rebuild=None) -> Tensor:
    """Wrap an op result in a Tensor and record it on the active tape.

    The node records each input as ``_recorded`` gives it. With a
    ``rebuild``, the node's output is a twin of the result whose ``data``
    is a read-only zero-stride view of ``_EVICTED``, built by the
    ``ndarray`` constructor (``np.broadcast_to`` cost about 10 us a call),
    so the tape holds no reference to the result's values; ``_values`` has
    ``rebuild`` recompute them in the backward.
    """
    if not _all_finite(out_data):
        raise ContractError(f"{op_name} produced non-finite values")
    out = Tensor(out_data)
    if _LOCAL.tape_stack:
        tape = _LOCAL.tape_stack[-1]
        output = out
        if rebuild is not None:
            output = Tensor(_EVICTED[out.dtype])
            output.data = np.ndarray(out.shape, out.dtype, output.data, 0, (0, 0, 0, 0))
        # lists: a tuple built from an iterator is resized, and freeing it grows
        # the free list of its new size, which held 0.7 MiB more over a desk run
        node = _TapeNode(tape, op_name, [_recorded(t) for t in inputs], output, backward_fn,
                         weakref.ref(out), rebuild)
        tape.nodes.append(node)
        out.tape_node = output.tape_node = node
    return out


def _values(t: Tensor) -> np.ndarray:
    """``t.data``, first rebuilt, once, by its producing node if ``t`` is a twin."""
    if t.data.base is _EVICTED[t.data.dtype]:
        t.data = t.tape_node.rebuild()
    return t.data


def _accumulate(tensor: Tensor, grad: np.ndarray):
    if tensor.grad is None:  # a copy, as rules may return one array twice, in the tensor's layout
        tensor.grad = np.empty_like(tensor.data)
        tensor.grad[...] = grad
    else:
        tensor.grad += grad


def _run_rule(node: _TapeNode, upstream: np.ndarray):
    """Accumulate one node's input gradients. A function of its own, so that
    the rule's returned arrays die on return, not during the next rule."""
    for tensor, grad in zip(node.inputs, node.backward_fn(upstream)):
        if grad is not None:
            _accumulate(tensor, grad)


def backward(output: Tensor, grad=None):
    """Accumulate the gradient of ``output`` into every parameter and input
    of its tape: each tensor the tape used but did not produce.

    ``grad``, an array of the output's shape, seeds the output's gradient,
    so the call computes a vector-Jacobian product; it is copied into the
    output's dtype, so the caller's array is never a tape gradient. Without
    it the output must be a scalar loss, and the seed is 1. A PReLU
    ``conv2d`` output is seeded on its twin. Tensors feeding multiple
    consumers receive the sum over all paths. The tape is consumed: a
    second call is an error.

    Once a node's rule has run, every consumer of its output has run
    before it, so nothing later reads the node, its saved arrays or its
    output's gradient. Each is released there: the output loses ``.grad``,
    the node releases its tensors and its list entry becomes ``None``. So
    a step's backward peaks near its forward, not at the sum of every
    activation and every intermediate gradient. The seeded output keeps
    its node and its gradient until the tape exits.
    """
    node = output.tape_node
    if node is None:
        raise ContractError("backward() requires a loss recorded on an active tape")
    if grad is None:
        if output.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {output.shape}")
        grad = np.ones(output.shape)
    elif np.shape(grad) != output.shape:
        raise DimensionError(
            f"backward() grad must have the output's shape {output.shape}, got {np.shape(grad)}")
    seeded, tape = node.output, node.tape  # a PReLU conv2d's output is seeded on its twin
    if tape.consumed:
        raise ContractError("tape already consumed; build a new tape for another backward pass")
    tape.consumed = True
    seeded.grad = np.array(grad, dtype=seeded.dtype, order="C")
    nodes = tape.nodes
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        out = node.output
        if out.grad is not None:
            _run_rule(node, out.grad)
        if out is not seeded:
            node.release()
            out.grad = nodes[i] = None


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

# Byte budget of one band of convolution output rows: the padded input rows
# and the output rows it covers, so a band's k² GEMMs run from cache.
_CONV_BAND_BYTES = 256 * 2 ** 10


def _extents(xs: list[np.ndarray]) -> tuple[int, int, int]:
    """(N, H, W) of a convolution over ``xs``: the largest input's extents."""
    if len(xs) == 1:
        n, _, h, w = xs[0].shape
        return n, h, w
    return xs[0].shape[0], max(x.shape[2] for x in xs), max(x.shape[3] for x in xs)


def _fill_upsampled(dst: np.ndarray, x: np.ndarray, lo: int):
    """Write rows ``lo`` on of ``x``'s nearest 2x upsample into ``dst``.

    ``x`` is (C, H/2, W/2) and ``dst`` a (C, rows, W) view. Each of the two
    row parities takes every other ``dst`` row, and each of the two column
    phases every other column of those: four strided writes of ``x``'s
    rows, as upsample row r is ``x`` row r // 2.
    """
    for j in (0, 1):
        top = (lo + j) // 2
        src = x[:, top:top + (dst.shape[1] - j + 1) // 2]
        for phase in (0, 1):
            dst[:, j::2, phase::2] = src


def _bands(xs: list[np.ndarray], cout: int, k: int, by_rows: bool = False):
    """Walk the output of a stride-1 "same" convolution of ``xs`` band by band.

    Yields (image, first row, end row, windows) per band of output rows.
    The band reads one slab: the input rows first - p up to end + p
    (p = k // 2) of every input, stacked along channels in order, zero
    outside the image, padded by p columns on each side and by one zero
    row below. An input with half the output's extents fills its channels
    with the rows of its nearest 2x upsample. ``windows`` is one read-only
    view of the slab. By default the slab is channel-major, (Cin, rows +
    2p + 1, W + 2p), and ``windows`` is (k, k, Cin, rows * (W + 2p)), each
    channel read flat: ``windows[dy, dx]`` starts dy rows and dx columns
    in, so it holds the band's output rows at the slab's pitch, as tap (dy,
    dx) reads them, whose last 2p columns per row fall over the padding.
    ``by_rows`` interleaves the slab's rows, (rows + 2p + 1, Cin, W + 2p),
    filled through its channel-major transpose: the k kernel rows of all
    Cin channels then sit at one stride, and ``windows`` is (k, rows, k *
    Cin, W), ``windows[dx][r]`` the (dy, channel) rows that output row r
    reads at tap column dx, W columns each. A band holds about
    ``_CONV_BAND_BYTES`` of input and output rows, every input counted at
    the output's width, or as many rows as the taps' bytes when those are
    larger, so that deep layers stream their taps once per band of about
    their own size, not once per few rows. The H rows are split into
    round(H / that many rows) bands of equal height, give or take a row,
    so no band is a sliver.
    """
    n, h, w = _extents(xs)
    p = k // 2
    wp = w + 2 * p
    cin = sum(x.shape[1] for x in xs)
    row_bytes = (cin + cout) * wp * xs[0].itemsize
    weight_bytes = k * k * cout * cin * xs[0].itemsize
    rows = max(1, _CONV_BAND_BYTES // row_bytes, -(-weight_bytes // row_bytes))
    count = max(1, round(h / rows))
    for i in range(n):
        for j in range(count):
            r0, r1 = h * j // count, h * (j + 1) // count
            lo, hi = max(r0 - p, 0), min(r1 + p, h)
            height = r1 - r0 + 2 * p + 1
            slab = np.zeros((height, cin, wp) if by_rows else (cin, height, wp), dtype=xs[0].dtype)
            channels = slab.transpose(1, 0, 2) if by_rows else slab
            filled = channels[:, lo - r0 + p:hi - r0 + p, p:p + w]
            c0 = 0
            for x in xs:
                dst = filled[c0:c0 + x.shape[1]]
                c0 += x.shape[1]
                if x.shape[2] == h:
                    dst[...] = x[i, :, lo:hi]
                else:
                    _fill_upsampled(dst, x[i], lo)
            step, outer = slab.itemsize, slab.strides[0]
            if by_rows:
                shape, strides = (k, r1 - r0, k * cin, w), (step, outer, wp * step, step)
            else:
                shape, strides = (k, k, cin, (r1 - r0) * wp), (wp * step, step, outer, step)
            windows = np.ndarray(shape, slab.dtype, slab, 0, strides)
            windows.flags.writeable = False
            yield i, r0, r1, windows


def _prelu_gain(neg: np.ndarray, slope: np.ndarray, off=None) -> np.ndarray:
    """PReLU's gain per element, written over the float mask ``neg`` (1
    where the pre-activation is negative, else 0): ``slope`` where ``neg``,
    else 1. ``off``, an array of ``neg``'s shape that nothing reads any
    more, takes ``neg - 1`` when given, so no new array is touched.

    Branch-free, so mixed signs cost no more than one sign: ``neg * slope``
    minus ``neg - 1``. Where ``neg`` that subtracts +0.0, which keeps every
    slope's bits, -0.0 included (adding ``1 - neg`` would turn it into
    +0.0). The mask is float, not bool: a bool operand of a broadcast
    product is cast in the product's buffered loop, which took up to 1.7x
    as long.
    """
    off = np.subtract(neg, 1, out=off)
    neg *= slope
    neg -= off
    return neg


def _negative(a: np.ndarray) -> np.ndarray:
    """The float mask of ``a``'s negative elements, in ``a``'s dtype: one
    comparison written as floats, no bool array."""
    return np.less(a, 0, out=np.empty_like(a))


def _prelu_grads(pre: np.ndarray, slope: np.ndarray, up: np.ndarray):
    """Gradients of PReLU at pre-activation ``pre``: the input's and the
    slope's. One float mask serves the slope's product and then the gain,
    which reuses the product's array once it is summed."""
    neg = _negative(pre)
    product = pre * up
    product *= neg
    d_slope = product.sum(axis=(0, 2, 3)).reshape(slope.shape)
    gain = _prelu_gain(neg, slope, product)
    gain *= up
    return gain, d_slope


def _by_rows(taps: np.ndarray) -> bool:
    """Whether ``_same_conv`` runs the (k*k, Cout, Cin) ``taps`` on
    row-interleaved slabs: for k > 1 when they fit ``_CONV_BAND_BYTES``.
    Larger taps would be re-packed by each output row's GEMM."""
    return len(taps) > 1 and taps.nbytes <= _CONV_BAND_BYTES


def _same_conv(xs: list[np.ndarray], taps: np.ndarray, k: int, bias=None, slope=None,
               pre=None, skip=None) -> np.ndarray:
    """Stride-1 "same" convolution of the channel concatenation of ``xs``.

    ``xs`` are (N, Cin_j, H, W) arrays, or (N, Cin_j, H/2, W/2) ones read
    as their nearest 2x upsample, and ``taps`` the (k*k, Cout, Cin) tap
    matrices. Where ``_by_rows`` holds, the band's slab is row-interleaved
    and each tap column dx is one (Cout, k*Cin) matrix: one batched GEMM
    with the band's (rows, k*Cin, W) window gives every output row of that
    column, k GEMMs per band with K = k*Cin. Otherwise (1x1 kernels, deep
    layers) each tap is one GEMM with its window of the channel-major slab,
    k² GEMMs per band with K = Cin, whose columns over the padding are
    computed and dropped. The first tap's GEMM writes the band's
    accumulator and each later one is added to it, in tap order: bit for
    bit the sum that starts from zeros, as a GEMM's own sums start from
    +0.0, with no zero fill and no first add (``TestSameConvAccumulator``).
    While the band is in cache, the accumulator gets the (Cout, 1) ``bias``
    added, is copied into ``pre`` when that is given, and is scaled in place
    by the PReLU of the (Cout, 1) ``slope``; the band's rows of the
    output-shaped ``skip`` are then added as the rows are written out.
    """
    n, h, w = _extents(xs)
    cout, cin = taps.shape[1:]
    by_rows = _by_rows(taps)
    if by_rows:  # tap column dx, its (dy, channel) pairs in the slab's row order
        taps = taps.reshape(k, k, cout, cin).transpose(1, 2, 0, 3).reshape(k, cout, k * cin)
    out = np.empty((n, cout, h, w), dtype=xs[0].dtype)
    for i, r0, r1, windows in _bands(xs, cout, k, by_rows):
        operands = iter(windows if by_rows else itertools.chain.from_iterable(windows))
        acc = np.matmul(taps[0], next(operands))
        part = np.empty_like(acc)
        for tap, window in zip(taps[1:], operands):
            acc += np.matmul(tap, window, out=part)
        rows = acc.transpose(1, 0, 2) if by_rows else acc.reshape(cout, r1 - r0, -1)[:, :, :w]
        if bias is not None:
            acc += bias
        if pre is not None:
            pre[i, :, r0:r1] = rows
        if slope is not None:  # the mask takes the last GEMM's array, still in cache
            acc *= _prelu_gain(np.less(acc, 0, out=part), slope)
        if skip is None:
            out[i, :, r0:r1] = rows
        else:
            np.add(rows, skip[i, :, r0:r1], out=out[i, :, r0:r1])
    return out


def _block_sum(d: np.ndarray) -> np.ndarray:
    """The sums of ``d``'s 2x2 blocks: column pairs first, then row pairs,
    bitwise ``d.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))``."""
    cols = d[..., 0::2] + d[..., 1::2]
    return cols[:, :, 0::2] + cols[:, :, 1::2]


def conv2d(x: Tensor | tuple[Tensor, ...], weight: Tensor, bias: Tensor,
           slope: Tensor | None = None, skip: Tensor | None = None) -> Tensor:
    """2-D cross-correlation at stride 1 with "same" zero padding.

    ``x`` is one (N, Cin, H, W) tensor or a tuple of tensors with equal N,
    read as the channel concatenation of the tuple in order, bit for bit,
    without building it. The output takes the largest input's H and W; an
    input with exactly half of them is read as its nearest 2x upsample, bit
    for bit, without building that either, so a decoder join of coarse
    features and a skip is one call. ``weight`` is (Cout, Cin, k, k) with
    odd k and Cin the inputs' total width; ``bias`` is (1, Cout, 1, 1).
    With a (1, Cout, 1, 1) ``slope``, the output is the PReLU of the
    pre-activation ``pre = conv2d(x, weight, bias)``, bit for bit
    ``where(pre < 0, slope * pre, pre)``, applied to each band while it is
    in cache; the pre-activation is kept only while a tape records, for
    the backward. Without a ``skip``, the tape then records a twin of the
    output (``_emit``), which ``_values`` rebuilds from it as
    ``gain * pre``: the forward's own elementwise product, so bit for bit.
    With a ``skip`` of the output's exact (N, Cout, H, W),
    each band's rows of it are added as the band is written out, after
    the bias and the PReLU: the output is bit for bit ``skip`` plus the
    convolution, a residual sum for which no unsummed output is built or
    kept on the tape. The work runs in bands of output rows, each stacking
    and padding only its own input rows, so no padded copy, upsample or
    concatenation of the inputs exists whole and the tape keeps only the
    inputs themselves; the backward reads the recorded inputs' values
    through ``_values``, so a twin is rebuilt there. A kernel larger than
    1x1 whose taps fit ``_CONV_BAND_BYTES`` runs on row-interleaved slabs,
    k GEMMs with K = k*Cin per band; any other on channel-major ones, k²
    GEMMs with K = Cin (``_same_conv``). The two sum in different orders,
    so their float32 results differ in the last bits. The GEMMs read the
    weight as (k, k, Cout, Cin) tap matrices: a weight held in that order
    (``blocks.Conv``'s) is read and kept on the tape as it is, any other is
    copied into it. The backward rule yields a gradient for each input, the
    bias, the slope and the skip, which takes the upstream gradient
    unchanged, and sums the weight's straight into ``weight.grad``, which
    starts as zeros in the weight's layout; the input gradient is the same
    convolution of the upstream gradient with the kernel flipped in space
    and its channel axes swapped, summed over 2x2 blocks for a half-extent
    input (column pairs first, then row pairs).
    """
    xs = (x,) if isinstance(x, Tensor) else tuple(x)
    if not xs:
        raise DimensionError("conv2d needs at least one input")
    data = [t.data for t in xs]
    n, h, w = _extents(data)
    if any(t.shape[0] != n or (t.shape[2], t.shape[3]) not in ((h, w), (h / 2, w / 2))
           for t in xs):
        raise DimensionError(
            "conv2d inputs disagree on batch/spatial extents (each must have the largest "
            f"extents or exactly half of them): {' vs '.join(str(t.shape) for t in xs)}")
    edges = (0, *itertools.accumulate(t.shape[1] for t in xs))  # the inputs' channel ranges
    cin = edges[-1]
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
    if skip is not None and skip.shape != (n, cout, h, w):
        raise DimensionError(
            f"conv2d skip must have the output's shape {(n, cout, h, w)}, got {skip.shape}")

    taps = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1)).reshape(k * k, cout, cin)
    pre = None
    if slope is not None and _LOCAL.tape_stack:
        pre = np.empty((n, cout, h, w), dtype=data[0].dtype)
    out = _same_conv(data, taps, k, bias.data.reshape(cout, 1),
                     None if slope is None else slope.data.reshape(cout, 1), pre,
                     None if skip is None else skip.data)
    # the backward reads the tape's tensors for the inputs and keeps no skip
    xs, has_skip = [_recorded(t) for t in xs], skip is not None

    def backward_fn(up):
        d_skip = up
        if slope is not None:
            up, d_slope = _prelu_grads(pre, slope.data, up)
        # a spatial flip reverses the tap order
        d_x = _same_conv([up], taps[::-1].transpose(0, 2, 1), k)
        if weight.grad is None:
            weight.grad = np.zeros_like(weight.data)
        # each band adds its weight gradient to weight.grad, seen in tap
        # order, with one batched GEMM per kernel row: the BLAS call of each
        # tap, then one sum. A kernel row's temporary, not a whole weight's,
        # which raised the paper-width step peak by 3 MiB
        d_w = weight.grad.transpose(2, 3, 0, 1)
        for i, r0, r1, windows in _bands([_values(t) for t in xs], cout, k):
            up_band = np.zeros((cout, windows.shape[-1]), dtype=up.dtype)
            up_band.reshape(cout, r1 - r0, -1)[:, :, :w] = up[i, :, r0:r1]
            for d_row, row in zip(d_w, windows.transpose(0, 1, 3, 2)):
                d_row += np.matmul(up_band, row)
        d_bias = up.sum(axis=(0, 2, 3), keepdims=True)
        d_xs = (d_x[:, lo:hi] if t.shape[2] == h else _block_sum(d_x[:, lo:hi])
                for t, lo, hi in zip(xs, edges, edges[1:]))
        grads = (*d_xs, None, d_bias)
        if slope is not None:
            grads += (d_slope,)
        return (*grads, d_skip) if has_skip else grads

    def rebuild():
        gain = _prelu_gain(_negative(pre), slope.data)
        gain *= pre  # the forward's product with its operands swapped, so bit for bit
        return gain

    extra = tuple(t for t in (slope, skip) if t is not None)
    return _emit("conv2d", out, (*xs, weight, bias, *extra), backward_fn,
                 rebuild if pre is not None and not has_skip else None)


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
    x = _recorded(x)

    def backward_fn(up):
        d_x = np.empty(x.shape, dtype=x.dtype)
        # the gradient's bit patterns times a mask: exact where it is set,
        # +0.0 elsewhere
        bits = up.view(f"u{up.itemsize}")
        free = np.ones(out.shape, dtype=bool)
        for view, d in zip(_window_views(_values(x)), _window_views(d_x.view(bits.dtype))):
            hit = view == out
            hit &= free
            free ^= hit
            np.multiply(bits, hit, out=d)
        return (d_x,)

    return _emit("maxpool2d", out, (x,), backward_fn)


# Byte budget of the affinity-matrix row blocks alive at once; attention
# memory grows with positions x block height instead of positions squared.
_ATTENTION_BLOCK_BYTES = 8 * 2 ** 20


def _attention_row_blocks(positions: int, itemsize: int, buffers: int = 1):
    """Row slices whose ``buffers`` (rows, positions) arrays fit the budget."""
    rows = max(1, _ATTENTION_BLOCK_BYTES // (buffers * positions * itemsize))
    for start in range(0, positions, rows):
        yield slice(start, min(start + rows, positions))


def _logit_bounds(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per query position of the (C', positions) ``q``: a bound on the
    magnitude of its logits q_i . k_j, ``|q_i| max_j |k_j|``."""
    with np.errstate(over="ignore"):  # an infinite norm only means "no bound"
        return np.linalg.norm(q, axis=0) * np.linalg.norm(k, axis=0).max()


# The least exponent whose exp is a normal float, per dtype: about -87.3 in
# float32 and -708.4 in float64, one step above the log of the smallest normal.
_EXP_FLOOR = {np.dtype(t): np.nextafter(np.log(np.finfo(t).tiny), 0)
              for t in (np.float32, np.float64)}


def _exp_block(q_t: np.ndarray, k: np.ndarray, rows: slice, shift: bool, out=None):
    """The exponentiated affinities of the query positions ``rows`` to every
    key, and their row sums: the softmax of each row, and its mix of values,
    once divided by them, whatever the shift.

    ``q_t`` is (positions, C') and ``k`` is (C', positions). The logits
    ``Q^T[rows] K`` are written into ``out`` when that is given, less each
    row's max when ``shift`` is set, and exponentiated in place into the
    (rows, positions) ``e``. A shifted block any of whose rows can spread
    past ``-_EXP_FLOOR`` (twice its ``_logit_bounds``) is clamped at the
    floor before the exp and has the floor's exp taken off after it: an exp
    below the floor would be subnormal, which is slow, here and in the
    value GEMM, and its share of a row sum of at least 1 is below rounding.
    Other blocks make no extra pass. The (rows, 1) sums are numpy's
    pairwise sums: sums taken inside the value GEMM gave up to 1.5x the
    float32 error.
    """
    e = np.matmul(q_t[rows], k, out=out)
    floor = _EXP_FLOOR[e.dtype]
    clamp = shift and not 2 * _logit_bounds(q_t[rows].T, k).max() <= -floor
    if shift:
        e -= e.max(axis=-1, keepdims=True)
    if clamp:
        np.maximum(e, floor, out=e)
    np.exp(e, out=e)
    if clamp:  # the clamped exps become zeros
        e -= np.exp(floor)
    return e, e.sum(axis=-1, keepdims=True)


# exp(x) for |x| <= 80 is finite and normal in float32 (which spans about
# e**-87.3 to e**88.7), with room for rounding in the logits.
_UNSHIFTED_EXP_LIMIT = 80.0


def _unshifted_rows(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per query position: whether its softmax can skip the max shift.

    ``q``, ``k`` and ``v`` are (C', positions). Each logit q_i . k_j lies
    within ``bound_i`` (``_logit_bounds``). Where ``bound_i`` is at most
    ``80 - ln(positions * max(1, max|v|))``, every exp(q_i . k_j) and its
    row sum are finite and normal, and its sums weighted by ``v`` are
    finite: each adds at most ``positions`` terms of at most
    e**bound_i * max|v|.
    """
    limit = _UNSHIFTED_EXP_LIMIT - math.log(q.shape[1] * max(1.0, float(np.abs(v).max())))
    return _logit_bounds(q, k) <= limit


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

    One routine, ``_exp_block``, exponentiates every block's logits in
    place and takes their row sums, and the forward divides the block's
    (rows, C') product ``e V^T`` by those sums: normalising after the value
    GEMM is exact with or without a max shift. Every logit of query i lies
    within ``|q_i| max_j |k_j|``. A block whose rows all keep that bound
    within ``80 - ln(positions * max(1, max|v|))`` (``_unshifted_rows``)
    skips the shift, as no exp or sum can overflow there; any other block
    subtracts each row's max first, the only correct form for large
    logits. Backward recomputes each block's affinities from ``q`` and
    ``k`` through the same routine, max-shifted, and divides them by their
    row sums.
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
            e, sums = _exp_block(q_t, ks[i], rows, not unshifted[rows].all(),
                                 out=affinities[:rows.stop - rows.start])
            mixed = e @ v_t
            mixed /= sums
            out[i][:, rows] = mixed.T

    def backward_fn(up):
        ups = up.reshape(n, c, positions)
        d_q, d_k, d_v = np.empty_like(qs), np.zeros_like(ks), np.zeros_like(vs)
        # three block arrays alive at once: P, dS and their product
        blocks = list(_attention_row_blocks(positions, qs.itemsize, buffers=3))
        for i in range(n):
            q_t, k_i, v_i = qs[i].T, ks[i], vs[i]
            for rows in blocks:
                p, sums = _exp_block(q_t, k_i, rows, shift=True)
                p /= sums
                u = ups[i][:, rows].T
                d_v[i] += (p.T @ u).T
                d_s = u @ v_i
                d_s -= (d_s * p).sum(axis=-1, keepdims=True)
                d_s *= p
                d_q[i][:, rows] = (d_s @ k_i.T).T
                d_k[i] += q_t[rows].T @ d_s
        return tuple(d.reshape(q.shape) for d in (d_q, d_k, d_v))

    return _emit("attention", out.reshape(q.shape), (q, k, v), backward_fn)


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute difference; the target is a constant.

    The subgradient at an exact zero difference is 0. The backward
    recomputes the difference's sign from ``pred`` and ``target``, which
    the tape holds anyway, so no copy of the difference is kept.
    """
    if pred.shape != target.shape:
        raise DimensionError(f"l1_loss shapes disagree: {pred.shape} vs {target.shape}")
    out = np.abs(pred.data - target.data).mean().reshape(1, 1, 1, 1)

    def backward_fn(up):
        g = np.sign(pred.data - target.data) * (up.reshape(()) / pred.size)
        return g, None

    return _emit("l1_loss", out, (pred, target), backward_fn)
