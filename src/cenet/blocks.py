"""Building blocks of the context-aware enhancement network.

The network is an encoder-decoder over NCHW tensors. Each encoder stage
is a feature block whose output is kept as a skip and then max-pooled;
the bottleneck is a feature block, optionally followed by a non-local
attention block (global context); each decoder stage runs a feature block
on its 2x nearest-upsampled input and the matching skip, whose first
convolution reads the upsample in its bands without building it; a 3x3
head maps back to RGB. A feature block is a basic block of two 3x3
convolutions, optionally followed by a dense residual block (local
context). The dense residual block and the non-local block each end in a
skip sum, which their last convolution adds as it writes its output.

What a taped forward keeps of each activation is the tape's rule
(``cenet.tensor``); the blocks only drop their own references early.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DimensionError,
    Parameter,
    Tensor,
    attention,
    conv2d,
    maxpool2d,
)
# perfbench's tracer patches these names, which no op has any more; ROADMAP item 1 deletes this.
add = concat_channels = matmul = permute = prelu = reshape = softmax_rows = None
upsample_nearest2x = None

RGB_CHANNELS = 3


def keyed_rng(seed: int, name: str) -> np.random.Generator:
    """A generator keyed by (seed, name), so adding or removing a named draw
    (a parameter, a gradcheck case) never shifts the draws of the others."""
    return np.random.default_rng(
        np.random.SeedSequence((int(seed), int.from_bytes(name.encode(), "little"))))


class Block:
    """A network part whose parameters are its attributes.

    ``parameters()`` walks the attributes in assignment order: a
    ``Parameter`` is listed, a sub-block (alone or in a list) contributes
    its own parameters, anything else is skipped. That order is the record
    order of checkpoints and of the optimizer state.
    """

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for value in vars(self).values():
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, Parameter):
                    params.append(item)
                elif isinstance(item, Block):
                    params += item.parameters()
        return params


class Conv(Block):
    """A k x k convolution: a ``<name>.weight`` drawn by its record name, a zero
    ``<name>.bias`` and, when ``act`` is given, a PReLU ``<act>.slope`` at 0.25
    run in the convolution's bands.

    The weight is held in the tap order ``conv2d``'s GEMMs read: a
    C-contiguous (k, k, Cout, Cin) buffer, seen through ``weight.data`` as
    its (Cout, Cin, k, k) transpose. So ``conv2d`` reads the buffer itself,
    keeps no copy of it on the tape, and the weight's gradient takes that
    layout. A convolution on row-interleaved slabs (``tensor._by_rows``:
    k > 1 and taps within ``_CONV_BAND_BYTES``) still reorders the taps into
    k (Cout, k*Cin) matrices in its forward and again in its input
    gradient, a copy of at most that bound each time, dropped on return.
    """

    def __init__(self, name: str, c_in: int, c_out: int, k: int, seed: int,
                 act: str | None = None):
        bound = math.sqrt(6.0 / (c_in * k * k))
        data = keyed_rng(seed, f"{name}.weight").uniform(-bound, bound, (c_out, c_in, k, k))
        taps = np.ascontiguousarray(data.transpose(2, 3, 0, 1), dtype=np.float32)
        self.weight = Parameter(f"{name}.weight", taps)  # a Tensor's data starts C-contiguous
        self.weight.data = taps.transpose(2, 3, 0, 1)
        self.bias = Parameter(f"{name}.bias", np.zeros((1, c_out, 1, 1), dtype=np.float32))
        self.slope = None if act is None else Parameter(
            f"{act}.slope", np.full((1, c_out, 1, 1), 0.25, dtype=np.float32))

    def forward(self, x: Tensor | tuple[Tensor, ...], skip: Tensor | None = None) -> Tensor:
        """A tuple ``x`` is read as its channel concatenation; a ``skip`` is
        added to the output."""
        return conv2d(x, self.weight, self.bias, self.slope, skip)


class BasicBlock(Block):
    """Two stacked 3x3 convolutions, each followed by a PReLU (run in the
    convolution's bands)."""

    def __init__(self, name: str, c_in: int, c_out: int, seed: int):
        self.conv1 = Conv(f"{name}.conv1", c_in, c_out, 3, seed, act=f"{name}.act1")
        self.conv2 = Conv(f"{name}.conv2", c_out, c_out, 3, seed, act=f"{name}.act2")

    def forward(self, f: Tensor | tuple[Tensor, ...]) -> Tensor:
        """A tuple ``f`` is read as its channel concatenation."""
        f = self.conv1.forward(f)  # releases a tuple's join before the second convolution
        return self.conv2.forward(f)


class DenseResidualBlock(Block):
    """Three densely connected 3x3 convolutions closed by an input skip.

    Layer l consumes the channel concatenation of the block input and all
    previous layer outputs, so its input width is l times the block width.
    Each layer's convolution reads those tensors in place, so the
    concatenation is never built. The last layer is linear and adds the
    block input as it writes its output, so the skip makes the zero-weight
    block an exact identity and the unsummed branch output never exists.
    """

    def __init__(self, name: str, channels: int, seed: int):
        self.layers = [Conv(f"{name}.layer{i}", i * channels, channels, 3, seed,
                            act=f"{name}.act{i}" if i < 3 else None) for i in (1, 2, 3)]

    def forward(self, f: Tensor) -> Tensor:
        ys = (f,)
        for layer in self.layers[:-1]:
            ys += (layer.forward(ys),)
        return self.layers[-1].forward(ys, skip=f)


class NonLocalBlock(Block):
    """Residual self-attention over the full spatial extent.

    Query, key, and value are 1x1 projections into a bottleneck of
    ceil(C/2) channels; affinities are row-softmaxed dot products between
    query and key vectors, so every output position aggregates value
    vectors from all positions. The output projection adds the block input
    as it writes its output, and starts at zero, which makes a freshly
    built block the identity map.

    The key bias cannot learn: it adds q_i . b to every logit of query row
    i, which the row softmax cancels, so its gradient is analytically zero.
    It stays a parameter so that checkpoints keep their records.
    """

    def __init__(self, name: str, channels: int, seed: int):
        inner = (channels + 1) // 2
        self.query = Conv(f"{name}.query", channels, inner, 1, seed)
        self.key = Conv(f"{name}.key", channels, inner, 1, seed)
        self.value = Conv(f"{name}.value", channels, inner, 1, seed)
        self.out = Conv(f"{name}.out", inner, channels, 1, seed)
        self.out.weight.data.fill(0.0)

    def forward(self, z: Tensor) -> Tensor:
        mixed = attention(self.query.forward(z), self.key.forward(z), self.value.forward(z))
        return self.out.forward(mixed, skip=z)


class FeatureBlock(Block):
    """Per-stage feature computation: a basic block, densely augmented
    when local-context modeling is enabled.

    The dense residual block preserves its channel count, so the width
    change of a stage always happens in the basic block.
    """

    def __init__(self, name: str, c_in: int, c_out: int, local_context: bool, seed: int):
        self.basic = BasicBlock(f"{name}.bb", c_in, c_out, seed)
        self.dense = DenseResidualBlock(f"{name}.drb", c_out, seed) if local_context else None

    def forward(self, f: Tensor, skip: Tensor | None = None) -> Tensor:
        """With ``skip``, ``f`` is a decoder stage's half-resolution input and
        the basic block's first convolution reads the join (``f`` upsampled,
        ``skip``) in its bands. The join goes to the basic block through the
        one-element list ``held``, as its only reference, so given the
        caller's last references, without a tape ``f`` and ``skip`` are
        released when the first convolution returns, before the second."""
        held = [f if skip is None else (f, skip)]
        del f, skip
        features = self.basic.forward(held.pop())
        return features if self.dense is None else self.dense.forward(features)


@dataclass
class NetworkConfig:
    """Architecture hyperparameters; spatial extents must divide 2**num_stages."""

    num_stages: int = 4
    base_channels: int = 32
    use_global_context: bool = True
    use_local_context: bool = True

    def validate(self):
        if self.num_stages < 1:
            raise ValueError(f"num_stages must be positive, got {self.num_stages}")
        if self.base_channels < 1:
            raise ValueError(f"base_channels must be positive, got {self.base_channels}")

    @property
    def divisor(self) -> int:
        return 2 ** self.num_stages

    @classmethod
    def of_parameters(cls, shapes: dict[str, tuple[int, ...]]) -> "NetworkConfig":
        """The config of the network whose parameters, by name, have ``shapes``."""
        stages = 1
        while f"enc{stages}.bb.conv1.weight" in shapes:
            stages += 1
        width = shapes.get("enc0.bb.conv1.weight") or (1,)  # if bad, restore names it
        return cls(stages, max(width[0], 1),
                   "mid.attn.query.weight" in shapes, "mid.drb.layer1.weight" in shapes)


class EnhancementNetwork(Block):
    """Encoder-decoder enhancement network with optional global and local
    context modules.

    All parameters are drawn deterministically from (seed, parameter name),
    so two networks built from the same seed share every parameter they
    have in common regardless of the variant flags.
    """

    def __init__(self, config: NetworkConfig, seed: int = 0):
        config.validate()
        self.config = config
        m = config.num_stages
        lc = config.use_local_context
        self.encoder: list[FeatureBlock] = []
        c_in = RGB_CHANNELS
        for i in range(m):
            c_out = config.base_channels * 2 ** i
            self.encoder.append(FeatureBlock(f"enc{i}", c_in, c_out, lc, seed))
            c_in = c_out
        mid_channels = config.base_channels * 2 ** m
        self.mid = FeatureBlock("mid", c_in, mid_channels, lc, seed)
        self.attention = (NonLocalBlock("mid.attn", mid_channels, seed)
                          if config.use_global_context else None)
        self.decoder: list[FeatureBlock] = []
        for i in reversed(range(m)):
            c_src = config.base_channels * 2 ** (i + 1)
            c_skip = config.base_channels * 2 ** i
            self.decoder.append(FeatureBlock(f"dec{i}", c_src + c_skip, c_skip, lc, seed))
        self.head = Conv("head", config.base_channels, RGB_CHANNELS, 3, seed)

    def forward(self, f: Tensor) -> Tensor:
        """Given the caller's last reference to the input ``f``, without a
        tape the input is released when the stem's first convolution
        returns.

        Each stage gets its input through the one-element list ``held``, so
        the stage's argument is that input's only reference: a decoder
        stage's half-resolution input, like the network input, dies when the
        stage's first convolution returns, not when the stage does."""
        h, w = f.shape[2:]
        div = self.config.divisor
        if h % div or w % div:
            raise DimensionError(
                f"spatial extents {h}x{w} must be divisible by {div} "
                f"(2**num_stages with num_stages={self.config.num_stages})")
        held, skips = [f], []
        del f
        for block in self.encoder:
            skips.append(block.forward(held.pop()))
            held.append(maxpool2d(skips[-1]))
        held.append(self.mid.forward(held.pop()))
        if self.attention is not None:
            held.append(self.attention.forward(held.pop()))
        for block in self.decoder:
            held.append(block.forward(held.pop(), skips.pop()))
        return self.head.forward(held.pop())

    def named_parameters(self) -> dict[str, Parameter]:
        return {p.name: p for p in self.parameters()}

    def structure(self) -> dict[str, int]:
        """Structural census: block counts and total parameter scalars."""
        names = [p.name for p in self.parameters()]
        return {
            "attention_blocks": 1 if self.attention is not None else 0,
            "dense_blocks": sum(1 for n in names if n.endswith("drb.layer1.weight")),
            "parameter_tensors": len(names),
            "parameter_scalars": sum(p.size for p in self.parameters()),
        }
