"""Building blocks of the context-aware enhancement network.

The network is an encoder-decoder over NCHW tensors. Each encoder stage
is a feature block whose output is kept as a skip and then max-pooled;
the bottleneck is a feature block, optionally followed by a non-local
attention block (global context); each decoder stage upsamples and runs
a feature block on the upsampled features and the matching skip; a 3x3
head maps back to RGB. A feature block is a basic block of two 3x3
convolutions, optionally followed by a dense residual block (local
context).
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DimensionError,
    Parameter,
    Tensor,
    add,
    attention,
    conv2d,
    maxpool2d,
    upsample_nearest2x,
)
# Unused here; perfbench's tracer looks these names up on this module.
from .tensor import concat_channels, matmul, permute, prelu, reshape, softmax_rows  # noqa: F401

RGB_CHANNELS = 3


def _param_rng(seed: int, name: str) -> np.random.Generator:
    # Keyed by name so adding or removing blocks never shifts the draws
    # of the blocks that remain.
    return np.random.default_rng(
        np.random.SeedSequence((int(seed), int.from_bytes(name.encode(), "little"))))


def _conv_param(name: str, c_out: int, c_in: int, k: int, seed: int) -> Parameter:
    bound = math.sqrt(6.0 / (c_in * k * k))
    data = _param_rng(seed, name).uniform(-bound, bound, (c_out, c_in, k, k))
    return Parameter(name, data.astype(np.float32))


def _channel_param(name: str, channels: int, value: float) -> Parameter:
    return Parameter(name, np.full((1, channels, 1, 1), value, dtype=np.float32))


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


class BasicBlock(Block):
    """Two stacked 3x3 convolutions, each followed by a PReLU (run in the
    convolution's bands)."""

    def __init__(self, name: str, c_in: int, c_out: int, seed: int):
        self.conv1_w = _conv_param(f"{name}.conv1.weight", c_out, c_in, 3, seed)
        self.conv1_b = _channel_param(f"{name}.conv1.bias", c_out, 0.0)
        self.slope1 = _channel_param(f"{name}.act1.slope", c_out, 0.25)
        self.conv2_w = _conv_param(f"{name}.conv2.weight", c_out, c_out, 3, seed)
        self.conv2_b = _channel_param(f"{name}.conv2.bias", c_out, 0.0)
        self.slope2 = _channel_param(f"{name}.act2.slope", c_out, 0.25)

    def forward(self, f: Tensor | tuple[Tensor, ...]) -> Tensor:
        """A tuple ``f`` is read as its channel concatenation."""
        f = conv2d(f, self.conv1_w, self.conv1_b, self.slope1)
        return conv2d(f, self.conv2_w, self.conv2_b, self.slope2)


class DenseResidualBlock(Block):
    """Three densely connected 3x3 convolutions closed by an input skip.

    Layer l consumes the channel concatenation of the block input and all
    previous layer outputs, so its input width is l times the block width.
    Each layer's convolution reads those tensors in place, so the
    concatenation is never built. The last layer is linear and the skip
    makes the zero-weight block an exact identity.
    """

    def __init__(self, name: str, channels: int, seed: int):
        self.layer1_w = _conv_param(f"{name}.layer1.weight", channels, channels, 3, seed)
        self.layer1_b = _channel_param(f"{name}.layer1.bias", channels, 0.0)
        self.slope1 = _channel_param(f"{name}.act1.slope", channels, 0.25)
        self.layer2_w = _conv_param(f"{name}.layer2.weight", channels, 2 * channels, 3, seed)
        self.layer2_b = _channel_param(f"{name}.layer2.bias", channels, 0.0)
        self.slope2 = _channel_param(f"{name}.act2.slope", channels, 0.25)
        self.layer3_w = _conv_param(f"{name}.layer3.weight", channels, 3 * channels, 3, seed)
        self.layer3_b = _channel_param(f"{name}.layer3.bias", channels, 0.0)

    def forward(self, f: Tensor) -> Tensor:
        y1 = conv2d(f, self.layer1_w, self.layer1_b, self.slope1)
        y2 = conv2d((f, y1), self.layer2_w, self.layer2_b, self.slope2)
        y3 = conv2d((f, y1, y2), self.layer3_w, self.layer3_b)
        del y1, y2  # without a tape, the sum needs only f and y3
        return add(f, y3)


class NonLocalBlock(Block):
    """Residual self-attention over the full spatial extent.

    Query, key, and value are 1x1 projections into a bottleneck of
    ceil(C/2) channels; affinities are row-softmaxed dot products between
    query and key vectors, so every output position aggregates value
    vectors from all positions. The output projection starts at zero,
    which makes a freshly built block the identity map.

    The key bias cannot learn: it adds q_i . b to every logit of query row
    i, which the row softmax cancels, so its gradient is analytically zero.
    It stays a parameter so that checkpoints keep their records.
    """

    def __init__(self, name: str, channels: int, seed: int):
        self.inner = (channels + 1) // 2
        self.query_w = _conv_param(f"{name}.query.weight", self.inner, channels, 1, seed)
        self.query_b = _channel_param(f"{name}.query.bias", self.inner, 0.0)
        self.key_w = _conv_param(f"{name}.key.weight", self.inner, channels, 1, seed)
        self.key_b = _channel_param(f"{name}.key.bias", self.inner, 0.0)
        self.value_w = _conv_param(f"{name}.value.weight", self.inner, channels, 1, seed)
        self.value_b = _channel_param(f"{name}.value.bias", self.inner, 0.0)
        self.out_w = Parameter(f"{name}.out.weight",
                               np.zeros((channels, self.inner, 1, 1), dtype=np.float32))
        self.out_b = _channel_param(f"{name}.out.bias", channels, 0.0)

    def forward(self, z: Tensor) -> Tensor:
        mixed = attention(conv2d(z, self.query_w, self.query_b),
                          conv2d(z, self.key_w, self.key_b),
                          conv2d(z, self.value_w, self.value_b))
        return add(z, conv2d(mixed, self.out_w, self.out_b))


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
        the basic block reads the join (upsampled ``f``, ``skip``). Only the
        basic block's argument holds the join, so without a tape its first
        convolution is the upsample's last reader; the skip is released
        before the dense block."""
        f = self.basic.forward(f if skip is None else (upsample_nearest2x(f), skip))
        del skip
        if self.dense is not None:
            f = self.dense.forward(f)
        return f


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
        self.head_w = _conv_param("head.weight", RGB_CHANNELS, config.base_channels, 3, seed)
        self.head_b = _channel_param("head.bias", RGB_CHANNELS, 0.0)

    def forward(self, x: Tensor) -> Tensor:
        h, w = x.shape[2:]
        div = self.config.divisor
        if h % div or w % div:
            raise DimensionError(
                f"spatial extents {h}x{w} must be divisible by {div} "
                f"(2**num_stages with num_stages={self.config.num_stages})")
        skips = []
        f = x
        for block in self.encoder:
            f = block.forward(f)
            skips.append(f)
            f = maxpool2d(f)
        f = self.mid.forward(f)
        if self.attention is not None:
            f = self.attention.forward(f)
        for block in self.decoder:
            f = block.forward(f, skips.pop())
        return conv2d(f, self.head_w, self.head_b)

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
