"""Block invariants and the network's structural contracts."""

import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from cenet import blocks
from cenet.blocks import (
    BasicBlock,
    DenseResidualBlock,
    EnhancementNetwork,
    NetworkConfig,
    NonLocalBlock,
)
from cenet.tensor import (
    DimensionError,
    Parameter,
    Tape,
    Tensor,
    attention,
    backward,
    conv2d,
    maxpool2d,
)
from cenet.verify import _float64

from reference import attention_naive, conv2d_naive, prelu_ref


def rand4(shape, seed=0, lo=0.0, hi=1.0):
    return Tensor(np.random.default_rng(seed).uniform(lo, hi, shape).astype(np.float32))


def multi_input_convs(tape: Tape) -> list[int]:
    """The input-tensor count of each conv2d on ``tape`` that convolves more
    than one tensor (a node's inputs are the tensors it convolves, then its
    parameters: weight, bias and, with a fused PReLU, slope, then the skip
    it adds, if any)."""
    counts = [next(i for i, t in enumerate(n.inputs) if isinstance(t, Parameter))
              for n in tape.nodes if n.op_name == "conv2d"]
    return [c for c in counts if c > 1]


def taped_forward(block, x: Tensor) -> tuple[int, list[str]]:
    """The traced bytes a taped ``block.forward(x)`` leaves held, and the op
    names on its tape."""
    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            out = block.forward(x)
            held = tracemalloc.get_traced_memory()[0] - before
            ops = [node.op_name for node in tape.nodes]
            del out
    finally:
        tracemalloc.stop()
    return held, ops


def attention_probs(block: NonLocalBlock, z: Tensor) -> np.ndarray:
    """The block's (N, H*W, H*W) attention probabilities, read off ``attention``.

    Query and key are zero-padded to H*W channels, which leaves their dot
    products unchanged, so that value channel j can be the indicator of
    position j: output channel j at position i is then the weight of j in
    row i. ``attention_naive`` must agree on the same operands.
    """
    q = conv2d(z, block.query.weight, block.query.bias).data
    k = conv2d(z, block.key.weight, block.key.bias).data
    n, c, h, w = q.shape
    positions = h * w
    pad = np.zeros((n, positions - c, h, w), dtype=q.dtype)
    indicators = np.broadcast_to(np.eye(positions, dtype=q.dtype).reshape(positions, h, w),
                                 (n, positions, h, w))
    operands = (np.concatenate([q, pad], axis=1), np.concatenate([k, pad], axis=1), indicators)
    out = attention(*(Tensor(x) for x in operands)).data
    npt.assert_allclose(out, attention_naive(*operands), atol=1e-6)
    return out.reshape(n, positions, positions).transpose(0, 2, 1)


class TestBasicBlock:
    def test_zero_weights_zero_output(self):
        block = BasicBlock("b", 3, 4, seed=0)
        for p in (block.conv1.weight, block.conv1.bias, block.conv2.weight, block.conv2.bias):
            p.data[:] = 0
        out = block.forward(rand4((1, 3, 8, 8)))
        npt.assert_array_equal(out.data, np.zeros((1, 4, 8, 8)))

    def test_shape_contract(self):
        block = BasicBlock("b", 5, 7, seed=1)
        out = block.forward(rand4((2, 5, 8, 8)))
        assert out.shape == (2, 7, 8, 8)

    def test_matches_op_composition_oracle(self):
        block = BasicBlock("b", 2, 3, seed=2)
        x = rand4((1, 2, 6, 6), seed=3, lo=-1)
        out = block.forward(x)
        h1 = conv2d_naive(x.data, block.conv1.weight.data, block.conv1.bias.data, 1, 1)
        h1 = prelu_ref(h1, block.conv1.slope.data.ravel())
        h2 = conv2d_naive(h1, block.conv2.weight.data, block.conv2.bias.data, 1, 1)
        h2 = prelu_ref(h2, block.conv2.slope.data.ravel())
        npt.assert_allclose(out.data, h2, rtol=1e-4, atol=1e-5)


class TestDenseResidualBlock:
    def test_zero_weights_is_identity(self):
        block = DenseResidualBlock("d", 6, seed=0)
        for p in block.parameters():
            if "slope" not in p.name.split(".")[-1]:
                p.data[:] = 0
        x = rand4((2, 6, 8, 8), lo=-1)
        out = block.forward(x)
        npt.assert_array_equal(out.data, x.data)

    def test_dense_concatenation_widths(self):
        block = DenseResidualBlock("d", 16, seed=0)
        assert block.layers[0].weight.shape == (16, 16, 3, 3)
        assert block.layers[1].weight.shape == (16, 32, 3, 3)
        assert block.layers[2].weight.shape == (16, 48, 3, 3)
        out = block.forward(rand4((1, 16, 8, 8)))
        assert out.shape == (1, 16, 8, 8)

    def test_matches_op_composition_oracle(self):
        block = DenseResidualBlock("d", 3, seed=4)
        x = rand4((1, 3, 5, 5), seed=5, lo=-1)
        out = block.forward(x)
        l1, l2, l3 = block.layers
        y1 = prelu_ref(conv2d_naive(x.data, l1.weight.data, l1.bias.data, 1, 1),
                       l1.slope.data.ravel())
        y2_in = np.concatenate([x.data, y1], axis=1)
        y2 = prelu_ref(conv2d_naive(y2_in, l2.weight.data, l2.bias.data, 1, 1),
                       l2.slope.data.ravel())
        y3_in = np.concatenate([x.data, y1, y2], axis=1)
        y3 = conv2d_naive(y3_in, l3.weight.data, l3.bias.data, 1, 1)
        npt.assert_allclose(out.data, x.data + y3, rtol=1e-4, atol=1e-5)

    def test_tape_holds_no_concatenation(self):
        # The tape keeps two pre-activations and the block output: 3x the
        # input. A 16- or 24-channel concatenation would add 2x or 3x.
        x = rand4((1, 8, 128, 128), lo=-1)
        held, _ = taped_forward(DenseResidualBlock("d", 8, seed=0), x)
        assert held < 7 * x.data.nbytes

    def test_tape_holds_three_convolutions_and_no_branch_output(self):
        # the last layer adds the block input as it writes its output, and the
        # tape records the first two layers' outputs as twins, so it holds two pre-activations and the block output, and no layer
        # output twice and no unsummed branch output
        x = rand4((1, 8, 128, 128), lo=-1)
        held, ops = taped_forward(DenseResidualBlock("d", 8, seed=0), x)
        assert ops == ["conv2d"] * 3
        assert 3 * x.data.nbytes < held < 3.1 * x.data.nbytes


class TestNonLocalBlock:
    def test_zero_out_projection_is_identity(self):
        block = NonLocalBlock("a", 8, seed=0)
        x = rand4((2, 8, 4, 6), lo=-1)
        out = block.forward(x)
        npt.assert_array_equal(out.data, x.data)

    def test_tape_holds_no_branch_output(self):
        # q, k, v and the attention output at half width, and the block output
        x = rand4((1, 8, 32, 32), lo=-1)
        held, ops = taped_forward(NonLocalBlock("a", 8, seed=0), x)
        assert ops == ["conv2d"] * 3 + ["attention", "conv2d"]
        assert 3 * x.data.nbytes < held < 3.5 * x.data.nbytes

    def test_single_position_hand_value(self):
        # one spatial position: attention is [[1]]; with value weight 3 and
        # output weight 0.5 the result is z + 0.5 * (3 * z) = 2.5 * z
        block = NonLocalBlock("a", 1, seed=0)
        block.value.weight.data[:] = 3.0
        block.out.weight.data[:] = 0.5
        out = block.forward(Tensor(np.full((1, 1, 1, 1), 2.0, dtype=np.float32)))
        assert out.item() == pytest.approx(5.0)

    def test_attention_rows_stochastic(self):
        block = NonLocalBlock("a", 6, seed=1)
        attn = attention_probs(block, rand4((2, 6, 4, 4), seed=2))
        npt.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-5)
        assert (attn >= 0).all()

    def test_constant_input_uniform_attention(self):
        block = NonLocalBlock("a", 4, seed=3)
        z = Tensor(np.full((1, 4, 3, 3), 0.2, dtype=np.float32))
        attn = attention_probs(block, z)
        npt.assert_allclose(attn, 1.0 / 9.0, atol=1e-6)
        block.out.weight.data = np.random.default_rng(0).uniform(
            -0.5, 0.5, block.out.weight.shape).astype(np.float32)
        out = block.forward(z).data
        # spatially constant input stays spatially constant
        spread = out.max(axis=(2, 3)) - out.min(axis=(2, 3))
        npt.assert_allclose(spread, 0.0, atol=1e-6)

    def test_permutation_equivariance(self):
        block = NonLocalBlock("a", 5, seed=4)
        block.out.weight.data = np.random.default_rng(1).uniform(
            -0.5, 0.5, block.out.weight.shape).astype(np.float32)
        x = rand4((1, 5, 3, 4), seed=5, lo=-1)
        n, c, h, w = x.shape
        perm = np.random.default_rng(2).permutation(h * w)
        x_perm = x.data.reshape(n, c, h * w)[:, :, perm].reshape(n, c, h, w)
        out = block.forward(x).data.reshape(n, c, h * w)
        out_perm = block.forward(Tensor(x_perm)).data.reshape(n, c, h * w)
        inverse = np.argsort(perm)
        npt.assert_allclose(out_perm[:, :, inverse], out, atol=1e-5)

    def test_key_bias_gradient_is_zero(self):
        # a key bias b shifts all logits of query row i by q_i . b, which the
        # row softmax cancels; float64 leaves only rounding
        rng = np.random.default_rng(6)
        block = _float64(NonLocalBlock("a", 6, seed=5))
        for p in (block.query.bias, block.key.bias, block.out.weight):
            p.data = rng.uniform(-0.5, 0.5, p.shape)
        x = Tensor(rng.uniform(-1, 1, (1, 6, 5, 5)))
        with Tape():
            backward(block.forward(x), rng.standard_normal(x.shape))
        largest = max(np.abs(p.grad).max() for p in block.parameters())
        assert np.abs(block.key.bias.grad).max() < 1e-12 * largest
        assert np.abs(block.query.bias.grad).max() > 1e-3 * largest  # the query bias does learn

    def test_bottleneck_width(self):
        assert NonLocalBlock("a", 7, seed=0).query.weight.shape[0] == 4
        assert NonLocalBlock("a", 8, seed=0).query.weight.shape[0] == 4


def traced_peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNonLocalMemory:
    # 64x64 input: 4096 positions, so a whole float32 affinity matrix is 64 MiB
    BOUND = 16 * 2 ** 20

    def block_and_input(self):
        block = NonLocalBlock("a", 8, seed=0)
        block.out.weight.data = np.random.default_rng(1).uniform(
            -0.5, 0.5, block.out.weight.shape).astype(np.float32)
        return block, rand4((1, 8, 64, 64), seed=2, lo=-1.0)

    def test_forward_peak_stays_below_the_full_matrix(self):
        block, z = self.block_and_input()
        assert traced_peak_bytes(lambda: block.forward(z)) < self.BOUND

    def test_forward_backward_peak_stays_below_the_full_matrix(self):
        block, z = self.block_and_input()

        def step():
            with Tape():
                backward(block.forward(z), np.ones(z.shape))

        assert traced_peak_bytes(step) < self.BOUND
        assert all(p.grad is not None for p in block.parameters())


VARIANTS = [(False, False), (True, False), (False, True), (True, True)]


class TestNetwork:
    @pytest.mark.parametrize("gc,lc", VARIANTS)
    def test_shape_preserved(self, gc, lc):
        config = NetworkConfig(num_stages=2, base_channels=4,
                               use_global_context=gc, use_local_context=lc)
        net = EnhancementNetwork(config, seed=0)
        x = rand4((1, 3, 8, 8))
        assert net.forward(x).shape == x.shape

    @pytest.mark.parametrize("gc,lc", VARIANTS)
    @pytest.mark.parametrize("width", [1, 3, 8])
    @pytest.mark.parametrize("stages", [1, 2, 3, 4])
    def test_config_is_read_off_parameter_shapes(self, stages, width, gc, lc):
        config = NetworkConfig(stages, width, gc, lc)
        shapes = {name: p.data.shape
                  for name, p in EnhancementNetwork(config).named_parameters().items()}
        assert NetworkConfig.of_parameters(shapes) == config

    def test_latent_extent_halves_per_stage(self):
        for m in (1, 2, 3):
            config = NetworkConfig(num_stages=m, base_channels=4)
            net = EnhancementNetwork(config, seed=0)
            s = 3
            x = rand4((1, 3, 2 ** m * s, 2 ** m * s))
            f = x
            for block in net.encoder:
                f = maxpool2d(block.forward(f))
            assert f.shape[2:] == (s, s)

    def test_variant_census(self):
        m = 2
        x = rand4((1, 3, 16, 16))
        for gc, lc in VARIANTS:
            config = NetworkConfig(num_stages=m, base_channels=4,
                                   use_global_context=gc, use_local_context=lc)
            net = EnhancementNetwork(config, seed=0)
            with Tape() as tape:
                net.forward(x)
                counts = Counter(node.op_name for node in tape.nodes)
                joins = multi_input_convs(tape)
            if gc:
                assert counts.get("attention", 0) == 1
            else:
                assert counts.get("attention", 0) == 0
            feature_blocks = 2 * m + 1
            # the decoder's (half-resolution input, skip) joins, then each
            # dense block's layers 2 and 3
            expected = [2] * m + ([2, 3] * feature_blocks if lc else [])
            assert sorted(joins) == sorted(expected)
            structure = net.structure()
            assert structure["attention_blocks"] == (1 if gc else 0)
            assert structure["dense_blocks"] == (feature_blocks if lc else 0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_skips_are_the_pre_pool_features(self, m):
        net = EnhancementNetwork(NetworkConfig(num_stages=m, base_channels=2), seed=0)
        x = rand4((1, 3, 2 ** m * 2, 2 ** m * 2))
        with Tape() as tape:
            net.forward(x)
            counts = Counter(node.op_name for node in tape.nodes)
            pooled = [n.inputs[0] for n in tape.nodes if n.op_name == "maxpool2d"]
            # a decoder stage convolves (half-resolution input, skip) with no
            # upsample node between them, innermost first
            joins = [n.inputs[:2] for n in tape.nodes if n.op_name == "conv2d"
                     and not isinstance(n.inputs[1], Parameter)
                     and n.inputs[0].shape[2:] != n.inputs[1].shape[2:]]
            outputs = {id(n.output) for n in tape.nodes}
        assert set(counts) <= {"conv2d", "maxpool2d", "attention"}
        assert counts["maxpool2d"] == len(joins) == m
        for half, skip in joins:
            assert id(half) in outputs
            assert (2 * half.shape[2], 2 * half.shape[3]) == skip.shape[2:]
        skips = [skip for _, skip in joins]
        assert all(s is p for s, p in zip(skips, reversed(pooled)))
        f = x
        for block, skip in zip(net.encoder, pooled):
            features = block.forward(f)
            npt.assert_array_equal(skip.data, features.data)
            f = maxpool2d(features)

    def test_parameter_order(self):
        # the record order of checkpoints and of the optimizer state
        names = [p.name for p in EnhancementNetwork(NetworkConfig(1, 2)).parameters()]
        basic = ["bb.conv1.weight", "bb.conv1.bias", "bb.act1.slope",
                 "bb.conv2.weight", "bb.conv2.bias", "bb.act2.slope"]
        dense = ["drb.layer1.weight", "drb.layer1.bias", "drb.act1.slope",
                 "drb.layer2.weight", "drb.layer2.bias", "drb.act2.slope",
                 "drb.layer3.weight", "drb.layer3.bias"]
        attn = ["attn.query.weight", "attn.query.bias", "attn.key.weight", "attn.key.bias",
                "attn.value.weight", "attn.value.bias", "attn.out.weight", "attn.out.bias"]
        assert names == ([f"enc0.{n}" for n in basic + dense]
                         + [f"mid.{n}" for n in basic + dense + attn]
                         + [f"dec0.{n}" for n in basic + dense]
                         + ["head.weight", "head.bias"])

    def test_full_has_more_parameters_than_baseline(self):
        base = EnhancementNetwork(NetworkConfig(2, 4, False, False), seed=0)
        full = EnhancementNetwork(NetworkConfig(2, 4, True, True), seed=0)
        assert full.structure()["parameter_scalars"] > base.structure()["parameter_scalars"]

    def test_baseline_has_no_context_parameters(self):
        net = EnhancementNetwork(NetworkConfig(2, 4, False, False), seed=0)
        names = [p.name for p in net.parameters()]
        assert not any(".drb." in n or ".attn." in n for n in names)

    def test_init_deterministic(self):
        a = EnhancementNetwork(NetworkConfig(2, 4), seed=7)
        b = EnhancementNetwork(NetworkConfig(2, 4), seed=7)
        for pa, pb in zip(a.parameters(), b.parameters()):
            npt.assert_array_equal(pa.data, pb.data)
        c = EnhancementNetwork(NetworkConfig(2, 4), seed=8)
        assert any(not np.array_equal(pa.data, pc.data)
                   for pa, pc in zip(a.parameters(), c.parameters()))

    def test_init_respects_fan_in_bound(self):
        net = EnhancementNetwork(NetworkConfig(2, 4), seed=0)
        for p in net.parameters():
            if p.name.endswith(".weight") and p.data.ndim == 4 and p.data.any():
                cout, cin, k, _ = p.data.shape
                bound = math.sqrt(6.0 / (cin * k * k))
                assert np.abs(p.data).max() <= bound

    def test_parameters_are_float32(self):
        params = EnhancementNetwork(NetworkConfig()).parameters()
        assert [p.name for p in params if p.dtype != np.float32] == []

    def test_attention_out_projection_zero_at_init(self):
        net = EnhancementNetwork(NetworkConfig(2, 4, use_global_context=True), seed=0)
        npt.assert_array_equal(net.attention.out.weight.data, 0)

    def test_gc_removal_matches_fresh_init(self):
        # shared-seed networks agree at init because the attention output
        # projection starts at zero and draws are keyed per parameter
        x = rand4((1, 3, 8, 8))
        with_gc = EnhancementNetwork(NetworkConfig(2, 4, True, False), seed=3)
        without = EnhancementNetwork(NetworkConfig(2, 4, False, False), seed=3)
        npt.assert_array_equal(with_gc.forward(x).data, without.forward(x).data)

    def test_untaped_decoder_frees_its_inputs_before_its_dense_block(
            self, monkeypatch):
        # weakrefs to the network input and to both inputs of each decoder
        # join, recorded as its convolution reads them; without a tape, each
        # stage's basic block is the last reader of what it was handed
        pending = [rand4((1, 3, 8, 8))]
        network_input = weakref.ref(pending[0].data)
        joins, entries = [], []
        dense_forward = DenseResidualBlock.forward

        def recorded_conv(x, weight, bias, slope=None, skip=None):
            if isinstance(x, tuple) and x[0].shape[2:] != x[-1].shape[2:]:
                joins.append([weakref.ref(t.data) for t in x])
            return conv2d(x, weight, bias, slope, skip)

        def checked_dense(block, f):
            assert network_input() is None, "the network input is still alive"
            assert all(ref() is None for refs in joins for ref in refs), \
                "a decoder stage's half-resolution input or skip is still alive"
            entries.append(len(joins))
            return dense_forward(block, f)

        monkeypatch.setattr(blocks, "conv2d", recorded_conv)
        monkeypatch.setattr(DenseResidualBlock, "forward", checked_dense)
        net = EnhancementNetwork(NetworkConfig(num_stages=2, base_channels=4), seed=0)
        net.forward(pending.pop())
        # enc0, enc1 and mid, then dec1 after one join and dec0 after two
        assert entries == [0, 0, 0, 1, 2]

    def test_untaped_forward_peak(self):
        # unit: one full-resolution stage-0 activation. The peak, 4.47, is
        # at both stage-0 dense blocks' third conv: block input, two layer
        # outputs and its output (4), the 3-channel input this test holds
        # (0.375) and a band. The last decoder stage's basic block peaks at
        # its first conv, 2.9 and a band (that input, the half-resolution
        # input, skip and the conv output), as the join is released before
        # its second conv. With the upsample built (2) and the half-resolution
        # input held through the dense block, the peak was 4.98; holding
        # the join through the basic block, with PReLU as passes of their
        # own, took it to 7.
        net = EnhancementNetwork(NetworkConfig(2, 8, use_global_context=False), seed=0)
        x = rand4((1, 3, 192, 256))
        unit = 8 * 192 * 256 * x.data.itemsize
        assert traced_peak_bytes(lambda: net.forward(x)) < 4.5 * unit

    def test_untaped_forward_peak_without_local_context(self):
        # the ablation baseline; unit: one full-resolution stage-0
        # activation. The last decoder stage's join is released when its
        # first convolution returns, so the peak is 2.99, not the 4.01 of
        # holding the join through the basic block's second convolution.
        # (With global context, the bottleneck's 8 MiB affinity block sets
        # the peak at 7.73.)
        net = EnhancementNetwork(NetworkConfig(2, 8, False, False), seed=0)
        x = rand4((1, 3, 192, 256))
        unit = 8 * 192 * 256 * x.data.itemsize
        assert traced_peak_bytes(lambda: net.forward(x)) < 3.1 * unit

    def test_divisibility_error_names_divisor(self):
        net = EnhancementNetwork(NetworkConfig(num_stages=3, base_channels=4), seed=0)
        with pytest.raises(DimensionError, match="8"):
            net.forward(rand4((1, 3, 12, 12)))


@pytest.mark.parametrize("block,got,expects", [
    (DenseResidualBlock("d", 4, seed=0), 5, 4),
    (NonLocalBlock("a", 8, seed=0), 6, 8),
    (EnhancementNetwork(NetworkConfig(2, 4), seed=0), 4, 3),
], ids=["dense_residual", "non_local", "network"])
def test_channel_mismatch_names_both_widths(block, got, expects):
    # each block leaves its width check to its first convolution
    with pytest.raises(DimensionError,
                       match=f"conv2d input has {got} channels but weight expects {expects}"):
        block.forward(rand4((1, got, 8, 8)))
