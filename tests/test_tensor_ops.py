"""Forward semantics of every tensor operator, checked against oracles."""

import re
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cenet import tensor
from cenet.tensor import (
    ContractError,
    DimensionError,
    Tape,
    Tensor,
    add,
    attention,
    backward,
    conv2d,
    gradcheck,
    l1_loss,
    maxpool2d,
    upsample_nearest2x,
    weighted_sum,
)

from reference import (attention_grads_naive, attention_naive, conv2d_grads_naive, conv2d_naive,
                       maxpool2d_naive, prelu_ref)


def t4(data, dtype=np.float32):
    return Tensor(np.asarray(data, dtype=dtype))


class TestTensor:
    @pytest.mark.parametrize("data,dtype", [
        (np.ones((1, 1, 1, 1)), np.float64),
        (np.ones((1, 1, 1, 1), np.float32), np.float32),
        (np.ones((1, 1, 1, 1), np.int64), np.float32),
        ([[[[True]]]], np.float32),
    ], ids=["float64", "float32", "int64", "bool-list"])
    def test_float_data_keeps_its_dtype_and_other_data_becomes_float32(self, data, dtype):
        assert Tensor(data).dtype == dtype


def taped_grads(op, inputs, probe):
    """``op()``'s output and the gradients of <op(), probe> for ``inputs``."""
    for t in inputs:
        t.grad = None
    with Tape():
        out = op()
        backward(weighted_sum(out, probe))
    return [out.data] + [t.grad for t in inputs]


class TestConv2d:
    def test_all_ones_kernel(self):
        # frozen from the naive oracle: border sums of 1..9 under padding 1
        x = t4(np.arange(1, 10).reshape(1, 1, 3, 3))
        w = t4(np.ones((1, 1, 3, 3)))
        b = t4(np.zeros((1, 1, 1, 1)))
        out = conv2d(x, w, b)
        expected = conv2d_naive(x.data, w.data, b.data, 1, 1)
        npt.assert_allclose(out.data, expected, rtol=1e-6)
        assert out.data[0, 0, 1, 1] == 45.0
        assert out.data[0, 0, 0, 0] == 12.0

    def test_zero_kernel_outputs_bias(self):
        rng = np.random.default_rng(0)
        x = t4(rng.uniform(-1, 1, (2, 3, 5, 5)))
        w = t4(np.zeros((4, 3, 3, 3)))
        b = t4(np.full((1, 4, 1, 1), 0.7))
        out = conv2d(x, w, b)
        npt.assert_allclose(out.data, 0.7, rtol=1e-6)

    def test_degenerate_1x1(self):
        out = conv2d(t4([[[[2.0]]]]), t4([[[[3.0]]]]), t4([[[[0.5]]]]))
        assert out.item() == pytest.approx(2.0 * 3.0 + 0.5)

    @pytest.mark.parametrize("n,cin,cout,k,h,w", [
        (1, 2, 3, 3, 5, 6),
        (2, 3, 4, 3, 7, 5),
        (2, 2, 2, 1, 4, 4),
        (1, 1, 2, 3, 3, 4),
        (1, 4, 1, 3, 8, 8),
        (1, 2, 2, 5, 1, 2),
        (3, 2, 3, 3, 1, 1),
        (2, 3, 2, 5, 2, 3),
    ])
    def test_against_naive_oracle(self, n, cin, cout, k, h, w):
        rng = np.random.default_rng(hash((n, cin, cout, k)) % 2**32)
        x = t4(rng.uniform(-1, 1, (n, cin, h, w)))
        wt = t4(rng.uniform(-1, 1, (cout, cin, k, k)))
        b = t4(rng.uniform(-1, 1, (1, cout, 1, 1)))
        out = conv2d(x, wt, b)
        npt.assert_allclose(out.data, conv2d_naive(x.data, wt.data, b.data, 1, k // 2),
                            rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("n,cin,cout,k,h,w", [
        (2, 2, 3, 3, 4, 5),
        (2, 3, 2, 1, 3, 4),
        (1, 2, 2, 5, 1, 2),
        (3, 2, 3, 3, 1, 1),
        (2, 3, 2, 5, 2, 3),
    ])
    def test_gradcheck(self, n, cin, cout, k, h, w):
        rng = np.random.default_rng(hash((n, cin, cout, k, h, w)) % 2**32)
        x, wt, b = (Tensor(rng.uniform(-1, 1, shape))
                    for shape in ((n, cin, h, w), (cout, cin, k, k), (1, cout, 1, 1)))
        result = gradcheck(lambda: conv2d(x, wt, b), [x, wt, b], rng=rng, name="conv2d")
        assert result.max_rel_error < 1e-6

    @pytest.mark.parametrize("n,k,widths,cout,rows", [
        (1, 1, (2,), 3, 1),
        (2, 3, (1, 2), 2, 2),
        (2, 5, (2, 1, 2), 1, 3),
        (1, 5, (1,), 2, 2),
        (2, 1, (3, 1, 1), 2, 3),
        (1, 3, (2, 2, 1), 1, 3),
    ])
    def test_row_bands_of_several_inputs(self, monkeypatch, n, k, widths, cout, rows):
        # 7 rows in bands of ``rows``: the last band is ragged unless rows is 1
        h, w = 7, 9
        cin = sum(widths)
        monkeypatch.setattr(tensor, "_CONV_BAND_BYTES", rows * (cin + cout) * (w + k - 1) * 8)
        heights = []
        bands = tensor._bands

        def recorded_bands(xs, cout, k):
            for band in bands(xs, cout, k):
                heights.append(band[2] - band[1])
                yield band

        monkeypatch.setattr(tensor, "_bands", recorded_bands)
        rng = np.random.default_rng(len(widths) * 10 + k)
        xs = [Tensor(rng.uniform(-1, 1, (n, c, h, w))) for c in widths]
        wt, b = (Tensor(rng.uniform(-1, 1, shape))
                 for shape in ((cout, cin, k, k), (1, cout, 1, 1)))
        out = conv2d(tuple(xs), wt, b)
        # one slab per band, holding every input's rows
        assert heights == ([rows] * (h // rows) + ([h % rows] if h % rows else [])) * n
        whole = np.concatenate([x.data for x in xs], axis=1)
        npt.assert_allclose(out.data, conv2d_naive(whole, wt.data, b.data, 1, k // 2),
                            rtol=1e-12, atol=1e-12)
        result = gradcheck(lambda: conv2d(tuple(xs), wt, b), [*xs, wt, b], rng=rng,
                           name="conv2d")
        assert len(result.per_input) == len(widths) + 2
        assert result.max_rel_error < 1e-6

    @pytest.mark.parametrize("k,widths", [(3, (3, 5)), (1, (2, 1, 4)), (5, (1, 6))])
    def test_tuple_is_bitwise_its_concatenation(self, monkeypatch, k, widths):
        # float32 and ragged bands: the tuple and the concatenation run the
        # same GEMMs on the same slabs, so nothing may differ even in rounding
        monkeypatch.setattr(tensor, "_CONV_BAND_BYTES", 4 * (sum(widths) + 4) * (9 + k) * 4)
        rng = np.random.default_rng(k)
        xs = [t4(rng.uniform(-1, 1, (2, c, 9, 10))) for c in widths]
        wt, b = (t4(rng.uniform(-1, 1, shape)) for shape in ((4, sum(widths), k, k), (1, 4, 1, 1)))
        probe = rng.standard_normal((2, 4, 9, 10))
        whole = t4(np.concatenate([x.data for x in xs], axis=1))
        out, *d_xs, d_w, d_b = taped_grads(lambda: conv2d(tuple(xs), wt, b), [*xs, wt, b], probe)
        want_out, d_whole, want_w, want_b = taped_grads(lambda: conv2d(whole, wt, b),
                                                        [whole, wt, b], probe)
        want_xs = np.split(d_whole, np.cumsum(widths)[:-1], axis=1)
        for got, want in zip([out, *d_xs, d_w, d_b], [want_out, *want_xs, want_w, want_b]):
            npt.assert_array_equal(got, want)

    def test_one_input_tuple_is_the_tensor(self):
        rng = np.random.default_rng(5)
        x, wt, b = (t4(rng.uniform(-1, 1, shape))
                    for shape in ((2, 3, 5, 4), (2, 3, 3, 3), (1, 2, 1, 1)))
        npt.assert_array_equal(conv2d((x,), wt, b).data, conv2d(x, wt, b).data)

    @pytest.mark.parametrize("shape", [(2, 1, 4, 4), (1, 1, 3, 4), (1, 1, 4, 5)])
    def test_inputs_must_share_batch_and_extents(self, shape):
        a = t4(np.zeros((1, 2, 4, 4)))
        with pytest.raises(DimensionError, match=re.escape(f"{a.shape} vs {shape}")):
            conv2d((a, t4(np.zeros(shape))), t4(np.zeros((1, 3, 3, 3))),
                   t4(np.zeros((1, 1, 1, 1))))

    def test_empty_input_tuple_rejected(self):
        with pytest.raises(DimensionError):
            conv2d((), t4(np.zeros((1, 1, 3, 3))), t4(np.zeros((1, 1, 1, 1))))

    def test_tape_holds_no_padded_copy_of_the_input(self):
        # 24 -> 8 channels at 128x128: a 1.5 MiB input, 1.6 MiB padded; the
        # tape keeps the input itself, so only the output is new
        rng = np.random.default_rng(3)
        x = t4(rng.uniform(-1, 1, (1, 24, 128, 128)))
        w = t4(rng.uniform(-1, 1, (8, 24, 3, 3)))
        b = t4(np.zeros((1, 8, 1, 1)))
        tracemalloc.start()
        try:
            with Tape():
                before = tracemalloc.get_traced_memory()[0]
                out = conv2d(x, w, b)
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.data.nbytes < held < out.data.nbytes + x.data.nbytes / 10

    def test_forward_peak_is_the_output_and_one_band(self):
        # 24 -> 8 channels at 256x256: a 6 MiB input; a whole padded copy
        # of it would not fit under the bound
        rng = np.random.default_rng(4)
        x = t4(rng.uniform(-1, 1, (1, 24, 256, 256)))
        w = t4(rng.uniform(-1, 1, (8, 24, 3, 3)))
        b = t4(np.zeros((1, 8, 1, 1)))
        tracemalloc.start()
        try:
            out = conv2d(x, w, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.data.nbytes + x.data.nbytes / 4

    def test_linearity_in_input(self):
        rng = np.random.default_rng(12)
        w = t4(rng.uniform(-1, 1, (3, 2, 3, 3)))
        zero_bias = t4(np.zeros((1, 3, 1, 1)))
        x = rng.uniform(-1, 1, (1, 2, 5, 5)).astype(np.float32)
        y = rng.uniform(-1, 1, (1, 2, 5, 5)).astype(np.float32)
        combined = conv2d(t4(2.0 * x + 3.0 * y), w, zero_bias).data
        parts = (2.0 * conv2d(t4(x), w, zero_bias).data
                 + 3.0 * conv2d(t4(y), w, zero_bias).data)
        npt.assert_allclose(combined, parts, rtol=1e-4, atol=1e-5)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            conv2d(t4(np.zeros((1, 2, 4, 4))), t4(np.zeros((1, 3, 3, 3))),
                   t4(np.zeros((1, 1, 1, 1))))

    def test_even_kernel_rejected(self):
        with pytest.raises(DimensionError):
            conv2d(t4(np.zeros((1, 1, 4, 4))), t4(np.zeros((1, 1, 2, 2))),
                   t4(np.zeros((1, 1, 1, 1))))


class TestConvPrelu:
    """``conv2d`` with a ``slope``: the PReLU runs in each band's epilogue."""

    @pytest.mark.parametrize("n,widths,cout,k,h,w", [
        (1, (2,), 3, 3, 4, 5),
        (2, (1, 2), 2, 3, 5, 3),
        (1, (2, 1, 1), 3, 1, 3, 4),
        (1, (1, 2), 2, 5, 4, 4),
    ])
    def test_matches_naive_conv_then_prelu(self, n, widths, cout, k, h, w):
        rng = np.random.default_rng(sum(widths) * 10 + k)
        xs = [Tensor(rng.uniform(-1, 1, (n, c, h, w))) for c in widths]
        wt, b = (Tensor(rng.uniform(-1, 1, shape))
                 for shape in ((cout, sum(widths), k, k), (1, cout, 1, 1)))
        slope = Tensor(rng.uniform(-1, 1, (1, cout, 1, 1)))
        probe = rng.standard_normal((n, cout, h, w))
        x_arg = xs[0] if len(xs) == 1 else tuple(xs)
        out, *grads = taped_grads(lambda: conv2d(x_arg, wt, b, slope), [*xs, wt, b, slope],
                                  probe)

        whole = np.concatenate([x.data for x in xs], axis=1)
        pre = conv2d_naive(whole, wt.data, b.data, 1, k // 2)
        assert np.abs(pre).min() > 1e-9  # no sign is in doubt
        npt.assert_allclose(out, prelu_ref(pre, slope.data), rtol=1e-12, atol=1e-12)
        neg = pre < 0
        d_pre = np.where(neg, slope.data, 1.0) * probe
        d_x, d_w = conv2d_grads_naive(whole, wt.data, d_pre, k // 2)
        want = [*np.split(d_x, np.cumsum(widths)[:-1], axis=1), d_w,
                d_pre.sum(axis=(0, 2, 3)).reshape(b.shape),
                (neg * pre * probe).sum(axis=(0, 2, 3)).reshape(slope.shape)]
        assert len(grads) == len(want)
        for got, ref in zip(grads, want):
            npt.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("k,widths,rows", [(3, (3,), 1), (3, (2, 3), 2), (1, (4,), 3),
                                               (5, (1, 2, 2), 4)])
    def test_is_bitwise_the_unfused_composition(self, monkeypatch, k, widths, rows):
        # float32, ragged bands, slopes -0.0, 0, negative and positive:
        # forward and every gradient keep the bits of the where-form PReLU
        # of the unfused conv2d, its input gradient fed upstream of that conv
        h, w, cout = 9, 10, 4
        monkeypatch.setattr(tensor, "_CONV_BAND_BYTES", rows * (sum(widths) + cout) * (w + k) * 4)
        rng = np.random.default_rng(k + len(widths))
        xs = [t4(rng.uniform(-1, 1, (2, c, h, w))) for c in widths]
        wt, b = (t4(rng.uniform(-1, 1, shape)) for shape in ((cout, sum(widths), k, k),
                                                            (1, cout, 1, 1)))
        slope = t4(np.array([-0.0, 0.0, -1.5, 0.25]).reshape(1, cout, 1, 1))
        probe = rng.standard_normal((2, cout, h, w)).astype(np.float32)
        fused = taped_grads(lambda: conv2d(tuple(xs), wt, b, slope), [*xs, wt, b, slope], probe)
        pre = conv2d(tuple(xs), wt, b).data
        neg = pre < 0
        d_pre = np.where(neg, slope.data, 1) * probe
        unfused = taped_grads(lambda: conv2d(tuple(xs), wt, b), [*xs, wt, b], d_pre)
        unfused[0] = np.where(neg, slope.data * pre, pre)
        unfused.append(np.where(neg, pre * probe, 0).sum(axis=(0, 2, 3)).reshape(slope.shape))
        assert len(fused) == len(unfused)
        for got, want in zip(fused, unfused):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        untaped = conv2d(tuple(xs), wt, b, slope).data
        assert untaped.tobytes() == fused[0].tobytes()

    @pytest.mark.parametrize("s", [0.0, -0.0, -1.5])
    def test_signed_zeros_keep_the_where_form_bits(self, s):
        # a 1x1 identity conv: pre-activations +0.0 (an accumulator starts
        # at +0.0, so -0.0 comes out as +0.0), subnormals and plain values
        x = t4(np.array([0.0, -0.0, -1e-45, 1e-45, -3.0, 2.0]).reshape(1, 1, 1, 6))
        wt, b = t4(np.ones((1, 1, 1, 1))), t4(np.zeros((1, 1, 1, 1)))
        slope = t4(np.full((1, 1, 1, 1), s))
        pre = conv2d(x, wt, b).data
        out = conv2d(x, wt, b, slope).data
        assert out.tobytes() == np.where(pre < 0, slope.data * pre, pre).tobytes()
        # the backward's branch-free gain, on ±0.0 and a -0.0 slope too
        up = np.array([1.0, -1.0, -2.0, 0.5, -0.0, 3.0], np.float32).reshape(x.shape)
        d_x, d_slope = tensor._prelu_grads(x.data, slope.data, up)
        assert d_x.tobytes() == (np.where(x.data < 0, slope.data, 1) * up).tobytes()
        assert d_slope.tobytes() == np.where(x.data < 0, x.data * up, 0).sum().reshape(
            1, 1, 1, 1).tobytes()

    def test_tape_keeps_the_pre_activation_only_while_recording(self):
        # 24 -> 8 channels at 256x256, as test_forward_peak_is_the_output_and_one_band:
        # the PReLU adds nothing output-sized to that peak without a tape,
        # and the tape keeps the output and the pre-activation, no mask
        rng = np.random.default_rng(9)
        x = t4(rng.uniform(-1, 1, (1, 24, 256, 256)))
        wt = t4(rng.uniform(-1, 1, (8, 24, 3, 3)))
        b, slope = t4(np.zeros((1, 8, 1, 1))), t4(np.full((1, 8, 1, 1), 0.25))
        tracemalloc.start()
        try:
            out_bytes = conv2d(x, wt, b, slope).data.nbytes
            _, untaped_peak = tracemalloc.get_traced_memory()
            with Tape():
                before = tracemalloc.get_traced_memory()[0]
                conv2d(x, wt, b, slope)
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert untaped_peak < out_bytes + x.data.nbytes / 4
        assert 2 * out_bytes < held < 2.1 * out_bytes

    def test_slope_shape_checked(self):
        with pytest.raises(DimensionError, match=re.escape("slope must have shape (1, 2, 1, 1)")):
            conv2d(t4(np.zeros((1, 1, 4, 4))), t4(np.zeros((2, 1, 3, 3))),
                   t4(np.zeros((1, 2, 1, 1))), t4(np.zeros((1, 1, 1, 1))))


class TestMaxpool2d:
    def test_single_window(self):
        out = maxpool2d(t4([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert out.item() == 4.0

    def test_ascending_4x4(self):
        out = maxpool2d(t4(np.arange(16).reshape(1, 1, 4, 4)))
        expected = maxpool2d_naive(np.arange(16).reshape(1, 1, 4, 4))
        npt.assert_array_equal(out.data, expected)
        npt.assert_array_equal(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_random_against_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (2, 3, 6, 8))
        npt.assert_allclose(maxpool2d(t4(x)).data, maxpool2d_naive(x), rtol=1e-6)

    def test_constant_passthrough(self):
        out = maxpool2d(t4(np.full((1, 2, 4, 4), 0.3)))
        npt.assert_allclose(out.data, 0.3, rtol=1e-6)

    def test_odd_extent_rejected(self):
        with pytest.raises(DimensionError):
            maxpool2d(t4(np.zeros((1, 1, 3, 4))))

    def test_ties_pick_the_first_maximal_element(self):
        # windows in row-major order (top-left, top-right, bottom-left,
        # bottom-right), with partial ties and -0.0/+0.0 ties
        windows = np.array([[1, 3, 3, 2], [2, 1, 2, 2], [-0.0, 0.0, -1, -2], [0.0, -0.0, -0.0, -1],
                            [-1, -0.0, 0.0, -0.0], [-2, -1, -1, -0.0], [5, 5, 5, 5],
                            [-3, -2, -0.0, 0.0]], np.float32)
        x = windows.reshape(1, 2, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(1, 2, 4, 4)
        first = np.array([int(np.flatnonzero(row == row.max())[0]) for row in windows])
        up = np.arange(1, 9, dtype=np.float32)
        with Tape():
            xt = t4(x)
            out = maxpool2d(xt)
            backward(weighted_sum(out, up.reshape(out.shape)))
        want = windows[np.arange(8), first]
        assert out.data.ravel().tobytes() == want.tobytes()
        routed = np.zeros_like(windows)
        routed[np.arange(8), first] = up
        grad = xt.grad.reshape(1, 2, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(8, 4)
        assert grad.tobytes() == routed.tobytes()

    def test_gradient_bits_pass_through_unchanged(self):
        # -0.0 and subnormal upstream values reach their element as they are;
        # every other element gets +0.0
        rng = np.random.default_rng(2)
        x = t4(rng.standard_normal((1, 2, 4, 6)))
        up = rng.standard_normal((1, 2, 2, 3)).astype(np.float32)
        up[0, 0, 0, :2] = [-0.0, -1e-45]
        with Tape():
            out = maxpool2d(x)
            backward(weighted_sum(out, up))
        windows = x.data.reshape(1, 2, 2, 2, 3, 2).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
        want = np.zeros_like(windows)
        want[np.arange(len(windows)), windows.argmax(axis=1)] = up.ravel()
        grad = x.grad.reshape(1, 2, 2, 2, 3, 2).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
        assert grad.tobytes() == want.tobytes()


class TestUpsample:
    def test_replication(self):
        out = upsample_nearest2x(t4([[[[1.0, 2.0], [3.0, 4.0]]]]))
        npt.assert_array_equal(out.data[0, 0], [[1, 1, 2, 2], [1, 1, 2, 2],
                                                [3, 3, 4, 4], [3, 3, 4, 4]])

    def test_constant(self):
        out = upsample_nearest2x(t4(np.full((2, 3, 2, 2), 0.6)))
        assert out.shape == (2, 3, 4, 4)
        npt.assert_allclose(out.data, 0.6, rtol=1e-6)

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 3, 5, 7), (1, 8, 16, 24)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_is_bitwise_the_block_sum(self, shape, dtype):
        n, c, h, w = shape
        rng = np.random.default_rng(h * w)
        x = t4(rng.standard_normal(shape), dtype)
        up = rng.standard_normal((n, c, 2 * h, 2 * w)).astype(dtype)
        with Tape():
            out = upsample_nearest2x(x)
            backward(weighted_sum(out, up))
        assert out.data.tobytes() == x.data.repeat(2, axis=2).repeat(2, axis=3).tobytes()
        block_sum = up.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))
        assert x.grad.dtype == dtype and x.grad.tobytes() == block_sum.tobytes()


def input_gradients(op, inputs, probe):
    for t in inputs:
        t.grad = None
    with Tape():
        backward(weighted_sum(op(*inputs), probe))
    return [t.grad for t in inputs]


def use_block_rows(monkeypatch, rows, positions, buffers):
    """Budget attention so that a pass holding ``buffers`` row blocks at
    once (forward 1, backward 3) uses blocks of ``rows`` rows."""
    monkeypatch.setattr(tensor, "_ATTENTION_BLOCK_BYTES", buffers * rows * positions * 8)


class TestAttention:
    @given(st.integers(1, 2), st.integers(1, 4), st.integers(1, 9), st.integers(1, 9),
           st.integers(1, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_row_blocks_match_oracles(self, monkeypatch, n, c, h, w, rows, seed):
        rng = np.random.default_rng(seed)
        q, k, v = (Tensor(rng.uniform(-2, 2, (n, c, h, w))) for _ in range(3))
        use_block_rows(monkeypatch, rows, h * w, buffers=1)
        out = attention(q, k, v)
        npt.assert_allclose(out.data, attention_naive(q.data, k.data, v.data),
                            rtol=1e-12, atol=1e-12)
        probe = rng.standard_normal(out.shape)
        use_block_rows(monkeypatch, rows, h * w, buffers=3)
        fused = input_gradients(attention, [q, k, v], probe)
        oracle = attention_grads_naive(q.data, k.data, v.data, probe)
        for a, b in zip(fused, oracle):
            npt.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_gradcheck_with_ragged_blocks(self, monkeypatch):
        # 14 positions in 3-row backward blocks: four full blocks, then 2 rows
        use_block_rows(monkeypatch, 3, 14, buffers=3)
        rng = np.random.default_rng(4)
        q, k, v = (Tensor(rng.uniform(-1, 1, (2, 3, 2, 7))) for _ in range(3))
        result = gradcheck(lambda: attention(q, k, v), [q, k, v], rng=rng, name="attention")
        assert result.max_rel_error < 1e-6

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_logits_past_the_limit_take_the_max_shifted_path(self, dtype, tol):
        # logits of exactly +-200: exp(200) overflows float32 without the shift
        signs = np.random.default_rng(5).choice([-5.0, 5.0], (8, 6))
        qk = np.concatenate([signs, -signs], axis=1).reshape(1, 8, 3, 4)
        q, k, v = t4(qk, dtype), t4(qk, dtype), t4(np.linspace(-1, 1, 96).reshape(1, 8, 3, 4), dtype)
        assert not tensor._unshifted_rows(*(x.data.reshape(8, 12) for x in (q, k, v))).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = attention(q, k, v)
        npt.assert_allclose(out.data, attention_naive(q.data, k.data, v.data), rtol=tol, atol=tol)

    def test_one_call_with_row_blocks_on_both_sides_of_the_limit(self, monkeypatch):
        # 4-row blocks over 16 positions; queries 8-15 are scaled past the bound
        use_block_rows(monkeypatch, 4, 16, buffers=1)
        rng = np.random.default_rng(6)
        q, k, v = (rng.uniform(-1, 1, (1, 3, 4, 4)) for _ in range(3))
        q.reshape(3, 16)[:, 8:] *= 300
        npt.assert_array_equal(tensor._unshifted_rows(*(x.reshape(3, 16) for x in (q, k, v))),
                               np.arange(16) < 8)
        shifted_blocks = []
        probs = tensor._attention_probs

        def spy(q_t, k, rows, out=None):
            shifted_blocks.append(rows.start)
            return probs(q_t, k, rows, out)

        monkeypatch.setattr(tensor, "_attention_probs", spy)
        out = attention(Tensor(q), Tensor(k), Tensor(v))
        assert shifted_blocks == [8, 12]
        npt.assert_allclose(out.data, attention_naive(q, k, v), rtol=1e-12, atol=1e-12)

    def test_float32_error_is_no_larger_than_the_max_shifted_paths(self):
        # Both paths' float32 error is mostly the value GEMM's accumulation,
        # so on one draw they tie to a few percent. Row sums accumulated in
        # that GEMM too (a ones column beside V) read 1.1-1.4x here.
        rng = np.random.default_rng(7)
        q, k, v = (rng.standard_normal((8, 48 * 48)).astype(np.float32) for _ in range(3))
        assert tensor._unshifted_rows(q, k, v).all()
        unshifted = attention(*(Tensor(x.reshape(1, 8, 48, 48)) for x in (q, k, v))).data
        shifted = (tensor._attention_probs(q.T, k, slice(None)) @ v.T).T
        logits = q.T.astype(np.float64) @ k
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        oracle = (p / p.sum(axis=1, keepdims=True) @ v.T.astype(np.float64)).T

        def rms_error(x):
            return np.sqrt(np.mean((x.reshape(oracle.shape) - oracle) ** 2))

        assert rms_error(unshifted) <= 1.05 * rms_error(shifted)

    @pytest.mark.parametrize("scale", [1.0, 1000.0], ids=["unshifted", "max-shifted"])
    def test_memory_is_row_blocks_and_operand_sized_arrays(self, monkeypatch, scale):
        # 4096 positions in 1 MiB of row blocks: 64 forward rows, or three
        # 21-row arrays in backward. A second block alive would add 1 MiB
        # (16 operands) to the forward and 1/3 MiB (5.3) to the backward.
        block = 2 ** 20
        monkeypatch.setattr(tensor, "_ATTENTION_BLOCK_BYTES", block)
        rng = np.random.default_rng(8)
        q, k, v = (t4(rng.uniform(-1, 1, (1, 4, 64, 64)) * s) for s in (scale, 1, 1))
        unshifted = tensor._unshifted_rows(*(x.data.reshape(4, -1) for x in (q, k, v)))
        assert unshifted.all() if scale == 1.0 else not unshifted.any()
        operand = q.data.nbytes
        probe = rng.standard_normal(q.shape)
        tracemalloc.start()
        try:
            attention(q, k, v)
            forward = tracemalloc.get_traced_memory()[1]
            with Tape():
                loss = weighted_sum(attention(q, k, v), probe)
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                backward(loss)
                backward_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert forward <= block + 4 * operand
        assert backward_peak <= block + 8 * operand

    def test_overflowing_affinity_is_an_error(self):
        huge = t4(np.full((1, 2, 2, 3), 1e20))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ContractError, match="attention"):
            attention(huge, huge, t4(np.ones((1, 2, 2, 3))))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            attention(t4(np.zeros((1, 2, 2, 2))), t4(np.zeros((1, 2, 2, 2))),
                      t4(np.zeros((1, 3, 2, 2))))


class TestElementwise:
    def test_add_zero(self):
        x = t4(np.random.default_rng(0).uniform(size=(1, 2, 3, 3)))
        npt.assert_array_equal(add(x, t4(np.zeros_like(x.data))).data, x.data)

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            add(t4(np.zeros((1, 1, 2, 2))), t4(np.zeros((1, 2, 2, 2))))

class TestL1Loss:
    def test_mean_of_abs(self):
        loss = l1_loss(t4(np.array([1.0, 2.0]).reshape(1, 1, 1, 2)),
                       t4(np.zeros((1, 1, 1, 2))))
        assert loss.item() == pytest.approx(1.5)

    def test_identical_is_zero(self):
        x = t4(np.random.default_rng(0).uniform(size=(1, 3, 2, 2)))
        assert l1_loss(x, t4(x.data.copy())).item() == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            l1_loss(t4(np.zeros((1, 1, 2, 2))), t4(np.zeros((1, 1, 2, 3))))


class TestFiniteGuard:
    def test_overflow_is_an_error(self):
        x = t4(np.full((1, 1, 1, 1), 3e38))
        with np.errstate(over="ignore"), pytest.raises(ContractError):
            add(x, x)
