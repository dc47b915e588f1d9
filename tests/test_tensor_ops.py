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
    attention,
    backward,
    conv2d,
    l1_loss,
    maxpool2d,
)
from cenet.verify import _bias_off_the_kink, gradcheck

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


    @pytest.mark.parametrize("make,error,message", [
        (lambda: Tensor(np.zeros((2, 3))), DimensionError,
         r"tensors are 4-D (N, C, H, W), got shape (2, 3)"),
        (lambda: t4(np.zeros((1, 1, 1, 2))).item(), ContractError,
         "item() requires a single-element tensor, got shape (1, 1, 1, 2)"),
        (lambda: conv2d(t4(np.zeros((1, 1, 4, 4))), t4(np.zeros((1, 1, 3, 1))),
                        t4(np.zeros((1, 1, 1, 1)))), DimensionError,
         "conv2d kernels are square, got 3x1"),
        (lambda: conv2d(t4(np.zeros((1, 1, 4, 4))), t4(np.zeros((1, 1, 3, 3))),
                        t4(np.zeros((1, 2, 1, 1)))), DimensionError,
         "conv2d bias must have shape (1, 1, 1, 1), got (1, 2, 1, 1)"),
        (lambda: seed_backward(np.ones((1, 1, 2, 1))), DimensionError,
         "backward() grad must have the output's shape (1, 1, 2, 2), got (1, 1, 2, 1)"),
    ], ids=["not-4d", "item-of-many", "non-square-kernel", "bias-shape", "seed-shape"])
    def test_contract_violation_is_named(self, make, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()


def seed_backward(grad):
    """Seed ``backward`` with ``grad`` on a taped (1, 1, 2, 2) maxpool output."""
    with Tape():
        backward(maxpool2d(t4(np.zeros((1, 1, 4, 4)))), grad)


def taped_grads(op, inputs, probe):
    """``op()``'s output and the gradients of <op(), probe> for ``inputs``."""
    for t in inputs:
        t.grad = None
    with Tape():
        out = op()
        backward(out, probe)
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
        # 7 rows in round(7 / rows) bands of equal height, give or take a
        # row, on either slab layout, whatever the rule would pick; a loop,
        # not a parameter, so the cases keep their names
        h, w = 7, 9
        cin = sum(widths)
        monkeypatch.setattr(tensor, "_CONV_BAND_BYTES", rows * (cin + cout) * (w + k - 1) * 8)
        bands = tensor._bands
        rng = np.random.default_rng(len(widths) * 10 + k)
        xs = [Tensor(rng.uniform(-1, 1, (n, c, h, w))) for c in widths]
        wt, b = (Tensor(rng.uniform(-1, 1, shape))
                 for shape in ((cout, cin, k, k), (1, cout, 1, 1)))
        whole = np.concatenate([x.data for x in xs], axis=1)
        for by_rows in (False, True):
            heights, layouts = [], []

            def recorded_bands(xs, cout, k, layout=False):
                layouts.append(layout)
                for band in bands(xs, cout, k, layout):
                    heights.append(band[2] - band[1])
                    yield band

            monkeypatch.setattr(tensor, "_bands", recorded_bands)
            monkeypatch.setattr(tensor, "_by_rows", lambda taps: by_rows)
            out = conv2d(tuple(xs), wt, b)
            # one slab per band, holding every input's rows
            assert layouts == [by_rows]
            assert heights == {1: [1] * 7, 2: [1, 2, 2, 2], 3: [3, 4]}[rows] * n
            npt.assert_allclose(out.data, conv2d_naive(whole, wt.data, b.data, 1, k // 2),
                                rtol=1e-12, atol=1e-12)
            layouts.clear()
            result = gradcheck(lambda: conv2d(tuple(xs), wt, b), [*xs, wt, b], rng=rng,
                               name="conv2d")
            # its taped forward, then the input gradient's convolution in the
            # same layout and the weight gradient's channel-major bands
            assert layouts[:3] == [by_rows, by_rows, False]
            assert len(result.per_input) == len(widths) + 2
            assert result.max_rel_error < 1e-6

    @pytest.mark.parametrize("budget", ["default", "below-the-taps"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_both_layouts_match_the_oracles(self, monkeypatch, k, budget):
        # a decoder join (a half-extent input, then a full one) with a PReLU
        # and a skip; its taps fit the default band budget, so k > 1 runs on
        # row-interleaved slabs, and a budget one byte below the taps' runs
        # every k channel-major, as 1x1 kernels always do
        n, h, w, cout, widths = 2, 6, 8, 3, (2, 3)
        cin = sum(widths)
        if budget == "below-the-taps":
            monkeypatch.setattr(tensor, "_CONV_BAND_BYTES", k * k * cout * cin * 8 - 1)
        layouts = []
        bands = tensor._bands

        def recorded_bands(xs, cout, k, by_rows=False):
            layouts.append(by_rows)
            return bands(xs, cout, k, by_rows)

        monkeypatch.setattr(tensor, "_bands", recorded_bands)
        rng = np.random.default_rng(k)
        coarse = Tensor(rng.uniform(-1, 1, (n, widths[0], h // 2, w // 2)))
        full = Tensor(rng.uniform(-1, 1, (n, widths[1], h, w)))
        wt, slope, skip = (Tensor(rng.uniform(-1, 1, shape)) for shape in (
            (cout, cin, k, k), (1, cout, 1, 1), (n, cout, h, w)))
        whole = np.concatenate([coarse.data.repeat(2, axis=2).repeat(2, axis=3), full.data],
                               axis=1)
        b = Tensor(_bias_off_the_kink(conv2d_naive(whole, wt.data, np.zeros(cout), 1, k // 2)))
        inputs = [coarse, full, wt, b, slope, skip]
        probe = rng.standard_normal((n, cout, h, w))
        out, *grads = taped_grads(lambda: conv2d((coarse, full), wt, b, slope, skip), inputs,
                                  probe)
        by_rows = k > 1 and budget == "default"
        # the forward, the input gradient, then the weight gradient's bands
        assert layouts == [by_rows, by_rows, False]

        pre = conv2d_naive(whole, wt.data, b.data, 1, k // 2)
        npt.assert_allclose(out, prelu_ref(pre, slope.data) + skip.data, rtol=1e-12, atol=1e-12)
        neg = pre < 0
        d_pre = np.where(neg, slope.data, 1.0) * probe
        d_x, d_w = conv2d_grads_naive(whole, wt.data, d_pre, k // 2)
        d_coarse, d_full = np.split(d_x, [widths[0]], axis=1)
        want = [d_coarse.reshape(n, -1, h // 2, 2, w // 2, 2).sum(axis=(3, 5)), d_full, d_w,
                d_pre.sum(axis=(0, 2, 3)).reshape(b.shape),
                (neg * pre * probe).sum(axis=(0, 2, 3)).reshape(slope.shape), probe]
        assert len(grads) == len(want)
        for got, ref in zip(grads, want):
            npt.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)
        result = gradcheck(lambda: conv2d((coarse, full), wt, b, slope, skip), inputs, rng=rng,
                           name="conv2d")
        assert result.max_rel_error < 1e-6

    def test_each_band_is_one_read_only_view_of_its_slab(self, monkeypatch):
        # with no byte budget, the taps' 648 bytes set 3 rows of 288 bytes a
        # band: 5 rows in bands of 2 and 3
        monkeypatch.setattr(tensor, "_CONV_BAND_BYTES", 0)
        k, h, w = 3, 5, 4
        rng = np.random.default_rng(3)
        xs = [rng.uniform(-1, 1, (2, c, h, w)) for c in (2, 1)]
        padded = np.pad(np.concatenate(xs, axis=1), ((0, 0), (0, 0), (1, 1), (1, 1)))
        bands = list(tensor._bands(xs, 3, k))
        assert [(i, r0, r1) for i, r0, r1, _ in bands] == [(0, 0, 2), (0, 2, 5),
                                                          (1, 0, 2), (1, 2, 5)]
        for i, r0, r1, windows in bands:
            assert windows.shape == (k, k, 3, (r1 - r0) * (w + 2))
            for dy in range(k):
                for dx in range(k):
                    rows = windows[dy, dx].reshape(3, r1 - r0, w + 2)[..., :w]
                    npt.assert_array_equal(rows, padded[i, :, r0 + dy:r1 + dy, dx:dx + w])
            with pytest.raises(ValueError, match="read-only"):
                windows[1, 1, 0, 0] = 0

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

    @pytest.mark.parametrize("n,k,inputs,h,w,rows", [
        (1, 3, ((2, True), (3, False)), 4, 6, 4),
        (2, 1, ((1, False), (2, True)), 6, 4, 6),
        (2, 5, ((2, True), (1, False), (1, True)), 2, 2, 1),
        (1, 3, ((1, True), (2, False)), 10, 14, 3),
        (1, 5, ((2, True), (1, False)), 12, 6, 5),
    ], ids=["join", "half-last", "two-halves", "odd-bands", "k5-odd-bands"])
    def test_half_extent_input_matches_naive_oracle_of_its_upsample(
            self, monkeypatch, n, k, inputs, h, w, rows):
        # (width, half) per input; bands of ``rows`` output rows start at odd
        # rows too, so both row parities open a band
        cout = 3
        cin = sum(c for c, _ in inputs)
        monkeypatch.setattr(tensor, "_CONV_BAND_BYTES", rows * (cin + cout) * (w + k - 1) * 8)
        rng = np.random.default_rng(k * 100 + h)
        xs = [Tensor(rng.uniform(-1, 1, (n, c, h // 2, w // 2) if half else (n, c, h, w)))
              for c, half in inputs]
        wt, b = (Tensor(rng.uniform(-1, 1, shape)) for shape in ((cout, cin, k, k),
                                                                (1, cout, 1, 1)))
        probe = rng.standard_normal((n, cout, h, w))
        out, *d_xs, d_w, d_b = taped_grads(lambda: conv2d(tuple(xs), wt, b), [*xs, wt, b], probe)
        whole = np.concatenate([x.data.repeat(2, axis=2).repeat(2, axis=3) if half else x.data
                                for x, (_, half) in zip(xs, inputs)], axis=1)
        npt.assert_allclose(out, conv2d_naive(whole, wt.data, b.data, 1, k // 2),
                            rtol=1e-12, atol=1e-12)
        want_x, want_w = conv2d_grads_naive(whole, wt.data, probe, k // 2)
        for got, want, (_, half) in zip(d_xs, np.split(want_x, np.cumsum([c for c, _ in inputs])[:-1],
                                                       axis=1), inputs):
            if half:
                want = want.reshape(n, -1, h // 2, 2, w // 2, 2).sum(axis=(3, 5))
            npt.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        npt.assert_allclose(d_w, want_w, rtol=1e-10, atol=1e-12)
        npt.assert_allclose(d_b, probe.sum(axis=(0, 2, 3)).reshape(b.shape), rtol=1e-12)

    @pytest.mark.parametrize("rows", [1, 2, 3, 16])
    def test_half_extent_input_is_bitwise_its_built_upsample(self, monkeypatch, rows):
        # float32, a fused PReLU and ragged bands: reading the upsample in
        # the bands and convolving the built upsample run the same GEMMs on
        # the same slabs, and the half-extent gradient is the built one's
        # 2x2 block sum, column pairs first
        n, h, w, cout = 2, 10, 12, 4
        monkeypatch.setattr(tensor, "_CONV_BAND_BYTES", rows * (5 + cout) * (w + 2) * 4)
        rng = np.random.default_rng(rows)
        coarse = t4(rng.uniform(-1, 1, (n, 3, h // 2, w // 2)))
        skip = t4(rng.uniform(-1, 1, (n, 2, h, w)))
        wt, b, slope = (t4(rng.uniform(-1, 1, shape))
                        for shape in ((cout, 5, 3, 3), (1, cout, 1, 1), (1, cout, 1, 1)))
        probe = rng.standard_normal((n, cout, h, w)).astype(np.float32)
        fused = taped_grads(lambda: conv2d((coarse, skip), wt, b, slope),
                            [coarse, skip, wt, b, slope], probe)
        built = t4(coarse.data.repeat(2, axis=2).repeat(2, axis=3))
        want = taped_grads(lambda: conv2d((built, skip), wt, b, slope),
                           [built, skip, wt, b, slope], probe)
        cols = want[1][..., 0::2] + want[1][..., 1::2]
        want[1] = cols[:, :, 0::2] + cols[:, :, 1::2]
        for got, ref in zip(fused, want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        untaped = conv2d((coarse, skip), wt, b, slope).data
        assert untaped.tobytes() == fused[0].tobytes()

    def test_one_input_tuple_is_the_tensor(self):
        rng = np.random.default_rng(5)
        x, wt, b = (t4(rng.uniform(-1, 1, shape))
                    for shape in ((2, 3, 5, 4), (2, 3, 3, 3), (1, 2, 1, 1)))
        npt.assert_array_equal(conv2d((x,), wt, b).data, conv2d(x, wt, b).data)

    @pytest.mark.parametrize("shape", [(2, 1, 4, 4), (1, 1, 3, 4), (1, 1, 4, 5), (1, 1, 2, 3),
                                       (1, 1, 8, 9), (1, 1, 16, 16), (2, 1, 8, 8)])
    def test_inputs_must_share_batch_and_extents(self, shape):
        # equal extents or exactly half the largest input's; (1, 2, 4, 4) is
        # half of (8, 9) in one extent only, and a quarter of (16, 16)
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
        # and the tape keeps the pre-activation alone, no mask: the output
        # the caller drops is not held
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
        assert out_bytes < held < 1.1 * out_bytes

    def test_slope_shape_checked(self):
        with pytest.raises(DimensionError, match=re.escape("slope must have shape (1, 2, 1, 1)")):
            conv2d(t4(np.zeros((1, 1, 4, 4))), t4(np.zeros((2, 1, 3, 3))),
                   t4(np.zeros((1, 2, 1, 1))), t4(np.zeros((1, 1, 1, 1))))


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def accumulated_from_zeros(xs, taps, k, by_rows, bias=None, slope=None, pre=None, skip=None):
    """``_same_conv`` as a sum that starts from zeros: each band's
    accumulator is zero-filled and every tap's GEMM is added to it in tap
    order, then the bias, the PReLU (as ``where(acc < 0, slope, 1) * acc``
    with a bool mask) and the skip, in that order."""
    n, h, w = tensor._extents(xs)
    cout, cin = taps.shape[1:]
    if by_rows:
        taps = taps.reshape(k, k, cout, cin).transpose(1, 2, 0, 3).reshape(k, cout, k * cin)
    out = np.empty((n, cout, h, w), dtype=xs[0].dtype)
    for i, r0, r1, windows in tensor._bands(xs, cout, k, by_rows):
        operands = windows if by_rows else [wd for row in windows for wd in row]
        acc = np.zeros((r1 - r0, cout, w) if by_rows else (cout, windows.shape[-1]), out.dtype)
        for tap, window in zip(taps, operands):
            acc += np.matmul(tap, window)
        rows = acc.transpose(1, 0, 2) if by_rows else acc.reshape(cout, r1 - r0, -1)[:, :, :w]
        if bias is not None:
            acc += bias
        if pre is not None:
            pre[i, :, r0:r1] = rows
        if slope is not None:
            neg = acc < 0
            gain = neg.astype(acc.dtype)
            off = gain - 1
            gain *= slope
            gain -= off
            acc *= gain
        out[i, :, r0:r1] = rows if skip is None else rows + skip[i, :, r0:r1]
    return out


class TestSameConvAccumulator:
    """``_same_conv``'s first tap writes the band's accumulator, which then
    sums the rest: bit for bit the sum that starts from zeros."""

    @pytest.mark.parametrize("case", ["plain", "prelu", "skip", "join"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("by_rows", [False, True], ids=["channel-major", "row-interleaved"])
    def test_first_tap_write_is_the_sum_from_zeros(self, monkeypatch, by_rows, k, case):
        monkeypatch.setattr(tensor, "_by_rows", lambda taps: by_rows)
        monkeypatch.setattr(tensor, "_CONV_BAND_BYTES", 2048)  # several bands per image
        rng = np.random.default_rng(k * 10 + len(case))
        n, h, w, cout = 2, 8, 6, 3
        full = rng.uniform(-1, 1, (n, 4, h, w)).astype(np.float32)
        full[:, :, :2] = -0.0  # rows whose products are all signed zeros
        xs = [full]
        if case == "join":
            xs = [rng.uniform(-1, 1, (n, 2, h // 2, w // 2)).astype(np.float32), full]
        cin = sum(x.shape[1] for x in xs)
        taps = rng.uniform(-1, 1, (k * k, cout, cin)).astype(np.float32)
        bias = slope = pre = want_pre = skip = None
        if case in ("prelu", "skip", "join"):
            bias = rng.uniform(-1, 1, (cout, 1)).astype(np.float32)
        if case in ("prelu", "join"):
            slope = np.array([-0.0, 0.0, 0.25], np.float32).reshape(cout, 1)
            pre, want_pre = (np.empty((n, cout, h, w), np.float32) for _ in range(2))
        if case == "skip":
            skip = rng.uniform(-1, 1, (n, cout, h, w)).astype(np.float32)
        got = tensor._same_conv(xs, taps, k, bias, slope, pre, skip)
        want = accumulated_from_zeros(xs, taps, k, by_rows, bias, slope, want_pre, skip)
        assert bits(got) == bits(want)
        if pre is not None:
            assert bits(pre) == bits(want_pre)


class TestPreluBackwardBits:
    """PReLU's gradients from one float mask, bit for bit those of the
    bool mask, signed zeros included."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_match_the_bool_mask_forms(self, dtype):
        rng = np.random.default_rng(11)
        slope = np.array([-0.0, 0.0, 0.25, 1.0], dtype).reshape(1, 4, 1, 1)
        pre = rng.uniform(-1, 1, (2, 4, 5, 6)).astype(dtype)
        pre[:, :, 0, :3] = -0.0
        pre[:, :, 0, 3:] = 0.0
        up = rng.uniform(-1, 1, pre.shape).astype(dtype)
        up[:, :, 1, :2] = -0.0
        d_pre, d_slope = tensor._prelu_grads(pre, slope, up)
        assert bits(d_pre) == bits(np.where(pre < 0, slope * up, up))
        assert bits(d_slope) == bits((pre * up * (pre < 0)).sum(axis=(0, 2, 3)).reshape(slope.shape))

    def test_taped_output_twin_is_a_read_only_zero_stride_view(self):
        rng = np.random.default_rng(12)
        x, wt = t4(rng.uniform(-1, 1, (1, 2, 4, 4))), t4(rng.uniform(-1, 1, (3, 2, 3, 3)))
        b, slope = t4(np.zeros((1, 3, 1, 1))), t4(np.full((1, 3, 1, 1), 0.25))
        with Tape():
            out = conv2d(x, wt, b, slope)
            twin = tensor._recorded(out)
            assert twin is not out
            assert not twin.data.flags.writeable
            assert twin.data.strides == (0, 0, 0, 0) and twin.shape == out.shape
            assert np.shares_memory(twin.data, tensor._EVICTED[np.dtype(np.float32)])


class TestConvSkip:
    """``conv2d`` with a ``skip``: a residual sum in each band's epilogue."""

    @pytest.mark.parametrize("n,widths,cout,k,h,w", [
        (1, (2,), 3, 3, 4, 5),
        (2, (1, 2), 2, 3, 5, 3),
        (1, (2, 1, 1), 3, 1, 3, 4),
        (2, (1,), 2, 5, 2, 3),
    ])
    def test_matches_naive_oracle(self, n, widths, cout, k, h, w):
        rng = np.random.default_rng(sum(widths) * 10 + k + 1)
        xs = [Tensor(rng.uniform(-1, 1, (n, c, h, w))) for c in widths]
        wt, b, skip = (Tensor(rng.uniform(-1, 1, shape)) for shape in (
            (cout, sum(widths), k, k), (1, cout, 1, 1), (n, cout, h, w)))
        probe = rng.standard_normal((n, cout, h, w))
        out, *d_xs, d_w, d_b, d_skip = taped_grads(
            lambda: conv2d(tuple(xs), wt, b, skip=skip), [*xs, wt, b, skip], probe)
        whole = np.concatenate([x.data for x in xs], axis=1)
        npt.assert_allclose(out, conv2d_naive(whole, wt.data, b.data, 1, k // 2, skip.data),
                            rtol=1e-12, atol=1e-12)
        want_x, want_w = conv2d_grads_naive(whole, wt.data, probe, k // 2)
        for got, want in zip(d_xs, np.split(want_x, np.cumsum(widths)[:-1], axis=1)):
            npt.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        npt.assert_allclose(d_w, want_w, rtol=1e-10, atol=1e-12)
        npt.assert_allclose(d_b, probe.sum(axis=(0, 2, 3)).reshape(b.shape), rtol=1e-12)
        npt.assert_array_equal(d_skip, probe)

    @pytest.mark.parametrize("fused", [False, True], ids=["linear", "prelu"])
    @pytest.mark.parametrize("rows", [1, 3, 16])
    def test_is_bitwise_the_skip_plus_the_convolution(self, monkeypatch, fused, rows):
        # float32, ragged bands, a half-extent input and, with ``fused``, a
        # PReLU: the output is skip + conv2d(...) and every gradient is the
        # unsummed conv's, bit for bit; the skip's is the upstream gradient
        n, h, w, cout = 2, 10, 12, 4
        monkeypatch.setattr(tensor, "_CONV_BAND_BYTES", rows * (5 + cout) * (w + 2) * 4)
        rng = np.random.default_rng(rows + 10 * fused)
        coarse = t4(rng.uniform(-1, 1, (n, 3, h // 2, w // 2)))
        full = t4(rng.uniform(-1, 1, (n, 2, h, w)))
        wt, b, slope = (t4(rng.uniform(-1, 1, shape))
                        for shape in ((cout, 5, 3, 3), (1, cout, 1, 1), (1, cout, 1, 1)))
        skip = t4(rng.uniform(-1, 1, (n, cout, h, w)))
        slope = slope if fused else None
        params = [wt, b] + ([slope] if fused else [])
        probe = rng.standard_normal((n, cout, h, w)).astype(np.float32)
        summed = taped_grads(lambda: conv2d((coarse, full), wt, b, slope, skip),
                             [coarse, full, *params, skip], probe)
        want = taped_grads(lambda: conv2d((coarse, full), wt, b, slope),
                           [coarse, full, *params], probe)
        want[0] = skip.data + want[0]
        want.append(probe)
        assert len(summed) == len(want)
        for got, ref in zip(summed, want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        untaped = conv2d((coarse, full), wt, b, slope, skip).data
        assert untaped.tobytes() == summed[0].tobytes()

    def test_skip_that_is_also_an_input_gets_both_gradients(self):
        # a dense residual block's last layer reads f and adds it: f's
        # gradient is its slice of the input gradient plus the upstream
        # gradient, bit for bit
        rng = np.random.default_rng(2)
        f, g = (t4(rng.uniform(-1, 1, (1, c, 6, 5))) for c in (3, 2))
        wt, b = t4(rng.uniform(-1, 1, (3, 5, 3, 3))), t4(rng.uniform(-1, 1, (1, 3, 1, 1)))
        probe = rng.standard_normal(f.shape).astype(np.float32)
        d_f = taped_grads(lambda: conv2d((f, g), wt, b, skip=f), [f], probe)[1]
        want = taped_grads(lambda: conv2d((f, g), wt, b), [f], probe)[1] + probe
        assert d_f.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, 2, 4, 4), (1, 3, 4, 5), (2, 3, 4, 4), (1, 3, 2, 2)],
                             ids=["channels", "width", "batch", "half-extent"])
    def test_skip_shape_checked(self, shape):
        # the output's exact shape: a half-extent skip is never read as its upsample
        with pytest.raises(DimensionError, match=re.escape(
                f"skip must have the output's shape (1, 3, 4, 4), got {shape}")):
            conv2d(t4(np.zeros((1, 1, 4, 4))), t4(np.zeros((3, 1, 3, 3))),
                   t4(np.zeros((1, 3, 1, 1))), skip=t4(np.zeros(shape)))


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
            backward(out, up.reshape(out.shape))
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
            backward(out, up)
        windows = x.data.reshape(1, 2, 2, 2, 3, 2).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
        want = np.zeros_like(windows)
        want[np.arange(len(windows)), windows.argmax(axis=1)] = up.ravel()
        grad = x.grad.reshape(1, 2, 2, 2, 3, 2).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
        assert grad.tobytes() == want.tobytes()


def read_upsampled(x: Tensor) -> Tensor:
    """``x``'s nearest 2x upsample as conv2d reads a half-extent input: a 1x1
    identity kernel over the join (``x``, zeros at twice its extents)."""
    n, c, h, w = x.shape
    zeros = Tensor(np.zeros((n, 1, 2 * h, 2 * w), dtype=x.dtype))
    weight = Tensor(np.eye(c, c + 1, dtype=x.dtype).reshape(c, c + 1, 1, 1))
    return conv2d((x, zeros), weight, Tensor(np.zeros((1, c, 1, 1), dtype=x.dtype)))


class TestUpsample:
    """conv2d reads an input with half the output's extents as its nearest
    2x upsample, and sums its gradient over 2x2 blocks."""

    def test_replication(self):
        out = read_upsampled(t4([[[[1.0, 2.0], [3.0, 4.0]]]]))
        npt.assert_array_equal(out.data[0, 0], [[1, 1, 2, 2], [1, 1, 2, 2],
                                                [3, 3, 4, 4], [3, 3, 4, 4]])

    def test_constant(self):
        out = read_upsampled(t4(np.full((2, 3, 2, 2), 0.6)))
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
            out = read_upsampled(x)
            backward(out, up)
        assert out.data.tobytes() == x.data.repeat(2, axis=2).repeat(2, axis=3).tobytes()
        block_sum = up.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))
        assert x.grad.dtype == dtype and x.grad.tobytes() == block_sum.tobytes()


def input_gradients(op, inputs, probe):
    for t in inputs:
        t.grad = None
    with Tape():
        backward(op(*inputs), probe)
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
        shifts = []
        exp_block = tensor._exp_block

        def spy(q_t, k, rows, shift, out=None):
            shifts.append((rows.start, shift))
            return exp_block(q_t, k, rows, shift, out)

        monkeypatch.setattr(tensor, "_exp_block", spy)
        inputs = [Tensor(x) for x in (q, k, v)]
        probe = rng.standard_normal(q.shape)
        with Tape():
            out = attention(*inputs)
            assert shifts == [(0, False), (4, False), (8, True), (12, True)]
            npt.assert_allclose(out.data, attention_naive(q, k, v), rtol=1e-12, atol=1e-12)
            # the backward's 4-row blocks recompute every block max-shifted;
            # without the shift exp overflows float64 on rows 8-15
            shifts.clear()
            use_block_rows(monkeypatch, 4, 16, buffers=3)
            backward(out, probe)
        assert shifts == [(0, True), (4, True), (8, True), (12, True)]
        for a, b in zip((t.grad for t in inputs), attention_grads_naive(q, k, v, probe)):
            npt.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_float32_error_is_no_larger_than_the_max_shifted_paths(self):
        # Both paths' float32 error is mostly the value GEMM's accumulation,
        # so on one draw they tie to a few percent. Row sums accumulated in
        # that GEMM too (a ones column beside V) read 1.1-1.4x here.
        rng = np.random.default_rng(7)
        q, k, v = (rng.standard_normal((8, 48 * 48)).astype(np.float32) for _ in range(3))
        assert tensor._unshifted_rows(q, k, v).all()
        unshifted = attention(*(Tensor(x.reshape(1, 8, 48, 48)) for x in (q, k, v))).data
        e, sums = tensor._exp_block(q.T, k, slice(None), shift=True)
        shifted_after = (e @ v.T / sums).T  # the forward's over-the-bound blocks
        shifted_before = (e / sums @ v.T).T  # the softmax the backward reads
        logits = q.T.astype(np.float64) @ k
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        oracle = (p / p.sum(axis=1, keepdims=True) @ v.T.astype(np.float64)).T

        def rms_error(x):
            return np.sqrt(np.mean((x.reshape(oracle.shape) - oracle) ** 2))

        assert rms_error(unshifted) <= 1.05 * min(rms_error(shifted_after),
                                                  rms_error(shifted_before))

    def test_sharp_rows_send_no_exp_input_below_the_floor(self, monkeypatch):
        # queries scaled by 1000 spread each row's logits over thousands, far
        # past -87.3, below which float32 exps are subnormal and slow
        rng = np.random.default_rng(9)
        q, k, v = (rng.uniform(-1, 1, (1, 4, 6, 6)).astype(np.float32) for _ in range(3))
        q *= 1000
        probe = rng.standard_normal(q.shape).astype(np.float32)

        def outputs_and_grads():
            inputs = [Tensor(x) for x in (q, k, v)]
            with Tape():
                out = attention(*inputs)
                backward(out, probe)
            return [out.data, *(t.grad for t in inputs)]

        float32 = np.dtype(np.float32)
        floor = tensor._EXP_FLOOR[float32]
        assert np.exp(floor) >= np.finfo(np.float32).tiny > np.exp(np.nextafter(floor, -np.inf))
        monkeypatch.setitem(tensor._EXP_FLOOR, float32, np.float32(-np.inf))
        unclamped = outputs_and_grads()
        monkeypatch.undo()
        lowest = []
        exp = np.exp

        def spy(x, *args, **kwargs):
            lowest.append(np.min(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        clamped = outputs_and_grads()
        monkeypatch.undo()
        assert len(lowest) >= 2 and min(lowest) >= floor, (lowest, floor)
        # exps of the clamped logits were below 1.2e-38 or zero, so the
        # outputs and gradients agree to float32 rounding of their scale
        for got, want in zip(clamped, unclamped):
            scale = np.abs(want).max()
            npt.assert_allclose(got, want, rtol=0, atol=np.finfo(np.float32).eps * scale)

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
                out = attention(q, k, v)
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                backward(out, probe)
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


def passed_through(x: Tensor) -> Tensor:
    """``x`` as an op's output: a 1x1 zero convolution that adds ``x`` as
    its skip, bit for bit but for -0.0, which becomes +0.0."""
    n, c = x.shape[:2]
    zeros = [t4(np.zeros(shape), x.dtype) for shape in ((n, 1) + x.shape[2:], (c, 1, 1, 1),
                                                       (1, c, 1, 1))]
    return conv2d(*zeros, skip=x)


class TestFiniteGuard:
    def test_overflow_is_an_error(self):
        x = t4(np.full((1, 1, 1, 1), 3e38))
        with np.errstate(over="ignore"), pytest.raises(ContractError):
            conv2d(x, t4(np.ones((1, 1, 1, 1))), t4(np.zeros((1, 1, 1, 1))), skip=x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_non_finite_element_names_the_op(self, bad, dtype):
        x = np.random.default_rng(0).uniform(-1, 1, (2, 3, 17, 19)).astype(dtype)
        x[1, 2, 16, 5] = bad
        with pytest.raises(ContractError, match="^conv2d produced non-finite values$"):
            passed_through(t4(x, dtype))

    def test_finite_output_whose_sum_of_squares_overflows_passes_silently(self):
        # 1e30 squared overflows float32, so the elementwise check decides
        x = t4(np.full((1, 2, 8, 8), 1e30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = passed_through(x)
        assert out.data.tobytes() == x.data.tobytes()

    def test_check_makes_no_output_sized_temporary(self):
        # an isfinite mask of the output is a quarter of its float32 bytes
        out = np.random.default_rng(1).uniform(-1, 1, (1, 8, 128, 128)).astype(np.float32)
        tracemalloc.start()
        try:
            assert tensor._all_finite(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.size // 8
