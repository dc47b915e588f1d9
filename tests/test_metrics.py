"""PSNR closed forms and SSIM against the independent loop oracle."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from cenet import inference
from cenet.blocks import EnhancementNetwork, NetworkConfig
from cenet.dataset import scan_dataset
from cenet.imageio import Image, save_image
from cenet.inference import evaluate_network
from cenet.metrics import MetricReport, MetricRow, psnr, ssim

from reference import ssim_reference


def rand_img(h, w, seed):
    return np.random.default_rng(seed).uniform(0, 1, (h, w, 3)).astype(np.float32)


class TestPsnr:
    def test_identical_is_inf(self):
        a = rand_img(8, 8, 0)
        assert psnr(a, a) == math.inf

    def test_uniform_shift_half(self):
        a = np.zeros((4, 4, 3), dtype=np.float32)
        b = np.full((4, 4, 3), 0.5, dtype=np.float32)
        assert psnr(a, b) == pytest.approx(10 * math.log10(1 / 0.25), abs=1e-3)
        assert psnr(a, b) == pytest.approx(6.0206, abs=1e-3)

    def test_uniform_shift_tenth(self):
        a = np.full((4, 4, 3), 0.2, dtype=np.float32)
        b = np.full((4, 4, 3), 0.3, dtype=np.float32)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-3)

    def test_symmetric(self):
        a, b = rand_img(6, 6, 1), rand_img(6, 6, 2)
        assert psnr(a, b) == pytest.approx(psnr(b, a), rel=1e-12)

    def test_monotone_in_noise_amplitude(self):
        base = rand_img(12, 12, 3)
        noise = np.random.default_rng(4).standard_normal(base.shape).astype(np.float32)
        values = [psnr(base, base + amp * noise) for amp in (0.01, 0.03, 0.1, 0.3)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psnr(rand_img(4, 4, 0), rand_img(4, 5, 0))

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_two_copy_float64_form(self, seed):
        a, b = rand_img(9 + seed, 13, seed), rand_img(9 + seed, 13, seed + 20)
        mse = float(np.mean(np.square(a.astype(np.float64) - b.astype(np.float64))))
        assert psnr(a, b) == 10.0 * math.log10(1.0 / mse)


class TestSsim:
    def test_self_is_exactly_one(self):
        a = rand_img(16, 16, 5)
        assert ssim(a, a) == 1.0

    @pytest.mark.parametrize("h, w", [(11, 11), (23, 17)])
    def test_self_is_exactly_one_at_the_smallest_and_an_odd_size(self, h, w):
        a = rand_img(h, w, 6)
        assert ssim(a, a) == 1.0

    def test_inverted_image_scores_low(self):
        a = rand_img(24, 24, 6)
        assert ssim(a, 1.0 - a) < 0.5

    def test_matches_reference_on_shifted_pair(self):
        a = rand_img(20, 20, 7)
        b = np.clip(a + 0.05, 0, 1)
        assert ssim(a, b) == pytest.approx(ssim_reference(a, b), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_on_random_pairs(self, seed):
        a = rand_img(16, 18, seed)
        b = rand_img(16, 18, seed + 100)
        assert ssim(a, b) == pytest.approx(ssim_reference(a, b), abs=1e-12)

    def test_symmetric(self):
        a, b = rand_img(14, 14, 8), rand_img(14, 14, 9)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-6)

    def test_strided_inputs_score_as_their_contiguous_copies(self):
        a, b = rand_img(19, 27, 10), rand_img(19, 27, 11)
        planar = np.ascontiguousarray(a.transpose(2, 0, 1)).transpose(1, 2, 0)
        transposed = np.ascontiguousarray(b.transpose(1, 0, 2)).transpose(1, 0, 2)
        wide = np.repeat(a, 2, axis=2)[:, :, ::2]  # channel stride of 8 bytes
        expected = ssim(a, b)
        assert ssim(planar, b) == expected
        assert ssim(a, transposed) == expected
        assert ssim(wide, transposed) == expected
        assert ssim(a.T.copy().T, b) == expected

    def test_bounded(self):
        for seed in range(3):
            a, b = rand_img(12, 12, seed), rand_img(12, 12, seed + 50)
            assert -1.0 <= ssim(a, b) <= 1.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ssim(rand_img(10, 12, 0), rand_img(10, 12, 1))

    def test_converts_one_channel_at_a_time(self):
        # unit: one float64 plane. Scoring a channel peaks at about 12.5 of
        # them; float64 copies of all three channels of both images, made
        # before the first channel is filtered, took the peak to 16.5
        a, b = rand_img(96, 128, 12), rand_img(96, 128, 13)
        tracemalloc.start()
        try:
            ssim(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14.5 * 96 * 128 * 8


class TestReport:
    def test_mean_is_arithmetic_mean(self):
        report = MetricReport([MetricRow("a", 10.0, 0.5), MetricRow("b", 20.0, 0.7)])
        assert report.mean_psnr == 15.0
        assert report.mean_ssim == pytest.approx(0.6)

    def test_csv_row_count_and_header(self):
        report = MetricReport([MetricRow(i, 30.0, 0.9) for i in ("a", "b", "c")])
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "id,psnr,ssim"
        assert len(lines) == 1 + 3

    def test_table_contains_mean(self):
        report = MetricReport([MetricRow("x", 12.0, 0.9)])
        assert "mean" in report.to_table()


def write_pairs(root, inputs, targets):
    for sub, images in (("input", inputs), ("target", targets)):
        (root / sub).mkdir(parents=True, exist_ok=True)
        for idx, pixels in enumerate(images):
            save_image(Image(pixels), root / sub / f"p{idx}.png")
    return scan_dataset(root)


class TestEvaluateNetwork:
    @pytest.fixture
    def network(self):
        return EnhancementNetwork(NetworkConfig(num_stages=1, base_channels=2), seed=0)

    @pytest.fixture
    def identity(self, monkeypatch):
        """Replace the network pass by a copy of the input image."""
        monkeypatch.setattr(inference, "enhance",
                            lambda network, image, tile=None: Image(image.pixels.copy()))

    def test_target_vs_target_rows(self, tmp_path, network, identity):
        imgs = [rand_img(16, 16, s) for s in range(3)]
        report = evaluate_network(network, write_pairs(tmp_path, imgs, imgs))
        assert [row.identifier for row in report.rows] == ["p0", "p1", "p2"]
        for row in report.rows:
            assert row.psnr_db == math.inf
            assert row.ssim == 1.0

    def test_dark_input_scores_poorly(self, tmp_path, network, identity):
        bright = [rand_img(16, 16, s) * 0.8 + 0.2 for s in range(3)]
        dark = [b * 0.15 for b in bright]
        report = evaluate_network(network, write_pairs(tmp_path, dark, bright))
        assert report.mean_psnr < 15.0

    def test_no_records(self, network):
        with pytest.raises(ValueError, match="nothing to evaluate"):
            evaluate_network(network, [])

    def test_each_output_is_freed_before_the_next_pair(self, tmp_path, network,
                                                      monkeypatch):
        imgs = [rand_img(16, 16, s) for s in range(3)]
        records = write_pairs(tmp_path, imgs, imgs)
        real_enhance = inference.enhance
        outputs = []

        def tracked(*args, **kwargs):
            assert all(ref() is None for ref in outputs), "an earlier output is still held"
            out = real_enhance(*args, **kwargs)
            outputs.append(weakref.ref(out.pixels))
            return out

        monkeypatch.setattr(inference, "enhance", tracked)
        report = evaluate_network(network, records)
        assert len(outputs) == len(report.rows) == 3
