"""Dataset scanning, augmentation equivariance, and stream determinism."""

import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from cenet import dataset
from cenet.dataset import (
    AugmentSpec,
    BytePair,
    DatasetError,
    PairError,
    SampleStream,
    load_pair,
    reflect_pad_to,
    sample_patch,
    sample_rng,
    scan_dataset,
)
from cenet.imageio import Image, encode_png, save_image

from reference import sample_patch_float


def write_pair(root, stem, size=(12, 10), seed=0):
    rng = np.random.default_rng(seed)
    for sub in ("input", "target"):
        (root / sub).mkdir(exist_ok=True, parents=True)
        arr = rng.integers(0, 256, (*size, 3), dtype=np.uint8)
        (root / sub / f"{stem}.png").write_bytes(encode_png(Image.from_u8(arr)))


def make_pair(h=12, w=10, seed=0):
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, 256, (2, h, w, 3), dtype=np.uint8)
    return BytePair("p", a, b)


class TestScan:
    def test_orders_pairs_by_stem(self, tmp_path):
        for stem in ("b", "a", "c"):
            write_pair(tmp_path, stem)
        records = scan_dataset(tmp_path)
        assert [r.identifier for r in records] == ["a", "b", "c"]

    def test_unmatched_file_excluded_with_warning(self, tmp_path, caplog):
        write_pair(tmp_path, "a")
        (tmp_path / "input" / "orphan.png").write_bytes(
            encode_png(Image.from_u8(np.zeros((4, 4, 3), dtype=np.uint8))))
        with caplog.at_level("WARNING"):
            records = scan_dataset(tmp_path)
        assert [r.identifier for r in records] == ["a"]
        assert "orphan" in caplog.text

    def test_target_without_input_excluded_with_warning(self, tmp_path, caplog):
        write_pair(tmp_path, "a")
        (tmp_path / "target" / "orphan.png").write_bytes(
            encode_png(Image.from_u8(np.zeros((4, 4, 3), dtype=np.uint8))))
        with caplog.at_level("WARNING"):
            records = scan_dataset(tmp_path)
        assert [r.identifier for r in records] == ["a"]
        assert "target/orphan.png has no matching input; skipping" in caplog.text

    def test_empty_dataset_is_an_error(self, tmp_path):
        (tmp_path / "input").mkdir()
        (tmp_path / "target").mkdir()
        with pytest.raises(DatasetError):
            scan_dataset(tmp_path)

    def test_shared_stem_is_an_error(self, tmp_path):
        write_pair(tmp_path, "0001")
        save_image(Image.from_u8(np.zeros((4, 4, 3), dtype=np.uint8)),
                   tmp_path / "input" / "0001.ppm")
        with pytest.raises(DatasetError, match=r"0001\.png and .*0001\.ppm share the stem"):
            scan_dataset(tmp_path)

    def test_missing_directories(self, tmp_path):
        with pytest.raises(DatasetError):
            scan_dataset(tmp_path)

    def test_size_mismatch_names_pair(self, tmp_path):
        (tmp_path / "input").mkdir()
        (tmp_path / "target").mkdir()
        save_image(Image.from_u8(np.zeros((4, 4, 3), dtype=np.uint8)),
                   tmp_path / "input" / "a.png")
        save_image(Image.from_u8(np.zeros((5, 4, 3), dtype=np.uint8)),
                   tmp_path / "target" / "a.png")
        with pytest.raises(PairError, match="a.png"):
            load_pair(scan_dataset(tmp_path)[0])


class TestSamplePatch:
    def test_identity_when_crop_covers_image(self):
        pair = make_pair(8, 8)
        spec = AugmentSpec(crop_size=8, enable_flip=False, enable_rotation=False)
        a, b = sample_patch(pair, spec, np.random.default_rng(0))
        npt.assert_array_equal(a, pair.input)
        npt.assert_array_equal(b, pair.target)

    def test_deterministic_for_fixed_rng(self):
        pair = make_pair(20, 20)
        spec = AugmentSpec(crop_size=8)
        a1, b1 = sample_patch(pair, spec, np.random.default_rng(42))
        a2, b2 = sample_patch(pair, spec, np.random.default_rng(42))
        npt.assert_array_equal(a1, a2)
        npt.assert_array_equal(b1, b2)

    def test_rot180_equals_double_flip(self):
        pair = make_pair(8, 8)
        patch = pair.input
        npt.assert_array_equal(np.rot90(patch, 2), patch[::-1, ::-1])

    def test_same_transform_on_both_images(self):
        # plant a marker at the same coordinate in input and target; it must
        # land at the same output coordinate in every drawn patch
        pair = make_pair(16, 16, seed=3)
        pair.input[5, 7] = [255, 0, 0]
        pair.target[5, 7] = [255, 0, 0]
        spec = AugmentSpec(crop_size=12)
        hits = 0
        for seed in range(30):
            a, b = sample_patch(pair, spec, np.random.default_rng(seed))
            pos_a = np.argwhere((a == [255, 0, 0]).all(axis=-1))
            pos_b = np.argwhere((b == [255, 0, 0]).all(axis=-1))
            npt.assert_array_equal(pos_a, pos_b)
            hits += len(pos_a)
        assert hits > 0

    @pytest.mark.parametrize("h,w", [(6, 10), (10, 9), (3, 3)])
    def test_pair_smaller_than_the_crop_is_rejected(self, h, w):
        # the stream pads such pairs once, as it decodes them
        with pytest.raises(ValueError, match=f"pair p \\({w}x{h}\\) is smaller than crop 10"):
            sample_patch(make_pair(h, w), AugmentSpec(crop_size=10), np.random.default_rng(0))

    def test_values_stay_in_unit_range(self, tmp_path):
        write_pair(tmp_path, "a", size=(20, 20), seed=6)
        stream = SampleStream(scan_dataset(tmp_path), AugmentSpec(crop_size=8), seed=1)
        for patch in stream.batch(0):
            assert patch.dtype == np.float32
            assert patch.min() >= 0.0 and patch.max() <= 1.0


class TestSampleStream:
    def test_batches_deterministic_per_iteration(self, tmp_path):
        write_pair(tmp_path, "a", size=(16, 16))
        write_pair(tmp_path, "b", size=(16, 16), seed=9)
        records = scan_dataset(tmp_path)
        spec = AugmentSpec(crop_size=8)
        s1 = SampleStream(records, spec, seed=5)
        s2 = SampleStream(records, spec, seed=5)
        for i in (0, 3, 17):
            x1, y1 = s1.batch(i)
            x2, y2 = s2.batch(i)
            npt.assert_array_equal(x1, x2)
            npt.assert_array_equal(y1, y2)

    def test_pair_cache_is_a_bounded_lru(self, tmp_path, monkeypatch):
        for k, stem in enumerate("abc"):
            write_pair(tmp_path, stem, size=(16, 16), seed=k)
        records = scan_dataset(tmp_path)
        spec = AugmentSpec(crop_size=8)
        # a budget that holds two of these pairs but not three
        monkeypatch.setattr(dataset, "_CACHE_BYTES",
                            2 * BytePair.of(load_pair(records[0])).nbytes + 1)
        stream = SampleStream(records, spec, seed=3, batch_size=2)
        loads = []

        def counting_load(record):
            loads.append(record.identifier)
            return load_pair(record)

        # patched after the stream is built: the cache must look it up per call
        monkeypatch.setattr(dataset, "load_pair", counting_load)
        drawn = [stream.batch(i) for i in range(30)]

        cached, expected = [], []
        for i in range(30):
            for j in range(2):
                index = int(sample_rng(3, i, j).integers(0, len(records)))
                if index in cached:
                    cached.remove(index)
                else:
                    expected.append(records[index].identifier)
                    if len(cached) == 2:
                        cached.pop(0)
                cached.append(index)
        assert loads == expected
        assert len(expected) < 60, "no cache hits drawn"
        assert len(set(expected)) < len(expected), "no evicted pair reloaded"

        # batches drawn after evictions equal those of a fresh stream
        for i, (x, y) in enumerate(drawn):
            x_fresh, y_fresh = SampleStream(records, spec, seed=3, batch_size=2).batch(i)
            npt.assert_array_equal(x, x_fresh)
            npt.assert_array_equal(y, y_fresh)

    def test_pair_larger_than_the_cache_is_not_kept(self, tmp_path, monkeypatch):
        write_pair(tmp_path, "a", size=(16, 16))
        write_pair(tmp_path, "b", size=(32, 32))
        records = scan_dataset(tmp_path)
        monkeypatch.setattr(dataset, "_CACHE_BYTES", BytePair.of(load_pair(records[0])).nbytes)
        stream = SampleStream(records, AugmentSpec(crop_size=8), seed=0)
        loads = []

        def counting_load(record):
            loads.append(record.identifier)
            return load_pair(record)

        monkeypatch.setattr(dataset, "load_pair", counting_load)
        for index in (0, 1, 0, 1):
            stream._pair(index)
        # "b" is reloaded each time and never evicts "a"
        assert loads == ["a", "b", "b"]

    def test_small_image_reflect_padded(self, tmp_path, monkeypatch, caplog):
        # padded once, when the pair is decoded and cached, with one warning;
        # every draw crops the cached padded pair
        write_pair(tmp_path, "a", size=(6, 7))
        records = scan_dataset(tmp_path)
        spec = AugmentSpec(crop_size=10, enable_flip=False, enable_rotation=False)
        stream = SampleStream(records, spec, seed=0)
        pads = []
        reflect_pad_to = dataset.reflect_pad_to

        def counting_pad(pixels, min_h, min_w):
            pads.append(pixels.shape)
            return reflect_pad_to(pixels, min_h, min_w)

        monkeypatch.setattr(dataset, "reflect_pad_to", counting_pad)
        with caplog.at_level("WARNING"):
            batches = [stream.batch(i) for i in range(5)]
        assert pads == [(6, 7, 3), (6, 7, 3)]
        assert caplog.text.count("a (7x6) is smaller than crop 10; reflect-padding") == 1
        padded = reflect_pad_to(BytePair.of(load_pair(records[0])).input, 10, 10)
        assert stream._pair(0).input.tobytes() == padded.tobytes()
        x, _ = batches[0]
        assert x.shape == (1, 3, 10, 10)
        assert x[0].tobytes() == (padded.transpose(2, 0, 1) / np.float32(255)).tobytes()

    def test_batches_equal_those_built_from_float_pairs(self, tmp_path):
        # 1000 batches of two draws; "c" and "d" are narrower or shorter than
        # the crop, so their draws take the reflect-pad path
        for k, (stem, size) in enumerate([("a", (16, 16)), ("b", (20, 13)),
                                          ("c", (14, 9)), ("d", (6, 15))]):
            write_pair(tmp_path, stem, size=size, seed=k)
        records = scan_dataset(tmp_path)
        spec = AugmentSpec(crop_size=10)
        stream = SampleStream(records, spec, seed=7, batch_size=2)
        floats = [load_pair(r) for r in records]
        padded = 0
        for i in range(1000):
            x, y = stream.batch(i)
            for j in range(2):
                rng = sample_rng(7, i, j)
                pair = floats[int(rng.integers(0, len(records)))]
                padded += min(pair.input.pixels.shape[:2]) < 10
                a, b = sample_patch_float(pair.input.pixels, pair.target.pixels, spec, rng)
                assert x[j].tobytes() == a.transpose(2, 0, 1).tobytes()
                assert y[j].tobytes() == b.transpose(2, 0, 1).tobytes()
        assert 0 < padded < 2000

    def test_cached_pair_is_a_quarter_of_the_float_pair(self, tmp_path):
        write_pair(tmp_path, "a", size=(16, 12))
        pair = load_pair(scan_dataset(tmp_path)[0])
        cached = BytePair.of(pair)
        assert cached.input.dtype == cached.target.dtype == np.uint8
        assert 4 * cached.nbytes == pair.input.pixels.nbytes + pair.target.pixels.nbytes

    def test_finished_stream_is_freed_without_cyclic_gc(self, tmp_path):
        write_pair(tmp_path, "a", size=(16, 16))
        stream = SampleStream(scan_dataset(tmp_path), AugmentSpec(crop_size=8), seed=0)
        stream.batch(0)
        freed = weakref.ref(stream)
        gc.disable()
        try:
            del stream
            assert freed() is None
        finally:
            gc.enable()

    def test_stream_without_pairs_is_an_error(self):
        with pytest.raises(DatasetError, match="^sample stream needs at least one pair$"):
            SampleStream([], AugmentSpec(), seed=0)

    def test_reflect_pad_to_returns_what_needs_no_padding(self):
        pixels = make_pair(h=6, w=5).input
        assert reflect_pad_to(pixels, 6, 5) is pixels
        assert reflect_pad_to(pixels, 3, 1) is pixels

    def test_batch_shape_is_nchw(self, tmp_path):
        write_pair(tmp_path, "a", size=(16, 16))
        records = scan_dataset(tmp_path)
        stream = SampleStream(records, AugmentSpec(crop_size=8), seed=0, batch_size=3)
        x, y = stream.batch(0)
        assert x.shape == (3, 3, 8, 8)
        assert y.shape == (3, 3, 8, 8)

    def test_sample_rng_isolated_per_iteration(self):
        a = sample_rng(0, 1, 0).integers(0, 1 << 30)
        b = sample_rng(0, 2, 0).integers(0, 1 << 30)
        assert a != b
        assert sample_rng(0, 1, 0).integers(0, 1 << 30) == a
