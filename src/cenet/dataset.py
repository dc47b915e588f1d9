"""Paired-image datasets: directory scanning, augmentation, sampling.

A dataset is a directory with ``input/`` and ``target/`` subdirectories
whose files pair up by filename stem. Patch sampling derives all of its
randomness from (seed, iteration, sample), so a training run draws the
same sequence wherever a resumed run picks up.
"""

import logging
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imageio import Image, load_image

log = logging.getLogger(__name__)

IMAGE_SUFFIXES = (".png", ".ppm")
# Bytes of the 8-bit pairs a sample stream keeps, least recently used evicted first.
_CACHE_BYTES = 512 << 20


class DatasetError(RuntimeError):
    """The dataset directory cannot supply any usable pairs."""


class PairError(RuntimeError):
    """A specific pair is unusable; the message names the file."""


@dataclass
class PairRecord:
    identifier: str
    input_path: Path
    target_path: Path


@dataclass
class ImagePair:
    identifier: str
    input: Image
    target: Image


@dataclass
class BytePair:
    """A decoded pair as its 8-bit samples: two (H, W, 3) uint8 arrays, a
    quarter of the bytes of the float32 pair they came from."""

    identifier: str
    input: np.ndarray
    target: np.ndarray

    @classmethod
    def of(cls, pair: ImagePair) -> "BytePair":
        """Exact while the decoders build every image with ``Image.from_u8``."""
        return cls(pair.identifier, pair.input.to_u8(), pair.target.to_u8())

    @property
    def nbytes(self) -> int:
        return self.input.nbytes + self.target.nbytes


@dataclass
class AugmentSpec:
    """Random square crop plus optional flips and right-angle rotations."""

    crop_size: int = 512
    enable_flip: bool = True
    enable_rotation: bool = True


def scan_dataset(root) -> list[PairRecord]:
    """List pairs under ``root`` in deterministic lexicographic stem order.

    Unmatched files are reported and excluded, never silently dropped; two
    files in one directory that share a stem are an error.
    """
    root = Path(root)
    input_dir = root / "input"
    target_dir = root / "target"
    if not input_dir.is_dir() or not target_dir.is_dir():
        raise DatasetError(f"{root} must contain input/ and target/ directories")

    def index(directory: Path) -> dict[str, Path]:
        files = {}
        for path in sorted(directory.iterdir()):
            if path.suffix.lower() in IMAGE_SUFFIXES:
                if path.stem in files:
                    raise DatasetError(
                        f"{files[path.stem]} and {path} share the stem {path.stem!r}")
                files[path.stem] = path
        return files

    inputs = index(input_dir)
    targets = index(target_dir)
    records = []
    for stem in sorted(set(inputs) | set(targets)):
        if stem not in inputs:
            log.warning("target/%s has no matching input; skipping", targets[stem].name)
            continue
        if stem not in targets:
            log.warning("input/%s has no matching target; skipping", inputs[stem].name)
            continue
        records.append(PairRecord(stem, inputs[stem], targets[stem]))
    if not records:
        raise DatasetError(f"no usable image pairs under {root}")
    return records


def load_pair(record: PairRecord) -> ImagePair:
    a = load_image(record.input_path)
    b = load_image(record.target_path)
    if a.pixels.shape != b.pixels.shape:
        raise PairError(
            f"{record.input_path.name}: input is {a.width}x{a.height} "
            f"but target is {b.width}x{b.height}")
    return ImagePair(record.identifier, a, b)


def reflect_pad_to(pixels: np.ndarray, min_h: int, min_w: int) -> np.ndarray:
    """Reflect-pad (H, W, 3) pixels up to at least the given extents."""
    h, w = pixels.shape[:2]
    pad_h = max(0, min_h - h)
    pad_w = max(0, min_w - w)
    if not pad_h and not pad_w:
        return pixels
    top, left = pad_h // 2, pad_w // 2
    return np.pad(pixels, ((top, pad_h - top), (left, pad_w - left), (0, 0)),
                  mode="reflect")


def sample_patch(pair: BytePair, spec: AugmentSpec,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one aligned (input, target) patch pair, shape (crop, crop, 3).

    The crop origin, flips, and rotation are drawn from ``rng`` and applied
    identically to both images, which must be at least the crop in both
    extents (``SampleStream`` reflect-pads smaller pairs once, as it
    decodes them). The patches are uint8 views into the pair.
    """
    size = spec.crop_size
    src = pair.input
    tgt = pair.target
    if src.shape[0] < size or src.shape[1] < size:
        raise ValueError(f"pair {pair.identifier} ({src.shape[1]}x{src.shape[0]}) is smaller "
                         f"than crop {size}; reflect-pad it first")
    y = int(rng.integers(0, src.shape[0] - size + 1))
    x = int(rng.integers(0, src.shape[1] - size + 1))
    a = src[y:y + size, x:x + size]
    b = tgt[y:y + size, x:x + size]
    if spec.enable_flip:
        if rng.integers(0, 2):
            a, b = a[:, ::-1], b[:, ::-1]
        if rng.integers(0, 2):
            a, b = a[::-1], b[::-1]
    if spec.enable_rotation:
        k = int(rng.integers(0, 4))
        if k:
            a, b = np.rot90(a, k), np.rot90(b, k)
    return a, b


def sample_rng(seed: int, iteration: int, sample: int) -> np.random.Generator:
    """The canonical RNG for one drawn sample of one iteration."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), iteration, sample)))


class SampleStream:
    """Deterministic augmented-batch stream over a list of pairs.

    Batch i depends only on (seed, i). Decoded pairs are kept as their
    8-bit samples (``BytePair``) in an LRU cache of at most
    ``_CACHE_BYTES``; a pair larger than that is not kept. A pair smaller
    than the crop is reflect-padded up to it as it is decoded, with one
    warning per decode, and kept padded. Batches are
    (B, 3, crop, crop) float32 NCHW arrays, each patch converted with
    ``Image.from_u8``'s arithmetic as it is written into the batch.
    """

    def __init__(self, records: list[PairRecord], spec: AugmentSpec, seed: int,
                 batch_size: int = 1):
        if not records:
            raise DatasetError("sample stream needs at least one pair")
        self.records = records
        self.spec = spec
        self.seed = seed
        self.batch_size = batch_size
        self._cache: OrderedDict[int, BytePair] = OrderedDict()
        self._cached_bytes = 0

    def _pair(self, index: int) -> BytePair:
        if index in self._cache:
            self._cache.move_to_end(index)
            return self._cache[index]
        # looked up per call, so the global can be wrapped
        pair = BytePair.of(load_pair(self.records[index]))
        size = self.spec.crop_size
        h, w = pair.input.shape[:2]
        if h < size or w < size:
            log.warning("pair %s (%dx%d) is smaller than crop %d; reflect-padding",
                        pair.identifier, w, h, size)
            pair = BytePair(pair.identifier, reflect_pad_to(pair.input, size, size),
                            reflect_pad_to(pair.target, size, size))
        if pair.nbytes <= _CACHE_BYTES:
            while self._cached_bytes + pair.nbytes > _CACHE_BYTES:
                self._cached_bytes -= self._cache.popitem(last=False)[1].nbytes
            self._cache[index] = pair
            self._cached_bytes += pair.nbytes
        return pair

    def batch(self, iteration: int) -> tuple[np.ndarray, np.ndarray]:
        size = self.spec.crop_size
        inputs = np.empty((self.batch_size, 3, size, size), dtype=np.float32)
        targets = np.empty_like(inputs)
        for j in range(self.batch_size):
            rng = sample_rng(self.seed, iteration, j)
            pair = self._pair(int(rng.integers(0, len(self.records))))
            for patch, out in zip(sample_patch(pair, self.spec, rng), (inputs[j], targets[j])):
                # bit for bit Image.from_u8(patch): u8 -> float32, then / 255 in float32
                np.divide(patch.transpose(2, 0, 1), 255, out=out, dtype=np.float32)
        return inputs, targets
