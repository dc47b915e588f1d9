"""Inference helpers: padding, tiled processing, and dataset evaluation.

Arbitrary image extents are reflect-padded up to the network's required
divisor and cropped back afterwards. Large images can be processed in
overlapping tiles whose contributions are feathered together; outputs are
clamped to [0, 1] only here, at export time.
"""

import time

import numpy as np

from .blocks import EnhancementNetwork
from .dataset import load_pair
from .imageio import Image
from .metrics import MetricReport, MetricRow, psnr, ssim
from .tensor import Tensor


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


def _forward_array(network: EnhancementNetwork, pixels: np.ndarray) -> np.ndarray:
    """Run (H, W, 3) pixels through the network, handling divisor padding.

    Given the caller's last reference, ``pixels`` are released once the
    network input exists; the network gets the only reference to that
    input, so without a tape its stem block is the input's last reader.
    """
    h, w = pixels.shape[:2]
    div = network.config.divisor
    pad = ((0, _round_up(h, div) - h), (0, _round_up(w, div) - w), (0, 0))
    # the padded copy is a temporary: only the network input outlives this line
    x = [Tensor(np.ascontiguousarray(np.pad(pixels, pad, mode="reflect").transpose(2, 0, 1)[None],
                                     dtype=np.float32))]
    del pixels
    out = network.forward(x.pop())
    result = out.data[0].transpose(1, 2, 0)
    return result[:h, :w]


def _feather_profile(tile: int, overlap: int) -> np.ndarray:
    ramp = np.minimum(np.arange(1, tile + 1), np.arange(tile, 0, -1))
    return np.minimum(ramp, overlap + 1).astype(np.float64) / (overlap + 1)


def _forward_tiled(network: EnhancementNetwork, pixels: np.ndarray,
                   tile: int, overlap: int) -> np.ndarray:
    """Overlapping tiles with feathered blending.

    Each tile is evaluated with an extra ``overlap``-wide margin of real
    image context (cropped away afterwards), so tile borders see the same
    neighborhood the full-image pass sees; the remaining truncation error
    is feathered out across the overlap band.
    """
    h, w = pixels.shape[:2]
    profile = _feather_profile(tile, overlap)
    weight_tile = np.outer(profile, profile)[:, :, None]
    acc = np.zeros((h, w, 3), dtype=np.float64)
    weight = np.zeros((h, w, 1), dtype=np.float64)
    step = tile - overlap
    margin = overlap

    def starts(extent: int) -> list[int]:
        if extent <= tile:
            return [0]
        positions = list(range(0, extent - tile, step))
        positions.append(extent - tile)
        return positions

    div = network.config.divisor
    for y0 in starts(h):
        for x0 in starts(w):
            y1, x1 = min(y0 + tile, h), min(x0 + tile, w)
            # context window snapped to the pooling grid so tile passes stay
            # in phase with the full-image pass
            cy0 = max(0, (y0 - margin) // div * div)
            cx0 = max(0, (x0 - margin) // div * div)
            cy1, cx1 = min(h, y1 + margin), min(w, x1 + margin)
            out = _forward_array(network, pixels[cy0:cy1, cx0:cx1])
            out = out[y0 - cy0:y1 - cy0, x0 - cx0:x1 - cx0]
            wt = weight_tile[:y1 - y0, :x1 - x0]
            acc[y0:y1, x0:x1] += out * wt
            weight[y0:y1, x0:x1] += wt
    return (acc / weight).astype(np.float32)


def enhance(network: EnhancementNetwork, image: Image,
            tile: int | None = None) -> Image:
    """Enhance one image; the result is clamped to [0, 1].

    Untiled, given the caller's last reference, ``image`` is released once
    the padded network input exists.
    """
    div = network.config.divisor
    if tile is not None:
        if tile < 2 * div:
            raise ValueError(f"tile size must be at least {2 * div} (2x the network divisor)")
        tile = _round_up(tile, div)
        overlap = max(div, _round_up(tile // 3, div))
        out = _forward_tiled(network, image.pixels, tile, overlap)
    else:
        pixels = [image.pixels]
        del image
        out = _forward_array(network, pixels.pop())
    return Image(np.clip(out, 0.0, 1.0))


def _score(network: EnhancementNetwork, record, tile: int | None) -> MetricRow:
    start = time.perf_counter()
    pair = load_pair(record)
    out = enhance(network, pair.input, tile=tile).pixels
    return MetricRow(pair.identifier, psnr(out, pair.target.pixels),
                     ssim(out, pair.target.pixels), time.perf_counter() - start)


def evaluate_network(network: EnhancementNetwork, records,
                     tile: int | None = None) -> MetricReport:
    """Enhance every pair's input and score it against the target. Only
    the scores are kept, so one pair's images are in memory at a time."""
    rows = [_score(network, record, tile) for record in records]
    if not rows:
        raise ValueError("nothing to evaluate")
    return MetricReport(rows)
