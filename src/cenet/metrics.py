"""Image fidelity metrics: PSNR and single-scale SSIM.

SSIM uses the classic 11x11 Gaussian window (sigma 1.5), K1 = 0.01,
K2 = 0.03, dynamic range 1.0, evaluated per RGB channel over all fully
interior windows and averaged. Identical images score PSNR +inf and
SSIM exactly 1.
"""

import math
from dataclasses import dataclass

import numpy as np

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _check_same_shape(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ValueError(f"image dimensions disagree: {a.shape} vs {b.shape}")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB over all channels, for a peak value
    of 1; inf when equal."""
    _check_same_shape(a, b)
    diff = np.subtract(a, b, dtype=np.float64)  # casts both operands, then subtracts
    mse = float(np.mean(np.square(diff, out=diff)))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_kernel1d(size: int, sigma: float) -> np.ndarray:
    offsets = np.arange(size, dtype=np.float64) - (size - 1) / 2
    g = np.exp(-(offsets ** 2) / (2 * sigma * sigma))
    return g / g.sum()


def _filter_valid(plane: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Separable valid-mode correlation of a C-contiguous 2-D plane with
    kern x kern.

    Both passes slide the window down the rows, so ``windows @ kern`` is one
    BLAS gemv per output row. The horizontal pass therefore filters a
    transposed contiguous copy, and the map comes back as its ``.T`` view.
    """
    windows = np.lib.stride_tricks.sliding_window_view(plane, kern.size, axis=0)
    cols = np.ascontiguousarray((windows @ kern).T)
    windows = np.lib.stride_tricks.sliding_window_view(cols, kern.size, axis=0)
    return (windows @ kern).T


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local SSIM between two (H, W, 3) images in [0, 1]."""
    _check_same_shape(a, b)
    h, w = a.shape[:2]
    if min(h, w) < SSIM_WINDOW:
        raise ValueError(
            f"images must be at least {SSIM_WINDOW}x{SSIM_WINDOW} for SSIM, got {w}x{h}")
    kern = _gaussian_kernel1d(SSIM_WINDOW, SSIM_SIGMA)
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    scores = []
    for c in range(a.shape[2]):
        # one C-contiguous float64 plane of each image, whatever the input
        # strides, made only when its channel is scored
        x = np.ascontiguousarray(a[:, :, c], dtype=np.float64)
        y = np.ascontiguousarray(b[:, :, c], dtype=np.float64)
        mu_x = _filter_valid(x, kern)
        mu_y = _filter_valid(y, kern)
        mu_xx, mu_yy, mu_xy = mu_x * mu_x, mu_y * mu_y, mu_x * mu_y
        # the variances only occur summed, so one filter of x^2 + y^2 serves both
        var_sum = _filter_valid(x * x + y * y, kern) - mu_xx - mu_yy
        cov = _filter_valid(x * y, kern) - mu_xy
        num = (2 * mu_xy + c1) * (2 * cov + c2)
        den = (mu_xx + mu_yy + c1) * (var_sum + c2)
        scores.append(float(np.mean(num / den)))
    return float(np.mean(scores))


@dataclass
class MetricRow:
    identifier: str
    psnr_db: float
    ssim: float
    seconds: float = 0.0  # wall time to load, enhance and score the pair


@dataclass
class MetricReport:
    """Per-image metric rows plus their arithmetic means."""

    rows: list[MetricRow]

    @property
    def mean_psnr(self) -> float:
        return sum(r.psnr_db for r in self.rows) / len(self.rows)

    @property
    def mean_ssim(self) -> float:
        return sum(r.ssim for r in self.rows) / len(self.rows)

    def to_csv(self) -> str:
        lines = ["id,psnr,ssim"]
        lines += [f"{r.identifier},{r.psnr_db:.6f},{r.ssim:.6f}" for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        width = max([len("image")] + [len(r.identifier) for r in self.rows])
        lines = [f"{'image':<{width}}  {'PSNR(dB)':>10}  {'SSIM':>8}"]
        for r in self.rows:
            lines.append(f"{r.identifier:<{width}}  {r.psnr_db:>10.4f}  {r.ssim:>8.4f}")
        lines.append(f"{'mean':<{width}}  {self.mean_psnr:>10.4f}  {self.mean_ssim:>8.4f}")
        return "\n".join(lines)

