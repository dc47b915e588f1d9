"""Seeded benchmark inputs: photo-like low-light pairs and their files.

Everything here is a pure function of the workload seed, so one seed
always yields byte-identical files. The program under test only ever sees
the written files.
"""

import struct
import zlib
from pathlib import Path

import numpy as np

from cenet import checkpoint
from cenet.blocks import EnhancementNetwork
from cenet.config import format_config
from cenet.imageio import Image, load_image, save_image

FILTER_NAMES = ("none", "sub", "up", "average", "paeth")
PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _smooth_field(rng, h, w, blobs):
    """Low-frequency field in [0, 1]: a gradient plus a few wide Gaussians."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    gy, gx = rng.uniform(-1, 1, 2)
    field = 0.5 + 0.25 * (gy * (yy / h - 0.5) + gx * (xx / w - 0.5))
    for _ in range(blobs):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        sigma = rng.uniform(0.15, 0.5) * max(h, w)
        field += rng.uniform(-0.4, 0.6) * np.exp(
            -((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
    field -= field.min()
    return field / max(field.max(), 1e-9)


def photo_pair(rng: np.random.Generator, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """One LOL-style (dark input, bright target) pair as (H, W, 3) uint8.

    The target is a lit scene: flat-colored shapes with hard edges, striped
    and noisy textures, under smooth illumination. The input is the target
    darkened by a gamma curve and an exposure drop, plus sensor noise, so
    deep shadows crush to near black as in real low-light shots. A cast
    shadow and a blown highlight each span the frame's width, so the
    None and Up filters find the rows they win on in real photos.
    """
    albedo = np.empty((h, w, 3))
    albedo[:] = rng.uniform(0.3, 0.8, 3)
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(int(rng.integers(10, 18))):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        ry, rx = rng.uniform(0.05, 0.3) * h, rng.uniform(0.05, 0.3) * w
        if rng.random() < 0.5:
            mask = (np.abs(yy - cy) < ry) & (np.abs(xx - cx) < rx)
        else:
            mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 < 1
        color = rng.uniform(0.05, 1.0, 3)
        kind = rng.integers(0, 3)
        if kind == 1:  # stripes
            theta = rng.uniform(0, np.pi)
            period = rng.uniform(3, 16)
            phase = (np.cos(theta) * xx + np.sin(theta) * yy) * 2 * np.pi / period
            texture = 0.75 + 0.25 * np.sin(phase)
        elif kind == 2:  # grain
            texture = 0.8 + 0.2 * rng.random((h, w))
        else:
            texture = np.ones((h, w))
        albedo[mask] = color * texture[mask][:, None]
    light = 0.15 + 0.85 * _smooth_field(rng, h, w, 3)
    # a cast shadow across the top or bottom of the frame
    band = int(rng.uniform(0.08, 0.16) * h)
    edge = band + 3 * np.sin(xx[0] * 2 * np.pi / w * rng.uniform(0.5, 2))
    shadow = yy < edge if rng.random() < 0.5 else yy >= h - edge
    light[shadow] *= 0.03
    # and a clipped highlight (sky, window) across the opposite edge
    glare = yy >= h - band // 2 if shadow[0, 0] else yy < band // 2
    light[glare] = 4.0
    target = np.clip(albedo * light[:, :, None]
                     + rng.normal(0, 0.01, (h, w, 3)), 0, 1)
    gamma = rng.uniform(2.0, 3.0)
    exposure = rng.uniform(0.2, 0.4)
    signal = exposure * target ** gamma
    noisy = signal + rng.normal(0, 1, (h, w, 3)) * np.sqrt(0.0004 * signal + 1e-5)
    # black-level subtraction clips the noise floor of deep shadows to 0
    dark = np.clip(noisy - 2 / 255, 0, 1)
    to_u8 = lambda a: np.floor(a * 255 + 0.5).astype(np.uint8)
    return to_u8(dark), to_u8(target)


# ---------------------------------------------------------------------------
# libpng-style adaptive-filter PNG writer
# ---------------------------------------------------------------------------

def _filter_candidates(rows: np.ndarray, bpp: int) -> np.ndarray:
    """All five filtered versions of every scanline, shape (5, H, stride)."""
    x = rows.astype(np.int16)
    a = np.zeros_like(x)
    a[:, bpp:] = x[:, :-bpp]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, bpp:] = x[:-1, :-bpp]
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return np.stack([x, x - a, x - b, x - (a + b) // 2, x - paeth]) % 256


def encode_png_adaptive(pixels: np.ndarray) -> tuple[bytes, np.ndarray]:
    """8-bit RGB PNG whose filter per row minimises the sum of absolute
    signed residuals, libpng's default heuristic for truecolor images.

    Returns the file bytes and the chosen filter type of every row.
    """
    h, w, _ = pixels.shape
    cand = _filter_candidates(pixels.reshape(h, w * 3), 3)
    cost = np.where(cand < 128, cand, 256 - cand).sum(axis=2)
    choice = cost.argmin(axis=0)
    chosen = cand[choice, np.arange(h)].astype(np.uint8)
    raw = np.concatenate([choice.astype(np.uint8)[:, None], chosen], axis=1).tobytes()

    def chunk(ctype: bytes, body: bytes) -> bytes:
        return (struct.pack(">I", len(body)) + ctype + body
                + struct.pack(">I", zlib.crc32(ctype + body)))

    data = (PNG_SIGNATURE
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(raw, 6))
            + chunk(b"IEND", b""))
    return data, choice


def _check_decodes(path: Path, expected: np.ndarray):
    decoded = load_image(path).to_u8()
    if not np.array_equal(decoded, expected):
        raise RuntimeError(f"{path} does not decode bit-exactly through cenet.imageio")


def write_train_set(root: Path, seed: int, pairs: int, hw: tuple[int, int]) -> dict:
    """Training pairs saved with ``cenet.imageio.save_image`` (filter None)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    sizes = []
    for d in ("input", "target"):
        (root / d).mkdir(parents=True, exist_ok=True)
    for i in range(pairs):
        for d, arr in zip(("input", "target"), photo_pair(rng, *hw)):
            path = root / d / f"{i:04d}.png"
            save_image(Image.from_u8(arr), path)
            _check_decodes(path, arr)
            sizes.append(path.stat().st_size)
    return {"pairs": pairs, "height": hw[0], "width": hw[1], "file_bytes": sum(sizes)}


def write_eval_set(root: Path, seed: int, pairs: int, hw: tuple[int, int]) -> dict:
    """Evaluation pairs saved with the adaptive-filter writer.

    Raises when a file does not round-trip or when a filter type never
    occurs, because then the decode paths the set exists for go untested.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    rows = np.zeros(5, dtype=np.int64)
    sizes = []
    for d in ("input", "target"):
        (root / d).mkdir(parents=True, exist_ok=True)
    for i in range(pairs):
        for d, arr in zip(("input", "target"), photo_pair(rng, *hw)):
            data, choice = encode_png_adaptive(arr)
            path = root / d / f"{i:04d}.png"
            path.write_bytes(data)
            _check_decodes(path, arr)
            rows += np.bincount(choice, minlength=5)
            sizes.append(len(data))
    counts = dict(zip(FILTER_NAMES, rows.tolist()))
    missing = [name for name, n in counts.items() if n == 0]
    if missing:
        raise RuntimeError(f"eval set never uses PNG filter(s) {missing}")
    return {"pairs": pairs, "height": hw[0], "width": hw[1],
            "filter_rows": counts, "file_bytes": sizes}


def write_eval_model(path: Path, config, seed: int) -> dict:
    """Checkpoint plus ``.cfg`` sidecar for an untrained-but-active network.

    Every weight is seeded; the attention output projection, zero at
    init, gets non-zero values so the global-context path changes the
    output like a trained model's would.
    """
    network = EnhancementNetwork(config.network, seed=config.seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    tensors = {}
    for name, param in network.named_parameters().items():
        data = param.data
        if name.startswith("mid.attn.out"):
            data = rng.normal(0, 0.05, data.shape).astype(np.float32)
        tensors[name] = data
    checkpoint.save(checkpoint.Checkpoint(0, tensors), path)
    Path(f"{path}.cfg").write_text(format_config(config))
    return {"checkpoint_bytes": path.stat().st_size}
