"""Minimal lossless image codecs: 8-bit RGB PNG and binary PPM (P6).

Decoded images live in memory as (H, W, 3) float32 arrays in [0, 1]
(value = byte / 255). Export clamps to [0, 1] and rounds half-up back to
bytes, so decode(encode(img)) is bit-exact. PNG support covers non-
interlaced 8-bit RGB and RGBA (alpha is dropped with a warning).
"""

import logging
import struct
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class ImageParseError(ValueError):
    """Malformed or truncated image data; the message carries a byte offset."""


class UnsupportedImageError(ValueError):
    """Structurally valid image in a format variant this codec does not handle."""


@dataclass
class Image:
    """RGB raster with float pixels in [0, 1], shape (H, W, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError(f"image pixels must be (H, W, 3), got {self.pixels.shape}")
        self.pixels = np.ascontiguousarray(self.pixels, dtype=np.float32)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @classmethod
    def from_u8(cls, arr: np.ndarray) -> "Image":
        return cls(arr.astype(np.float32) / 255.0)

    def to_u8(self) -> np.ndarray:
        """Clamp to [0, 1] and round half-up to bytes."""
        clamped = np.clip(self.pixels, 0.0, 1.0)
        return np.floor(clamped * 255.0 + 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# PNG
# ---------------------------------------------------------------------------

def _defilter_rows(filtered: np.ndarray, ftypes: np.ndarray) -> np.ndarray:
    """Undo None/Sub/Up filters one row at a time; uint8 arithmetic wraps mod 256."""
    out = np.empty_like(filtered)
    prev = np.zeros_like(filtered[0])
    for y, ftype in enumerate(ftypes):
        if ftype == 0:
            out[y] = filtered[y]
        elif ftype == 1:  # Sub: prefix sum along each channel lane
            np.cumsum(filtered[y], axis=0, dtype=np.uint8, out=out[y])
        else:  # Up
            np.add(filtered[y], prev, out=out[y])
        prev = out[y]
    return out


def _predictor_table() -> np.ndarray:
    """(4, 511, 511) uint8 table of (predictor - c) mod 256 for Sub, Up,
    Average and Paeth, indexed by (filter - 1, b - c + 255, a - c + 255).

    Each of those predictors minus the upper-left byte c is a function of
    b - c and a - c alone: Sub gives a - c, Up b - c, Average
    (a - c + b - c) >> 1, and Paeth one of a - c, b - c or 0 by comparing
    |b - c|, |a - c| and |a - c + b - c|.
    """
    d = np.arange(-255, 256, dtype=np.int16)
    b_c, a_c = d[:, None], d[None, :]
    pa, pb, pc = np.abs(b_c), np.abs(a_c), np.abs(a_c + b_c)
    table = np.empty((4, 511, 511), dtype=np.uint8)
    table[0] = a_c  # assignment wraps negative values mod 256
    table[1] = b_c
    table[2] = (a_c + b_c) >> 1
    table[3] = np.where(pb <= pc, b_c, 0)
    np.copyto(table[3], table[0], where=(pa <= pb) & (pa <= pc))
    return table


def _skewed(grid: np.ndarray, height: int, width: int, step: int) -> np.ndarray:
    """The (H+1, W+1, bpp) padded-image view of a diagonal-major grid.

    Padded pixel (Y, X) sits at cell (Y + X) * (step + 1) + W - X, which is
    also Y * (step + 1) + X * step + W: one anti-diagonal occupies a run of
    consecutive cells in order of Y. Any step >= min(H + 1, W) keeps the
    cells distinct; the grid needs (H + W + 1) * (step + 1) of them.
    """
    row, byte = grid.strides
    return np.lib.stride_tricks.as_strided(
        grid[width:], (height + 1, width + 1, grid.shape[1]),
        ((step + 1) * row, step * row, byte))


def _defilter_wavefront(filtered: np.ndarray, ftypes: np.ndarray) -> np.ndarray:
    """Undo any mix of the five filters along anti-diagonals.

    Pixel (y, x) depends only on its left a = (y, x-1), upper b = (y-1, x)
    and upper-left c = (y-1, x-1) neighbours, which lie on anti-diagonals
    y+x-1 and y+x-2, so each anti-diagonal is reconstructed in one vector
    step. The image sits zero-bordered in a diagonal-major grid (`_skewed`),
    so a, b, c and the output of one anti-diagonal are contiguous runs of
    cells. A None row is first rewritten as the Sub row of its byte
    differences, which reconstructs to the same bytes. Then every row's
    predictor is ``c + table[filter - 1, b - c, a - c]`` (`_predictor_table`,
    1.0 MB, built per call), so one anti-diagonal costs one ``np.take`` and
    seven ufunc calls into preallocated buffers, whatever its filters.
    """
    height, width, bpp = filtered.shape
    step = min(height + 1, width)
    recon = np.zeros(((height + width + 1) * (step + 1), bpp), dtype=np.uint8)
    filt = np.zeros_like(recon)
    image = _skewed(filt, height, width, step)
    image[1:, 1:] = filtered
    none = np.flatnonzero(ftypes == 0)
    image[none + 1, 2:] = filtered[none, 1:] - filtered[none, :-1]
    table = _predictor_table()
    # Flat table offset of each row's filter plane and of b - c = a - c = 0.
    base = (np.maximum(ftypes, 1).astype(np.intp) - 1) * 511 * 511 + 255 * 512
    base = np.repeat(base, bpp).reshape(height, bpp)
    size = min(height, width)
    index = np.empty((size, bpp), dtype=np.intp)
    scaled_c = np.empty_like(index)
    pred = np.empty((size, bpp), dtype=np.uint8)
    for d in range(height + width - 1):
        y0, y1 = max(0, d - width + 1), min(height - 1, d) + 1
        n = y1 - y0
        at = (y0 + 1) * (step + 1) + (d - y0 + 1) * step + width  # pixel (y0, d - y0)
        a = recon[at - step:at - step + n]
        b = recon[at - step - 1:at - step - 1 + n]
        c = recon[at - 2 * step - 1:at - 2 * step - 1 + n]
        idx, c512, p = index[:n], scaled_c[:n], pred[:n]
        np.multiply(b, 511, out=idx, dtype=np.intp)  # 511 (b - c) + (a - c)
        np.add(idx, a, out=idx)
        np.multiply(c, 512, out=c512, dtype=np.intp)
        np.subtract(idx, c512, out=idx)
        np.add(idx, base[y0:y1], out=idx)
        np.take(table, idx, out=p, mode="clip")  # in range; "raise" would buffer out
        np.add(p, filt[at:at + n], out=p)
        np.add(p, c, out=recon[at:at + n])
    return _skewed(recon, height, width, step)[1:, 1:].copy()


def _defilter(raw: bytes, width: int, height: int, bpp: int) -> np.ndarray:
    """Reconstruct (H, W, bpp) bytes from a PNG scanline stream (W3C PNG §9).

    Streams whose rows use only None, Sub or Up are undone row by row; any
    Average or Paeth row sends the whole image through the wavefront.
    """
    stride = width * bpp
    expected = (1 + stride) * height
    if len(raw) != expected:
        raise ImageParseError(
            f"decompressed pixel stream is {len(raw)} bytes, expected {expected}")
    raw_arr = np.frombuffer(raw, dtype=np.uint8).reshape(height, 1 + stride)
    ftypes = raw_arr[:, 0]
    bad = np.flatnonzero(ftypes > 4)
    if bad.size:
        y = int(bad[0])
        raise ImageParseError(f"unknown scanline filter type {ftypes[y]} on row {y}")
    filtered = raw_arr[:, 1:].reshape(height, width, bpp)
    if (ftypes >= 3).any():
        return _defilter_wavefront(filtered, ftypes)
    return _defilter_rows(filtered, ftypes)


def decode_png(data: bytes) -> Image:
    if len(data) < 8 or data[:8] != PNG_SIGNATURE:
        raise ImageParseError("missing PNG signature at byte offset 0")
    pos = 8
    header = None
    idat = bytearray()
    seen_end = False
    while pos < len(data):
        if pos + 8 > len(data):
            raise ImageParseError(f"truncated chunk header at byte offset {pos}")
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        ctype = data[pos + 4:pos + 8]
        body_at = pos + 8
        if body_at + length + 4 > len(data):
            raise ImageParseError(f"truncated {ctype!r} chunk at byte offset {pos}")
        body = data[body_at:body_at + length]
        (crc,) = struct.unpack(">I", data[body_at + length:body_at + length + 4])
        if crc != zlib.crc32(ctype + body):
            raise ImageParseError(f"CRC mismatch in {ctype.decode('latin1')} chunk "
                                  f"at byte offset {pos}")
        if ctype == b"IHDR":
            if header is not None:
                raise ImageParseError(f"repeated IHDR chunk at byte offset {pos}")
            if length != 13:
                raise ImageParseError(f"IHDR length {length} at byte offset {pos}")
            width, height, depth, color, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", body)
            if depth != 8 or color not in (2, 6):
                raise UnsupportedImageError(
                    f"only 8-bit RGB/RGBA PNG is supported (depth {depth}, color type {color})")
            if interlace != 0:
                raise UnsupportedImageError("interlaced PNG is not supported")
            if comp != 0 or filt != 0:
                raise ImageParseError(
                    f"invalid compression/filter method at byte offset {pos}")
            if width == 0 or height == 0:
                raise ImageParseError(f"zero image extent at byte offset {pos}")
            if max(width, height) > 2 ** 31 - 1:  # PNG spec 11.2.2
                raise ImageParseError(
                    f"image extent {width}x{height} exceeds 2**31 - 1 at byte offset {pos}")
            header = (width, height, color)
        elif ctype == b"IDAT":
            if header is None:
                raise ImageParseError(f"IDAT before IHDR at byte offset {pos}")
            idat.extend(body)
        elif ctype == b"IEND":
            seen_end = True
            pos = body_at + length + 4
            break
        pos = body_at + length + 4
    if header is None:
        raise ImageParseError("no IHDR chunk found")
    if not seen_end:
        raise ImageParseError(f"missing IEND chunk at byte offset {pos}")
    if not idat:
        raise ImageParseError("no IDAT chunks found")
    width, height, color = header
    bpp = 3 if color == 2 else 4
    expected = (1 + width * bpp) * height
    if expected >= sys.maxsize:
        raise ImageParseError(f"declared pixel stream of {expected} bytes is too long to inflate")
    # Inflate at most one byte past the expected length: a stream that would
    # inflate far beyond it is rejected without ever being held in memory.
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, expected + 1)
    except zlib.error as exc:
        raise ImageParseError(f"corrupt compressed pixel data: {exc}") from exc
    if not inflater.eof:
        if len(raw) > expected:
            raise ImageParseError(
                f"decompressed pixel stream is longer than the expected {expected} bytes")
        raise ImageParseError("corrupt compressed pixel data: incomplete or truncated stream")
    arr = _defilter(raw, width, height, bpp)
    if bpp == 4:
        log.warning("dropping alpha channel from RGBA PNG")
        arr = arr[:, :, :3]
    return Image.from_u8(arr)


def _chunk(ctype: bytes, body: bytes) -> bytes:
    return (struct.pack(">I", len(body)) + ctype + body
            + struct.pack(">I", zlib.crc32(ctype + body)))


def encode_png(image: Image) -> bytes:
    arr = image.to_u8()
    h, w = arr.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    scanlines = np.pad(arr.reshape(h, w * 3), ((0, 0), (1, 0)))  # filter None per row
    # zlib level 1: several times faster than 6 on photo-like noise, where
    # the higher levels barely shrink the stream (or grow it)
    return (PNG_SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(scanlines.tobytes(), 1))
            + _chunk(b"IEND", b""))


# ---------------------------------------------------------------------------
# PPM (P6)
# ---------------------------------------------------------------------------

def _ppm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(data):
        ch = data[pos:pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    if pos >= len(data):
        raise ImageParseError(f"truncated PPM header at byte offset {pos}")
    start = pos
    while pos < len(data) and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def decode_ppm(data: bytes) -> Image:
    magic, pos = _ppm_token(data, 0)
    if magic != b"P6":
        if magic in (b"P1", b"P2", b"P3", b"P4", b"P5"):
            raise UnsupportedImageError(f"only binary PPM (P6) is supported, got {magic.decode('latin1')}")
        raise ImageParseError("missing P6 magic at byte offset 0")
    fields, starts = [], []
    for field_name in ("width", "height", "maxval"):
        token, pos = _ppm_token(data, pos)
        starts.append(pos - len(token))
        try:  # ASCII decimal digits, after a minus sign that names a negative extent
            if not token.removeprefix(b"-").isdigit():
                raise ValueError(token)
            fields.append(int(token))
        except ValueError:
            raise ImageParseError(f"invalid PPM {field_name} at byte offset {starts[-1]}") from None
    width, height, maxval = fields
    for extent, start in zip((width, height), starts):
        if extent <= 0:
            raise ImageParseError(f"non-positive PPM extents at byte offset {start}")
    if maxval != 255:
        raise UnsupportedImageError(f"only maxval 255 PPM is supported, got {maxval}")
    if pos == len(data):
        raise ImageParseError(f"truncated PPM header at byte offset {pos}")
    pos += 1  # single whitespace byte after maxval
    need = 3 * width * height
    if len(data) - pos < need:
        raise ImageParseError(
            f"truncated PPM pixel data at byte offset {len(data)} "
            f"(need {need} bytes from offset {pos})")
    arr = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    return Image.from_u8(arr.reshape(height, width, 3))


def encode_ppm(image: Image) -> bytes:
    arr = image.to_u8()
    h, w = arr.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode("ascii") + arr.tobytes()


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def decode_image(data: bytes) -> Image:
    if data[:8] == PNG_SIGNATURE:
        return decode_png(data)
    if data[:2] == b"P6":
        return decode_ppm(data)
    raise UnsupportedImageError("unrecognized image format (expected PNG or P6 PPM)")


_ENCODERS = {"png": encode_png, "ppm": encode_ppm}


def encoder_for(fmt: str):
    """The encoder for a format name or file suffix such as ``".png"``."""
    fmt = fmt.lower().lstrip(".")
    if fmt not in _ENCODERS:
        raise UnsupportedImageError(f"unknown image format {fmt!r}")
    return _ENCODERS[fmt]


def encode_image(image: Image, fmt: str) -> bytes:
    return encoder_for(fmt)(image)


def load_image(path) -> Image:
    return decode_image(Path(path).read_bytes())


def save_image(image: Image, path):
    path = Path(path)
    path.write_bytes(encode_image(image, path.suffix))
