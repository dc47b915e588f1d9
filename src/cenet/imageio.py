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


# Per-filter predictor (k_a * a + k_b * b) >> shift, with a the left and b the
# upper neighbour; Paeth rows take the Paeth predictor instead.
_K_A = np.array([0, 1, 0, 1, 0], dtype=np.int16)
_K_B = np.array([0, 0, 1, 1, 0], dtype=np.int16)
_SHIFT = np.array([0, 0, 0, 1, 0], dtype=np.int16)


def _defilter_wavefront(filtered: np.ndarray, ftypes: np.ndarray) -> np.ndarray:
    """Undo any mix of the five filters along anti-diagonals.

    Pixel (y, x) depends only on its left (y, x-1), upper (y-1, x) and
    upper-left (y-1, x-1) neighbours, which lie on anti-diagonals y+x-1 and
    y+x-2, so each anti-diagonal is reconstructed in one vector step. The
    image sits in a zero-bordered (H+1, W+1) grid, where consecutive pixels
    of an anti-diagonal are W pixels apart, so every operand is a strided
    view of the flat grid.
    """
    height, width, bpp = filtered.shape
    grid_w = width + 1
    recon = np.zeros(((height + 1) * grid_w, bpp), dtype=np.int16)
    filt = np.zeros_like(recon)
    filt.reshape(height + 1, grid_w, bpp)[1:, 1:] = filtered
    rows = ftypes[:, None]
    k_a, k_b, shift = _K_A[rows], _K_B[rows], _SHIFT[rows]
    is_paeth = rows == 4
    for d in range(height + width - 1):
        y0, y1 = max(0, d - width + 1), min(height - 1, d) + 1
        start = (y0 + 1) * grid_w + d - y0 + 1
        stop = start + (y1 - y0 - 1) * width + 1
        a = recon[start - 1:stop - 1:width]
        b = recon[start - grid_w:stop - grid_w:width]
        c = recon[start - grid_w - 1:stop - grid_w - 1:width]
        b_c, a_c = b - c, a - c
        pa, pb, pc = np.abs(b_c), np.abs(a_c), np.abs(b_c + a_c)
        paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
        linear = (k_a[y0:y1] * a + k_b[y0:y1] * b) >> shift[y0:y1]
        pred = np.where(is_paeth[y0:y1], paeth, linear)
        recon[start:stop:width] = (filt[start:stop:width] + pred) & 0xFF
    return recon.reshape(height + 1, grid_w, bpp)[1:, 1:].astype(np.uint8)


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
    return (PNG_SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(scanlines.tobytes(), 6))
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
    fields = []
    for field_name in ("width", "height", "maxval"):
        token, pos = _ppm_token(data, pos)
        try:
            value = int(token)
        except ValueError:
            raise ImageParseError(
                f"invalid PPM {field_name} at byte offset {pos - len(token)}") from None
        fields.append(value)
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ImageParseError(f"non-positive PPM extents at byte offset {pos}")
    if maxval != 255:
        raise UnsupportedImageError(f"only maxval 255 PPM is supported, got {maxval}")
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
