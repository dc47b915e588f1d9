"""Codec round-trips, filter handling, and malformed-input rejection."""

import itertools
import re
import struct
import tracemalloc
import zlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cenet.imageio import (
    PNG_SIGNATURE,
    Image,
    ImageParseError,
    UnsupportedImageError,
    _defilter,
    _defilter_wavefront,
    _predictor_table,
    decode_image,
    decode_png,
    decode_ppm,
    encode_image,
    encode_png,
    encode_ppm,
)
from reference import png_defilter_naive


def rand_u8(h, w, seed, channels=3):
    return np.random.default_rng(seed).integers(0, 256, (h, w, channels), dtype=np.uint8)


def png_chunk(ctype, body):
    return (struct.pack(">I", len(body)) + ctype + body
            + struct.pack(">I", zlib.crc32(ctype + body)))


def png_with_extent(extent):
    """An RGB PNG whose header declares ``extent`` x ``extent`` over a tiny stream."""
    ihdr = struct.pack(">IIBBBBB", extent, extent, 8, 2, 0, 0, 0)
    return (PNG_SIGNATURE + png_chunk(b"IHDR", ihdr)
            + png_chunk(b"IDAT", zlib.compress(bytes(16))) + png_chunk(b"IEND", b""))


def filter_scanlines(arr, filters=None):
    """The PNG scanline stream of (H, W, bpp) bytes, row y filtered with
    ``filters[y % len(filters)]`` (None everywhere by default)."""
    h, w, bpp = arr.shape
    rows = bytearray()
    prev = np.zeros(w * bpp, dtype=np.int32)
    for y in range(h):
        ftype = 0 if filters is None else filters[y % len(filters)]
        line = arr[y].reshape(-1).astype(np.int32)
        if ftype == 0:
            enc = line
        elif ftype == 1:
            left = np.concatenate([np.zeros(bpp, np.int32), line[:-bpp]])
            enc = (line - left) % 256
        elif ftype == 2:
            enc = (line - prev) % 256
        elif ftype == 3:
            left = np.concatenate([np.zeros(bpp, np.int32), line[:-bpp]])
            enc = (line - (left + prev) // 2) % 256
        elif ftype == 4:
            enc = np.zeros_like(line)
            for x in range(w * bpp):
                a = int(line[x - bpp]) if x >= bpp else 0
                b = int(prev[x])
                c = int(prev[x - bpp]) if x >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                enc[x] = (line[x] - pred) % 256
        rows.append(ftype)
        rows.extend((enc % 256).astype(np.uint8).tobytes())
        prev = line
    return bytes(rows)


def build_png(arr, color_type=2, bit_depth=8, interlace=0, filters=None,
              level=zlib.Z_DEFAULT_COMPRESSION):
    """Hand-rolled PNG writer with controllable filter types per row and
    zlib ``level``."""
    h, w, _ = arr.shape
    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, interlace)
    return (PNG_SIGNATURE + png_chunk(b"IHDR", ihdr)
            + png_chunk(b"IDAT", zlib.compress(filter_scanlines(arr, filters), level))
            + png_chunk(b"IEND", b""))


def png_from_stream(raw, w, h, color_type=2):
    """Wrap a raw (already filtered) RGB or RGBA scanline stream in a minimal PNG."""
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (PNG_SIGNATURE + png_chunk(b"IHDR", ihdr)
            + png_chunk(b"IDAT", zlib.compress(raw))
            + png_chunk(b"IEND", b""))


class TestPpm:
    def test_spec_bytes(self):
        data = b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0])
        img = decode_ppm(data)
        npt.assert_allclose(img.pixels[0, 0], [1.0, 0.0, 0.0])
        npt.assert_allclose(img.pixels[0, 1], [0.0, 1.0, 0.0])

    def test_comments_and_whitespace(self):
        data = b"P6 # binary pixmap\n# size next\n 2\t1 \n255\n" + bytes(6)
        img = decode_ppm(data)
        assert (img.width, img.height) == (2, 1)

    def test_round_trip(self):
        arr = rand_u8(7, 5, seed=0)
        img = Image.from_u8(arr)
        again = decode_ppm(encode_ppm(img))
        npt.assert_array_equal(again.to_u8(), arr)

    def test_truncated_data_reports_offset(self):
        data = b"P6\n4 4\n255\n" + bytes(10)
        with pytest.raises(ImageParseError, match="offset"):
            decode_ppm(data)

    def test_truncated_header(self):
        with pytest.raises(ImageParseError):
            decode_ppm(b"P6\n4")

    def test_bad_dimension_token(self):
        with pytest.raises(ImageParseError, match="width"):
            decode_ppm(b"P6\nxx 4\n255\n" + bytes(48))

    def test_wrong_maxval_unsupported(self):
        with pytest.raises(UnsupportedImageError):
            decode_ppm(b"P6\n2 2\n65535\n" + bytes(24))

    def test_ascii_variant_unsupported(self):
        with pytest.raises(UnsupportedImageError):
            decode_ppm(b"P3\n1 1\n255\n0 0 0\n")


class TestPng:
    def test_round_trip(self):
        arr = rand_u8(16, 16, seed=1)
        blob = encode_png(Image.from_u8(arr))
        npt.assert_array_equal(decode_png(blob).to_u8(), arr)

    @pytest.mark.parametrize("filters", [[0], [1], [2], [3], [4], [0, 1, 2, 3, 4]])
    def test_all_scanline_filters(self, filters):
        arr = rand_u8(10, 6, seed=2)
        img = decode_png(build_png(arr, filters=filters))
        npt.assert_array_equal(img.to_u8(), arr)

    @given(st.sampled_from([3, 4]), st.integers(1, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_defilter_matches_scalar_oracle(self, bpp, width, data):
        ftypes = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=20))
        seed = data.draw(st.integers(0, 2**31 - 1))
        body = rand_u8(len(ftypes), width * bpp, seed, channels=1)[:, :, 0]
        raw = np.concatenate([np.array(ftypes, np.uint8)[:, None], body], axis=1).tobytes()
        npt.assert_array_equal(_defilter(raw, width, len(ftypes), bpp),
                               png_defilter_naive(raw, width, len(ftypes), bpp))

    @pytest.mark.parametrize("low, high", [(0x00, 0xFF), (0x01, 0xFE)])
    def test_predictor_table_corners_match_the_scalar_predictors(self, low, high):
        table = _predictor_table()
        for a, b, c in itertools.product((low, high), repeat=3):
            for ftype in range(1, 5):
                # a 2x2 grey image whose last filtered byte is 0 decodes to
                # the predictor from its neighbours a, b and c
                pixels = np.array([[c, b], [a, 0]], np.uint8)[:, :, None]
                raw = filter_scanlines(pixels, [0, ftype])[:-1] + b"\0"
                expected = png_defilter_naive(raw, 2, 2, 1)[1, 1, 0]
                assert (c + int(table[ftype - 1, b - c + 255, a - c + 255])) % 256 == expected

    @pytest.mark.parametrize("bpp", [3, 4])
    @pytest.mark.parametrize("ftype", range(5))
    @pytest.mark.parametrize("low, high", [(0x00, 0xFF), (0x01, 0xFE)])
    def test_defilter_at_predictor_table_corners(self, bpp, ftype, low, high):
        # Alternating extremes put b - c and a - c at +-255 or 0 in every
        # combination a picture can reach: a checkerboard, row and column
        # stripes, one per lane.
        h, w = 7, 9
        yy, xx = np.mgrid[0:h, 0:w]
        odd = np.stack([(yy + xx) % 2, yy % 2, xx % 2, (yy + xx + 1) % 2][:bpp], axis=2)
        image = np.where(odd == 1, high, low).astype(np.uint8)
        streams = [filter_scanlines(image, [ftype])]
        # and the filtered bytes themselves alternating
        body = np.where((np.arange(w * bpp) + np.arange(h)[:, None]) % 2, high, low)
        streams.append(np.concatenate([np.full((h, 1), ftype), body], axis=1)
                       .astype(np.uint8).tobytes())
        for raw in streams:
            expected = png_defilter_naive(raw, w, h, bpp)
            rows = np.frombuffer(raw, np.uint8).reshape(h, 1 + w * bpp)
            npt.assert_array_equal(
                _defilter_wavefront(rows[:, 1:].reshape(h, w, bpp), rows[:, 0]), expected)
            npt.assert_array_equal(_defilter(raw, w, h, bpp), expected)
        npt.assert_array_equal(_defilter(streams[0], w, h, bpp), image)

    @pytest.mark.parametrize("bpp", [3, 4])
    def test_defilter_mixed_filters_on_extreme_bytes(self, bpp):
        h, w = 64, 96
        rng = np.random.default_rng(bpp)
        image = rng.choice(np.array([0x00, 0x01, 0xFE, 0xFF], np.uint8), (h, w, bpp))
        raw = filter_scanlines(image, rng.integers(0, 5, h).tolist())
        npt.assert_array_equal(_defilter(raw, w, h, bpp), png_defilter_naive(raw, w, h, bpp))
        npt.assert_array_equal(_defilter(raw, w, h, bpp), image)

    @pytest.mark.parametrize("bad_row", [0, 3, 5])
    def test_unknown_filter_type_names_first_bad_row(self, bad_row):
        w, h = 4, 8
        rows = np.zeros((h, 1 + 3 * w), dtype=np.uint8)
        rows[:, 0] = 4  # Paeth rows, so a bad byte would reach the wavefront
        rows[bad_row, 0] = 5
        rows[h - 1, 0] = 7
        with pytest.raises(ImageParseError, match=f"filter type 5 on row {bad_row}$"):
            decode_png(png_from_stream(rows.tobytes(), w, h))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_stream_length_rejected(self, delta):
        w, h = 4, 3
        raw = bytes((1 + 3 * w) * h + delta)
        with pytest.raises(ImageParseError, match=f"is {len(raw)} bytes, expected {len(raw) - delta}"):
            decode_png(png_from_stream(raw, w, h))

    @pytest.mark.parametrize("h, w", [(1, 1), (7, 5), (320, 480)])
    def test_encoder_matches_reference_writer(self, h, w):
        arr = rand_u8(h, w, seed=11)
        assert encode_png(Image.from_u8(arr)) == build_png(arr, level=1)

    def test_rgba_drops_alpha_with_warning(self, caplog):
        arr = rand_u8(5, 4, seed=3, channels=4)
        with caplog.at_level("WARNING"):
            img = decode_png(build_png(arr, color_type=6))
        assert "alpha" in caplog.text
        npt.assert_array_equal(img.to_u8(), arr[:, :, :3])

    def test_rgba_with_all_filters(self):
        arr = rand_u8(9, 7, seed=10, channels=4)
        img = decode_png(build_png(arr, color_type=6, filters=[0, 1, 2, 3, 4]))
        npt.assert_array_equal(img.to_u8(), arr[:, :, :3])

    def test_bad_signature(self):
        with pytest.raises(ImageParseError, match="offset 0"):
            decode_png(b"NOPE" + bytes(100))

    def test_crc_mismatch_reports_chunk(self):
        blob = bytearray(encode_png(Image.from_u8(rand_u8(4, 4, seed=4))))
        blob[40] ^= 0xFF  # corrupt a byte inside IDAT
        with pytest.raises(ImageParseError, match="CRC"):
            decode_png(bytes(blob))

    def test_truncation_reports_offset(self):
        blob = encode_png(Image.from_u8(rand_u8(4, 4, seed=5)))
        with pytest.raises(ImageParseError, match="offset"):
            decode_png(blob[:30])

    def test_16_bit_unsupported(self):
        arr = rand_u8(3, 3, seed=6)
        with pytest.raises(UnsupportedImageError):
            decode_png(build_png(arr, bit_depth=16))

    def test_interlaced_unsupported(self):
        arr = rand_u8(3, 3, seed=7)
        with pytest.raises(UnsupportedImageError):
            decode_png(build_png(arr, interlace=1))

    def test_missing_iend(self):
        arr = rand_u8(3, 3, seed=8)
        blob = build_png(arr)
        with pytest.raises(ImageParseError):
            decode_png(blob[:-12])

    def test_repeated_ihdr_rejected(self):
        # a 5x4 image and a second header declaring 1x16: both need a
        # 64-byte stream, so without the check the second would win
        blob = png_from_stream(bytes(4 * (1 + 5 * 3)), 5, 4)
        second = png_chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 16, 8, 2, 0, 0, 0))
        with pytest.raises(ImageParseError, match="repeated IHDR chunk at byte offset 33"):
            decode_png(blob[:33] + second + blob[33:])

    def test_decompression_bomb_rejected_without_inflating(self):
        # a 2x2 image (14 stream bytes) whose IDAT inflates to 64 MiB
        deflate = zlib.compressobj()
        block = bytes(2 ** 20)
        idat = b"".join(deflate.compress(block) for _ in range(64)) + deflate.flush()
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
        blob = (PNG_SIGNATURE + png_chunk(b"IHDR", ihdr) + png_chunk(b"IDAT", idat)
                + png_chunk(b"IEND", b""))
        tracemalloc.start()
        try:
            with pytest.raises(ImageParseError, match="longer than the expected 14 bytes"):
                decode_png(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("extent,message", [
        (0xFFFFFFFF, r"extent 4294967295x4294967295 exceeds 2\*\*31 - 1"),
        # within the spec's bound, but its stream is too long to request from zlib
        (2 ** 31 - 1, "pixel stream of 13835058044544745474 bytes is too long"),
    ])
    def test_oversized_extent_rejected(self, extent, message):
        with pytest.raises(ImageParseError, match=message):
            decode_png(png_with_extent(extent))

    def test_truncated_zlib_stream(self):
        blob = encode_png(Image.from_u8(rand_u8(8, 8, seed=9)))
        (length,) = struct.unpack(">I", blob[33:37])
        idat = blob[41:41 + length]
        ihdr = struct.pack(">IIBBBBB", 8, 8, 8, 2, 0, 0, 0)
        cut = (PNG_SIGNATURE + png_chunk(b"IHDR", ihdr) + png_chunk(b"IDAT", idat[:-10])
               + png_chunk(b"IEND", b""))
        with pytest.raises(ImageParseError, match="truncated stream"):
            decode_png(cut)

    def test_corrupt_zlib_stream(self):
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
        blob = (PNG_SIGNATURE + png_chunk(b"IHDR", ihdr)
                + png_chunk(b"IDAT", b"not deflate")
                + png_chunk(b"IEND", b""))
        with pytest.raises(ImageParseError, match="compressed"):
            decode_png(blob)


def ihdr(width=2, height=2, compression=0, filter_method=0):
    return png_chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2,
                                          compression, filter_method, 0))


IDAT = png_chunk(b"IDAT", zlib.compress(bytes(14)))  # a 2x2 RGB stream
IEND = png_chunk(b"IEND", b"")


class TestMalformedInput:
    def test_the_parts_make_a_valid_png(self):
        assert decode_png(PNG_SIGNATURE + ihdr() + IDAT + IEND).to_u8().shape == (2, 2, 3)

    @pytest.mark.parametrize("blob,message", [
        (PNG_SIGNATURE + ihdr() + bytes(4), "truncated chunk header at byte offset 33"),
        (PNG_SIGNATURE + png_chunk(b"IHDR", bytes(14)), "IHDR length 14 at byte offset 8"),
        (PNG_SIGNATURE + ihdr(compression=1),
         "invalid compression/filter method at byte offset 8"),
        (PNG_SIGNATURE + ihdr(filter_method=1),
         "invalid compression/filter method at byte offset 8"),
        (PNG_SIGNATURE + ihdr(width=0), "zero image extent at byte offset 8"),
        (PNG_SIGNATURE + IDAT + ihdr() + IEND, "IDAT before IHDR at byte offset 8"),
        (PNG_SIGNATURE + IDAT + IEND, "IDAT before IHDR at byte offset 8"),
        (PNG_SIGNATURE + IEND, "no IHDR chunk found"),
        (PNG_SIGNATURE + ihdr() + IEND, "no IDAT chunks found"),
    ], ids=["chunk-header", "ihdr-length", "compression", "filter-method", "zero-extent",
            "idat-first", "idat-only", "no-ihdr", "no-idat"])
    def test_png_names_the_fault(self, blob, message):
        with pytest.raises(ImageParseError, match=f"^{message}$"):
            decode_png(blob)

    @pytest.mark.parametrize("blob,message", [
        (b"PX 1 1 255\n\0\0\0", "missing P6 magic at byte offset 0"),
        (b"P6 0 1 255\n", "non-positive PPM extents at byte offset 3"),
        (b"P6 1 -2 255\n", "non-positive PPM extents at byte offset 5"),
        (b"P6\n# c 1\n2 0 255\n", "non-positive PPM extents at byte offset 11"),
        (b"P6\n1 1\n255", "truncated PPM header at byte offset 10"),
        (b"P6\n1_0 1\n255\n" + bytes(30), "invalid PPM width at byte offset 3"),
        (b"P6\n+2 1\n255\n" + bytes(6), "invalid PPM width at byte offset 3"),
        (b"P6\n1 1\n2_55\n\0\0\0", "invalid PPM maxval at byte offset 7"),
        (b"P6 1 \xd9\xa1 255\n", "invalid PPM height at byte offset 5"),
        (b"P6 1 - 255\n", "invalid PPM height at byte offset 5"),
    ], ids=["magic", "zero-width", "negative-height", "after-comment", "ends-at-maxval",
            "underscore-width", "plus-width", "underscore-maxval", "non-ascii-digit", "lone-minus"])
    def test_ppm_names_the_fault(self, blob, message):
        with pytest.raises(ImageParseError, match=f"^{message}$"):
            decode_ppm(blob)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 4), (1, 2, 2, 3)])
    def test_image_must_be_h_w_3(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"must be (H, W, 3), got {shape}")):
            Image(np.zeros(shape, np.float32))


def with_fixed_crcs(blob: bytearray) -> bytes:
    """``blob`` with the CRC of each whole chunk recomputed, the chunks found
    by walking its (perhaps mutated) length fields from the signature on."""
    pos = len(PNG_SIGNATURE)
    while pos + 12 <= len(blob):
        end = pos + 8 + struct.unpack(">I", blob[pos:pos + 4])[0]
        if end + 4 > len(blob):
            break
        blob[end:end + 4] = struct.pack(">I", zlib.crc32(blob[pos + 4:end]))
        pos = end + 4
    return bytes(blob)


def mutated(blob: bytes, rng, trial: int, span=None) -> bytearray:
    """``blob`` with 1-3 bytes, drawn from ``span`` (all by default), XORed
    with a random nonzero byte, and in every fourth trial its tail cut off."""
    lo, hi = span or (0, len(blob))
    mutant = bytearray(blob)
    for pos in rng.integers(lo, hi, size=rng.integers(1, 4)):
        mutant[pos] ^= int(rng.integers(1, 256))
    if trial % 4 == 0:
        del mutant[rng.integers(len(mutant)):]
    return mutant


def image_error_escapes(decode, mutants) -> list:
    """The (trial, type, message) of each mutant whose decode raised anything
    but ``ImageParseError`` or ``UnsupportedImageError``."""
    escapes = []
    for trial, mutant in enumerate(mutants):
        try:
            decode(mutant)
        except (ImageParseError, UnsupportedImageError):
            pass
        except Exception as exc:  # any other type is the failure
            escapes.append((trial, type(exc).__name__, str(exc)[:80]))
    return escapes


class TestMutants:
    """Seeded mutation fuzz of the parsers: they may accept a mutant or name
    its fault, but no other exception may escape. 300 PNG and 300 PPM
    mutants take about 0.2 s."""

    def test_png_mutants_raise_only_image_errors(self):
        # 5x4 RGB and RGBA images whose rows use every filter type (the
        # wavefront) or only None, Sub and Up (the row path). Odd trials
        # mutate the file and fix up the CRCs, so the chunk parser past the
        # CRC check sees them; even ones mutate the inflated scanlines,
        # filter types included, and recompress them for the defilter.
        bases = [(rand_u8(5, 4, seed, channels=3 + (color == 6)), color, filters)
                 for seed, (color, filters) in enumerate(itertools.product(
                     (2, 6), ([0, 1, 2, 3, 4], [1, 2, 0])))]
        rng = np.random.default_rng(11)

        def mutants():
            for trial in range(300):
                arr, color, filters = bases[trial // 2 % len(bases)]
                if trial % 2:
                    blob = build_png(arr, color_type=color, filters=filters)
                    yield with_fixed_crcs(mutated(blob, rng, trial // 2))
                else:
                    raw = mutated(filter_scanlines(arr, filters), rng, trial // 2)
                    yield png_from_stream(bytes(raw), arr.shape[1], arr.shape[0], color)

        assert image_error_escapes(decode_png, mutants()) == []

    def test_ppm_mutants_raise_only_image_errors(self):
        # even trials mutate only the 11-byte header, odd ones anywhere
        blob = encode_ppm(Image.from_u8(rand_u8(5, 4, seed=0)))
        rng = np.random.default_rng(12)
        mutants = (mutated(blob, rng, trial, None if trial % 2 else (0, 11))
                   for trial in range(300))
        assert image_error_escapes(decode_ppm, mutants) == []


class TestConversions:
    def test_half_up_rounding(self):
        img = Image(np.full((1, 1, 3), 0.5, dtype=np.float32))
        npt.assert_array_equal(img.to_u8(), np.full((1, 1, 3), 128, dtype=np.uint8))

    def test_clamping_on_export(self):
        img = Image(np.array([[[-0.2, 0.4, 1.7]]], dtype=np.float32))
        npt.assert_array_equal(img.to_u8().ravel(), [0, 102, 255])

    def test_dispatch_by_magic(self):
        arr = rand_u8(4, 4, seed=9)
        assert decode_image(encode_image(Image.from_u8(arr), "png")).width == 4
        assert decode_image(encode_image(Image.from_u8(arr), "ppm")).width == 4
        with pytest.raises(UnsupportedImageError):
            decode_image(b"GIF89a...")

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lossless_round_trip_property(self, h, w, seed):
        arr = rand_u8(h, w, seed)
        img = Image.from_u8(arr)
        npt.assert_array_equal(decode_png(encode_png(img)).to_u8(), arr)
        npt.assert_array_equal(decode_ppm(encode_ppm(img)).to_u8(), arr)

    @pytest.mark.parametrize("color_type", [2, 6])
    @pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
    def test_decoded_pixels_survive_the_byte_cache(self, color_type, ftype):
        # dataset.SampleStream keeps each decoded pair as to_u8() and samples
        # it back with from_u8's arithmetic; that is exact only while every
        # decoded pixel is an 8-bit sample over 255. A 16-bit decode fails
        # here, and then the cache has to keep uint16 samples.
        # every byte value in each channel, in a scrambled order
        rgb = (np.arange(16 * 16 * 3) * 37 % 256).astype(np.uint8).reshape(16, 16, 3)
        assert all(len(np.unique(rgb[..., c])) == 256 for c in range(3))
        arr = rgb if color_type == 2 else np.dstack([rgb, rgb[..., :1]])
        decoded = [decode_png(build_png(arr, color_type=color_type, filters=[ftype]))]
        if color_type == 2 and ftype == 0:
            decoded.append(decode_ppm(encode_ppm(decoded[0])))
        for img in decoded:
            again = Image.from_u8(img.to_u8()).pixels
            assert again.tobytes() == img.pixels.tobytes()

    def test_no_decode_yields_samples_the_byte_cache_would_round(self):
        # 16-bit PNG is rejected today. Once it decodes (over 65535), to_u8
        # rounds its pixels, so this fails until the cache keeps uint16
        samples = (np.arange(16 * 16 * 3) * 37 % 256 * 257 + 1).astype(">u2")
        blob = build_png(samples.view(np.uint8).reshape(16, 16, 6), bit_depth=16)
        try:
            img = decode_png(blob)
        except UnsupportedImageError:
            return
        assert Image.from_u8(img.to_u8()).pixels.tobytes() == img.pixels.tobytes()
