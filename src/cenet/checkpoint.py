"""Binary checkpoint format for named tensors and optimizer state.

Layout, little-endian throughout:

    magic "CEN1" | version u32 | iteration u64
    tensor count u32, then per tensor:
        name length u32 | name UTF-8 | ndim u8 | dims u64 each | f32 values
    optimizer flag u8; when 1:
        optimizer step count u64 | record count u32 | records as above
    crc32 u32 of all preceding bytes

Round-trips are bit-exact. A malformed file raises ``CheckpointError``:
a CRC mismatch or a truncation, and past a valid CRC a record whose name
is not UTF-8 or whose dims numpy cannot hold, named by the record's byte
offset. This module knows only the file format: checking the
records against a network's parameter census is ``training.restore``'s
job. Saving writes a C-contiguous float32 array's own buffer and converts
any other a few rows at a time as the file is written; a loaded
checkpoint's arrays are read-only views of the file's bytes.
"""

import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"CEN1"
VERSION = 1


class CheckpointError(RuntimeError):
    """Corrupt, truncated, or incompatible checkpoint data."""


@dataclass
class Checkpoint:
    iteration: int
    tensors: dict[str, np.ndarray]
    optimizer_step: int | None = None
    optimizer_tensors: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def has_optimizer_state(self) -> bool:
        return self.optimizer_step is not None


# Bytes of a record in another layout converted to C order at a time.
_CONVERT_BYTES = 2 ** 15


def _records(tensors: dict[str, np.ndarray]):
    """Each record as its packed header followed by its values in C order:
    a C-contiguous float32 array itself, any other converted a slice of
    rows (of its first axis) at a time, so no record is copied whole."""
    for name, arr in tensors.items():
        encoded = name.encode("utf-8")
        arr = np.asarray(arr, dtype="<f4")
        yield struct.pack(f"<I{len(encoded)}sB{arr.ndim}Q",
                          len(encoded), encoded, arr.ndim, *arr.shape)
        if arr.flags.c_contiguous:
            yield arr
        else:
            rows = max(1, _CONVERT_BYTES * len(arr) // arr.nbytes)
            yield from (np.ascontiguousarray(arr[i:i + rows]) for i in range(0, len(arr), rows))


def _body(ckpt: Checkpoint):
    yield MAGIC
    yield struct.pack("<IQI", VERSION, ckpt.iteration, len(ckpt.tensors))
    yield from _records(ckpt.tensors)
    if ckpt.has_optimizer_state:
        yield struct.pack("<BQI", 1, ckpt.optimizer_step, len(ckpt.optimizer_tensors))
        yield from _records(ckpt.optimizer_tensors)
    else:
        yield struct.pack("<B", 0)


def _chunks(ckpt: Checkpoint):
    """The file as buffers made as they are consumed, ending with the
    running CRC of all the others."""
    crc = 0
    for chunk in _body(ckpt):
        crc = zlib.crc32(chunk, crc)
        yield chunk
    yield struct.pack("<I", crc)


class _Reader:
    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.data):
            raise CheckpointError(
                f"truncated checkpoint: needed {n} bytes for {what} at offset {self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def read(self, fmt: str, what: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]


def _unpack_records(reader: _Reader, count: int) -> dict[str, np.ndarray]:
    tensors = {}
    for _ in range(count):
        offset = reader.pos
        name_len = reader.read("<I", "record name length")
        try:
            name = str(reader.take(name_len, "record name"), "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"record name at offset {offset} is not UTF-8") from None
        if name in tensors:
            raise CheckpointError(f"duplicate record {name!r}")
        ndim = reader.read("<B", "record ndim")
        dims = tuple(reader.read("<Q", "record dim") for _ in range(ndim))
        raw = reader.take(4 * math.prod(dims), f"values of {name!r}")
        try:  # over 64 dims, or zero values in more elements than numpy can index
            tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims)
        except ValueError as exc:
            raise CheckpointError(
                f"record {name!r} at offset {offset}: numpy cannot hold its {ndim} dims "
                f"({exc})") from None
    return tensors


def serialize(ckpt: Checkpoint) -> bytes:
    return b"".join(_chunks(ckpt))


def deserialize(data) -> Checkpoint:
    """Parse a checkpoint. Its arrays are read-only views of ``data``."""
    data = memoryview(data).toreadonly()
    if len(data) < 4 + 4 + 8 + 4 + 1 + 4:
        raise CheckpointError(f"checkpoint too short ({len(data)} bytes)")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise CheckpointError("checkpoint CRC mismatch; file is corrupt")
    reader = _Reader(data[:-4])
    if reader.take(4, "magic") != MAGIC:
        raise CheckpointError("bad checkpoint magic; not a checkpoint file")
    version = reader.read("<I", "version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    iteration = reader.read("<Q", "iteration")
    count = reader.read("<I", "tensor count")
    tensors = _unpack_records(reader, count)
    opt_step = None
    opt_tensors: dict[str, np.ndarray] = {}
    if reader.read("<B", "optimizer flag"):
        opt_step = reader.read("<Q", "optimizer step count")
        opt_count = reader.read("<I", "optimizer record count")
        opt_tensors = _unpack_records(reader, opt_count)
    if reader.pos != len(reader.data):
        raise CheckpointError(
            f"{len(reader.data) - reader.pos} unexpected trailing bytes at offset {reader.pos}")
    return Checkpoint(iteration, tensors, opt_step, opt_tensors)


def write_atomic(path, chunks):
    """Replace ``path`` with the concatenation of ``chunks``, an iterable of
    buffers each written as it comes, so that a crash leaves either the old
    file or the new one under that name: write a sibling temp file, fsync
    it, ``os.replace`` it over ``path``, then fsync the directory so the
    rename itself is durable. If the write fails, the temp file is removed
    and the old file is untouched; if the directory fsync fails, the new
    file is already in place and the error propagates."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def save(ckpt: Checkpoint, path):
    write_atomic(path, _chunks(ckpt))


def load(path) -> Checkpoint:
    return deserialize(Path(path).read_bytes())

