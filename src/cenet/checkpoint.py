"""Binary checkpoint format for named tensors and optimizer state.

Layout, little-endian throughout:

    magic "CEN1" | version u32 | iteration u64
    tensor count u32, then per tensor:
        name length u32 | name UTF-8 | ndim u8 | dims u64 each | f32 values
    optimizer flag u8; when 1:
        optimizer step count u64 | record count u32 | records as above
    crc32 u32 of all preceding bytes

Round-trips are bit-exact; a CRC mismatch or truncation is a corruption
error, and loading into a model with a different parameter census is an
explicit incompatibility error.
"""

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


def _pack_records(tensors: dict[str, np.ndarray]) -> bytes:
    out = bytearray()
    for name, arr in tensors.items():
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype="<f4")
        out += struct.pack("<I", len(encoded))
        out += encoded
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        out += arr.tobytes()
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(
                f"truncated checkpoint: needed {n} bytes for {what} at offset {self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]


def _unpack_records(reader: _Reader, count: int) -> dict[str, np.ndarray]:
    tensors = {}
    for _ in range(count):
        name_len = reader.u32("record name length")
        name = reader.take(name_len, "record name").decode("utf-8")
        ndim = reader.u8("record ndim")
        dims = tuple(reader.u64("record dim") for _ in range(ndim))
        n_values = 1
        for d in dims:
            n_values *= d
        raw = reader.take(4 * n_values, f"values of {name!r}")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    return tensors


def serialize(ckpt: Checkpoint) -> bytes:
    body = bytearray()
    body += MAGIC
    body += struct.pack("<I", VERSION)
    body += struct.pack("<Q", ckpt.iteration)
    body += struct.pack("<I", len(ckpt.tensors))
    body += _pack_records(ckpt.tensors)
    if ckpt.has_optimizer_state:
        body += struct.pack("<B", 1)
        body += struct.pack("<Q", ckpt.optimizer_step)
        body += struct.pack("<I", len(ckpt.optimizer_tensors))
        body += _pack_records(ckpt.optimizer_tensors)
    else:
        body += struct.pack("<B", 0)
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    return bytes(body)


def deserialize(data: bytes) -> Checkpoint:
    if len(data) < 4 + 4 + 8 + 4 + 1 + 4:
        raise CheckpointError(f"checkpoint too short ({len(data)} bytes)")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise CheckpointError("checkpoint CRC mismatch; file is corrupt")
    reader = _Reader(data[:-4])
    if reader.take(4, "magic") != MAGIC:
        raise CheckpointError("bad checkpoint magic; not a checkpoint file")
    version = reader.u32("version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    iteration = reader.u64("iteration")
    count = reader.u32("tensor count")
    tensors = _unpack_records(reader, count)
    opt_step = None
    opt_tensors: dict[str, np.ndarray] = {}
    if reader.u8("optimizer flag"):
        opt_step = reader.u64("optimizer step count")
        opt_count = reader.u32("optimizer record count")
        opt_tensors = _unpack_records(reader, opt_count)
    if reader.pos != len(reader.data):
        raise CheckpointError(
            f"{len(reader.data) - reader.pos} unexpected trailing bytes at offset {reader.pos}")
    return Checkpoint(iteration, tensors, opt_step, opt_tensors)


def write_atomic(path, data: bytes):
    """Replace ``path`` with ``data`` so that a crash leaves either the old
    file or the new one under that name: write a sibling temp file, fsync
    it, ``os.replace`` it over ``path``, then fsync the directory so the
    rename itself is durable. If the write fails, the temp file is removed
    and the old file is untouched; if the directory fsync fails, the new
    file is already in place and the error propagates."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
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
    write_atomic(path, serialize(ckpt))


def load(path) -> Checkpoint:
    return deserialize(Path(path).read_bytes())


def apply_to_network(ckpt: Checkpoint, network):
    """Copy checkpoint tensors into a network, checking the shape census."""
    params = network.named_parameters()
    missing = sorted(set(params) - set(ckpt.tensors))
    unexpected = sorted(set(ckpt.tensors) - set(params))
    if missing or unexpected:
        raise CheckpointError(
            "checkpoint does not match the network parameter census; "
            f"missing {missing or 'none'}, unexpected {unexpected or 'none'}")
    for name, param in params.items():
        stored = ckpt.tensors[name]
        if stored.shape != param.data.shape:
            raise CheckpointError(
                f"checkpoint tensor {name!r} has shape {stored.shape}, "
                f"network expects {param.data.shape}")
        param.data = stored.astype(param.data.dtype, copy=True)
