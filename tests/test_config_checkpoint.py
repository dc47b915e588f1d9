"""Config parsing and checkpoint persistence."""

import hashlib
import os
import struct
import tracemalloc
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from cenet import checkpoint, training
from cenet.blocks import EnhancementNetwork, NetworkConfig
from cenet.checkpoint import (
    Checkpoint,
    CheckpointError,
    deserialize,
    load,
    save,
    serialize,
    write_atomic,
)
from cenet.config import ConfigError, desk_preset, format_config, parse_config
from cenet.optim import Adam
from cenet.tensor import Tape, Tensor, backward, l1_loss


class TestConfig:
    def test_round_trip(self):
        config = desk_preset()
        config.data_root = "some/where"
        again = parse_config(format_config(config))
        assert again == config

    def test_default_training_recipe(self):
        config = parse_config("")
        assert config.schedule.initial_lr == 1e-4
        assert config.schedule.decay_factor == 2.0
        assert config.schedule.decay_every == 128_000
        assert config.schedule.total_iters == 640_000
        assert config.augment.crop_size == 512
        assert config.network.num_stages == 4
        assert config.batch_size == 1

    def test_comments_and_blanks(self):
        config = parse_config("# a comment\n\nstages = 3  # inline\n")
        assert config.network.num_stages == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="stagse"):
            parse_config("stagse = 3")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("stages = many")

    def test_bool_forms(self):
        assert parse_config("flip = yes").augment.enable_flip is True
        assert parse_config("flip = 0").augment.enable_flip is False
        with pytest.raises(ConfigError):
            parse_config("flip = maybe")

    @pytest.mark.parametrize("text,message", [
        ("stages 3", r"line 1: expected 'key = value', got 'stages 3'"),
        ("stages = 3\ncrop_size = 4\ndata_root = d",
         "crop_size 4 is smaller than the network's required divisor 8"),
    ], ids=["no-equals", "crop-below-divisor"])
    def test_malformed_config_is_named(self, text, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(text).validate()

    def test_crop_divisor_validation(self):
        config = parse_config("stages = 3\ncrop_size = 12")
        with pytest.raises(ConfigError, match="divisible"):
            config.validate()

    @pytest.mark.parametrize("key,value", [
        ("lr", "0"), ("lr", "-1e-3"), ("lr", "nan"),
        ("lr_decay_factor", "0"), ("lr_decay_factor", "-2"),
        ("lr_decay_every", "0"), ("lr_decay_every", "-5"),
        ("stages", "0"), ("base_channels", "0"), ("base_channels", "-4"),
    ])
    def test_schedule_validation_names_key(self, key, value):
        config = parse_config(f"{key} = {value}")
        with pytest.raises(ConfigError, match=f"^{key} must be positive"):
            config.validate()

    @pytest.mark.parametrize("text,key,lr", [
        ("lr = inf", "lr", "inf"),
        ("lr_decay_factor = inf\nlr_decay_every = 10\niterations = 20", "lr_decay_factor", "0.0"),
        ("lr_decay_factor = 1e300\nlr_decay_every = 1\niterations = 3", "lr_decay_factor", "0.0"),
        ("lr_decay_factor = 0.5\nlr_decay_every = 1\niterations = 3001", "lr_decay_factor", "inf"),
    ], ids=["infinite-lr", "infinite-factor", "overflowing-decay", "underflowing-decay"])
    def test_schedule_leaving_the_finite_positive_lrs_names_key(self, text, key, lr):
        # each passed validation before and failed mid-run: a non-finite
        # forward, an Adam contract error, an OverflowError, a ZeroDivisionError
        config = parse_config(f"data_root = data\n{text}")
        with pytest.raises(ConfigError, match=f"^{key} .* gives learning rate {lr} at iteration"):
            config.validate()

    def test_missing_data_root_names_key(self):
        config = parse_config("stages = 2\ncrop_size = 16")
        with pytest.raises(ConfigError, match="^data_root is not set"):
            config.validate()
        config.data_root = "data"
        config.validate()

    @pytest.mark.parametrize("seed", [-1, -2**40])
    def test_negative_seed_names_key(self, seed):
        config = parse_config(f"data_root = data\nseed = {seed}")
        with pytest.raises(ConfigError, match=f"^seed must be non-negative, got {seed}$"):
            config.validate()

    @pytest.mark.parametrize("key,value", [
        ("data_root", "data/set#2"), ("output_dir", "run\nlr = 5"), ("output_dir", "run\r"),
        ("eval_data_root", "a\u2028lr = 5"), ("data_root", " data"), ("output_dir", "run\t"),
    ])
    def test_string_the_config_format_cannot_hold_names_key(self, key, value):
        # it would read back otherwise: cut at '#', split into lines, stripped
        config = desk_preset()
        config.data_root = "data"
        setattr(config, key, value)
        assert parse_config(format_config(config)) != config
        with pytest.raises(ConfigError, match=f"^{key} must not contain"):
            config.validate()

    def test_zero_seed_is_valid(self):
        parse_config("data_root = data\nseed = 0").validate()

    def test_network_still_rejects_bad_extents(self):
        for config in (NetworkConfig(num_stages=0), NetworkConfig(base_channels=0)):
            with pytest.raises(ValueError, match="must be positive"):
                EnhancementNetwork(config)


def trained_network(seed=0, steps=3):
    config = NetworkConfig(num_stages=1, base_channels=2)
    net = EnhancementNetwork(config, seed=seed)
    opt = Adam(net.parameters())
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        with Tape():
            x = Tensor(rng.uniform(0, 1, (1, 3, 4, 4)).astype(np.float32))
            y = Tensor(rng.uniform(0, 1, (1, 3, 4, 4)).astype(np.float32))
            loss = l1_loss(net.forward(x), y)
            backward(loss)
        opt.step(net.parameters(), 1e-3)
    return config, net, opt


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        config, net, opt = trained_network()
        ckpt = training.snapshot(net, opt, 42)
        path = tmp_path / "model.ckpt"
        save(ckpt, path)
        again = load(path)
        assert again.iteration == 42
        assert again.optimizer_step == opt.step_count
        assert set(again.tensors) == set(ckpt.tensors)
        for name, arr in ckpt.tensors.items():
            npt.assert_array_equal(again.tensors[name], arr)
        for name, arr in ckpt.optimizer_tensors.items():
            npt.assert_array_equal(again.optimizer_tensors[name], arr)
        _, fresh, fresh_opt = trained_network(seed=1, steps=0)
        training.restore(again, fresh, fresh_opt)
        assert fresh_opt.step_count == opt.step_count
        npt.assert_array_equal(fresh_opt.m, opt.m)
        npt.assert_array_equal(fresh_opt.v, opt.v)

    def test_serialize_is_deterministic(self):
        _, net, _ = trained_network()
        tensors = {n: p.data for n, p in net.named_parameters().items()}
        assert serialize(Checkpoint(1, tensors)) == serialize(Checkpoint(1, tensors))

    def test_without_optimizer_state(self):
        ckpt = Checkpoint(7, {"w": np.ones((2, 2), dtype=np.float32)})
        again = deserialize(serialize(ckpt))
        assert not again.has_optimizer_state
        npt.assert_array_equal(again.tensors["w"], 1.0)

    def test_crc_corruption_detected(self):
        blob = bytearray(serialize(Checkpoint(1, {"w": np.zeros(3, dtype=np.float32)})))
        blob[len(blob) // 2] ^= 0x55
        with pytest.raises(CheckpointError, match="CRC"):
            deserialize(bytes(blob))

    def test_truncation_detected(self):
        blob = serialize(Checkpoint(1, {"w": np.zeros(3, dtype=np.float32)}))
        with pytest.raises(CheckpointError):
            deserialize(blob[:len(blob) - 6])

    def test_bad_magic(self):
        blob = bytearray(serialize(Checkpoint(1, {"w": np.zeros(3, dtype=np.float32)})))
        blob[:4] = b"XXXX"
        # CRC still covers the body, so recompute it to isolate the magic check
        body = bytes(blob[:-4])
        blob = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(CheckpointError, match="magic"):
            deserialize(blob)

    def test_census_mismatch_is_explicit(self):
        config, net, _ = trained_network()
        tensors = {n: p.data for n, p in net.named_parameters().items()}
        tensors.pop(sorted(tensors)[0])
        tensors["rogue.weight"] = np.zeros((1, 1, 1, 1), dtype=np.float32)
        with pytest.raises(CheckpointError, match="census"):
            training.restore(Checkpoint(0, tensors), net)

    def test_shape_mismatch_is_explicit(self):
        config, net, _ = trained_network()
        tensors = {n: p.data.copy() for n, p in net.named_parameters().items()}
        name = sorted(tensors)[0]
        tensors[name] = np.zeros((9, 9), dtype=np.float32)
        with pytest.raises(CheckpointError, match="shape"):
            training.restore(Checkpoint(0, tensors), net)

    def test_restore_copies_values(self):
        _, net, _ = trained_network(seed=1)
        tensors = {n: p.data.copy() for n, p in net.named_parameters().items()}
        ckpt = deserialize(serialize(Checkpoint(5, tensors)))
        fresh = EnhancementNetwork(NetworkConfig(num_stages=1, base_channels=2), seed=99)
        training.restore(ckpt, fresh)
        for name, param in fresh.named_parameters().items():
            npt.assert_array_equal(param.data, tensors[name])

    @pytest.mark.parametrize("edit,message", [
        (lambda state: state.pop("v.head.bias"), r"missing \['v.head.bias'\]"),
        (lambda state: state.update({"v.rogue": np.zeros(1, np.float32)}),
         r"unexpected \['v.rogue'\]"),
        (lambda state: state.update({"m.head.bias": np.zeros(3, np.float32)}),
         r"'m.head.bias' has shape \(3,\), network expects \(1, 3, 1, 1\)"),
    ], ids=["missing", "unexpected", "shape"])
    def test_optimizer_records_must_match_the_census(self, edit, message):
        _, net, opt = trained_network()
        ckpt = training.snapshot(net, opt, 3)
        edit(ckpt.optimizer_tensors)
        _, fresh, fresh_opt = trained_network(seed=1, steps=0)
        before = {n: p.data.copy() for n, p in fresh.named_parameters().items()}
        with pytest.raises(CheckpointError, match=f"^checkpoint (optimizer|tensor) .*{message}"):
            training.restore(ckpt, fresh, fresh_opt)
        # nothing was loaded
        assert fresh_opt.step_count == 0 and not fresh_opt.m.any() and not fresh_opt.v.any()
        for name, param in fresh.named_parameters().items():
            npt.assert_array_equal(param.data, before[name])

    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch, failing):
        _, net, opt = trained_network()
        path = tmp_path / "model.ckpt"
        save(Checkpoint(1, {n: p.data for n, p in net.named_parameters().items()}), path)
        before = path.read_bytes()

        def fail(*args):
            raise OSError("injected failure")

        monkeypatch.setattr(checkpoint.os, failing, fail)
        with pytest.raises(OSError, match="injected"):
            save(training.snapshot(net, opt, 2), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_failed_sidecar_write_keeps_previous_sidecar(self, tmp_path, monkeypatch):
        _, net, opt = trained_network()
        path = tmp_path / "checkpoint_final.ckpt"
        first, second = desk_preset(), desk_preset()
        second.seed = first.seed + 1
        training._save_checkpoint(path, net, opt, 1, first)
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        real_fsync = os.fsync
        calls = []

        # fsyncs in order: checkpoint file, its directory, then the sidecar file
        def fail_sidecar(fd):  # the checkpoint lands, then the sidecar write fails
            calls.append(fd)
            if len(calls) == 3:
                raise OSError("injected failure")
            real_fsync(fd)

        monkeypatch.setattr(checkpoint.os, "fsync", fail_sidecar)
        with pytest.raises(OSError, match="injected"):
            training._save_checkpoint(path, net, opt, 2, second)
        assert sorted(os.listdir(tmp_path)) == sorted(before)
        assert (tmp_path / "checkpoint_final.ckpt.cfg").read_bytes() == before[
            "checkpoint_final.ckpt.cfg"]
        assert load(path).iteration == 2

    def test_directory_is_fsynced_after_the_replace(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        real_fsync, real_replace = os.fsync, os.replace
        events = []

        def record_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def record_replace(src, dst):
            events.append(("replace", str(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(checkpoint.os, "fsync", record_fsync)
        monkeypatch.setattr(checkpoint.os, "replace", record_replace)
        write_atomic(path, (b"payload",))
        # the temp file's inode is the new file's after the rename
        assert events == [("fsync", path.stat().st_ino),
                          ("replace", str(path)),
                          ("fsync", tmp_path.stat().st_ino)]
        assert path.read_bytes() == b"payload"


def resealed(body: bytes) -> bytes:
    """``body`` followed by its CRC, so only the checks after the CRC's see it."""
    return body + struct.pack("<I", zlib.crc32(body))


# the body of a one-record checkpoint: a 20-byte header, the record's
# 14-byte header at offset 20, its 12 value bytes at 34, the optimizer flag at 46
ONE_RECORD = serialize(Checkpoint(1, {"w": np.zeros(3, dtype=np.float32)}))[:-4]


def fixed_checkpoint(with_optimizer: bool) -> Checkpoint:
    tensors = {"enc0.conv.weight": np.arange(24, dtype=np.float32).reshape(2, 3, 1, 4) / 7,
               "enc0.conv.bias": np.array([-1.5, 0.25], dtype=np.float32),
               "mid.é": np.array([3.0], dtype=np.float32)}
    if not with_optimizer:
        return Checkpoint(3, tensors)
    return Checkpoint(3, tensors, optimizer_step=12, optimizer_tensors={
        "m.enc0.conv.bias": np.array([0.5, -0.125], dtype=np.float32),
        "v.enc0.conv.bias": np.array([1e-8, 2.0], dtype=np.float32)})


def traced_peak(fn):
    """Peak traced bytes allocated while ``fn`` runs, and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


class TestCodec:
    # SHA-256 of the CEN1 bytes of fixed_checkpoint(); pins the format
    @pytest.mark.parametrize("with_optimizer,digest", [
        (False, "24b884c8f38fa7144ddd6761d2f949797b7218a2901a08267c71e3fc9d068e21"),
        (True, "86f26eb1e40e2faeb39d1275d33536f496a7a6f9d63722986dfdba22d21ca19b"),
    ])
    def test_format_is_pinned(self, with_optimizer, digest):
        assert hashlib.sha256(serialize(fixed_checkpoint(with_optimizer))).hexdigest() == digest

    def test_network_checkpoint_is_pinned(self):
        # pins the init values and the names and order of the parameter and
        # moment records; Adam is elementwise, so no BLAS rounding enters
        net = EnhancementNetwork(NetworkConfig(2, 8), seed=0)
        params = net.parameters()
        adam = Adam(params)
        rng = np.random.default_rng(0)
        for p in params:
            p.grad[...] = rng.standard_normal(p.shape, dtype=np.float32)
        adam.step(params, 1e-3)
        digest = hashlib.sha256(serialize(training.snapshot(net, adam, 1))).hexdigest()
        assert digest == "aeaa5565978f883eda3a9c28cc61b1193c4f2b44aa720e7c8f660238edb4944a"

    def test_view_records_restore_bitwise(self, tmp_path):
        # records taken straight from named_parameters(), as a benchmark's
        # eval model is written: each conv weight is a transposed view
        net = EnhancementNetwork(NetworkConfig(2, 4), seed=0)
        tensors = {name: p.data for name, p in net.named_parameters().items()}
        tensors["head.weight"] = np.random.default_rng(1).normal(
            0, 0.05, tensors["head.weight"].shape).astype(np.float32)
        assert not tensors["enc0.bb.conv1.weight"].flags.c_contiguous
        save(Checkpoint(0, tensors), tmp_path / "model.ckpt")
        fresh = EnhancementNetwork(NetworkConfig(2, 4), seed=5)
        training.restore(load(tmp_path / "model.ckpt"), fresh)
        for name, p in fresh.named_parameters().items():
            npt.assert_array_equal(p.data, tensors[name], err_msg=name)
        # restored in place: the weights keep their tap order
        assert fresh.encoder[0].basic.conv1.weight.data.transpose(2, 3, 0, 1).flags.c_contiguous

    def test_saving_view_records_copies_none_whole(self, tmp_path):
        net = EnhancementNetwork(NetworkConfig(2, 8), seed=0)
        params = net.parameters()
        adam = Adam(params)
        for p in params:
            p.grad[...] = 1
        adam.step(params, 1e-3)
        ckpt = training.snapshot(net, adam, 1)
        records = [*ckpt.tensors.values(), *ckpt.optimizer_tensors.values()]
        largest = max(records, key=lambda arr: arr.nbytes)
        assert not largest.flags.c_contiguous
        peak, _ = traced_peak(lambda: save(ckpt, tmp_path / "model.ckpt"))
        assert peak < largest.nbytes, (peak, largest.nbytes)
        assert (tmp_path / "model.ckpt").read_bytes() == serialize(ckpt)

    def test_saved_file_is_the_serialized_bytes(self, tmp_path):
        ckpt = fixed_checkpoint(True)
        save(ckpt, tmp_path / "model.ckpt")
        assert (tmp_path / "model.ckpt").read_bytes() == serialize(ckpt)

    def test_zero_size_record_round_trips(self):
        ckpt = Checkpoint(1, {"a": np.ones(2, dtype=np.float32),
                              "empty": np.zeros((0, 3), dtype=np.float32),
                              "b": np.full(1, 2.0, dtype=np.float32)})
        again = deserialize(serialize(ckpt))
        assert again.tensors["empty"].shape == (0, 3)
        npt.assert_array_equal(again.tensors["a"], 1.0)
        npt.assert_array_equal(again.tensors["b"], 2.0)

    def test_zero_dim_record_round_trips(self):
        ckpt = Checkpoint(1, {"s": np.array(2.0, dtype=np.float32)})
        again = deserialize(serialize(ckpt))
        assert again.tensors["s"].shape == ()
        assert again.tensors["s"] == 2.0

    @pytest.mark.parametrize("blob,message", [
        (bytes(24), r"checkpoint too short \(24 bytes\)"),
        (resealed(ONE_RECORD[:4] + struct.pack("<I", 2) + ONE_RECORD[8:]),
         "unsupported checkpoint version 2"),
        (resealed(ONE_RECORD + bytes(2)), "2 unexpected trailing bytes at offset 47"),
        (resealed(ONE_RECORD[:-6]),
         "truncated checkpoint: needed 12 bytes for values of 'w' at offset 34"),
        (resealed(ONE_RECORD[:24] + b"\xff" + ONE_RECORD[25:]),
         "record name at offset 20 is not UTF-8"),
        (resealed(ONE_RECORD[:20] + struct.pack("<I1sB65Q", 1, b"w", 65, *[1] * 65)
                  + bytes(4) + ONE_RECORD[46:]),
         r"record 'w' at offset 20: numpy cannot hold its 65 dims \(.*64.*\)"),
        (resealed(ONE_RECORD[:20] + struct.pack("<I1sB3Q", 1, b"w", 3, 0, 2 ** 62, 2 ** 62)
                  + ONE_RECORD[46:]),
         r"record 'w' at offset 20: numpy cannot hold its 3 dims \(.*too big.*\)"),
    ], ids=["too-short", "version", "trailing-bytes", "truncated-record", "name-not-utf8",
            "65-dims", "too-many-elements"])
    def test_malformed_file_is_named(self, blob, message):
        with pytest.raises(CheckpointError, match=f"^{message}$"):
            deserialize(blob)

    def test_mutants_raise_only_checkpoint_errors(self):
        # 400 seeded mutants of a checkpoint with optimizer state, resealed so
        # that the parser past the CRC sees them: 1-3 bytes XORed with a
        # random nonzero byte, and in every fourth the tail cut off too
        body = bytearray(serialize(fixed_checkpoint(True))[:-4])
        rng = np.random.default_rng(36)
        escapes = []
        for trial in range(400):
            mutant = body.copy()
            for pos in rng.integers(len(mutant), size=rng.integers(1, 4)):
                mutant[pos] ^= int(rng.integers(1, 256))
            if trial % 4 == 0:
                del mutant[rng.integers(len(mutant)):]
            try:
                deserialize(resealed(bytes(mutant)))
            except CheckpointError:
                pass
            except Exception as exc:  # any other type is the failure
                escapes.append((trial, type(exc).__name__, str(exc)[:80]))
        assert escapes == []

    def test_duplicate_record_rejected(self):
        blob = serialize(Checkpoint(1, {"w": np.zeros(2, np.float32),
                                        "x": np.ones(2, np.float32)}))
        body = blob[:-4].replace(b"x", b"w")  # the second record takes the first's name
        with pytest.raises(CheckpointError, match="duplicate record 'w'"):
            deserialize(body + struct.pack("<I", zlib.crc32(body)))

    def test_write_atomic_concatenates_chunks(self, tmp_path):
        write_atomic(tmp_path / "f", (b"a", b"b"))
        assert (tmp_path / "f").read_bytes() == b"ab"

    def test_save_and_load_do_not_copy_the_checkpoint(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {f"t{i}": rng.standard_normal((512, 4096), dtype=np.float32)
                   for i in range(4)}
        ckpt = Checkpoint(1, tensors)
        size = sum(arr.nbytes for arr in tensors.values())  # 32 MiB
        path = tmp_path / "big.ckpt"
        save_peak, _ = traced_peak(lambda: save(ckpt, path))
        assert save_peak < size / 8
        load_peak, loaded = traced_peak(lambda: load(path))
        assert load_peak < 1.25 * path.stat().st_size
        npt.assert_array_equal(loaded.tensors["t3"], tensors["t3"])

    def test_loaded_arrays_are_read_only_and_restored_ones_writable(self, tmp_path):
        _, net, opt = trained_network()
        save(training.snapshot(net, opt, 3), tmp_path / "model.ckpt")
        ckpt = load(tmp_path / "model.ckpt")
        arrays = list(ckpt.tensors.values()) + list(ckpt.optimizer_tensors.values())
        assert not any(arr.flags.writeable for arr in arrays)
        _, fresh, fresh_opt = trained_network(seed=1, steps=0)
        training.restore(ckpt, fresh, fresh_opt)
        restored = [p.data for p in fresh.parameters()] + list(fresh_opt.moments().values())
        assert len(restored) == len(arrays)
        assert all(arr.flags.writeable for arr in restored)
