"""End-to-end training, persistence, inference, and CLI behavior."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from cenet import cli
from cenet.blocks import EnhancementNetwork, NetworkConfig
from cenet.checkpoint import Checkpoint, load, save
from cenet.config import RunConfig, desk_preset, format_config
from cenet.dataset import scan_dataset
from cenet.imageio import Image, load_image, save_image
from cenet.inference import enhance, evaluate_network
from cenet.optim import Adam
from cenet.tensor import Tape, Tensor, backward, l1_loss
from cenet.training import TrainingError, load_network, restore, train
from cenet.verify import _float64

from reference import synthetic_pair
from test_imageio import png_with_extent


def write_dataset(root, n_pairs=1, size=24, seed=11):
    (root / "input").mkdir(parents=True, exist_ok=True)
    (root / "target").mkdir(parents=True, exist_ok=True)
    for idx in range(n_pairs):
        dark, bright = synthetic_pair(size, seed=seed + idx)
        save_image(Image(dark), root / "input" / f"pair{idx}.png")
        save_image(Image(bright), root / "target" / f"pair{idx}.png")


def tiny_config(data_root, out_dir, iters=60, **overrides) -> RunConfig:
    config = RunConfig()
    config.network = NetworkConfig(num_stages=2, base_channels=4)
    config.augment.crop_size = 16
    config.augment.enable_flip = False
    config.augment.enable_rotation = False
    config.schedule.initial_lr = 1e-3
    config.schedule.total_iters = iters
    config.schedule.decay_every = 10_000
    config.checkpoint_every = 1000
    config.log_every = 5
    config.data_root = str(data_root)
    config.output_dir = str(out_dir)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


@pytest.fixture
def dataset(tmp_path):
    root = tmp_path / "data"
    write_dataset(root)
    return root


# Pinned float64 trajectory of ``float64_trajectory``: each step's loss,
# then the sum of squares of the final parameters. Reordering a float64
# sum moves them by about 1e-16 relative; scaling the attention output by
# (1 + 1e-7) moves the losses by 1.8e-7. A deliberate change of the math
# re-pins them and says why in CHANGES.md.
TRAJECTORY_LOSSES = [
    1.1088757295297913, 1.0953105550124789, 0.4150739906058101, 0.4306805768735589,
    0.2989587935868236, 0.28536558753073277, 0.2735221084760566, 0.2520823145156397,
    0.2208272940123932, 0.18499061134530645, 0.15831906043706398, 0.16587456266879907,
    0.17301636222264094, 0.15009449487954635, 0.142875315798299, 0.1442527109116369,
    0.14402087025166374, 0.14049988383964176, 0.13476732796198718, 0.1308669187466098,
    0.13283025833209125, 0.1330278577377511, 0.12740497664828218, 0.1249474985774915,
    0.1256583982235967, 0.12579331559295678, 0.12427822250727578, 0.12183310157788056,
    0.12042419420415096, 0.12069818892222484,
]
TRAJECTORY_CHECKSUM = 959.1867146537658


def float64_trajectory(steps: int) -> tuple[list[float], float]:
    """Train the desk network, promoted to float64 with a non-zero attention
    output projection, for ``steps`` Adam steps on one seeded 32x32 batch of
    two pairs, as ``train`` steps: forward, L1 loss, ``backward``, ``Adam.step``."""
    network = _float64(EnhancementNetwork(desk_preset().network, seed=0))
    rng = np.random.default_rng(0)
    out_w = network.attention.out_w
    out_w.data = rng.uniform(-0.5, 0.5, out_w.shape)
    dark = rng.uniform(0.0, 0.25, (2, 3, 32, 32))
    inputs, targets = Tensor(dark), Tensor(np.sqrt(dark))
    optimizer, params = Adam(), network.parameters()
    losses = []
    for _ in range(steps):
        with Tape():
            loss = l1_loss(network.forward(inputs), targets)
            backward(loss)
        losses.append(loss.item())
        optimizer.step(params, 1e-3)
    return losses, sum(float(np.vdot(p.data, p.data)) for p in params)


class TestTraining:
    def test_float64_trajectory_matches_pinned_values(self):
        # float32 rounding moves a desk run's losses within a few steps, so
        # refactors that keep the math are checked in float64
        losses, checksum = float64_trajectory(len(TRAJECTORY_LOSSES))
        npt.assert_allclose(losses, TRAJECTORY_LOSSES, rtol=1e-10, atol=0)
        assert checksum == pytest.approx(TRAJECTORY_CHECKSUM, rel=1e-10, abs=0)

    def test_smoke_run_loss_decreases(self, dataset, tmp_path):
        config = tiny_config(dataset, tmp_path / "run", iters=120)
        result = train(config)
        losses = [row[2] for row in result.loss_rows]
        assert all(np.isfinite(losses)) and all(v > 0 for v in losses)
        assert losses[-1] < losses[0]
        assert result.final_checkpoint.exists()

    def test_fixed_seed_reproduces_loss_csv(self, dataset, tmp_path):
        c1 = tiny_config(dataset, tmp_path / "r1", iters=30)
        c2 = tiny_config(dataset, tmp_path / "r2", iters=30)
        train(c1)
        train(c2)
        log1 = (tmp_path / "r1" / "loss_log.csv").read_bytes()
        log2 = (tmp_path / "r2" / "loss_log.csv").read_bytes()
        assert log1 == log2

    def test_resume_matches_uninterrupted(self, dataset, tmp_path):
        full_cfg = tiny_config(dataset, tmp_path / "full", iters=40)
        full = train(full_cfg)

        head_cfg = tiny_config(dataset, tmp_path / "head", iters=40)
        head_cfg.checkpoint_every = 20
        head_cfg.schedule.total_iters = 20
        train(head_cfg)
        tail_cfg = tiny_config(dataset, tmp_path / "head", iters=40)
        tail = train(tail_cfg, resume=tmp_path / "head" / "checkpoint_final.ckpt")

        full_rows = {it: loss for it, _, loss in full.loss_rows}
        for it, _, loss in tail.loss_rows:
            assert full_rows[it] == loss

        ck_a = load(full.final_checkpoint)
        ck_b = load(tail.final_checkpoint)
        for name, arr in ck_a.tensors.items():
            npt.assert_array_equal(arr, ck_b.tensors[name])
        for name, arr in ck_a.optimizer_tensors.items():
            npt.assert_array_equal(arr, ck_b.optimizer_tensors[name])

    def test_resume_from_mid_run_checkpoint_rewrites_log_exactly(self, dataset, tmp_path):
        config = tiny_config(dataset, tmp_path / "run", iters=30)
        config.checkpoint_every = 10
        train(config)
        log_path = tmp_path / "run" / "loss_log.csv"
        uninterrupted = log_path.read_bytes()
        final = load(tmp_path / "run" / "checkpoint_final.ckpt")

        train(config, resume=tmp_path / "run" / "checkpoint_00000020.ckpt")
        assert log_path.read_bytes() == uninterrupted
        resumed = load(tmp_path / "run" / "checkpoint_final.ckpt")
        for name, arr in final.tensors.items():
            npt.assert_array_equal(arr, resumed.tensors[name])

    def test_resumed_run_does_not_hold_the_checkpoint(self, dataset, tmp_path):
        def traced_at_each_log(config, resume=None):
            seen = []
            tracemalloc.start()
            try:
                train(config, resume=resume,
                      echo=lambda msg: seen.append(tracemalloc.get_traced_memory()[0]))
            finally:
                tracemalloc.stop()
            return seen

        network = NetworkConfig(num_stages=2, base_channels=8)
        fresh = traced_at_each_log(
            tiny_config(dataset, tmp_path / "fresh", iters=8, log_every=2, network=network))
        train(tiny_config(dataset, tmp_path / "resumed", iters=4, network=network))
        ckpt = tmp_path / "resumed" / "checkpoint_final.ckpt"
        resumed = traced_at_each_log(
            tiny_config(dataset, tmp_path / "resumed", iters=8, log_every=2, network=network),
            resume=ckpt)
        # both runs log iterations 6 and 8 with the same model and optimizer
        assert max(resumed) - max(fresh[-2:]) < ckpt.stat().st_size / 4

    def test_divergence_aborts_with_iteration(self, dataset, tmp_path):
        config = tiny_config(dataset, tmp_path / "boom", iters=50)
        config.schedule.initial_lr = 1e14
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="iteration .*non-finite"):
                train(config)

    def test_checkpoint_cadence(self, dataset, tmp_path):
        config = tiny_config(dataset, tmp_path / "ck", iters=25)
        config.checkpoint_every = 10
        train(config)
        names = sorted(p.name for p in (tmp_path / "ck").glob("*.ckpt"))
        assert names == ["checkpoint_00000010.ckpt", "checkpoint_00000020.ckpt",
                         "checkpoint_final.ckpt"]
        assert (tmp_path / "ck" / "checkpoint_final.ckpt.cfg").exists()

    def test_missing_data_root(self, tmp_path):
        config = tiny_config(tmp_path / "nope", tmp_path / "out")
        with pytest.raises(TrainingError):
            train(config)


class TestInference:
    @pytest.fixture
    def trained(self, dataset, tmp_path):
        config = tiny_config(dataset, tmp_path / "trained", iters=10)
        result = train(config)
        network = EnhancementNetwork(config.network, seed=config.seed)
        restore(load(result.final_checkpoint), network)
        return config, network, result.final_checkpoint

    def test_output_dimensions_match_input(self, trained):
        _, network, _ = trained
        for h, w in ((24, 24), (30, 22), (17, 9)):
            img = Image(np.random.default_rng(0).uniform(0, 1, (h, w, 3)).astype(np.float32))
            out = enhance(network, img)
            assert (out.height, out.width) == (h, w)
            assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0

    def test_inference_deterministic(self, trained):
        _, network, _ = trained
        img = Image(np.random.default_rng(1).uniform(0, 1, (24, 24, 3)).astype(np.float32))
        a = enhance(network, img).pixels
        b = enhance(network, img).pixels
        npt.assert_array_equal(a, b)

    def test_gc_identity_at_zero_init(self):
        # a zero out-projection checkpoint and the same weights with the
        # attention block structurally removed produce identical outputs
        with_gc = EnhancementNetwork(NetworkConfig(2, 4, True, False), seed=5)
        without = EnhancementNetwork(NetworkConfig(2, 4, False, False), seed=5)
        img = Image(np.random.default_rng(2).uniform(0, 1, (16, 16, 3)).astype(np.float32))
        npt.assert_array_equal(enhance(with_gc, img).pixels,
                               enhance(without, img).pixels)

    def test_tile_too_small_rejected(self, trained):
        _, network, _ = trained
        img = Image(np.zeros((16, 16, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            enhance(network, img, tile=4)

    def test_tiled_matches_untiled_when_context_covers_image(self, trained):
        # with the context margin the 32-tile windows span this whole image,
        # and one 64-tile is the whole image, so tiled inference reproduces
        # the untiled result exactly
        _, network, _ = trained
        img = Image(np.random.default_rng(3).uniform(0, 1, (40, 36, 3)).astype(np.float32))
        full = enhance(network, img).pixels
        for tile in (32, 64):
            npt.assert_array_equal(enhance(network, img, tile=tile).pixels, full)

    def test_tiled_output_shape_and_range(self, trained):
        _, network, _ = trained
        img = Image(np.random.default_rng(4).uniform(0, 1, (52, 44, 3)).astype(np.float32))
        out = enhance(network, img, tile=16)
        assert (out.height, out.width) == (52, 44)
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


class TestCli:
    def test_train_infer_eval_gradcheck(self, dataset, tmp_path, capsys):
        config = tiny_config(dataset, tmp_path / "cli_run", iters=10)
        config_path = tmp_path / "run.cfg"
        config_path.write_text(format_config(config))

        assert cli.main(["train", "--config", str(config_path)]) == 0
        ckpt = tmp_path / "cli_run" / "checkpoint_final.ckpt"
        assert ckpt.exists()

        out_img = tmp_path / "enhanced.png"
        code = cli.main(["infer", "--checkpoint", str(ckpt),
                         "--input", str(dataset / "input" / "pair0.png"),
                         "--output", str(out_img)])
        assert code == 0 and out_img.exists()
        assert load_image(out_img).width == 24

        # inference twice produces identical bytes
        out2 = tmp_path / "enhanced2.png"
        cli.main(["infer", "--checkpoint", str(ckpt),
                  "--input", str(dataset / "input" / "pair0.png"),
                  "--output", str(out2)])
        assert out_img.read_bytes() == out2.read_bytes()

        csv_path = tmp_path / "report.csv"
        code = cli.main(["eval", "--checkpoint", str(ckpt),
                         "--data", str(dataset), "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "id,psnr,ssim"
        assert len(lines) == 2  # one pair
        capsys.readouterr()

    def test_infer_reports_its_enhance_time(self, dataset, tmp_path, capsys):
        train(tiny_config(dataset, tmp_path / "run", iters=2))
        ckpt = tmp_path / "run" / "checkpoint_final.ckpt"
        source, out = dataset / "input" / "pair0.png", tmp_path / "x.png"
        capsys.readouterr()
        assert cli.main(["infer", "--checkpoint", str(ckpt), "--input", str(source),
                         "--output", str(out)]) == 0
        assert re.fullmatch(rf"wrote {re.escape(str(out))} \(enhanced in \d+\.\d{{3}} s\)\n",
                            capsys.readouterr().out)
        expected = enhance(load_network(ckpt), load_image(source))
        npt.assert_array_equal(load_image(out).to_u8(), expected.to_u8())

    def test_eval_reports_total_and_median_time_after_its_table(self, tmp_path, capsys):
        data = tmp_path / "data"
        write_dataset(data, n_pairs=3)
        train(tiny_config(data, tmp_path / "run", iters=2))
        ckpt = tmp_path / "run" / "checkpoint_final.ckpt"
        csv_path = tmp_path / "report.csv"
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                         "--csv", str(csv_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        report = evaluate_network(load_network(ckpt), scan_dataset(data))
        assert lines[:-2] == report.to_table().splitlines()
        assert re.fullmatch(r"time: \d+\.\d{3} s for 3 images, median \d+\.\d{3} s per image",
                            lines[-2])
        assert lines[-1] == f"wrote {csv_path}"
        assert csv_path.read_text() == report.to_csv()

    def test_infer_without_config_or_sidecar(self, dataset, tmp_path, capsys):
        # the .cfg sidecar is provenance only: deleted or garbage, it changes nothing
        config = tiny_config(dataset, tmp_path / "conf_run", iters=4)
        config.network.use_global_context = False  # not the default, so the records must say so
        train(config)
        ckpt = tmp_path / "conf_run" / "checkpoint_final.ckpt"
        sidecar = tmp_path / "conf_run" / "checkpoint_final.ckpt.cfg"

        def infer(name):
            out = tmp_path / name
            assert cli.main(["infer", "--checkpoint", str(ckpt),
                             "--input", str(dataset / "input" / "pair0.png"),
                             "--output", str(out)]) == 0
            return out.read_bytes()

        with_sidecar = infer("a.png")
        sidecar.unlink()
        assert infer("b.png") == with_sidecar
        sidecar.write_text("workers = 1\n")
        assert infer("c.png") == with_sidecar
        capsys.readouterr()

    @pytest.mark.parametrize("command,args", [
        ("infer", ["--input", "in.png", "--output", "out.png"]),
        ("eval", ["--data", "data"]),
    ])
    def test_config_flag_is_a_usage_error(self, capsys, command, args):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--checkpoint", "c.ckpt", "--config", "run.cfg", *args])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    @pytest.mark.parametrize("cut,message", [
        (lambda name: name == "enc0.bb.conv1.weight", "missing ['enc0.bb.conv1.weight']"),
        (lambda name: name.startswith("mid."), "do not match the network parameter census"),
    ], ids=["enc0.bb.conv1.weight", "mid"])
    def test_infer_rejects_a_checkpoint_with_records_cut(self, dataset, tmp_path, capsys,
                                                         cut, message):
        train(tiny_config(dataset, tmp_path / "run", iters=4))
        ckpt = load(tmp_path / "run" / "checkpoint_final.ckpt")
        cut_path = tmp_path / "cut.ckpt"
        save(Checkpoint(ckpt.iteration, {name: arr for name, arr in ckpt.tensors.items()
                                         if not cut(name)}), cut_path)
        code = cli.main(["infer", "--checkpoint", str(cut_path),
                         "--input", str(dataset / "input" / "pair0.png"),
                         "--output", str(tmp_path / "x.png")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint parameter records") and message in err
        assert "num_stages" not in err

    @pytest.mark.parametrize("edit,message", [
        (lambda state: state.pop("v.head.bias"), "missing ['v.head.bias']"),
        (lambda state: state.update({"m.head.bias": state["m.head.bias"].reshape(3)}),
         "checkpoint tensor 'm.head.bias' has shape (3,), network expects (1, 3, 1, 1)"),
    ], ids=["v.head.bias-dropped", "m.head.bias-reshaped"])
    def test_resume_rejects_inconsistent_optimizer_records(self, dataset, tmp_path, capsys,
                                                           edit, message):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(format_config(tiny_config(dataset, tmp_path / "run", iters=4)))
        train(tiny_config(dataset, tmp_path / "run", iters=2))
        ckpt_path = tmp_path / "run" / "checkpoint_final.ckpt"
        ckpt = load(ckpt_path)
        state = dict(ckpt.optimizer_tensors)
        edit(state)
        save(Checkpoint(ckpt.iteration, dict(ckpt.tensors), ckpt.optimizer_step, state),
             ckpt_path)
        before = ckpt_path.read_bytes()
        code = cli.main(["train", "--config", str(config_path), "--resume", str(ckpt_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint ") and message in err
        assert ckpt_path.read_bytes() == before

    def test_resume_rejects_a_checkpoint_without_optimizer_state(self, dataset, tmp_path,
                                                                 capsys):
        train(tiny_config(dataset, tmp_path / "head", iters=2))
        ckpt = load(tmp_path / "head" / "checkpoint_final.ckpt")
        weights_only = tmp_path / "weights.ckpt"
        save(Checkpoint(ckpt.iteration, dict(ckpt.tensors)), weights_only)
        config_path = tmp_path / "run.cfg"
        config_path.write_text(format_config(tiny_config(dataset, tmp_path / "run", iters=4)))
        code = cli.main(["train", "--config", str(config_path), "--resume", str(weights_only)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: checkpoint has no optimizer state (Adam step and m./v. records), "
            "so training cannot continue from it exactly\n")
        assert not (tmp_path / "run" / "loss_log.csv").exists()
        # the same file still loads as a model
        loaded = load_network(weights_only).named_parameters()
        for name, arr in ckpt.tensors.items():
            npt.assert_array_equal(loaded[name].data, arr)

    @pytest.mark.parametrize("extent", [0xFFFFFFFF, 2 ** 31 - 1])
    def test_infer_rejects_an_oversized_png_header(self, dataset, tmp_path, capsys, extent):
        train(tiny_config(dataset, tmp_path / "run", iters=2))
        image = tmp_path / "huge.png"
        image.write_bytes(png_with_extent(extent))
        code = cli.main(["infer", "--checkpoint", str(tmp_path / "run" / "checkpoint_final.ckpt"),
                         "--input", str(image), "--output", str(tmp_path / "x.png")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("output,fmt", [("out.jpg", "'jpg'"), ("out", "''")])
    def test_infer_rejects_output_format_before_loading(self, tmp_path, capsys, output, fmt):
        code = cli.main(["infer", "--checkpoint", str(tmp_path / "missing.ckpt"),
                         "--input", str(tmp_path / "missing.png"),
                         "--output", str(tmp_path / output)])
        assert code == 1
        assert capsys.readouterr().err == f"error: unknown image format {fmt}\n"

    def test_gradcheck_command(self, capsys):
        assert cli.main(["gradcheck", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        # every op and block type appears exactly once in the report
        for name in ("conv2d", "maxpool2d", "upsample_nearest2x", "add", "attention",
                     "l1_loss", "weighted_sum", "basic_block", "dense_residual_block",
                     "nonlocal_block", "network"):
            assert sum(line.split()[0] == name for line in out.splitlines()) == 1, name

    def test_gradcheck_fault_injection(self, capsys):
        # the block and network checks promote float32 parameters to
        # float64; a corrupted conv2d backward must still fail each of them
        assert cli.main(["gradcheck", "--trials", "1", "--inject-fault", "conv2d"]) == 1
        assert capsys.readouterr().err == (
            "FAILED: conv2d, basic_block, dense_residual_block, nonlocal_block, network\n")

    def test_gradcheck_unknown_fault_target_rejected(self, monkeypatch, capsys):
        def must_not_run(**kwargs):
            raise AssertionError("checks ran for an unknown fault target")

        monkeypatch.setattr(cli, "run_full_suite", must_not_run)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["gradcheck", "--trials", "1", "--inject-fault", "conv"])
        assert exit_info.value.code != 0
        assert "invalid choice: 'conv'" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_gradcheck_needs_a_trial(self, monkeypatch, capsys, trials):
        # zero trials would check no op, even with a fault injected
        def must_not_run(**kwargs):
            raise AssertionError("checks ran with no trials")

        monkeypatch.setattr(cli, "run_full_suite", must_not_run)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["gradcheck", "--trials", trials, "--inject-fault", "attention"])
        assert exit_info.value.code == 2
        assert f"must be at least 1, got {trials}" in capsys.readouterr().err

    def test_error_exit_code(self, tmp_path, capsys):
        assert cli.main(["train", "--config", str(tmp_path / "missing.cfg")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("lr", "0"), ("lr_decay_factor", "0"), ("lr_decay_factor", "-2"),
        ("lr_decay_every", "0"), ("stages", "0"), ("base_channels", "0"),
    ])
    def test_bad_schedule_value_exits_before_training(self, dataset, tmp_path, capsys,
                                                       key, value):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(format_config(tiny_config(dataset, tmp_path / "bad", iters=4))
                               + f"{key} = {value}\n")
        assert cli.main(["train", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be positive")
        assert "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    def test_negative_seed_exits_before_training(self, dataset, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(format_config(tiny_config(dataset, tmp_path / "bad", iters=4))
                               + "seed = -1\n")
        assert cli.main(["train", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be non-negative, got -1")
        assert "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_missing_data_root_exits_before_training(self, dataset, tmp_path, capsys,
                                                     monkeypatch, command):
        # run from inside a usable dataset, which an unset data_root must not pick up
        monkeypatch.chdir(dataset)
        config_path = tmp_path / "run.cfg"
        config_path.write_text(format_config(tiny_config("", tmp_path / "bad", iters=4)))
        assert cli.main([command, "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: data_root is not set")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_empty_output_dir_exits_before_training(self, dataset, tmp_path, capsys,
                                                    monkeypatch, command):
        # an empty output_dir would write checkpoints and the log into cwd
        config_path = tmp_path / "run.cfg"
        config_path.write_text(format_config(tiny_config(dataset, "", iters=4)))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert cli.main([command, "--config", str(config_path)]) == 1
        assert capsys.readouterr().err.startswith("error: output_dir is not set")
        assert not any(cwd.iterdir())

    def test_out_of_memory_exits_with_hint(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError("Unable to allocate 9.00 GiB for an array")

        monkeypatch.setattr(cli, "_cmd_infer", exhausted)
        code = cli.main(["infer", "--checkpoint", "c.ckpt", "--input", "in.png",
                         "--output", "out.png"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory (Unable to allocate 9.00 GiB")
        assert "--tile" in err and "crop_size" in err

    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_out_of_its_address_space_exits_with_hint(self, dataset, tmp_path, command):
        # a real allocation failure: the child may map 500 MiB, and a desk
        # forward over 2400x3200 pixels needs more than that, as does a desk
        # training step on a 2048x2048 crop
        resource = pytest.importorskip("resource")
        limit = 500 * 2 ** 20
        config = tiny_config(dataset, tmp_path / "run", iters=2, network=desk_preset().network)
        if command == "infer":
            train(config)
            source, output = tmp_path / "big.png", tmp_path / "out.png"
            save_image(Image.from_u8(np.full((2400, 3200, 3), 40, dtype=np.uint8)), source)
            args = ["--checkpoint", str(tmp_path / "run" / "checkpoint_final.ckpt"),
                    "--input", str(source), "--output", str(output)]
        else:
            config.augment.crop_size = 2048
            config_path, output = tmp_path / "run.cfg", tmp_path / "run" / "checkpoint_final.ckpt"
            config_path.write_text(format_config(config))
            args = ["--config", str(config_path)]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "cenet.cli", command, *args],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert done.returncode == 1, done.stderr
        assert "hint:" in done.stderr and "Traceback" not in done.stderr, done.stderr
        assert not output.exists()


class TestAblate:
    def test_four_variants_with_census(self, dataset, tmp_path, capsys):
        config = tiny_config(dataset, tmp_path / "abl", iters=6)
        config.log_every = 3
        config_path = tmp_path / "ablate.cfg"
        config_path.write_text(format_config(config))
        assert cli.main(["ablate", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        table = [line for line in out.splitlines()
                 if line.split() and line.split()[0] in
                 ("baseline", "global-context", "local-context", "full")]
        assert len(table) == 4
        assert "PSNR" in out and "SSIM" in out

    def test_structural_census_per_variant(self, dataset, tmp_path):
        from cenet.ablation import run_ablation
        config = tiny_config(dataset, tmp_path / "abl2", iters=4)
        config.log_every = 2
        results = run_ablation(config)
        by_name = {r.name: r.structure for r in results}
        m = config.network.num_stages
        blocks = 2 * m + 1
        assert by_name["baseline"] == {**by_name["baseline"],
                                       "attention_blocks": 0, "dense_blocks": 0}
        assert by_name["global-context"]["attention_blocks"] == 1
        assert by_name["global-context"]["dense_blocks"] == 0
        assert by_name["local-context"]["attention_blocks"] == 0
        assert by_name["local-context"]["dense_blocks"] == blocks
        assert by_name["full"]["attention_blocks"] == 1
        assert by_name["full"]["dense_blocks"] == blocks
