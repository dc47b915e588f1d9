"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Budgets are asserted where the criterion states one.
"""

import time

import numpy as np
import numpy.testing as npt
import pytest

from cenet.blocks import DenseResidualBlock, EnhancementNetwork, NetworkConfig, NonLocalBlock
from cenet.checkpoint import deserialize, load, serialize
from cenet.dataset import AugmentSpec, SampleStream, scan_dataset
from cenet.imageio import (
    Image,
    ImageParseError,
    decode_png,
    decode_ppm,
    encode_png,
    encode_ppm,
    save_image,
)
from cenet.inference import enhance
from cenet.metrics import psnr, ssim
from cenet.optim import Adam, StepDecaySchedule
from cenet.tensor import Parameter, Tape, Tensor, backward, l1_loss, op_census
from cenet.training import train
from cenet.verify import run_network_check, run_op_suite

from reference import ssim_reference, synthetic_pair
from test_blocks import attention_probs, multi_input_convs
from test_training_cli import tiny_config, write_dataset


def report(line: str):
    print(f"\n[acceptance] {line}")


def test_criterion_1_gradient_suite():
    start = time.time()
    op_results = run_op_suite(trials=20)
    for r in op_results:
        assert r.passed, f"{r.name} max rel error {r.max_rel_error:.3e} >= 1e-4"
    net_result = run_network_check()
    assert net_result.passed, f"network max rel error {net_result.max_rel_error:.3e}"
    elapsed = time.time() - start
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    worst = max(r.max_rel_error for r in op_results)
    report(f"1 gradient suite: PASS ({len(op_results)} ops x 20 trials, "
           f"worst op err {worst:.2e}, network err {net_result.max_rel_error:.2e}, "
           f"{elapsed:.1f}s)")


def test_criterion_2_nonlocal_invariants():
    start = time.time()
    rng = np.random.default_rng(0)
    block = NonLocalBlock("a", 8, seed=1)

    z = Tensor(rng.uniform(-1, 1, (2, 8, 5, 7)).astype(np.float32))
    attn = attention_probs(block, z)
    npt.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-5)

    out = block.forward(z)  # output projection is zero at init
    npt.assert_array_equal(out.data, z.data)

    block.out_w.data = rng.uniform(-0.5, 0.5, block.out_w.shape).astype(np.float32)
    n, c, h, w = z.shape
    perm = rng.permutation(h * w)
    z_perm = Tensor(z.data.reshape(n, c, h * w)[:, :, perm].reshape(n, c, h, w))
    out_ref = block.forward(z).data.reshape(n, c, h * w)
    out_perm = block.forward(z_perm).data.reshape(n, c, h * w)
    npt.assert_allclose(out_perm[:, :, np.argsort(perm)], out_ref, atol=1e-5)

    elapsed = time.time() - start
    assert elapsed < 5.0
    report(f"2 non-local block invariants: PASS (rows stochastic, zero-init identity, "
           f"permutation equivariant; {elapsed:.2f}s)")


def test_criterion_3_drb_invariants():
    start = time.time()
    rng = np.random.default_rng(0)
    channels = 16
    block = DenseResidualBlock("d", channels, seed=2)

    x = Tensor(rng.uniform(-1, 1, (1, channels, 8, 8)).astype(np.float32))
    assert block.forward(x).shape == x.shape

    for layer_index, weight in enumerate(
            (block.layer1_w, block.layer2_w, block.layer3_w), start=1):
        assert weight.shape == (channels, channels * layer_index, 3, 3)

    for p in block.parameters():
        if not p.name.endswith("slope"):
            p.data[:] = 0
    npt.assert_array_equal(block.forward(x).data, x.data)

    elapsed = time.time() - start
    assert elapsed < 5.0
    report(f"3 dense residual block invariants: PASS (shape preserved, layer widths "
           f"{channels}/{2*channels}/{3*channels}, zero-weight identity; {elapsed:.2f}s)")


def test_criterion_4_architecture_shapes():
    start = time.time()
    m, s = 2, 5
    extent = 2 ** m * s
    x = Tensor(np.random.default_rng(0).uniform(0, 1, (1, 3, extent, extent)).astype(np.float32))
    for gc in (False, True):
        for lc in (False, True):
            net = EnhancementNetwork(
                NetworkConfig(m, 4, use_global_context=gc, use_local_context=lc), seed=0)
            with op_census() as counts, Tape() as tape:
                out = net.forward(x)
                joins = multi_input_convs(tape)
            assert out.shape == x.shape
            structure = net.structure()
            assert structure["attention_blocks"] == (1 if gc else 0)
            assert structure["dense_blocks"] == ((2 * m + 1) if lc else 0)
            assert counts.get("attention", 0) == (1 if gc else 0)
            # multi-input convolutions: the decoder's (upsampled, skip)
            # joins, then each dense block's layers 2 and 3
            expected = [2] * m + ([2, 3] * (2 * m + 1) if lc else [])
            assert sorted(joins) == sorted(expected)
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(f"4 architecture shape contract: PASS (4 variants map {extent}x{extent} "
           f"to itself, census matches flags; {elapsed:.2f}s)")


def test_criterion_5_overfit(tmp_path):
    start = time.time()
    data_root = tmp_path / "overfit_data"
    (data_root / "input").mkdir(parents=True)
    (data_root / "target").mkdir(parents=True)
    dark, bright = synthetic_pair(64, seed=5)
    save_image(Image(dark), data_root / "input" / "pair.png")
    save_image(Image(bright), data_root / "target" / "pair.png")

    config = NetworkConfig(num_stages=2, base_channels=8)
    net = EnhancementNetwork(config, seed=0)
    optimizer = Adam()
    schedule = StepDecaySchedule(initial_lr=1e-3, decay_every=10_000, total_iters=2000)
    spec = AugmentSpec(crop_size=64, enable_flip=False, enable_rotation=False)
    stream = SampleStream(scan_dataset(data_root), spec, seed=0)
    params = net.parameters()

    reached_at = None
    for i in range(2000):
        xb, yb = stream.batch(i)
        with Tape():
            out = net.forward(Tensor(xb))
            loss = l1_loss(out, Tensor(yb))
            backward(loss)
        optimizer.step(params, schedule.lr_at(i))
        if (i + 1) % 50 == 0:
            result = np.clip(out.data[0].transpose(1, 2, 0), 0, 1)
            if psnr(result, bright) > 30.0:
                reached_at = i + 1
                break
    elapsed = time.time() - start
    assert reached_at is not None, "PSNR never exceeded 30 dB within 2000 iterations"
    assert elapsed < 600.0, f"overfit run took {elapsed:.0f}s"
    final_psnr = psnr(np.clip(out.data[0].transpose(1, 2, 0), 0, 1), bright)

    # trained-network tiled inference agrees with the untiled pass
    big_dark, _ = synthetic_pair(96, seed=5)
    img = Image(big_dark)
    full = enhance(net, img).pixels
    tiled = enhance(net, img, tile=64).pixels
    seam = float(np.abs(full - tiled).max())
    assert seam < 2.0 / 255.0, f"tiled/untiled difference {seam * 255:.2f}/255"

    report(f"5 overfit: PASS (PSNR {final_psnr:.1f} dB at iteration {reached_at} <= 2000, "
           f"{elapsed:.0f}s; tiled-vs-untiled {seam * 255:.3f}/255)")


def test_criterion_6_optimizer():
    # first Adam step approximates -lr * sign(g); the eps = 1e-8 floor makes
    # the exact step -lr * g / (|g| + eps), so the sign approximation carries
    # a deviation of eps / (|g| + eps)
    lr = 1e-4
    for g in (0.05, -0.05, 0.1, -0.5, 1.0, -3.0, 10.0):
        p = Parameter("p", np.zeros((1, 1, 1, 1), dtype=np.float32))
        p.grad = np.full((1, 1, 1, 1), g, dtype=np.float32)
        Adam().step([p], lr=lr)
        delta = float(p.data.ravel()[0])
        assert abs(delta - (-lr * np.sign(g))) / lr < 1e-6, f"g={g}: delta={delta}"
    for g in (1e-3, -1e-3, 1e-2):
        p = Parameter("p", np.zeros((1, 1, 1, 1), dtype=np.float32))
        p.grad = np.full((1, 1, 1, 1), g, dtype=np.float32)
        Adam().step([p], lr=lr)
        delta = float(p.data.ravel()[0])
        exact = -lr * g / (abs(g) + 1e-8)
        assert delta == pytest.approx(exact, rel=1e-5)

    sched = StepDecaySchedule()
    assert sched.lr_at(0) == 1e-4
    assert sched.lr_at(128_000) == 5e-5
    report("6 optimizer: PASS (first step = -lr*sign(g) within 1e-6 for |g| >= 0.05, "
           "exact eps form verified down to 1e-3; schedule 1e-4 @ 0, 5e-5 @ 128000)")


def test_criterion_7_metrics():
    a = np.zeros((16, 16, 3), dtype=np.float32)
    assert psnr(a, a + 0.5) == pytest.approx(6.0206, abs=1e-3)
    b = np.full((16, 16, 3), 0.4, dtype=np.float32)
    assert psnr(b, b + np.float32(0.1)) == pytest.approx(20.0, abs=1e-3)

    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (16, 16, 3)).astype(np.float32)
    assert ssim(img, img) == 1.0

    worst = 0.0
    for seed in range(10):
        r = np.random.default_rng(seed)
        x = r.uniform(0, 1, (16, 16, 3)).astype(np.float32)
        y = np.clip(x + r.normal(0, 0.1, x.shape), 0, 1).astype(np.float32)
        worst = max(worst, abs(ssim(x, y) - ssim_reference(x, y)))
    assert worst < 1e-4
    report(f"7 metrics: PASS (PSNR closed forms exact to 1e-3, SSIM(a,a)=1, "
           f"SSIM vs reference oracle within {worst:.1e} on 10 pairs)")


def test_criterion_8_persistence_and_determinism(tmp_path):
    data_root = tmp_path / "data"
    write_dataset(data_root, size=24)

    # checkpoint round-trip, including optimizer state
    config = tiny_config(data_root, tmp_path / "run_a", iters=20)
    result_a = train(config)
    ckpt = load(result_a.final_checkpoint)
    blob = serialize(ckpt)
    again = deserialize(blob)
    assert serialize(again) == blob
    for name, arr in ckpt.tensors.items():
        npt.assert_array_equal(again.tensors[name], arr)
    for name, arr in ckpt.optimizer_tensors.items():
        npt.assert_array_equal(again.optimizer_tensors[name], arr)

    # identical loss CSV across two runs
    train(tiny_config(data_root, tmp_path / "run_b", iters=20))
    assert ((tmp_path / "run_a" / "loss_log.csv").read_bytes()
            == (tmp_path / "run_b" / "loss_log.csv").read_bytes())

    # resume at k reproduces the uninterrupted run
    half = tiny_config(data_root, tmp_path / "run_r", iters=10)
    train(half)
    resumed = train(tiny_config(data_root, tmp_path / "run_r", iters=20),
                    resume=tmp_path / "run_r" / "checkpoint_final.ckpt")
    full_rows = {it: loss for it, _, loss in result_a.loss_rows}
    assert all(full_rows[it] == loss for it, _, loss in resumed.loss_rows)
    ck_full = load(result_a.final_checkpoint)
    ck_res = load(resumed.final_checkpoint)
    for name, arr in ck_full.tensors.items():
        npt.assert_array_equal(arr, ck_res.tensors[name])

    report("8 persistence & determinism: PASS (bit-exact checkpoint round-trip, "
           "identical loss CSV across runs, resume = uninterrupted)")


def test_criterion_9_codec():
    rng = np.random.default_rng(0)
    for trial in range(100):
        h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        arr = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        img = Image.from_u8(arr)
        npt.assert_array_equal(decode_png(encode_png(img)).to_u8(), arr)
        npt.assert_array_equal(decode_ppm(encode_ppm(img)).to_u8(), arr)

    blob = encode_png(Image.from_u8(rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)))
    with pytest.raises(ImageParseError, match="offset"):
        decode_png(blob[:25])
    corrupted = bytearray(blob)
    corrupted[45] ^= 0x5A
    with pytest.raises(ImageParseError, match="offset"):
        decode_png(bytes(corrupted))
    with pytest.raises(ImageParseError, match="offset"):
        decode_ppm(b"P6\n8 8\n255\n" + bytes(10))

    report("9 codec: PASS (100 random images round-trip PNG and PPM losslessly, "
           "malformed inputs rejected with positioned errors)")
