"""Finite-difference verification suite for all operators and block types.

Checks run in 64-bit arithmetic regardless of the training dtype. Input
samplers keep values away from the kinks of non-smooth operators (PReLU,
L1, max pooling) so central differences stay valid; all draws are seeded,
so a passing suite is reproducible.
"""

import numpy as np

from . import tensor as tc
from .blocks import BasicBlock, DenseResidualBlock, EnhancementNetwork, NetworkConfig, NonLocalBlock
from .tensor import GradcheckResult, Tensor, gradcheck

# Relative-error bounds of the op checks and of the block and network checks.
_OP_TOL = 1e-4
_BLOCK_TOL = 1e-3
# Coordinates probed per parameter tensor in the block and network checks.
_BLOCK_COORDS = 25
_NETWORK_COORDS = 6


def _t(rng, shape) -> Tensor:
    return Tensor(rng.uniform(-1.0, 1.0, shape))


def _float64(block):
    """``block`` with its parameters promoted to float64 in place."""
    for p in block.parameters():
        p.data = p.data.astype(np.float64)
    return block


def _away_from_zero(arr: np.ndarray, margin: float) -> np.ndarray:
    small = np.abs(arr) < margin
    arr[small] = margin * np.where(arr[small] < 0, -1.0, 1.0)
    return arr


def _bias_off_the_kink(pre: np.ndarray) -> np.ndarray:
    """A (1, C, 1, 1) bias that centres, per channel, the widest gap between
    the values of ``pre`` on zero, so that no biased value is near PReLU's
    kink. One value per channel is put 0.5 above zero."""
    c = pre.shape[1]
    values = np.sort(pre.transpose(1, 0, 2, 3).reshape(c, -1), axis=1)
    if values.shape[1] == 1:
        return 0.5 - values.reshape(1, c, 1, 1)
    widest = np.diff(values, axis=1).argmax(axis=1)
    rows = np.arange(c)
    middle = (values[rows, widest] + values[rows, widest + 1]) / 2
    return -middle.reshape(1, c, 1, 1)


def _pool_input(rng, shape) -> Tensor:
    """Pooling input whose 2x2 windows have well-separated values."""
    n, c, h, w = shape
    levels = np.linspace(-0.9, 0.9, 4)
    windows = np.empty((n, c, h // 2, w // 2, 4))
    flat = windows.reshape(-1, 4)
    for row in flat:
        row[:] = levels[rng.permutation(4)]
    windows += rng.uniform(-0.05, 0.05, windows.shape)
    data = windows.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return Tensor(data.reshape(shape))


def op_cases(rng: np.random.Generator):
    """Yield (name, forward_fn, inputs) for one random instance per op."""
    n = int(rng.integers(1, 3))
    widths = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
    cout = int(rng.integers(1, 5))
    k = int(rng.choice([1, 3, 5]))
    h = int(rng.integers(1, 7))
    w = int(rng.integers(1, 7))
    xs = [_t(rng, (n, c, h, w)) for c in widths]
    wt = _t(rng, (cout, sum(widths), k, k))
    b = _t(rng, (1, cout, 1, 1))
    slope = None
    if rng.random() < 0.5:  # the fused PReLU, with pre-activations off its kink
        slope = _t(rng, (1, cout, 1, 1))
        b.data = _bias_off_the_kink(tc.conv2d(tuple(xs), wt, Tensor(np.zeros_like(b.data))).data)
    yield ("conv2d", lambda: tc.conv2d(tuple(xs), wt, b, slope),
           [*xs, wt, b] + ([slope] if slope is not None else []))

    xp = _pool_input(rng, (1, 2, 4, 6))
    yield ("maxpool2d", lambda: tc.maxpool2d(xp), [xp])

    xu = _t(rng, (1, 2, 3, 4))
    yield ("upsample_nearest2x", lambda: tc.upsample_nearest2x(xu), [xu])

    aa = _t(rng, (1, 2, 3, 3))
    ab = _t(rng, (1, 2, 3, 3))
    yield ("add", lambda: tc.add(aa, ab), [aa, ab])

    qa, ka, va = (_t(rng, (2, 2, 3, 5)) for _ in range(3))
    yield ("attention", lambda: tc.attention(qa, ka, va), [qa, ka, va])

    pred_data = rng.uniform(-1, 1, (1, 2, 3, 3))
    target_data = pred_data + _away_from_zero(rng.uniform(-0.5, 0.5, pred_data.shape), 5e-2)
    pred = Tensor(pred_data)
    target = Tensor(target_data)
    yield ("l1_loss", lambda: tc.l1_loss(pred, target), [pred])

    xj = _t(rng, (1, 2, 2, 3))
    probe = rng.standard_normal(xj.shape)
    yield ("weighted_sum", lambda: tc.weighted_sum(xj, probe), [xj])


def op_names() -> list[str]:
    """The op names ``op_cases`` yields, in its order."""
    return [name for name, _, _ in op_cases(np.random.default_rng(0))]


def run_op_suite(trials: int = 20, seed: int = 0,
                 fault: str | None = None) -> list[GradcheckResult]:
    """Gradcheck every operator over ``trials`` random instances, with
    ``fault``'s backward rule corrupted when it names an op."""
    worst: dict[str, GradcheckResult] = {}
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        for name, forward_fn, inputs in op_cases(rng):
            result = gradcheck(forward_fn, inputs, tol=_OP_TOL, rng=rng, name=name,
                               fault=fault)
            best = worst.get(name)
            if best is None or result.max_rel_error > best.max_rel_error:
                worst[name] = result
    return list(worst.values())


def run_block_suite(seed: int = 0, fault: str | None = None) -> list[GradcheckResult]:
    """Gradcheck the three block types.

    Parameter sets are large, so a seeded subset of coordinates is probed
    per tensor.
    """
    results = []
    rng = np.random.default_rng((seed, 1000))
    opts = dict(tol=_BLOCK_TOL, rng=rng, max_coords=_BLOCK_COORDS, fault=fault)

    basic = _float64(BasicBlock("bb", 3, 4, seed=seed))
    x = _t(rng, (1, 3, 6, 6))
    results.append(gradcheck(lambda: basic.forward(x), [x] + basic.parameters(),
                             name="basic_block", **opts))

    drb = _float64(DenseResidualBlock("drb", 4, seed=seed))
    xd = _t(rng, (1, 4, 6, 6))
    results.append(gradcheck(lambda: drb.forward(xd), [xd] + drb.parameters(),
                             name="dense_residual_block", **opts))

    attn = _float64(NonLocalBlock("attn", 4, seed=seed))
    # The output projection is zero at init; give it values so its path
    # is exercised too.
    attn.out_w.data = rng.uniform(-0.5, 0.5, attn.out_w.shape)
    xn = _t(rng, (1, 4, 4, 4))
    results.append(gradcheck(lambda: attn.forward(xn), [xn] + attn.parameters(),
                             name="nonlocal_block", **opts))
    return results


def run_network_check(seed: int = 0, fault: str | None = None) -> GradcheckResult:
    """End-to-end gradcheck of the full variant at tiny scale."""
    rng = np.random.default_rng((seed, 2000))
    config = NetworkConfig(num_stages=2, base_channels=4)
    network = _float64(EnhancementNetwork(config, seed=seed))
    x = Tensor(rng.uniform(0.0, 1.0, (1, 3, 8, 8)))
    return gradcheck(lambda: network.forward(x), [x] + network.parameters(), tol=_BLOCK_TOL,
                     rng=rng, max_coords=_NETWORK_COORDS, name="network", fault=fault)


def run_full_suite(trials: int = 5, seed: int = 0,
                   fault: str | None = None) -> list[GradcheckResult]:
    """The gradcheck command's work list: ops, blocks, then the network."""
    results = run_op_suite(trials=trials, seed=seed, fault=fault)
    results += run_block_suite(seed=seed, fault=fault)
    results.append(run_network_check(seed=seed, fault=fault))
    return results


def format_report(results: list[GradcheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  max rel err {r.max_rel_error:.3e}  "
                     f"(tol {r.tolerance:g})  {status}")
    return "\n".join(lines)
