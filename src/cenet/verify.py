"""Finite-difference verification suite for all operators and block types.

Checks run in 64-bit arithmetic regardless of the training dtype. Input
samplers keep values away from the kinks of non-smooth operators (PReLU,
L1, max pooling) so central differences stay valid. Each check draws its
instance, probe and probed coordinates from its own generator, keyed by
the seed, the trial (for op cases) and the check's name, so a passing
suite is reproducible and no check's draws depend on the other checks.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor as tc
from .blocks import (BasicBlock, DenseResidualBlock, EnhancementNetwork, NetworkConfig,
                     NonLocalBlock, keyed_rng)
from .tensor import ContractError, Tape, Tensor, backward

# Relative-error bounds of the op checks and of the block and network checks.
_OP_TOL = 1e-4
_BLOCK_TOL = 1e-3
# Coordinates probed per parameter tensor in the block and network checks.
_BLOCK_COORDS = 25
_NETWORK_COORDS = 6


# Central-difference step of ``gradcheck``, in 64-bit arithmetic.
_GRADCHECK_STEP = 1e-5


def _corrupted(backward_fn):
    """``backward_fn`` with its first non-None gradient scaled by 1.02."""
    def faulty(up):
        grads = list(backward_fn(up))
        for i, g in enumerate(grads):
            if g is not None:
                grads[i] = g * 1.02
                break
        return tuple(grads)

    return faulty


@dataclass
class GradcheckResult:
    """Outcome of one analytic-vs-numeric gradient comparison."""

    name: str
    tolerance: float
    per_input: list[float] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max(self.per_input) if self.per_input else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def gradcheck(forward_fn, inputs, tol: float = 1e-4, rng=None, max_coords: int | None = None,
              name: str = "op", fault: str | None = None) -> GradcheckResult:
    """Compare analytic gradients against central finite differences.

    ``forward_fn()`` recomputes the output from the current contents of
    ``inputs``, which must be float64 tensors; differences are taken in
    64-bit arithmetic with step ``_GRADCHECK_STEP``. The analytic side is
    one vector-Jacobian product, ``backward`` seeded with a fixed random
    probe of the output's shape, and the numeric side differentiates the
    output's dot product with that probe, so the full Jacobian is
    exercised. With ``max_coords`` set, only a deterministic random subset
    of each input's coordinates is probed (needed to keep whole-network
    checks fast). Coordinates are drawn in row-major order of each input's
    shape and perturbed in place, whatever its memory layout. Failure is a
    report outcome, not an exception. With ``fault`` naming an op, that
    op's backward rules on this check's tape are corrupted, so the check
    must fail (a negative control).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    for t in inputs:
        if t.dtype != np.float64:
            raise ContractError("gradcheck inputs must be float64 tensors")
        t.grad = None

    with Tape() as tape:
        out = forward_fn()
        probe = rng.standard_normal(out.shape)
        for node in tape.nodes:
            if node.op_name == fault:
                node.backward_fn = _corrupted(node.backward_fn)
        backward(out, probe)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    def scalar_eval() -> float:
        return float((forward_fn().data * probe).sum())

    result = GradcheckResult(name=name, tolerance=tol)
    scale_floor = max(max(np.abs(a).max() for a in analytic), 1e-6)
    for t, a in zip(inputs, analytic):
        coords = np.arange(t.size)
        if max_coords is not None and t.size > max_coords:
            coords = rng.choice(t.size, size=max_coords, replace=False)
        worst = 0.0
        for c in zip(*np.unravel_index(coords, t.shape)):
            orig = t.data[c]
            t.data[c] = orig + _GRADCHECK_STEP
            f_plus = scalar_eval()
            t.data[c] = orig - _GRADCHECK_STEP
            f_minus = scalar_eval()
            t.data[c] = orig
            numeric = (f_plus - f_minus) / (2 * _GRADCHECK_STEP)
            ana = a[c]
            denom = max(abs(ana), abs(numeric), 1e-3 * scale_floor, 1e-12)
            worst = max(worst, abs(ana - numeric) / denom)
        result.per_input.append(worst)
    return result


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


def op_cases(seed: int, trial: int):
    """Yield (name, forward_fn, inputs, rng) for one random instance per op;
    ``rng`` drew the instance, and the case's gradcheck goes on to draw from it."""
    rng = keyed_rng(seed, f"{trial}.conv2d")
    n = int(rng.integers(1, 3))
    widths = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
    cout = int(rng.integers(1, 5))
    k = int(rng.choice([1, 3, 5]))
    h = int(rng.integers(1, 7))
    w = int(rng.integers(1, 7))
    # sometimes a decoder join: the first of several inputs at half the others' extents
    scale = 2 if len(widths) > 1 and rng.random() < 0.5 else 1
    xs = [_t(rng, (n, c, h, w) if j == 0 else (n, c, scale * h, scale * w))
          for j, c in enumerate(widths)]
    wt = _t(rng, (cout, sum(widths), k, k))
    b = _t(rng, (1, cout, 1, 1))
    slope = None
    if rng.random() < 0.5:  # the fused PReLU, with pre-activations off its kink
        slope = _t(rng, (1, cout, 1, 1))
        b.data = _bias_off_the_kink(tc.conv2d(tuple(xs), wt, Tensor(np.zeros_like(b.data))).data)
    # sometimes a residual sum: a skip added to the output
    skip = _t(rng, (n, cout, scale * h, scale * w)) if rng.random() < 0.5 else None
    yield ("conv2d", lambda: tc.conv2d(tuple(xs), wt, b, slope, skip),
           [*xs, wt, b] + [t for t in (slope, skip) if t is not None], rng)

    rng = keyed_rng(seed, f"{trial}.maxpool2d")
    xp = _pool_input(rng, (1, 2, 4, 6))
    yield ("maxpool2d", lambda: tc.maxpool2d(xp), [xp], rng)

    rng = keyed_rng(seed, f"{trial}.attention")
    qa, ka, va = (_t(rng, (2, 2, 3, 5)) for _ in range(3))
    yield ("attention", lambda: tc.attention(qa, ka, va), [qa, ka, va], rng)

    rng = keyed_rng(seed, f"{trial}.l1_loss")
    pred_data = rng.uniform(-1, 1, (1, 2, 3, 3))
    target_data = pred_data + _away_from_zero(rng.uniform(-0.5, 0.5, pred_data.shape), 5e-2)
    pred = Tensor(pred_data)
    target = Tensor(target_data)
    yield ("l1_loss", lambda: tc.l1_loss(pred, target), [pred], rng)


def op_names() -> list[str]:
    """The op names ``op_cases`` yields, in its order."""
    return [name for name, _, _, _ in op_cases(0, 0)]


def run_op_suite(trials: int = 20, seed: int = 0,
                 fault: str | None = None) -> list[GradcheckResult]:
    """Gradcheck every operator over ``trials`` random instances, with
    ``fault``'s backward rule corrupted when it names an op."""
    worst: dict[str, GradcheckResult] = {}
    for trial in range(trials):
        for name, forward_fn, inputs, rng in op_cases(seed, trial):
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
    opts = dict(tol=_BLOCK_TOL, max_coords=_BLOCK_COORDS, fault=fault)

    rng = keyed_rng(seed, "basic_block")
    basic = _float64(BasicBlock("bb", 3, 4, seed=seed))
    x = _t(rng, (1, 3, 6, 6))
    results.append(gradcheck(lambda: basic.forward(x), [x] + basic.parameters(),
                             rng=rng, name="basic_block", **opts))

    rng = keyed_rng(seed, "dense_residual_block")
    drb = _float64(DenseResidualBlock("drb", 4, seed=seed))
    xd = _t(rng, (1, 4, 6, 6))
    results.append(gradcheck(lambda: drb.forward(xd), [xd] + drb.parameters(),
                             rng=rng, name="dense_residual_block", **opts))

    rng = keyed_rng(seed, "nonlocal_block")
    attn = _float64(NonLocalBlock("attn", 4, seed=seed))
    # The output projection is zero at init; give it values so its path
    # is exercised too.
    attn.out.weight.data = rng.uniform(-0.5, 0.5, attn.out.weight.shape)
    xn = _t(rng, (1, 4, 4, 4))
    results.append(gradcheck(lambda: attn.forward(xn), [xn] + attn.parameters(),
                             rng=rng, name="nonlocal_block", **opts))
    return results


def run_network_check(seed: int = 0, fault: str | None = None) -> GradcheckResult:
    """End-to-end gradcheck of the full variant at tiny scale."""
    rng = keyed_rng(seed, "network")
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
