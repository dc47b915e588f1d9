"""Adam optimizer and the step-decay learning-rate schedule."""

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ContractError, Parameter

# Adam walks its flat buffers in slices of this many elements, so a slice's
# parameters, gradient, moments and two scratch buffers stay in cache
# across its elementwise passes.
_SLICE_ELEMENTS = 2 ** 16

# Adam's moment decay rates and the denominator's epsilon.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class StepDecaySchedule:
    """Piecewise-constant schedule: lr(i) = initial_lr / decay_factor**(i // decay_every)."""

    initial_lr: float = 1e-4
    decay_factor: float = 2.0
    decay_every: int = 128_000
    total_iters: int = 640_000

    def lr_at(self, iteration: int) -> float:
        if iteration < 0:
            raise ValueError(f"iteration must be non-negative, got {iteration}")
        return self.initial_lr / self.decay_factor ** (iteration // self.decay_every)


def _slice_as(buf: np.ndarray, start: int, like: np.ndarray) -> np.ndarray:
    """``buf`` from element ``start`` on, seen with ``like``'s shape and strides."""
    return np.ndarray(like.shape, buf.dtype, buf, start * buf.itemsize, like.strides)


class Adam:
    """Adam with bias correction over one arena of four flat buffers.

    ``Adam(params)`` copies the parameters into ``values``, next to
    ``grads`` and the moments ``m`` and ``v`` (zeros), all of the
    parameters' one dtype, and rebinds each ``p.data`` and ``p.grad`` to a
    view of its slice with the strides it had, so conv weights stay
    tap-ordered and ``backward`` sums into the gradient views. No weight
    decay and no gradient clipping. A step updates the whole arena and
    zeroes the gradients.
    """

    def __init__(self, params: list[Parameter]):
        dtypes = {p.dtype for p in params}
        if len(dtypes) != 1:
            raise ContractError(
                f"Adam's parameters must share one dtype, got {sorted(map(str, dtypes))}")
        size, dtype = sum(p.size for p in params), dtypes.pop()
        self.values, self.grads, self.m, self.v = (np.zeros(size, dtype) for _ in range(4))
        self.step_count = 0
        self._slots = []  # (parameter, its first element, its data and grad views)
        start = 0
        for p in params:
            like = np.empty_like(p.data)  # dense, in p's memory order
            data, grad = (_slice_as(buf, start, like) for buf in (self.values, self.grads))
            data[...] = p.data
            p.data, p.grad = data, grad
            self._slots.append((p, start, data, grad))
            start += p.size

    def moments(self) -> dict[str, np.ndarray]:
        """``m`` and ``v`` seen as each parameter, named ``m.<name>`` and ``v.<name>``."""
        return {f"{key}.{p.name}": _slice_as(buf, start, data)
                for key, buf in (("m", self.m), ("v", self.v)) for p, start, data, _ in self._slots}

    # perfbench's tracer reads ``params`` (``args[1]``) to count the bytes a step moves
    def step(self, params: list[Parameter], lr: float):
        if not 0 < lr < math.inf:  # NaN included
            raise ContractError(f"learning rate must be finite and positive, got {lr}")
        if len(params) != len(self._slots):
            raise ContractError(f"Adam holds {len(self._slots)} parameters, got {len(params)}")
        for p, (held, _, data, grad) in zip(params, self._slots):
            if p is not held or p.data is not data or p.grad is not grad:
                raise ContractError(
                    f"parameter {p.name!r} is not in Adam's arena: not the parameter "
                    f"Adam was built on at its place, or its data or grad was rebound")
        self.step_count += 1
        t = self.step_count
        for start in range(0, self.values.size, _SLICE_ELEMENTS):
            data, g, m, v = (a[start:start + _SLICE_ELEMENTS]
                             for a in (self.values, self.grads, self.m, self.v))
            # lr * m_hat / (sqrt(v_hat) + eps), evaluated in two scratch
            # buffers with the same roundings as the plain expression
            step = np.multiply(g, 1 - _BETA1)
            m *= _BETA1
            m += step
            np.square(g, out=step)
            g.fill(0)  # read for the last time: the next backward sums into zeros
            step *= 1 - _BETA2
            v *= _BETA2
            v += step
            np.divide(m, 1 - _BETA1 ** t, out=step)
            step *= lr
            denom = np.divide(v, 1 - _BETA2 ** t)
            np.sqrt(denom, out=denom)
            denom += _EPS
            step /= denom
            data -= step
