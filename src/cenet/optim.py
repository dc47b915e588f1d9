"""Adam optimizer and the step-decay learning-rate schedule."""

from dataclasses import dataclass, field

import numpy as np

from .tensor import ContractError, Parameter

# Adam walks each parameter in slices of this many elements, so a slice's
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


def memory_order(a: np.ndarray) -> tuple[int, ...]:
    """``a``'s axes from the outermost in memory to the innermost: ``a``
    transposed by them is C-contiguous when ``a`` is dense."""
    return tuple(sorted(range(a.ndim), key=a.strides.__getitem__, reverse=True))


def copy_in_layout(a: np.ndarray, like: np.ndarray) -> np.ndarray:
    """A copy of ``a`` laid out in memory as ``like`` is."""
    out = np.empty_like(like, dtype=a.dtype)
    out[...] = a
    return out


def _moment(moments: dict[str, np.ndarray], p: Parameter, axes) -> np.ndarray:
    """``p``'s buffer in ``moments``: zeros at first, copied into ``p``'s
    layout (memory order ``axes``) when it has another."""
    buf = moments.get(p.name)
    if buf is None:
        buf = moments[p.name] = np.zeros_like(p.data)
    elif not buf.transpose(axes).flags.c_contiguous:
        buf = moments[p.name] = copy_in_layout(buf, p.data)
    return buf


@dataclass
class Adam:
    """Adam with bias correction; moment buffers are keyed by parameter name.

    No weight decay and no gradient clipping. After a step every
    parameter's gradient buffer is cleared. The state is plain arrays,
    each moment laid out in memory as its parameter is (a moment given in
    another layout is copied into that one at the next step);
    ``training.snapshot`` and ``training.restore`` name its checkpoint records.
    """

    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def step(self, params: list[Parameter], lr: float):
        if not lr > 0:  # NaN included
            raise ContractError(f"learning rate must be positive, got {lr}")
        for p in params:
            if p.grad is None:
                raise ContractError(f"parameter {p.name!r} has no gradient")
        self.step_count += 1
        t = self.step_count
        for p in params:
            # every array walked in the parameter's memory order: views of
            # the parameter and its moments, the gradient copied only when
            # its layout differs
            axes = memory_order(p.data)
            flat = [a.transpose(axes).reshape(-1) for a in
                    (p.data, p.grad, _moment(self.m, p, axes), _moment(self.v, p, axes))]
            for start in range(0, p.data.size, _SLICE_ELEMENTS):
                data, g, m, v = (a[start:start + _SLICE_ELEMENTS] for a in flat)
                # lr * m_hat / (sqrt(v_hat) + eps), evaluated in two scratch
                # buffers with the same roundings as the plain expression
                step = np.multiply(g, 1 - _BETA1)
                m *= _BETA1
                m += step
                np.square(g, out=step)
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
            p.grad = None
