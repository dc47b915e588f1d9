"""Adam update rule and the step-decay schedule."""

import numpy as np
import numpy.testing as npt
import pytest

from cenet import optim, training
from cenet.blocks import EnhancementNetwork, NetworkConfig
from cenet.checkpoint import deserialize, serialize
from cenet.optim import Adam, StepDecaySchedule
from cenet.tensor import ContractError, Parameter, Tape, Tensor, backward, l1_loss


def make_param(value, grad=None, name="p"):
    p = Parameter(name, np.full((1, 1, 1, 1), value, dtype=np.float32))
    if grad is not None:
        p.grad = np.full((1, 1, 1, 1), grad, dtype=np.float32)
    return p


def plain_adam_update(data, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam's step t written out as in the paper, updating the arrays in place."""
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * np.square(g)
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    data -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(data.dtype)


def assert_matches_plain_update(params, opt, ref):
    for p in params:
        data, m, v = ref[p.name]
        npt.assert_array_equal(p.data, data, err_msg=p.name)
        npt.assert_array_equal(opt.m[p.name], m, err_msg=p.name)
        npt.assert_array_equal(opt.v[p.name], v, err_msg=p.name)


class TestAdam:
    @pytest.mark.parametrize("g", [0.05, -0.05, 0.1, -1.0, 3.0, -10.0])
    def test_first_step_is_signed_lr(self, g):
        # measured from p = 0 so float32 storage does not quantize the step
        p = make_param(0.0, grad=g)
        Adam().step([p], lr=1e-4)
        delta = float(p.data.ravel()[0])
        expected = -1e-4 * np.sign(g)
        assert delta == pytest.approx(expected, rel=1e-6)

    def test_first_step_exact_form(self):
        # exact first step is -lr * g / (|g| + eps); at |g| = 1e-3 the
        # deviation from -lr*sign(g) is eps/(|g|+eps), about 1e-5 relative
        for g in (1e-3, -1e-3, 0.37):
            p = make_param(0.0, grad=g)
            Adam().step([p], lr=1e-4)
            expected = -1e-4 * g / (abs(g) + 1e-8)
            assert float(p.data.ravel()[0]) == pytest.approx(expected, rel=1e-5)

    def test_spec_scalar_example(self):
        # g = 3, lr = 1e-4: the step is -1e-4 to well within 1e-8
        p = make_param(0.0, grad=3.0)
        Adam().step([p], lr=1e-4)
        assert abs(float(p.data.ravel()[0]) + 1e-4) < 1e-8

    def test_zero_gradient_leaves_parameter(self):
        p = make_param(0.75)
        opt = Adam()
        for _ in range(5):
            p.grad = np.zeros((1, 1, 1, 1), dtype=np.float32)
            opt.step([p], lr=1e-2)
        assert float(p.data.ravel()[0]) == 0.75

    def test_descends_quadratic(self):
        # f(p) = p^2, gradient 2p, starting at 1
        p = make_param(1.0)
        opt = Adam()
        values = [1.0]
        for _ in range(10):
            p.grad = 2.0 * p.data
            opt.step([p], lr=0.05)
            values.append(float(p.data.ravel()[0]) ** 2)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_missing_gradient_names_parameter(self):
        good = make_param(1.0, grad=1.0, name="fine")
        bad = make_param(1.0, name="enc0.bb.conv1.weight")
        with pytest.raises(ContractError, match="enc0.bb.conv1.weight"):
            Adam().step([good, bad], lr=1e-4)

    def test_gradients_cleared_after_step(self):
        p = make_param(1.0, grad=1.0)
        opt = Adam()
        opt.step([p], lr=1e-4)
        assert p.grad is None

    def test_step_counter_and_moments(self):
        p = make_param(1.0, grad=0.5)
        opt = Adam()
        opt.step([p], lr=1e-4)
        p.grad = np.full((1, 1, 1, 1), -0.5, dtype=np.float32)
        opt.step([p], lr=1e-4)
        assert opt.step_count == 2
        assert (opt.v["p"] >= 0).all()

    def test_rescale_invariance(self):
        # doubling all gradients changes the first-step update by
        # eps/(2|g|+eps); below 1e-5 across |g| >= 1e-3 and below 1e-6
        # once |g| >= 1e-2
        for g, tol in ((1e-3, 1e-5), (1e-2, 1e-6), (0.3, 1e-6), (5.0, 1e-6)):
            p1 = make_param(0.0, grad=g)
            p2 = make_param(0.0, grad=2 * g)
            Adam().step([p1], lr=1e-4)
            Adam().step([p2], lr=1e-4)
            u1 = float(p1.data.ravel()[0])
            u2 = float(p2.data.ravel()[0])
            assert abs(u2 - u1) / abs(u1) < tol

    def test_in_place_update_matches_plain_formula(self):
        net = EnhancementNetwork(NetworkConfig(num_stages=2, base_channels=8), seed=0)
        params = net.parameters()
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(0, 1, (1, 3, 16, 16)).astype(np.float32))
        target = Tensor(rng.uniform(0, 1, (1, 3, 16, 16)).astype(np.float32))
        lr = 1e-3
        ref = {p.name: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
               for p in params}
        opt = Adam()
        for t in range(1, 51):
            with Tape():
                backward(l1_loss(net.forward(x), target))
            for p in params:
                plain_adam_update(*ref[p.name], p.grad, t, lr)
            opt.step(params, lr=lr)
        assert_matches_plain_update(params, opt, ref)

    def test_sliced_update_matches_plain_formula(self, monkeypatch):
        # 16-element slices: every parameter spans several, the last ragged
        monkeypatch.setattr(optim, "_SLICE_ELEMENTS", 16)
        rng = np.random.default_rng(7)
        params = [Parameter(f"p{i}", rng.standard_normal(shape).astype(np.float32))
                  for i, shape in enumerate([(3, 5, 3, 3), (1, 7, 1, 1), (2, 3, 1, 1)])]
        ref = {p.name: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
               for p in params}
        opt = Adam()
        for t in range(1, 6):
            for p in params:
                p.grad = rng.standard_normal(p.shape).astype(np.float32)
                plain_adam_update(*ref[p.name], p.grad, t, 1e-2)
            opt.step(params, lr=1e-2)
        assert_matches_plain_update(params, opt, ref)

    def test_tap_ordered_step_is_bitwise_the_c_order_step(self):
        # Adam on tap-ordered weights with C-order gradients and moments, and
        # again after a checkpoint round trip of its state, against a twin
        # whose every array is in C order
        def networks():
            tapped = EnhancementNetwork(NetworkConfig(num_stages=1, base_channels=4), seed=0)
            twin = EnhancementNetwork(NetworkConfig(num_stages=1, base_channels=4), seed=0)
            for p in twin.parameters():
                p.data = p.data.copy()
            return tapped, twin

        def steps(pairs, count, rng):
            for _ in range(count):
                grads = [rng.standard_normal(p.shape).astype(np.float32)
                         for p in pairs[0][0].parameters()]
                for net, opt in pairs:
                    for p, g in zip(net.parameters(), grads):
                        p.grad = g.copy()
                    opt.step(net.parameters(), lr=1e-2)

        def assert_bitwise(pairs):
            (tapped, tapped_opt), (twin, twin_opt) = pairs
            for p, q in zip(tapped.parameters(), twin.parameters()):
                npt.assert_array_equal(p.data, q.data, err_msg=p.name)
                for moments, twin_moments in ((tapped_opt.m, twin_opt.m),
                                              (tapped_opt.v, twin_opt.v)):
                    npt.assert_array_equal(moments[p.name], twin_moments[q.name], err_msg=p.name)

        rng = np.random.default_rng(3)
        pairs = [(net, Adam()) for net in networks()]
        weight = pairs[0][0].encoder[0].basic.conv1.weight
        assert weight.data.transpose(2, 3, 0, 1).flags.c_contiguous
        assert not weight.data.flags.c_contiguous
        steps(pairs, 1, rng)
        for _, opt in pairs:  # moments handed back in C order
            opt.m = {name: m.copy() for name, m in opt.m.items()}
            opt.v = {name: v.copy() for name, v in opt.v.items()}
        steps(pairs, 2, rng)
        assert_bitwise(pairs)

        ckpt = deserialize(serialize(training.snapshot(*pairs[0], 3)))
        restored = [(net, Adam()) for net in networks()]
        for net, opt in restored:
            training.restore(ckpt, net, opt)
        for p in restored[0][0].parameters():  # restored moments take their parameter's layout
            axes = optim.memory_order(p.data)
            assert restored[0][1].m[p.name].transpose(axes).flags.c_contiguous, p.name
        steps(restored, 2, rng)
        assert_bitwise(restored)

    @pytest.mark.parametrize("lr", [0.0, -1e-4, float("nan")])
    def test_non_positive_lr_rejected(self, lr):
        p = make_param(0.5, grad=1.0)
        with pytest.raises(ContractError, match="learning rate"):
            Adam().step([p], lr=lr)
        assert float(p.data.ravel()[0]) == 0.5


class TestSchedule:
    def test_paper_values(self):
        sched = StepDecaySchedule()
        assert sched.lr_at(0) == 1e-4
        assert sched.lr_at(128_000) == 5e-5
        assert sched.lr_at(639_999) == 1e-4 / 16

    def test_breakpoints_exactly_at_multiples(self):
        sched = StepDecaySchedule(initial_lr=1.0, decay_factor=2.0, decay_every=10,
                                  total_iters=50)
        values = [sched.lr_at(i) for i in range(41)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        for i in range(40):
            if (i + 1) % 10 == 0:
                assert values[i + 1] == values[i] / 2
            else:
                assert values[i + 1] == values[i]

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            StepDecaySchedule().lr_at(-1)
