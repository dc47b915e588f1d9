"""Adam update rule and the step-decay schedule."""

import numpy as np
import numpy.testing as npt
import pytest

from cenet import optim, training
from cenet.blocks import EnhancementNetwork, NetworkConfig
from cenet.checkpoint import deserialize, serialize
from cenet.optim import Adam, StepDecaySchedule
from cenet.tensor import ContractError, Parameter, Tape, Tensor, backward, l1_loss


def make_param(value, grad=0.0, name="p"):
    """A one-element parameter, the Adam holding it, and its gradient set."""
    p = Parameter(name, np.full((1, 1, 1, 1), value, dtype=np.float32))
    opt = Adam([p])
    p.grad[...] = grad
    return p, opt


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
    moments = opt.moments()
    for p in params:
        data, m, v = ref[p.name]
        npt.assert_array_equal(p.data, data, err_msg=p.name)
        npt.assert_array_equal(moments[f"m.{p.name}"], m, err_msg=p.name)
        npt.assert_array_equal(moments[f"v.{p.name}"], v, err_msg=p.name)


class TestAdam:
    @pytest.mark.parametrize("g", [0.05, -0.05, 0.1, -1.0, 3.0, -10.0])
    def test_first_step_is_signed_lr(self, g):
        # measured from p = 0 so float32 storage does not quantize the step
        p, opt = make_param(0.0, grad=g)
        opt.step([p], lr=1e-4)
        delta = float(p.data.ravel()[0])
        expected = -1e-4 * np.sign(g)
        assert delta == pytest.approx(expected, rel=1e-6)

    def test_first_step_exact_form(self):
        # exact first step is -lr * g / (|g| + eps); at |g| = 1e-3 the
        # deviation from -lr*sign(g) is eps/(|g|+eps), about 1e-5 relative
        for g in (1e-3, -1e-3, 0.37):
            p, opt = make_param(0.0, grad=g)
            opt.step([p], lr=1e-4)
            expected = -1e-4 * g / (abs(g) + 1e-8)
            assert float(p.data.ravel()[0]) == pytest.approx(expected, rel=1e-5)

    def test_spec_scalar_example(self):
        # g = 3, lr = 1e-4: the step is -1e-4 to well within 1e-8
        p, opt = make_param(0.0, grad=3.0)
        opt.step([p], lr=1e-4)
        assert abs(float(p.data.ravel()[0]) + 1e-4) < 1e-8

    def test_zero_gradient_leaves_parameter(self):
        p, opt = make_param(0.75)
        for _ in range(5):
            p.grad[...] = 0
            opt.step([p], lr=1e-2)
        assert float(p.data.ravel()[0]) == 0.75

    def test_descends_quadratic(self):
        # f(p) = p^2, gradient 2p, starting at 1
        p, opt = make_param(1.0)
        values = [1.0]
        for _ in range(10):
            p.grad[...] = 2.0 * p.data
            opt.step([p], lr=0.05)
            values.append(float(p.data.ravel()[0]) ** 2)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_step_counter_and_moments(self):
        p, opt = make_param(1.0, grad=0.5)
        opt.step([p], lr=1e-4)
        p.grad[...] = -0.5
        opt.step([p], lr=1e-4)
        assert opt.step_count == 2
        assert (opt.v >= 0).all()

    def test_rescale_invariance(self):
        # doubling all gradients changes the first-step update by
        # eps/(2|g|+eps); below 1e-5 across |g| >= 1e-3 and below 1e-6
        # once |g| >= 1e-2
        for g, tol in ((1e-3, 1e-5), (1e-2, 1e-6), (0.3, 1e-6), (5.0, 1e-6)):
            p1, opt1 = make_param(0.0, grad=g)
            p2, opt2 = make_param(0.0, grad=2 * g)
            opt1.step([p1], lr=1e-4)
            opt2.step([p2], lr=1e-4)
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
        opt = Adam(params)
        for t in range(1, 51):
            with Tape():
                backward(l1_loss(net.forward(x), target))
            for p in params:
                plain_adam_update(*ref[p.name], p.grad, t, lr)
            opt.step(params, lr=lr)
        assert_matches_plain_update(params, opt, ref)

    def test_sliced_update_matches_plain_formula(self, monkeypatch):
        # 16-element slices of the 148-element arena: the first parameter
        # spans nine, one slice holds parts of all three, the last is ragged
        monkeypatch.setattr(optim, "_SLICE_ELEMENTS", 16)
        rng = np.random.default_rng(7)
        params = [Parameter(f"p{i}", rng.standard_normal(shape).astype(np.float32))
                  for i, shape in enumerate([(3, 5, 3, 3), (1, 7, 1, 1), (2, 3, 1, 1)])]
        ref = {p.name: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
               for p in params}
        opt = Adam(params)
        for t in range(1, 6):
            for p in params:
                p.grad[...] = rng.standard_normal(p.shape).astype(np.float32)
                plain_adam_update(*ref[p.name], p.grad, t, 1e-2)
            opt.step(params, lr=1e-2)
        assert_matches_plain_update(params, opt, ref)

    def test_restored_arena_steps_bitwise_like_the_uninterrupted_run(self):
        # a checkpoint round trip of the state after one step, restored into
        # a fresh network (of another seed) and arena, then two more steps on both
        def network(seed):
            return EnhancementNetwork(NetworkConfig(num_stages=1, base_channels=4), seed=seed)

        def steps(net, opt, grads):
            for step_grads in grads:
                for p, g in zip(net.parameters(), step_grads):
                    p.grad[...] = g
                opt.step(net.parameters(), lr=1e-2)

        rng = np.random.default_rng(3)
        run = network(0)
        run_opt = Adam(run.parameters())
        grads = [[rng.standard_normal(p.shape).astype(np.float32) for p in run.parameters()]
                 for _ in range(3)]
        steps(run, run_opt, grads[:1])
        ckpt = deserialize(serialize(training.snapshot(run, run_opt, 1)))
        restored = network(1)
        restored_opt = Adam(restored.parameters())
        training.restore(ckpt, restored, restored_opt)
        steps(run, run_opt, grads[1:])
        steps(restored, restored_opt, grads[1:])
        assert restored_opt.step_count == run_opt.step_count == 3
        for buf, restored_buf in ((run_opt.values, restored_opt.values),
                                  (run_opt.m, restored_opt.m), (run_opt.v, restored_opt.v)):
            npt.assert_array_equal(restored_buf, buf)

    def test_arena_holds_every_value_and_gradient(self):
        net = EnhancementNetwork(NetworkConfig(num_stages=1, base_channels=4), seed=0)
        params = net.parameters()
        before = {p.name: p.data.copy() for p in params}
        opt = Adam(params)
        assert opt.values.size == sum(p.size for p in params)
        for p in params:
            npt.assert_array_equal(p.data, before[p.name], err_msg=p.name)
            assert np.shares_memory(p.data, opt.values), p.name
            assert np.shares_memory(p.grad, opt.grads), p.name
        weight = net.encoder[0].basic.conv1.weight
        assert weight.data.transpose(2, 3, 0, 1).flags.c_contiguous
        assert weight.grad.transpose(2, 3, 0, 1).flags.c_contiguous

    def test_gradients_read_zero_after_step(self):
        net = EnhancementNetwork(NetworkConfig(num_stages=1, base_channels=4), seed=0)
        params = net.parameters()
        opt = Adam(params)
        x = Tensor(np.random.default_rng(0).uniform(0, 1, (1, 3, 8, 8)).astype(np.float32))
        with Tape():
            backward(l1_loss(net.forward(x), Tensor(np.zeros_like(x.data))))
        grads = [p.grad for p in params]
        assert opt.grads.any()
        opt.step(params, lr=1e-3)
        assert not opt.grads.any()
        assert all(p.grad is grad for p, grad in zip(params, grads))  # zeroed in place

    def test_mixed_dtypes_rejected(self):
        params = [Parameter("a", np.zeros((1, 1, 1, 1), np.float32)),
                  Parameter("b", np.zeros((1, 1, 1, 1), np.float64))]
        with pytest.raises(ContractError, match="one dtype"):
            Adam(params)

    @pytest.mark.parametrize("attr", ["data", "grad"])
    def test_rebound_parameter_named(self, attr):
        good, bad = (Parameter(name, np.ones((1, 2, 1, 1), np.float32))
                     for name in ("fine", "enc0.bb.conv1.weight"))
        opt = Adam([good, bad])
        setattr(bad, attr, np.ones((1, 2, 1, 1), np.float32))
        with pytest.raises(ContractError, match="'enc0.bb.conv1.weight'.*rebound"):
            opt.step([good, bad], lr=1e-4)
        assert opt.step_count == 0 and good.data[0, 0, 0, 0] == 1

    def test_other_parameter_list_rejected(self):
        params = [Parameter(name, np.ones((1, 2, 1, 1), np.float32)) for name in "ab"]
        stranger = Parameter("c", np.ones((1, 2, 1, 1), np.float32))
        opt = Adam(params)
        with pytest.raises(ContractError, match="'c'"):
            opt.step([params[0], stranger], lr=1e-4)
        with pytest.raises(ContractError, match="holds 2 parameters, got 1"):
            opt.step(params[:1], lr=1e-4)

    @pytest.mark.parametrize("lr", [0.0, -1e-4, float("nan")])
    def test_non_positive_lr_rejected(self, lr):
        p, opt = make_param(0.5, grad=1.0)
        with pytest.raises(ContractError, match="learning rate"):
            opt.step([p], lr=lr)
        assert float(p.data.ravel()[0]) == 0.5

    def test_infinite_lr_rejected_leaving_the_arena(self):
        # an infinite lr once wrote -inf and nan into the weights
        p, opt = make_param(0.5, grad=1.0)
        values = opt.values.copy()
        with pytest.raises(ContractError, match="finite and positive, got inf"):
            opt.step([p], lr=float("inf"))
        npt.assert_array_equal(opt.values, values)
        assert opt.step_count == 0


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
