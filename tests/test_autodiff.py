"""Tape semantics, backward rules, and the finite-difference harness."""

import ast
import gc
import inspect
import threading
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from cenet import tensor
from cenet.blocks import EnhancementNetwork
from cenet.config import desk_preset
from cenet.tensor import (
    ContractError,
    Tape,
    Tensor,
    _TapeNode,
    add,
    backward,
    conv2d,
    gradcheck,
    l1_loss,
    maxpool2d,
    op_census,
    upsample_nearest2x,
    weighted_sum,
)
from cenet.verify import op_cases, op_names, run_op_suite


def t4(data, dtype=np.float32):
    return Tensor(np.asarray(data, dtype=dtype))


def total(x):
    """Sum of all elements, as a scalar tensor on the tape."""
    return weighted_sum(x, np.ones(x.shape))


class TestBackward:
    def test_identity_chain(self):
        with Tape():
            x = t4(np.ones((1, 1, 1, 1)))
            loss = total(x)
            backward(loss)
        assert x.grad.ravel()[0] == 1.0

    def test_sum_of_scaled(self):
        with Tape():
            x = t4(np.ones((1, 1, 2, 2)))
            loss = weighted_sum(x, np.full(x.shape, 2.0))
            backward(loss)
        npt.assert_array_equal(x.grad, np.full((1, 1, 2, 2), 2.0))

    def test_accumulation_over_two_consumers(self):
        with Tape():
            y = t4(np.ones((1, 1, 2, 2)))
            loss = add(total(y), total(y))
            backward(loss)
        npt.assert_array_equal(y.grad, np.full((1, 1, 2, 2), 2.0))

    def test_accumulation_matches_single_path_doubling(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(-1, 1, (1, 2, 3, 3)).astype(np.float32)
        with Tape():
            y = Tensor(data.copy())
            loss = add(total(y), total(y))
            backward(loss)
        with Tape():
            z = Tensor(data.copy())
            loss2 = weighted_sum(z, np.full(z.shape, 2.0))
            backward(loss2)
        npt.assert_allclose(y.grad, z.grad, rtol=1e-6)

    def test_first_gradients_do_not_share_the_upstream_array(self):
        # add's backward hands one upstream array to both inputs; total(a)
        # is recorded first, so it adds into a's gradient after both were set
        with Tape():
            a, b = t4(np.ones((1, 1, 2, 2))), t4(np.ones((1, 1, 2, 2)))
            first = total(a)
            c = add(a, b)
            backward(add(total(c), first))
        assert not np.shares_memory(a.grad, b.grad)
        npt.assert_array_equal(a.grad, np.full((1, 1, 2, 2), 2.0))
        npt.assert_array_equal(b.grad, np.ones((1, 1, 2, 2)))
        assert c.grad is None  # released with its node once add's rule ran

    def test_first_gradients_are_c_contiguous(self):
        # conv2d's input and weight gradients are transposed views
        rng = np.random.default_rng(4)
        x, w = t4(rng.uniform(-1, 1, (2, 3, 5, 4))), t4(rng.uniform(-1, 1, (2, 3, 3, 3)))
        with Tape():
            backward(total(conv2d(x, w, t4(np.zeros((1, 2, 1, 1))))))
        assert x.grad.flags.c_contiguous and w.grad.flags.c_contiguous

    def test_non_scalar_loss_rejected(self):
        with Tape():
            x = t4(np.ones((1, 1, 2, 2)))
            y = add(x, x)
            with pytest.raises(ContractError):
                backward(y)

    def test_double_backward_rejected(self):
        with Tape():
            x = t4(np.ones((1, 1, 1, 1)))
            loss = total(x)
            backward(loss)
            with pytest.raises(ContractError):
                backward(loss)

    def test_loss_without_tape_rejected(self):
        loss = total(t4(np.ones((1, 1, 1, 1))))
        with pytest.raises(ContractError):
            backward(loss)

    def test_ops_outside_tape_do_not_record(self):
        x = t4(np.ones((1, 1, 1, 1)))
        y = add(x, x)
        assert y.tape_node is None

    def test_tape_and_census_are_per_thread(self):
        # an op in a second thread sees neither this thread's tape nor its census
        x = t4(np.ones((1, 1, 1, 1)))
        outs = []
        worker = threading.Thread(target=lambda: outs.append(add(x, x)))
        with Tape() as tape, op_census() as counts:
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert outs[0].tape_node is None and tape.nodes == [] and counts == {}


@contextmanager
def cyclic_garbage():
    """Run the body with the cyclic collector off and DEBUG_SAVEALL on.

    On a clean exit, the yielded list receives the type names of the tape
    objects that a collection then finds: garbage that reference counting
    alone could not free. Both settings are restored afterwards.
    """
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    found: list[str] = []
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield found
        gc.collect()
        found += sorted(type(o).__name__ for o in gc.garbage
                        if isinstance(o, (_TapeNode, Tensor, Tape)))
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()  # what DEBUG_SAVEALL kept is still cyclic: free it now
        if was_enabled:
            gc.enable()


class TestTapeRelease:
    """A finished tape is freed by reference counting alone."""

    @pytest.fixture
    def desk(self):
        network = EnhancementNetwork(desk_preset().network, seed=0)
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(0, 1, (1, 3, 16, 16)).astype(np.float32))
        target = Tensor(rng.uniform(0, 1, (1, 3, 16, 16)).astype(np.float32))
        return network, x, target

    def test_finished_tape_needs_no_cyclic_gc(self, desk):
        network, x, target = desk
        with cyclic_garbage() as garbage:
            with Tape():
                out = network.forward(x)
                loss = l1_loss(out, target)
                backward(loss)
            del out, loss
        assert garbage == []

    def test_tape_left_by_an_exception_needs_no_cyclic_gc(self, desk):
        network, x, target = desk

        def failing_step():
            with Tape():
                loss = l1_loss(network.forward(x), target)
                add(loss, t4(np.full(loss.shape, np.inf)))

        with cyclic_garbage() as garbage:
            with pytest.raises(ContractError, match="non-finite"):
                failing_step()
        assert garbage == []

    def test_grads_survive_tape_exit(self, desk):
        network, x, target = desk
        with cyclic_garbage() as garbage:
            with Tape():
                loss = l1_loss(network.forward(x), target)
                backward(loss)
            assert loss.tape_node is None
            assert x.grad is not None and x.grad.shape == x.shape
            assert target.grad is None
            for name, p in network.named_parameters().items():
                assert p.grad is not None and p.grad.shape == p.shape, name
            del loss
        assert garbage == []

    def test_tape_left_by_a_failing_rule_releases_every_node(self, desk):
        # the rule raises after backward released the nodes behind it, so the
        # exit walks a list that is partly None
        network, x, target = desk
        released = []

        def failing_step(outputs):
            with Tape() as tape:
                def failing_rule(up):
                    released.append(tape.nodes.count(None))
                    raise FloatingPointError("rule failed")

                loss = l1_loss(network.forward(x), target)
                outputs += [node.output for node in tape.nodes]
                convs = [node for node in tape.nodes if node.op_name == "conv2d"]
                convs[len(convs) // 2].backward_fn = failing_rule
                backward(loss)

        outputs = []
        with cyclic_garbage() as garbage:
            with pytest.raises(FloatingPointError, match="rule failed"):
                failing_step(outputs)
            assert 0 < released[0] < len(outputs)
            assert all(out.tape_node is None for out in outputs)
            del outputs
        assert garbage == []

    def test_backward_peaks_near_its_forward(self):
        # one desk training step at its crop of 64: the traced backward peaks
        # at about 1.2x the forward, against 1.7x while the tape kept every
        # node, saved array and intermediate gradient until its exit
        network = EnhancementNetwork(desk_preset().network, seed=0)
        rng = np.random.default_rng(0)
        x, target = rng.uniform(0, 1, (2, 1, 3, 64, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            with Tape():
                loss = l1_loss(network.forward(Tensor(x)), Tensor(target))
                forward_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                backward(loss)
                backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert backward_peak <= 1.3 * forward_peak, (backward_peak, forward_peak)

    def test_second_backward_inside_block_still_rejected(self, desk):
        network, x, target = desk
        with cyclic_garbage() as garbage:
            with Tape():
                loss = l1_loss(network.forward(x), target)
                backward(loss)
                with pytest.raises(ContractError, match="consumed"):
                    backward(loss)
            del loss
        assert garbage == []


class TestBackwardRules:
    def test_l1_gradient(self):
        with Tape():
            pred = t4(np.array([1.0, -2.0]).reshape(1, 1, 1, 2))
            target = t4(np.zeros((1, 1, 1, 2)))
            loss = l1_loss(pred, target)
            backward(loss)
        npt.assert_allclose(pred.grad.ravel(), [0.5, -0.5])
        assert target.grad is None

    def test_maxpool_routes_to_argmax_once(self):
        # constant windows: ties resolve to the first position, mass lands once
        with Tape():
            x = t4(np.zeros((1, 1, 4, 4)))
            loss = total(maxpool2d(x))
            backward(loss)
        windows = x.grad.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        npt.assert_array_equal(windows.sum(axis=1), [1, 1, 1, 1])
        npt.assert_array_equal(windows[:, 0], [1, 1, 1, 1])  # first element wins the tie

    def test_maxpool_mass_conservation(self):
        rng = np.random.default_rng(4)
        with Tape():
            x = t4(rng.uniform(-1, 1, (2, 3, 6, 6)))
            out = maxpool2d(x)
            loss = total(out)
            backward(loss)
        assert x.grad.sum() == pytest.approx(out.size)

    def test_upsample_backward_sums_blocks(self):
        with Tape():
            x = t4(np.ones((1, 1, 2, 2)))
            loss = total(upsample_nearest2x(x))
            backward(loss)
        npt.assert_array_equal(x.grad, np.full((1, 1, 2, 2), 4.0))

    def test_upsample_is_exact_adjoint(self):
        # <forward(x), y> == <x, backward(y)> for random x, y
        rng = np.random.default_rng(7)
        x_data = rng.uniform(-1, 1, (1, 2, 3, 4)).astype(np.float32)
        y_data = rng.uniform(-1, 1, (1, 2, 6, 8)).astype(np.float32)
        fx = upsample_nearest2x(Tensor(x_data)).data
        with Tape():
            x = Tensor(x_data)
            loss = weighted_sum(upsample_nearest2x(x), y_data)
            backward(loss)
        lhs = float((fx * y_data).sum())
        rhs = float((x_data * x.grad).sum())
        assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_conv_backward_example_grads(self):
        # zero-kernel conv: d(out)/d(bias) = count of output positions
        with Tape():
            x = t4(np.ones((1, 1, 4, 4)))
            w = t4(np.zeros((2, 1, 3, 3)))
            b = t4(np.zeros((1, 2, 1, 1)))
            loss = total(conv2d(x, w, b))
            backward(loss)
        npt.assert_array_equal(b.grad.ravel(), [16.0, 16.0])


class TestGradcheckHarness:
    def test_op_suite_passes(self):
        results = run_op_suite(trials=3)
        for r in results:
            assert r.passed, f"{r.name}: {r.max_rel_error}"

    def test_negative_control_fails(self):
        results = run_op_suite(trials=1, fault="conv2d")
        failed = {r.name for r in results if not r.passed}
        assert failed == {"conv2d"}

    def test_rejects_float32_inputs(self):
        x = t4(np.ones((1, 1, 1, 1)))
        with pytest.raises(ContractError):
            gradcheck(lambda: add(x, x), [x])

    def test_reports_every_input(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        y = Tensor(np.ones((1, 1, 2, 2)))
        result = gradcheck(lambda: add(x, y), [x, y], name="add")
        assert len(result.per_input) == 2
        assert result.passed

    def test_conv2d_case_checks_both_paths(self, monkeypatch):
        # over the gradcheck command's default five trials, some conv2d
        # cases fuse a PReLU and some do not
        fused, paths = [], set()
        plain_conv2d = tensor.conv2d

        def recorded(x, weight, bias, slope=None):
            fused.append(slope is not None)
            return plain_conv2d(x, weight, bias, slope)

        monkeypatch.setattr(tensor, "conv2d", recorded)
        for trial in range(5):
            cases = {name: fn for name, fn, _ in op_cases(np.random.default_rng((0, trial)))}
            fused.clear()
            cases["conv2d"]()
            paths.update(fused)
        assert paths == {False, True}


class TestCensus:
    def test_counts_ops(self):
        with op_census() as counts:
            x = t4(np.ones((1, 1, 2, 2)))
            add(x, x)
            add(x, x)
            total(x)
        assert counts["add"] == 2
        assert counts["weighted_sum"] == 1
        assert "conv2d" not in counts


def emitted_op_names() -> list[str]:
    """The op names ``tensor.py`` records through ``_emit``, read from its source."""
    calls = [node for node in ast.walk(ast.parse(inspect.getsource(tensor)))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_emit"]
    assert all(isinstance(call.args[0], ast.Constant) for call in calls)
    return [call.args[0].value for call in calls]


class TestOpCoverage:
    def test_every_recorded_op_has_one_gradcheck_case(self):
        emitted, checked = emitted_op_names(), op_names()
        assert len(set(emitted)) == len(emitted)
        assert len(set(checked)) == len(checked)
        assert set(emitted) == set(checked)

    def test_every_recorded_op_has_a_caller_besides_the_checker(self):
        # an op only its gradcheck case calls is dead code; bare names only,
        # so that np.matmul or a .reshape() call cannot stand in for an op
        called = {node.func.id for path in Path(tensor.__file__).parent.glob("*.py")
                  if path.name != "verify.py"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert set(emitted_op_names()) - called == set()
