"""Tape semantics, backward rules, and the finite-difference harness."""

import ast
import copy
import gc
import re
import threading
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from cenet import tensor, verify
from cenet.blocks import BasicBlock, Conv, EnhancementNetwork
from cenet.config import desk_preset
from cenet.tensor import (
    ContractError,
    Tape,
    Tensor,
    _TapeNode,
    backward,
    conv2d,
    l1_loss,
    maxpool2d,
)
from cenet.verify import GradcheckResult, gradcheck, op_cases, op_names, run_op_suite


def t4(data, dtype=np.float32):
    return Tensor(np.asarray(data, dtype=dtype))


def plus(a, b=None):
    """``a + b`` on the tape: a 1x1 identity convolution of ``a`` that adds
    ``b`` as its skip; ``a`` itself, as a new tensor, without ``b``."""
    c = a.shape[1]
    return conv2d(a, t4(np.eye(c).reshape(c, c, 1, 1), a.dtype),
                  t4(np.zeros((1, c, 1, 1)), a.dtype), skip=b)


class TestBackward:
    def test_identity_chain(self):
        with Tape():
            x = t4(np.ones((1, 1, 1, 1)))
            backward(plus(x), np.ones(x.shape))
        assert x.grad.ravel()[0] == 1.0

    def test_sum_of_scaled(self):
        with Tape():
            x = t4(np.ones((1, 1, 2, 2)))
            backward(plus(x), np.full(x.shape, 2.0))
        npt.assert_array_equal(x.grad, np.full((1, 1, 2, 2), 2.0))

    def test_accumulation_over_two_consumers(self):
        # y feeds the inner convolution and, as the skip, the outer one
        with Tape():
            y = t4(np.ones((1, 1, 2, 2)))
            backward(plus(plus(y), y), np.ones(y.shape))
        npt.assert_array_equal(y.grad, np.full((1, 1, 2, 2), 2.0))

    def test_accumulation_matches_single_path_doubling(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(-1, 1, (1, 2, 3, 3)).astype(np.float32)
        with Tape():
            y = Tensor(data.copy())
            backward(plus(plus(y), y), np.ones(y.shape))
        with Tape():
            z = Tensor(data.copy())
            backward(plus(z), np.full(z.shape, 2.0))
        npt.assert_allclose(y.grad, z.grad, rtol=1e-6)

    def test_first_gradients_do_not_share_the_upstream_array(self):
        # conv2d's backward hands its upstream array, here the seeded
        # output's gradient, to its skip s; plus(s) is recorded first, so it
        # adds into s's gradient after the outer conv's rule set it
        with Tape():
            s = t4(np.ones((1, 1, 1, 1)))
            first = plus(s)
            out = plus(first, s)
            backward(out, np.ones(out.shape))
            assert not np.shares_memory(s.grad, out.grad)
            npt.assert_array_equal(out.grad, np.ones((1, 1, 1, 1)))
        npt.assert_array_equal(s.grad, np.full((1, 1, 1, 1), 2.0))
        assert first.grad is None  # released with its node once its rule ran

    def test_the_callers_seed_never_becomes_a_tape_gradient(self):
        # backward seeds a copy: changing the seed afterwards changes neither
        # the output's gradient nor an input's
        seed = np.full((1, 1, 2, 2), 3.0, np.float32)
        with Tape():
            x = t4(np.ones((1, 1, 2, 2)))
            out = plus(x, x)
            backward(out, seed)
            assert not np.shares_memory(out.grad, seed) and out.grad.dtype == np.float32
            seed[...] = 5.0
            npt.assert_array_equal(out.grad, np.full(x.shape, 3.0))
        npt.assert_array_equal(x.grad, np.full(x.shape, 6.0))

    def test_first_gradients_take_their_tensors_layout(self):
        # C order for inputs and for a weight given in C order; tap order,
        # (k, k, Cout, Cin) in memory, for a network's weight
        rng = np.random.default_rng(4)
        x, w = t4(rng.uniform(-1, 1, (2, 3, 5, 4))), t4(rng.uniform(-1, 1, (2, 3, 3, 3)))
        conv = Conv("c", 3, 2, 3, seed=0)
        with Tape():
            out = plus(conv2d(x, w, t4(np.zeros((1, 2, 1, 1)))), conv.forward(x))
            backward(out, np.ones(out.shape))
        assert x.grad.flags.c_contiguous and w.grad.flags.c_contiguous
        assert conv.weight.data.transpose(2, 3, 0, 1).flags.c_contiguous
        assert conv.weight.grad.transpose(2, 3, 0, 1).flags.c_contiguous
        assert conv.weight.grad.shape == (2, 3, 3, 3)

    def test_taped_forward_keeps_no_copy_of_a_conv_weight(self):
        # the held bytes of a taped desk forward, against a twin whose weights
        # are held in C order and so copied into tap order per call and kept
        # on the tape; 1x1 weights are already tap-ordered in C order
        def held_after_forward(network):
            x = Tensor(np.random.default_rng(0).uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))
            tracemalloc.start()
            try:
                with Tape():
                    base = tracemalloc.get_traced_memory()[0]
                    out = network.forward(x)
                    held = tracemalloc.get_traced_memory()[0] - base
                    del out
            finally:
                tracemalloc.stop()
            return held

        tapped = EnhancementNetwork(desk_preset().network, seed=0)
        twin = EnhancementNetwork(desk_preset().network, seed=0)
        weights = [p for p in twin.parameters() if p.name.endswith(".weight")]
        for p in weights:
            p.data = p.data.copy()
        copied = sum(p.data.nbytes for p in weights if p.shape[2] > 1)
        assert copied > 400_000
        held_after_forward(tapped)  # the first forward allocates a few KB for good
        saved = held_after_forward(twin) - held_after_forward(tapped)
        assert abs(saved - copied) < 0.02 * copied, (saved, copied)

    def test_non_scalar_loss_rejected(self):
        with Tape():
            x = t4(np.ones((1, 1, 2, 2)))
            y = plus(x, x)
            with pytest.raises(ContractError, match=re.escape(
                    "backward() requires a scalar loss, got shape (1, 1, 2, 2)")):
                backward(y)

    def test_double_backward_rejected(self):
        with Tape():
            x = t4(np.ones((1, 1, 1, 1)))
            out = plus(x)
            backward(out, np.ones(out.shape))
            with pytest.raises(ContractError):
                backward(out, np.ones(out.shape))

    def test_loss_without_tape_rejected(self):
        out = plus(t4(np.ones((1, 1, 1, 1))))
        with pytest.raises(ContractError):
            backward(out, np.ones(out.shape))

    def test_tape_exited_out_of_order_is_an_error(self):
        outer, inner = Tape(), Tape()
        with outer:
            inner.__enter__()
            try:
                with pytest.raises(ContractError, match="^tape context exited out of order$"):
                    outer.__exit__(None, None, None)
            finally:
                inner.__exit__(None, None, None)

    def test_ops_outside_tape_do_not_record(self):
        x = t4(np.ones((1, 1, 1, 1)))
        y = plus(x, x)
        assert y.tape_node is None

    def test_tape_is_per_thread(self):
        # an op in a second thread does not see this thread's tape
        x = t4(np.ones((1, 1, 1, 1)))
        outs = []
        worker = threading.Thread(target=lambda: outs.append(plus(x, x)))
        with Tape() as tape:
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert outs[0].tape_node is None and tape.nodes == []


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
                plus(loss, t4(np.full(loss.shape, np.inf)))

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


def desk_step(network, crop=64):
    """One taped float32 desk step's loss, and the traced bytes its forward
    leaves held."""
    rng = np.random.default_rng(0)
    x, target = rng.uniform(0, 1, (2, 1, 3, crop, crop)).astype(np.float32)
    tracemalloc.start()
    try:
        with Tape():
            base = tracemalloc.get_traced_memory()[0]
            loss = l1_loss(network.forward(Tensor(x)), Tensor(target))
            held = tracemalloc.get_traced_memory()[0] - base
            backward(loss)
    finally:
        tracemalloc.stop()
    return loss, held


def without_twins(monkeypatch):
    """Record every op's returned tensor on the tape, as if no output could
    be rebuilt: the tape then holds each PReLU output beside its
    pre-activation."""
    emit = tensor._emit
    monkeypatch.setattr(tensor, "_emit", lambda *args, rebuild=None: emit(*args[:4]))


class TestEvict:
    """The tape holds a PReLU conv2d output without a skip as a twin with no
    values, rebuilt from the pre-activation its node keeps."""

    @pytest.fixture
    def prelu_conv(self):
        rng = np.random.default_rng(1)
        x = t4(rng.uniform(-1, 1, (2, 3, 6, 5)))
        w = t4(rng.uniform(-1, 1, (4, 3, 3, 3)))
        b = t4(rng.uniform(-1, 1, (1, 4, 1, 1)))
        slope = t4(np.array([-0.0, 0.0, -1.5, 0.25]).reshape(1, 4, 1, 1))
        return x, w, b, slope

    def test_desk_step_gradients_bitwise_equal_without_eviction(self, monkeypatch):
        evicting = EnhancementNetwork(desk_preset().network, seed=0)
        loss, _ = desk_step(evicting)
        without_twins(monkeypatch)
        keeping = EnhancementNetwork(desk_preset().network, seed=0)
        twinless_loss, _ = desk_step(keeping)
        assert loss.item() == twinless_loss.item()
        for p, q in zip(evicting.parameters(), keeping.parameters()):
            npt.assert_array_equal(p.grad, q.grad, err_msg=p.name)

    def test_taped_desk_forward_holds_under_062_of_its_no_evict_twin(self, monkeypatch):
        # four of a stage's five convolutions end in a PReLU; each output is
        # held once, as its pre-activation, instead of twice
        desk_step(EnhancementNetwork(desk_preset().network, seed=0))  # first-call allocations
        _, held = desk_step(EnhancementNetwork(desk_preset().network, seed=0))
        without_twins(monkeypatch)
        _, twinless_held = desk_step(EnhancementNetwork(desk_preset().network, seed=0))
        assert held <= 2.5e6 and held <= 0.62 * twinless_held, (held, twinless_held)

    def test_taped_desk_forward_without_local_context_holds_no_stage_output(self):
        # each stage ends in a PReLU convolution, whose output the forward
        # drops at its last reader; 1.50 MB while the tape held them all
        config = replace(desk_preset().network, use_local_context=False)
        desk_step(EnhancementNetwork(config, seed=0))  # first-call allocations
        _, held = desk_step(EnhancementNetwork(config, seed=0))
        assert held <= 0.8 * 1.50e6, held

    def test_evicted_output_keeps_its_shape_and_is_rebuilt_bitwise(self, prelu_conv):
        x, w, b, slope = prelu_conv
        with Tape():
            out = conv2d(x, w, b, slope)
            twin = tensor._recorded(out)
            assert twin is not out and twin.tape_node is out.tape_node is not None
            assert twin.shape == out.shape and twin.dtype == out.dtype
            assert not twin.data.flags.writeable and np.isnan(twin.data).all()
            rebuilt = tensor._values(twin)
            assert tensor._values(twin) is rebuilt is twin.data  # rebuilt once
        npt.assert_array_equal(rebuilt.view(np.uint32), out.data.view(np.uint32))

    def test_refuses_what_it_cannot_rebuild(self, prelu_conv):
        # only a PReLU output without a skip is rebuilt from a pre-activation
        x, w, b, slope = prelu_conv
        with Tape():
            linear = conv2d(x, w, b)
            summed = conv2d(x, w, b, slope, skip=linear)
            pooled = maxpool2d(t4(x.data[..., :4]))
            for t in (x, linear, summed, pooled):
                assert tensor._recorded(t) is t

    def test_does_nothing_without_a_tape(self, prelu_conv):
        x, w, b, slope = prelu_conv
        out = conv2d(x, w, b, slope)
        assert out.tape_node is None and tensor._recorded(out) is out
        assert out.data.flags.writeable and np.isfinite(out.data).all()

    def test_a_prelu_output_as_the_loss_seeds_its_twin(self, prelu_conv, monkeypatch):
        # a 1x1 sum of three channels below zero, so the gain is the slope
        x = t4(np.array([-1.0, 0.5, -2.0]).reshape(1, 3, 1, 1))
        ones, zero, slope = t4(np.ones((1, 3, 1, 1))), t4(np.zeros((1, 1, 1, 1))), t4(
            np.full((1, 1, 1, 1), 0.25))
        with Tape():
            backward(conv2d(x, ones, zero, slope))
        npt.assert_array_equal(x.grad, np.full(x.shape, 0.25, np.float32))
        npt.assert_array_equal(slope.grad, np.full(slope.shape, -2.5, np.float32))

        # seeded with an array, the output's twin takes the seed, and the
        # gradients are those of the same output recorded without a twin
        x, w, b, slope = prelu_conv
        probe = np.random.default_rng(3).standard_normal((2, 4, 6, 5))

        def seeded():
            for t in prelu_conv:
                t.grad = None
            with Tape():
                out = conv2d(x, w, b, slope)
                recorded = tensor._recorded(out)
                backward(out, probe)
                npt.assert_array_equal(recorded.grad, probe.astype(np.float32))
            return out, recorded, [t.grad for t in prelu_conv]

        out, twin, grads = seeded()
        assert twin is not out and out.grad is None
        without_twins(monkeypatch)
        out, recorded, twinless = seeded()
        assert recorded is out
        for got, want in zip(grads, twinless):
            assert got.tobytes() == want.tobytes()

    def test_output_kept_past_its_tape_is_a_leaf_on_a_new_tape(self, prelu_conv):
        x, w, b, slope = prelu_conv
        with Tape():
            out = conv2d(x, w, b, slope)
            assert out.tape_node is not None
        assert out.tape_node is None
        probe = np.random.default_rng(2).standard_normal(out.shape)
        with Tape():
            backward(plus(out), probe)
            assert out.tape_node is None
        npt.assert_array_equal(out.grad, probe.astype(np.float32))


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
            out = maxpool2d(x)
            backward(out, np.ones(out.shape))
        windows = x.grad.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        npt.assert_array_equal(windows.sum(axis=1), [1, 1, 1, 1])
        npt.assert_array_equal(windows[:, 0], [1, 1, 1, 1])  # first element wins the tie

    def test_maxpool_mass_conservation(self):
        rng = np.random.default_rng(4)
        with Tape():
            x = t4(rng.uniform(-1, 1, (2, 3, 6, 6)))
            out = maxpool2d(x)
            backward(out, np.ones(out.shape))
        assert x.grad.sum() == pytest.approx(out.size)

    def test_upsample_backward_sums_blocks(self):
        # conv2d's half-extent input, read through a 1x1 kernel that picks it
        with Tape():
            x = t4(np.ones((1, 1, 2, 2)))
            picked = conv2d((x, t4(np.zeros((1, 1, 4, 4)))), t4([[[[1.0]], [[0.0]]]]),
                            t4(np.zeros((1, 1, 1, 1))))
            backward(picked, np.ones(picked.shape))
        npt.assert_array_equal(x.grad, np.full((1, 1, 2, 2), 4.0))

    def test_upsample_is_exact_adjoint(self):
        # <forward(x), y> == <x, backward(y)> for random x, y, where forward
        # is conv2d's read of a half-extent x joined with a zero skip: linear
        # in x
        rng = np.random.default_rng(7)
        x_data = rng.uniform(-1, 1, (1, 2, 3, 4)).astype(np.float32)
        y_data = rng.uniform(-1, 1, (1, 3, 6, 8)).astype(np.float32)
        skip = t4(np.zeros((1, 1, 6, 8)))
        w = t4(rng.uniform(-1, 1, (3, 3, 3, 3)))
        b = t4(np.zeros((1, 3, 1, 1)))
        fx = conv2d((Tensor(x_data), skip), w, b).data
        with Tape():
            x = Tensor(x_data)
            backward(conv2d((x, skip), w, b), y_data)
        lhs = float((fx * y_data).sum())
        rhs = float((x_data * x.grad).sum())
        assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_conv_backward_example_grads(self):
        # zero-kernel conv: d(out)/d(bias) = count of output positions
        with Tape():
            x = t4(np.ones((1, 1, 4, 4)))
            w = t4(np.zeros((2, 1, 3, 3)))
            b = t4(np.zeros((1, 2, 1, 1)))
            out = conv2d(x, w, b)
            backward(out, np.ones(out.shape))
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
            gradcheck(lambda: plus(x), [x])

    def test_reports_every_input(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        y = Tensor(np.ones((1, 1, 2, 2)))
        result = gradcheck(lambda: plus(x, y), [x, y], name="plus")
        assert len(result.per_input) == 2
        assert result.passed

    def test_block_checks_probe_tap_ordered_weights_in_place(self):
        # the float64 copies keep the tap order; probing a flattened copy of
        # such a weight would read a relative error of 1.0
        block = verify._float64(BasicBlock("bb", 3, 4, seed=0))
        x = Tensor(np.random.default_rng(1).uniform(-1, 1, (1, 3, 6, 6)))
        weights = [block.conv1.weight, block.conv2.weight]
        assert all(w.dtype == np.float64 and w.data.transpose(2, 3, 0, 1).flags.c_contiguous
                   for w in weights)
        for fault, passed in ((None, True), ("conv2d", False)):
            result = gradcheck(lambda: block.forward(x), [x, *weights], tol=1e-3,
                               max_coords=25, fault=fault)
            assert result.passed == passed, result.per_input
        assert result.per_input[1] > 1e-3  # the weight's gradient too is wrong under the fault

    def test_conv2d_case_checks_both_paths(self, monkeypatch):
        # over the gradcheck command's default five trials, some conv2d
        # cases fuse a PReLU and some do not, some read a half-extent input
        # (a decoder join) and some do not, and some add a skip (a residual
        # sum) and some do not
        fused, halved, summed, paths, joins, sums = [], [], [], set(), set(), set()
        plain_conv2d = tensor.conv2d

        def recorded(x, weight, bias, slope=None, skip=None):
            fused.append(slope is not None)
            halved.append(len({t.shape[2:] for t in x}) > 1)
            summed.append(skip is not None)
            return plain_conv2d(x, weight, bias, slope, skip)

        monkeypatch.setattr(tensor, "conv2d", recorded)
        for trial in range(5):
            cases = {name: fn for name, fn, _, _ in op_cases(0, trial)}
            fused.clear()
            halved.clear()
            summed.clear()
            cases["conv2d"]()
            paths.update(fused)
            joins.update(halved)
            sums.update(summed)
        assert paths == joins == sums == {False, True}

    def test_case_draws_do_not_depend_on_earlier_checks(self, monkeypatch):
        # every case draws from its own generator, so its inputs and probe
        # are the same whether or not the cases before it ran their checks
        def draws(check):
            seen = []

            def recorded(forward_fn, inputs, rng, name, **kwargs):
                probe = copy.deepcopy(rng).standard_normal(forward_fn().shape)
                seen.append((name, [t.data.copy() for t in inputs], probe))
                return check(forward_fn, inputs, rng=rng, name=name, **kwargs)

            monkeypatch.setattr(verify, "gradcheck", recorded)
            verify.run_full_suite(trials=2)
            return seen

        checked = draws(gradcheck)
        skipped = draws(lambda forward_fn, inputs, rng, name, **kwargs: GradcheckResult(name, 1.0))
        assert [case[0] for case in checked] == [case[0] for case in skipped]
        for (name, inputs, probe), (_, inputs_skipped, probe_skipped) in zip(checked, skipped):
            assert len(inputs) == len(inputs_skipped), name
            for a, b in zip(inputs + [probe], inputs_skipped + [probe_skipped]):
                npt.assert_array_equal(a, b, err_msg=name)


def package_sources() -> dict[str, ast.Module]:
    """The parsed source of every ``cenet`` module, by file name."""
    return {path.name: ast.parse(path.read_text())
            for path in Path(tensor.__file__).parent.glob("*.py")}


def emitted_op_names() -> list[str]:
    """The op names ``cenet`` records through ``_emit``, read from its source."""
    calls = [node for source in package_sources().values() for node in ast.walk(source)
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
        # an op only its gradcheck case calls is dead code, so every module
        # is read but verify.op_cases; bare names only, so that np.matmul or
        # a .reshape() call cannot stand in for an op
        sources = package_sources()
        sources["verify.py"].body = [node for node in sources["verify.py"].body
                                     if getattr(node, "name", None) != "op_cases"]
        called = {node.func.id for source in sources.values() for node in ast.walk(source)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert set(emitted_op_names()) - called == set()
