import numpy as np
import pytest

from gvgkit import gradkit as gk
from gvgkit.geometry import BBox

import per_text_oracle as oracle
from box_oracle import InterpConfig, grad_loss_interp_iou, loss_interp_iou


def check(f, params, **kw):
    report = gk.check_gradients(f, params, **kw)
    assert report.passed, str(report)
    return report


class TestForwardValues:
    def test_softmax_equal_logits(self):
        out = gk.softmax(gk.tensor([2.5, 2.5]))
        assert np.allclose(out.value, [0.5, 0.5], atol=1e-15)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = gk.tensor(rng.normal(size=(4, 7)) * 20)
            s = gk.softmax(x, axis=-1)
            assert np.allclose(s.value.sum(axis=-1), 1.0, atol=1e-10)

    def test_sigmoid_range_and_stability(self):
        x = gk.tensor([-800.0, -5.0, 0.0, 5.0, 800.0])
        s = gk.sigmoid(x).value
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        assert s[2] == 0.5

    def test_cosine_self_similarity(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=8)
        out = oracle.cosine_similarity(gk.tensor(v[None, :]), gk.tensor(v))
        assert out.value[0] == pytest.approx(1.0, abs=1e-12)

    def test_cosine_zero_norm_rejected(self):
        with pytest.raises(gk.DomainError):
            oracle.cosine_similarity(gk.tensor(np.zeros((1, 4))), gk.tensor(np.ones(4)))

    def test_masked_max_pool_by_hand(self):
        x = gk.tensor(np.array([[3.0], [-1.0], [7.0]]))
        out = gk.masked_max_pool(x, np.array([True, True, False]), axis=0)
        assert out.value[0] == 3.0

    def test_masked_max_pool_needs_valid(self):
        with pytest.raises(gk.DomainError):
            gk.masked_max_pool(gk.tensor(np.ones((2, 3))), np.array([False, False]))
        with pytest.raises(gk.DomainError):  # every slot needs a valid position
            gk.masked_max_pool(gk.tensor(np.ones((2, 3))),
                               np.array([[True], [False]]), axis=1)
        with pytest.raises(gk.ShapeError):
            gk.masked_max_pool(gk.tensor(np.ones((2, 3))), np.ones((3, 2), dtype=bool))

    def test_masked_max_pool_broadcast_mask_tie_and_routing(self):
        x = gk.tensor(np.array([[[1.0, 5.0], [1.0, 9.0], [4.0, 2.0]],
                                [[3.0, 0.0], [7.0, 8.0], [6.0, 1.0]]]), requires_grad=True)
        mask = np.array([[[True], [True], [False]],     # per text: valid tokens
                         [[True], [False], [True]]])    # broadcast over channels
        out = gk.masked_max_pool(x, mask, axis=1)
        assert np.array_equal(out.value, [[1.0, 9.0], [6.0, 1.0]])
        assert gk.Tape(out).min_tie_gap() == 0.0      # 1.0 vs 1.0 in text 0
        gk.backward(gk.reduce_sum(out))
        expected = np.zeros((2, 3, 2))
        expected[0, 0, 0] = 1.0    # a tie routes to the first maximal entry
        expected[0, 1, 1] = 1.0
        expected[1, 2, 0] = expected[1, 2, 1] = 1.0   # masked 7.0 and 8.0 lose
        assert np.array_equal(x.grad, expected)

    def test_batched_matmul_shapes(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
        out = gk.matmul(gk.tensor(a), gk.tensor(b))
        assert np.allclose(out.value, np.stack([a[0] @ b, a[1] @ b]))
        with pytest.raises(gk.ShapeError):
            gk.matmul(gk.tensor(np.ones(4)), gk.tensor(np.ones((2, 4, 3))))
        with pytest.raises(gk.ShapeError):
            gk.permute(gk.tensor(a), (0, 0, 1))
        with pytest.raises(gk.ShapeError):
            gk.reshape(gk.tensor(a), (5, 5))

    def test_domain_errors(self):
        with pytest.raises(gk.DomainError):
            gk.log(gk.tensor([1.0, 0.0]))
        with pytest.raises(gk.DomainError):
            gk.div(gk.tensor([1.0]), gk.tensor([0.0]))
        with pytest.raises(gk.ShapeError):
            gk.matmul(gk.tensor(np.ones((2, 3))), gk.tensor(np.ones((2, 3))))

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            gk.exp(gk.tensor([1000.0]))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = gk.tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        gk.backward(gk.reduce_sum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_product_gradients_swap(self):
        rng = np.random.default_rng(2)
        xv, yv = rng.normal(size=5), rng.normal(size=5)
        x = gk.tensor(xv, requires_grad=True)
        y = gk.tensor(yv, requires_grad=True)
        gk.backward(gk.reduce_sum(gk.mul(x, y)))
        assert np.allclose(x.grad, yv)
        assert np.allclose(y.grad, xv)

    def test_non_scalar_loss_rejected(self):
        x = gk.tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            gk.backward(x)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(4, 4))
        grads = []
        for _ in range(2):
            x = gk.tensor(data, requires_grad=True)
            w = gk.tensor(np.full((4, 4), 0.3), requires_grad=True)
            loss = gk.reduce_sum(gk.sigmoid(gk.matmul(x, w)))
            gk.backward(loss)
            grads.append((x.grad.copy(), w.grad.copy()))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])

    def test_tape_visits_each_node_once(self):
        x = gk.tensor([1.0, 2.0], requires_grad=True)
        y = gk.mul(x, x)
        z = gk.reduce_sum(gk.add(y, y))
        tape = gk.Tape(z)
        ids = [id(n) for n in tape.nodes]
        assert len(ids) == len(set(ids))
        # parents appear before children
        pos = {id(n): i for i, n in enumerate(tape.nodes)}
        for node in tape.nodes:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]

    def test_diamond_graph_accumulates(self):
        # z = x*x + x  -> dz/dx = 2x + 1
        x = gk.tensor([3.0], requires_grad=True)
        z = gk.reduce_sum(gk.add(gk.mul(x, x), x))
        gk.backward(z)
        assert np.allclose(x.grad, [7.0])


class TestFiniteDifferences:
    def test_quadratic(self):
        theta = gk.tensor(3.0, requires_grad=True)
        report = check(lambda: gk.mul(theta, theta), [("theta", theta)])
        assert report.worst_rel < 1e-6

    @pytest.mark.parametrize("name", [
        "matmul", "add", "mul", "div", "exp", "log", "maxax", "softmax",
        "sigmoid", "tanh", "relu", "masked_pool", "cosine", "sqrt",
        "maximum", "minimum", "narrow", "concat", "transpose", "softplus",
        "batched_matmul", "permute", "reshape", "masked_pool_broadcast",
    ])
    def test_each_primitive(self, name):
        rng = np.random.default_rng(abs(hash(name)) % 2**32)
        a = gk.tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = gk.tensor(rng.normal(size=(4, 3)), requires_grad=True)
        mask = np.array([True, False, True])
        weights34 = gk.constant(rng.normal(size=(3, 4)))
        weights43 = gk.constant(rng.normal(size=(4, 3)))
        weights232 = gk.constant(rng.normal(size=(2, 3, 2)))
        frozen_a = a.value.copy()    # ties with ``a`` until the check nudges it
        per_slot = np.array([[[True], [True]], [[True], [False]], [[False], [True]]])

        def f():
            if name == "matmul":
                return gk.reduce_sum(gk.matmul(a, b))
            if name == "add":
                return gk.reduce_sum(gk.sigmoid(gk.add(a, gk.transpose(b))))
            if name == "mul":
                return gk.reduce_sum(gk.mul(a, gk.transpose(b)))
            if name == "div":
                return gk.reduce_sum(gk.div(a, gk.add(gk.mul(gk.transpose(b), gk.transpose(b)), 1.0)))
            if name == "exp":
                return gk.reduce_sum(gk.exp(a))
            if name == "log":
                return gk.reduce_sum(gk.log(gk.add(gk.mul(a, a), 0.5)))
            if name == "maxax":
                return gk.reduce_sum(gk.max_over_axis(a, axis=1))
            if name == "softmax":
                return gk.reduce_sum(gk.mul(gk.softmax(a, axis=1), weights34))
            if name == "sigmoid":
                return gk.reduce_sum(gk.sigmoid(a))
            if name == "tanh":
                return gk.reduce_sum(gk.tanh(a))
            if name == "relu":
                return gk.reduce_sum(gk.relu(a))
            if name == "masked_pool":
                return gk.reduce_sum(gk.masked_max_pool(a, mask, axis=0))
            if name == "cosine":
                return gk.reduce_sum(oracle.cosine_matrix(a, gk.transpose(b)))
            if name == "sqrt":
                return gk.reduce_sum(gk.sqrt(gk.add(gk.mul(a, a), 0.1)))
            if name == "maximum":
                return gk.reduce_sum(gk.maximum(a, gk.transpose(b)))
            if name == "minimum":
                return gk.reduce_sum(gk.minimum(a, gk.transpose(b)))
            if name == "narrow":
                return gk.reduce_sum(gk.narrow(a, 1, 1, 2))
            if name == "concat":
                return gk.reduce_sum(gk.concat([a, gk.transpose(b)], axis=0))
            if name == "transpose":
                return gk.reduce_sum(gk.mul(gk.transpose(a), weights43))
            if name == "softplus":
                return gk.reduce_sum(gk.softplus(a))
            if name == "batched_matmul":
                # (3, 1, 4) @ (4, 3) and (1, 3, 4) @ (2, 4, 3): leading axes broadcast
                stacked = gk.reshape(gk.concat([b, gk.mul(b, b)], axis=0), (2, 4, 3))
                return gk.add(
                    gk.reduce_sum(gk.sigmoid(gk.matmul(gk.reshape(a, (3, 1, 4)), b))),
                    gk.reduce_sum(gk.tanh(gk.matmul(gk.reshape(a, (1, 3, 4)), stacked))))
            if name == "permute":
                return gk.reduce_sum(gk.mul(gk.permute(gk.reshape(a, (3, 2, 2)), (2, 0, 1)),
                                            weights232))
            if name == "reshape":
                return gk.reduce_sum(gk.mul(gk.reshape(a, (4, 3)), weights43))
            if name == "masked_pool_broadcast":
                # slot 0 ties a with its frozen copy, slot 1 masks the copy,
                # slot 2 masks a
                pair = gk.reshape(gk.concat([a, gk.constant(frozen_a)], axis=1), (3, 2, 4))
                return gk.reduce_sum(gk.mul(gk.masked_max_pool(pair, per_slot, axis=1),
                                            weights34))
            raise AssertionError(name)

        report = check(f, [("a", a), ("b", b)])
        if name == "masked_pool_broadcast":
            assert report.tie_nudged

    def test_bce_and_cross_entropy(self):
        rng = np.random.default_rng(7)
        logits = gk.tensor(rng.normal(size=8) * 3, requires_grad=True)
        targets = (rng.random(8) > 0.5).astype(float)
        check(lambda: gk.bce_with_logits(logits, targets), [("logits", logits)])
        ce_logits = gk.tensor(rng.normal(size=5), requires_grad=True)
        check(lambda: gk.cross_entropy(ce_logits, 2), [("ce", ce_logits)])

    def test_tie_is_nudged(self):
        x = gk.tensor([1.0, 1.0, 0.5], requires_grad=True)
        report = gk.check_gradients(lambda: gk.max_over_axis(x, axis=0), [("x", x)])
        assert report.tie_nudged
        assert report.passed

    def test_tie_gap_describes_the_values_at_creation(self):
        # check_gradients restores a probed entry in place, then asks for
        # the gap of the pass it ran before
        x = gk.tensor([1.0, 2.0, 4.0], requires_grad=True)
        y = gk.constant([1.5, 3.0, 3.0])
        nodes = [gk.maximum(x, y), gk.minimum(y, x), gk.max_over_axis(x, axis=0)]
        x.value[0], x.value[2] = 1.5, 2.0     # ties everywhere, were they read now
        assert [gk.Tape(n).min_tie_gap() for n in nodes] == [0.5, 0.5, 2.0]

    def test_constants_have_no_tie_gap(self):
        # a tie among constants cannot move when a parameter is nudged
        a, b = gk.constant([1.0, 2.0]), gk.constant([1.0, 3.0])
        for node in (gk.maximum(a, b), gk.minimum(a, b), gk.max_over_axis(a)):
            assert gk.Tape(node).min_tie_gap() == np.inf

    def test_cross_module_interp_iou_oracle(self):
        # the tape gradient of the box loss must agree with the closed form
        rng = np.random.default_rng(8)
        from gvgkit.synth.boxhead import interp_iou_loss_diff
        for _ in range(25):
            pw, ph = rng.uniform(0.05, 0.4, 2)
            gw, gh = rng.uniform(0.05, 0.4, 2)
            pred = BBox(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), pw, ph)
            gt = BBox(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), gw, gh)
            p = gk.tensor(np.array([[pred.cx, pred.cy, pred.w, pred.h]]), requires_grad=True)
            g = np.array([[gt.cx, gt.cy, gt.w, gt.h]])
            loss = interp_iou_loss_diff(p, g, alpha=0.99)
            assert loss.item() == pytest.approx(
                loss_interp_iou(pred, gt, InterpConfig(0.99)), abs=1e-12)
            gk.backward(loss)
            expected = grad_loss_interp_iou(pred, gt, InterpConfig(0.99))
            assert np.allclose(p.grad[0], expected, rtol=1e-9, atol=1e-12)


class TestAdam:
    def test_minimizes_quadratic(self):
        x = gk.tensor([5.0, -3.0], requires_grad=True)
        opt = gk.Adam([x], lr=0.1)
        for _ in range(400):
            opt.zero_grad()
            loss = gk.reduce_sum(gk.mul(x, x))
            gk.backward(loss)
            opt.step()
        assert np.all(np.abs(x.value) < 1e-2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_raises_before_any_update(self, bad):
        x = gk.tensor([1.0, 2.0], requires_grad=True)
        y = gk.tensor([3.0], requires_grad=True)
        opt = gk.Adam([x, y], lr=0.1)
        x.grad, y.grad = np.array([0.5, -0.5]), np.array([bad])
        with pytest.raises(OverflowError):
            opt.step()
        assert x.value.tolist() == [1.0, 2.0] and y.value.tolist() == [3.0]
        assert opt.t == 0 and not np.any(opt._m[0]) and not np.any(opt._v[0])

    def test_cosine_schedule_endpoints(self):
        assert gk.cosine_lr(2e-4, 0, 10) == pytest.approx(2e-4)
        assert gk.cosine_lr(2e-4, 9, 10) == pytest.approx(0.0, abs=1e-12)
        mid = gk.cosine_lr(2e-4, 5, 11)
        assert mid == pytest.approx(1e-4)


class TestCheckpointTensors:
    EDGES = np.array([[-0.0, 0.0, 5e-324], [np.finfo(float).max, -np.finfo(float).max,
                                             np.finfo(float).tiny / 3]])

    def roundtrip(self, values):
        stored = gk.dump_leaves([("x", gk.tensor(values))])
        target = gk.tensor(np.zeros_like(values))
        gk.load_leaves([("x", target)], stored, "test")
        return target.value

    @pytest.mark.parametrize("values", [
        pytest.param(EDGES, id="signed zeros, subnormals and max floats"),
        pytest.param(np.random.default_rng(0).normal(size=(7, 5)), id="random"),
        pytest.param(np.random.default_rng(1).normal(size=(3, 4)).T, id="transposed"),
        pytest.param(np.array(-1.25), id="scalar")])
    def test_exact_roundtrip(self, values):
        loaded = self.roundtrip(values)
        assert loaded.shape == values.shape and loaded.dtype == np.float64
        assert loaded.tobytes() == np.ascontiguousarray(values).tobytes()
        loaded += 1.0   # training updates the loaded arrays in place

    def test_payload_is_little_endian_float64(self):
        stored = gk.dump_leaves([("x", gk.tensor(np.array([1.0, -2.0])))])
        assert stored == {"x": {"shape": [2], "float64_le": "AAAAAAAA8D8AAAAAAAAAwA=="}}

    @pytest.mark.parametrize("spec,message", [
        ({"shape": [2], "float64_le": "AAAAAAAA8D8AAAAAAAAAwA"}, "is malformed"),
        ({"shape": [2], "float64_le": "AAAA*AAAA8D8AAAAAAAAAwA=="}, "is malformed"),
        ({"shape": [2], "data": [1.0, -2.0]}, "is malformed"),
        ({"shape": [2], "float64_le": "AAAAAAAA8D8="}, "and 8 bytes, expected [2] and 16"),
        ({"shape": [1, 2], "float64_le": "AAAAAAAA8D8AAAAAAAAAwA=="}, "has shape [1, 2]"),
        ({"shape": [2], "float64_le": "AAAAAAAA8H8AAAAAAAAAwA=="}, "non-finite")])
    def test_bad_payload_names_the_tensor(self, spec, message):
        target = gk.tensor(np.zeros(2))
        with pytest.raises(ValueError) as err:
            gk.load_leaves([("x", target)], {"x": spec}, "test")
        assert "'x'" in str(err.value) and message in str(err.value), str(err.value)
        assert np.array_equal(target.value, np.zeros(2))
