import importlib
import zlib

import numpy as np
import pytest

from gvgkit import gradkit as gk

import per_text_oracle as oracle
from box_oracle import BBox, InterpConfig, grad_loss_interp_iou, loss_interp_iou
from gradient_check import check_gradients, run_pass
from tape_walk_oracle import tape_walk_gradients


def check(f, params, **kw):
    report = check_gradients(f, params, **kw)
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

    def test_relu_conventions(self):
        x = gk.tensor([-2.0, -0.0, 0.0, 3.0, np.nan], requires_grad=True)
        out = gk.relu(x)
        assert out.value[:4].tolist() == [0.0, 0.0, 0.0, 3.0]
        assert not np.signbit(out.value[1])     # relu(-0.0) is +0.0
        assert np.isnan(out.value[4])           # left for the boundary checks
        gk.backward(gk.reduce_sum(gk.narrow(out, 0, 0, 4)))
        assert x.grad.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]   # relu'(0) = 0

    def test_bce_along_an_axis(self):
        rng = np.random.default_rng(5)
        logits = gk.tensor(rng.normal(size=(3, 6)) * 3, requires_grad=True)
        targets = (rng.random((3, 6)) > 0.5).astype(float)
        per_row = gk.bce_with_logits(logits, targets, axis=-1)
        assert per_row.shape == (3,)
        for k in range(3):
            assert per_row.value[k] == gk.bce_with_logits(logits.value[k], targets[k]).value
        assert gk.mean(per_row).value == pytest.approx(
            gk.bce_with_logits(logits, targets).value, abs=1e-15)
        weights = gk.constant(rng.normal(size=6))
        check(lambda: gk.reduce_sum(gk.mul(gk.bce_with_logits(logits, targets, axis=0),
                                           weights)),
              [("logits", logits)])

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
        out = gk.masked_max_pool(x, np.array([[True], [True], [False]]), axis=0)
        assert out.value[0] == 3.0

    def test_masked_max_pool_needs_valid(self):
        with pytest.raises(gk.DomainError):
            gk.masked_max_pool(gk.tensor(np.ones((2, 3))), np.array([[False], [False]]))
        with pytest.raises(gk.DomainError):  # every slot needs a valid position
            gk.masked_max_pool(gk.tensor(np.ones((2, 3))),
                               np.array([[True], [False]]), axis=1)
        with pytest.raises(gk.ShapeError):
            gk.masked_max_pool(gk.tensor(np.ones((2, 3))), np.ones((3, 2), dtype=bool))
        with pytest.raises(gk.ShapeError) as err:   # a mask of fewer dims than its input
            gk.masked_max_pool(gk.tensor(np.ones((2, 3))), np.ones(3, dtype=bool), axis=1)
        assert "\n" not in str(err.value)

    def test_masked_max_pool_broadcast_mask_tie_and_routing(self):
        x = gk.tensor(np.array([[[1.0, 5.0], [1.0, 9.0], [4.0, 2.0]],
                                [[3.0, 0.0], [7.0, 8.0], [6.0, 1.0]]]), requires_grad=True)
        mask = np.array([[[True], [True], [False]],     # per text: valid tokens
                         [[True], [False], [True]]])    # broadcast over channels
        out, gap = run_pass(lambda: gk.masked_max_pool(x, mask, axis=1))
        assert np.array_equal(out.value, [[1.0, 9.0], [6.0, 1.0]])
        assert gap == 0.0      # 1.0 vs 1.0 in text 0
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
        for shapes in [(4, (2, 4, 3)), (4, (4, 3)), ((3, 4), 4), (4, 4)]:  # a 1-D operand
            with pytest.raises(gk.ShapeError) as err:
                gk.matmul(gk.tensor(np.ones(shapes[0])), gk.tensor(np.ones(shapes[1])))
            assert "\n" not in str(err.value)
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


# Plain-numpy references for the reductions gradkit takes by slices along
# a short axis: max and sum along the axis, and the first maximum (numpy's
# argmax, the first NaN if any) for the gradient.


def numpy_max(x, axis, g):
    grad = np.zeros_like(x)
    np.put_along_axis(grad, np.expand_dims(x.argmax(axis=axis), axis),
                      np.expand_dims(g, axis), axis=axis)
    return x.max(axis=axis), grad


def numpy_softmax(x, axis, g):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    value = e / e.sum(axis=axis, keepdims=True)
    return value, value * (g - (g * value).sum(axis=axis, keepdims=True))


def short_axis_input(rng, shape, kind):
    if kind == "ties":          # few distinct values: many exact ties
        return rng.integers(-2, 3, size=shape).astype(float)
    x = rng.normal(size=shape) * 5
    if kind == "padded":
        x[rng.random(shape) < 0.3] = -np.inf
    elif kind == "nonfinite":
        draw = rng.random(shape)
        x[draw < 0.1] = np.nan
        x[(draw >= 0.1) & (draw < 0.2)] = np.inf
        x[(draw >= 0.2) & (draw < 0.3)] = -np.inf
    return x


def some_valid_mask(rng, shape, axis):
    """A random mask with at least one valid position per slot."""
    mask = rng.random(shape) < 0.5
    first = np.expand_dims(rng.integers(0, shape[axis], size=np.delete(shape, axis)), axis)
    np.put_along_axis(mask, first, True, axis=axis)
    return mask


def assert_same(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


class TestShortAxisReductions:
    """Both sides of the short-axis rule (lengths 1-10), at every axis
    position and in a strided layout, against numpy, bit for bit."""

    @pytest.mark.parametrize("length", range(1, 11))
    @pytest.mark.parametrize("kind", ["normal", "ties", "padded", "nonfinite"])
    def test_against_numpy(self, length, kind):
        rng = np.random.default_rng([length, len(kind)])
        for axis in (0, 1, 2, -1):
            shape = [4, 5]
            shape.insert(axis % 3, length)
            for strided in (False, True):
                x = short_axis_input(rng, shape[::-1] if strided else shape, kind)
                if strided:     # a transposed view, as ``permute`` leaves
                    x = x.transpose(2, 1, 0)
                g = rng.normal(size=np.delete(shape, axis % 3))
                mask = some_valid_mask(rng, shape, axis % 3)
                with np.errstate(all="ignore"):
                    self.compare(x, axis, g, mask)

    @staticmethod
    def compare(x, axis, g, mask):
        a = gk.tensor(x, requires_grad=True)
        out = gk.max_over_axis(a, axis=axis)
        value, grad = numpy_max(x, axis, g)
        assert_same(out.value, value)
        assert_same(out._backward_fn(g)[0], grad)

        pooled = gk.masked_max_pool(a, mask, axis=axis)
        value, grad = numpy_max(np.where(mask, x, -np.inf), axis, g)
        assert_same(pooled.value, value)
        assert_same(pooled._backward_fn(g)[0], grad)

        # the mask broadcast along the other axes, as hrs passes it
        narrow_mask = mask[tuple(slice(None) if i == axis % 3 else slice(0, 1)
                                 for i in range(3))]
        pooled = gk.masked_max_pool(a, narrow_mask, axis=axis)
        value, grad = numpy_max(np.where(narrow_mask, x, -np.inf), axis, g)
        assert_same(pooled.value, value)
        assert_same(pooled._backward_fn(g)[0], grad)

        weights = np.expand_dims(g, axis) * np.linspace(0.5, 1.5, x.shape[axis]).reshape(
            [-1 if i == axis % 3 else 1 for i in range(3)])
        soft = gk.softmax(a, axis=axis)
        value, grad = numpy_softmax(x, axis, weights)
        assert_same(soft.value, value)
        assert_same(soft._backward_fn(weights)[0], grad)

    def test_ties_route_to_the_first_maximum(self):
        x = gk.tensor([[2.0, 5.0, 5.0], [1.0, 1.0, 1.0], [-np.inf, -np.inf, 0.0],
                       [np.nan, 3.0, np.nan]], requires_grad=True)
        with np.errstate(all="ignore"):
            out = gk.max_over_axis(x, axis=1)
        assert_same(out.value, np.array([5.0, 1.0, 0.0, np.nan]))
        assert np.array_equal(out._backward_fn(np.ones(4))[0],
                              [[0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 0, 0]])

    @pytest.mark.parametrize("length", [1, 3, 9])
    def test_one_dimensional_input_has_a_scalar_output(self, length):
        rng = np.random.default_rng(length)
        x = rng.integers(-2, 3, size=length).astype(float)
        mask = np.arange(length) % 2 == 0
        for node, masked in ((lambda a: gk.max_over_axis(a, axis=0), x),
                             (lambda a: gk.masked_max_pool(a, mask, axis=0),
                              np.where(mask, x, -np.inf))):
            a = gk.tensor(x, requires_grad=True)
            out = node(a)
            assert out.value.shape == ()
            gk.backward(gk.mul(out, 2.0))
            value, grad = numpy_max(masked, 0, np.float64(2.0))
            assert out.value == value
            assert np.array_equal(a.grad, grad)
        a = gk.tensor(x, requires_grad=True)
        weights = np.linspace(-1.0, 1.0, length)
        gk.backward(gk.reduce_sum(gk.mul(gk.softmax(a, axis=0), weights)))
        value, grad = numpy_softmax(x, 0, weights)
        assert np.array_equal(gk.softmax(gk.tensor(x)).value, value)
        assert np.array_equal(a.grad, grad)

    @pytest.mark.parametrize("length", [3, 9])
    def test_route_is_fixed_when_the_node_is_created(self, length):
        # a parameter leaf edited in place after the forward pass, as the
        # finite-difference check does, keeps the route of that pass
        rng = np.random.default_rng(length)
        values = rng.normal(size=(4, length))
        a = gk.tensor(values.copy(), requires_grad=True)
        out = gk.max_over_axis(a, axis=1)
        a.value[:, -1] = 100.0      # a new maximum in every slot
        gk.backward(gk.reduce_sum(out))
        assert np.array_equal(a.grad, numpy_max(values, 1, np.ones(4))[1])

    def test_no_route_without_grad(self, monkeypatch):
        tensor_module = importlib.import_module("gvgkit.gradkit.tensor")

        def no_route(*args):
            raise AssertionError("route built for a constant")

        monkeypatch.setattr(tensor_module, "_first_max_route", no_route)
        for length in (3, 9):
            x = gk.constant(np.arange(2.0 * length).reshape(2, length))
            assert np.array_equal(gk.max_over_axis(x, axis=1).value,
                                  [length - 1.0, 2.0 * length - 1.0])
            gk.masked_max_pool(x, np.ones((1, length), dtype=bool), axis=1)


def count_backward_calls(loss):
    """Wrap the backward closure of every node behind ``loss`` with a
    counter; returns {id(node): calls}."""
    calls = {}
    for node in gk.Tape(loss).nodes:
        if node._backward_fn is not None:
            calls[id(node)] = 0

            def counted(g, fn=node._backward_fn, key=id(node)):
                calls[key] += 1
                return fn(g)
            node._backward_fn = counted
    return calls


def assert_matches_tape_walk(loss, tol=1e-12):
    reference = tape_walk_gradients(loss)
    calls = count_backward_calls(loss)
    gk.backward(loss)
    nodes = [n for n in gk.Tape(loss).nodes if n.requires_grad]
    assert {id(n) for n in nodes} == set(reference)
    for node in nodes:
        assert node.grad.shape == node.value.shape
        assert np.max(np.abs(node.grad - reference[id(node)]), initial=0.0) <= tol
    # each node's gradient was complete when it was popped: one visit each
    assert set(calls.values()) == {1}


class TestHeapWalk:
    def test_consumers_created_out_of_order(self):
        rng = np.random.default_rng(8)
        x = gk.tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = gk.tensor(rng.normal(size=(4, 4)), requires_grad=True)
        shared = gk.matmul(x, w)
        first = gk.sigmoid(shared)                           # consumer 1
        square = gk.mul(shared, shared)                      # consumers 2 and 3
        late = gk.add(gk.exp(gk.mul(first, 0.1)), shared)    # consumer 4
        # the loss lists its operands newest first, and reaches ``shared``
        # again through a node made last (consumer 5)
        loss = gk.reduce_sum(gk.add(gk.add(late, square), gk.mul(first, shared)))
        creation = [n._order for n in (shared, first, square, late, loss)]
        assert creation == sorted(creation)
        assert_matches_tape_walk(loss)
        s = 1 / (1 + np.exp(-(x.value @ w.value)))
        d_shared = s * (1 - s) * (0.1 * np.exp(0.1 * s) + x.value @ w.value) + 1 \
            + 2 * (x.value @ w.value) + s
        assert np.allclose(x.grad, d_shared @ w.value.T, atol=1e-12)
        assert np.allclose(w.grad, x.value.T @ d_shared, atol=1e-12)

    def test_leaf_used_by_many_nodes(self):
        x = gk.tensor([0.5, -1.5, 2.0], requires_grad=True)
        parts = [gk.mul(x, float(k)) for k in range(5)]
        loss = gk.reduce_sum(gk.add(gk.add(parts[3], parts[0]),
                                    gk.add(parts[4], gk.add(parts[1], parts[2]))))
        assert_matches_tape_walk(loss)
        assert np.array_equal(x.grad, np.full(3, 10.0))

    def test_constant_loss_is_a_no_op(self):
        loss = gk.reduce_sum(gk.constant([1.0, 2.0]))
        gk.backward(loss)
        assert loss.grad is None


BINARY = {
    "add": gk.add, "sub": gk.sub, "mul": gk.mul, "div": gk.div,
    "matmul": gk.matmul, "maximum": gk.maximum, "minimum": gk.minimum,
}


@pytest.mark.parametrize("name", sorted(BINARY))
@pytest.mark.parametrize("constant_side", [0, 1])
def test_constant_operand_gets_no_gradient(name, constant_side):
    rng = np.random.default_rng(9)
    operands = [rng.uniform(0.5, 2.0, size=(3, 3)) for _ in range(2)]
    const = gk.constant(operands[constant_side])
    param = gk.tensor(operands[1 - constant_side], requires_grad=True)
    pair = [param, param]
    pair[constant_side] = const
    out = BINARY[name](*pair)
    # the primitive computes nothing for the constant operand ...
    grads = out._backward_fn(np.ones_like(out.value))
    assert grads[constant_side] is None
    assert grads[1 - constant_side].shape == param.value.shape
    # ... and the walk gives it no .grad, while the parameter gets its own
    gk.backward(gk.reduce_sum(out))
    assert const.grad is None and param.grad is not None


def test_constant_part_of_concat_gets_no_gradient():
    const = gk.constant(np.ones(2))
    param = gk.tensor(np.ones(3), requires_grad=True)
    gk.backward(gk.reduce_sum(gk.mul(gk.concat([const, param]), 2.0)))
    assert const.grad is None
    assert np.array_equal(param.grad, np.full(3, 2.0))


class TestFiniteDifferences:
    def test_quadratic(self):
        theta = gk.tensor(3.0, requires_grad=True)
        report = check(lambda: gk.mul(theta, theta), [("theta", theta)])
        assert report.worst_rel < 1e-6

    @pytest.mark.parametrize("name", [
        "matmul", "add", "mul", "div", "exp", "log", "maxax", "softmax",
        "sigmoid", "relu", "masked_pool", "cosine", "sqrt",
        "maximum", "minimum", "narrow", "concat",
        "batched_matmul", "permute", "reshape", "masked_pool_broadcast",
    ])
    def test_each_primitive(self, name):
        # a fixed seed per case: ``hash`` of a str changes from run to run
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        a = gk.tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = gk.tensor(rng.normal(size=(4, 3)), requires_grad=True)
        mask = np.array([[True], [False], [True]])
        weights34 = gk.constant(rng.normal(size=(3, 4)))
        weights43 = gk.constant(rng.normal(size=(4, 3)))
        weights232 = gk.constant(rng.normal(size=(2, 3, 2)))
        frozen_a = a.value.copy()    # ties with ``a`` until the check nudges it
        per_slot = np.array([[[True], [True]], [[True], [False]], [[False], [True]]])

        def b_t():
            return gk.permute(b, (1, 0))

        def f():
            if name == "matmul":
                return gk.reduce_sum(gk.matmul(a, b))
            if name == "add":
                return gk.reduce_sum(gk.sigmoid(gk.add(a, b_t())))
            if name == "mul":
                return gk.reduce_sum(gk.mul(a, b_t()))
            if name == "div":
                return gk.reduce_sum(gk.div(a, gk.add(gk.mul(b_t(), b_t()), 1.0)))
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
            if name == "relu":
                return gk.reduce_sum(gk.relu(a))
            if name == "masked_pool":
                return gk.reduce_sum(gk.masked_max_pool(a, mask, axis=0))
            if name == "cosine":
                return gk.reduce_sum(oracle.cosine_matrix(a, b_t()))
            if name == "sqrt":
                return gk.reduce_sum(gk.sqrt(gk.add(gk.mul(a, a), 0.1)))
            if name == "maximum":
                return gk.reduce_sum(gk.maximum(a, b_t()))
            if name == "minimum":
                return gk.reduce_sum(gk.minimum(a, b_t()))
            if name == "narrow":
                return gk.reduce_sum(gk.narrow(a, 1, 1, 2))
            if name == "concat":
                return gk.reduce_sum(gk.concat([a, b_t()], axis=0))
            if name == "batched_matmul":
                # (3, 1, 4) @ (4, 3) and (1, 3, 4) @ (2, 4, 3): leading axes broadcast
                stacked = gk.reshape(gk.concat([b, gk.mul(b, b)], axis=0), (2, 4, 3))
                return gk.add(
                    gk.reduce_sum(gk.sigmoid(gk.matmul(gk.reshape(a, (3, 1, 4)), b))),
                    gk.reduce_sum(gk.exp(gk.matmul(gk.reshape(a, (1, 3, 4)), stacked))))
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
        report = check_gradients(lambda: gk.max_over_axis(x, axis=0), [("x", x)])
        assert report.tie_nudged
        assert report.passed

    def test_tie_gap_describes_the_values_at_creation(self):
        # check_gradients edits a probed entry in place; the gap is the one
        # of the values the pass decided on
        gaps = []
        for pick in range(3):
            x = gk.tensor([1.0, 2.0, 4.0], requires_grad=True)
            y = gk.constant([1.5, 3.0, 3.0])

            def f():
                nodes = [gk.maximum(x, y), gk.minimum(y, x), gk.max_over_axis(x, axis=0)]
                x.value[0], x.value[2] = 1.5, 2.0     # ties everywhere, were they read now
                return nodes[pick]

            gaps.append(run_pass(f)[1])
        assert gaps == [0.5, 0.5, 2.0]

    def test_constants_have_no_tie_gap(self):
        # a tie among constants cannot move when a parameter is nudged
        a, b = gk.constant([1.0, 2.0]), gk.constant([1.0, 3.0])
        for make in (lambda: gk.maximum(a, b), lambda: gk.minimum(a, b),
                     lambda: gk.max_over_axis(a)):
            assert run_pass(make)[1] == np.inf

    def test_a_max_off_the_output_tape_is_not_counted(self):
        x = gk.tensor([1.0, 3.0, 3.0], requires_grad=True)

        def f():
            gk.max_over_axis(x, axis=0)                 # ties, but the output
            gk.maximum(x, x)                            # reads neither node
            return gk.reduce_sum(gk.maximum(x, gk.constant([0.0, 2.0, 1.0])))

        assert run_pass(f)[1] == 1.0
        assert run_pass(lambda: gk.reduce_sum(gk.mul(x, 2.0)))[1] == np.inf

    def test_a_raising_pass_restores_the_funnels(self):
        tensor_module = importlib.import_module("gvgkit.gradkit.tensor")
        funnels = tensor_module._pick, tensor_module._max_reduce
        x = gk.tensor([1.0, 2.0], requires_grad=True)

        def f():
            gk.maximum(x, gk.max_over_axis(x, axis=0))
            raise ValueError("forward pass failed")

        with pytest.raises(ValueError, match="forward pass failed"):
            run_pass(f)
        assert (tensor_module._pick, tensor_module._max_reduce) == funnels

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
            loss = interp_iou_loss_diff(p, g, alpha=0.99, weights=np.ones(1))
            assert float(loss.value) == pytest.approx(
                loss_interp_iou(pred, gt, InterpConfig(0.99)), abs=1e-12)
            gk.backward(loss)
            expected = grad_loss_interp_iou(pred, gt, InterpConfig(0.99))
            assert np.allclose(p.grad[0], expected, rtol=1e-9, atol=1e-12)


class TestAdam:
    def test_minimizes_quadratic(self):
        x = gk.tensor([5.0, -3.0], requires_grad=True)
        opt = gk.Adam([x])
        for _ in range(400):
            opt.zero_grad()
            loss = gk.reduce_sum(gk.mul(x, x))
            gk.backward(loss)
            opt.step(0.1)
        assert np.all(np.abs(x.value) < 1e-2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_raises_before_any_update(self, bad):
        x = gk.tensor([1.0, 2.0], requires_grad=True)
        y = gk.tensor([3.0], requires_grad=True)
        opt = gk.Adam([x, y])
        x.grad, y.grad = np.array([0.5, -0.5]), np.array([bad])
        with pytest.raises(OverflowError):
            opt.step(0.1)
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
