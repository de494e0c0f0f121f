"""Reverse-mode automatic differentiation over small dense tensors.

Every primitive stores its parents and a backward closure on the result
node, and every tensor gets a creation number. A node is always created
after its parents, so ``backward`` visits the graph in one pass, highest
creation number first, off a heap: by the time a node is popped, every
consumer has added its share, and its gradient is complete. Only tensors
that require grad receive ``.grad``; the primitives with two operands
compute no gradient for a constant one. Everything is float64 and
CPU-only. Each node costs a fixed Python overhead, so models batch
their work into few, larger nodes:
``matmul`` multiplies stacks of matrices with numpy broadcasting,
``reshape`` and ``permute`` move axes (attention heads, for one), and
``masked_max_pool`` takes a mask that broadcasts against its input, so
one node pools a whole padded batch. Each has a hand-written backward.

Short axes: numpy reduces an axis one output at a time, which is slow
when the axis is short and the outputs are many (the 3-wide token axis of
the attention and word scores). So ``softmax``, ``max_over_axis`` and
``masked_max_pool`` reduce an axis of at most ``_SHORT_AXIS`` (7) entries
with elementwise ``np.maximum`` / ``+`` over its slices, and a longer one
with numpy's reductions. Both give the same bits: up to 7 entries numpy
also adds them one after another.

Subgradient conventions: max-style reductions route the gradient to the
first maximal element (the first NaN, if any, as ``argmax`` does); the
route is built only when the input requires grad, from its values when
the node is created. Elementwise maximum/minimum route ties to the
first argument, and relu'(0) = 0. ``relu`` keeps no mask: its value is
``np.maximum(a, 0)`` (so relu(-0.0) is +0.0 and NaN passes through to
the boundary checks), and backward reads the mask off that value.
A node keeps only what backward needs: how close a max-style decision
came to a tie is measured by the finite-difference oracle in
``tests/gradient_check.py``, from outside, by wrapping ``_pick`` and
``_max_reduce``, through which every max-style node is built.

Finiteness is checked at the boundaries, not at every node: ``exp``
raises OverflowError when it overflows, ``backward`` rejects a
non-finite loss, and ``Adam.step`` a non-finite gradient.

Per-node cost: a primitive's forward and backward call no numpy helper
written in Python (``np.any``, ``np.all``, ``np.expand_dims``,
``np.broadcast_to``, ``np.put_along_axis``, ``np.isin``, ...). Each
costs a few microseconds of interpreter time per call, on nodes whose
arithmetic often takes less; array methods, indexing and ufuncs do the
same work from C. A rewrite keeps the arithmetic, its order and the
memory layout of every array that a sum reduces: numpy's pairwise sum
follows the layout, so ``-g * a / (b * b)`` done in place in one buffer
sums to other bits when ``g`` is a transposed view.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    pass


class DomainError(ValueError):
    pass


# Longest axis reduced by slices. Measured, one BLAS thread: with 1000
# or more outputs the slices win at every length up to 10 (4368 outputs
# of a 3-wide last axis: 12 µs against 251 µs); with 100 outputs they
# win up to about 6, and with 8 outputs numpy wins by 1-2 µs a slice.
# Past 7, numpy sums a contiguous axis pairwise, in another order.
_SHORT_AXIS = 7
# creation numbers, parents before children; only their order is read,
# so one counter serves every graph in the process
_created = itertools.count()


class Tensor:
    __slots__ = ("value", "requires_grad", "grad", "_parents", "_backward_fn", "_order")

    def __init__(self, value, requires_grad: bool = False):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._order = next(_created)
        self._parents: tuple["Tensor", ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"


def tensor(value, requires_grad: bool = False) -> Tensor:
    return Tensor(value, requires_grad=requires_grad)


def constant(value) -> Tensor:
    return Tensor(value, requires_grad=False)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(value: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """The result of a primitive. ``value`` is float64 already; only a
    numpy scalar (a full reduction, 0-d arithmetic) is wrapped."""
    out = Tensor.__new__(Tensor)
    out.value = value if type(value) is np.ndarray else np.asarray(value, dtype=np.float64)
    out.grad = None
    out._order = next(_created)
    for parent in parents:
        if parent.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward_fn = backward_fn
            return out
    out.requires_grad = False
    out._parents = ()
    out._backward_fn = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


# Binary primitives return None for an operand that needs no gradient.


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    value = a.value + b.value
    return _node(value, (a, b),
                 lambda g: (_unbroadcast(g, a.value.shape) if a.requires_grad else None,
                            _unbroadcast(g, b.value.shape) if b.requires_grad else None))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    value = a.value - b.value
    return _node(value, (a, b),
                 lambda g: (_unbroadcast(g, a.value.shape) if a.requires_grad else None,
                            _unbroadcast(-g, b.value.shape) if b.requires_grad else None))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    value = a.value * b.value
    return _node(value, (a, b),
                 lambda g: (_unbroadcast(g * b.value, a.value.shape) if a.requires_grad
                            else None,
                            _unbroadcast(g * a.value, b.value.shape) if b.requires_grad
                            else None))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if (b.value == 0.0).any():
        raise DomainError("division by zero")
    value = a.value / b.value
    return _node(value, (a, b),
                 lambda g: (_unbroadcast(g / b.value, a.value.shape) if a.requires_grad
                            else None,
                            _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape)
                            if b.requires_grad else None))


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _node(-a.value, (a,), lambda g: (-g,))


# ---------------------------------------------------------------------------
# nonlinearities


def exp(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):  # surfaced as OverflowError below
        value = np.exp(a.value)
    if not np.isfinite(value).all():
        raise OverflowError("exp produced a non-finite value")
    return _node(value, (a,), lambda g: (g * value,))


def log(a) -> Tensor:
    a = _as_tensor(a)
    if (a.value <= 0.0).any():
        raise DomainError("log of a non-positive value")
    return _node(np.log(a.value), (a,), lambda g: (g / a.value,))


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    if (a.value < 0.0).any():
        raise DomainError("sqrt of a negative value")
    value = np.sqrt(a.value)
    return _node(value, (a,), lambda g: (g * 0.5 / value,))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    value = np.maximum(a.value, 0.0)
    return _node(value, (a,), lambda g: (np.where(value > 0.0, g, 0.0),))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    x = a.value
    e = np.exp(-np.abs(x))
    value = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _node(value, (a,), lambda g: (g * value * (1.0 - value),))


# ---------------------------------------------------------------------------
# structural ops


def matmul(a, b) -> Tensor:
    """Matrix product with numpy semantics. A 1-D operand pairs with a
    1-D or 2-D one; operands of two or more dims multiply their last two
    axes and broadcast the leading ones, so one node multiplies a whole
    stack of matrices."""
    a, b = _as_tensor(a), _as_tensor(b)
    dims = (a.value.ndim, b.value.ndim)
    if 0 in dims or (1 in dims and max(dims) > 2):
        raise ShapeError("matmul pairs a 1-D operand with a 1-D or 2-D one only")
    try:
        value = a.value @ b.value
    except ValueError as err:
        raise ShapeError(str(err)) from None

    def backward(g):
        av, bv = a.value, b.value
        return (_matmul_grad_a(g, av, bv) if a.requires_grad else None,
                _matmul_grad_b(g, av, bv) if b.requires_grad else None)

    return _node(value, (a, b), backward)


def _matmul_grad_a(g: np.ndarray, av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    if bv.ndim == 1:
        return g * bv if av.ndim == 1 else np.outer(g, bv)
    if bv.ndim == 2:
        return g @ bv.T
    return _unbroadcast(g @ bv.swapaxes(-1, -2), av.shape)


def _matmul_grad_b(g: np.ndarray, av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    if av.ndim == 1:
        return g * av if bv.ndim == 1 else np.outer(av, g)
    if bv.ndim == 1:
        return av.T @ g
    if bv.ndim == 2:
        # a stack times one matrix: one product over all stacked rows
        return av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return _unbroadcast(av.swapaxes(-1, -2) @ g, bv.shape)


def permute(a, axes: Sequence[int]) -> Tensor:
    """Reorder the axes of ``a``: output axis i is input axis ``axes[i]``."""
    a = _as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.value.ndim)):
        raise ShapeError(f"permute axes {axes} do not reorder shape {a.value.shape}")
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return _node(a.value.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def reshape(a, shape: Sequence[int]) -> Tensor:
    """Same entries in row-major order under a new shape (one -1 allowed)."""
    a = _as_tensor(a)
    try:
        value = a.value.reshape(shape)
    except ValueError as err:
        raise ShapeError(str(err)) from None
    return _node(value, (a,), lambda g: (g.reshape(a.value.shape),))


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    a = _as_tensor(a)
    if axis >= a.value.ndim or start + length > a.value.shape[axis]:
        raise ShapeError(f"narrow out of range for shape {a.value.shape}")
    idx = [slice(None)] * a.value.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward(g):
        full = np.zeros(a.value.shape)
        full[idx] = g
        return (full,)

    return _node(a.value[idx].copy(), (a,), backward)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    value = np.concatenate([p.value for p in parts], axis=axis)
    sizes = [p.value.shape[axis] for p in parts]

    def backward(g):
        out = []
        offset = 0
        for p, size in zip(parts, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + size)
            out.append(g[tuple(idx)])
            offset += size
        return tuple(out)

    return _node(value, tuple(parts), backward)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    kept = a.value.sum(axis=axis, keepdims=True)
    kept_shape = kept.shape

    def backward(g):
        grad = np.empty(a.value.shape)
        grad[...] = np.asarray(g).reshape(kept_shape)
        return (grad,)

    return _node(kept if keepdims else kept.squeeze(axis), (a,), backward)


def mean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    count = a.value.size if axis is None else a.value.shape[axis]
    return mul(reduce_sum(a, axis=axis), 1.0 / count)


def max_over_axis(a, axis: int = 0) -> Tensor:
    """Maximum along one axis; gradient goes to the first maximal entry."""
    a = _as_tensor(a)
    return _max_reduce(a, a.value, axis)


def maximum(a, b) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    a, b = _as_tensor(a), _as_tensor(b)
    return _pick(a, b, a.value >= b.value)


def minimum(a, b) -> Tensor:
    """Elementwise min; ties route the gradient to the first argument."""
    a, b = _as_tensor(a), _as_tensor(b)
    return _pick(a, b, a.value <= b.value)


def _pick(a: Tensor, b: Tensor, take_a: np.ndarray) -> Tensor:
    """``a`` where ``take_a``, else ``b``; the gradient follows the pick."""
    value = np.where(take_a, a.value, b.value)
    gate = take_a.astype(np.float64)
    return _node(value, (a, b),
                 lambda g: (_unbroadcast(g * gate, a.value.shape) if a.requires_grad
                            else None,
                            _unbroadcast(g * (1.0 - gate), b.value.shape)
                            if b.requires_grad else None))


def _is_short(x: np.ndarray, axis: int) -> bool:
    return 0 < x.shape[axis] <= _SHORT_AXIS


def _reduce(ufunc: np.ufunc, x: np.ndarray, axis: int) -> np.ndarray:
    """``ufunc.reduce(x, axis=axis, keepdims=True)``; along a short axis,
    one elementwise ``ufunc`` per slice, first to last."""
    if not _is_short(x, axis):
        return ufunc.reduce(x, axis=axis, keepdims=True)
    head = (slice(None),) * (axis % x.ndim)
    out = x[head + (0,)]
    for i in range(1, x.shape[axis]):
        out = ufunc(out, x[head + (i,)])
    return out[head + (None,)]


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    e = np.exp(a.value - _reduce(np.maximum, a.value, axis))
    value = e / _reduce(np.add, e, axis)

    def backward(g):
        return (value * (g - _reduce(np.add, g * value, axis)),)

    return _node(value, (a,), backward)


def masked_max_pool(a, mask, axis: int = 0) -> Tensor:
    """Maximum along ``axis`` over positions where ``mask`` is true.

    A 1-D mask flags the positions of ``axis``; a mask with as many dims
    as ``a`` broadcasts against it, so each output slot can have its own
    valid positions (a padded batch of texts, say). Every slot needs at
    least one. Invalid positions are excluded structurally, so their
    values never influence the output or the gradient.
    """
    a = _as_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    shape = a.value.shape
    if mask.ndim == 1 and len(shape) > 1 and mask.shape[0] == shape[axis]:
        mask = mask.reshape(_along(axis, len(shape)))
    if mask.ndim != len(shape) or any(m != s and m != 1 for m, s in zip(mask.shape, shape)):
        raise ShapeError(f"mask of shape {mask.shape} does not mask axis {axis} "
                         f"of shape {shape}")
    if not mask.any(axis=axis).all():
        raise DomainError("masked_max_pool needs at least one valid position per slot")
    return _max_reduce(a, np.where(mask, a.value, -np.inf), axis)


def _max_reduce(a: Tensor, masked: np.ndarray, axis: int) -> Tensor:
    """Max of ``masked`` (``a``'s values, -inf where excluded) along
    ``axis``."""
    top = _reduce(np.maximum, masked, axis)
    route = _first_max_route(masked, axis) if a.requires_grad else None
    top_shape = top.shape

    def backward(g):
        return (np.where(route, g.reshape(top_shape), 0.0),)

    return _node(top.squeeze(axis), (a,), backward)


def _first_max_route(x: np.ndarray, axis: int) -> np.ndarray:
    """True at the entry of each slot along ``axis`` that ``argmax``
    picks: the first maximum, or the first NaN."""
    positions = np.arange(x.shape[axis]).reshape(_along(axis, x.ndim))
    return positions == x.argmax(axis=axis, keepdims=True)


def _along(axis: int, ndim: int) -> list[int]:
    """The shape that lays a 1-D array along ``axis`` of ``ndim`` dims."""
    return [-1 if i == axis % ndim else 1 for i in range(ndim)]


# ---------------------------------------------------------------------------
# composed losses


def abs_(a) -> Tensor:
    a = _as_tensor(a)
    return add(relu(a), relu(neg(a)))


def bce_with_logits(logits, targets, axis=None) -> Tensor:
    """Mean binary cross-entropy on raw scores, numerically stable: over
    every entry, or along ``axis`` (one loss per remaining slot)."""
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.value.shape:
        raise ShapeError("targets must match the logits shape")
    per = add(sub(relu(logits), mul(logits, constant(targets))),
              log(add(1.0, exp(neg(abs_(logits))))))
    return mean(per, axis=axis)


def cross_entropy(logits, true_index: int) -> Tensor:
    """-log softmax(logits)[true_index] for a 1-D logit vector."""
    logits = _as_tensor(logits)
    if logits.value.ndim != 1:
        raise ShapeError("cross_entropy expects a 1-D logit vector")
    k = logits.value.shape[0]
    if not 0 <= true_index < k:
        raise IndexError(f"class index {true_index} out of range for {k} classes")
    shift = float(logits.value.max())  # constant; exact for any shift
    lse = add(shift, log(reduce_sum(exp(sub(logits, shift)))))
    picked = reduce_sum(narrow(logits, 0, true_index, 1))
    return sub(lse, picked)


# ---------------------------------------------------------------------------
# tape and backward


class Tape:
    """Dependency-ordered record of the operations behind one output."""

    def __init__(self, output: Tensor):
        nodes: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(output, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                nodes.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.nodes = nodes  # topological order: parents precede children


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every tensor that requires grad and that the
    scalar loss depends on. Nodes leave a heap highest creation number
    first, so each one's consumers have all been visited before it; a
    node's pending gradient waits in a dict keyed by the node itself."""
    if loss.value.ndim != 0:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.value.shape}")
    if not np.isfinite(loss.value):
        raise ValueError("backward on a non-finite loss")
    if not loss.requires_grad:
        return
    pending: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=np.float64)}
    heap: list[tuple[int, Tensor]] = [(-loss._order, loss)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        node = pop(heap)[1]
        g = pending.pop(node)
        node.grad = g if node.grad is None else node.grad + g
        backward_fn = node._backward_fn
        if backward_fn is None:
            continue
        for parent, pg in zip(node._parents, backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = pending.get(parent)
            if acc is None:
                pending[parent] = pg
                push(heap, (-parent._order, parent))
            else:
                pending[parent] = acc + pg
