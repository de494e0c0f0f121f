"""Reference reverse walk for ``gk.backward``.

It visits ``Tape(loss).nodes``, a depth-first topological order, in
reverse, and adds each node's share to its parents as it goes. The
package's heap walk, highest creation number first, must give the same
gradient for every node. Used only to cross-check the package.
"""

import numpy as np

from gvgkit import gradkit as gk


def tape_walk_gradients(loss: gk.Tensor) -> dict[int, np.ndarray]:
    """The gradient of the scalar ``loss`` for every node that requires
    grad, keyed by ``id(node)``. Nothing is written to ``.grad``."""
    grads = {id(loss): np.ones((), dtype=np.float64)}
    out = {}
    for node in reversed(gk.Tape(loss).nodes):
        g = grads.pop(id(node), None)
        if g is None or not node.requires_grad:
            continue
        out[id(node)] = g
        if node._backward_fn is None:
            continue
        for parent, pg in zip(node._parents, node._backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return out
