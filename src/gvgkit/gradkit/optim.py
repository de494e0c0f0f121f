"""First-order adaptive-moment optimizer, at the textbook ``BETA1``,
``BETA2`` and ``EPS`` and the rate each step is given, and the cosine
step schedule that gives it."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from gvgkit.gradkit.tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard adaptive-moment estimation; updates parameters in place.

    Each step does the textbook arithmetic, operation by operation, into
    a scratch array per parameter, so it allocates only the new value."""

    def __init__(self, params: Sequence[Tensor]):
        self.params = list(params)
        self.t = 0
        self._m = [np.zeros(p.value.shape) for p in self.params]
        self._v = [np.zeros(p.value.shape) for p in self.params]
        self._scratch = [np.empty(p.value.shape) for p in self.params]

    def step(self, lr: float) -> None:
        """One update at rate ``lr``. A non-finite gradient raises
        OverflowError before any parameter or moment changes."""
        for p in self.params:
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise OverflowError("non-finite gradient")
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        for p, m, v, tmp in zip(self.params, self._m, self._v, self._scratch):
            g = p.grad
            if g is None:
                continue
            m *= BETA1
            m += np.multiply(1.0 - BETA1, g, out=tmp)
            v *= BETA2
            np.multiply(1.0 - BETA2, g, out=tmp)
            tmp *= g
            v += tmp
            # lr * (m / b1t) / (sqrt(v / b2t) + eps), then value - that
            update = np.divide(m, b1t, out=np.empty_like(m))
            update *= lr
            np.sqrt(np.divide(v, b2t, out=tmp), out=tmp)
            tmp += EPS
            update /= tmp
            p.value = np.subtract(p.value, update, out=update)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def cosine_lr(lr_init: float, epoch: int, total_epochs: int) -> float:
    """Cosine annealing from lr_init down to zero over the given epochs."""
    if total_epochs <= 1:
        return lr_init
    frac = epoch / (total_epochs - 1)
    return lr_init * 0.5 * (1.0 + math.cos(math.pi * frac))
