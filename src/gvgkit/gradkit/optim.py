"""First-order adaptive-moment optimizer and the cosine step schedule."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from gvgkit.gradkit.tensor import Tensor


class Adam:
    """Standard adaptive-moment estimation; updates parameters in place."""

    def __init__(self, params: Sequence[Tensor], lr: float = 2e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self, lr: float | None = None) -> None:
        """One update. A non-finite gradient raises OverflowError before
        any parameter or moment changes."""
        if not all(p.grad is None or np.all(np.isfinite(p.grad)) for p in self.params):
            raise OverflowError("non-finite gradient")
        if lr is not None:
            self.lr = lr
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.value = p.value - self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def cosine_lr(lr_init: float, epoch: int, total_epochs: int) -> float:
    """Cosine annealing from lr_init down to zero over the given epochs."""
    if total_epochs <= 1:
        return lr_init
    frac = epoch / (total_epochs - 1)
    return lr_init * 0.5 * (1.0 + math.cos(math.pi * frac))
