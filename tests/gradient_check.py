"""Central finite-difference verification of tape gradients: the
oracle the tests check every hand-written backward against.

A central difference across a max-style decision (an elementwise
``maximum``/``minimum``, ``max_over_axis``, ``masked_max_pool``) measures
neither side's gradient, so the oracle finds those decisions itself.
``run_pass`` wraps gradkit's two internal funnels, ``_pick`` and
``_max_reduce``, through which every max-style node is built, for the
length of one forward pass, and records each node's margin from the
values it was created with. The nodes themselves carry nothing for it.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from gvgkit.gradkit.tensor import Tape, Tensor, backward

_NUDGE = 1e-7
_TIE_EPS = 1e-9


def run_pass(f: Callable[[], Tensor]) -> tuple[Tensor, float]:
    """``f()`` and the smallest margin by which a max-style decision on
    its tape was made: inf if there is none.

    Only a node whose input requires grad is recorded, since a tie among
    constants cannot move when a parameter is nudged. Its margin is read
    when it is created, before the check edits a parameter in place:
    ``min|a - b|`` for an elementwise max/min, and for a max along an
    axis the smallest gap between a slot's best and second-best entry,
    excluded entries already at -inf. A node built by ``f`` that the
    output does not depend on is not counted."""
    module = importlib.import_module("gvgkit.gradkit.tensor")
    pick, max_reduce = module._pick, module._max_reduce
    margins: list[tuple[Tensor, float]] = []   # keeps each node alive, so ids stay unique

    def recording_pick(a, b, take_a):
        out = pick(a, b, take_a)
        if out.requires_grad:
            margins.append((out, float(np.min(np.abs(a.value - b.value)))))
        return out

    def recording_max_reduce(a, masked, axis):
        out = max_reduce(a, masked, axis)
        if out.requires_grad and masked.shape[axis] > 1:
            top_two = np.partition(masked, -2, axis=axis)
            margins.append((out, float(np.min(np.take(top_two, -1, axis=axis)
                                              - np.take(top_two, -2, axis=axis)))))
        return out

    module._pick, module._max_reduce = recording_pick, recording_max_reduce
    try:
        out = f()
    finally:
        module._pick, module._max_reduce = pick, max_reduce
    margin_of = {id(node): margin for node, margin in margins}
    return out, min((margin_of[id(n)] for n in Tape(out).nodes if id(n) in margin_of),
                    default=np.inf)


@dataclass
class ParamCheck:
    name: str
    checked_entries: int
    skipped_entries: int
    worst_abs: float
    worst_rel: float
    passed: bool


@dataclass
class GradCheckReport:
    passed: bool
    worst_rel: float
    worst_abs: float
    tie_nudged: bool
    params: list[ParamCheck] = field(default_factory=list)

    def __str__(self) -> str:
        lines = [f"gradient check: {'PASS' if self.passed else 'FAIL'} "
                 f"(worst rel {self.worst_rel:.3e}, ties nudged: {self.tie_nudged})"]
        for p in self.params:
            skipped = f", {p.skipped_entries} tie-skipped" if p.skipped_entries else ""
            lines.append(f"  {p.name}: {p.checked_entries} entries{skipped}, "
                         f"worst rel {p.worst_rel:.3e} {'ok' if p.passed else 'FAIL'}")
        return "\n".join(lines)


def _nudge_pattern(arr: np.ndarray) -> np.ndarray:
    # varies per element so exactly tied values separate
    ramp = 1.0 + np.arange(arr.size, dtype=np.float64) / max(arr.size, 1)
    return (_NUDGE * ramp).reshape(arr.shape)


def check_gradients(f: Callable[[], Tensor],
                    params: Sequence[tuple[str, Tensor]],
                    step: float = 1e-5,
                    tol_rel: float = 1e-4,
                    tol_abs: float = 1e-7,
                    max_entries_per_param: Optional[int] = None,
                    seed: int = 0) -> GradCheckReport:
    """Compare tape gradients of the scalar ``f()`` against central
    differences for every named parameter.

    ``f`` must be deterministic and read the parameter tensors by
    reference so in-place value edits are visible. If the forward pass
    hits a tie at a max-style node, all parameters are nudged by a tiny
    per-element offset first to move off the non-smooth point;
    ``run_pass`` finds the ties.

    ``max_entries_per_param`` limits the finite-difference probes per
    tensor (sampled with a fixed seed); None checks every entry. Probe
    entries whose perturbed evaluations fall within the straddle range of
    a max-style decision are excluded rather than reported as failures.
    """
    for _, p in params:
        p.grad = None
    loss, gap = run_pass(f)
    tie_nudged = False
    scale = 1.0
    while gap < _TIE_EPS and scale <= 100.0:
        tie_nudged = True
        for _, p in params:
            p.value = p.value + scale * _nudge_pattern(p.value)
        scale *= 10.0
        loss, gap = run_pass(f)
    backward(loss)

    analytic = {}
    for name, p in params:
        analytic[name] = np.zeros_like(p.value) if p.grad is None else p.grad.copy()

    straddle = 2.0 * step
    rng = np.random.default_rng(seed)
    report = GradCheckReport(passed=True, worst_rel=0.0, worst_abs=0.0,
                             tie_nudged=tie_nudged)
    for name, p in params:
        flat = p.value.reshape(-1)
        n = flat.size
        if max_entries_per_param is not None and n > max_entries_per_param:
            entries = np.sort(rng.choice(n, size=max_entries_per_param, replace=False))
        else:
            entries = np.arange(n)
        worst_abs = worst_rel = 0.0
        skipped = 0
        ok = True
        a_flat = analytic[name].reshape(-1)
        for idx in entries:
            original = flat[idx]
            flat[idx] = original + step
            up_out, up_gap = run_pass(f)
            flat[idx] = original - step
            down_out, down_gap = run_pass(f)
            flat[idx] = original
            if min(up_gap, down_gap) < straddle:
                skipped += 1
                continue
            fd = (float(up_out.value) - float(down_out.value)) / (2.0 * step)
            a = float(a_flat[idx])
            diff = abs(a - fd)
            denom = max(abs(a), abs(fd))
            rel = diff / denom if denom > 0 else 0.0
            worst_abs = max(worst_abs, diff)
            worst_rel = max(worst_rel, rel)
            if diff > tol_rel * denom + tol_abs:
                ok = False
        report.params.append(
            ParamCheck(name, len(entries) - skipped, skipped, worst_abs, worst_rel, ok))
        report.worst_abs = max(report.worst_abs, worst_abs)
        report.worst_rel = max(report.worst_rel, worst_rel)
        report.passed = report.passed and ok
    return report
