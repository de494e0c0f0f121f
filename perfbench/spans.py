"""In-memory span tracer that instruments gvgkit from outside the package.

``Tracer.instrument()`` swaps the public functions of each layer for
wrappers that record a span (name, start, end, parent span, run id) per
call, and restores the originals on exit. Scalar box math is called too
often for spans, so ``geometry.iou``/``giou`` only count calls. Spans stay
in memory; ``write`` dumps them once, at the end of a run.

A span's self time is its duration minus the time its child spans cover.
Calls are sequential in one thread, so the children of a span never
overlap and their durations simply add up.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from gvgkit.gradkit import Tape

LAYERS = ("synth.scenes", "datagen", "synth.encode", "matching", "synth.boxhead",
          "hrs", "gradkit", "synth.train", "synth.predict", "evaluation",
          "geometry", "cli")

# (module, attribute or Class.method, span name); several functions may
# share one span name, e.g. every hrs.loss_* function is "hrs.loss"
SPANS = (
    ("gvgkit.cli", "cmd_build", "cli.build"),
    ("gvgkit.cli", "cmd_train", "cli.train"),
    ("gvgkit.cli", "cmd_predict", "cli.predict"),
    ("gvgkit.cli", "cmd_eval", "cli.eval"),
    ("gvgkit.synth.scenes", "gen_scenes", "synth.scenes.gen_scenes"),
    ("gvgkit.datagen", "write_dataset", "datagen.write_dataset"),
    ("gvgkit.datagen", "read_dataset", "datagen.read_dataset"),
    ("gvgkit.synth.encode", "encode_proposals", "synth.encode.encode_proposals"),
    ("gvgkit.synth.encode", "encode_text", "synth.encode.encode_text"),
    ("gvgkit.matching", "build_cost_matrix", "matching.build_cost_matrix"),
    ("gvgkit.matching", "assign_optimal", "matching.assign_optimal"),
    ("gvgkit.synth.boxhead", "BoxRefiner.refine", "synth.boxhead.refine"),
    ("gvgkit.synth.boxhead", "iou_loss_diff", "synth.boxhead.loss"),
    ("gvgkit.synth.boxhead", "giou_loss_diff", "synth.boxhead.loss"),
    ("gvgkit.synth.boxhead", "interp_iou_loss_diff", "synth.boxhead.loss"),
    ("gvgkit.hrs", "score_expression", "hrs.score_expression"),
    ("gvgkit.hrs", "level0_distribution", "hrs.level0_distribution"),
    ("gvgkit.hrs", "loss_lvl0", "hrs.loss"),
    ("gvgkit.hrs", "loss_lvl1", "hrs.loss"),
    ("gvgkit.hrs", "loss_constrained", "hrs.loss"),
    ("gvgkit.hrs", "loss_hmce", "hrs.loss"),
    ("gvgkit.hrs", "loss_total", "hrs.loss"),
    ("gvgkit.hrs", "HrsParams.save", "hrs.params_io"),
    ("gvgkit.hrs", "HrsParams.load", "hrs.params_io"),
    ("gvgkit.gradkit.tensor", "backward", "gradkit.backward"),
    ("gvgkit.gradkit.optim", "Adam.step", "gradkit.adam_step"),
    ("gvgkit.synth.train", "train_stage1", "synth.train.train_stage1"),
    ("gvgkit.synth.train", "train_stage2", "synth.train.train_stage2"),
    ("gvgkit.synth.predict", "predict_split", "synth.predict.predict_split"),
    ("gvgkit.synth.predict", "write_predictions", "synth.predict.write_predictions"),
    ("gvgkit.synth.predict", "read_predictions", "synth.predict.read_predictions"),
    ("gvgkit.evaluation", "stratify", "evaluation.stratify"),
    ("gvgkit.evaluation", "topk", "evaluation.topk"),
    ("gvgkit.evaluation", "recall_at_05", "evaluation.recall_at_05"),
    ("gvgkit.evaluation", "mean_iou", "evaluation.mean_iou"),
    ("gvgkit.evaluation", "neg_acc", "evaluation.neg_acc"),
)
COUNTED = (
    ("gvgkit.geometry", "iou", "geometry.iou"),
    ("gvgkit.geometry", "giou", "geometry.giou"),
)
STAGE2 = "synth.train.train_stage2"
# the self-time table has one column per phase: the nearest enclosing
# span of these names (the training stages split ``cli.train``)
PHASES = ("cli.build", "synth.train.train_stage1", STAGE2, "cli.train",
          "cli.predict", "cli.eval")
COUNTS = ("matching.cost_cells",)   # taken in Tracer._before


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._seen_texts: set[str] = set()

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def _before(self, name: str, fn_name: str, args: tuple) -> None:
        """Counts taken at a layer boundary, before its span opens."""
        counts = self.counts[self.run_id]
        if name.startswith("cli."):
            self._seen_texts.clear()    # the repeat ratio is per command
        elif name == "synth.encode.encode_text":
            counts["synth.encode.text_repeats"] += args[0] in self._seen_texts
            self._seen_texts.add(args[0])
        elif name == "matching.build_cost_matrix":
            counts["matching.cost_cells"] += len(args[0]) * len(args[1])
        elif fn_name == "loss_hmce" and self._inside(STAGE2):
            counts["hrs.stage2_scenes"] += 1   # one hierarchical loss per scene
        elif name == "gradkit.backward" and self._inside(STAGE2):
            with self.span("trace.tape_count"):   # kept out of every layer's time
                counts["gradkit.tape_nodes"] += len(Tape(args[0]).nodes)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._before(name, fn.__name__, args)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _wrap_count(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[self.run_id][name + ".calls"] += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def instrument(self, run_id: str):
        """Trace every gvgkit call made inside the block under ``run_id``."""
        self.run_id = run_id
        restore = []
        try:
            for module_name, attr, name in SPANS:
                restore.extend(self._patch(module_name, attr, self._wrap, name))
            for module_name, attr, name in COUNTED:
                restore.extend(self._patch(module_name, attr, self._wrap_count, name))
            yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    @staticmethod
    def _patch(module_name: str, attr: str, wrap, name: str):
        module = importlib.import_module(module_name)
        if "." in attr:
            # methods: patch the class once; classmethods keep their binding
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(wrap(raw.__func__, name)))
            else:
                setattr(cls, meth, wrap(raw, name))
            return [(cls, meth, raw)]
        # functions: replace every module-level binding of the same object,
        # since callers import them by name (``from gvgkit.x import f``)
        original = getattr(module, attr)
        wrapped = wrap(original, name)
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gvgkit" or mod_name.startswith("gvgkit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    patched.append((mod, key, original))
        return patched

    # -- aggregation -------------------------------------------------------

    def aggregate(self, run_ids) -> "Aggregate":
        """Per-run means over the spans and counts recorded under ``run_ids``."""
        run_ids = set(run_ids)
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        agg = Aggregate(len(run_ids))
        phase: list[str] = []
        for i, s in enumerate(self.spans):
            phase.append(s.name if s.name in PHASES or s.parent is None else phase[s.parent])
            if s.run_id in run_ids:
                agg.total[s.name] += s.end - s.start
                agg.calls[s.name] += 1
                agg.self[phase[i], s.name] += s.end - s.start - covered[i]
        for run_id in run_ids:
            agg.counts.update(self.counts.get(run_id, Counter()))
        return agg

    def write(self, path: Path, header: dict) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.run_id] for s in self.spans]
        payload = {**header, "columns": ["name", "start", "end", "parent", "run_id"],
                   "spans": rows}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))


class Aggregate:
    """Sums over ``runs`` traced runs; metrics report them per run."""

    def __init__(self, runs: int) -> None:
        self.runs = max(runs, 1)
        self.total: Counter = Counter()           # span name -> duration
        self.self: Counter = Counter()            # (phase, span name) -> self time
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def self_time_table(self) -> dict[str, dict[str, float]]:
        """Self time per phase and layer, per run; trace-only spans are
        left out."""
        table: dict[str, dict[str, float]] = {}
        for (phase, name), value in self.self.items():
            layer = max((l for l in LAYERS if name.startswith(l + ".")), key=len,
                        default=None)
            if layer is not None:
                row = table.setdefault(phase, dict.fromkeys(LAYERS, 0.0))
                row[layer] += value / self.runs
        return table

    def metric(self, name: str) -> float:
        """Value of a per-layer metric named ``<span>.self_s``, ``<span>_s``
        (total duration), ``<span>.calls`` or one of the derived counts.
        Ratios are taken over all runs, the rest is per run; a layer that
        never ran reads zero."""
        if name == "gradkit.tape_nodes_per_scene":
            scenes = self.counts["hrs.stage2_scenes"]
            return self.counts["gradkit.tape_nodes"] / scenes if scenes else 0.0
        if name == "synth.encode.text_repeat_ratio":
            calls = self.calls["synth.encode.encode_text"]
            return self.counts["synth.encode.text_repeats"] / calls if calls else 0.0
        if name == "evaluation.metric_calls":
            total = sum(self.calls[f"evaluation.{fn}"]
                        for fn in ("topk", "recall_at_05", "mean_iou", "neg_acc"))
        elif name in self.counts or name in COUNTS:
            total = self.counts[name]
        elif name.endswith(".self_s"):
            span = name[:-len(".self_s")]
            total = sum(v for (_, n), v in self.self.items() if n == span)
        elif name.endswith(".calls"):
            total = self.calls[name[:-len(".calls")]]
        elif name.endswith("_s"):
            total = self.total[name[:-len("_s")]]
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
        return total / self.runs
