"""In-memory spans and counts recorded around polytraj's public functions.

The tracer patches each traced name where its caller looks it up (for
example `polytraj.cli.train`, since `cli` imports `train` by name) and
restores every patch on `uninstall`.  The package source is not touched.
Spans are kept in memory; `layer_metrics` reduces them to the per-layer
metrics after the pipeline has run.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import Counter

# (module, attribute path, span name); the attribute is replaced in that module
TRACED = (
    ("polytraj.cli", "cmd_generate", "cli.generate"),
    ("polytraj.cli", "cmd_train", "cli.train"),
    ("polytraj.cli", "cmd_eval", "cli.eval"),
    ("polytraj.cli", "train", "model.train"),
    ("polytraj.cli", "rmse_at_offsets", "evaluation.rmse_at_offsets"),
    ("polytraj.model", "batch_loss", "model.batch_loss"),
    ("polytraj.model", "collate", "model.collate"),
    ("polytraj.model", "draw_schedules", "model.draw_schedules"),
    ("polytraj.model", "TrajectoryModel.forward_batch", "model.forward_batch"),
    ("polytraj.model", "TrajectoryModel.predict_positions", "model.predict_positions"),
    ("polytraj.autodiff", "Adam.step", "autodiff.adam_step"),
    ("polytraj.autodiff", "save_checkpoint", "autodiff.save_checkpoint"),
    ("polytraj.autodiff", "load_checkpoint", "autodiff.load_checkpoint"),
    ("polytraj.data", "ingest_ngsim", "data.ingest_ngsim"),
    ("polytraj.data", "build_scene", "data.build_scene"),
    ("polytraj.data", "filter_straight", "data.filter_straight"),
    ("polytraj.data", "write_scene", "data.write_scene"),
    ("polytraj.data", "gen_synthetic", "data.gen_synthetic"),
    ("polytraj.data", "read_scene", "data.read_scene"),
    ("polytraj.data", "build_sample", "data.build_sample"),
)


class Tracer:
    """Spans as [name, start, end, parent index]; counts keyed by (name, parent)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.gc_pauses: list[tuple[float, float]] = []
        self._stack: list[int] = []
        self._gc_start = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            self.spans[index][1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()

        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(name, self._stack[-1] if self._stack else -1)] += n

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append((self._gc_start, time.perf_counter()))

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import importlib

        for module_name, path, span_name in TRACED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            self._patch(owner, attr, self.wrap(span_name, getattr(owner, attr)))

        model = importlib.import_module("polytraj.model")
        autodiff = importlib.import_module("polytraj.autodiff")
        gru_cell = model.gru_cell

        def counted_gru_cell(*args, **kwargs):
            self.count("model.gru_cell")
            return gru_cell(*args, **kwargs)

        self._patch(model, "gru_cell", counted_gru_cell)
        backward = self.wrap("autodiff.backward", autodiff.Tensor.backward)

        def counted_backward(loss):
            self.count("autodiff.graph_nodes", graph_size(loss))
            return backward(loss)

        self._patch(autodiff.Tensor, "backward", counted_backward)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def graph_size(root) -> int:
    """Autodiff nodes reachable from `root` through `_parents`."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


# -- reduction -----------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def _within(spans, index: int, name: str) -> bool:
    """Whether span `index` or one of its ancestors is named `name`."""
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def _overlap(intervals, windows) -> tuple[float, int]:
    """Total length and count of `intervals` that fall inside any window."""
    total, n = 0.0, 0
    for start, end in intervals:
        for w_start, w_end in windows:
            if w_start <= start and end <= w_end:
                total += end - start
                n += 1
                break
    return total, n


def _median_ms(durations) -> float:
    return 1000.0 * statistics.median(durations) if durations else 0.0


def layer_metrics(tracer: Tracer, steps: int, test_samples: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline; 0 where a layer did not run."""
    spans = tracer.spans
    by_name: dict[str, list[float]] = {}
    train_only: dict[str, list[float]] = {}
    for name, start, end, parent in spans:
        by_name.setdefault(name, []).append(end - start)
        if _within(spans, parent, "model.train"):
            train_only.setdefault(name, []).append(end - start)
    selfs = self_times(spans)
    self_by_name: dict[str, float] = Counter()
    batch_loss_self = []
    for (name, *_), own in zip(spans, selfs):
        self_by_name[name] += own
        if name == "model.batch_loss":
            batch_loss_self.append(own)

    def total(name):
        return sum(by_name.get(name, ()))

    def counted(name):
        return sum(n for (key, parent), n in tracer.counts.items()
                   if key == name and _within(spans, parent, "model.train"))

    per_step = 1.0 / steps if steps else 0.0
    train_windows = [(s, e) for name, s, e, _ in spans if name == "model.train"]
    gc_train_s, gc_train_n = _overlap(tracer.gc_pauses, train_windows)
    gc_total_s = sum(end - start for start, end in tracer.gc_pauses)
    step_ms = [1000.0 * sum(parts) for parts in zip(
        train_only.get("model.batch_loss", ()),
        train_only.get("autodiff.backward", ()),
        train_only.get("autodiff.adam_step", ()),
    )]
    return {
        "runtime.gc_pause_ms_per_step": 1000.0 * gc_train_s * per_step,
        "runtime.gc_collections_per_step": gc_train_n * per_step,
        "runtime.gc_pause_share": gc_total_s / wall_s,
        "autodiff.graph_nodes_per_step": counted("autodiff.graph_nodes") * per_step,
        "autodiff.backward_ms": _median_ms(train_only.get("autodiff.backward", ())),
        "model.gru_cell_calls_per_step": counted("model.gru_cell") * per_step,
        "model.forward_batch_ms": _median_ms(train_only.get("model.forward_batch", ())),
        "model.collate_ms": _median_ms(train_only.get("model.collate", ())),
        "model.draw_schedules_ms": _median_ms(train_only.get("model.draw_schedules", ())),
        "model.batch_loss.self_ms": _median_ms(batch_loss_self),
        "model.train_step_ms.p50": statistics.median(step_ms) if step_ms else 0.0,
        "model.train_step_ms.p90": statistics.quantiles(step_ms, n=10)[8] if len(step_ms) > 1 else 0.0,
        "autodiff.adam_step_ms": _median_ms(train_only.get("autodiff.adam_step", ())),
        "autodiff.save_checkpoint_ms": 1000.0 * total("autodiff.save_checkpoint"),
        "autodiff.load_checkpoint_ms": 1000.0 * total("autodiff.load_checkpoint"),
        "evaluation.rmse_at_offsets_s": total("evaluation.rmse_at_offsets"),
        "evaluation.per_sample_ms": 1000.0 * total("evaluation.rmse_at_offsets") / test_samples,
        "model.predict_positions_ms": _median_ms(by_name.get("model.predict_positions", ())),
        "data.ingest_ngsim_s": total("data.ingest_ngsim"),
        "data.build_scene_ms": _median_ms(by_name.get("data.build_scene", ())),
        "data.build_scene_calls": float(len(by_name.get("data.build_scene", ()))),
        "data.filter_straight_s": total("data.filter_straight"),
        "data.write_scene_ms": _median_ms(by_name.get("data.write_scene", ())),
        "data.gen_synthetic_s": total("data.gen_synthetic"),
        "data.read_scene_ms": _median_ms(by_name.get("data.read_scene", ())),
        "data.build_sample_ms": _median_ms(by_name.get("data.build_sample", ())),
        "cli.generate.self_s": self_by_name.get("cli.generate", 0.0),
        "cli.train.self_s": self_by_name.get("cli.train", 0.0),
        "cli.eval.self_s": self_by_name.get("cli.eval", 0.0),
    }
