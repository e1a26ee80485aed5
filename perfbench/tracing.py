"""Spans around the calls into each layer of `leaderlabels`, from outside.

`Tracer.install` replaces module attributes with timing wrappers at the names
through which the program looks its functions up: `optimizer` finds the
proximity, forces, beams, metrics and repair entry points in its own
namespace, while `forces`, `metrics` and `repair` each find the two
conflict scans in theirs. Nothing under `src/` changes. A name a later
refactor removes is reported in `missing` and the run goes on without it.

A span is (name, start, end, parent, value). Spans stay in memory until
`write_jsonl`. A span's self time is its duration minus the durations of
its direct children, so the self times inside one `optimizer.run` span add
up to that span's duration.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

RUN_SPAN = "optimizer.run"
PARSE_SPAN = "scenefile.parse"


def _edge_count(args: tuple, result: Any) -> float:
    return len(result.edges)


def _node_count(args: tuple, result: Any) -> float:
    return len(args[0].positions)


def _conflict_total(args: tuple, result: Any) -> float:
    return result[0] + result[1]


def _moves(args: tuple, result: Any) -> float:
    return result[1]


# (module, attribute, span name, value extractor). Several lookups of one
# function share a span name, so every call of the scan counts in its layer
# whichever module made it.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("leaderlabels.optimizer", "initial_layout", "scene.initial_layout", None),
    ("leaderlabels.optimizer", "mean_nn_distance", "proximity.nn_distance", None),
    ("leaderlabels.optimizer", "delaunay_graph", "proximity.delaunay", None),
    ("leaderlabels.optimizer", "prune_graph", "proximity.prune", _edge_count),
    ("leaderlabels.optimizer", "partition_labels", "proximity.partition", None),
    ("leaderlabels.optimizer", "assemble_forces", "forces.assemble", None),
    ("leaderlabels.forces", "conflicting_label_pairs", "forces.label_pairs", None),
    ("leaderlabels.forces", "conflicting_feature_pairs", "forces.feature_pairs", None),
    ("leaderlabels.metrics", "conflicting_label_pairs", "forces.label_pairs", None),
    ("leaderlabels.metrics", "conflicting_feature_pairs", "forces.feature_pairs", None),
    ("leaderlabels.repair", "conflicting_label_pairs", "forces.label_pairs", None),
    ("leaderlabels.repair", "conflicting_feature_pairs", "forces.feature_pairs", None),
    ("leaderlabels.optimizer", "solve_displacements", "beams.solve", _node_count),
    ("leaderlabels.optimizer", "count_conflicts", "metrics.count_conflicts", _conflict_total),
    ("leaderlabels.optimizer", "mean_direction_deviation", "metrics.deviation", None),
    ("leaderlabels.optimizer", "total_displacement_cm", "metrics.displacement", None),
    ("leaderlabels.optimizer", "greedy_repair", "repair.greedy", _moves),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    value: float | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[Any, str, Any]] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, extract: Callable | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if extract is not None:
                try:
                    value = float(extract(args, result))
                except (AttributeError, TypeError, IndexError, KeyError):
                    value = None
                tracer.spans[idx].value = value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name, extract in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, extract))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "value": s.value}
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out
