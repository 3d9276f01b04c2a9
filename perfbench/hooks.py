"""Per-layer timing measured from outside the program.

A traced run wraps public class methods and driver-level functions of
:mod:`repro` *before* the measured operation starts; the program's source
is never edited.  Every wrapped call records a span — name, start, end,
parent span, run id — in memory, and the spans are written out when the
run ends.  A name that is re-entered on the same thread (a recursive
builder, a forest predictor calling its member predictors) is timed at
its outermost call only, so inclusive times never double count.

A hook point that no longer exists (renamed or deleted by a refactor) is
recorded as missing; the metrics fed only by missing hook points are then
reported as missing (``None``), never as zero.  End-to-end runs install
no hooks at all.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

#: (hook point, span name).  A hook point is ``module:function`` (patched
#: in every ``repro`` module that imported it) or ``module:Class.method``.
HOOK_POINTS = (
    ("repro.storage.table:DiskTable.scan", "storage.scan"),
    ("repro.storage.table:DiskTable.scan_columns", "storage.scan"),
    ("repro.storage.sampling:sample_table", "storage.sample"),
    ("repro.forest.build:_gather_member_samples", "storage.sample"),
    ("repro.core.bootstrap:sampling_phase", "core.bootstrap.sampling_phase"),
    ("repro.core.cleanup:cleanup_scan", "core.cleanup.cleanup_scan"),
    ("repro.core.cleanup:shared_cleanup_scan", "core.cleanup.cleanup_scan"),
    ("repro.core.finalize:finalize_tree", "core.finalize.finalize"),
    ("repro.core.quest_boat:_QuestFinalizer.run", "core.finalize.finalize"),
    ("repro.tree.builder:build_reference_tree", "tree.builder.build_reference_tree"),
    ("repro.kernels.vectorized:NumpyKernels.numeric_candidates", "kernels.numeric_candidates"),
    ("repro.kernels.vectorized:NumpyKernels.weighted_impurity", "kernels.weighted_impurity"),
    ("repro.kernels.vectorized:NumpyKernels.bucket_class_counts", "kernels.bucket_class_counts"),
    ("repro.kernels.vectorized:NumpyKernels.interval_masks", "kernels.interval_masks"),
    ("repro.kernels.vectorized:NumpyKernels.category_class_counts", "kernels.category_class_counts"),
    ("repro.kernels.vectorized:NumpyKernels.quest_numeric_moments", "kernels.quest_numeric_moments"),
    ("repro.serve.server:records_to_batch", "serve.records_to_batch"),
    ("repro.serve.compiled:CompiledPredictor.leaf_indices", "serve.compute"),
    ("repro.serve.compiled:CompiledPredictor.predict", "serve.compute"),
    ("repro.serve.forest:CompiledForest.leaf_indices", "serve.compute"),
    ("repro.serve.forest:CompiledForest.predict", "serve.compute"),
    ("repro.serve.registry:ModelRegistry.publish", "serve.registry.publish"),
    ("repro.core.incremental:IncrementalBoat.insert", "core.incremental.apply"),
    ("repro.core.incremental:IncrementalBoat.delete", "core.incremental.apply"),
)

#: Span names whose hook points return generators: each step is timed.
_GENERATORS = {"storage.scan"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    run_id: str


class Recorder:
    """In-memory span store plus counters, shared by every hook."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.installed: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> int | None:
        """Open a span unless ``name`` is already open on this thread.

        Returns the new span's id, or ``None`` for a nested re-entry.
        """
        stack = self._stack()
        if any(frame[0] == name for frame in stack):
            stack.append((name, None, None))
            return None
        with self._lock:
            self._ids += 1
            span_id = self._ids
        parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
        stack.append((name, span_id, parent))
        return span_id

    def leave(self, start: float, end: float) -> None:
        name, span_id, parent = self._stack().pop()
        if span_id is None:
            return
        with self._lock:
            self.spans.append(Span(name, start, end, span_id, parent, self.run_id))

    def total(self, name: str) -> float:
        """Inclusive seconds spent in spans called ``name``."""
        return float(sum(s.end - s.start for s in self.spans if s.name == name))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def has(self, span_name: str) -> bool:
        """True when at least one hook point feeding ``span_name`` exists."""
        return span_name in self.installed

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")

    # -- wrappers --------------------------------------------------------------

    def wrap(self, fn, name: str):
        recorder = self

        if name in _GENERATORS:
            @functools.wraps(fn)
            def scan_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    recorder.enter(name)
                    start = time.perf_counter()
                    try:
                        batch = next(it)
                    except StopIteration:
                        recorder.leave(start, time.perf_counter())
                        return
                    recorder.leave(start, time.perf_counter())
                    yield batch

            return scan_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = recorder.enter(name) is not None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.leave(start, time.perf_counter())
            if outermost:
                recorder._count(name, args, result)
            return result

        return wrapper

    def _count(self, name: str, args: tuple, result) -> None:
        """Counters read off a call's arguments and result."""
        self.count(f"{name}.calls")
        if name == "kernels.numeric_candidates":
            self.count("kernels.numeric_candidates.rows", len(args[1]))
        elif name == "core.bootstrap.sampling_phase":
            self.count("core.bootstrap.skeleton_nodes", result.report.skeleton_nodes)
        elif name == "core.finalize.finalize" and isinstance(result, tuple):
            report = result[1]
            self.count("core.finalize.confirmed", report.confirmed_splits)
            self.count("core.finalize.rebuilds", report.rebuilds)
            self.count("core.finalize.frontier_completions", report.frontier_completions)
        elif name == "core.incremental.apply":
            self.count("core.incremental.updates")
            self.count("core.incremental.rebuilt_updates", int(result.finalize.rebuilds > 0))
        elif name == "serve.compute":
            self.count("serve.compute.rows", len(args[1]))


def _resolve(point: str):
    module_name, _, qualname = point.partition(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(recorder: Recorder, points=HOOK_POINTS) -> Recorder:
    """Wrap every hook point that exists; note the ones that do not."""
    for point, name in points:
        try:
            owner, attr, original = _resolve(point)
        except (ImportError, AttributeError):
            recorder.missing.append(point)
            continue
        wrapped = recorder.wrap(original, name)
        recorder.installed.add(name)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        # A module-level function: patch it wherever it was imported.
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return recorder
