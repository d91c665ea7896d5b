"""Timing shims around scanmux's layer boundaries, kept in memory, dumped at exit.

``install`` replaces module attributes such as ``scanmux.runner.execute`` and
methods such as ``CompilerCache.lookup`` with wrappers that record one span
per call: name, layer, start, end, parent span, thread and the task's output
directory. Nothing in ``src/`` changes; the wrappers live only in the traced
process. ``self_times`` holds the arithmetic the per-layer report rests on.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    thread: str
    output_dir: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _staged_bytes(volume) -> int:
    total = 0
    for dirpath, _, filenames in os.walk(volume):
        for name in filenames:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def _hashed_bytes(args, result) -> int:
    cache, version = args[0], args[1]
    if version not in cache.known_versions():
        return 0
    try:
        return cache.path_for(version).stat().st_size
    except OSError:
        return 0


def _task_dir(args) -> str | None:
    for arg in args:
        output_dir = getattr(arg, "output_dir", None)
        if isinstance(output_dir, str) and hasattr(arg, "contract"):
            return output_dir
    return None


def _path_dir(args) -> str | None:
    return str(args[0]) if args else None


def _file_dir(args) -> str | None:
    return str(Path(args[0]).parent) if args else None


# (owner module, attribute path, where the task's output dir comes from,
#  extra fields computed from (args, result) after the span has ended)
TARGETS = (
    ("scanmux.registry", "load_registry", None, None),
    ("scanmux.plan", "discover_contracts", None, None),
    ("scanmux.plan", "build_plan", None, None),
    ("scanmux.plan", "write_plan_lock", None, None),
    ("scanmux.plan", "read_plan_lock", None, None),
    ("scanmux.solc", "prefetch_compilers", None, None),
    ("scanmux.solc", "CompilerCache.lookup", None,
     lambda args, result: {"bytes": _hashed_bytes(args, result)}),
    ("scanmux.executor", "MockBackend.pull", None, None),
    ("scanmux.executor", "stage_volume", _task_dir,
     lambda args, result: {"bytes": _staged_bytes(result)}),
    ("scanmux.executor", "execute", _task_dir, None),
    ("scanmux.executor", "MockBackend.run", None, None),
    ("scanmux.executor", "ContainerBackend.copy_out", None, None),
    ("scanmux.executor", "read_raw", _path_dir, None),
    ("scanmux.executor", "read_meta", _file_dir, None),
    ("scanmux.runner", "Runner.run", None,
     lambda args, result: {"workers": args[0].workers, "executed": result.executed}),
    ("scanmux.runner", "resume_filter", None, None),
    ("scanmux.runner", "TaskExecutor.run_task", _task_dir,
     lambda args, result: {"error": result.error is not None}),
    ("scanmux.runner", "write_done_marker", _path_dir, None),
    ("scanmux.parsing", "parse", None,
     lambda args, result: {"findings": len(result.findings)}),
    ("scanmux.parsing", "write_report", _file_dir, None),
    ("scanmux.reporting", "collect_outcomes", None, None),
    ("scanmux.reporting", "build_summary", None, None),
    ("scanmux.reporting", "write_summary", None, None),
    ("scanmux.reporting", "write_findings_csv", None, None),
    ("scanmux.reporting", "emit_sarif", None, None),
    ("scanmux.reporting", "validate_sarif", None, None),
    ("scanmux.reporting", "write_sarif", None, None),
    ("scanmux.cli", "cmd_run", None, None),
    ("scanmux.cli", "cmd_reparse", None, None),
)


class Tracer:
    """Collects spans from every thread into one in-memory list."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, layer: str, fn, dir_of=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent, parent_dir = stack[-1] if stack else (None, None)
            span_id = next(tracer._ids)
            output_dir = (dir_of(args) if dir_of else None) or parent_dir
            stack.append((span_id, output_dir))
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append(Span(span_id, name, layer, start, end, parent,
                                         threading.current_thread().name, output_dir,
                                         {"raised": True}))
                raise
            end = tracer.clock()
            stack.pop()
            extra = post(args, result) if post else {}
            tracer.spans.append(Span(span_id, name, layer, start, end, parent,
                                     threading.current_thread().name, output_dir, extra))
            return result

        return shim

    def dump(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__, sort_keys=True) + "\n")


def install(tracer: Tracer) -> None:
    """Swap every target for its shim, in every scanmux module that holds a reference."""
    importlib.import_module("scanmux.cli")  # loads every layer
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "scanmux" or n.startswith("scanmux."))]
    for module_name, attr, dir_of, post in TARGETS:
        module = sys.modules[module_name]
        layer = module_name.rsplit(".", 1)[1]
        name = f"{layer}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(name, layer, getattr(cls, method), dir_of, post))
            continue
        original = getattr(module, attr)
        shim = tracer.wrap(name, layer, original, dir_of, post)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, shim)


def load_spans(path: str | Path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# self-time arithmetic

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }
