"""Parallel task execution over a seeded shuffle, with exact resume after interrupts."""

from __future__ import annotations

import random
import threading
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .executor import (
    ContainerBackend,
    ExecutorUnavailableError,
    execute,
)
from .model import ExecutionRecord, HarnessError, ParsedReport, RawResult, Task
from .parsing import RESULT_FILENAME, ExitClass, classify_exit, parse, write_report
from .plan import RunPlan
from .registry import ParserSpec, Registry
from .solc import CompilerCache

DONE_MARKER_FILENAME = "done"
MARKER_VERSION = "v1"
_EXIT_CLASSES = frozenset(c.value for c in ExitClass)


class CorruptMarkerError(HarnessError):
    pass


def write_done_marker(out_dir: Path, content_hash: str, args_digest: str, exit_class: str) -> None:
    """Record completion. Must be the last artifact written for a task."""
    (out_dir / DONE_MARKER_FILENAME).write_text(
        f"{MARKER_VERSION} {content_hash} {args_digest} {exit_class}\n", encoding="utf-8"
    )


def read_done_marker(out_dir: Path) -> tuple[str, str, str] | None:
    """(content_hash, args_digest, exit_class) of a completed task, or None."""
    path = out_dir / DONE_MARKER_FILENAME
    if not path.exists():
        return None
    parts = path.read_text(encoding="utf-8", errors="replace").split()
    if len(parts) != 4 or parts[0] != MARKER_VERSION or parts[3] not in _EXIT_CLASSES:
        raise CorruptMarkerError(f"{path}: malformed marker")
    return parts[1], parts[2], parts[3]


def finalize(
    out_dir: Path,
    record: ExecutionRecord,
    raw: RawResult,
    parser: ParserSpec,
    content_hash: str,
    args_digest: str,
) -> tuple[ExitClass, ParsedReport]:
    """Parse, classify, write ``result.json``, then the done marker last.

    The one completion path for a task, shared by a run and by reparse, so
    reparsing stored output with an unchanged registry reproduces both files
    byte for byte.
    """
    report = parse(raw, parser)
    exit_class = classify_exit(record, report)
    write_report(out_dir / RESULT_FILENAME, report)
    write_done_marker(out_dir, content_hash, args_digest, exit_class.value)
    return exit_class, report


def _archive_stale(out_dir: Path) -> None:
    if not out_dir.exists():
        return
    k = 1
    while True:
        target = out_dir.with_name(f"{out_dir.name}.stale.{k}")
        if not target.exists():
            out_dir.rename(target)
            return
        k += 1


def resume_filter(plan: RunPlan, results_root: str | Path) -> list[Task]:
    """Tasks still to run: marker absent, corrupt, or not matching this plan.

    A folder with a stale marker is moved aside (suffix ``.stale.<k>``) so
    the rerun starts clean without destroying evidence.
    """
    root = Path(results_root)
    pending: list[Task] = []
    for task in plan.tasks:
        out_dir = root / task.output_dir
        try:
            marker = read_done_marker(out_dir)
        except CorruptMarkerError:
            _archive_stale(out_dir)
            pending.append(task)
            continue
        if marker is None:
            pending.append(task)
            continue
        marked_hash, marked_digest, _ = marker
        if marked_hash == task.contract.content_hash and marked_digest == plan.args_digest:
            continue
        _archive_stale(out_dir)
        pending.append(task)
    return pending


def _randbelow(rng: random.Random, n: int) -> int:
    # Rejection sampling over getrandbits keeps the draw unbiased and the
    # stream identical on every platform for a fixed seed.
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def permute(tasks: Sequence[Task], seed: int) -> list[Task]:
    """Uniform Fisher-Yates shuffle driven by a seeded Mersenne Twister."""
    items = list(tasks)
    rng = random.Random(seed)
    for i in range(len(items) - 1, 0, -1):
        j = _randbelow(rng, i + 1)
        items[i], items[j] = items[j], items[i]
    return items


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one dispatched task."""

    task: Task
    exit_class: ExitClass | None = None
    record: ExecutionRecord | None = None
    report: ParsedReport | None = None
    error: str | None = None
    aborted: bool = False

    @property
    def tally_key(self) -> ExitClass | str:
        """Bucket of the run tally: the exit class, or how the task fell short."""
        if self.aborted:
            return "aborted"
        if self.error is not None:
            return "infra_error"
        return self.exit_class


@dataclass(frozen=True)
class RunSummary:
    total: int
    executed: int
    succeeded: int
    tool_errors: int
    tool_failures: int
    timeouts: int
    oom: int
    infra_errors: int
    skipped_as_done: int
    aborted: int

    @property
    def remaining(self) -> int:
        return self.total - self.executed - self.skipped_as_done


class TaskExecutor:
    """Run one task end to end: container, parse, result file, done marker."""

    def __init__(
        self,
        backend: ContainerBackend,
        registry: Registry,
        cache: CompilerCache,
        image_digests,
        args_digest: str,
    ):
        self.backend = backend
        self.registry = registry
        self.cache = cache
        self.image_digests = dict(image_digests)
        self.args_digest = args_digest

    def available(self) -> bool:
        return self.backend.available()

    def request_abort(self) -> None:
        self.backend.request_abort()

    def run_task(self, task: Task, results_root: Path) -> TaskResult:
        digest = self.image_digests.get(task.tool.image_ref)
        if digest is None:
            return TaskResult(task, error=f"image {task.tool.image_ref!r} was not prefetched")
        try:
            record, raw, aborted = execute(
                task,
                self.backend,
                cache=self.cache,
                results_root=results_root,
                image_digest=digest,
            )
        except HarnessError as exc:
            return TaskResult(task, error=str(exc))
        if aborted:
            # No done marker: the task must rerun on resume.
            return TaskResult(task, record=record, aborted=True)
        exit_class, report = finalize(
            results_root / task.output_dir,
            record,
            raw,
            self.registry.parser_for(task.tool),
            task.contract.content_hash,
            self.args_digest,
        )
        return TaskResult(task, exit_class=exit_class, record=record, report=report)


class Runner:
    """Coordinator owning the pending queue; N workers pull from it."""

    def __init__(
        self,
        plan: RunPlan,
        executor: TaskExecutor,
        results_root: str | Path,
        workers: int = 1,
        on_progress: Callable[[int, int], None] | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.plan = plan
        self.executor = executor
        self.results_root = Path(results_root)
        self.workers = workers
        self.on_progress = on_progress
        self._queue: deque[Task] = deque()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._in_flight: set[str] = set()
        self._tally: Counter[ExitClass | str] = Counter()

    def request_stop(self) -> None:
        """Stop dispatching; in-flight tasks run to completion (or timeout)."""
        self._stop.set()

    def request_kill(self) -> None:
        """Stop dispatching and kill in-flight containers; their tasks stay pending."""
        self._stop.set()
        self.executor.request_abort()

    def _next_task(self) -> Task | None:
        with self._lock:
            if self._stop.is_set() or not self._queue:
                return None
            task = self._queue.popleft()
            if task.output_dir in self._in_flight:
                raise AssertionError(f"output dir dispatched twice: {task.output_dir}")
            self._in_flight.add(task.output_dir)
            return task

    def _worker(self, pending_total: int) -> None:
        while True:
            task = self._next_task()
            if task is None:
                return
            try:
                result = self.executor.run_task(task, self.results_root)
            except Exception as exc:  # defensive: a worker crash must not hang the pool
                result = TaskResult(task, error=f"unexpected: {exc!r}")
            finally:
                with self._lock:
                    self._in_flight.discard(task.output_dir)
            with self._lock:
                self._tally[result.tally_key] += 1
                done, progress = self._tally.total(), self.on_progress
            if progress is not None:
                progress(done, pending_total)

    def run(self) -> RunSummary:
        if not self.executor.available():
            raise ExecutorUnavailableError("container backend is not available")
        pending = resume_filter(self.plan, self.results_root)
        skipped = len(self.plan.tasks) - len(pending)
        self._queue = deque(permute(pending, self.plan.seed))
        self._tally = Counter()
        threads = [
            threading.Thread(target=self._worker, args=(len(pending),), name=f"scanmux-worker-{i}")
            for i in range(min(self.workers, max(len(pending), 1)))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tally = self._tally
        return RunSummary(
            total=len(self.plan.tasks),
            executed=tally.total(),
            succeeded=tally[ExitClass.SUCCESS],
            tool_errors=tally[ExitClass.TOOL_ERROR],
            tool_failures=tally[ExitClass.TOOL_FAILURE],
            timeouts=tally[ExitClass.TIMEOUT],
            oom=tally[ExitClass.OUT_OF_MEMORY],
            infra_errors=tally["infra_error"],
            skipped_as_done=skipped,
            aborted=tally["aborted"],
        )
