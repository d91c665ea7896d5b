"""Parallel task execution over a seeded shuffle, with exact resume after interrupts."""

from __future__ import annotations

import random
import threading
from collections import Counter, deque
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .executor import ContainerBackend, execute
from .model import ExecutionRecord, HarnessError, ParsedReport, RawResult, Task
from .parsing import RESULT_FILENAME, ExitClass, classify_exit, parse, report_bytes, write_report
from .plan import PlanningError, RunPlan
from .registry import ParserSpec, Registry
from .solc import CompilerCache, SemVer

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
    try:
        parts = path.read_text(encoding="utf-8", errors="replace").split()
    except FileNotFoundError:
        return None
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
    *,
    stored: ExitClass | None = None,
    before_write: Callable[[], None] | None = None,
) -> tuple[ExitClass, ParsedReport]:
    """Parse, classify, write ``result.json``, then the done marker last.

    The one completion path for a task, shared by a run and by reparse, so
    reparsing stored output with an unchanged registry reproduces both files
    byte for byte. With ``before_write``, as reparse passes it, a task whose
    ``result.json`` on disk already holds the new bytes and whose exit class
    equals ``stored``, its marker's, is left untouched; any other task calls
    ``before_write()`` before either file is written.
    """
    report = parse(raw, parser)
    exit_class = classify_exit(record, report)
    result_path = out_dir / RESULT_FILENAME
    if before_write is not None:
        if exit_class is stored and _holds(result_path, report_bytes(report)):
            return exit_class, report
        before_write()
    write_report(result_path, report)
    write_done_marker(out_dir, content_hash, args_digest, exit_class.value)
    return exit_class, report


def _holds(path: Path, data: bytes) -> bool:
    """True when the file at ``path`` holds exactly ``data``; a missing or unreadable file does not."""
    try:
        return path.read_bytes() == data
    except OSError:
        return False


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


def read_done_markers(
    results_root: Path, output_dirs: Iterable[str]
) -> dict[str, tuple[str, str, ExitClass] | None]:
    """Output dir -> (content hash, args digest, exit class) of its done marker, None if corrupt.

    An output dir without a marker has no entry.
    """
    markers: dict[str, tuple[str, str, ExitClass] | None] = {}
    for output_dir in output_dirs:
        try:
            marker = read_done_marker(results_root / output_dir)
        except CorruptMarkerError:
            markers[output_dir] = None
            continue
        if marker is not None:
            markers[output_dir] = (marker[0], marker[1], ExitClass(marker[2]))
    return markers


def resume_filter(plan: RunPlan, results_root: str | Path) -> tuple[list[Task], dict[str, ExitClass]]:
    """(tasks still to run, output dir -> exit class of each task already done).

    A task is pending when its marker is absent, corrupt, or does not match
    this plan. A folder with a corrupt or stale marker is moved aside (suffix
    ``.stale.<k>``) so the rerun starts clean without destroying evidence.
    """
    root = Path(results_root)
    markers = read_done_markers(root, (task.output_dir for task in plan.tasks))
    pending: list[Task] = []
    done: dict[str, ExitClass] = {}
    for task in plan.tasks:
        if task.output_dir not in markers:
            pending.append(task)
        elif (marker := markers[task.output_dir]) and marker[:2] == (task.contract.content_hash, plan.args_digest):
            done[task.output_dir] = marker[2]
        else:
            _archive_stale(root / task.output_dir)
            pending.append(task)
    return pending, done


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


def _in_threads(name: str, target: Callable[..., None], args: Sequence[tuple]) -> None:
    """Run ``target`` once per argument tuple, each on its own thread ``<name>-<i>``, and wait for all."""
    threads = [threading.Thread(target=target, args=a, name=f"{name}-{i}") for i, a in enumerate(args)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TaskResult(NamedTuple):
    """Outcome of one dispatched task."""

    task: Task
    exit_class: ExitClass | None = None
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


class _RunSummary(NamedTuple):
    total: int
    skipped_as_done: int
    tally: Counter[ExitClass | str] | None = None  # None: a new Counter
    finished: dict[str, ExitClass] | None = None  # output dir -> exit class of every done task; None: a new dict
    infra_errors: dict[str, str] | None = None  # output dir -> message, per unfinished task; None: a new dict


class RunSummary(_RunSummary):
    """The record of one run; ``tally`` counts the tasks it executed by ``TaskResult.tally_key``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return self._replace(
            tally=Counter() if self.tally is None else self.tally,
            finished={} if self.finished is None else self.finished,
            infra_errors={} if self.infra_errors is None else self.infra_errors,
        )

    @property
    def executed(self) -> int:
        return self.tally.total()

    @property
    def remaining(self) -> int:
        return self.total - self.executed - self.skipped_as_done


class TaskExecutor:
    """Run one task end to end: container, parse, result file, done marker."""

    def __init__(self, plan: RunPlan, backend: ContainerBackend, registry: Registry, cache: CompilerCache):
        self.plan = plan
        self.backend = backend
        self.registry = registry
        self.cache = cache

    def run_task(self, task: Task, results_root: Path) -> TaskResult:
        try:
            record, raw, aborted = execute(
                task,
                self.backend,
                cache=self.cache,
                results_root=results_root,
                image_digest=self.plan.image_digests[task.tool.image_ref],
            )
        except HarnessError as exc:
            return TaskResult(task, error=str(exc))
        if aborted:
            # No done marker: the task must rerun on resume.
            return TaskResult(task, aborted=True)
        exit_class, report = finalize(
            results_root / task.output_dir,
            record,
            raw,
            self.registry.parser_for(task.tool),
            task.contract.content_hash,
            self.plan.args_digest,
        )
        return TaskResult(task, exit_class=exit_class, report=report)


class Runner:
    """Coordinator owning the pending queue; N workers pull from it."""

    def __init__(
        self,
        executor: TaskExecutor,
        results_root: str | Path,
        workers: int = 1,
        on_progress: Callable[[int, int], None] | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.executor = executor
        self.results_root = Path(results_root)
        self.workers = workers
        self.on_progress = on_progress
        self._queue: deque[Task] = deque()
        self._lock = threading.Lock()
        self._stop = threading.Event()

    def request_stop(self) -> None:
        """Stop dispatching; in-flight tasks run to completion (or timeout)."""
        self._stop.set()

    def request_kill(self) -> None:
        """Stop dispatching and kill in-flight containers; their tasks stay pending."""
        self._stop.set()
        self.executor.backend.request_abort()

    def _next_task(self) -> Task | None:
        with self._lock:
            if self._stop.is_set() or not self._queue:
                return None
            return self._queue.popleft()

    def _worker(self, summary: RunSummary, pending_total: int) -> None:
        while True:
            task = self._next_task()
            if task is None:
                return
            try:
                result = self.executor.run_task(task, self.results_root)
            except Exception as exc:  # defensive: a worker crash must not hang the pool
                result = TaskResult(task, error=f"unexpected: {exc!r}")
            with self._lock:
                summary.tally[result.tally_key] += 1
                if result.error is not None:
                    summary.infra_errors[task.output_dir] = result.error
                if result.exit_class is not None:
                    summary.finished[task.output_dir] = result.exit_class
                if self.on_progress is not None:  # under the lock: calls never overlap
                    self.on_progress(summary.executed, pending_total)

    def _verify_compilers(self, pending: Sequence[Task]) -> None:
        """Hash, in parallel, each compiler that a pending task stages, before any task is dispatched.

        Planning only fetched what was absent. A binary that fails its digest
        is dropped from the cache, so the next run fetches it again, and the
        run fails as planning would.
        """
        versions = sorted({SemVer.parse(t.compiler_version) for t in pending if t.compiler_version})
        cache = self.executor.cache
        width = min(self.workers, len(versions))
        verified: dict[SemVer, Path | None] = {}

        def verify(share: Sequence[SemVer]) -> None:
            for version in share:
                verified[version] = cache.lookup(version)  # hashlib releases the GIL

        _in_threads("scanmux-verify", verify, [(versions[i::width],) for i in range(width)])
        failed = [version for version in versions if verified.get(version) is None]
        for version in failed:
            cache.discard(version)
        if failed:
            raise PlanningError([
                f"compiler {version}: cached binary {cache.path_for(version)} is missing or fails its digest "
                "check; it was removed from the cache, so the next run fetches it again"
                for version in failed
            ])

    def run(self, before_dispatch: Callable[[], None] | None = None) -> RunSummary:
        """Resume scan, compiler check, then every pending task on the worker pool.

        ``before_dispatch`` is called once, when some task is pending, after
        the compiler check and before the first task is dispatched.
        """
        plan = self.executor.plan
        pending, done = resume_filter(plan, self.results_root)
        self._verify_compilers(pending)
        if pending and before_dispatch is not None:
            before_dispatch()
        summary = RunSummary(total=len(plan.tasks), skipped_as_done=len(done), finished=done)
        self._queue = deque(permute(pending, plan.seed))
        _in_threads("scanmux-worker", self._worker, [(summary, len(pending))] * min(self.workers, max(len(pending), 1)))
        return summary
