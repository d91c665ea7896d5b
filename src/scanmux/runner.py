"""Parallel task execution over a seeded shuffle, with exact resume after interrupts."""

from __future__ import annotations

import contextlib
import errno
import os
import random
import threading
from collections import Counter, deque
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import taskdir
from .executor import ContainerBackend, ScratchVolume, VerifiedCompilers, compiler_stamp, execute
from .model import ExecutionRecord, HarnessError, RawResult, Task
from .parsing import ExitClass, classify_exit, parse, write_report
from .plan import PlanningError, RunPlan
from .registry import ParserSpec, Registry
from .reporting import SUMMARY_FILENAME
from .solc import CompilerCache, SemVer

MARKER_VERSION = "v1"
_EXIT_CLASSES = frozenset(c.value for c in ExitClass)


class CorruptMarkerError(HarnessError):
    pass


def write_done_marker(folder: str, content_hash: str, args_digest: str, exit_class: str) -> None:
    """Record completion. Must be the last artifact written for a task."""
    taskdir.write(folder, taskdir.DONE, f"{MARKER_VERSION} {content_hash} {args_digest} {exit_class}\n".encode())


def read_done_marker(folder: str) -> tuple[str, str, str] | None:
    """(content_hash, args_digest, exit_class) of a completed task, or None; a read fault is a HarnessError."""
    try:
        parts = taskdir.read(folder, taskdir.DONE).decode("utf-8", errors="replace").split()
    except FileNotFoundError:
        return None
    except OSError as exc:  # a directory, a symlink or a folder that is a file is as corrupt as a torn marker
        if exc.errno in (errno.EISDIR, errno.ELOOP, errno.ENOTDIR):
            raise CorruptMarkerError(f"{folder}: unreadable marker: {exc.strerror}") from None
        raise HarnessError(f"{os.path.join(folder, taskdir.DONE)}: cannot be read: {exc.strerror or exc}") from None
    if len(parts) != 4 or parts[0] != MARKER_VERSION or parts[3] not in _EXIT_CLASSES:
        raise CorruptMarkerError(f"{folder}: malformed marker")
    return parts[1], parts[2], parts[3]


def finalize(
    results_root: str | Path,
    folder: str,
    record: ExecutionRecord,
    raw: RawResult,
    parser: ParserSpec,
    content_hash: str,
    args_digest: str,
    *,
    marked: bool = False,
) -> ExitClass:
    """Parse, classify, and write ``result.json`` and the done marker into the task ``folder``.

    The one completion path for a task, shared by a run and by reparse, so
    reparsing stored output with an unchanged registry reproduces both files
    byte for byte. It first deletes ``summary.json``, and with it the reports'
    stamp: no stamp outlives the ``result.json`` it was built from. The file
    written last commits: the marker on a run, as it makes the task done, and
    ``result.json`` on a reparse of a ``marked`` task, as its key makes the
    task current. A kill between the two leaves the task to be derived again.
    """
    report = parse(raw, parser)
    exit_class = classify_exit(record, report)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(os.path.join(results_root, SUMMARY_FILENAME))
    if marked:
        write_done_marker(folder, content_hash, args_digest, exit_class.value)
    write_report(folder, report)
    if not marked:
        write_done_marker(folder, content_hash, args_digest, exit_class.value)
    return exit_class


def done_markers(results_root: str | Path, tasks: Iterable) -> Iterator[tuple]:
    """Yield (task, its folder, its done marker) for each of ``tasks`` (with an ``output_dir``), in order.

    The marker is (content hash, args digest, exit class), ``()`` when corrupt, or
    None when absent. A folder that a symlink leads to is None, with no marker.
    """
    for task in tasks:
        try:
            folder = taskdir.folder(results_root, task.output_dir)
        except HarnessError:
            yield task, None, None
            continue
        try:
            marker = read_done_marker(folder)
        except CorruptMarkerError:
            marker = ()
        yield task, folder, marker and (marker[0], marker[1], ExitClass(marker[2]))


def resume_filter(plan: RunPlan, results_root: str | Path) -> tuple[list[Task], dict[str, ExitClass]]:
    """(tasks still to run, output dir -> exit class of each task already done).

    A task is pending when its marker is absent, corrupt, or does not match
    this plan, or when its folder is reached through a symlink. Once every
    marker was read, a folder with a corrupt or stale marker is moved aside
    (suffix ``.stale.<k>``) so the rerun starts clean without destroying
    evidence; one that cannot be moved is a ``HarnessError``, and the folder
    stays as it was.
    """
    pending: list[Task] = []
    done: dict[str, ExitClass] = {}
    stale: list[str] = []
    for task, folder, marker in done_markers(results_root, plan.tasks):
        if marker and marker[:2] == (task.contract.content_hash, plan.args_digest):
            done[task.output_dir] = marker[2]
            continue
        if marker is not None:  # corrupt or stale
            stale.append(folder)
        pending.append(task)
    for folder in stale:
        k = 1
        while os.path.lexists(f"{folder}.stale.{k}"):
            k += 1
        try:
            os.rename(folder, f"{folder}.stale.{k}")
        except OSError as exc:
            raise HarnessError(f"{folder}: cannot be moved aside: {exc.strerror}") from None
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


class RunSummary(NamedTuple):
    """The record of one run; ``tally`` counts the tasks it executed by ``TaskResult.tally_key``."""

    total: int
    skipped_as_done: int
    tally: Counter[ExitClass | str]
    finished: dict[str, ExitClass]  # output dir -> exit class of every done task
    infra_errors: dict[str, str]  # output dir -> message, per unfinished task

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

    def run_task(
        self, task: Task, results_root: Path, compilers: VerifiedCompilers, volume: ScratchVolume
    ) -> TaskResult:
        try:
            folder = taskdir.folder(results_root, task.output_dir)
            record, raw, aborted = execute(
                task,
                self.backend,
                compilers=compilers,
                folder=folder,
                image_digest=self.plan.image_digests[task.tool.image_ref],
                volume=volume,
            )
            if aborted:
                # No done marker: the task must rerun on resume.
                return TaskResult(task, aborted=True)
            exit_class = finalize(
                results_root,
                folder,
                record,
                raw,
                self.registry.parser_for(task.tool),
                task.contract.content_hash,
                self.plan.args_digest,
            )
        except HarnessError as exc:
            return TaskResult(task, error=str(exc))
        return TaskResult(task, exit_class=exit_class)


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

    def _worker(self, summary: RunSummary, pending_total: int, compilers: VerifiedCompilers) -> None:
        with ScratchVolume() as volume:  # every task of this worker stages into it; removed however the loop ends
            while (task := self._next_task()) is not None:
                try:
                    result = self.executor.run_task(task, self.results_root, compilers, volume)
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

    def _verify_compilers(self, pending: Sequence[Task]) -> VerifiedCompilers:
        """Hash, in parallel, each compiler that a pending task stages, before any task is dispatched.

        Returns version -> (binary, its stat stamp taken before hashing), for
        staging to compare. Planning only fetched what was absent. A binary
        that fails its digest is dropped from the cache, so the next run
        fetches it again, and the run fails as planning would.
        """
        versions = sorted({t.compiler_version for t in pending if t.compiler_version}, key=SemVer.parse)
        cache = self.executor.cache
        width = min(self.workers, len(versions))
        verified: dict[str, tuple[Path, tuple[int, int, int, int]]] = {}

        def verify(share: Sequence[str]) -> None:
            for version in share:
                stamp = compiler_stamp(cache.path_for(version))  # before hashing: a write during it moves the stamp
                if stamp is not None and (binary := cache.lookup(SemVer.parse(version))):  # hashlib releases the GIL
                    verified[version] = (binary, stamp)

        _in_threads("scanmux-verify", verify, [(versions[i::width],) for i in range(width)])
        failed = [version for version in versions if version not in verified]
        for version in failed:
            cache.discard(SemVer.parse(version))
        if failed:
            raise PlanningError([
                f"compiler {version}: cached binary {cache.path_for(version)} is missing or fails its digest "
                "check; it was removed from the cache, so the next run fetches it again"
                for version in failed
            ])
        return verified

    def run(self) -> RunSummary:
        """Resume scan, compiler check, then every pending task on the worker pool."""
        plan = self.executor.plan
        pending, done = resume_filter(plan, self.results_root)
        compilers = self._verify_compilers(pending)
        self.executor.registry.build_parsers(task.tool for task in pending)  # workers then only read the memo
        summary = RunSummary(len(plan.tasks), len(done), Counter(), done, {})
        self._queue = deque(permute(pending, plan.seed))
        args = (summary, len(pending), compilers)
        _in_threads("scanmux-worker", self._worker, [args] * min(self.workers, max(len(pending), 1)))
        return summary
