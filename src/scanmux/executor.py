"""Run one task in an isolated container (or a scripted mock) and harvest results."""

from __future__ import annotations

import abc
import fnmatch
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import tempfile
import threading
import time
from datetime import datetime, timezone
from pathlib import Path, PurePosixPath
from typing import Mapping, NamedTuple, Sequence

from .model import (
    _EXTENSION_FORMATS,
    KILLED,
    ExecutionRecord,
    HarnessError,
    LimitHit,
    RawResult,
    ResourceLimits,
    Task,
)
from .paths import dump_json, load_yaml
from .solc import CompilerCache, SemVer

# Fixed mount point of the per-task volume inside the container.
MOUNT_POINT = "/work"

CONTRACT_FILENAMES = {fmt: "contract" + ext for ext, fmt in _EXTENSION_FORMATS}

COMPILER_FILENAME = "solc"
OUTPUT_DIRNAME = "output"

# Tools get this long after the timeout signal to flush partial output.
GRACE_SECONDS = 5.0

META_FILENAME = "meta.json"
RAW_DIRNAME = "raw"
STDOUT_FILENAME = "stdout"
STDERR_FILENAME = "stderr"


class StagingIOError(HarnessError):
    pass


class MissingCompilerError(HarnessError):
    pass


class BackendFailureError(HarnessError):
    pass


class ExecutorUnavailableError(HarnessError):
    pass


class RunOutcome(NamedTuple):
    """What the container backend observed for one run."""

    exit_code: int | str
    stdout: bytes = b""
    stderr: bytes = b""
    limit_hit: LimitHit = LimitHit.NONE
    aborted: bool = False


class ContainerBackend(abc.ABC):
    """Minimal container-engine surface the executor needs."""

    @abc.abstractmethod
    def available(self) -> bool:
        """Whether the engine can run containers right now."""

    @abc.abstractmethod
    def pull(self, image_ref: str) -> str:
        """Pull (or verify present) an image; returns its digest."""

    @abc.abstractmethod
    def run(
        self,
        image_digest: str,
        volume_dir: Path,
        command: str,
        limits: ResourceLimits,
    ) -> RunOutcome:
        """Run the image with the volume mounted at MOUNT_POINT."""

    def copy_out(self, volume_dir: Path, patterns: list[str]) -> dict[str, bytes]:
        """Harvest declared result files from the volume, keyed by relative path."""
        out: dict[str, bytes] = {}
        all_files = sorted(
            p.relative_to(volume_dir).as_posix()
            for p in volume_dir.rglob("*")
            if p.is_file() and not p.is_symlink()  # a link may point at a host file
        )
        for pattern in patterns:
            for rel in all_files:
                if fnmatch.fnmatch(rel, pattern) and rel not in out:
                    out[rel] = (volume_dir / rel).read_bytes()
        return out

    def request_abort(self) -> None:
        """Kill in-flight runs (second-interrupt semantics). Default: no-op."""


class _MockToolBehavior(NamedTuple):
    stdout: str = ""
    stderr: str = ""
    exit_code: int = 0
    sleep_s: float = 0.0
    files: Mapping[str, str] | None = None  # None: a new dict
    oom: bool = False


class MockToolBehavior(_MockToolBehavior):
    """Scripted behavior of one mock image."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return self if self.files is not None else self._replace(files={})

    @classmethod
    def from_dict(cls, raw: Mapping) -> "MockToolBehavior":
        files = raw.get("files") or {}
        oom = raw.get("oom", False)
        if not isinstance(files, Mapping):
            raise ValueError(f"files must map paths to contents, got {files!r}")
        if not isinstance(oom, bool):
            raise ValueError(f"oom must be a boolean, got {oom!r}")
        for name in map(str, files):
            path = PurePosixPath(name)
            if path.is_absolute() or ".." in path.parts:
                raise ValueError(f"file {name!r} is not inside the task volume")
            if path.parts == (COMPILER_FILENAME,):  # the staged compiler: the engine mounts it read-only
                raise ValueError(f"file {name!r} would overwrite the staged compiler")
        return cls(
            stdout=str(raw.get("stdout", "")),
            stderr=str(raw.get("stderr", "")),
            exit_code=int(raw.get("exit_code", 0)),
            sleep_s=float(raw.get("sleep_s", 0.0)),
            files={str(k): str(v) for k, v in files.items()},
            oom=oom,
        )


DEFAULT_MOCK_BEHAVIOR = MockToolBehavior(stdout="mock analysis completed, no issues\n")


class MockBackend(ContainerBackend):
    """Scripted backend so the whole pipeline runs without a container engine."""

    def __init__(
        self,
        behaviors: Mapping[str, MockToolBehavior] | None = None,
        unpullable: set[str] | frozenset[str] = frozenset(),
        default: MockToolBehavior | None = DEFAULT_MOCK_BEHAVIOR,
    ):
        self.behaviors = dict(behaviors or {})
        self.unpullable = set(unpullable)
        self.default = default
        self.pull_calls: list[str] = []
        self.run_calls: list[str] = []
        self._by_digest: dict[str, str] = {}
        self._abort = threading.Event()

    @classmethod
    def from_fixtures(cls, path: str | Path, **kwargs) -> "MockBackend":
        """Load image behaviors from a YAML mapping image_ref -> behavior fields; refuse any other document."""
        doc = load_yaml(Path(path).read_text(encoding="utf-8")) or {}
        if not isinstance(doc, dict) or not all(isinstance(raw or {}, dict) for raw in doc.values()):
            raise ValueError(f"{path}: expected a mapping of image refs to behavior mappings")
        behaviors = {}
        for ref, raw in doc.items():
            try:
                behaviors[str(ref)] = MockToolBehavior.from_dict(raw or {})
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}: {ref}: {exc}") from exc
        return cls(behaviors=behaviors, **kwargs)

    @staticmethod
    def digest_of(image_ref: str) -> str:
        return "sha256:" + hashlib.sha256(image_ref.encode()).hexdigest()

    def available(self) -> bool:
        return True

    def pull(self, image_ref: str) -> str:
        self.pull_calls.append(image_ref)
        if image_ref in self.unpullable:
            raise BackendFailureError(f"cannot pull image {image_ref!r}")
        digest = self.digest_of(image_ref)
        self._by_digest[digest] = image_ref
        return digest

    def request_abort(self) -> None:
        self._abort.set()

    def run(self, image_digest: str, volume_dir: Path, command: str, limits: ResourceLimits) -> RunOutcome:
        image_ref = self._by_digest.get(image_digest)
        if image_ref is None:
            raise BackendFailureError(f"image digest {image_digest[:19]}… was never pulled")
        self.run_calls.append(image_ref)
        behavior = self.behaviors.get(image_ref, self.default)
        if behavior is None:
            raise BackendFailureError(f"no scripted behavior for image {image_ref!r}")
        if behavior.sleep_s > 0:
            timed_out = behavior.sleep_s > limits.wall_timeout
            wait_for = min(behavior.sleep_s, limits.wall_timeout)
            aborted = self._abort.wait(timeout=wait_for)
            if aborted:
                return RunOutcome(exit_code=KILLED, aborted=True)
            if timed_out:
                return RunOutcome(
                    exit_code=KILLED,
                    stdout=behavior.stdout.encode(),
                    limit_hit=LimitHit.TIMEOUT,
                )
        if behavior.oom:
            return RunOutcome(
                exit_code=KILLED,
                stderr=behavior.stderr.encode() or b"out of memory\n",
                limit_hit=LimitHit.MEMORY,
            )
        for rel, content in behavior.files.items():
            target = volume_dir / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content, encoding="utf-8")
        return RunOutcome(
            exit_code=behavior.exit_code,
            stdout=behavior.stdout.encode(),
            stderr=behavior.stderr.encode(),
        )


class DockerCliBackend(ContainerBackend):
    """Backend shelling out to a docker-compatible CLI."""

    def __init__(self, binary: str = "docker"):
        self.binary = binary
        self._kill_lock = threading.Lock()
        self._abort_requested = False

    def available(self) -> bool:
        if shutil.which(self.binary) is None:
            return False
        try:  # a hung or vanished engine is as unavailable as a stopped one
            probe = subprocess.run([self.binary, "info"], capture_output=True, timeout=30, check=False)
        except (subprocess.TimeoutExpired, OSError):
            return False
        return probe.returncode == 0

    def pull(self, image_ref: str) -> str:
        pull = subprocess.run(
            [self.binary, "pull", image_ref], capture_output=True, text=True, check=False
        )
        if pull.returncode != 0:
            raise BackendFailureError(f"cannot pull image {image_ref!r}: {pull.stderr.strip()}")
        inspect = subprocess.run(
            [self.binary, "image", "inspect", "--format", "{{.Id}}", image_ref],
            capture_output=True, text=True, check=False,
        )
        if inspect.returncode != 0:
            raise BackendFailureError(f"cannot inspect image {image_ref!r}: {inspect.stderr.strip()}")
        return inspect.stdout.strip()

    def run_argv(self, image: str, volume_dir: Path, command: str, limits: ResourceLimits) -> list[str]:
        """Argv of the engine invocation; split out for testability."""
        # A staged compiler may be a hard link to the cache's own file, so
        # it is mounted read-only over the writable volume.
        compiler = volume_dir / COMPILER_FILENAME
        compiler_mount = (
            ["--volume", f"{compiler}:{MOUNT_POINT}/{COMPILER_FILENAME}:ro"]
            if compiler.exists() else []
        )
        return [
            self.binary, "run", "--rm",
            "--volume", f"{volume_dir}:{MOUNT_POINT}",
            *compiler_mount,
            "--workdir", MOUNT_POINT,
            "--memory", str(limits.memory_bytes),
            "--cpus", str(limits.cpu_quota),
            "--network", "none",
            image,
            *shlex.split(command),
        ]

    def run(self, image_digest: str, volume_dir: Path, command: str, limits: ResourceLimits) -> RunOutcome:
        argv = self.run_argv(image_digest, volume_dir, command, limits)
        with self._kill_lock:
            if self._abort_requested:
                return RunOutcome(exit_code=KILLED, aborted=True)
        try:
            proc = subprocess.run(
                argv,
                capture_output=True,
                timeout=limits.wall_timeout + GRACE_SECONDS,
                check=False,
            )
        except subprocess.TimeoutExpired as exc:
            return RunOutcome(
                exit_code=KILLED,
                stdout=exc.stdout or b"",
                stderr=exc.stderr or b"",
                limit_hit=LimitHit.TIMEOUT,
            )
        except OSError as exc:
            raise BackendFailureError(f"container engine invocation failed: {exc}") from exc
        limit = LimitHit.NONE
        exit_code: int | str = proc.returncode
        if proc.returncode == 137:  # engine OOM kill
            limit = LimitHit.MEMORY
            exit_code = KILLED
        return RunOutcome(
            exit_code=exit_code, stdout=proc.stdout, stderr=proc.stderr, limit_hit=limit
        )

    def request_abort(self) -> None:
        with self._kill_lock:
            self._abort_requested = True


def stage_volume(task: Task, cache: CompilerCache) -> Path:
    """Stage contract, compiler (if needed) and aux files in a fresh temp volume."""
    try:
        volume = Path(tempfile.mkdtemp(prefix="scanmux-"))
    except OSError as exc:
        raise StagingIOError(f"cannot create temp volume: {exc}") from exc
    try:
        contract_name = CONTRACT_FILENAMES[task.contract.format]
        shutil.copyfile(task.contract.source_path, volume / contract_name)
        (volume / OUTPUT_DIRNAME).mkdir()
        if task.compiler_version is not None:
            binary = cache.lookup(SemVer.parse(task.compiler_version))
            if binary is None:
                raise MissingCompilerError(
                    f"compiler {task.compiler_version} requested by {task.tool.key} is not cached"
                )
            staged = volume / COMPILER_FILENAME
            try:  # the cache's inode, already 0o755: no copy and no chmod
                os.link(binary, staged)
            except OSError:  # another filesystem, or links not permitted
                shutil.copyfile(binary, staged)
                staged.chmod(0o755)
        for aux in task.tool.aux_files:
            shutil.copyfile(aux, volume / aux.name)
    except MissingCompilerError:
        shutil.rmtree(volume, ignore_errors=True)
        raise
    except OSError as exc:
        shutil.rmtree(volume, ignore_errors=True)
        raise StagingIOError(f"staging failed for {task.output_dir}: {exc}") from exc
    return volume


def render_command(task: Task) -> str:
    """Fill the tool's invocation template with container-side paths."""
    template = task.tool.invocation[task.contract.format]
    return template.format(
        contract=f"{MOUNT_POINT}/{CONTRACT_FILENAMES[task.contract.format]}",
        compiler=f"{MOUNT_POINT}/{COMPILER_FILENAME}",
        output=f"{MOUNT_POINT}/{OUTPUT_DIRNAME}",
    )


def _iso(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat(timespec="microseconds")


def _from_iso(text: str) -> float:
    return datetime.fromisoformat(text).timestamp()


def write_meta(path: Path, record: ExecutionRecord, extra: Mapping[str, object] | None = None) -> None:
    doc: dict[str, object] = {
        "started_at": _iso(record.started_at),
        "finished_at": _iso(record.finished_at),
        "duration_s": round(record.duration, 6),
        "exit": record.exit_code,
        "args": record.args,
        "tool_id": record.tool_id,
        "tool_version": record.version_label,
        "image_digest": record.image_digest,
        "limit_hit": record.limit_hit.value,
        "result_files": list(record.result_files),
    }
    if extra:
        doc.update(extra)
    path.write_text(dump_json(doc), encoding="utf-8")


def read_meta(path: Path) -> ExecutionRecord:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return ExecutionRecord(
        started_at=_from_iso(doc["started_at"]),
        finished_at=_from_iso(doc["finished_at"]),
        duration=doc["duration_s"],
        exit_code=doc["exit"],
        args=doc["args"],
        tool_id=doc["tool_id"],
        version_label=doc["tool_version"],
        image_digest=doc["image_digest"],
        limit_hit=LimitHit(doc["limit_hit"]),
        result_files=tuple(doc["result_files"]),
    )


def execute(
    task: Task,
    backend: ContainerBackend,
    *,
    cache: CompilerCache,
    results_root: Path,
    image_digest: str,
) -> tuple[ExecutionRecord, RawResult, bool]:
    """Stage, run and harvest one task.

    Writes ``raw/`` artifacts and ``meta.json`` into the task's output folder.
    Returns (record, raw result, aborted). The temp volume is removed even on
    error.
    """
    volume = stage_volume(task, cache)
    command = render_command(task)
    try:
        started = time.time()
        outcome = backend.run(image_digest, volume, command, task.limits)
        finished = time.time()

        out_dir = results_root / task.output_dir
        raw_dir = out_dir / RAW_DIRNAME
        if raw_dir.exists():  # leftovers of an aborted attempt
            shutil.rmtree(raw_dir)
        raw_dir.mkdir(parents=True, exist_ok=True)
        (raw_dir / STDOUT_FILENAME).write_bytes(outcome.stdout)
        (raw_dir / STDERR_FILENAME).write_bytes(outcome.stderr)

        file_patterns = [
            s for s in task.tool.result_sources if s not in ("stdout", "stderr")
        ]
        harvested = backend.copy_out(volume, file_patterns) if file_patterns else {}
        missing = [
            p for p in file_patterns
            if not any(fnmatch.fnmatch(rel, p) for rel in harvested)
        ]
        for rel, data in harvested.items():
            target = raw_dir / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)

        captured = [STDOUT_FILENAME, STDERR_FILENAME] + sorted(harvested)
        record = ExecutionRecord(
            started_at=started,
            finished_at=finished,
            duration=finished - started,
            exit_code=outcome.exit_code,
            args=command,
            tool_id=task.tool.tool_id,
            version_label=task.tool.version_label,
            image_digest=image_digest,
            limit_hit=outcome.limit_hit,
            result_files=tuple(captured),
        )
        extra: dict[str, object] = {}
        if missing:
            extra["missing_results"] = sorted(missing)
        if task.warnings:
            extra["warnings"] = list(task.warnings)
        write_meta(out_dir / META_FILENAME, record, extra)
        raw = RawResult(stdout=outcome.stdout, stderr=outcome.stderr, files=harvested)
        return record, raw, outcome.aborted
    finally:
        shutil.rmtree(volume, ignore_errors=True)


def read_raw(out_dir: Path, result_files: Sequence[str]) -> RawResult:
    """Reconstruct a RawResult from the ``raw/`` files that ``meta.json`` lists."""
    raw_dir = out_dir / RAW_DIRNAME
    files = {rel: (raw_dir / rel).read_bytes() for rel in result_files}
    stdout, stderr = files.pop(STDOUT_FILENAME), files.pop(STDERR_FILENAME)
    return RawResult(stdout=stdout, stderr=stderr, files=files)
