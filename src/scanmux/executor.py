"""Run one task in an isolated container (or a scripted mock) and harvest results."""

from __future__ import annotations

import abc
import fnmatch
import hashlib
import json
import shlex
import shutil
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping

import yaml

from .model import (
    KILLED,
    ContractFormat,
    ExecutionRecord,
    HarnessError,
    LimitHit,
    RawResult,
    ResourceLimits,
    Task,
)
from .solc import CompilerCache, SemVer

# Fixed mount point of the per-task volume inside the container.
MOUNT_POINT = "/work"

CONTRACT_FILENAMES = {
    ContractFormat.SOLIDITY: "contract.sol",
    ContractFormat.CREATION_BYTECODE: "contract.hex",
    ContractFormat.RUNTIME_CODE: "contract.rt.hex",
}

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


@dataclass(frozen=True)
class RunOutcome:
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
            if p.is_file()
        )
        for pattern in patterns:
            for rel in all_files:
                if fnmatch.fnmatch(rel, pattern) and rel not in out:
                    out[rel] = (volume_dir / rel).read_bytes()
        return out

    def request_abort(self) -> None:
        """Kill in-flight runs (second-interrupt semantics). Default: no-op."""


@dataclass
class MockToolBehavior:
    """Scripted behavior of one mock image."""

    stdout: str = ""
    stderr: str = ""
    exit_code: int = 0
    sleep_s: float = 0.0
    files: Mapping[str, str] = field(default_factory=dict)
    oom: bool = False

    @classmethod
    def from_dict(cls, raw: Mapping) -> "MockToolBehavior":
        return cls(
            stdout=str(raw.get("stdout", "")),
            stderr=str(raw.get("stderr", "")),
            exit_code=int(raw.get("exit_code", 0)),
            sleep_s=float(raw.get("sleep_s", 0.0)),
            files={str(k): str(v) for k, v in (raw.get("files") or {}).items()},
            oom=bool(raw.get("oom", False)),
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
        """Load image behaviors from a YAML mapping image_ref -> behavior fields."""
        doc = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
        behaviors = {str(ref): MockToolBehavior.from_dict(raw or {}) for ref, raw in doc.items()}
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
        probe = subprocess.run(
            [self.binary, "info"], capture_output=True, timeout=30, check=False
        )
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
        return [
            self.binary, "run", "--rm",
            "--volume", f"{volume_dir}:{MOUNT_POINT}",
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
    """Copy contract, compiler (if needed) and aux files into a fresh temp volume."""
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
            shutil.copyfile(binary, volume / COMPILER_FILENAME)
            (volume / COMPILER_FILENAME).chmod(0o755)
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
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


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
    clock=time,
) -> tuple[ExecutionRecord, RawResult, bool]:
    """Stage, run and harvest one task.

    Writes ``raw/`` artifacts and ``meta.json`` into the task's output folder.
    Returns (record, raw result, aborted). The temp volume is removed even on
    error.
    """
    volume = stage_volume(task, cache)
    command = render_command(task)
    try:
        started = clock.time()
        outcome = backend.run(image_digest, volume, command, task.limits)
        finished = clock.time()

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


def read_raw(out_dir: Path) -> RawResult:
    """Reconstruct a RawResult from a task's stored ``raw/`` directory."""
    raw_dir = out_dir / RAW_DIRNAME
    stdout = (raw_dir / STDOUT_FILENAME).read_bytes() if (raw_dir / STDOUT_FILENAME).exists() else b""
    stderr = (raw_dir / STDERR_FILENAME).read_bytes() if (raw_dir / STDERR_FILENAME).exists() else b""
    files = {}
    if raw_dir.is_dir():
        for path in sorted(raw_dir.rglob("*")):
            if not path.is_file():
                continue
            rel = path.relative_to(raw_dir).as_posix()
            if rel in (STDOUT_FILENAME, STDERR_FILENAME):
                continue
            files[rel] = path.read_bytes()
    return RawResult(stdout=stdout, stderr=stderr, files=files)
