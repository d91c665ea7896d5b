"""Run one task in an isolated container (or a scripted mock) and harvest results."""

from __future__ import annotations

import abc
import fnmatch
import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
from datetime import datetime, timezone
from pathlib import Path, PurePosixPath
from typing import Mapping, NamedTuple, Sequence

from . import taskdir
from .model import (
    _EXTENSION_FORMATS,
    KILLED,
    NO_FILES,
    ContractInput,
    ExecutionRecord,
    HarnessError,
    LimitHit,
    RawResult,
    ResourceLimits,
    Task,
    content_hash,
)
from .paths import dump_json, load_yaml

# Fixed mount point of the task volume inside the container.
MOUNT_POINT = "/work"

CONTRACT_FILENAMES = {fmt: "contract" + ext for ext, fmt in _EXTENSION_FORMATS}

COMPILER_FILENAME = "solc"
OUTPUT_DIRNAME = "output"

# Tools get this long after the timeout signal to flush partial output.
GRACE_SECONDS = 5.0

# Seconds an engine query (``info``, ``image inspect``) may take before the
# engine counts as hung, and a ``pull``, which may fetch a multi-GiB image.
QUERY_TIMEOUT_SECONDS = 30
PULL_TIMEOUT_SECONDS = 3600


class StagingIOError(HarnessError):
    pass


class MissingCompilerError(HarnessError):
    pass


class ContractChangedError(HarnessError):
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


class MockToolBehavior(NamedTuple):
    """Scripted behavior of one mock image."""

    stdout: str = ""
    stderr: str = ""
    exit_code: int = 0
    sleep_s: float = 0.0
    files: Mapping[str, str] = NO_FILES
    oom: bool = False

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
        import subprocess

        if shutil.which(self.binary) is None:
            return False
        try:  # a hung or vanished engine is as unavailable as a stopped one
            probe = subprocess.run([self.binary, "info"], capture_output=True, timeout=QUERY_TIMEOUT_SECONDS)
        except (subprocess.TimeoutExpired, OSError):
            return False
        return probe.returncode == 0

    def pull(self, image_ref: str) -> str:
        import shlex
        import subprocess

        try:
            pull = subprocess.run(
                [self.binary, "pull", image_ref],
                capture_output=True, text=True, timeout=PULL_TIMEOUT_SECONDS, check=False,
            )
            if pull.returncode != 0:
                raise BackendFailureError(f"cannot pull image {image_ref!r}: {pull.stderr.strip()}")
            inspect = subprocess.run(
                [self.binary, "image", "inspect", "--format", "{{.Id}}", image_ref],
                capture_output=True, text=True, timeout=QUERY_TIMEOUT_SECONDS, check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise BackendFailureError(
                f"cannot pull image {image_ref!r}: `{shlex.join(exc.cmd)}` gave no answer in {exc.timeout:g} s"
            ) from None
        except OSError as exc:
            raise BackendFailureError(f"cannot pull image {image_ref!r}: {exc}") from None
        if inspect.returncode != 0:
            raise BackendFailureError(f"cannot inspect image {image_ref!r}: {inspect.stderr.strip()}")
        return inspect.stdout.strip()

    def run_argv(self, image: str, volume_dir: Path, command: str, limits: ResourceLimits) -> list[str]:
        """Argv of the engine invocation; split out for testability."""
        import shlex

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
        import subprocess

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


VerifiedCompilers = Mapping[str, tuple[Path, tuple[int, int, int, int]]]  # version -> (binary, stamp)


def compiler_stamp(binary: Path) -> tuple[int, int, int, int] | None:
    """(device, inode, size, mtime) of a binary, or None; not ``st_ctime``, which staging's links move."""
    try:
        st = os.stat(binary)
    except OSError:
        return None
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def _lstat_key(path: Path) -> tuple[int, int, int]:
    st = os.lstat(path)
    return st.st_mode, st.st_uid, st.st_gid


def _entries(path: Path) -> list[os.DirEntry]:
    with os.scandir(path) as entries:
        return list(entries)


def _remove(entry: os.DirEntry) -> None:
    if entry.is_dir(follow_symlinks=False):
        shutil.rmtree(entry.path)
    else:
        os.unlink(entry.path)


class ScratchVolume:
    """One worker's scratch directory, mounted at MOUNT_POINT for each of its tasks in turn.

    It is made on first use (``mkdtemp``, mode 0700). Between tasks it holds
    an empty ``output/`` and nothing else. ``execute`` alone decides whether
    it is reused: only after a task whose container ran to its end, and only
    when ``empty`` leaves what a fresh volume shows. Otherwise it is
    discarded, and the next task gets a new one. Its owner discards it when done.
    """

    def __init__(self) -> None:
        self.path: Path | None = None
        self._dirs: tuple = ()  # (mode, uid, gid) of the volume and output/ when they were made

    def __enter__(self) -> "ScratchVolume":
        return self

    def __exit__(self, *exc_info) -> None:
        self.discard()

    def ready(self) -> Path:
        """The volume's path, made now if there is none."""
        if self.path is None:
            self.path = Path(tempfile.mkdtemp(prefix="scanmux-"))
            output = self.path / OUTPUT_DIRNAME
            output.mkdir()
            self._dirs = (_lstat_key(self.path), _lstat_key(output))
        return self.path

    def put_contract(self, contract: ContractInput) -> None:
        """Write the bytes of the file ``contract.id`` as a new file under its format's name.

        Raises ContractChangedError, writing nothing, when those bytes do not
        hash to ``contract.content_hash``, which the task's done marker records.
        Whatever a tool left at that name is unlinked first. No container
        holds a reused volume, so nothing can put a link there in between.
        """
        data = Path(contract.id).read_bytes()
        if content_hash(data) != contract.content_hash:
            raise ContractChangedError(f"contract {contract.id} changed since this run planned it")
        target = self.ready() / CONTRACT_FILENAMES[contract.format]
        target.unlink(missing_ok=True)
        target.write_bytes(data)

    def discard(self) -> None:
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)
        self.path = None

    def empty(self) -> None:
        """Leave only an empty ``output/``, or discard the volume if anything else stays."""
        path = self.path
        output = path / OUTPUT_DIRNAME
        try:
            for entry in _entries(path):
                if not (entry.name == OUTPUT_DIRNAME and entry.is_dir(follow_symlinks=False)):
                    _remove(entry)
            for entry in _entries(output):  # a real directory: a symlink was removed above
                _remove(entry)
            if os.listdir(path) == [OUTPUT_DIRNAME] and not os.listdir(output) \
                    and (_lstat_key(path), _lstat_key(output)) == self._dirs:
                return
        except OSError:
            pass
        self.discard()


def stage_volume(task: Task, compilers: VerifiedCompilers, volume: ScratchVolume) -> Path:
    """Stage contract, compiler (if needed) and aux files in the worker's ``volume``; returns its path.

    The volume holds an empty ``output/`` (see ``ScratchVolume``). A contract
    is staged only while it holds its planned bytes, and a compiler only while
    its stamp is the one in ``compilers``, taken when the run verified it.
    """
    try:
        volume.put_contract(task.contract)
        path = volume.path
        if task.compiler_version is not None:
            binary, stamp = compilers.get(task.compiler_version, (None, None))
            if binary is None or compiler_stamp(binary) != stamp:
                why = "was not verified by this run" if binary is None else "changed since this run verified it"
                raise MissingCompilerError(f"compiler {task.compiler_version} requested by {task.tool.key} {why}")
            staged = path / COMPILER_FILENAME
            try:  # the cache's inode, already 0o755: no copy and no chmod
                os.link(binary, staged)
            except OSError:  # another filesystem, or links not permitted
                shutil.copyfile(binary, staged)
                staged.chmod(0o755)
        for aux in task.tool.aux_files:
            shutil.copyfile(aux, path / aux.name)
    except OSError as exc:
        raise StagingIOError(f"staging failed for {task.output_dir}: {exc}") from exc
    return path


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


def write_meta(folder: str, record: ExecutionRecord, extra: Mapping[str, object] | None = None) -> None:
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
    taskdir.write(folder, taskdir.META, dump_json(doc).encode("utf-8"))


def read_meta(folder: str) -> ExecutionRecord:
    doc = json.loads(taskdir.read(folder, taskdir.META).decode("utf-8"))
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
    compilers: VerifiedCompilers,
    folder: str,
    image_digest: str,
    volume: ScratchVolume,
) -> tuple[ExecutionRecord, RawResult, bool]:
    """Stage into the worker's ``volume`` (with the ``compilers`` this run verified), run and harvest one task.

    Writes ``raw/`` artifacts and ``meta.json`` into the task's ``folder``
    (from ``taskdir.folder``), replacing a ``raw/`` left by an aborted attempt.
    Returns (record, raw result, aborted). This is the one place that decides
    what happens to the volume after a task: it is emptied for the next task
    only when ``backend.run`` returned and the task neither timed out nor was
    aborted; otherwise, staging failures included, it is discarded, since a
    container may still hold it.
    """
    reusable = False
    try:
        path = stage_volume(task, compilers, volume)
        command = render_command(task)
        started, clock = time.time(), time.monotonic()  # a wall-clock step moves no duration
        outcome = backend.run(image_digest, path, command, task.limits)
        duration = time.monotonic() - clock
        reusable = not outcome.aborted and outcome.limit_hit is not LimitHit.TIMEOUT

        taskdir.remove(folder, taskdir.RAW)
        streams = {taskdir.STDOUT: outcome.stdout, taskdir.STDERR: outcome.stderr}
        file_patterns = [
            s for s in task.tool.result_sources if s not in ("stdout", "stderr")
        ]
        harvested = backend.copy_out(path, file_patterns) if file_patterns else {}
        missing = [
            p for p in file_patterns
            if not any(fnmatch.fnmatch(rel, p) for rel in harvested)
        ]
        for rel, data in (streams | harvested).items():
            taskdir.write(folder, f"{taskdir.RAW}/{rel}", data)

        record = ExecutionRecord(
            started_at=started,
            finished_at=started + duration,
            duration=duration,
            exit_code=outcome.exit_code,
            args=command,
            tool_id=task.tool.tool_id,
            version_label=task.tool.version_label,
            image_digest=image_digest,
            limit_hit=outcome.limit_hit,
            result_files=(*streams, *sorted(harvested)),
        )
        extra: dict[str, object] = {}
        if missing:
            extra["missing_results"] = sorted(missing)
        if task.warnings:
            extra["warnings"] = list(task.warnings)
        write_meta(folder, record, extra)
        raw = RawResult(stdout=outcome.stdout, stderr=outcome.stderr, files=harvested)
        return record, raw, outcome.aborted
    finally:
        if reusable:
            volume.empty()
        else:
            volume.discard()


def read_raw(folder: str, result_files: Sequence[str]) -> RawResult:
    """Reconstruct a RawResult from the ``raw/`` files that ``meta.json`` lists.

    A name that is not a str raises TypeError; one that leaves ``raw/`` or
    passes through a symlink raises as ``taskdir.read`` does.
    """
    files = {rel: taskdir.read(folder, taskdir.RAW + "/" + rel) for rel in result_files}
    stdout, stderr = files.pop(taskdir.STDOUT), files.pop(taskdir.STDERR)
    return RawResult(stdout=stdout, stderr=stderr, files=files)
