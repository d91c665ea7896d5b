"""Shared vocabulary of the harness: contracts, tools, tasks, outcomes, findings."""

from __future__ import annotations

import hashlib
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

if TYPE_CHECKING:
    from .solc import VersionConstraint


class HarnessError(Exception):
    """Base class for every error raised by this package."""


class UnknownExtensionError(HarnessError):
    pass


class MalformedHexError(HarnessError):
    pass


class OddHexLengthError(HarnessError):
    pass


class ContractFormat(Enum):
    """The three accepted contract input formats."""

    SOLIDITY = "solidity"
    CREATION_BYTECODE = "creation"
    RUNTIME_CODE = "runtime"


# Extension conventions; `.rt.hex` is checked before `.hex`.
_EXTENSION_FORMATS = (
    (".rt.hex", ContractFormat.RUNTIME_CODE),
    (".hex", ContractFormat.CREATION_BYTECODE),
    (".sol", ContractFormat.SOLIDITY),
)

BYTECODE_FORMATS = frozenset(
    {ContractFormat.CREATION_BYTECODE, ContractFormat.RUNTIME_CODE}
)

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def content_hash(data: bytes) -> str:
    """SHA-256 hex digest; stable across runs and platforms."""
    return hashlib.sha256(data).hexdigest()


def validate_hex_payload(data: bytes, origin: str = "<bytes>") -> str:
    """Check that ``data`` is a hex dump (optional 0x prefix, whitespace tolerated).

    Returns the normalized digit string (prefix and whitespace stripped).
    """
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedHexError(f"{origin}: non-ASCII byte in hex file") from exc
    digits = "".join(text.split())
    if digits[:2].lower() == "0x":
        digits = digits[2:]
    bad = next((c for c in digits if c not in _HEX_DIGITS), None)
    if bad is not None:
        raise MalformedHexError(f"{origin}: non-hex character {bad!r}")
    if len(digits) % 2 != 0:
        raise OddHexLengthError(f"{origin}: odd number of hex digits ({len(digits)})")
    return digits


def detect_format(path: str | Path, override: ContractFormat | None = None) -> ContractFormat:
    """Decide the contract format of a file.

    An explicit ``override`` wins; otherwise the extension convention applies
    (``.sol``, ``.hex``, ``.rt.hex``). Bytecode files must contain only hex
    characters, with an optional ``0x`` prefix and whitespace tolerated.
    """
    p = Path(path)
    if override is not None:
        fmt = override
    else:
        for suffix, candidate in _EXTENSION_FORMATS:
            if p.name.endswith(suffix):
                fmt = candidate
                break
        else:
            raise UnknownExtensionError(f"{p}: unrecognized extension (expected .sol, .hex or .rt.hex)")
    if fmt in BYTECODE_FORMATS:
        validate_hex_payload(p.read_bytes(), str(p))
    return fmt


class _ContractInput(NamedTuple):
    id: str
    format: ContractFormat
    content_hash: str
    pragma_constraint: VersionConstraint | None = None


class ContractInput(_ContractInput):
    """One contract to analyze; ``id`` is the path it was found at."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.format in BYTECODE_FORMATS and self.pragma_constraint is not None:
            raise ValueError(f"{self.id}: pragma constraint on a bytecode contract")
        return self


class _ToolSpec(NamedTuple):
    tool_id: str
    version_label: str
    image_ref: str
    supported_formats: frozenset[ContractFormat]
    invocation: Mapping[ContractFormat, str]
    result_sources: tuple[str, ...]
    parser_ref: str
    needs_compiler: bool = False
    aux_files: tuple[Path, ...] = ()


class ToolSpec(_ToolSpec):
    """A tool definition loaded from a registry directory."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.supported_formats:
            raise ValueError(f"{self.key}: supported_formats must be nonempty")
        missing = [f.value for f in self.supported_formats if f not in self.invocation]
        if missing:
            raise ValueError(f"{self.key}: no invocation template for {', '.join(sorted(missing))}")
        if self.needs_compiler and ContractFormat.SOLIDITY not in self.supported_formats:
            raise ValueError(f"{self.key}: needs_compiler requires Solidity support")
        return self

    @property
    def key(self) -> str:
        return f"{self.tool_id}:{self.version_label}"


class _ResourceLimits(NamedTuple):
    wall_timeout: float = 600.0
    memory_bytes: int = 4 * 2**30
    cpu_quota: float = 1.0


class ResourceLimits(_ResourceLimits):
    """Per-task resource bounds. Defaults: 600 s, 4 GiB, 1 CPU."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.wall_timeout <= 0 or self.memory_bytes <= 0 or self.cpu_quota <= 0:
            raise ValueError("resource limits must be strictly positive")
        return self


class _Task(NamedTuple):
    contract: ContractInput
    tool: ToolSpec
    output_dir: str
    limits: ResourceLimits
    compiler_version: str | None = None
    warnings: tuple[str, ...] = ()


class Task(_Task):
    """One tool applied to one contract, with its own output folder."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.contract.format not in self.tool.supported_formats:
            raise ValueError(
                f"{self.tool.key} does not support {self.contract.format.value} ({self.contract.id})"
            )
        wants_compiler = self.tool.needs_compiler and self.contract.format is ContractFormat.SOLIDITY
        if wants_compiler and self.compiler_version is None:
            raise ValueError(f"{self.tool.key} on {self.contract.id}: compiler version not resolved")
        if not wants_compiler and self.compiler_version is not None:
            raise ValueError(f"{self.tool.key} on {self.contract.id}: unexpected compiler version")
        return self


class LimitHit(Enum):
    NONE = "none"
    TIMEOUT = "timeout"
    MEMORY = "memory"


KILLED = "killed"


class _ExecutionRecord(NamedTuple):
    started_at: float
    finished_at: float
    duration: float
    exit_code: int | str
    args: str
    tool_id: str
    version_label: str
    image_digest: str
    limit_hit: LimitHit = LimitHit.NONE
    result_files: tuple[str, ...] = ()


class ExecutionRecord(_ExecutionRecord):
    """What happened when a task ran."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.finished_at < self.started_at:
            raise ValueError("finished_at precedes started_at")
        if isinstance(self.exit_code, str) and self.exit_code != KILLED:
            raise ValueError(f"exit_code must be an integer or {KILLED!r}")
        return self


class SourceLocation(NamedTuple):
    line: int
    file: str | None = None


class BytecodeLocation(NamedTuple):
    offset: int


Location = SourceLocation | BytecodeLocation


class _Finding(NamedTuple):
    native_label: str
    message: str
    location: Location | None = None
    severity_native: str | None = None


class Finding(_Finding):
    """A weakness reported by a tool, in the tool's native vocabulary."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.native_label:
            raise ValueError("native_label must be nonempty")
        return self


def dedup(items):
    """Order-preserving exact-equality dedup."""
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


class _ParsedReport(NamedTuple):
    findings: tuple[Finding, ...] = ()
    errors: tuple[str, ...] = ()
    failures: tuple[str, ...] = ()
    parser_version: str = ""


class ParsedReport(_ParsedReport):
    """Findings, errors and failures extracted from one tool run."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        findings, errors, failures, parser_version = _ParsedReport(*args, **kwargs)
        return super().__new__(
            cls, tuple(dedup(findings)), tuple(dedup(errors)), tuple(dedup(failures)), parser_version
        )


# The default ``files`` of the records below: read-only, so one instance serves them all.
NO_FILES: Mapping = MappingProxyType({})


class RawResult(NamedTuple):
    """Captured outputs of one tool run, before parsing."""

    stdout: bytes = b""
    stderr: bytes = b""
    files: Mapping[str, bytes] = NO_FILES
