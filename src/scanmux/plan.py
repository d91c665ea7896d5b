"""Task builder: turn contracts + tools into a prefetched plan with stable output folders."""

from __future__ import annotations

import glob as globlib
import hashlib
import json
import re
from pathlib import Path, PurePosixPath
from typing import Mapping, NamedTuple, Sequence

from .executor import ContainerBackend
from .model import (
    _EXTENSION_FORMATS,
    ContractFormat,
    ContractInput,
    HarnessError,
    ResourceLimits,
    Task,
    ToolSpec,
    content_hash,
    detect_format,
)
from .paths import json_digest, write_json
from .registry import Registry, resolve_tools
from .solc import (
    CompilerCache,
    Fetcher,
    PragmaSyntaxError,
    ReleaseIndex,
    SemVer,
    extract_pragma,
    prefetch_compilers,
    resolve_version,
)

PLAN_LOCK_FILENAME = "plan.lock"

DEFAULT_SCHEME = "{runid}/{filename}/{toolid}"

KNOWN_PLACEHOLDERS = frozenset({"filename", "toolid", "toolversion", "runid"})

_PLACEHOLDER_RE = re.compile(r"\{([^{}]*)\}")


class NoMatchesError(HarnessError):
    pass


class SchemeError(HarnessError):
    pass


class PlanLockMissingError(HarnessError):
    pass


class PlanningError(HarnessError):
    """One or more problems detected before analysis; nothing was executed."""

    def __init__(self, problems: Sequence[str]):
        self.problems = [str(p) for p in problems]
        super().__init__("planning failed:\n  " + "\n  ".join(self.problems))


def discover_contracts(
    patterns: Sequence[str],
    format_override: ContractFormat | None = None,
) -> list[ContractInput]:
    """Expand glob patterns into contract inputs.

    Matches are sorted lexicographically by path and collapsed when two
    patterns (or symlinks) hit the same file. Solidity sources get their
    pragma constraint extracted here, so syntax problems surface before
    planning.
    """
    if not patterns:
        raise NoMatchesError("no file patterns given")
    names: set[str] = set()
    for pattern in patterns:
        for hit in globlib.glob(pattern, recursive=True):
            if Path(hit).is_file():
                names.add(Path(hit).as_posix())
    if not names:
        raise NoMatchesError("no files match " + ", ".join(patterns))
    contracts: list[ContractInput] = []
    seen_resolved: set[Path] = set()
    for name in sorted(names):
        path = Path(name)
        resolved = path.resolve()
        if resolved in seen_resolved:
            continue
        seen_resolved.add(resolved)
        fmt = detect_format(path, format_override)
        data = path.read_bytes()
        pragma = None
        if fmt is ContractFormat.SOLIDITY:
            try:
                pragma = extract_pragma(data.decode("utf-8", errors="replace"))
            except PragmaSyntaxError as exc:
                raise PragmaSyntaxError(f"{name}: {exc}") from exc
        contracts.append(
            ContractInput(
                id=name,
                source_path=path,
                format=fmt,
                content_hash=content_hash(data),
                pragma_constraint=pragma,
            )
        )
    return contracts


def filename_stem(contract_id: str) -> str:
    """Base name of a contract path with the format extension removed."""
    name = PurePosixPath(contract_id).name
    for ext, _ in _EXTENSION_FORMATS:
        if name.endswith(ext) and len(name) > len(ext):
            return name[: -len(ext)]
    stem = PurePosixPath(name).stem
    return stem or name


def validate_scheme(scheme: str) -> None:
    if not scheme:
        raise SchemeError("output scheme is empty")
    unknown = [p for p in _PLACEHOLDER_RE.findall(scheme) if p not in KNOWN_PLACEHOLDERS]
    if unknown:
        raise SchemeError(
            "unknown scheme placeholder(s): "
            + ", ".join("{%s}" % p for p in unknown)
            + " (known: {filename}, {toolid}, {toolversion}, {runid})"
        )
    if scheme.count("{") != len(_PLACEHOLDER_RE.findall(scheme)):
        raise SchemeError(f"unbalanced braces in scheme {scheme!r}")


def plan_output_dir(
    scheme: str,
    contract: ContractInput,
    tool: ToolSpec,
    taken: set[str],
    runid: str = "",
) -> str:
    """Allocate a collision-free output folder and record it in ``taken``.

    Callers must allocate in the plan's canonical (contract, tool) order;
    together with first-free suffixing that makes the assignment stable
    across restarts with the same arguments.
    """
    stem = filename_stem(contract.id)

    def render(name: str) -> str:
        return scheme.format(
            filename=name,
            toolid=tool.tool_id,
            toolversion=tool.version_label,
            runid=runid,
        )

    candidate, k = render(stem), 0
    while candidate in taken:
        k += 1
        candidate = render(f"{stem}_{k}") if "{filename}" in scheme else f"{render(stem)}_{k}"
    taken.add(candidate)
    return candidate


def canonicalize_args(
    *,
    tools: Sequence[str] = ("all",),
    files: Sequence[str] = (),
    format_override: ContractFormat | None = None,
    limits: ResourceLimits = ResourceLimits(),
    seed: int = 0,
    scheme: str = DEFAULT_SCHEME,
    backend: str = "engine",
    registry_digest: str = "",
) -> str:
    """Canonical, order-independent encoding of the run-defining arguments.

    The results root, the worker count and reporting flags are deliberately
    absent: they do not change what a task computes, and resume must work
    when only those vary.
    """
    doc = {
        "backend": backend,
        "cpu": float(limits.cpu_quota),
        "files": sorted(set(files)),
        "format": format_override.value if format_override else None,
        "memory": int(limits.memory_bytes),
        "registry": registry_digest,
        "scheme": scheme,
        "seed": int(seed),
        "timeout": float(limits.wall_timeout),
        "tools": sorted(set(tools)),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def args_digest(canonical_args: str) -> str:
    return hashlib.sha256(canonical_args.encode()).hexdigest()[:16]


class SkipRecord(NamedTuple):
    """A (contract, tool) pair that was requested but not planned."""

    contract_id: str
    tool_key: str
    reason: str


class _RunPlan(NamedTuple):
    tasks: tuple[Task, ...]
    skips: tuple[SkipRecord, ...]
    seed: int
    created_with_args: str
    args_digest: str
    runid: str
    scheme: str
    image_digests: Mapping[str, str] | None = None  # None: a new dict
    registry_path: str = ""


class RunPlan(_RunPlan):
    """Everything the runner needs, fixed before the first container starts."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        dirs = [t.output_dir for t in self.tasks]
        if len(set(dirs)) != len(dirs):
            dupes = sorted({d for d in dirs if dirs.count(d) > 1})
            raise ValueError(f"output dirs not pairwise distinct: {', '.join(dupes)}")
        return self if self.image_digests is not None else self._replace(image_digests={})


def build_plan(
    contracts: Sequence[ContractInput],
    registry: Registry,
    requested_tools: Sequence[str],
    scheme: str,
    limits: ResourceLimits,
    seed: int,
    *,
    files: Sequence[str],
    format_override: ContractFormat | None = None,
    backend_name: str,
    cache: CompilerCache,
    fetcher: Fetcher,
    release_index: ReleaseIndex,
    backend: ContainerBackend,
    registry_path: str = "",
) -> RunPlan:
    """Pair every contract with every compatible requested tool, then prefetch.

    ``canonicalize_args`` names the plan by the tools as resolved, so every
    spelling of one selection names one run, and the other run-defining
    arguments as given. Compilers are resolved once per distinct constraint
    and fetched once per version; every image a task uses is pulled up front.
    Any problem aborts planning with the full list, so nothing fails
    mid-analysis for a predictable reason.
    """
    validate_scheme(scheme)
    ordered = sorted(contracts, key=lambda c: c.id)
    if len({c.id for c in ordered}) != len(ordered):
        raise PlanningError(["duplicate contract ids in input"])

    tools = resolve_tools(registry, requested_tools)
    chosen = {t.key for t in tools}
    partial = {t.tool_id for t in registry.tools if t.key not in chosen}  # ids with a version left out
    names = [t.key if t.tool_id in partial else t.tool_id for t in tools] if partial else ["all"]
    canonical = canonicalize_args(
        tools=names, files=files, format_override=format_override, limits=limits,
        seed=seed, scheme=scheme, backend=backend_name, registry_digest=registry.content_digest,
    )
    digest = args_digest(canonical)
    runid = f"run-{digest[:8]}"

    problems: list[str] = []
    resolved: dict[str, SemVer | None] = {}

    def resolve_for(contract: ContractInput) -> tuple[str | None, tuple[str, ...]]:
        """(compiler version, warnings) for one Solidity contract."""
        key = str(contract.pragma_constraint) if contract.pragma_constraint else ""
        if key not in resolved:
            if contract.pragma_constraint is None:
                resolved[key] = max(release_index.versions)
            else:
                try:
                    resolved[key] = resolve_version(
                        contract.pragma_constraint, release_index.versions
                    )
                except HarnessError as exc:
                    problems.append(f"{contract.id}: {exc}")
                    resolved[key] = None
        version = resolved[key]
        if version is None:
            return None, ()
        if contract.pragma_constraint is None:
            return str(version), (f"no pragma; defaulting to compiler {version}",)
        return str(version), ()

    tasks: list[Task] = []
    skips: list[SkipRecord] = []
    taken: set[str] = set()
    for contract in ordered:
        for tool in tools:
            if contract.format not in tool.supported_formats:
                skips.append(SkipRecord(contract.id, tool.key, f"does not support {contract.format.value}"))
                continue
            compiler = None
            warnings: tuple[str, ...] = ()
            if tool.needs_compiler and contract.format is ContractFormat.SOLIDITY:
                compiler, warnings = resolve_for(contract)
                if compiler is None:
                    continue  # problem already recorded; planning will abort
            out_dir = plan_output_dir(scheme, contract, tool, taken, runid)
            tasks.append(
                Task(
                    contract=contract,
                    tool=tool,
                    output_dir=out_dir,
                    limits=limits,
                    compiler_version=compiler,
                    warnings=warnings,
                )
            )

    needed = {SemVer.parse(t.compiler_version) for t in tasks if t.compiler_version}
    # The index pins the mock fetcher's placeholder binaries; engine runs fetch
    # real ones and rely on the cache's own digests.
    pin_index = release_index if backend_name == "mock" else None
    for error in prefetch_compilers(needed, cache, fetcher, pin_index):
        problems.append(str(error))

    image_digests: dict[str, str] = {}
    for ref in sorted({t.tool.image_ref for t in tasks}):
        try:
            image_digests[ref] = backend.pull(ref)
        except HarnessError as exc:
            problems.append(str(exc))

    if problems:
        raise PlanningError(problems)

    return RunPlan(
        tasks=tuple(tasks),
        skips=tuple(skips),
        seed=seed,
        created_with_args=canonical,
        args_digest=digest,
        runid=runid,
        scheme=scheme,
        image_digests=image_digests,
        registry_path=str(registry_path),
    )


def plan_to_doc(plan: RunPlan) -> dict:
    """JSON-ready view of a plan; no timestamps, so rebuilds are byte-identical.

    A task entry holds only the keys that resume, reparse and the reports read.
    """
    return {
        "version": 2,
        "args": plan.created_with_args,
        "args_digest": plan.args_digest,
        "seed": plan.seed,
        "runid": plan.runid,
        "scheme": plan.scheme,
        "registry_path": plan.registry_path,
        "image_digests": dict(sorted(plan.image_digests.items())),
        "tasks": [
            {
                "output_dir": t.output_dir,
                "contract": t.contract.id,
                "source_path": str(t.contract.source_path),
                "tool": t.tool.tool_id,
                "tool_version": t.tool.version_label,
                "compiler": t.compiler_version,
            }
            for t in plan.tasks
        ],
        "skips": [
            {"contract": s.contract_id, "tool": s.tool_key, "reason": s.reason}
            for s in plan.skips
        ],
    }


def write_plan_lock(plan: RunPlan, results_root: str | Path) -> dict:
    """Serialize the plan into the results root and return its document.

    A lock on disk that already holds this document's bytes is left as it
    is; the two are compared by digest, and the lock is parsed only when they
    differ. Refuses to overwrite a lock created with different arguments: such
    a root belongs to another invocation and mixing the two would corrupt resume.
    """
    root = Path(results_root)
    root.mkdir(parents=True, exist_ok=True)
    doc = plan_to_doc(plan)
    path = root / PLAN_LOCK_FILENAME
    try:
        with open(path, "rb") as fh:
            stored = hashlib.file_digest(fh, "sha256").hexdigest()
    except FileNotFoundError:
        stored = None
    if stored is not None and stored == json_digest(doc):
        return doc
    existing = read_plan_lock(root) if stored is not None else None
    if existing is not None and existing.get("args_digest") != plan.args_digest:
        raise PlanningError(
            [
                f"{path}: created by a different invocation "
                f"(args digest {existing.get('args_digest')!r} != {plan.args_digest!r}); "
                "use a fresh results root or rerun with the original arguments"
            ]
        )
    write_json(path, doc)
    return doc


def read_plan_lock(results_root: str | Path) -> dict:
    """The lock document; refuses one that is not JSON or not an object with ``tasks`` and ``skips`` lists."""
    path = Path(results_root) / PLAN_LOCK_FILENAME
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise PlanLockMissingError(f"{path}: no plan found (was a run started here?)") from None
    except ValueError:
        raise HarnessError(f"{path}: not valid JSON; remove it and rerun with the original arguments") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("tasks"), list) and isinstance(doc.get("skips"), list)):
        raise HarnessError(
            f"{path}: not a plan lock (no 'tasks' and 'skips' lists); remove it and rerun with the original arguments"
        )
    return doc
