"""Command-line front end: run analyses, reparse stored output, list tools."""

from __future__ import annotations

import argparse
import re
import signal
import sys
from pathlib import Path, PurePosixPath

from .executor import (
    DockerCliBackend,
    ExecutorUnavailableError,
    MockBackend,
    META_FILENAME,
    RAW_DIRNAME,
    read_meta,
    read_raw,
)
from .model import ContractFormat, HarnessError, ResourceLimits
from .paths import bundled_registry, bundled_release_index, bundled_taxonomy
from .plan import (
    DEFAULT_SCHEME,
    PlanningError,
    SchemeError,
    build_plan,
    canonicalize_args,
    discover_contracts,
    read_plan_lock,
    validate_scheme,
    write_plan_lock,
)
from .registry import load_registry
from .reporting import (
    FINDINGS_FILENAME,
    SARIF_FILENAME,
    SUMMARY_FILENAME,
    TaxonomyMap,
    build_summary,
    collect_outcomes,
    emit_sarif,
    error_rate_series,
    read_keys,
    series_records,
    write_findings_csv,
    write_sarif,
    write_summary,
)
from .runner import CorruptMarkerError, Runner, TaskExecutor, finalize, read_done_marker
from .solc import CompilerCache, MockCompilerFetcher, ReleaseIndex, UrlCompilerFetcher

DEFAULT_RESULTS = "results/" + DEFAULT_SCHEME
DEFAULT_BIN_SIZE = 100_000

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PLANNING = 2
EXIT_EXECUTOR = 3
EXIT_INTERRUPTED = 130


class UsageError(HarnessError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


_MEM_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([kmgt]?)b?\s*$", re.IGNORECASE)


def parse_memory(text: str) -> int:
    """'32g', '512m', '1048576' ... -> bytes."""
    m = _MEM_RE.match(text)
    if not m:
        raise UsageError(f"cannot parse memory size {text!r}")
    factor = {"": 1, "k": 2**10, "m": 2**20, "g": 2**30, "t": 2**40}[m.group(2).lower()]
    return int(float(m.group(1)) * factor)


def split_results(value: str) -> tuple[Path, str]:
    """Split `--results DIR/SCHEME` at the first path segment holding a placeholder."""
    parts = PurePosixPath(value).parts
    for i, part in enumerate(parts):
        if "{" in part:
            root = Path(*parts[:i]) if i else Path(".")
            return root, "/".join(parts[i:])
    return Path(value), "{filename}/{toolid}"


def _split_tool_args(raw: list[str] | None) -> list[str]:
    items: list[str] = []
    for chunk in raw or ["all"]:
        items.extend(s.strip() for s in chunk.split(",") if s.strip())
    return items or ["all"]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scanmux", description="Run many analysis tools over many contracts.")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="analyze contracts", parents=[], add_help=True)
    run_p.add_argument("-t", "--tools", action="append", metavar="NAME[,NAME...]",
                       help="tools to run: names, name:version pairs, or 'all' (default)")
    run_p.add_argument("-f", "--files", action="append", required=True, metavar="GLOB",
                       help="contract file pattern; repeatable")
    run_p.add_argument("--format", choices=[f.value for f in ContractFormat],
                       help="force the contract format instead of inferring it from extensions")
    run_p.add_argument("--processes", type=int, default=1, metavar="N")
    run_p.add_argument("--timeout", type=float, default=600.0, metavar="S")
    run_p.add_argument("--mem", default="4g", metavar="SIZE", help="per-task memory limit, e.g. 32g")
    run_p.add_argument("--cpu", type=float, default=1.0, metavar="Q")
    run_p.add_argument("--seed", type=int, default=0, metavar="N")
    run_p.add_argument("--results", default=DEFAULT_RESULTS, metavar="DIR/SCHEME",
                       help="results root plus output-folder scheme "
                            "({filename},{toolid},{toolversion},{runid})")
    run_p.add_argument("--backend", choices=["engine", "mock"], default="engine")
    run_p.add_argument("--sarif", action="store_true", help="also write report.sarif")
    run_p.add_argument("--keys", metavar="FILE", help="contract-to-key csv for binned error series")
    run_p.add_argument("--bin-size", type=int, default=DEFAULT_BIN_SIZE, metavar="N")
    run_p.add_argument("--registry", default=None, metavar="DIR")
    run_p.add_argument("--compiler-cache", default=None, metavar="DIR")
    run_p.add_argument("--mock-fixtures", default=None, metavar="FILE",
                       help="yaml mapping image refs to scripted mock behaviors")

    rep_p = sub.add_parser("reparse", help="re-run parsing over stored raw output")
    rep_p.add_argument("results_root", metavar="RESULTS_ROOT")
    rep_p.add_argument("--registry", default=None, metavar="DIR")
    rep_p.add_argument("--sarif", action="store_true")
    rep_p.add_argument("--keys", metavar="FILE")
    rep_p.add_argument("--bin-size", type=int, default=DEFAULT_BIN_SIZE, metavar="N")

    tools_p = sub.add_parser("tools", help="list the registry's tools and format support")
    tools_p.add_argument("--registry", default=None, metavar="DIR")
    return parser


def _registry_dir(args) -> Path:
    return Path(args.registry) if args.registry else bundled_registry()


def _default_cache_dir() -> Path:
    return Path.home() / ".cache" / "scanmux" / "compilers"


def _emit_reports(results_root: Path, taxonomy: TaxonomyMap, lock: dict, args) -> None:
    outcomes, incomplete = collect_outcomes(results_root, taxonomy)
    series = None
    if args.keys:
        keys = read_keys(args.keys)
        series = error_rate_series(series_records(outcomes, keys), args.bin_size)
    summary = build_summary(outcomes, skips=lock.get("skips", ()), incomplete=incomplete, series=series)
    write_summary(results_root / SUMMARY_FILENAME, summary)
    write_findings_csv(results_root / FINDINGS_FILENAME, outcomes)
    if args.sarif:
        write_sarif(results_root / SARIF_FILENAME, emit_sarif(outcomes, taxonomy))


def cmd_run(args) -> int:
    tools = _split_tool_args(args.tools)
    fmt = ContractFormat(args.format) if args.format else None
    memory = parse_memory(args.mem)
    if args.processes < 1:
        raise UsageError("--processes must be >= 1")
    results_root, scheme = split_results(args.results)
    try:
        validate_scheme(scheme)
    except SchemeError as exc:
        raise UsageError(str(exc)) from exc
    limits = ResourceLimits(wall_timeout=args.timeout, memory_bytes=memory, cpu_quota=args.cpu)

    registry_dir = _registry_dir(args)
    registry = load_registry(registry_dir)
    contracts = discover_contracts(args.files, fmt)

    if args.backend == "mock":
        backend = (
            MockBackend.from_fixtures(args.mock_fixtures) if args.mock_fixtures else MockBackend()
        )
        fetcher = MockCompilerFetcher()
    else:
        backend = DockerCliBackend()
        fetcher = UrlCompilerFetcher()
    if not backend.available():
        raise ExecutorUnavailableError("container engine is not available")

    cache = CompilerCache(args.compiler_cache or _default_cache_dir())
    release_index = ReleaseIndex.load(bundled_release_index())
    canonical = canonicalize_args(
        tools=tools,
        files=args.files,
        format_override=fmt,
        wall_timeout=limits.wall_timeout,
        memory_bytes=limits.memory_bytes,
        cpu_quota=limits.cpu_quota,
        seed=args.seed,
        scheme=scheme,
        backend=args.backend,
        registry_digest=registry.content_digest,
    )
    plan = build_plan(
        contracts,
        registry,
        tools,
        scheme,
        limits,
        args.seed,
        cache=cache,
        fetcher=fetcher,
        release_index=release_index,
        backend=backend,
        created_with_args=canonical,
        registry_path=str(registry_dir),
        pin_digests=args.backend == "mock",
    )
    write_plan_lock(plan, results_root)
    print(
        f"planned {len(plan.tasks)} tasks ({len(plan.skips)} skips) into {results_root}",
        flush=True,
    )

    executor = TaskExecutor(backend, registry, cache, plan.image_digests, plan.args_digest)
    runner = Runner(
        plan,
        executor,
        results_root,
        workers=args.processes,
        on_progress=lambda done, total: print(f"[{done}/{total}] tasks finished", file=sys.stderr),
    )

    interrupts = {"count": 0}

    def on_interrupt(signum, frame):
        interrupts["count"] += 1
        if interrupts["count"] == 1:
            print("interrupt: letting in-flight tasks finish; press again to kill", file=sys.stderr)
            runner.request_stop()
        else:
            print("interrupt: killing in-flight tasks", file=sys.stderr)
            runner.request_kill()

    previous = signal.signal(signal.SIGINT, on_interrupt)
    try:
        summary = runner.run()
    finally:
        signal.signal(signal.SIGINT, previous)

    taxonomy = TaxonomyMap.load(bundled_taxonomy())
    _emit_reports(results_root, taxonomy, {"skips": plan.skips}, args)

    print(
        f"executed {summary.executed} of {summary.total} tasks: "
        f"{summary.succeeded} ok, {summary.tool_errors} tool errors, "
        f"{summary.tool_failures} failures, {summary.timeouts} timeouts, "
        f"{summary.oom} oom, {summary.skipped_as_done} already done"
    )
    if summary.infra_errors:
        print(f"{summary.infra_errors} tasks hit infrastructure errors", file=sys.stderr)
        return EXIT_EXECUTOR
    if interrupts["count"] > 0 or summary.remaining > 0:
        return EXIT_INTERRUPTED
    return EXIT_OK


def cmd_reparse(args) -> int:
    results_root = Path(args.results_root)
    lock = read_plan_lock(results_root)
    registry_dir = (
        Path(args.registry) if args.registry
        else Path(lock["registry_path"]) if lock.get("registry_path")
        else bundled_registry()
    )
    registry = load_registry(registry_dir)

    reparsed = 0
    for entry in lock["tasks"]:
        out_dir = results_root / entry["output_dir"]
        try:
            marker = read_done_marker(out_dir)
        except CorruptMarkerError:
            marker = None
        if marker is None:  # collect_outcomes reports it as incomplete
            continue
        if not (out_dir / RAW_DIRNAME).is_dir() or not (out_dir / META_FILENAME).exists():
            continue
        tool = registry.find(entry["tool"], entry["tool_version"])
        if tool is None:
            raise PlanningError(
                [f"registry at {registry_dir} no longer defines {entry['tool']}:{entry['tool_version']}"]
            )
        content_hash, args_digest, _ = marker
        finalize(
            out_dir,
            read_meta(out_dir / META_FILENAME),
            read_raw(out_dir),
            registry.parser_for(tool),
            content_hash,
            args_digest,
        )
        reparsed += 1

    taxonomy = TaxonomyMap.load(bundled_taxonomy())
    _emit_reports(results_root, taxonomy, lock, args)
    print(f"reparsed {reparsed} tasks under {results_root}")
    return EXIT_OK


def cmd_tools(args) -> int:
    registry = load_registry(_registry_dir(args))
    columns = [ContractFormat.SOLIDITY, ContractFormat.CREATION_BYTECODE, ContractFormat.RUNTIME_CODE]
    rows = [
        (t.tool_id, t.version_label, *("x" if f in t.supported_formats else "-" for f in columns))
        for t in registry.tools
    ]
    totals = [sum(1 for t in registry.tools if f in t.supported_formats) for f in columns]
    header = ("tool", "version", "solidity", "creation", "runtime")
    footer = ("total", f"{len(registry.tools)} tools", *map(str, totals))
    widths = [
        max(len(str(row[i])) for row in [header, footer, *rows]) for i in range(len(header))
    ]
    for row in [header, *rows, footer]:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "reparse":
            return cmd_reparse(args)
        if args.command == "tools":
            return cmd_tools(args)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExecutorUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXECUTOR
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLANNING


if __name__ == "__main__":
    sys.exit(main())
