"""Command-line front end: run analyses, reparse stored output, list tools."""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import os
import re
import signal
import sys
from pathlib import Path, PurePosixPath

import yaml

from .executor import (
    DockerCliBackend,
    ExecutorUnavailableError,
    MockBackend,
    META_FILENAME,
    read_meta,
    read_raw,
)
from .model import ContractFormat, HarnessError, ResourceLimits
from .parsing import ExitClass
from .paths import bundled_registry, bundled_release_index, bundled_taxonomy
from .plan import (
    DEFAULT_SCHEME,
    PLAN_LOCK_FILENAME,
    PlanningError,
    SchemeError,
    build_plan,
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
    MissingKeyError,
    TaxonomyMap,
    read_keys,
    report_stamp,
    reports_current,
    write_reports,
)
from .runner import Runner, TaskExecutor, finalize, read_done_markers
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


def _positive(convert):
    """argparse type: ``convert`` the text, then refuse a value that is not > 0."""
    def parse(text: str):
        value = convert(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value
    return parse


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
    run_p.add_argument("--processes", type=_positive(int), default=1, metavar="N")
    limits = ResourceLimits()
    run_p.add_argument("--timeout", type=_positive(float), default=limits.wall_timeout, metavar="S")
    run_p.add_argument("--mem", type=_positive(parse_memory), default=limits.memory_bytes, metavar="SIZE",
                       help="per-task memory limit, e.g. 32g")
    run_p.add_argument("--cpu", type=_positive(float), default=limits.cpu_quota, metavar="Q")
    run_p.add_argument("--seed", type=int, default=0, metavar="N")
    run_p.add_argument("--results", default=DEFAULT_RESULTS, metavar="DIR/SCHEME",
                       help="results root plus output-folder scheme "
                            "({filename},{toolid},{toolversion},{runid})")
    run_p.add_argument("--backend", choices=["engine", "mock"], default="engine")
    run_p.add_argument("--sarif", action="store_true", help="also write report.sarif")
    run_p.add_argument("--keys", metavar="FILE", help="contract-to-key csv for binned error series")
    run_p.add_argument("--bin-size", type=_positive(int), default=DEFAULT_BIN_SIZE, metavar="N")
    run_p.add_argument("--registry", default=None, metavar="DIR")
    run_p.add_argument("--compiler-cache", default=None, metavar="DIR")
    run_p.add_argument("--mock-fixtures", default=None, metavar="FILE",
                       help="yaml mapping image refs to scripted mock behaviors")

    rep_p = sub.add_parser("reparse", help="re-run parsing over stored raw output")
    rep_p.add_argument("results_root", metavar="RESULTS_ROOT")
    rep_p.add_argument("--registry", default=None, metavar="DIR")
    rep_p.add_argument("--sarif", action="store_true")
    rep_p.add_argument("--keys", metavar="FILE")
    rep_p.add_argument("--bin-size", type=_positive(int), default=DEFAULT_BIN_SIZE, metavar="N")

    tools_p = sub.add_parser("tools", help="list the registry's tools and format support")
    tools_p.add_argument("--registry", default=None, metavar="DIR")
    return parser


def _registry_dir(args) -> Path:
    return Path(args.registry) if args.registry else bundled_registry()


def _default_cache_dir() -> Path:
    return Path.home() / ".cache" / "scanmux" / "compilers"


def _read_series_keys(args) -> dict[str, int] | None:
    """The ``--keys`` mapping, or None; an unreadable file is a usage error."""
    try:
        return read_keys(args.keys) if args.keys else None
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read --keys file: {exc}") from exc


def _check_series_keys(keys: dict[str, int] | None, contract_ids) -> None:
    """Refuse, before any task runs, a ``--keys`` file that misses a planned contract."""
    missing = sorted(set(contract_ids) - keys.keys()) if keys is not None else []
    if missing:
        raise MissingKeyError(f"--keys has no key for {len(missing)} planned contract(s), e.g. {missing[0]!r}")


# The files a command replaces in the results root; a write cut short leaves a ``.<name>.*`` temp file.
_TEMP_PREFIXES = tuple(
    f".{name}." for name in (PLAN_LOCK_FILENAME, SUMMARY_FILENAME, SARIF_FILENAME, FINDINGS_FILENAME)
)


@contextlib.contextmanager
def _own_results_root(results_root: Path):
    """Hold an exclusive ``flock`` on the results root directory, or refuse at once.

    The lock lives on a descriptor of the directory itself, so no file is
    added to the tree, and it is released when the command ends or dies.
    Once it is held, the temp files of a killed command's writes are removed.
    """
    fd = os.open(results_root, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise HarnessError(f"{results_root}: another scanmux command holds this results root") from None
        for name in os.listdir(results_root):
            if name.startswith(_TEMP_PREFIXES):
                (results_root / name).unlink(missing_ok=True)
        yield
    finally:
        os.close(fd)


def _report_stamp(lock: dict, keys: dict[str, int] | None, args) -> str:
    return report_stamp(
        bundled_taxonomy().read_bytes(), lock["tasks"], lock["skips"], keys, args.bin_size, args.sarif
    )


def _withdraw_reports(results_root: Path) -> None:
    """Delete ``summary.json``, and with it the stamp, before any ``result.json`` may change."""
    (results_root / SUMMARY_FILENAME).unlink(missing_ok=True)


def _emit_reports(
    results_root: Path, lock: dict, finished: dict[str, ExitClass], keys: dict[str, int] | None, args, stamp: str
) -> None:
    """Rebuild every report from the tree on disk, whichever command wrote it."""
    write_reports(
        results_root, lock["tasks"], lock["skips"], finished, TaxonomyMap.load(bundled_taxonomy()),
        keys=keys, bin_size=args.bin_size, sarif=args.sarif, stamp=stamp,
    )


def cmd_run(args) -> int:
    tools = _split_tool_args(args.tools)
    fmt = ContractFormat(args.format) if args.format else None
    results_root, scheme = split_results(args.results)
    try:
        validate_scheme(scheme)
    except SchemeError as exc:
        raise UsageError(str(exc)) from exc
    limits = ResourceLimits(wall_timeout=args.timeout, memory_bytes=args.mem, cpu_quota=args.cpu)
    keys = _read_series_keys(args)

    registry_dir = _registry_dir(args)
    registry = load_registry(registry_dir)
    contracts = discover_contracts(args.files, fmt)

    if args.backend == "mock":
        try:  # before planning, like --keys: a malformed fixtures file is a usage error
            backend = MockBackend.from_fixtures(args.mock_fixtures) if args.mock_fixtures else MockBackend()
        except (OSError, ValueError, TypeError, yaml.YAMLError) as exc:
            raise UsageError(f"cannot read --mock-fixtures file: {exc}") from exc
        fetcher = MockCompilerFetcher()
    else:
        backend = DockerCliBackend()
        fetcher = UrlCompilerFetcher()
    if not backend.available():
        raise ExecutorUnavailableError("container engine is not available")

    cache = CompilerCache(args.compiler_cache or _default_cache_dir())
    plan = build_plan(
        contracts, registry, tools, scheme, limits, args.seed,
        files=args.files, format_override=fmt, backend_name=args.backend,
        cache=cache, fetcher=fetcher, release_index=ReleaseIndex.load(bundled_release_index()),
        backend=backend, registry_path=str(registry_dir),
    )
    _check_series_keys(keys, (t.contract.id for t in plan.tasks))
    results_root.mkdir(parents=True, exist_ok=True)
    with _own_results_root(results_root):
        lock = write_plan_lock(plan, results_root)
        print(
            f"planned {len(plan.tasks)} tasks ({len(plan.skips)} skips) into {results_root}",
            flush=True,
        )

        runner = Runner(
            TaskExecutor(plan, backend, registry, cache),
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
            summary = runner.run(before_dispatch=lambda: _withdraw_reports(results_root))
        finally:
            signal.signal(signal.SIGINT, previous)

        stamp = _report_stamp(lock, keys, args)
        if summary.skipped_as_done < summary.total or not reports_current(results_root, stamp, args.sarif):
            _emit_reports(results_root, lock, summary.finished, keys, args, stamp)

        tally = summary.tally
        print(
            f"executed {summary.executed} of {summary.total} tasks: "
            f"{tally[ExitClass.SUCCESS]} ok, {tally[ExitClass.TOOL_ERROR]} tool errors, "
            f"{tally[ExitClass.TOOL_FAILURE]} failures, {tally[ExitClass.TIMEOUT]} timeouts, "
            f"{tally[ExitClass.OUT_OF_MEMORY]} oom, {summary.skipped_as_done} already done"
        )
        if tally["infra_error"]:
            for output_dir, message in sorted(summary.infra_errors.items()):
                print(f"infra error: {output_dir}: {message}", file=sys.stderr)
            print(f"{tally['infra_error']} tasks hit infrastructure errors", file=sys.stderr)
            return EXIT_EXECUTOR
        if interrupts["count"] > 0 or summary.remaining > 0:
            return EXIT_INTERRUPTED
        return EXIT_OK


def cmd_reparse(args) -> int:
    results_root = Path(args.results_root)
    lock = read_plan_lock(results_root)
    with _own_results_root(results_root):
        registry_dir = Path(args.registry or lock.get("registry_path") or bundled_registry())
        registry = load_registry(registry_dir)
        keys = _read_series_keys(args)
        _check_series_keys(keys, (entry["contract"] for entry in lock["tasks"]))
        locked = sorted({(entry["tool"], entry["tool_version"]) for entry in lock["tasks"]})
        tools = {key: registry.find(*key) for key in locked}
        missing = [f"registry at {registry_dir} no longer defines {tool_id}:{version}"
                   for (tool_id, version), tool in tools.items() if tool is None]
        if missing:  # checked before the loop, so a refused reparse rewrites nothing
            raise PlanningError(missing)

        withdrawn = False

        def withdraw_once() -> None:  # before the first task file changes, so no stamp outlives its result.json
            nonlocal withdrawn
            if not withdrawn:
                _withdraw_reports(results_root)
                withdrawn = True

        markers = read_done_markers(results_root, (entry["output_dir"] for entry in lock["tasks"]))
        finished: dict[str, ExitClass] = {}
        reparsed = 0
        for entry in lock["tasks"]:
            out_dir = results_root / entry["output_dir"]
            marker = markers.get(entry["output_dir"])
            if marker is None:  # absent or corrupt: collect_outcomes reports it as incomplete
                continue
            content_hash, args_digest, exit_class = marker
            finished[entry["output_dir"]] = exit_class
            try:  # unreadable stored output: the task keeps its result.json
                record = read_meta(out_dir / META_FILENAME)
                raw = read_raw(out_dir, record.result_files)
            except (OSError, ValueError, KeyError, TypeError):
                continue
            tool = tools[entry["tool"], entry["tool_version"]]
            exit_class, _ = finalize(
                out_dir, record, raw, registry.parser_for(tool), content_hash, args_digest,
                stored=exit_class, before_write=withdraw_once,
            )
            finished[entry["output_dir"]] = exit_class
            reparsed += 1

        # The stamp covers neither markers nor stored output, so a task left out above means a rewrite.
        stamp = _report_stamp(lock, keys, args)
        if withdrawn or reparsed < len(lock["tasks"]) or not reports_current(results_root, stamp, args.sarif):
            _emit_reports(results_root, lock, finished, keys, args, stamp)
        print(f"reparsed {reparsed} tasks under {results_root}")
        return EXIT_OK


def cmd_tools(args) -> int:
    registry = load_registry(_registry_dir(args))
    columns = list(ContractFormat)
    rows = [
        (t.tool_id, t.version_label, *("x" if f in t.supported_formats else "-" for f in columns))
        for t in registry.tools
    ]
    totals = [sum(1 for t in registry.tools if f in t.supported_formats) for f in columns]
    header = ("tool", "version", *(f.value for f in columns))
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
