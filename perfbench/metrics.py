"""The benchmark's metrics: end to end, per layer, and how the layers map onto the whole.

``END_TO_END`` (those with a bound) and ``PER_LAYER`` are the single source
of the metric lists in BENCHMARK.json (a test keeps them equal). Each per-layer metric names its
layer (a scanmux module), the end-to-end metrics it should move and the
workload on which it should move them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from tracing import Span, self_times

MIB = float(1 << 20)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float | None  # None: printed, but too unsteady here to bound (see README)
    definition: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: tuple[str, ...]
    workload: str
    definition: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "launch of `scanmux run` on a fresh results root to its `planned N tasks` line"),
    EndToEnd("run_s", "s", "lower", 0.25, "wall time of the first `scanmux run --sarif`"),
    EndToEnd("exec_tasks_per_s", "tasks/s", "higher", None,
             "tasks executed / (last `[n/n]` progress line - `planned` line)"),
    EndToEnd("resume_s", "s", "lower", 0.25, "wall time of the same `run` on the completed root"),
    EndToEnd("reparse_s", "s", "lower", 0.25, "wall time of `scanmux reparse ROOT --sarif`"),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.1, "peak RSS of the first-run process (its VmHWM)"),
    EndToEnd("results_mib", "MiB", "lower", 0.1,
             "allocated size (st_blocks) of the results tree after the first run"),
)

BOUNDED = tuple(m for m in END_TO_END if m.bound is not None)

# failed_share is printed with the end-to-end metrics; in the JSON result it is
# carried by `attempted` and `failed`, since a metric that reads 0 on a
# correct run cannot be given a relative bound.
FAILED_SHARE = ("failed_share", "ratio")

_ALL = "matrix,findings,heavy-solc"
PER_LAYER = (
    PerLayer("registry.load_s", "s", "lower", ("setup_s",), _ALL, "load_registry, all phases"),
    PerLayer("plan.discover_s", "s", "lower", ("setup_s",), "matrix", "discover_contracts"),
    PerLayer("plan.build_self_s", "s", "lower", ("setup_s", "resume_s"), "matrix",
             "build_plan minus prefetch and pull"),
    PerLayer("plan.lock_write_s", "s", "lower", ("setup_s", "resume_s"), "matrix", "write_plan_lock"),
    PerLayer("plan.lock_read_s", "s", "lower", ("resume_s", "reparse_s"), "matrix", "read_plan_lock"),
    PerLayer("plan.lock_mib", "MiB", "lower", ("setup_s", "resume_s", "reparse_s"), "matrix",
             "size of plan.lock"),
    PerLayer("solc.prefetch_s", "s", "lower", ("setup_s",), "heavy-solc", "prefetch_compilers"),
    PerLayer("solc.lookup_calls", "count", "lower", ("exec_tasks_per_s", "run_s"), "heavy-solc",
             "CompilerCache.lookup calls"),
    PerLayer("solc.lookup_s", "s", "lower", ("exec_tasks_per_s", "run_s"), "heavy-solc",
             "CompilerCache.lookup"),
    PerLayer("solc.lookup_ms_p50", "ms", "lower", ("exec_tasks_per_s", "run_s"), "heavy-solc",
             "median CompilerCache.lookup call"),
    PerLayer("solc.hashed_mib", "MiB", "lower", ("exec_tasks_per_s", "run_s", "setup_s"), "heavy-solc",
             "bytes of cached compilers that lookups re-hash"),
    PerLayer("executor.pull_s", "s", "lower", ("setup_s",), "matrix", "backend pull"),
    PerLayer("executor.stage_calls", "count", "lower", ("exec_tasks_per_s",), "matrix",
             "stage_volume calls (sample count of the stage percentiles)"),
    PerLayer("executor.stage_self_s", "s", "lower", ("exec_tasks_per_s", "run_s"), "heavy-solc",
             "stage_volume minus compiler lookup: temp volume, copies"),
    PerLayer("executor.stage_ms_p50", "ms", "lower", ("exec_tasks_per_s", "run_s"), "heavy-solc",
             "median stage_volume self time"),
    PerLayer("executor.stage_ms_p99", "ms", "lower", ("exec_tasks_per_s", "run_s"), "heavy-solc",
             "99th percentile stage_volume self time"),
    PerLayer("executor.staged_mib", "MiB", "lower", ("exec_tasks_per_s", "run_s"), "heavy-solc",
             "bytes staged into task volumes"),
    PerLayer("executor.container_s", "s", "lower", ("exec_tasks_per_s", "run_s"), "matrix",
             "backend run (the mock container)"),
    PerLayer("executor.harvest_s", "s", "lower", ("exec_tasks_per_s", "run_s"), "matrix",
             "copy_out of declared result files"),
    PerLayer("executor.execute_self_s", "s", "lower", ("exec_tasks_per_s", "run_s", "results_mib"),
             "matrix", "execute minus stage, run, harvest: raw and meta writes, volume removal"),
    PerLayer("runner.resume_filter_s", "s", "lower", ("resume_s",), "matrix", "resume_filter"),
    PerLayer("runner.task_calls", "count", "lower", ("exec_tasks_per_s",), "matrix",
             "run_task calls (sample count of the task percentiles)"),
    PerLayer("runner.task_ms_p50", "ms", "lower", ("exec_tasks_per_s",), "matrix", "median run_task"),
    PerLayer("runner.task_ms_p99", "ms", "lower", ("exec_tasks_per_s",), "matrix",
             "99th percentile run_task"),
    PerLayer("runner.dispatch_gaps", "count", "lower", ("exec_tasks_per_s",), "matrix",
             "gaps between one worker's consecutive run_task calls (sample count)"),
    PerLayer("runner.dispatch_gap_ms_p99", "ms", "lower", ("exec_tasks_per_s",), "matrix",
             "99th percentile gap between one worker's consecutive run_task calls"),
    PerLayer("runner.pool_busy_share", "ratio", "higher", ("exec_tasks_per_s", "run_s"), "matrix",
             "sum of run_task time / (workers x Runner.run wall), first run"),
    PerLayer("runner.marker_write_s", "s", "lower", ("exec_tasks_per_s", "reparse_s"), "matrix",
             "write_done_marker"),
    PerLayer("runner.infra_errors", "count", "lower", ("failed_share",), "matrix",
             "run_task results carrying an infrastructure error"),
    PerLayer("parsing.parse_calls", "count", "lower", ("reparse_s",), "findings",
             "parse calls (sample count of the parse percentiles)"),
    PerLayer("parsing.parse_s", "s", "lower", ("reparse_s", "run_s"), "findings", "parse"),
    PerLayer("parsing.parse_ms_p50", "ms", "lower", ("reparse_s", "run_s"), "findings", "median parse"),
    PerLayer("parsing.parse_ms_p99", "ms", "lower", ("reparse_s", "run_s"), "findings",
             "99th percentile parse"),
    PerLayer("parsing.findings", "count", "higher", ("reparse_s", "run_s"), "findings",
             "findings returned by parse"),
    PerLayer("parsing.write_report_s", "s", "lower", ("reparse_s", "run_s"), "findings", "write_report"),
    PerLayer("reporting.collect_s", "s", "lower", ("resume_s", "reparse_s", "run_s"), "findings",
             "collect_outcomes"),
    PerLayer("reporting.summary_s", "s", "lower", ("resume_s", "reparse_s", "run_s"), "findings",
             "build_summary + write_summary"),
    PerLayer("reporting.csv_s", "s", "lower", ("resume_s", "reparse_s", "run_s"), "findings",
             "write_findings_csv"),
    PerLayer("reporting.sarif_emit_s", "s", "lower", ("resume_s", "reparse_s", "run_s", "peak_rss_mib"),
             "findings", "emit_sarif"),
    PerLayer("reporting.sarif_validate_s", "s", "lower", ("resume_s", "reparse_s", "run_s"), "findings",
             "validate_sarif (jsonschema)"),
    PerLayer("reporting.sarif_write_self_s", "s", "lower", ("resume_s", "reparse_s", "run_s"),
             "findings", "write_sarif minus validation"),
    PerLayer("reporting.sarif_mib", "MiB", "lower", ("resume_s", "reparse_s", "run_s"), "findings",
             "size of report.sarif"),
    PerLayer("cli.run_self_s", "s", "lower", ("run_s", "resume_s"), "matrix",
             "cmd_run minus every traced call beneath it"),
    PerLayer("cli.reparse_self_s", "s", "lower", ("reparse_s",), "matrix",
             "cmd_reparse minus every traced call beneath it"),
)

# Percentile metric -> its sample-count metric.
SAMPLE_COUNTS = {
    "solc.lookup_ms_p50": "solc.lookup_calls",
    "executor.stage_ms_p50": "executor.stage_calls",
    "executor.stage_ms_p99": "executor.stage_calls",
    "runner.task_ms_p50": "runner.task_calls",
    "runner.task_ms_p99": "runner.task_calls",
    "runner.dispatch_gap_ms_p99": "runner.dispatch_gaps",
    "parsing.parse_ms_p50": "parsing.parse_calls",
    "parsing.parse_ms_p99": "parsing.parse_calls",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class PhaseSpans:
    """Spans of one traced CLI invocation, with their self times."""

    def __init__(self, spans: list[Span], wall: float):
        self.spans = spans
        self.wall = wall
        self.self_time = self_times(spans)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def per_layer(phases: dict[str, PhaseSpans], lock_bytes: int, sarif_bytes: int) -> dict[str, float]:
    """Every PER_LAYER metric of one traced cycle (phases `run`, `resume`, `reparse`).

    Sums cover all three phases; pool and dispatch figures come from the
    first run, the only one that executes tasks.
    """
    everything = [(p, s) for p in phases.values() for s in p.spans]

    def spans(name):
        return [s for _, s in everything if s.name == name]

    def total(*names):
        return sum(s.duration for n in names for s in spans(n))

    def self_sum(name):
        return sum(p.self_time[s.id] for p, s in everything if s.name == name)

    def self_each(name):
        return [p.self_time[s.id] for p, s in everything if s.name == name]

    def extra_sum(name, key):
        return sum(s.extra.get(key, 0) for s in spans(name))

    lookups = [s.duration for s in spans("solc.CompilerCache.lookup")]
    stages = self_each("executor.stage_volume")
    tasks = [s.duration for s in spans("runner.TaskExecutor.run_task")]
    parses = [s.duration for s in spans("parsing.parse")]

    run = phases["run"]
    by_thread: dict[str, list[Span]] = {}
    for s in run.named("runner.TaskExecutor.run_task"):
        by_thread.setdefault(s.thread, []).append(s)
    gaps = []
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: s.start)
        gaps += [b.start - a.end for a, b in zip(thread_spans, thread_spans[1:])]
    pool = run.named("runner.Runner.run")
    pool_capacity = sum(s.duration * s.extra.get("workers", 1) for s in pool)
    busy = sum(s.duration for s in run.named("runner.TaskExecutor.run_task"))

    return {
        "registry.load_s": total("registry.load_registry"),
        "plan.discover_s": total("plan.discover_contracts"),
        "plan.build_self_s": self_sum("plan.build_plan"),
        "plan.lock_write_s": total("plan.write_plan_lock"),
        "plan.lock_read_s": total("plan.read_plan_lock"),
        "plan.lock_mib": lock_bytes / MIB,
        "solc.prefetch_s": total("solc.prefetch_compilers"),
        "solc.lookup_calls": len(lookups),
        "solc.lookup_s": sum(lookups),
        "solc.lookup_ms_p50": percentile(lookups, 50) * 1e3,
        "solc.hashed_mib": extra_sum("solc.CompilerCache.lookup", "bytes") / MIB,
        "executor.pull_s": total("executor.MockBackend.pull"),
        "executor.stage_calls": len(stages),
        "executor.stage_self_s": sum(stages),
        "executor.stage_ms_p50": percentile(stages, 50) * 1e3,
        "executor.stage_ms_p99": percentile(stages, 99) * 1e3,
        "executor.staged_mib": extra_sum("executor.stage_volume", "bytes") / MIB,
        "executor.container_s": total("executor.MockBackend.run"),
        "executor.harvest_s": total("executor.ContainerBackend.copy_out"),
        "executor.execute_self_s": self_sum("executor.execute"),
        "runner.resume_filter_s": total("runner.resume_filter"),
        "runner.task_calls": len(tasks),
        "runner.task_ms_p50": percentile(tasks, 50) * 1e3,
        "runner.task_ms_p99": percentile(tasks, 99) * 1e3,
        "runner.dispatch_gaps": len(gaps),
        "runner.dispatch_gap_ms_p99": percentile(gaps, 99) * 1e3,
        "runner.pool_busy_share": busy / pool_capacity if pool_capacity else 0.0,
        "runner.marker_write_s": total("runner.write_done_marker"),
        "runner.infra_errors": extra_sum("runner.TaskExecutor.run_task", "error"),
        "parsing.parse_calls": len(parses),
        "parsing.parse_s": sum(parses),
        "parsing.parse_ms_p50": percentile(parses, 50) * 1e3,
        "parsing.parse_ms_p99": percentile(parses, 99) * 1e3,
        "parsing.findings": extra_sum("parsing.parse", "findings"),
        "parsing.write_report_s": total("parsing.write_report"),
        "reporting.collect_s": total("reporting.collect_outcomes"),
        "reporting.summary_s": total("reporting.build_summary", "reporting.write_summary"),
        "reporting.csv_s": total("reporting.write_findings_csv"),
        "reporting.sarif_emit_s": total("reporting.emit_sarif"),
        "reporting.sarif_validate_s": total("reporting.validate_sarif"),
        "reporting.sarif_write_self_s": self_sum("reporting.write_sarif"),
        "reporting.sarif_mib": sarif_bytes / MIB,
        "cli.run_self_s": self_sum("cli.cmd_run"),
        "cli.reparse_self_s": self_sum("cli.cmd_reparse"),
    }


def layer_breakdown(phase: PhaseSpans, within: str | None = None) -> dict[str, float]:
    """Self time per layer, optionally only inside spans named ``within``.

    Without ``within``, process time outside every span (interpreter start,
    imports, exit) is reported as ``startup``.
    """
    spans = phase.spans
    if within is not None:
        by_id = {s.id: s for s in spans}

        def inside(s):
            while s is not None:
                if s.name == within:
                    return True
                s = by_id.get(s.parent)
            return False

        spans = [s for s in spans if inside(s)]
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + phase.self_time[s.id]
    if within is None:
        main_roots = [s for s in phase.spans if s.parent is None and s.thread == "MainThread"]
        out["startup"] = max(0.0, phase.wall - sum(s.duration for s in main_roots))
    return out
