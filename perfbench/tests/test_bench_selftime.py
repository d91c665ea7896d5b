"""Self-time arithmetic and the per-layer metrics built on it."""

import pytest

from metrics import PhaseSpans, layer_breakdown, per_layer, percentile
from tracing import Span, Tracer, covered, self_times


def span(id, name, start, end, parent=None, thread="MainThread", **extra):
    return Span(id, name, name.split(".")[0], start, end, parent, thread, None, extra)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5)], 0, 10) == 4
    assert covered([(1, 2), (4, 6)], 0, 10) == 3
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        span(1, "cli.cmd_run", 0.0, 10.0),
        span(2, "plan.build_plan", 1.0, 4.0, parent=1),
        span(3, "solc.prefetch_compilers", 2.0, 3.0, parent=2),
        span(4, "runner.Runner.run", 3.5, 9.0, parent=1),  # overlaps build_plan's tail
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10 - 8)  # children cover [1, 9]
    assert selfs[2] == pytest.approx(3 - 1)
    assert selfs[3] == pytest.approx(1)
    assert selfs[4] == pytest.approx(5.5)


def test_tracer_records_parents_per_thread_and_task_dirs():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Task:
        output_dir = "a/b"
        contract = object()

    inner = tracer.wrap("solc.lookup", "solc", lambda: 7)
    outer = tracer.wrap("executor.stage_volume", "executor", lambda task: inner(),
                        dir_of=lambda args: args[0].output_dir)
    assert outer(Task()) == 7
    child, parent = tracer.spans
    assert (child.name, child.parent, child.output_dir) == ("solc.lookup", parent.id, "a/b")
    assert parent.parent is None and parent.start < child.start < child.end < parent.end


def test_per_layer_figures_from_a_synthetic_cycle():
    run = PhaseSpans([
        span(1, "cli.cmd_run", 0, 20),
        span(2, "runner.Runner.run", 2, 12, parent=1, workers=2),
        span(3, "runner.TaskExecutor.run_task", 2, 6, thread="w0", error=False),
        span(4, "executor.execute", 2, 5, parent=3, thread="w0"),
        span(5, "executor.stage_volume", 2, 3, parent=4, thread="w0", bytes=1 << 20),
        span(6, "executor.MockBackend.run", 3, 4, parent=4, thread="w0"),
        span(7, "runner.TaskExecutor.run_task", 8, 12, thread="w0", error=True),
        span(8, "runner.TaskExecutor.run_task", 2, 10, thread="w1", error=False),
        span(9, "parsing.parse", 5, 5.5, parent=3, thread="w0", findings=3),
    ], wall=21)
    empty = PhaseSpans([], wall=1)
    m = per_layer({"run": run, "resume": empty, "reparse": empty}, 2 << 20, 0)
    assert m["executor.execute_self_s"] == pytest.approx(1)  # 3 s minus stage and run
    assert m["executor.stage_self_s"] == pytest.approx(1)
    assert m["executor.staged_mib"] == pytest.approx(1)
    assert m["runner.task_calls"] == 3
    assert m["runner.dispatch_gaps"] == 1
    assert m["runner.dispatch_gap_ms_p99"] == pytest.approx(2000)
    assert m["runner.pool_busy_share"] == pytest.approx(16 / 20)
    assert m["runner.infra_errors"] == 1
    assert m["parsing.findings"] == 3
    assert m["plan.lock_mib"] == pytest.approx(2)
    assert m["cli.run_self_s"] == pytest.approx(10)
    shares = layer_breakdown(run, within="runner.TaskExecutor.run_task")
    assert shares["executor"] == pytest.approx(2 + 1)  # execute self + stage + mock run
    assert layer_breakdown(run)["startup"] == pytest.approx(1)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([5.0], 99) == 5.0
    assert percentile([], 50) == 0.0
