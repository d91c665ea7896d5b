"""Shuffle determinism, done markers, resume semantics, the worker pool."""

from __future__ import annotations

import hashlib
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanmux.executor import META_FILENAME, MockBackend, MockToolBehavior, read_meta, read_raw
from scanmux.parsing import ExitClass, read_findings, write_report
from scanmux.reporting import SUMMARY_FILENAME
from scanmux.runner import (
    CorruptMarkerError,
    Runner,
    TaskExecutor,
    finalize,
    permute,
    read_done_marker,
    resume_filter,
    write_done_marker,
)
from scanmux.solc import CompilerCache

from helpers import backdate, discover_corpus, plan_for


def test_permute_frozen_seed_0():
    assert permute(list(range(10)), 0) == [7, 8, 1, 5, 3, 4, 2, 0, 9, 6]


def test_permute_frozen_seed_1():
    assert permute(list(range(10)), 1) == [6, 8, 9, 7, 5, 3, 0, 4, 1, 2]


def test_permute_frozen_small():
    assert permute(list(range(5)), 42) == [3, 1, 2, 4, 0]


def test_permute_empty_and_single():
    assert permute([], 0) == []
    assert permute(["only"], 7) == ["only"]


@given(st.integers(0, 2**32), st.integers(0, 40))
def test_permute_is_a_permutation(seed, n):
    items = list(range(n))
    out = permute(items, seed)
    assert sorted(out) == items
    assert permute(items, seed) == out  # and stable
    assert items == list(range(n))  # input untouched


def test_done_marker_roundtrip(tmp_path):
    write_done_marker(tmp_path, "a" * 64, "b" * 16, "success")
    assert read_done_marker(tmp_path) == ("a" * 64, "b" * 16, "success")
    assert (tmp_path / "done").read_text() == f"v1 {'a' * 64} {'b' * 16} success\n"


def test_done_marker_absent(tmp_path):
    assert read_done_marker(tmp_path) is None


@pytest.mark.parametrize("text", ["", "v1 only two", "v0 a b c\n", "v1 a b c d\n"])
def test_done_marker_corrupt(tmp_path, text):
    (tmp_path / "done").write_text(text)
    with pytest.raises(CorruptMarkerError):
        read_done_marker(tmp_path)


@pytest.fixture
def wired(corpus_dir, mock_registry, compiler_cache, release_index):
    """Plan + executor over the five-tool registry, with scripted behaviors."""

    def build(behaviors=None, tools=("all",), backend=None, timeout=600.0, seed=0):
        backend = backend or MockBackend(behaviors or {})
        contracts = discover_corpus(corpus_dir)
        plan = plan_for(
            contracts, mock_registry, compiler_cache, release_index, backend,
            tools=tools, timeout=timeout, seed=seed,
        )
        executor = TaskExecutor(plan, backend, mock_registry, compiler_cache)
        return plan, executor, backend

    return build


IMG = {t: f"example.io/mock/{t}:{v}" for t, v in
       [("alpha", "1.0"), ("bravo", "2.1"), ("charlie", "0.9"), ("delta", "1.2"), ("echo", "5.0")]}


class TestResumeFilter:
    def test_everything_pending_on_fresh_root(self, wired, tmp_path):
        plan, _, _ = wired()
        pending, _ = resume_filter(plan, tmp_path)
        assert len(pending) == len(plan.tasks)

    def test_matching_marker_skips(self, wired, tmp_path):
        plan, _, _ = wired()
        task = plan.tasks[0]
        out = tmp_path / task.output_dir
        out.mkdir(parents=True)
        write_done_marker(out, task.contract.content_hash, plan.args_digest, "success")
        pending, _ = resume_filter(plan, tmp_path)
        assert len(pending) == len(plan.tasks) - 1
        assert task not in pending

    def test_foreign_digest_archives_and_reruns(self, wired, tmp_path):
        plan, _, _ = wired()
        task = plan.tasks[0]
        out = tmp_path / task.output_dir
        out.mkdir(parents=True)
        write_done_marker(out, task.contract.content_hash, "f" * 16, "success")
        pending, _ = resume_filter(plan, tmp_path)
        assert task in pending
        assert not out.exists()
        assert out.with_name(out.name + ".stale.1").is_dir()

    def test_second_archive_gets_next_suffix(self, wired, tmp_path):
        plan, _, _ = wired()
        task = plan.tasks[0]
        out = tmp_path / task.output_dir
        for _ in range(2):
            out.mkdir(parents=True)
            write_done_marker(out, "0" * 64, plan.args_digest, "success")
            resume_filter(plan, tmp_path)
        assert out.with_name(out.name + ".stale.1").is_dir()
        assert out.with_name(out.name + ".stale.2").is_dir()

    def test_corrupt_marker_archives(self, wired, tmp_path):
        plan, _, _ = wired()
        task = plan.tasks[0]
        out = tmp_path / task.output_dir
        out.mkdir(parents=True)
        (out / "done").write_text("garbage")
        pending, _ = resume_filter(plan, tmp_path)
        assert task in pending
        assert out.with_name(out.name + ".stale.1").is_dir()


class TestTaskExecutor:
    def test_happy_path_writes_result_then_marker(self, wired, tmp_path):
        behaviors = {IMG["delta"]: MockToolBehavior(stdout="VULN: Reentrancy at line 3\n")}
        plan, executor, _ = wired(behaviors, tools=["delta"])
        task = plan.tasks[0]
        result = executor.run_task(task, tmp_path)
        assert result.exit_class is ExitClass.SUCCESS
        assert result.error is None
        out = tmp_path / task.output_dir
        assert (out / "result.json").exists()
        assert (out / "meta.json").exists()
        marker = read_done_marker(out)
        assert marker == (task.contract.content_hash, plan.args_digest, "success")
        assert len(read_findings(out / "result.json")) == 1

    def test_aborted_task_leaves_no_marker(self, wired, tmp_path):
        behaviors = {IMG["delta"]: MockToolBehavior(sleep_s=60)}
        plan, executor, backend = wired(behaviors, tools=["delta"])
        backend.request_abort()
        result = executor.run_task(plan.tasks[0], tmp_path)
        assert result.aborted
        out = tmp_path / plan.tasks[0].output_dir
        assert read_done_marker(out) is None
        assert (out / "meta.json").exists()  # evidence of the attempt stays


class TestFinalize:
    @pytest.fixture
    def finished(self, wired, tmp_path):
        """A finished delta task beside a summary.json, and a call that finalizes its stored output again."""
        behaviors = {IMG["delta"]: MockToolBehavior(stdout="VULN: Reentrancy at line 3\n")}
        plan, executor, _ = wired(behaviors, tools=["delta"])
        task = plan.tasks[0]
        assert executor.run_task(task, tmp_path).exit_class is ExitClass.SUCCESS
        (tmp_path / SUMMARY_FILENAME).write_text("{}\n")
        out = tmp_path / task.output_dir

        def again(stored):
            record = read_meta(out / META_FILENAME)
            return finalize(
                tmp_path, task.output_dir, record, read_raw(out, record.result_files),
                executor.registry.parser_for(task.tool), task.contract.content_hash, plan.args_digest,
                stored=stored,
            )

        return out, again

    def test_unchanged_task_leaves_the_summary_untouched(self, finished, tmp_path):
        out, again = finished
        before = [(p.stat().st_ino, p.stat().st_mtime_ns) for p in (tmp_path / SUMMARY_FILENAME, out / "done")]
        assert again(ExitClass.SUCCESS) is ExitClass.SUCCESS
        assert [(p.stat().st_ino, p.stat().st_mtime_ns) for p in (tmp_path / SUMMARY_FILENAME, out / "done")] == before

    @pytest.mark.parametrize("stored, result_json", [
        (None, None),
        (ExitClass.TOOL_ERROR, None),
        (ExitClass.SUCCESS, b"{}\n"),
    ], ids=["a-run", "class-changed", "report-changed"])
    def test_changed_task_withdraws_the_summary_before_writing(
        self, finished, tmp_path, monkeypatch, stored, result_json
    ):
        out, again = finished
        if result_json is not None:
            (out / "result.json").write_bytes(result_json)
        summary_at_write = []

        def watched(path, report):
            summary_at_write.append((tmp_path / SUMMARY_FILENAME).exists())
            write_report(path, report)

        monkeypatch.setattr("scanmux.runner.write_report", watched)
        assert again(stored) is ExitClass.SUCCESS
        assert summary_at_write == [False]
        assert read_done_marker(out)[2] == "success"
        assert len(read_findings(out / "result.json")) == 1


class TestRunner:
    def test_full_run_classifies_every_task(self, wired, tmp_path):
        behaviors = {
            IMG["alpha"]: MockToolBehavior(stdout="VULN: Reentrancy at line 3\n"),
            IMG["bravo"]: MockToolBehavior(stdout="ERROR: cannot analyze\n"),
            IMG["charlie"]: MockToolBehavior(exit_code=1),
            IMG["echo"]: MockToolBehavior(oom=True),
            # delta falls through to the quiet default
        }
        plan, executor, _ = wired(behaviors)
        summary = Runner(executor, tmp_path, workers=4).run()
        assert summary.total == 60
        assert summary.executed == 60
        assert summary.tally[ExitClass.SUCCESS] == 12 + 16  # alpha + delta
        assert summary.tally[ExitClass.TOOL_ERROR] == 20  # bravo everywhere
        assert summary.tally[ExitClass.TOOL_FAILURE] == 4  # charlie
        assert summary.tally[ExitClass.OUT_OF_MEMORY] == 8  # echo
        assert summary.tally[ExitClass.TIMEOUT] == 0
        assert summary.tally["infra_error"] == 0
        assert summary.remaining == 0

    def test_finished_holds_each_done_task_exit_class_and_no_report(self, wired, tmp_path):
        behaviors = {IMG["alpha"]: MockToolBehavior(stdout="VULN: Reentrancy at line 3\n")}
        plan, executor, _ = wired(behaviors)
        first = Runner(executor, tmp_path, workers=4).run()
        assert first.finished == {t.output_dir: ExitClass(read_done_marker(tmp_path / t.output_dir)[2])
                                  for t in plan.tasks}
        assert all(type(exit_class) is ExitClass for exit_class in first.finished.values())
        assert Runner(executor, tmp_path, workers=4).run().finished == first.finished  # as the resume scan read them

    def test_rerun_skips_everything(self, wired, tmp_path):
        plan, executor, _ = wired()
        first = Runner(executor, tmp_path, workers=4).run()
        assert first.executed == 60
        second = Runner(executor, tmp_path, workers=4).run()
        assert second.executed == 0
        assert second.skipped_as_done == 60
        assert second.remaining == 0

    def test_single_worker_matches_parallel_artifacts(self, wired, tmp_path):
        behaviors = {IMG["delta"]: MockToolBehavior(stdout="VULN: Overflow at line 7\n")}
        plan, executor, _ = wired(behaviors, tools=["delta"])
        Runner(executor, tmp_path / "serial", workers=1).run()
        Runner(executor, tmp_path / "parallel", workers=4).run()
        serial = sorted(p.relative_to(tmp_path / "serial").as_posix()
                        for p in (tmp_path / "serial").rglob("*") if p.is_file())
        parallel = sorted(p.relative_to(tmp_path / "parallel").as_posix()
                          for p in (tmp_path / "parallel").rglob("*") if p.is_file())
        assert serial == parallel
        for rel in serial:
            if rel.endswith(("result.json", "done", "stdout", "stderr")):
                a = (tmp_path / "serial" / rel).read_bytes()
                b = (tmp_path / "parallel" / rel).read_bytes()
                assert a == b, rel

    def test_stop_request_halts_dispatch(self, wired, tmp_path):
        behaviors = {img: MockToolBehavior(sleep_s=0.02) for img in IMG.values()}
        plan, executor, _ = wired(behaviors)
        runner = Runner(executor, tmp_path, workers=2)
        runner.on_progress = lambda done, total: runner.request_stop()
        summary = runner.run()
        assert 1 <= summary.executed < summary.total
        assert summary.remaining == summary.total - summary.executed
        # completed tasks keep their markers; nothing else got one
        done_markers = list(Path(tmp_path).rglob("done"))
        assert len(done_markers) == summary.executed

    def test_kill_aborts_in_flight(self, wired, tmp_path):
        behaviors = {img: MockToolBehavior(sleep_s=30) for img in IMG.values()}
        plan, executor, _ = wired(behaviors)
        runner = Runner(executor, tmp_path, workers=2)
        finished = threading.Event()
        summary_box = {}

        def drive():
            summary_box["s"] = runner.run()
            finished.set()

        thread = threading.Thread(target=drive)
        thread.start()
        time.sleep(0.3)
        runner.request_kill()
        assert finished.wait(timeout=10), "runner did not wind down after kill"
        thread.join()
        summary = summary_box["s"]
        assert summary.tally["aborted"] >= 1
        assert summary.executed < summary.total
        assert not list(Path(tmp_path).rglob("done"))

    def test_progress_calls_never_overlap(self, wired, tmp_path):
        plan, executor, _ = wired()
        guard, active, overlaps, seen = threading.Lock(), [0], [], []

        def progress(done, total):
            with guard:
                active[0] += 1
                overlaps.append(active[0] > 1)
            time.sleep(0.005)  # a slow writer, e.g. a blocked stderr
            seen.append((done, total))
            with guard:
                active[0] -= 1

        Runner(executor, tmp_path, workers=4, on_progress=progress).run()
        assert not any(overlaps)
        assert seen == [(k, 60) for k in range(1, 61)]

    def test_worker_crash_is_kept_and_the_run_goes_on(self, wired, tmp_path, monkeypatch):
        plan, executor, _ = wired()
        victim = plan.tasks[7]
        run_task = TaskExecutor.run_task

        def crash_on_victim(self, task, results_root):
            if task == victim:
                raise RuntimeError("worker crashed")
            return run_task(self, task, results_root)

        monkeypatch.setattr(TaskExecutor, "run_task", crash_on_victim)
        summary = Runner(executor, tmp_path, workers=4).run()
        assert summary.executed == summary.total == 60
        assert summary.tally["infra_error"] == 1
        assert list(summary.infra_errors) == [victim.output_dir]
        assert summary.infra_errors[victim.output_dir].startswith("unexpected: RuntimeError")
        assert victim.output_dir not in summary.finished
        for task in plan.tasks:
            assert (read_done_marker(tmp_path / task.output_dir) is None) == (task == victim), task.output_dir

    def test_workers_validated(self, wired, tmp_path):
        plan, executor, _ = wired(tools=["delta"])
        with pytest.raises(ValueError):
            Runner(executor, tmp_path, workers=0)

    def test_resume_completes_after_stop(self, wired, tmp_path):
        behaviors = {img: MockToolBehavior(sleep_s=0.01) for img in IMG.values()}
        plan, executor, _ = wired(behaviors)
        runner = Runner(executor, tmp_path, workers=2)
        runner.on_progress = lambda done, total: runner.request_stop()
        partial = runner.run()
        assert partial.remaining > 0
        final = Runner(executor, tmp_path, workers=2).run()
        assert final.skipped_as_done == partial.executed
        assert final.executed == partial.remaining
        assert final.remaining == 0
        assert len(list(Path(tmp_path).rglob("done"))) == 60

    def test_compilers_are_hashed_once_before_dispatch_and_only_for_pending_tasks(
        self, wired, tmp_path, monkeypatch
    ):
        plan, executor, backend = wired()
        for binary in executor.cache.cache_dir.glob("solc-*"):
            backdate(binary)  # cached by an earlier run: trusted on its stat stamp once verified
        hashed = []
        file_digest = hashlib.file_digest

        def counted(f, name):
            hashed.append((Path(f.name).name, threading.current_thread().name))
            return file_digest(f, name)

        monkeypatch.setattr(hashlib, "file_digest", counted)
        assert Runner(executor, tmp_path, workers=2).run().executed == 60
        versions = sorted({t.compiler_version for t in plan.tasks if t.compiler_version})
        assert len(versions) > 2
        assert sorted(name for name, _ in hashed) == [f"solc-{v}" for v in versions]
        assert all(thread.startswith("scanmux-verify") for _, thread in hashed)  # none in a worker

        for task in plan.tasks:  # leave only the tasks of one compiler to run
            if task.compiler_version == versions[0]:
                (tmp_path / task.output_dir / "done").unlink()
        hashed.clear()
        fresh = TaskExecutor(plan, backend, executor.registry, CompilerCache(executor.cache.cache_dir))
        summary = Runner(fresh, tmp_path, workers=2).run()
        assert summary.executed == sum(t.compiler_version == versions[0] for t in plan.tasks)
        assert [name for name, _ in hashed] == [f"solc-{versions[0]}"]
