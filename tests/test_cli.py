"""Argument handling and the run / reparse / tools commands end to end."""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import pytest

import scanmux
from scanmux import cli
from scanmux.cli import (
    UsageError,
    main,
    parse_memory,
    split_results,
    _split_tool_args,
)
from scanmux.runner import Runner

from conftest import write_corpus, write_tool_dir
from test_acceptance import tree_digest


class TestParseMemory:
    @pytest.mark.parametrize("text,expected", [
        ("1048576", 1048576),
        ("4k", 4 * 2**10),
        ("512m", 512 * 2**20),
        ("32g", 32 * 2**30),
        ("1t", 2**40),
        ("4G", 4 * 2**30),
        ("4gb", 4 * 2**30),
        ("1.5g", int(1.5 * 2**30)),
        (" 8m ", 8 * 2**20),
    ])
    def test_accepts(self, text, expected):
        assert parse_memory(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "12q", "g", "-4g"])
    def test_rejects(self, text):
        with pytest.raises(UsageError):
            parse_memory(text)


class TestSplitResults:
    def test_scheme_tail(self):
        root, scheme = split_results("results/{runid}/{filename}/{toolid}")
        assert root == Path("results")
        assert scheme == "{runid}/{filename}/{toolid}"

    def test_deep_root(self):
        root, scheme = split_results("a/b/{toolid}")
        assert (root, scheme) == (Path("a/b"), "{toolid}")

    def test_no_placeholder_gets_default_scheme(self):
        root, scheme = split_results("plaindir")
        assert (root, scheme) == (Path("plaindir"), "{filename}/{toolid}")

    def test_placeholder_first(self):
        root, scheme = split_results("{filename}/{toolid}")
        assert (root, scheme) == (Path("."), "{filename}/{toolid}")

    def test_absolute_path(self, tmp_path):
        root, scheme = split_results(f"{tmp_path}/out/{{filename}}")
        assert root == tmp_path / "out"
        assert scheme == "{filename}"


class TestSplitToolArgs:
    def test_default(self):
        assert _split_tool_args(None) == ["all"]

    def test_commas_and_repeats(self):
        assert _split_tool_args(["a,b", "c", " d , e "]) == ["a", "b", "c", "d", "e"]

    def test_blank_collapses_to_all(self):
        assert _split_tool_args([" , "]) == ["all"]


def test_version_matches_pyproject():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert declared is not None
    assert scanmux.__version__ == declared.group(1)


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert main(["tools", "--bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


class TestToolsCommand:
    def test_custom_registry_table(self, capsys, mock_registry_dir):
        assert main(["tools", "--registry", str(mock_registry_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["tool", "version", "solidity", "creation", "runtime"]
        assert len(lines) == 1 + 5 + 1
        assert lines[1].split() == ["alpha", "1.0", "x", "-", "-"]
        assert lines[-1].split() == ["total", "5", "tools", "3", "2", "4"]


def run_argv(corpus: Path, registry: Path, results: Path, cache: Path, *extra: str) -> list[str]:
    return [
        "run",
        "-f", f"{corpus}/*",
        "--registry", str(registry),
        "--results", f"{results}/{{runid}}/{{filename}}/{{toolid}}",
        "--compiler-cache", str(cache),
        "--backend", "mock",
        *extra,
    ]


@pytest.fixture
def small_corpus(tmp_path):
    return write_corpus(tmp_path / "contracts", n_sol=2, n_creation=1, n_runtime=1)


class TestRunCommand:
    # 2 sol x {alpha,bravo,delta} + 1 creation x {bravo,echo} + 1 runtime x 4 tools
    EXPECTED_TASKS = 12

    def test_full_run(self, tmp_path, capsys, small_corpus, mock_registry_dir):
        results = tmp_path / "results"
        code = main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc"))
        out = capsys.readouterr().out
        assert code == 0
        assert f"planned {self.EXPECTED_TASKS} tasks (8 skips)" in out
        assert f"executed {self.EXPECTED_TASKS} of {self.EXPECTED_TASKS} tasks" in out
        assert (results / "plan.lock").exists()
        assert (results / "summary.json").exists()
        assert (results / "findings.csv").exists()
        assert not (results / "report.sarif").exists()
        assert len(list(results.rglob("done"))) == self.EXPECTED_TASKS
        summary = json.loads((results / "summary.json").read_text())
        assert summary["totals"]["total"] == self.EXPECTED_TASKS
        assert summary["totals"]["success"] == self.EXPECTED_TASKS
        assert summary["skips"] == 8

    def test_rerun_skips_done_tasks(self, tmp_path, capsys, small_corpus, mock_registry_dir):
        argv = run_argv(small_corpus, mock_registry_dir, tmp_path / "results", tmp_path / "cc")
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"executed 0 of {self.EXPECTED_TASKS}" in out
        assert f"{self.EXPECTED_TASKS} already done" in out

    def test_sarif_flag(self, tmp_path, small_corpus, mock_registry_dir):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--sarif")
        assert main(argv) == 0
        doc = json.loads((results / "report.sarif").read_text())
        assert doc["version"] == "2.1.0"

    def test_mock_fixtures_feed_findings(self, tmp_path, small_corpus, mock_registry_dir):
        fixtures = tmp_path / "behaviors.yaml"
        fixtures.write_text(
            'example.io/mock/delta:1.2:\n'
            '  stdout: "VULN: Reentrancy at line 3\\n"\n'
        )
        results = tmp_path / "results"
        argv = run_argv(
            small_corpus, mock_registry_dir, results, tmp_path / "cc",
            "--mock-fixtures", str(fixtures), "--tools", "delta",
        )
        assert main(argv) == 0
        rows = (results / "findings.csv").read_text().strip().splitlines()
        # header + one finding per delta task (2 solidity + 1 runtime)
        assert len(rows) == 1 + 3
        assert all("Reentrancy" in row for row in rows[1:])

    def test_keys_series_lands_in_summary(self, tmp_path, small_corpus, mock_registry_dir):
        keys = tmp_path / "keys.csv"
        lines = ["contract,block"]
        for i, path in enumerate(sorted(small_corpus.iterdir())):
            lines.append(f"{path.as_posix()},{i * 100_000}")
        keys.write_text("\n".join(lines) + "\n")
        results = tmp_path / "results"
        argv = run_argv(
            small_corpus, mock_registry_dir, results, tmp_path / "cc",
            "--keys", str(keys), "--bin-size", "100000",
        )
        assert main(argv) == 0
        summary = json.loads((results / "summary.json").read_text())
        assert "error_rate_series" in summary
        assert set(summary["error_rate_series"]) == {
            "alpha:1.0", "bravo:2.1", "charlie:0.9", "delta:1.2", "echo:5.0"
        }

    def test_zero_processes_rejected(self, tmp_path, capsys, small_corpus, mock_registry_dir):
        argv = run_argv(small_corpus, mock_registry_dir, tmp_path / "r", tmp_path / "cc")
        assert main(argv + ["--processes", "0"]) == 1

    def test_bad_scheme_rejected(self, tmp_path, capsys, small_corpus, mock_registry_dir):
        argv = [
            "run", "-f", f"{small_corpus}/*", "--registry", str(mock_registry_dir),
            "--results", f"{tmp_path}/r/{{bogus}}", "--backend", "mock",
            "--compiler-cache", str(tmp_path / "cc"),
        ]
        assert main(argv) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_tool_is_planning_error(self, tmp_path, capsys, small_corpus, mock_registry_dir):
        argv = run_argv(small_corpus, mock_registry_dir, tmp_path / "r", tmp_path / "cc")
        assert main(argv + ["--tools", "nosuchtool"]) == 2
        assert "error" in capsys.readouterr().err

    def test_no_matching_files_is_planning_error(self, tmp_path, capsys, mock_registry_dir):
        argv = [
            "run", "-f", f"{tmp_path}/empty/*", "--registry", str(mock_registry_dir),
            "--results", f"{tmp_path}/r/{{filename}}/{{toolid}}", "--backend", "mock",
            "--compiler-cache", str(tmp_path / "cc"),
        ]
        assert main(argv) == 2

    def test_unavailable_engine_exits_3(self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch):
        class Down:
            def __init__(self, *a, **k):
                pass

            def available(self):
                return False

        monkeypatch.setattr(cli, "DockerCliBackend", Down)
        argv = [
            "run", "-f", f"{small_corpus}/*", "--registry", str(mock_registry_dir),
            "--results", f"{tmp_path}/r/{{filename}}/{{toolid}}",
            "--compiler-cache", str(tmp_path / "cc"),
        ]
        assert main(argv) == 3

    def test_interrupted_run_exits_130_and_resumes(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch
    ):
        def stopping_runner(plan, executor, results_root, workers=1, on_progress=None):
            runner = Runner(plan, executor, results_root, workers=workers)
            runner.on_progress = lambda done, total: runner.request_stop()
            return runner

        monkeypatch.setattr(cli, "Runner", stopping_runner)
        argv = run_argv(small_corpus, mock_registry_dir, tmp_path / "results", tmp_path / "cc")
        assert main(argv) == 130
        done_after_stop = len(list((tmp_path / "results").rglob("done")))
        assert 1 <= done_after_stop < self.EXPECTED_TASKS

        monkeypatch.undo()
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"{done_after_stop} already done" in out
        assert len(list((tmp_path / "results").rglob("done"))) == self.EXPECTED_TASKS

    def test_format_override(self, tmp_path, capsys, mock_registry_dir):
        blob = tmp_path / "payload.bin"
        blob.write_text("6080fdfe")
        argv = [
            "run", "-f", str(blob), "--format", "runtime",
            "--registry", str(mock_registry_dir),
            "--results", f"{tmp_path}/r/{{filename}}/{{toolid}}",
            "--compiler-cache", str(tmp_path / "cc"), "--backend", "mock",
        ]
        assert main(argv) == 0
        assert "planned 4 tasks" in capsys.readouterr().out


class TestReparseCommand:
    def test_reproduces_results_byte_for_byte(self, tmp_path, capsys, small_corpus, mock_registry_dir):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")
        assert main(argv) == 0
        before = {
            p.relative_to(results).as_posix(): p.read_bytes()
            for p in results.rglob("result.json")
        }
        assert len(before) == TestRunCommand.EXPECTED_TASKS
        capsys.readouterr()
        assert main(["reparse", str(results), "--registry", str(mock_registry_dir)]) == 0
        assert f"reparsed {TestRunCommand.EXPECTED_TASKS} tasks" in capsys.readouterr().out
        after = {
            p.relative_to(results).as_posix(): p.read_bytes()
            for p in results.rglob("result.json")
        }
        assert before == after

    def test_missing_root_fails(self, tmp_path, capsys):
        assert main(["reparse", str(tmp_path / "nothing")]) == 2

    def test_registry_without_the_tool_fails(self, tmp_path, capsys, small_corpus, mock_registry_dir):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--tools", "delta")
        assert main(argv) == 0
        other = tmp_path / "other-registry"
        write_tool_dir(other, "unrelated", "1.0", ["runtime"], {"runtime": "x {contract}"})
        assert main(["reparse", str(results), "--registry", str(other)]) == 2
        assert "no longer defines" in capsys.readouterr().err

    @pytest.mark.parametrize("garbage", [b"garbage", b"v1 abc def nonsense\n", b"\xff\xfe"])
    def test_corrupt_marker_is_incomplete_not_fatal(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, garbage
    ):
        results = tmp_path / "results"
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")) == 0
        before = {
            p.relative_to(results).as_posix(): p.read_bytes()
            for p in results.rglob("result.json")
        }
        corrupt = sorted(results.rglob("done"))[0].parent
        (corrupt / "done").write_bytes(garbage)
        capsys.readouterr()
        assert main(["reparse", str(results), "--registry", str(mock_registry_dir)]) == 0
        assert f"reparsed {TestRunCommand.EXPECTED_TASKS - 1} tasks" in capsys.readouterr().out
        summary = json.loads((results / "summary.json").read_text())
        assert summary["incomplete"] == [corrupt.relative_to(results).as_posix()]
        after = {
            p.relative_to(results).as_posix(): p.read_bytes()
            for p in results.rglob("result.json")
        }
        assert after == before

    def test_after_killed_run_finalizes_only_marked_tasks(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch
    ):
        # delta blocks until killed; every other tool finishes at once
        slow = tmp_path / "slow.yaml"
        slow.write_text("example.io/mock/delta:1.2:\n  sleep_s: 30\n")
        killed = tmp_path / "killed"
        argv = run_argv(small_corpus, mock_registry_dir, killed, tmp_path / "cc")

        def killing_runner(plan, executor, results_root, workers=1, on_progress=None):
            runner = Runner(plan, executor, results_root, workers=workers)
            timer = threading.Timer(0.5, runner.request_kill)
            timer.daemon = True
            timer.start()
            return runner

        monkeypatch.setattr(cli, "Runner", killing_runner)
        assert main(argv + ["--processes", "2", "--mock-fixtures", str(slow)]) == 130
        monkeypatch.undo()
        marked = {p.parent for p in killed.rglob("done")}
        attempted = {p.parent for p in killed.rglob("meta.json")}
        assert 1 <= len(marked) < TestRunCommand.EXPECTED_TASKS
        assert attempted - marked, "no task was killed in flight"

        capsys.readouterr()
        assert main(["reparse", str(killed), "--registry", str(mock_registry_dir)]) == 0
        assert f"reparsed {len(marked)} tasks" in capsys.readouterr().out
        assert {p.parent for p in killed.rglob("done")} == marked
        assert {p.parent for p in killed.rglob("result.json")} == marked
        summary = json.loads((killed / "summary.json").read_text())
        assert len(summary["incomplete"]) == TestRunCommand.EXPECTED_TASKS - len(marked)

        assert main(argv) == 0
        reference = tmp_path / "reference"
        assert main(run_argv(small_corpus, mock_registry_dir, reference, tmp_path / "cc")) == 0
        assert tree_digest(killed) == tree_digest(reference)
