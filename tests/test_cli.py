"""Argument handling and the run / reparse / tools commands end to end."""

from __future__ import annotations

import fcntl
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import sysconfig
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
from scanmux.executor import RAW_DIRNAME, STDOUT_FILENAME, BackendFailureError, MockBackend
from scanmux.model import ResourceLimits
from scanmux.parsing import report_bytes
from scanmux.paths import bundled_registry, dump_json
from scanmux.plan import PLAN_LOCK_FILENAME, discover_contracts
from scanmux.registry import load_registry
from scanmux.reporting import FINDINGS_FILENAME, SARIF_FILENAME, SUMMARY_FILENAME
from scanmux.runner import Runner
from scanmux.solc import MockCompilerFetcher, SemVer

from helpers import run_python, write_corpus, write_tool_dir
from test_acceptance import tree_digest
from test_parsing import BUNDLED, HOSTILE


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


def test_limit_defaults_are_those_of_resource_limits():
    args = cli.build_parser().parse_args(["run", "-f", "*.sol"])
    limits = ResourceLimits()
    assert (args.timeout, args.mem, args.cpu) == (limits.wall_timeout, limits.memory_bytes, limits.cpu_quota)


def test_import_loads_no_dataclasses_inspect_resources_or_jsonschema():
    # -S: a site that preloads modules would hide what scanmux itself imports
    paths = sysconfig.get_paths()
    src = Path(scanmux.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(dict.fromkeys([str(src), paths["purelib"], paths["platlib"]])))
    script = (
        "import sys\n"
        "import scanmux.cli\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'importlib.resources', 'jsonschema') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


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


BAD_FIXTURES = {
    "fixtures-invalid-yaml": "x: [unclosed\n",
    "fixtures-bad-field": "img: {exit_code: abc}\n",
    "fixtures-not-a-mapping": "- img\n- other\n",
    "fixtures-files-not-a-mapping": "img: {files: [a]}\n",
    "fixtures-oom-not-bool": "img: {oom: 'false'}\n",
    "fixtures-file-outside-volume": "img:\n  files:\n    ../escaped.txt: x\n    /tmp/escaped.txt: y\n",
    "fixtures-file-over-compiler": "img:\n  files:\n    solc: overwritten by the tool\n",
}

# Triggers whose file parses but one image ref's behavior is refused.
ENTRY_LEVEL_FIXTURES = (
    "fixtures-bad-field", "fixtures-files-not-a-mapping", "fixtures-oom-not-bool", "fixtures-file-outside-volume",
    "fixtures-file-over-compiler",
)


def bad_arguments(tmp_path: Path, corpus: Path, trigger: str) -> tuple[list[str], int]:
    """Arguments that break one promise about --keys, --bin-size, the limits or --mock-fixtures, and the exit code."""
    keys, partial = tmp_path / "keys.csv", tmp_path / "partial.csv"
    rows = [f"{p.as_posix()},{i}" for i, p in enumerate(sorted(corpus.iterdir()))]
    keys.write_text("\n".join(rows) + "\n")
    partial.write_text("\n".join(rows[1:]) + "\n")
    for name, text in BAD_FIXTURES.items():
        (tmp_path / f"{name}.yaml").write_text(text)
    return {
        **{name: (["--mock-fixtures", str(tmp_path / f"{name}.yaml")], 1) for name in BAD_FIXTURES},
        "fixtures-missing-file": (["--mock-fixtures", str(tmp_path / "missing.yaml")], 1),
        "missing-keys-file": (["--keys", str(tmp_path / "missing.csv")], 1),
        "zero-bin-size": (["--keys", str(keys), "--bin-size", "0"], 1),
        "contract-without-key": (["--keys", str(partial)], 2),
        "zero-timeout": (["--timeout", "0"], 1),
        "zero-cpu": (["--cpu", "0"], 1),
        "zero-mem": (["--mem", "0"], 1),
    }[trigger]


MYTHRIL_IMAGE = next(t.image_ref for t in BUNDLED.tools if t.tool_id == "mythril")

# Documents that json.loads refuses with RecursionError or ValueError, not JSONDecodeError.
HOSTILE_DOCUMENTS = ("deep-nesting", "long-integer")


def mythril_fixtures(tmp_path: Path, stdout: str) -> Path:
    fixtures = tmp_path / "mythril.yaml"
    fixtures.write_text(json.dumps({MYTHRIL_IMAGE: {"stdout": stdout}}))  # JSON is YAML
    return fixtures


REPORTS = (SUMMARY_FILENAME, FINDINGS_FILENAME, SARIF_FILENAME)


def file_stamps(root: Path, *names: str) -> dict[str, tuple[int, int]]:
    """(inode, mtime in ns) of each named file under root that exists; a rewrite changes both."""
    stats = {name: os.stat(root / name) for name in names if (root / name).exists()}
    return {name: (st.st_ino, st.st_mtime_ns) for name, st in stats.items()}


def task_files(root: Path) -> list[str]:
    """Every result.json and done marker under root, relative to it."""
    return sorted(p.relative_to(root).as_posix() for name in ("result.json", "done") for p in root.rglob(name))


def warning_delta(tmp_path: Path, registry_dir: Path) -> tuple[Path, Path]:
    """Fixtures whose delta prints a finding and a warning, and a copy of the registry whose
    delta parser counts the warning as an error: a parser fix that changes every delta task."""
    fixtures = tmp_path / "delta-warns.yaml"
    fixtures.write_text('example.io/mock/delta:1.2:\n  stdout: "VULN: Reentrancy at line 3\\nWARN: old pragma\\n"\n')
    changed = tmp_path / "registry-delta-fixed"
    shutil.copytree(registry_dir, changed)
    parser = changed / "delta" / "parser.yaml"
    parser.write_text(parser.read_text() + "      - '^WARN:'\n")
    return fixtures, changed


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
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--sarif")
        assert main(argv) == 0
        before = file_stamps(results, PLAN_LOCK_FILENAME, *REPORTS)
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"executed 0 of {self.EXPECTED_TASKS}" in out
        assert f"{self.EXPECTED_TASKS} already done" in out
        assert file_stamps(results, PLAN_LOCK_FILENAME, *REPORTS) == before  # the unchanged lock and reports stay

    @pytest.mark.parametrize("change", [
        "deleted-sarif", "changed-keys", "changed-bin-size", "added-sarif", "removed-contract",
        "summary-not-an-object", "torn-summary", "unstamped-summary",
    ])
    def test_changed_report_input_rewrites_every_report(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, change
    ):
        keys = tmp_path / "keys.csv"
        keys.write_text("".join(f"{p.as_posix()},{i}\n" for i, p in enumerate(sorted(small_corpus.iterdir()))))
        results = tmp_path / "results"
        # bravo takes every format, so the plan has no skips and a removed contract changes only the tasks
        first = ["-t", "bravo", "--keys", str(keys), "--bin-size", "2", "--sarif"]
        if change == "added-sarif":
            first.remove("--sarif")
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", *first)) == 0
        bin_size = "3" if change == "changed-bin-size" else "2"
        then = ["-t", "bravo", "--keys", str(keys), "--bin-size", bin_size, "--sarif"]
        summary = results / SUMMARY_FILENAME
        if change == "deleted-sarif":
            (results / SARIF_FILENAME).unlink()
        elif change == "changed-keys":
            keys.write_text(keys.read_text().replace(",1\n", ",7\n"))
        elif change == "removed-contract":
            sorted(small_corpus.glob("*.sol"))[0].unlink()
        elif change == "summary-not-an-object":
            summary.write_text("[]\n")
        elif change == "torn-summary":
            summary.write_bytes(summary.read_bytes()[:40])
        elif change == "unstamped-summary":  # as a version without the stamp wrote it
            doc = json.loads(summary.read_text())
            del doc["stamp"]
            summary.write_text(dump_json(doc))
        before = file_stamps(results, *REPORTS)
        capsys.readouterr()
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", *then)) == 0
        assert "executed 0 of" in capsys.readouterr().out
        after = file_stamps(results, *REPORTS)
        assert all(after[name] != stamp for name, stamp in before.items()), (before, after)

        fresh = tmp_path / "fresh"
        assert main(run_argv(small_corpus, mock_registry_dir, fresh, tmp_path / "cc", *then)) == 0
        assert {name: (results / name).read_bytes() for name in REPORTS} == {
            name: (fresh / name).read_bytes() for name in REPORTS
        }

    @pytest.mark.parametrize("damage, first_exit", [("same-size", 2), ("truncated", 0), ("missing", 0)])
    def test_damaged_cached_compiler_never_reaches_a_task(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch, damage, first_exit
    ):
        cache = tmp_path / "cc"
        assert main(run_argv(small_corpus, mock_registry_dir, tmp_path / "first", cache)) == 0
        binary = sorted(cache.glob("solc-*"))[0]
        version = binary.name.removeprefix("solc-")
        if damage == "missing":
            binary.unlink()
        else:  # planning checks the size only, so only a same-size tamper gets past it
            size = binary.stat().st_size
            binary.write_bytes(b"x" * (size if damage == "same-size" else size // 2))
        runs = []
        real_run = MockBackend.run

        def counted(backend, *args, **kwargs):
            runs.append(args)
            return real_run(backend, *args, **kwargs)

        monkeypatch.setattr(MockBackend, "run", counted)
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, cache)
        capsys.readouterr()
        assert main(argv) == first_exit
        if first_exit == 2:
            err = capsys.readouterr().err
            assert f"compiler {version}: cached binary {binary} " in err and "Traceback" not in err
            assert not list(results.rglob("done")) and runs == []
            assert not binary.exists()  # dropped, so the identical command fetches it again
            assert main(argv) == 0
        assert binary.read_bytes() == MockCompilerFetcher.payload(SemVer.parse(version))
        assert len(list(results.rglob("done"))) == len(runs) == self.EXPECTED_TASKS

    def test_held_root_refuses_run_and_reparse(self, tmp_path, capsys, small_corpus, mock_registry_dir):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")
        assert main(argv) == 0

        def files():
            return {p.relative_to(results).as_posix(): (p.read_bytes(), p.stat().st_mtime_ns)
                    for p in results.rglob("*") if p.is_file()}

        before = files()
        capsys.readouterr()
        fd = os.open(results, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            for command in (argv, ["reparse", str(results)]):
                assert main(command) == 2
                assert capsys.readouterr().err == f"error: {results}: another scanmux command holds this results root\n"
        finally:
            os.close(fd)
        assert files() == before
        assert main(argv) == 0

    @pytest.mark.parametrize("command", ["resume", "reparse"])
    def test_temp_files_of_a_killed_write_are_swept(self, tmp_path, capsys, small_corpus, mock_registry_dir, command):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--sarif")
        assert main(argv) == 0
        reference = tree_digest(results)
        left = [f".{name}.k1ll3d" for name in (PLAN_LOCK_FILENAME, *REPORTS)]
        for name in [*left, ".report.sarif", ".keep.me"]:
            (results / name).write_text("left behind\n")
        assert main(argv if command == "resume" else ["reparse", str(results), "--sarif"]) == 0
        assert not any((results / name).exists() for name in left)
        assert (results / ".report.sarif").exists() and (results / ".keep.me").exists()  # not a temp file's name
        for name in (".report.sarif", ".keep.me"):
            (results / name).unlink()
        assert tree_digest(results) == reference

    def test_lone_surrogate_label_reaches_every_report(self, tmp_path, capsys):
        corpus = tmp_path / "contracts"
        corpus.mkdir()
        (corpus / "a.sol").write_text("pragma solidity ^0.8.0;\ncontract A {}\n")
        # json.dumps writes the surrogate as the escape \ud800, as a tool's JSON may
        stdout = json.dumps({"success": True, "issues": [
            {"title": "\ud800 bad", "description": "d", "lineno": 1, "swc-id": "107"}]})
        results = tmp_path / "results"
        argv = run_argv(corpus, bundled_registry(), results, tmp_path / "cc", "--tools", "mythril", "--sarif",
                        "--mock-fixtures", str(mythril_fixtures(tmp_path, stdout)))
        reports = [results / name for name in (SUMMARY_FILENAME, FINDINGS_FILENAME, SARIF_FILENAME)]
        for command in (argv, ["reparse", str(results), "--sarif"]):
            for report in reports:
                report.unlink(missing_ok=True)
            assert main(command) == 0, capsys.readouterr().err
            assert all(report.is_file() for report in reports)
            assert "\\ud800 bad" in (results / FINDINGS_FILENAME).read_text()

    @pytest.mark.parametrize("left_by", ["sarif-run-before-a-new-contract", "older-version"])
    def test_run_without_sarif_removes_a_stale_sarif(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, left_by
    ):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")
        assert main(argv + ["--sarif"]) == 0
        if left_by == "older-version":  # it kept report.sarif beside a stamp written without --sarif
            stale = (results / SARIF_FILENAME).read_bytes()
            assert main(argv) == 0
            (results / SARIF_FILENAME).write_bytes(stale)
        else:
            (small_corpus / "extra.rt.hex").write_text("6080fdfe" + "ab" * 4)
        capsys.readouterr()
        assert main(argv) == 0
        assert not (results / SARIF_FILENAME).exists()

        fresh = tmp_path / "fresh"
        assert main(run_argv(small_corpus, mock_registry_dir, fresh, tmp_path / "cc")) == 0
        assert {name: (results / name).read_bytes() for name in REPORTS[:2]} == {
            name: (fresh / name).read_bytes() for name in REPORTS[:2]
        }

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

    @pytest.mark.parametrize("trigger", [
        "missing-keys-file", "zero-bin-size", "contract-without-key", "zero-timeout", "zero-cpu", "zero-mem",
        "fixtures-invalid-yaml", "fixtures-bad-field", "fixtures-not-a-mapping", "fixtures-missing-file",
        "fixtures-files-not-a-mapping", "fixtures-oom-not-bool", "fixtures-file-outside-volume",
        "fixtures-file-over-compiler",
    ])
    def test_argument_error_fails_before_any_task(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, trigger
    ):
        extra, code = bad_arguments(tmp_path, small_corpus, trigger)
        results = tmp_path / "results"
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", *extra)) == code
        err = capsys.readouterr().err
        assert ("usage error" if code == 1 else "error: --keys has no key") in err
        if trigger.startswith("fixtures-"):
            assert "usage error: cannot read --mock-fixtures file: " in err
        if trigger in ENTRY_LEVEL_FIXTURES:
            assert f"{tmp_path / (trigger + '.yaml')}: img: " in err
        assert "Traceback" not in err
        assert not list(results.rglob("done"))

    @pytest.mark.parametrize("hostile", HOSTILE_DOCUMENTS)
    def test_hostile_document_is_a_tool_failure(self, tmp_path, capsys, small_corpus, hostile):
        results = tmp_path / "results"
        code = main(run_argv(
            small_corpus, bundled_registry(), results, tmp_path / "cc",
            "--tools", "mythril", "--mock-fixtures", str(mythril_fixtures(tmp_path, HOSTILE[hostile].decode())),
        ))
        assert code == 0, capsys.readouterr().err
        totals = json.loads((results / "summary.json").read_text())["totals"]
        assert totals["tool_failure"] == totals["total"] == 4

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

    @pytest.mark.parametrize("reference,spelling,n_tasks", [
        ("all", "ALL", EXPECTED_TASKS),
        ("all", "all,alpha", EXPECTED_TASKS),
        ("alpha", "alpha:1.0", 2),
        ("alpha", "ALPHA", 2),
        ("all", "alpha,bravo,charlie,delta,echo", EXPECTED_TASKS),
    ])
    def test_spellings_of_one_selection_name_one_run(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, reference, spelling, n_tasks
    ):
        planned = {}
        for tools in (reference, spelling):
            results = tmp_path / tools
            assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "-t", tools)) == 0
            lock = json.loads((results / "plan.lock").read_text())
            planned[tools] = (lock["runid"], lock["tasks"])
        assert planned[spelling] == planned[reference]
        assert len(planned[reference][1]) == n_tasks
        capsys.readouterr()  # a resume with the other spelling finds every task done
        argv = run_argv(small_corpus, mock_registry_dir, tmp_path / reference, tmp_path / "cc", "-t", spelling)
        assert main(argv) == 0
        assert f"executed 0 of {n_tasks} tasks" in capsys.readouterr().out

    def test_infra_error_messages_are_kept(self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch):
        run = MockBackend.run

        def run_or_fail(self, image_digest, volume_dir, command, limits):
            if self.digest_of("example.io/mock/charlie:0.9") == image_digest:
                raise BackendFailureError("engine went away")
            return run(self, image_digest, volume_dir, command, limits)

        monkeypatch.setattr(MockBackend, "run", run_or_fail)
        results = tmp_path / "results"
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")) == 3
        err = capsys.readouterr().err
        [charlie] = [t["output_dir"] for t in json.loads((results / "plan.lock").read_text())["tasks"]
                     if t["tool"] == "charlie"]
        assert f"infra error: {charlie}: engine went away\n1 tasks hit infrastructure errors" in err

    def test_pending_task_that_never_finishes_still_rebuilds_the_reports(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch
    ):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")
        assert main(argv) == 0
        [charlie] = [t["output_dir"] for t in json.loads((results / "plan.lock").read_text())["tasks"]
                     if t["tool"] == "charlie"]
        (results / charlie / "done").unlink()
        run = MockBackend.run

        def run_or_fail(self, image_digest, volume_dir, command, limits):
            if self.digest_of("example.io/mock/charlie:0.9") == image_digest:
                raise BackendFailureError("engine went away")
            return run(self, image_digest, volume_dir, command, limits)

        monkeypatch.setattr(MockBackend, "run", run_or_fail)
        assert main(argv) == 3  # no result.json is written, so summary.json is still there, its stamp current
        assert json.loads((results / SUMMARY_FILENAME).read_text())["incomplete"] == [charlie]

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

    @pytest.mark.parametrize("failure", [
        subprocess.TimeoutExpired(["docker", "info"], 30),
        PermissionError(13, "Permission denied"),
    ], ids=["hung", "not-executable"])
    def test_engine_that_cannot_answer_exits_3(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch, failure
    ):
        def probe(*args, **kwargs):
            raise failure

        monkeypatch.setattr("scanmux.executor.shutil.which", lambda name: f"/usr/bin/{name}")
        monkeypatch.setattr("scanmux.executor.subprocess.run", probe)
        argv = run_argv(small_corpus, mock_registry_dir, tmp_path / "r", tmp_path / "cc")
        assert main([a for a in argv if a not in ("--backend", "mock")]) == 3
        assert capsys.readouterr().err == "error: container engine is not available\n"

    def test_unwritable_compiler_cache_is_planning_error(self, tmp_path, capsys, small_corpus, mock_registry_dir):
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(run_argv(small_corpus, mock_registry_dir, tmp_path / "r", afile / "cc")) == 2
        err = capsys.readouterr().err
        assert f"cannot store it in {afile / 'cc'}" in err
        assert "Traceback" not in err

    def test_interrupted_run_exits_130_and_resumes(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch
    ):
        def stopping_runner(executor, results_root, workers=1, on_progress=None):
            runner = Runner(executor, results_root, workers=workers)
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

    def test_accepted_sarif_run_leaves_jsonschema_unimported(self, tmp_path, small_corpus, mock_registry_dir):
        fixtures = tmp_path / "behaviors.yaml"
        fixtures.write_text(
            'example.io/mock/delta:1.2:\n'
            '  stdout: "VULN: Reentrancy at line 3\\n"\n'
        )
        results = tmp_path / "results"
        argv = run_argv(
            small_corpus, mock_registry_dir, results, tmp_path / "cc",
            "--mock-fixtures", str(fixtures), "--sarif",
        )
        script = (
            "import sys\n"
            "import scanmux.cli\n"
            "code = scanmux.cli.main(sys.argv[1:])\n"
            "sys.exit(code or 10 * ('jsonschema' in sys.modules))\n"
        )
        proc = run_python(script, *argv)
        assert proc.returncode == 0, "jsonschema imported" if proc.returncode == 10 else proc.stderr
        doc = json.loads((results / "report.sarif").read_text())
        assert sum(len(run["results"]) for run in doc["runs"]) == 3  # delta: 2 solidity + 1 runtime

    def test_each_task_is_read_about_once(self, tmp_path, mock_registry_dir):
        # 4 sol x 3 tools + 2 creation x 2 + 2 runtime x 4; every task writes stdout and stderr only
        corpus = write_corpus(tmp_path / "contracts", n_sol=4, n_creation=2, n_runtime=2)
        results = tmp_path / "results"
        argv = run_argv(corpus, mock_registry_dir, results, tmp_path / "cc", "--sarif")
        script = (
            "import json, os, sys\n"
            "import scanmux.cli\n"
            "root, cache, argv = sys.argv[1], sys.argv[2], sys.argv[3:]\n"
            "counts = {}\n"
            "def hook(event, args):\n"
            "    if event not in ('open', 'os.scandir') or not isinstance(args[0], str):\n"
            "        return\n"
            "    if event == 'open' and args[0].startswith(os.path.join(cache, 'solc-')):\n"
            "        counts[phase]['compiler'] = counts[phase].get('compiler', 0) + 1\n"
            "    if args[0].startswith(root):\n"
            "        reading = event == 'open' and args[2] & os.O_ACCMODE == os.O_RDONLY\n"
            "        key = 'read' if reading else 'scandir' if event == 'os.scandir' else 'write'\n"
            "        counts[phase][key] = counts[phase].get(key, 0) + 1\n"
            "sys.addaudithook(hook)\n"
            "for phase, phase_argv in [('run', argv), ('resume', argv),\n"
            "                          ('reparse', ['reparse', root, '--sarif'])]:\n"
            "    counts[phase] = {}\n"
            "    if scanmux.cli.main(phase_argv) != 0:\n"
            "        sys.exit(phase + ' failed')\n"
            "print(json.dumps(counts))\n"
        )
        proc = run_python(script, str(results), str(tmp_path / "cc"), *argv)
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout.strip().splitlines()[-1])
        n = len(json.loads((results / "plan.lock").read_text())["tasks"])
        assert n == 24
        assert counts["resume"].get("read", 0) <= n + 10, counts  # the done markers; no result.json
        assert counts["resume"].get("write", 0) == 0, counts  # unchanged reports are not rewritten
        assert counts["run"].get("compiler", 0) > 0, counts
        assert counts["resume"].get("compiler", 0) == 0, counts  # nothing pending: no compiler is hashed
        # marker, meta.json, stdout, stderr and result.json per task; an unchanged task is not written
        assert counts["reparse"].get("write", 0) == 0, counts
        assert counts["reparse"].get("read", 0) + counts["reparse"].get("write", 0) <= 5 * n + 10, counts
        assert counts["reparse"].get("scandir", 0) == 0, counts


class TestReparseCommand:
    def test_reproduces_results_byte_for_byte(self, tmp_path, capsys, small_corpus, mock_registry_dir):
        results = tmp_path / "results"
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--sarif")) == 0
        names = [*task_files(results), *REPORTS]
        before = {name: (results / name).read_bytes() for name in names}
        stamps = file_stamps(results, *names)
        assert len(before) == 2 * TestRunCommand.EXPECTED_TASKS + len(REPORTS)
        capsys.readouterr()
        assert main(["reparse", str(results), "--registry", str(mock_registry_dir), "--sarif"]) == 0
        assert f"reparsed {TestRunCommand.EXPECTED_TASKS} tasks" in capsys.readouterr().out
        assert {name: (results / name).read_bytes() for name in names} == before
        assert file_stamps(results, *names) == stamps  # and nothing was written: same inode and mtime

    def test_changed_parser_rewrites_its_tasks_and_the_reports(
        self, tmp_path, capsys, small_corpus, mock_registry_dir
    ):
        fixtures, changed = warning_delta(tmp_path, mock_registry_dir)
        results, fresh = tmp_path / "results", tmp_path / "fresh"

        def argv(root: Path, registry: Path) -> list[str]:  # no {runid}: the changed registry names another run
            return run_argv(small_corpus, registry, root, tmp_path / "cc", "--mock-fixtures", str(fixtures),
                            "--sarif", "--results", f"{root}/{{filename}}/{{toolid}}")

        assert main(argv(results, mock_registry_dir)) == 0
        names = [*task_files(results), *REPORTS]
        before = file_stamps(results, *names)
        capsys.readouterr()
        assert main(["reparse", str(results), "--registry", str(changed), "--sarif"]) == 0
        assert f"reparsed {TestRunCommand.EXPECTED_TASKS} tasks" in capsys.readouterr().out
        after = file_stamps(results, *names)
        rewritten = sorted(name for name in names if after[name] != before[name])
        delta = [name for name in task_files(results) if name.split("/")[-2] == "delta"]
        assert len(delta) == 2 * 3  # result.json and done of 2 sol + 1 runtime tasks; the exit class changed
        assert rewritten == sorted([*delta, *REPORTS])

        assert main(argv(fresh, changed)) == 0
        assert {name: (results / name).read_bytes() for name in REPORTS} == {
            name: (fresh / name).read_bytes() for name in REPORTS
        }

    @pytest.mark.parametrize("change", [
        "corrupt-marker", "marker-with-another-class", "torn-meta",
        "changed-keys", "changed-bin-size", "added-sarif", "dropped-sarif",
    ])
    def test_changed_report_input_rewrites_the_reports(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, change
    ):
        keys = tmp_path / "keys.csv"
        keys.write_text("".join(f"{p.as_posix()},{i}\n" for i, p in enumerate(sorted(small_corpus.iterdir()))))
        results = tmp_path / "results"
        first = ["--keys", str(keys), "--bin-size", "2"] + ([] if change == "added-sarif" else ["--sarif"])
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", *first)) == 0
        reparse = ["reparse", str(results), "--registry", str(mock_registry_dir), "--keys", str(keys),
                   "--bin-size", "3" if change == "changed-bin-size" else "2"]
        reparse += [] if change == "dropped-sarif" else ["--sarif"]
        task = sorted(results.rglob("done"))[0].parent
        marker = (task / "done").read_bytes()
        if change == "corrupt-marker":
            (task / "done").write_bytes(b"garbage")
        elif change == "marker-with-another-class":  # result.json still matches: only the marker is wrong
            (task / "done").write_bytes(marker.replace(b" success\n", b" tool_failure\n"))
        elif change == "torn-meta":
            (task / "meta.json").write_bytes((task / "meta.json").read_bytes()[:40])
        elif change == "changed-keys":
            keys.write_text(keys.read_text().replace(",1\n", ",7\n"))
        before = file_stamps(results, *REPORTS)
        capsys.readouterr()
        assert main(reparse) == 0
        after = file_stamps(results, *REPORTS)
        assert set(after) == set(REPORTS if "--sarif" in reparse else REPORTS[:2])
        assert all(after[name] != stamp for name, stamp in before.items() if name in after), (before, after)
        if change == "marker-with-another-class":
            assert (task / "done").read_bytes() == marker

        written = {name: (results / name).read_bytes() for name in after}
        (results / SUMMARY_FILENAME).unlink()  # forces the reports to be built again
        assert main(reparse) == 0
        assert {name: (results / name).read_bytes() for name in after} == written

    @pytest.mark.parametrize("hostile", HOSTILE_DOCUMENTS)
    def test_hostile_stored_document_is_a_tool_failure(self, tmp_path, capsys, small_corpus, hostile):
        results = tmp_path / "results"
        fixtures = mythril_fixtures(tmp_path, '{"issues": []}')
        argv = run_argv(small_corpus, bundled_registry(), results, tmp_path / "cc",
                        "--tools", "mythril", "--mock-fixtures", str(fixtures))
        assert main(argv) == 0
        tasks = sorted(p.parent for p in results.rglob("done"))
        (tasks[0] / RAW_DIRNAME / STDOUT_FILENAME).write_bytes(HOSTILE[hostile])
        assert main(["reparse", str(results)]) == 0, capsys.readouterr().err
        assert json.loads((tasks[0] / "result.json").read_text())["failures"] == ["unparseable tool output: stdout"]
        totals = json.loads((results / "summary.json").read_text())["totals"]
        assert (totals["tool_failure"], totals["success"]) == (1, 3)

    def test_lock_in_the_version_1_shape_resumes_and_reparses(
        self, tmp_path, capsys, small_corpus, mock_registry_dir
    ):
        (small_corpus / "bare.sol").write_text("contract Bare {}\n")  # no pragma: its tasks carry warnings
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")
        assert main(argv) == 0
        # put back the six per-task keys that version 1 repeated from elsewhere
        contracts = {c.id: c for c in discover_contracts([f"{small_corpus}/*"])}
        registry, limits = load_registry(mock_registry_dir), ResourceLimits()
        lock_path = results / PLAN_LOCK_FILENAME
        lock = json.loads(lock_path.read_text())
        for entry in lock["tasks"]:
            contract = contracts[entry["contract"]]
            meta = json.loads((results / entry["output_dir"] / "meta.json").read_text())
            entry |= {
                "format": contract.format.value,
                "content_hash": contract.content_hash,
                "pragma": str(contract.pragma_constraint) if contract.pragma_constraint else None,
                "image": registry.find(entry["tool"], entry["tool_version"]).image_ref,
                "warnings": meta.get("warnings", []),
                "limits": {"timeout_s": limits.wall_timeout, "memory_bytes": limits.memory_bytes,
                           "cpu": limits.cpu_quota},
            }
        lock["version"] = 1
        lock_path.write_text(dump_json(lock))
        assert any(entry["warnings"] for entry in lock["tasks"])

        def files():
            return {p.relative_to(results).as_posix(): p.read_bytes() for p in results.rglob("*") if p.is_file()}

        before = files()
        capsys.readouterr()
        assert main(argv) == 0
        assert "executed 0 of" in capsys.readouterr().out
        resumed = files()
        assert json.loads(resumed.pop(PLAN_LOCK_FILENAME))["version"] == 2
        before.pop(PLAN_LOCK_FILENAME)
        assert resumed == before
        assert main(["reparse", str(results), "--registry", str(mock_registry_dir)]) == 0
        reparsed = files()
        reparsed.pop(PLAN_LOCK_FILENAME)
        assert reparsed == before

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

    def test_missing_locked_tools_rewrite_nothing(self, tmp_path, capsys, small_corpus, mock_registry_dir):
        results = tmp_path / "results"
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")) == 0
        partial = tmp_path / "partial-registry"
        shutil.copytree(mock_registry_dir, partial)
        for tool_id in ("charlie", "echo"):  # locked after tasks of the tools that remain
            shutil.rmtree(partial / tool_id)
        stored = sorted(results.rglob("result.json"))
        for path in stored:
            path.write_bytes(b"")  # a reparse would write them again
        markers = {path: path.read_bytes() for path in results.rglob("done")}
        capsys.readouterr()
        assert main(["reparse", str(results), "--registry", str(partial)]) == 2
        err = capsys.readouterr().err
        assert "no longer defines charlie:0.9" in err
        assert "no longer defines echo:5.0" in err
        assert "Traceback" not in err
        assert len(stored) == TestRunCommand.EXPECTED_TASKS
        assert all(path.read_bytes() == b"" for path in stored)
        assert {path: path.read_bytes() for path in results.rglob("done")} == markers

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

    def test_torn_result_is_incomplete_until_reparse(
        self, tmp_path, capsys, small_corpus, mock_registry_dir
    ):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--sarif")
        assert main(argv) == 0
        torn = sorted(results.rglob("result.json"))[0]
        intact = torn.read_bytes()
        torn.write_bytes(intact[:50])
        task = torn.parent.relative_to(results).as_posix()
        for report in ("summary.json", "findings.csv", "report.sarif"):
            (results / report).unlink()

        assert main(argv) == 0  # the no-op resume still writes every report
        summary = json.loads((results / "summary.json").read_text())
        assert summary["incomplete"] == [task]
        assert summary["totals"]["total"] == TestRunCommand.EXPECTED_TASKS - 1
        assert (results / "findings.csv").exists()
        assert (results / "report.sarif").exists()

        assert main(["reparse", str(results), "--registry", str(mock_registry_dir), "--sarif"]) == 0
        assert torn.read_bytes() == intact
        summary = json.loads((results / "summary.json").read_text())
        assert summary["incomplete"] == []
        assert summary["totals"]["total"] == TestRunCommand.EXPECTED_TASKS

    @pytest.mark.parametrize(
        "damage",
        [
            lambda task: (task / "meta.json").write_bytes((task / "meta.json").read_bytes()[:40]),
            lambda task: (task / "raw" / "stdout").unlink(),
        ],
        ids=["torn-meta", "deleted-stdout"],
    )
    def test_unreadable_stored_output_keeps_its_result(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, damage
    ):
        results = tmp_path / "results"
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--sarif")) == 0
        task = sorted(results.rglob("done"))[0].parent
        kept = {name: (task / name).read_bytes() for name in ("done", "result.json")}
        damage(task)
        for report in ("summary.json", "findings.csv", "report.sarif"):
            (results / report).unlink()
        capsys.readouterr()
        assert main(["reparse", str(results), "--registry", str(mock_registry_dir), "--sarif"]) == 0
        assert f"reparsed {TestRunCommand.EXPECTED_TASKS - 1} tasks" in capsys.readouterr().out
        assert {name: (task / name).read_bytes() for name in kept} == kept
        summary = json.loads((results / "summary.json").read_text())
        assert summary["incomplete"] == []
        assert summary["totals"]["total"] == TestRunCommand.EXPECTED_TASKS
        assert (results / "findings.csv").exists()
        assert (results / "report.sarif").exists()

    @pytest.mark.parametrize("trigger", ["missing-keys-file", "zero-bin-size", "contract-without-key"])
    def test_argument_error_rewrites_no_result(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, trigger
    ):
        results = tmp_path / "results"
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")) == 0
        stored = sorted(results.rglob("result.json"))
        for path in stored:
            path.write_bytes(b"")  # a reparse would write them again
        extra, code = bad_arguments(tmp_path, small_corpus, trigger)
        capsys.readouterr()
        assert main(["reparse", str(results), "--registry", str(mock_registry_dir), *extra]) == code
        err = capsys.readouterr().err
        assert ("usage error" if code == 1 else "error: --keys has no key") in err
        if trigger.startswith("fixtures-"):
            assert "usage error: cannot read --mock-fixtures file: " in err
        assert "Traceback" not in err
        assert len(stored) == TestRunCommand.EXPECTED_TASKS
        assert all(path.read_bytes() == b"" for path in stored)

    @pytest.mark.parametrize("damage, problem", [
        (lambda text: text[:300], "not valid JSON"),
        (lambda text: b"[]\n", "not a plan lock"),
        (lambda text: b'{"version": 2}\n', "not a plan lock"),
    ], ids=["torn", "list", "no-tasks"])
    def test_torn_plan_lock_is_an_error_naming_it(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, damage, problem
    ):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")
        assert main(argv) == 0
        lock = results / "plan.lock"
        lock.write_bytes(damage(lock.read_bytes()))
        for command in (argv, ["reparse", str(results), "--registry", str(mock_registry_dir)]):
            capsys.readouterr()
            assert main(command) == 2
            err = capsys.readouterr().err
            assert f"{lock}: {problem}" in err
            assert "Traceback" not in err

    def test_failed_reparse_withdraws_the_summary(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch
    ):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--sarif")
        assert main(argv) == 0
        damaged = sorted(results.rglob("result.json"))[0]
        damaged.write_bytes(b"{}\n")  # differs from what the reparse encodes, so it must be rewritten
        torn = []

        def write_half_then_fail(path, report):  # as a full disk leaves it
            torn.append(Path(path))
            data = report_bytes(report)
            Path(path).write_bytes(data[: len(data) // 2])
            raise OSError("No space left on device")

        monkeypatch.setattr("scanmux.runner.write_report", write_half_then_fail)
        with pytest.raises(OSError):
            main(["reparse", str(results), "--registry", str(mock_registry_dir), "--sarif"])
        monkeypatch.undo()
        assert torn == [damaged]
        assert not (results / SUMMARY_FILENAME).exists()

        capsys.readouterr()
        assert main(argv) == 0
        assert f"executed 0 of {TestRunCommand.EXPECTED_TASKS}" in capsys.readouterr().out
        summary = json.loads((results / SUMMARY_FILENAME).read_text())
        assert summary["incomplete"] == [damaged.parent.relative_to(results).as_posix()]

    def test_after_killed_run_finalizes_only_marked_tasks(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch
    ):
        # delta blocks until killed; every other tool finishes at once
        slow = tmp_path / "slow.yaml"
        slow.write_text("example.io/mock/delta:1.2:\n  sleep_s: 30\n")
        killed = tmp_path / "killed"
        argv = run_argv(small_corpus, mock_registry_dir, killed, tmp_path / "cc")

        def killing_runner(executor, results_root, workers=1, on_progress=None):
            runner = Runner(executor, results_root, workers=workers)
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


# Runs scanmux.cli.main(argv) in a child process and cuts it short where the
# first two arguments say:
#   stop N                ask the runner to stop once N tasks finished, as one Ctrl-C
#                         does: the run exits 130 after writing its reports
#   kill-after-tasks N    SIGKILL once a run finalized N tasks
#   kill-after-results N  SIGKILL once N result.json files were written
#   kill-after-markers N  SIGKILL once N done markers were written
#   kill-after-csv 1      SIGKILL right after findings.csv is written
#   kill-in-sarif N       SIGKILL once report.sarif passed its Nth check (the header,
#                         then each run's skeleton once its results are through),
#                         each result handed to its temp file as soon as it is encoded
#   none 0                run to the end
CUT_SHORT_CLI = """\
import os, signal, sys
import scanmux.cli as cli
import scanmux.paths as paths
import scanmux.reporting as reporting
import scanmux.runner as runner

point, count, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]

def kill_after(fn):
    calls = []
    def wrapper(*args):
        result = fn(*args)
        calls.append(None)
        if len(calls) == count:
            os.kill(os.getpid(), signal.SIGKILL)
        return result
    return wrapper

if point == "stop":
    make_runner = cli.Runner
    def stopping_runner(executor, results_root, workers=1, on_progress=None):
        stopper = make_runner(executor, results_root, workers=workers)
        stopper.on_progress = lambda done, total: done >= count and stopper.request_stop()
        return stopper
    cli.Runner = stopping_runner
elif point == "kill-after-tasks":
    runner.finalize = kill_after(runner.finalize)
elif point == "kill-after-results":
    runner.write_report = kill_after(runner.write_report)
elif point == "kill-after-markers":
    runner.write_done_marker = kill_after(runner.write_done_marker)
elif point == "kill-after-csv":
    reporting.write_findings_csv = kill_after(reporting.write_findings_csv)
elif point == "kill-in-sarif":
    paths._FLUSH_CHUNKS = 1
    reporting.validate_sarif = kill_after(reporting.validate_sarif)
sys.exit(cli.main(argv))
"""


class TestKilledCommands:
    STOPPED_AFTER = 3

    @pytest.mark.parametrize("point, count", [
        ("kill-after-tasks", 1),
        ("kill-after-tasks", TestRunCommand.EXPECTED_TASKS - STOPPED_AFTER),
        ("kill-after-results", 1),
        ("kill-after-csv", 1),
        ("kill-in-sarif", 2),
    ], ids=["after-one-task", "after-every-task", "after-one-result", "after-findings-csv", "inside-the-sarif-stream"])
    def test_killed_rerun_converges_to_an_uninterrupted_run(
        self, tmp_path, small_corpus, mock_registry_dir, point, count
    ):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--sarif")
        stopped = run_python(CUT_SHORT_CLI, "stop", str(self.STOPPED_AFTER), *argv)
        assert stopped.returncode == 130, stopped.stderr
        partial = json.loads((results / SUMMARY_FILENAME).read_text())
        assert len(partial["incomplete"]) == TestRunCommand.EXPECTED_TASKS - self.STOPPED_AFTER

        killed = run_python(CUT_SHORT_CLI, point, str(count), *argv)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        done = {"kill-after-tasks": self.STOPPED_AFTER + count, "kill-after-results": self.STOPPED_AFTER}.get(
            point, TestRunCommand.EXPECTED_TASKS)
        assert len(list(results.rglob("done"))) == done
        if point in ("kill-after-tasks", "kill-after-results"):
            assert not (results / SUMMARY_FILENAME).exists()  # withdrawn at the first result.json write
        if point == "kill-in-sarif":
            assert len(list(results.glob(f".{SARIF_FILENAME}.*"))) == 1  # swept by the resume

        resumed = run_python(CUT_SHORT_CLI, "none", "0", *argv)
        assert resumed.returncode == 0, resumed.stderr
        assert f"{done} already done" in resumed.stdout
        reference = tmp_path / "reference"
        assert main(run_argv(small_corpus, mock_registry_dir, reference, tmp_path / "cc", "--sarif")) == 0
        assert tree_digest(results) == tree_digest(reference)  # the reports' bytes included

    @pytest.mark.parametrize("point, count", [
        ("kill-after-results", 1),
        ("kill-after-markers", 1),
        ("kill-after-markers", 3),
    ], ids=["after-one-result", "after-one-task", "after-every-rewrite"])
    def test_killed_reparse_converges_to_an_uninterrupted_reparse(
        self, tmp_path, small_corpus, mock_registry_dir, point, count
    ):
        fixtures, changed = warning_delta(tmp_path, mock_registry_dir)
        results, reference = tmp_path / "results", tmp_path / "reference"
        for root in (results, reference):
            argv = run_argv(small_corpus, mock_registry_dir, root, tmp_path / "cc",
                            "--mock-fixtures", str(fixtures), "--sarif")
            assert main(argv) == 0
        reparse = ["reparse", "--registry", str(changed), "--sarif"]
        assert main([*reparse, str(reference)]) == 0

        killed = run_python(CUT_SHORT_CLI, point, str(count), *reparse, str(results))
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert not (results / SUMMARY_FILENAME).exists()  # withdrawn before the first rewrite
        markers = [p.read_text() for p in results.rglob("done")]
        rewritten = count if point == "kill-after-markers" else 0
        assert sum(m.endswith(" tool_error\n") for m in markers) == rewritten  # only delta's class changes

        again = run_python(CUT_SHORT_CLI, "none", "0", *reparse, str(results))
        assert again.returncode == 0, again.stderr
        assert tree_digest(results) == tree_digest(reference)  # the reports' bytes included
