"""Argument handling and the run / reparse / tools commands end to end."""

from __future__ import annotations

import contextlib
import errno
import fcntl
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import sysconfig
import tempfile
import threading
import time
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
from scanmux.executor import (
    PULL_TIMEOUT_SECONDS,
    QUERY_TIMEOUT_SECONDS,
    BackendFailureError,
    MockBackend,
)
from scanmux.model import ResourceLimits
from scanmux.parsing import report_bytes
from scanmux.paths import bundled_registry, dump_json
from scanmux.plan import PLAN_LOCK_FILENAME, discover_contracts
from scanmux.registry import load_registry
from scanmux.reporting import FINDINGS_FILENAME, SARIF_FILENAME, SUMMARY_FILENAME
from scanmux.runner import Runner, read_done_marker
from scanmux.solc import MockCompilerFetcher, SemVer
from scanmux.taskdir import META, RAW, STDOUT

from helpers import MOCK_TOOLS, run_python, write_corpus, write_tool_dir
from test_acceptance import tree_digest
from test_parsing import BUNDLED, HOSTILE
from test_registry import READ_FAULTS, damage
from test_runner import unreadable


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

    @pytest.mark.parametrize("fault", sorted(READ_FAULTS))
    @pytest.mark.parametrize("name", ["config.yaml", "parser.yaml"])
    def test_registry_file_that_cannot_be_read_or_decoded_exits_2(
        self, capsys, mock_registry_dir, name, fault
    ):
        path = mock_registry_dir / "charlie" / name
        damage(path, fault)
        assert main(["tools", "--registry", str(mock_registry_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {READ_FAULTS[fault]}") and err.count("\n") == 1, err


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


def make_stale(task: Path) -> None:
    """Give the result.json of ``task`` the key of other scanmux code, so that the next reparse derives it again."""
    path = task / "result.json"
    path.write_text(dump_json({**json.loads(path.read_text()), "code_digest": "0" * 16}))


def finalized(monkeypatch) -> list[Path]:
    """The folder of each task that a command finalizes from now on, in order, recorded as it goes."""
    folders = []
    finalize = cli.finalize

    def recording(results_root, folder, *args, **kwargs):
        folders.append(Path(folder))
        return finalize(results_root, folder, *args, **kwargs)

    monkeypatch.setattr(cli, "finalize", recording)
    return folders


def edited_lock(change):
    """A lock damage: ``change`` the parsed document in place and encode it again."""
    def damage(data: bytes) -> bytes:
        doc = json.loads(data)
        change(doc)
        return dump_json(doc).encode()
    return damage


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

    def test_compiler_changed_mid_run_fails_its_tasks_and_the_next_run_completes(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch
    ):
        results, cache = tmp_path / "results", tmp_path / "cc"
        argv = run_argv(small_corpus, mock_registry_dir, results, cache)
        verify = Runner._verify_compilers
        changed = []

        def verify_then_rewrite(runner, pending):
            compilers = verify(runner, pending)
            version, (binary, _) = sorted(compilers.items())[0]
            binary.write_bytes(binary.read_bytes())  # in place, same bytes: only the mtime moves
            changed.append(version)
            return compilers

        monkeypatch.setattr(Runner, "_verify_compilers", verify_then_rewrite)
        assert main(argv) == 3
        [version] = changed
        lock = json.loads((results / PLAN_LOCK_FILENAME).read_text())
        hit = sorted((t["output_dir"], f"{t['tool']}:{t['tool_version']}") for t in lock["tasks"]
                     if t["compiler"] == version)
        assert hit
        err = capsys.readouterr().err
        for output_dir, tool in hit:
            assert (
                f"infra error: {output_dir}: compiler {version} requested by {tool} "
                "changed since this run verified it\n"
            ) in err
        assert f"\n{len(hit)} tasks hit infrastructure errors" in err
        assert len(list(results.rglob("done"))) == self.EXPECTED_TASKS - len(hit)

        monkeypatch.undo()
        assert main(argv) == 0
        assert f"executed {len(hit)} of {self.EXPECTED_TASKS} tasks" in capsys.readouterr().out
        assert len(list(results.rglob("done"))) == self.EXPECTED_TASKS

    def test_contract_changed_after_planning_fails_its_tasks_and_the_next_run_converges(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch
    ):
        results, cache = tmp_path / "results", tmp_path / "cc"
        argv = run_argv(small_corpus, mock_registry_dir, results, cache, "--sarif")
        contract = sorted(small_corpus.glob("*.sol"))[0]
        planned = contract.read_bytes()
        verify = Runner._verify_compilers

        def verify_then_edit(runner, pending):  # after planning hashed the contract, before any task stages it
            contract.write_bytes(planned + b"// edited\n")
            return verify(runner, pending)

        monkeypatch.setattr(Runner, "_verify_compilers", verify_then_edit)
        assert main(argv) == 3
        lock = json.loads((results / PLAN_LOCK_FILENAME).read_text())
        hit = sorted(t["output_dir"] for t in lock["tasks"] if t["contract"] == contract.as_posix())
        assert len(hit) == 3  # alpha, bravo and delta
        err = capsys.readouterr().err
        for output_dir in hit:
            assert f"infra error: {output_dir}: contract {contract.as_posix()} changed since this run planned it\n" in err
            assert not (results / output_dir / "done").exists()
        assert len(list(results.rglob("done"))) == self.EXPECTED_TASKS - len(hit)

        monkeypatch.undo()
        contract.write_bytes(planned)
        assert main(argv) == 0
        assert f"executed {len(hit)} of {self.EXPECTED_TASKS} tasks" in capsys.readouterr().out
        reference = tmp_path / "reference"
        assert main(run_argv(small_corpus, mock_registry_dir, reference, cache, "--sarif")) == 0
        assert tree_digest(results) == tree_digest(reference)

    def test_wall_clock_stepping_back_fails_no_task(self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch):
        readings = iter(range(2_000_000_000, 0, -60))  # each reading a minute before the last
        monkeypatch.setattr(time, "time", lambda: float(next(readings)))
        results = tmp_path / "results"
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")) == 0
        monkeypatch.undo()
        assert len(list(results.rglob("done"))) == self.EXPECTED_TASKS
        for path in results.rglob("meta.json"):
            meta = json.loads(path.read_text())
            assert meta["finished_at"] >= meta["started_at"] and meta["duration_s"] >= 0

    @pytest.mark.parametrize("name, scheme, folder", [
        ("...sol", "{filename}/{toolid}", "../delta"),
        ("..sol", "{filename}/{toolid}", "./delta"),
    ], ids=["dotdot-stem", "dot-stem"])
    def test_output_folder_outside_the_root_is_planning_error(
        self, tmp_path, capsys, mock_registry_dir, name, scheme, folder
    ):
        contract = tmp_path / "contracts" / name
        contract.parent.mkdir()
        contract.write_text("pragma solidity ^0.8.0;\ncontract C {}\n")
        argv = [
            "run", "-f", str(contract), "--registry", str(mock_registry_dir), "-t", "delta",
            "--results", f"{tmp_path}/out/res/{scheme}", "--compiler-cache", str(tmp_path / "cc"), "--backend", "mock",
        ]
        assert main(argv) == 2
        assert f"{contract}: output folder {folder!r} is not inside the results root" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scheme, problem", [
        ("{filename}/../{toolid}", "scheme '{filename}/../{toolid}' has an empty, '.' or '..' folder name"),
        ("{filename}/{toolid}/..", "scheme '{filename}/{toolid}/..' has an empty, '.' or '..' folder name"),
        ("{filename}}/{toolid}", "unbalanced braces in scheme '{filename}}/{toolid}'"),
    ], ids=["dotdot-in-scheme", "dotdot-at-the-end", "lone-brace"])
    def test_scheme_that_cannot_render_a_folder_is_a_usage_error(
        self, tmp_path, capsys, mock_registry_dir, scheme, problem
    ):
        contracts = tmp_path / "contracts"
        contracts.mkdir()
        for name in ("a.sol", "b.sol", "c.sol"):
            (contracts / name).write_text("pragma solidity ^0.8.0;\ncontract C {}\n")
        argv = [
            "run", "-f", f"{contracts}/*", "--registry", str(mock_registry_dir),
            "--results", f"{tmp_path}/out/res/{scheme}", "--compiler-cache", str(tmp_path / "cc"), "--backend", "mock",
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {problem}")
        assert err.count("\n") == 1  # once, not once per task
        assert not (tmp_path / "out").exists()

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
        monkeypatch.setattr("subprocess.run", probe)
        argv = run_argv(small_corpus, mock_registry_dir, tmp_path / "r", tmp_path / "cc")
        assert main([a for a in argv if a not in ("--backend", "mock")]) == 3
        assert capsys.readouterr().err == "error: container engine is not available\n"

    @pytest.mark.parametrize("hang", ["pull", "inspect", "not-executable"])
    def test_engine_that_hangs_on_pull_is_planning_error(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch, hang
    ):
        timeouts = []

        def engine(argv, **kwargs):
            timeouts.append((argv[1], kwargs["timeout"]))
            if hang == "not-executable":
                raise PermissionError(13, "Permission denied")
            if argv[1] == hang or argv[1:3] == ["image", hang]:
                raise subprocess.TimeoutExpired(argv, kwargs["timeout"])
            return subprocess.CompletedProcess(argv, 0, stdout="sha256:feed\n", stderr="")

        monkeypatch.setattr(cli.DockerCliBackend, "available", lambda self: True)
        monkeypatch.setattr("subprocess.run", engine)
        argv = run_argv(small_corpus, mock_registry_dir, tmp_path / "r", tmp_path / "cc")
        assert main([a for a in argv if a not in ("--backend", "mock")]) == 2
        err = capsys.readouterr().err
        images = {tool.image_ref for tool in load_registry(mock_registry_dir).tools}
        assert all(f"cannot pull image {ref!r}" in err for ref in images), err
        assert "Traceback" not in err and not (tmp_path / "r").exists()
        assert {("pull", PULL_TIMEOUT_SECONDS), ("image", QUERY_TIMEOUT_SECONDS)} >= set(timeouts)

    def test_unwritable_compiler_cache_is_planning_error(self, tmp_path, capsys, small_corpus, mock_registry_dir):
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(run_argv(small_corpus, mock_registry_dir, tmp_path / "r", afile / "cc")) == 2
        err = capsys.readouterr().err
        assert f"cannot store it in {afile / 'cc'}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fault", ["directory", "not-utf8"])
    def test_compiler_cache_index_that_cannot_be_read_or_decoded(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, fault
    ):
        index = tmp_path / "cc" / "index"
        if fault == "directory":
            index.mkdir(parents=True)
        else:
            index.parent.mkdir()
            index.write_bytes(b"\xff\xfe")
        code = main(run_argv(small_corpus, mock_registry_dir, tmp_path / "r", tmp_path / "cc"))
        err = capsys.readouterr().err
        if fault == "directory":  # an error naming it, before the results root is made
            assert (code, err) == (2, f"error: {index}: compiler cache index cannot be read: Is a directory\n")
            assert not (tmp_path / "r").exists()
        else:  # the line is skipped, so every compiler is fetched again and the index rewritten
            assert code == 0, err
            assert b"\xff" not in index.read_bytes()

    @pytest.mark.parametrize("unusable", ["under-a-file", "lock-is-a-directory"])
    def test_unusable_results_root_is_an_error_naming_it(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, unusable
    ):
        afile = tmp_path / "afile"
        afile.write_text("")
        root = afile / "x" if unusable == "under-a-file" else tmp_path / "results"
        if unusable == "lock-is-a-directory":
            (root / PLAN_LOCK_FILENAME).mkdir(parents=True)
        assert main(run_argv(small_corpus, mock_registry_dir, root, tmp_path / "cc")) == 2
        err = capsys.readouterr().err
        expected = {"under-a-file": f"{afile / 'x'}: cannot be used as the results root",
                    "lock-is-a-directory": f"{root / PLAN_LOCK_FILENAME}: cannot be read"}[unusable]
        assert f"error: {expected}" in err
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

    def test_unreadable_marker_is_archived_and_its_task_reruns(self, tmp_path, capsys, small_corpus, mock_registry_dir):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")
        assert main(argv) == 0
        task = sorted(results.rglob("done"))[0].parent
        (task / "done").unlink()
        (task / "done").mkdir()  # exists, but cannot be read
        capsys.readouterr()
        assert main(argv) == 0
        assert f"executed 1 of {self.EXPECTED_TASKS} tasks" in capsys.readouterr().out
        assert (task.with_name(task.name + ".stale.1") / "done").is_dir()
        assert read_done_marker(task)[2] == "success"

    def test_stale_folder_that_cannot_be_moved_aside_ends_the_run(
        self, tmp_path, capsys, monkeypatch, small_corpus, mock_registry_dir
    ):
        def run_then_corrupt(results: Path) -> Path:
            assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")) == 0
            task = sorted(results.rglob("done"))[0].parent
            (task / "done").write_bytes(b"garbage")
            return task

        results = tmp_path / "results"
        task = run_then_corrupt(results)
        before = tree_digest(results)
        rename = os.rename

        def read_only(src, dst, *args, **kwargs):
            if ".stale." in os.fspath(dst):
                raise OSError(errno.EROFS, os.strerror(errno.EROFS), os.fspath(src))
            return rename(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "rename", read_only)
        capsys.readouterr()
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {task}: cannot be moved aside: {os.strerror(errno.EROFS)}\n"
        assert tree_digest(results) == before
        monkeypatch.undo()
        assert main(argv) == 0
        reference = tmp_path / "reference"
        run_then_corrupt(reference)
        assert main(run_argv(small_corpus, mock_registry_dir, reference, tmp_path / "cc")) == 0
        assert tree_digest(results) == tree_digest(reference)

    @pytest.mark.parametrize("linked", ["empty-task-folder", "finished-parent-folder"])
    def test_task_folder_reached_through_a_symlink_is_neither_read_nor_written(self, tmp_path, capsys, linked):
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "a.rt.hex").write_text("0x6080604052\n")
        results, host = tmp_path / "res", tmp_path / "host"
        argv = ["run", "-f", f"{tmp_path}/c/*", "--backend", "mock", "--results", str(results),
                "--compiler-cache", str(tmp_path / "cc"), "-t", "mythril"]
        assert main(argv) == 0
        if linked == "empty-task-folder":
            link = results / "a" / "mythril"
            shutil.rmtree(link)
            host.mkdir()
        else:  # the host directory holds a finished task: a marker, meta.json, raw/ and result.json
            link = results / "a"
            link.rename(host)
        link.symlink_to(host)

        def host_tree() -> dict[str, tuple]:
            return {p.relative_to(host).as_posix(): (p.lstat().st_ino, p.lstat().st_mtime_ns,
                                                     p.read_bytes() if p.is_file() else None)
                    for p in [host, *host.rglob("*")]}

        before = host_tree()
        for _ in range(2):  # the task stays pending
            capsys.readouterr()
            assert main(argv) == 3
            out, err = capsys.readouterr()
            assert "executed 1 of 1 tasks" in out and "0 already done" in out
            assert f"infra error: a/mythril: {link} is a symlink; nothing is read or written through it" in err
            assert host_tree() == before
            assert json.loads((results / SUMMARY_FILENAME).read_text())["incomplete"] == ["a/mythril"]
        (results / SUMMARY_FILENAME).unlink()
        assert main(["reparse", str(results)]) == 0
        assert "reparsed 0 tasks" in capsys.readouterr().out
        assert host_tree() == before
        assert json.loads((results / SUMMARY_FILENAME).read_text())["incomplete"] == ["a/mythril"]

    @pytest.mark.parametrize("member", [RAW, META])
    def test_pending_task_whose_member_is_a_symlink_completes(self, tmp_path, capsys, member):
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "a.rt.hex").write_text("0x6080604052\n")
        results, host = tmp_path / "res", tmp_path / "host"
        argv = ["run", "-f", f"{tmp_path}/c/*", "--backend", "mock", "--results", str(results),
                "--compiler-cache", str(tmp_path / "cc"), "-t", "mythril"]
        assert main(argv) == 0
        task = results / "a" / "mythril"

        def files() -> dict[str, bytes]:  # but meta.json, which holds timings
            return {p.relative_to(task).as_posix(): p.read_bytes() for p in task.rglob("*")
                    if p.is_file() and p.name != META}

        finished = files()
        (task / "done").unlink()  # pending again, and the member now leads to the host
        if member == RAW:
            shutil.rmtree(task / RAW)
            host.mkdir()
            (host / STDOUT).write_text("host file\n")
        else:
            (task / META).unlink()
            host.write_text("host file\n")
        (task / member).symlink_to(host)
        before = {p: p.read_bytes() if p.is_file() else None for p in [host, *host.rglob("*")]}
        capsys.readouterr()
        assert main(argv) == 0
        assert "executed 1 of 1 tasks" in capsys.readouterr().out
        assert not (task / member).is_symlink()
        assert files() == finished
        assert {p: p.read_bytes() if p.is_file() else None for p in [host, *host.rglob("*")]} == before

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
        # the marker and result.json per task, whose key is current: no stored output is read, nothing is written
        assert counts["reparse"].get("write", 0) == 0, counts
        assert counts["reparse"].get("read", 0) + counts["reparse"].get("write", 0) <= 2 * n + 10, counts
        assert counts["reparse"].get("scandir", 0) == 0, counts

    # Counts the opens of files under the results root (by path: a reopened descriptor is not counted) in a first
    # run, a no-op resume and a no-op reparse, in a new interpreter.
    OPENS = (
        "import json, os, sys\n"
        "import scanmux.cli\n"
        "root, argv = sys.argv[1], sys.argv[2:]\n"
        "opens = {}\n"
        "def hook(event, args):\n"
        "    if event == 'open' and isinstance(args[0], str) and args[0].startswith(root + os.sep):\n"
        "        opens[phase] = opens.get(phase, 0) + 1\n"
        "sys.addaudithook(hook)\n"
        "for phase, phase_argv in [('run', argv), ('resume', argv), ('reparse', ['reparse', root])]:\n"
        "    if scanmux.cli.main(phase_argv) != 0:\n"
        "        sys.exit(phase + ' failed')\n"
        "print(json.dumps(opens))\n"
    )

    def test_no_op_commands_open_a_fixed_number_of_files_per_task(self, tmp_path, mock_registry_dir):
        def opens(n: int) -> tuple[dict, list[int]]:
            corpus = write_corpus(tmp_path / f"contracts{n}", n_sol=2 * n, n_creation=n, n_runtime=n)
            results = tmp_path / f"results{n}"
            argv = run_argv(corpus, mock_registry_dir, results, tmp_path / "cc")
            proc = run_python(self.OPENS, str(results), *argv)
            assert proc.returncode == 0, proc.stderr
            raw = [len(json.loads((results / task["output_dir"] / META).read_text())["result_files"])
                   for task in json.loads((results / PLAN_LOCK_FILENAME).read_text())["tasks"]]
            return json.loads(proc.stdout.strip().splitlines()[-1]), raw

        (few, few_raw), (many, many_raw) = opens(1), opens(3)
        assert (len(few_raw), len(many_raw)) == (12, 36)
        # a resume reads each task's marker; a reparse its marker and result.json, whose key is current
        assert many["resume"] - few["resume"] == len(many_raw) - len(few_raw), (few, many)
        assert many["reparse"] - few["reparse"] == 2 * (len(many_raw) - len(few_raw)), (few, many)

    # A first run and then a traced no-op resume, in a new interpreter: what earlier tests left behind
    # (say, a table of interned strings about to grow) cannot land in the traced window, nor can the growth
    # of that table which the first run leaves due (settle_interned_strings).
    RESUME_PEAK = (
        "import sys, tracemalloc\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from helpers import settle_interned_strings\n"
        "import scanmux.cli\n"
        "argv = sys.argv[2:]\n"
        "assert scanmux.cli.main(argv) == 0\n"
        "settle_interned_strings()\n"
        "tracemalloc.start()\n"
        "assert scanmux.cli.main(argv) == 0\n"
        "print('traced peak', tracemalloc.get_traced_memory()[1])\n"
    )

    def test_no_op_resume_memory_grows_little_with_the_tasks(self, tmp_path):
        def peak(n: int) -> tuple[int, int]:
            """(planned tasks, traced peak of a no-op resume) over 2n .sol, n .hex and n .rt.hex with every tool."""
            corpus = tmp_path / f"corpus{n}"
            corpus.mkdir()
            for i in range(2 * n):  # one source without a pragma
                (corpus / f"c{i:03d}.sol").write_text(("pragma solidity ^0.8.0;\n" if i else "") + f"contract C{i} {{}}\n")
            for i in range(n):
                (corpus / f"h{i:03d}.hex").write_text(f"0x6080604052{i:04x}\n")
                (corpus / f"r{i:03d}.rt.hex").write_text(f"0x6080604052{i:04x}\n")
            argv = ["run", "-f", f"{corpus}/*", "--results", str(tmp_path / f"results{n}"),
                    "--compiler-cache", str(tmp_path / "cc"), "--backend", "mock"]
            proc = run_python(self.RESUME_PEAK, str(Path(__file__).parent), *argv)
            assert proc.returncode == 0, proc.stderr
            resume = proc.stdout.split("planned ")[-1]  # the second command's output
            assert "executed 0 of" in resume
            return int(re.match(r"(\d+) tasks", resume).group(1)), int(re.search(r"traced peak (\d+)", resume).group(1))

        (few, low), (many, high) = peak(5), peak(20)
        assert (few, many) == (205, 820)
        # the plan and the resume scan take ~340 bytes a task; a lock document held beside them took ~560 more
        assert (high - low) / (many - few) < 600, (low, high)


# One command in a new interpreter. The last line of stdout is [exit code, the tool directories whose parser.yaml
# was opened (an audit hook), the tool directories whose parser file was built], each list sorted.
PARSER_FILES = (
    "import json, os, sys\n"
    "opened, built = [], []\n"
    "def hook(event, args):\n"
    "    if event == 'open' and isinstance(args[0], str) and os.path.basename(args[0]) == 'parser.yaml':\n"
    "        opened.append(os.path.basename(os.path.dirname(args[0])))\n"
    "sys.addaudithook(hook)\n"
    "from scanmux import cli, registry\n"
    "build = registry._load_parser_file\n"
    "def counted(tool_dir, data):\n"
    "    built.append(tool_dir.name)\n"
    "    return build(tool_dir, data)\n"
    "registry._load_parser_file = counted\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(opened), sorted(built)]))\n"
)


class TestParserFilesOnFirstUse:
    """A command builds (decodes, checks, compiles) only the parser files of the tools it runs or reparses.

    Every command reads each parser.yaml once, since the registry's content digest covers its bytes.
    """

    ALL = sorted(MOCK_TOOLS)

    @staticmethod
    def command(*argv) -> tuple[int, list[str], list[str], str]:
        proc = run_python(PARSER_FILES, *map(str, argv))
        assert proc.returncode == 0, proc.stderr
        code, opened, built = json.loads(proc.stdout.strip().splitlines()[-1])
        return code, opened, built, proc.stderr

    @staticmethod
    def broken(registry_dir: Path, tool: str) -> Path:
        """Give ``tool``'s parser an empty label, which fails its checks; returns the parser file."""
        parser = registry_dir / tool / "parser.yaml"
        parser.write_text(parser.read_text().replace("label: Weakness", "label: ''"))
        return parser

    def test_each_command_builds_only_the_parsers_it_uses(self, tmp_path, small_corpus, mock_registry_dir):
        results = tmp_path / "r"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "-t", "charlie,delta")
        assert self.command(*argv)[:3] == (0, self.ALL, ["charlie", "delta"])
        assert self.command(*argv)[:3] == (0, self.ALL, [])  # a no-op resume parses nothing
        # a task left pending: only its tool's parser is built
        (charlie_marker,) = (p for p in results.rglob("done") if p.parent.name == "charlie")
        charlie_marker.unlink()
        assert self.command(*argv)[:3] == (0, self.ALL, ["charlie"])
        assert self.command("reparse", results)[:3] == (0, self.ALL, ["charlie", "delta"])
        assert self.command("tools", "--registry", mock_registry_dir)[:3] == (0, self.ALL, self.ALL)

    def test_broken_parser_of_a_pending_tool_fails_the_run_before_any_task(
        self, tmp_path, small_corpus, mock_registry_dir
    ):
        parser = self.broken(mock_registry_dir, "delta")
        good = parser.read_text().replace("label: ''", "label: Weakness")
        results, cache = tmp_path / "r", tmp_path / "cc"
        argv = run_argv(small_corpus, mock_registry_dir, results, cache, "-t", "charlie,delta")
        code, _, _, err = self.command(*argv)
        assert (code, err) == (2, f"error: {parser}: parser 'default': each finding rule needs pattern and a "
                                  "nonempty label\n")
        # reported before planning: no lock pins the broken parser's digest, and no compiler was fetched
        assert not results.exists() and not cache.exists()
        parser.write_text(good)
        assert self.command(*argv)[:3] == (0, self.ALL, ["charlie", "delta"])  # the fixed parser runs on that root

    def test_broken_parser_of_an_unused_tool_does_not_stop_a_run(self, tmp_path, small_corpus, mock_registry_dir):
        self.broken(mock_registry_dir, "echo")
        argv = run_argv(small_corpus, mock_registry_dir, tmp_path / "r", tmp_path / "cc", "-t", "charlie,delta")
        assert self.command(*argv)[:3] == (0, self.ALL, ["charlie", "delta"])

    def test_reparse_refused_for_a_broken_locked_parser_rewrites_nothing(
        self, tmp_path, small_corpus, mock_registry_dir
    ):
        results = tmp_path / "r"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "-t", "charlie,delta", "--sarif")
        assert self.command(*argv)[0] == 0
        changed = tmp_path / "changed"
        shutil.copytree(mock_registry_dir, changed)
        # delta's new rule alone would rewrite each delta task, and delta's tasks come first in the lock;
        # charlie's broken parser refuses the reparse
        delta = changed / "delta" / "parser.yaml"
        delta.write_text(delta.read_text() + "      - '^WARN:'\n")
        parser = self.broken(changed, "charlie")
        before = {p: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes()) for p in results.rglob("*") if p.is_file()}
        code, _, built, err = self.command("reparse", results, "--registry", changed, "--sarif")
        assert (code, err) == (2, f"error: {parser}: parser 'default': each finding rule needs pattern and a "
                                  "nonempty label\n")
        assert "charlie" in built
        after = {p: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes()) for p in results.rglob("*") if p.is_file()}
        assert after == before


class TestFullDisk:
    """A write that finds the disk full ends a command with one line naming the file, and no traceback."""

    NO_SPACE = os.strerror(errno.ENOSPC)

    @staticmethod
    def refuse_temp_files(monkeypatch, name: str) -> None:
        """``tempfile.mkstemp`` fails for lack of space when it makes the temp file that replaces ``name``."""
        mkstemp = tempfile.mkstemp

        def full(*args, **kwargs):
            if kwargs.get("prefix") == f".{name}.":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", full)

    @staticmethod
    def refuse_task_files(monkeypatch, name: str) -> None:
        """``os.open`` fails for lack of space when it opens a task's ``name`` for writing."""
        real_open = os.open

        def full(path, flags, *args, **kwargs):
            if isinstance(path, str) and path.endswith(os.sep + name) and flags & os.O_WRONLY:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", full)

    def errors(self, capsys, results: Path) -> list[str]:
        """The error lines on stderr; none of them a traceback, and no temp file left in the root."""
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [p.name for p in results.iterdir() if p.name.startswith(".")] == []
        return [line for line in err.splitlines() if line.startswith(("error:", "infra error:"))]

    @pytest.mark.parametrize("name", [PLAN_LOCK_FILENAME, FINDINGS_FILENAME, SARIF_FILENAME, SUMMARY_FILENAME])
    def test_root_file_in_a_run(self, tmp_path, capsys, monkeypatch, small_corpus, mock_registry_dir, name):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--sarif")
        self.refuse_temp_files(monkeypatch, name)
        assert main(argv) == 2
        assert self.errors(capsys, results) == [f"error: {results / name}: cannot be written: {self.NO_SPACE}"]
        monkeypatch.undo()
        assert main(argv) == 0
        reference = tmp_path / "reference"
        assert main(run_argv(small_corpus, mock_registry_dir, reference, tmp_path / "cc", "--sarif")) == 0
        assert tree_digest(results) == tree_digest(reference)

    @pytest.mark.parametrize("name", [FINDINGS_FILENAME, SARIF_FILENAME, SUMMARY_FILENAME])
    def test_report_in_a_reparse(self, tmp_path, capsys, monkeypatch, small_corpus, mock_registry_dir, name):
        results = tmp_path / "results"
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--sarif")) == 0
        (results / SUMMARY_FILENAME).unlink()  # so the reports are written again
        capsys.readouterr()
        self.refuse_temp_files(monkeypatch, name)
        assert main(["reparse", str(results), "--sarif"]) == 2
        assert self.errors(capsys, results) == [f"error: {results / name}: cannot be written: {self.NO_SPACE}"]
        monkeypatch.undo()
        assert main(["reparse", str(results), "--sarif"]) == 0

    @pytest.mark.parametrize("name", [META, "result.json"])
    def test_task_file_in_a_run(self, tmp_path, capsys, monkeypatch, small_corpus, mock_registry_dir, name):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")
        self.refuse_task_files(monkeypatch, name)
        assert main(argv) == 3
        dirs = sorted(task["output_dir"] for task in json.loads((results / PLAN_LOCK_FILENAME).read_text())["tasks"])
        assert self.errors(capsys, results) == [
            f"infra error: {d}: {results / d / name}: cannot be written: {self.NO_SPACE}" for d in dirs
        ]
        monkeypatch.undo()
        assert main(argv) == 0
        assert f"executed {len(dirs)} of {len(dirs)} tasks" in capsys.readouterr().out
        reference = tmp_path / "reference"
        assert main(run_argv(small_corpus, mock_registry_dir, reference, tmp_path / "cc")) == 0
        assert tree_digest(results) == tree_digest(reference)

    def test_result_file_in_a_reparse(self, tmp_path, capsys, monkeypatch, small_corpus, mock_registry_dir):
        results = tmp_path / "results"
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")) == 0
        damaged = sorted(results.rglob("result.json"))[0]
        damaged.write_bytes(b"{}\n")  # differs from what the reparse encodes, so it is written again
        capsys.readouterr()
        self.refuse_task_files(monkeypatch, "result.json")
        assert main(["reparse", str(results)]) == 2
        assert self.errors(capsys, results) == [f"error: {damaged}: cannot be written: {self.NO_SPACE}"]
        monkeypatch.undo()
        assert main(["reparse", str(results)]) == 0
        assert damaged.read_bytes() != b"{}\n"


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
        if change in ("marker-with-another-class", "torn-meta"):  # a current task's marker and meta.json go unread
            make_stale(task)
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

    def test_parser_edit_rederives_only_its_tools_tasks(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch
    ):
        fixtures, changed = warning_delta(tmp_path, mock_registry_dir)
        results, fresh = tmp_path / "results", tmp_path / "fresh"

        def argv(root: Path, registry: Path) -> list[str]:
            return run_argv(small_corpus, registry, root, tmp_path / "cc", "--mock-fixtures", str(fixtures),
                            "--sarif", "--results", f"{root}/{{filename}}/{{toolid}}")

        assert main(argv(results, mock_registry_dir)) == 0
        others = [name for name in task_files(results) if name.split("/")[-2] != "delta"]
        before = file_stamps(results, *others)
        folders = finalized(monkeypatch)
        capsys.readouterr()
        assert main(["reparse", str(results), "--registry", str(changed), "--sarif"]) == 0
        assert f"reparsed {TestRunCommand.EXPECTED_TASKS} tasks" in capsys.readouterr().out
        assert sorted(folder.name for folder in folders) == ["delta"] * 3  # 2 sol + 1 runtime
        assert file_stamps(results, *others) == before

        # The fresh run's plan.lock and markers record its registry; the rest matches file for file.
        assert main(argv(fresh, changed)) == 0
        derived, reference = tree_digest(results), tree_digest(fresh)
        for tree in (derived, reference):
            for name in [name for name in tree if name == PLAN_LOCK_FILENAME or name.endswith("/done")]:
                del tree[name]
        assert derived == reference

        folders.clear()
        assert main(["reparse", str(results), "--registry", str(changed), "--sarif"]) == 0
        assert folders == []

    # Reparses in a new interpreter that imports scanmux from the package copy named first.
    REPARSE_WITH = (
        "import sys\nsys.path.insert(0, sys.argv[1])\n"
        "import scanmux.cli\nsys.exit(scanmux.cli.main(sys.argv[2:]))\n"
    )

    @pytest.mark.parametrize("module, definition", [
        ("parsing.py", "def classify_exit("),
        ("paths.py", "def dump_json("),
    ], ids=["exit-classification", "encoder"])
    def test_edited_deriving_code_rederives_every_task_once(
        self, tmp_path, small_corpus, mock_registry_dir, module, definition
    ):
        results = tmp_path / "results"
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")) == 0
        package = tmp_path / "package"
        shutil.copytree(Path(scanmux.__file__).parent, package / "scanmux",
                        ignore=shutil.ignore_patterns("__pycache__"))
        source = package / "scanmux" / module
        assert source.read_text().count(definition) == 1
        source.write_text(source.read_text().replace(definition, f"# edited\n{definition}"))
        results_json = sorted(p.relative_to(results).as_posix() for p in results.rglob("result.json"))
        original = {name: (results / name).read_bytes() for name in results_json}
        stamps = file_stamps(results, *results_json)
        reparse = ["reparse", str(results), "--registry", str(mock_registry_dir)]

        proc = run_python(self.REPARSE_WITH, str(package), *reparse)
        assert proc.returncode == 0, proc.stderr
        assert all(stamp != stamps[name] for name, stamp in file_stamps(results, *results_json).items())
        digests = {json.loads((results / name).read_text())["code_digest"] for name in results_json}
        assert len(digests) == 1 and digests != {json.loads(original[results_json[0]])["code_digest"]}
        stamps = file_stamps(results, *results_json)
        proc = run_python(self.REPARSE_WITH, str(package), *reparse)
        assert proc.returncode == 0, proc.stderr
        assert f"reparsed {TestRunCommand.EXPECTED_TASKS} tasks" in proc.stdout
        assert file_stamps(results, *results_json) == stamps  # a no-op under the edited code

        assert main(reparse) == 0  # and this code derives the original bytes again
        assert {name: (results / name).read_bytes() for name in results_json} == original

    @pytest.mark.parametrize("stale", ["other-code", "no-key"])
    def test_stale_results_are_rederived_once(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch, stale
    ):
        results = tmp_path / "results"
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--sarif")) == 0
        original = {p: p.read_bytes() for p in results.rglob("result.json")}
        if stale == "other-code":
            monkeypatch.setattr("scanmux.parsing.code_digest", lambda: "0" * 16)
        else:  # as a scanmux older than the key wrote them
            for path in original:
                doc = json.loads(path.read_text())
                del doc["code_digest"]
                path.write_text(dump_json(doc))
        folders = finalized(monkeypatch)
        reparse = ["reparse", str(results), "--registry", str(mock_registry_dir), "--sarif"]
        assert main(reparse) == 0
        assert len(set(folders)) == len(folders) == TestRunCommand.EXPECTED_TASKS
        if stale == "other-code":
            assert {json.loads(p.read_text())["code_digest"] for p in original} == {"0" * 16}
        else:
            assert {p: p.read_bytes() for p in original} == original

        names = [*task_files(results), *REPORTS]
        stamps = file_stamps(results, *names)
        folders.clear()
        capsys.readouterr()
        assert main(reparse) == 0
        assert f"reparsed {TestRunCommand.EXPECTED_TASKS} tasks" in capsys.readouterr().out
        assert folders == []
        assert file_stamps(results, *names) == stamps

    @pytest.mark.parametrize("damage", [
        lambda path: path.write_bytes(path.read_bytes()[:50]),
        lambda path: path.write_text(path.read_text().replace('"message": "VULN', '"message": 7, "was": "VULN', 1)),
        lambda path: path.unlink(),
    ], ids=["torn", "wrongly-typed", "missing"])
    def test_a_damaged_result_alone_is_rederived(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch, damage
    ):
        fixtures, _ = warning_delta(tmp_path, mock_registry_dir)
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--mock-fixtures", str(fixtures))
        assert main(argv) == 0
        path = sorted(p for p in results.rglob("result.json") if p.parent.name == "delta")[0]
        intact = path.read_bytes()
        damage(path)
        assert not path.exists() or path.read_bytes() != intact
        folders = finalized(monkeypatch)
        assert main(["reparse", str(results), "--registry", str(mock_registry_dir)]) == 0
        assert folders == [path.parent]
        assert path.read_bytes() == intact

    def test_marker_that_cannot_be_read_stops_run_and_reparse(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch
    ):
        def run_then_corrupt(results: Path) -> Path:
            assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")) == 0
            corrupt = sorted(results.rglob("done"))[0]
            corrupt.write_bytes(b"garbage")  # moved aside by a run, once every marker was read
            return corrupt.parent

        results = tmp_path / "results"
        corrupt = run_then_corrupt(results)
        faulty = sorted(results.rglob("done"))[-1]
        before = tree_digest(results)
        unreadable(monkeypatch, faulty.parent)
        for command in (run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc"),
                        ["reparse", str(results), "--registry", str(mock_registry_dir)]):
            capsys.readouterr()
            assert main(command) == 2
            err = capsys.readouterr().err
            assert err == f"error: {faulty}: cannot be read: {os.strerror(errno.EIO)}\n"
            assert not list(results.rglob("*.stale.*"))
        assert corrupt.is_dir()
        assert tree_digest(results) == before

        monkeypatch.undo()
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")) == 0
        reference = tmp_path / "reference"
        run_then_corrupt(reference)
        assert main(run_argv(small_corpus, mock_registry_dir, reference, tmp_path / "cc")) == 0
        assert tree_digest(results) == tree_digest(reference)

    def test_results_root_that_is_a_file_is_an_error_naming_its_lock(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["reparse", str(afile)]) == 2
        err = capsys.readouterr().err
        assert f"error: {afile / PLAN_LOCK_FILENAME}: cannot be read" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("escape", ["dotdot", "absolute", "symlink", "symlinked-raw", "symlinked-dir"])
    def test_stored_output_is_read_only_inside_raw(self, tmp_path, capsys, small_corpus, mock_registry_dir, escape):
        results = tmp_path / "results"
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc")) == 0
        secret = tmp_path / "secret.txt"
        secret.write_text("VULN: Reentrancy at line 1\n")
        task = sorted(results.rglob("done"))[0].parent
        raw = task / RAW
        name = {"dotdot": os.path.relpath(secret, raw), "absolute": str(secret), "symlink": "leak",
                "symlinked-raw": secret.name, "symlinked-dir": f"leak/{secret.name}"}[escape]
        if escape == "symlink":
            (raw / "leak").symlink_to(secret)
        if escape == "symlinked-dir":
            (raw / "leak").symlink_to(tmp_path)
        if escape == "symlinked-raw":  # raw/ points at the secret's directory, holding copies of the real output
            for stored in raw.iterdir():
                stored.rename(tmp_path / stored.name)
            raw.rmdir()
            raw.symlink_to(tmp_path)
        meta = json.loads((task / META).read_text())
        meta["result_files"].append(name)
        (task / META).write_text(json.dumps(meta))
        make_stale(task)  # else its meta.json goes unread
        kept = {p: p.read_bytes() for p in (task / "result.json", task / "done")}
        capsys.readouterr()
        assert main(["reparse", str(results), "--registry", str(mock_registry_dir)]) == 0
        assert f"reparsed {TestRunCommand.EXPECTED_TASKS - 1} tasks" in capsys.readouterr().out
        assert {p: p.read_bytes() for p in kept} == kept  # unreadable stored output: the task keeps its result

    @pytest.mark.parametrize("hostile", HOSTILE_DOCUMENTS)
    def test_hostile_stored_document_is_a_tool_failure(self, tmp_path, capsys, small_corpus, hostile):
        results = tmp_path / "results"
        fixtures = mythril_fixtures(tmp_path, '{"issues": []}')
        argv = run_argv(small_corpus, bundled_registry(), results, tmp_path / "cc",
                        "--tools", "mythril", "--mock-fixtures", str(fixtures))
        assert main(argv) == 0
        tasks = sorted(p.parent for p in results.rglob("done"))
        (tasks[0] / RAW / STDOUT).write_bytes(HOSTILE[hostile])
        make_stale(tasks[0])  # else its stored output goes unread
        assert main(["reparse", str(results)]) == 0, capsys.readouterr().err
        assert json.loads((tasks[0] / "result.json").read_text())["failures"] == ["unparseable tool output: stdout"]
        totals = json.loads((results / "summary.json").read_text())["totals"]
        assert (totals["tool_failure"], totals["success"]) == (1, 3)

    @pytest.mark.parametrize("version", [1, 2])
    def test_lock_in_the_version_1_shape_resumes_and_reparses(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, version
    ):
        (small_corpus / "bare.sol").write_text("contract Bare {}\n")  # no pragma: its tasks carry warnings
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--sarif")
        assert main(argv) == 0
        contracts = {c.id: c for c in discover_contracts([f"{small_corpus}/*"])}
        registry, limits = load_registry(mock_registry_dir), ResourceLimits()
        lock_path = results / PLAN_LOCK_FILENAME
        lock = json.loads(lock_path.read_text())
        # versions 1 and 2 listed each skipped pair, and repeated the contract as its source path
        skips = [{"contract": c.id, "tool": t.key, "reason": f"does not support {c.format.value}"}
                 for c in contracts.values() for t in registry.tools if c.format not in t.supported_formats]
        assert len(skips) == lock["skips"] > 0
        lock["skips"] = skips
        for entry in lock["tasks"]:
            contract = contracts[entry["contract"]]
            entry["source_path"] = str(Path(contract.id))
            if version == 1:  # put back the six per-task keys that version 1 repeated from elsewhere
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
        lock["version"] = version
        old_lock = dump_json(lock)
        lock_path.write_text(old_lock)
        assert version == 2 or any(entry["warnings"] for entry in lock["tasks"])

        def files():
            return {p.relative_to(results).as_posix(): p.read_bytes() for p in results.rglob("*") if p.is_file()}

        before = files()
        capsys.readouterr()
        assert main(argv) == 0
        assert "executed 0 of" in capsys.readouterr().out
        resumed = files()
        assert json.loads(resumed.pop(PLAN_LOCK_FILENAME))["version"] == 3
        assert resumed == {name: data for name, data in before.items() if name != PLAN_LOCK_FILENAME}
        # a root never resumed since: reparse rebuilds the same reports from the old lock, and keeps it
        lock_path.write_text(old_lock)
        (results / SUMMARY_FILENAME).unlink()
        assert main(["reparse", str(results), "--registry", str(mock_registry_dir), "--sarif"]) == 0
        assert files() == before

    def test_missing_root_fails(self, tmp_path, capsys):
        assert main(["reparse", str(tmp_path / "nothing")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'nothing' / PLAN_LOCK_FILENAME}: no plan found"), err
        assert "Traceback" not in err

    def test_lock_is_read_only_once_the_root_is_held(self, tmp_path, capsys, small_corpus, mock_registry_dir, monkeypatch):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--tools", "delta")
        assert main(argv) == 0
        (small_corpus / "c09.sol").write_text("pragma solidity ^0.8.0;\ncontract D {}\n")  # one more delta task
        own, codes = cli._own_results_root, []

        @contextlib.contextmanager
        def run_rewrites_the_lock_first(root):  # a run takes the root, rewrites its lock, and lets it go
            monkeypatch.setattr(cli, "_own_results_root", own)
            codes.append(main(argv))
            with own(root):
                yield

        monkeypatch.setattr(cli, "_own_results_root", run_rewrites_the_lock_first)
        capsys.readouterr()
        assert main(["reparse", str(results), "--sarif"]) == 0  # --sarif: a stamp the run did not write
        assert codes == [0]
        assert "reparsed 4 tasks" in capsys.readouterr().out
        summary = json.loads((results / SUMMARY_FILENAME).read_text())
        assert (summary["totals"]["total"], summary["incomplete"]) == (4, [])

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

    @pytest.mark.parametrize("garbage", [b"garbage", b"v1 abc def nonsense\n", b"\xff\xfe", None])  # None: a directory
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
        if garbage is None:  # exists, but cannot be read
            (corrupt / "done").unlink()
            (corrupt / "done").mkdir()
        else:
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
        torn, deep = sorted(results.rglob("result.json"))[:2]
        intact = {path: path.read_bytes() for path in (torn, deep)}
        torn.write_bytes(intact[torn][:50])
        deep.write_bytes(b"[" * 100_000 + b"]" * 100_000)  # nested too deep to decode
        tasks = [path.parent.relative_to(results).as_posix() for path in (torn, deep)]
        for report in ("summary.json", "findings.csv", "report.sarif"):
            (results / report).unlink()

        assert main(argv) == 0  # the no-op resume still writes every report
        summary = json.loads((results / "summary.json").read_text())
        assert summary["incomplete"] == sorted(tasks)
        assert summary["totals"]["total"] == TestRunCommand.EXPECTED_TASKS - 2
        assert (results / "findings.csv").exists()
        assert (results / "report.sarif").exists()

        assert main(["reparse", str(results), "--registry", str(mock_registry_dir), "--sarif"]) == 0
        assert {path: path.read_bytes() for path in intact} == intact
        summary = json.loads((results / "summary.json").read_text())
        assert summary["incomplete"] == []
        assert summary["totals"]["total"] == TestRunCommand.EXPECTED_TASKS

    @pytest.mark.parametrize("edit", [
        lambda finding: finding["location"].update(line="3"),
        lambda finding: finding.update(message=7),
    ], ids=["line-as-string", "message-as-number"])
    def test_wrongly_typed_result_is_incomplete_until_reparse(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, edit
    ):
        fixtures, _ = warning_delta(tmp_path, mock_registry_dir)
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--tools", "delta", "--sarif",
                        "--mock-fixtures", str(fixtures))
        assert main(argv) == 0
        path = sorted(results.rglob("result.json"))[0]
        doc = json.loads(path.read_text())
        edit(doc["findings"][0])
        path.write_text(json.dumps(doc))
        (results / SUMMARY_FILENAME).unlink()  # its stamp does not cover result.json

        assert main(argv) == 0
        assert json.loads((results / SUMMARY_FILENAME).read_text())["incomplete"] == [
            path.parent.relative_to(results).as_posix()
        ]
        assert main(["reparse", str(results), "--sarif"]) == 0
        assert json.loads((results / SUMMARY_FILENAME).read_text())["incomplete"] == []
        assert json.loads(path.read_text())["findings"][0]["location"] == {"kind": "source", "line": 3, "file": None}

    @pytest.mark.parametrize(
        "damage",
        [
            lambda task: (task / "meta.json").write_bytes((task / "meta.json").read_bytes()[:40]),
            lambda task: (task / "raw" / "stdout").unlink(),
            lambda task: (task / "meta.json").write_bytes(b"[" * 100_000 + b"]" * 100_000),
        ],
        ids=["torn-meta", "deleted-stdout", "meta-nested-too-deep"],
    )
    def test_unreadable_stored_output_keeps_its_result(
        self, tmp_path, capsys, small_corpus, mock_registry_dir, damage
    ):
        results = tmp_path / "results"
        assert main(run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--sarif")) == 0
        task = sorted(results.rglob("done"))[0].parent
        make_stale(task)  # else its stored output goes unread
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
        (lambda text: b"[" * 100_000 + b"]" * 100_000, "not valid JSON"),
        (lambda text: b"[]\n", "not a plan lock"),
        (lambda text: b'{"version": 2}\n', "not a plan lock"),
        (edited_lock(lambda doc: doc["tasks"][0].pop("tool_version")), "task 0 lacks a string output_dir, "),
        (edited_lock(lambda doc: doc["tasks"][3].update(compiler=8)), "task 3 lacks a string output_dir, "),
        (edited_lock(lambda doc: doc["tasks"][0].pop("compiler")), "task 0 lacks a string output_dir, "),
        (edited_lock(lambda doc: doc["tasks"].append("a/b")), "task 12 lacks a string output_dir, "),
        (edited_lock(lambda doc: doc["tasks"][1].update(output_dir="../b")),
         "task 1 has the output folder '../b', outside the results root"),
        (edited_lock(lambda doc: doc["tasks"][1].update(output_dir="/tmp/b")),
         "task 1 has the output folder '/tmp/b', outside the results root"),
        (edited_lock(lambda doc: doc.update(skips=[None])), "a skip entry is not an object"),
        (edited_lock(lambda doc: doc.update(skips=-1)), "skips is neither a non-negative count nor a list"),
        (edited_lock(lambda doc: doc.update(skips=True)), "skips is neither a non-negative count nor a list"),
        (edited_lock(lambda doc: doc.update(skips="3")), "skips is neither a non-negative count nor a list"),
        (edited_lock(lambda doc: doc.update(registry_path=5)), "registry_path is neither a string nor null"),
    ], ids=["torn", "nested-too-deep", "list", "no-tasks", "no-tool-version", "compiler-not-a-string", "no-compiler",
            "task-not-an-object", "dotdot-output-dir", "absolute-output-dir", "skip-not-an-object",
            "negative-skips", "boolean-skips", "string-skips", "registry-path-not-a-string"])
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

        def write_half_then_fail(folder, report):  # as a full disk leaves it
            torn.append(Path(folder) / "result.json")
            data = report_bytes(report)
            torn[-1].write_bytes(data[: len(data) // 2])
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
#   kill-after-lock 1     SIGKILL right after a run wrote (or kept) plan.lock
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
elif point == "kill-after-lock":
    cli.write_plan_lock = kill_after(cli.write_plan_lock)
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

    def test_killed_after_a_rewritten_lock_leaves_no_summary(self, tmp_path, small_corpus, mock_registry_dir):
        results = tmp_path / "results"
        argv = run_argv(small_corpus, mock_registry_dir, results, tmp_path / "cc", "--sarif")
        assert main(argv) == 0
        sorted(small_corpus.glob("*.sol"))[0].unlink()  # the next plan, and so its lock, has fewer tasks

        killed = run_python(CUT_SHORT_CLI, "kill-after-lock", "1", *argv)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert not (results / SUMMARY_FILENAME).exists()  # withdrawn with the lock it was built from

        resumed = run_python(CUT_SHORT_CLI, "none", "0", *argv)
        assert resumed.returncode == 0, resumed.stderr
        assert "executed 0 of" in resumed.stdout
        fresh = tmp_path / "fresh"
        assert main(run_argv(small_corpus, mock_registry_dir, fresh, tmp_path / "cc", "--sarif")) == 0
        assert {name: (results / name).read_bytes() for name in REPORTS} == {
            name: (fresh / name).read_bytes() for name in REPORTS
        }

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
        # a reparse writes a task's marker, then its result.json; only delta's class changes
        assert sum(m.endswith(" tool_error\n") for m in markers) == count

        again = run_python(CUT_SHORT_CLI, "none", "0", *reparse, str(results))
        assert again.returncode == 0, again.stderr
        assert tree_digest(results) == tree_digest(reference)  # the reports' bytes included
