"""One scratch volume per worker: what a tool sees in it, and when it is made and removed.

The runs go through ``scanmux run`` on the mock backend with ``--processes 1``,
so one worker stages consecutive tasks into one volume.
"""

from __future__ import annotations

import json
import os
import signal
import stat
import tempfile
import threading
from pathlib import Path
from typing import NamedTuple

import pytest

from scanmux import executor
from scanmux.cli import main
from scanmux.executor import BackendFailureError, MockBackend, ScratchVolume
from scanmux.model import Task
from scanmux.runner import Runner

from helpers import run_python, write_tool_dir
from test_cli import run_argv

JUNK = {"junk.txt": "left by litter", "deep/dir/x": "nested", "output/results.json": "{}"}


def image(tool_id: str) -> str:
    return f"example.io/mock/{tool_id}:1"


def registry(root: Path, *tools: str) -> Path:
    """Tools that take Solidity and runtime code; ``harvest`` collects every file in its volume, ``compiled`` needs
    a compiler, and the others collect stdout and stderr."""
    for tool_id in tools:
        write_tool_dir(
            root, tool_id, "1", ["solidity", "runtime"],
            {"solidity": "scan {contract} {compiler}", "runtime": "scan {contract}"},
            needs_compiler=tool_id == "compiled",
        )
        if tool_id == "harvest":
            with open(root / tool_id / "config.yaml", "a") as fh:
                fh.write("results:\n  - '*'\n")
    return root


def corpus(root: Path) -> Path:
    """Contracts of very different lengths in both formats, so long follows short and the reverse."""
    root.mkdir()
    for i in range(4):
        filler = "    uint public x;\n" * (200 if i % 2 else 0)
        (root / f"c{i}.sol").write_text(f"pragma solidity ^0.8.0;\ncontract C{i} {{\n{filler}}}\n")
        (root / f"r{i}.rt.hex").write_text("6080fdfe" + f"{i:02x}" * (2000 if i % 2 else 2))
    return root


def fixtures(path: Path, behaviors: dict[str, dict]) -> Path:
    path.write_text(json.dumps({image(tool): behavior for tool, behavior in behaviors.items()}))  # JSON is YAML
    return path


def snapshot(volume: Path) -> dict[str, tuple]:
    """Relative path -> (mode, owner, group, shared?, bytes of a regular file) of the volume and every entry in it.

    A staged compiler shares its inode with the cache and with every other volume that stages it, so only
    whether an entry has more than one link is compared.
    """
    tree = {}
    for path in [volume, *volume.rglob("*")]:
        st = os.lstat(path)
        data = path.read_bytes() if stat.S_ISREG(st.st_mode) else None
        tree[path.relative_to(volume).as_posix()] = (st.st_mode, st.st_uid, st.st_gid, st.st_nlink > 1, data)
    return tree


class Seen(NamedTuple):
    task: Task
    volume: Path
    tree: dict[str, tuple]
    fresh: dict[str, tuple]  # what the same task staged into a new volume shows


@pytest.fixture
def seen(monkeypatch):
    """Each run of a mock container, in order, with what its volume held and what a fresh volume would hold."""
    runs: list[Seen] = []
    staged: list[tuple[Task, dict]] = []
    stage_volume, run = executor.stage_volume, MockBackend.run

    def staging(task, compilers, volume):
        staged.append((task, compilers))
        return stage_volume(task, compilers, volume)

    def running(self, image_digest, volume_dir, command, limits):
        task, compilers = staged[-1]
        with ScratchVolume() as fresh:
            runs.append(Seen(task, volume_dir, snapshot(volume_dir), snapshot(stage_volume(task, compilers, fresh))))
        return run(self, image_digest, volume_dir, command, limits)

    monkeypatch.setattr(executor, "stage_volume", staging)
    monkeypatch.setattr(MockBackend, "run", running)
    return runs


@pytest.fixture
def tmpdir_volumes(tmp_path, monkeypatch) -> Path:
    """A private ``$TMPDIR`` for the volumes of the test's runs."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    return tmp


def scanmux_run(tmp_path: Path, reg: Path, behaviors: dict[str, dict], *extra: str) -> int:
    argv = run_argv(corpus(tmp_path / "contracts"), reg, tmp_path / "results", tmp_path / "cc",
                    "--processes", "1", "--mock-fixtures", str(fixtures(tmp_path / "fixtures.yaml", behaviors)),
                    *extra)
    return main(argv)


def test_each_task_sees_exactly_what_a_fresh_volume_shows(tmp_path, seen, tmpdir_volumes):
    reg = registry(tmp_path / "registry", "litter", "harvest", "compiled", "plain")
    assert scanmux_run(tmp_path, reg, {"litter": {"files": JUNK}}) == 0
    assert len(seen) == 4 * 8
    assert len({s.volume for s in seen}) == 1
    for s in seen:
        assert s.tree == s.fresh, s.task.output_dir
        name = "contract.sol" if s.task.contract.id.endswith(".sol") else "contract.rt.hex"
        assert s.tree[name][4] == Path(s.task.contract.id).read_bytes()
        assert ("solc" in s.tree) == (s.task.compiler_version is not None)

    def after(earlier, later) -> bool:
        return any(earlier(a) and later(b) for a, b in zip(seen, seen[1:]))

    size = lambda s: Path(s.task.contract.id).stat().st_size  # noqa: E731
    assert after(lambda a: size(a) < 100, lambda b: size(b) > 1000)
    assert after(lambda a: size(a) > 1000, lambda b: size(b) < 100)
    assert after(lambda a: a.task.tool.tool_id == "litter", lambda b: b.task.tool.tool_id == "harvest")
    for s in seen:
        if s.task.tool.tool_id == "harvest":
            raw = tmp_path / "results" / s.task.output_dir / "raw"
            assert not [name for name in JUNK if (raw / name).exists()], s.task.output_dir
            assert not (raw / "deep").exists()
    assert not list(tmpdir_volumes.iterdir())


@pytest.mark.parametrize("tamper", ["symlink", "hard-link", "mode", "directory"])
def test_tampered_contract_is_restaged_without_writing_through(tmp_path, seen, tmpdir_volumes, monkeypatch, tamper):
    host = tmp_path / "host.txt"
    host.write_text("host file\n")
    run = MockBackend.run

    def tampering(self, image_digest, volume_dir, command, limits):
        outcome = run(self, image_digest, volume_dir, command, limits)
        contract = next(volume_dir.glob("contract.*"))
        if tamper == "mode":
            contract.chmod(0o777)
        elif tamper == "directory":
            contract.unlink()
            (contract / "inner").mkdir(parents=True)
        else:
            contract.unlink()
            (contract.symlink_to if tamper == "symlink" else contract.hardlink_to)(host)
        return outcome

    monkeypatch.setattr(MockBackend, "run", tampering)
    reg = registry(tmp_path / "registry", "plain")
    assert scanmux_run(tmp_path, reg, {}) == 0
    assert host.read_text() == "host file\n"
    assert len(seen) == 8
    assert all(s.tree == s.fresh for s in seen)
    assert len({s.volume for s in seen}) == 1


@pytest.mark.parametrize("tamper", ["output-mode", "volume-mode"])
def test_volume_whose_directories_changed_is_replaced(tmp_path, seen, tmpdir_volumes, monkeypatch, tamper):
    run = MockBackend.run

    def tampering(self, image_digest, volume_dir, command, limits):
        outcome = run(self, image_digest, volume_dir, command, limits)
        (volume_dir / "output" if tamper == "output-mode" else volume_dir).chmod(0o777)
        return outcome

    monkeypatch.setattr(MockBackend, "run", tampering)
    assert scanmux_run(tmp_path, registry(tmp_path / "registry", "plain"), {}) == 0
    assert len(seen) == 8
    assert all(s.tree == s.fresh for s in seen)
    assert len({s.volume for s in seen}) == 8
    assert not list(tmpdir_volumes.iterdir())


def test_timed_out_task_is_followed_by_a_new_volume(tmp_path, seen, tmpdir_volumes):
    reg = registry(tmp_path / "registry", "sleepy", "plain")
    assert scanmux_run(tmp_path, reg, {"sleepy": {"sleep_s": 30}}, "--timeout", "0.05") == 0
    pairs = list(zip(seen, seen[1:]))
    assert any(a.task.tool.tool_id == "plain" for a, _ in pairs)
    for a, b in pairs:
        assert (a.volume == b.volume) == (a.task.tool.tool_id == "plain"), (a.task.output_dir, b.task.output_dir)
    assert not list(tmpdir_volumes.iterdir())


def test_failed_emptying_goes_on_in_a_new_volume(tmp_path, seen, tmpdir_volumes, monkeypatch):
    remove, failed = executor._remove, []

    def fail_once(entry):  # tests run as root, so no permission bit can make a removal fail
        if not failed:
            failed.append(entry.name)
            raise PermissionError(13, "Permission denied", entry.path)
        remove(entry)

    monkeypatch.setattr(executor, "_remove", fail_once)
    reg = registry(tmp_path / "registry", "litter")
    assert scanmux_run(tmp_path, reg, {"litter": {"files": JUNK}}) == 0
    assert failed
    assert [s.volume == seen[0].volume for s in seen] == [True] + [False] * (len(seen) - 1)
    assert len({s.volume for s in seen[1:]}) == 1
    assert all(s.tree == s.fresh for s in seen)
    assert not list(tmpdir_volumes.iterdir())


@pytest.mark.parametrize("ending", ["completed", "infra-error", "interrupted", "killed"])
def test_no_volume_outlives_a_run(tmp_path, seen, tmpdir_volumes, monkeypatch, ending):
    run, calls, stopped = MockBackend.run, [], threading.Event()
    request_stop = Runner.request_stop

    def stop(self):
        request_stop(self)
        stopped.set()

    def ending_run(self, image_digest, volume_dir, command, limits):
        calls.append(volume_dir)
        if ending == "infra-error" and len(calls) == 2:
            raise BackendFailureError("engine went away")
        if ending in ("interrupted", "killed") and len(calls) == 1:
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)  # Ctrl-C
            assert stopped.wait(10)
            if ending == "killed":  # and again: the sleeping container is killed
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        return run(self, image_digest, volume_dir, command, limits)

    monkeypatch.setattr(Runner, "request_stop", stop)
    monkeypatch.setattr(MockBackend, "run", ending_run)
    reg = registry(tmp_path / "registry", "plain", "sleepy")
    sleep = 30 if ending == "killed" else 0
    code = scanmux_run(tmp_path, reg, {"plain": {"sleep_s": sleep}, "sleepy": {"sleep_s": sleep}})
    assert code == {"completed": 0, "infra-error": 3, "interrupted": 130, "killed": 130}[ending]
    assert len(calls) == {"completed": 16, "infra-error": 16, "interrupted": 1, "killed": 1}[ending]
    assert all(Path(v).parent == tmpdir_volumes for v in calls)
    assert not list(tmpdir_volumes.iterdir())


# Counts, by audit hook, the volumes made and removed and the files created
# during one in-process first run, as (kind of event) -> count.
COUNT_EVENTS = """\
import json, os, sys, tempfile
import scanmux.cli

tmp, root, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
tempfile.tempdir = tmp
counts = {}

def hook(event, args):
    if event in ("tempfile.mkdtemp", "shutil.rmtree", "os.rmdir"):
        key = event
    elif event == "open" and isinstance(args[0], str) and args[2] & os.O_CREAT:
        path = args[0]
        if path.startswith(tmp + os.sep):
            key = "created in volumes"
        elif path.startswith(root + os.sep) and os.path.dirname(path) != root:
            key = "created in task folders"
        else:
            return
    else:
        return
    counts[key] = counts.get(key, 0) + 1

sys.addaudithook(hook)
code = scanmux.cli.main(argv)
print(json.dumps({"code": code, **counts}))
"""


def test_volumes_are_made_once_per_worker_and_tasks_create_only_their_own_files(tmp_path, mock_registry_dir):
    contracts = corpus(tmp_path / "contracts")
    tmp, results = tmp_path / "tmp", tmp_path / "results"
    tmp.mkdir()
    written = {"output/a.txt": "a", "b.txt": "b"}
    behaviors = tmp_path / "fixtures.yaml"
    behaviors.write_text(json.dumps({"example.io/mock/delta:1.2": {"files": written}}))
    argv = run_argv(contracts, mock_registry_dir, results, tmp_path / "cc", "--processes", "2",
                    "--mock-fixtures", str(behaviors))
    proc = run_python(COUNT_EVENTS, str(tmp), str(results), *argv)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert counts.pop("code") == 0
    tasks = json.loads((results / "plan.lock").read_text())["tasks"]
    n, delta = len(tasks), sum(t["tool"] == "delta" for t in tasks)
    assert (n, delta) == (28, 8)
    workers = counts["tempfile.mkdtemp"]
    assert 1 <= workers <= 2, counts  # one volume per worker, not one per task
    assert counts["shutil.rmtree"] == workers, counts  # each removed once, when its worker ends
    assert counts["os.rmdir"] == 2 * workers, counts  # output/ and the volume itself
    # raw/stdout, raw/stderr, meta.json, result.json and the done marker, per task
    assert counts["created in task folders"] == 5 * n, counts
    # the files the tool wrote, and one contract file per task
    assert counts["created in volumes"] == len(written) * delta + n, counts
    assert not list(tmp.iterdir())
