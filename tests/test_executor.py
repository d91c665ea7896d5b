"""Container staging, command rendering, mock/engine backends, execute()."""

from __future__ import annotations

import errno
import json
import os
import re
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from scanmux.executor import (
    CONTRACT_FILENAMES,
    ContractChangedError,
    DockerCliBackend,
    MissingCompilerError,
    MockBackend,
    MockToolBehavior,
    BackendFailureError,
    RunOutcome,
    ScratchVolume,
    StagingIOError,
    compiler_stamp,
    execute,
    read_meta,
    read_raw,
    render_command,
    stage_volume,
    write_meta,
)
from scanmux.model import (
    KILLED,
    ContractFormat,
    ContractInput,
    ExecutionRecord,
    LimitHit,
    ResourceLimits,
    Task,
    ToolSpec,
    content_hash,
)
from scanmux.solc import CompilerCache, MockCompilerFetcher, SemVer


def make_contract(tmp_path: Path, fmt=ContractFormat.SOLIDITY, body="contract A {}"):
    ext = {"solidity": ".sol", "creation": ".hex", "runtime": ".rt.hex"}[fmt.value]
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / f"input{ext}"
    path.write_text(body)
    return ContractInput(id=path.as_posix(), format=fmt, content_hash=content_hash(path.read_bytes()))


def make_tool(
    fmt=ContractFormat.SOLIDITY,
    command="scan {contract}",
    needs_compiler=False,
    result_sources=("stdout",),
    aux_files=(),
):
    return ToolSpec(
        tool_id="t",
        version_label="1",
        image_ref="example.io/x:1",
        supported_formats=frozenset({fmt}),
        invocation={fmt: command},
        result_sources=tuple(result_sources),
        parser_ref="t/default",
        needs_compiler=needs_compiler,
        aux_files=tuple(aux_files),
    )


def make_task(tmp_path: Path, *, fmt=ContractFormat.SOLIDITY, compiler=None, **tool_kw):
    tool = make_tool(fmt=fmt, needs_compiler=compiler is not None, **tool_kw)
    contract = make_contract(tmp_path, fmt)
    return Task(
        contract=contract,
        tool=tool,
        output_dir="out/t",
        limits=ResourceLimits(wall_timeout=5.0),
        compiler_version=compiler,
    )


def verified(cache: CompilerCache, version: str) -> dict:
    """The map a run's compiler check records for one cached version: binary and stat stamp."""
    binary = cache.path_for(version)
    return {version: (binary, compiler_stamp(binary))}


class TestStaging:
    def test_contract_lands_under_fixed_name(self, tmp_path, volume):
        for fmt, name in [*CONTRACT_FILENAMES.items(), *CONTRACT_FILENAMES.items()]:  # each format after another
            task = make_task(tmp_path / fmt.value, fmt=fmt)
            path = stage_volume(task, {}, volume)
            assert path == volume.path
            assert sorted(os.listdir(path)) == sorted([name, "output"])
            assert (path / name).read_bytes() == Path(task.contract.id).read_bytes()
            assert (path / "output").is_dir()
            assert path.stat().st_mode & 0o777 == 0o700
            volume.empty()
        assert volume.path == path

    def test_restaged_contract_holds_exactly_its_source(self, tmp_path, volume):
        bodies = ["contract A {}", "contract B {\n" + "    uint x;\n" * 500 + "}\n", "contract C {}"]
        for i, body in enumerate(bodies):  # short, long, short
            contract = make_contract(tmp_path / str(i), body=body)
            task = Task(contract=contract, tool=make_tool(), output_dir="o", limits=ResourceLimits())
            assert (stage_volume(task, {}, volume) / "contract.sol").read_text() == body
            volume.empty()

    def test_contract_changed_since_planning_is_refused(self, tmp_path, volume):
        task = make_task(tmp_path)
        path = stage_volume(task, {}, volume)
        volume.empty()
        Path(task.contract.id).write_text("contract B {}")
        with pytest.raises(ContractChangedError, match=rf"^contract {re.escape(task.contract.id)} changed since"):
            stage_volume(task, {}, volume)
        assert os.listdir(path) == ["output"]  # nothing written

    @pytest.mark.parametrize("tamper", ["symlink", "hard-link", "mode", "fifo", "removed"])
    def test_restaging_never_writes_through_what_a_tool_left(self, tmp_path, volume, tamper):
        host = tmp_path / "host.sol"
        host.write_text("host file\n")
        path = stage_volume(make_task(tmp_path / "a"), {}, volume)
        contract = path / "contract.sol"
        fresh = contract.stat()
        if tamper == "mode":
            contract.chmod(0o600)
        else:
            contract.unlink()
            if tamper == "symlink":
                contract.symlink_to(host)
            elif tamper == "hard-link":
                os.link(host, contract)
            elif tamper == "fifo":
                os.mkfifo(contract)
        task = Task(contract=make_contract(tmp_path / "b", body="contract B { uint x; }"), tool=make_tool(),
                    output_dir="o", limits=ResourceLimits())
        assert stage_volume(task, {}, volume) == path  # no emptying in between: staging alone must cope
        assert host.read_text() == "host file\n"
        st = os.lstat(contract)
        assert (st.st_mode, st.st_nlink, st.st_uid) == (fresh.st_mode, 1, fresh.st_uid)
        assert contract.read_text() == "contract B { uint x; }"

    def test_compiler_staged_executable(self, tmp_path, compiler_cache, volume):
        compiler_cache.store(SemVer.parse("0.8.4"), MockCompilerFetcher.payload(SemVer.parse("0.8.4")))
        task = make_task(tmp_path, compiler="0.8.4")
        solc = stage_volume(task, verified(compiler_cache, "0.8.4"), volume) / "solc"
        assert solc.exists()
        assert solc.stat().st_mode & 0o111

    def test_linked_compiler_leaves_cache_file_unchanged(self, tmp_path, compiler_cache):
        cached = compiler_cache.store(SemVer.parse("0.8.4"), b"solc-0.8.4")
        before = cached.stat()
        with ScratchVolume() as volume:
            path = stage_volume(make_task(tmp_path, compiler="0.8.4"), verified(compiler_cache, "0.8.4"), volume)
            assert os.path.samefile(path / "solc", cached)
            volume.empty()
            assert not (path / "solc").exists()
        after = cached.stat()
        assert cached.read_bytes() == b"solc-0.8.4"
        assert (after.st_mode, after.st_mtime_ns) == (before.st_mode, before.st_mtime_ns)

    def test_write_through_staged_link_is_caught(self, tmp_path, compiler_cache, volume):
        compiler_cache.store(SemVer.parse("0.8.4"), b"solc-0.8.4")
        task = make_task(tmp_path, compiler="0.8.4")
        compilers = verified(compiler_cache, "0.8.4")
        (stage_volume(task, compilers, volume) / "solc").write_bytes(b"evil-0.8.4")
        volume.empty()
        assert compiler_cache.lookup(SemVer.parse("0.8.4")) is None
        with pytest.raises(MissingCompilerError, match="changed since this run verified it"):
            stage_volume(task, compilers, volume)
        assert not (volume.path / "solc").exists()

    def test_same_size_rewrite_right_after_store_and_check_is_refused(self, tmp_path, compiler_cache, volume):
        # No waiting: store's mtime 0 makes the rewrite move the stamp even within one timestamp tick.
        cached = compiler_cache.store(SemVer.parse("0.8.4"), b"solc-0.8.4")
        compilers = verified(compiler_cache, "0.8.4")
        with open(cached, "r+b") as fh:
            fh.write(b"evil")
        before = set(Path(tempfile.gettempdir()).iterdir())
        with pytest.raises(
            MissingCompilerError, match=r"^compiler 0\.8\.4 requested by t:1 changed since this run verified it$"
        ):
            stage_volume(make_task(tmp_path, compiler="0.8.4"), compilers, volume)
        volume.discard()
        after = set(Path(tempfile.gettempdir()).iterdir())
        assert not {p for p in after - before if p.name.startswith("scanmux-")}

    def test_rename_replace_with_identical_bytes_is_refused(self, tmp_path, compiler_cache, volume):
        cached = compiler_cache.store(SemVer.parse("0.8.4"), b"solc-0.8.4")
        compilers = verified(compiler_cache, "0.8.4")
        twin = cached.with_name("twin")
        twin.write_bytes(b"solc-0.8.4")
        os.utime(twin, ns=(0, 0))  # only the inode tells it apart
        os.replace(twin, cached)
        assert compiler_cache.lookup(SemVer.parse("0.8.4")) == cached
        with pytest.raises(MissingCompilerError, match="changed since this run verified it"):
            stage_volume(make_task(tmp_path, compiler="0.8.4"), compilers, volume)

    def test_removed_compiler_is_refused(self, tmp_path, compiler_cache, volume):
        compiler_cache.store(SemVer.parse("0.8.4"), b"solc-0.8.4")
        compilers = verified(compiler_cache, "0.8.4")
        compiler_cache.discard(SemVer.parse("0.8.4"))
        with pytest.raises(MissingCompilerError, match="changed since this run verified it"):
            stage_volume(make_task(tmp_path, compiler="0.8.4"), compilers, volume)

    def test_compiler_copied_when_link_fails(self, tmp_path, compiler_cache, monkeypatch, volume):
        cached = compiler_cache.store(SemVer.parse("0.8.4"), b"solc-0.8.4")

        def cross_device(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "link", cross_device)
        solc = stage_volume(make_task(tmp_path, compiler="0.8.4"), verified(compiler_cache, "0.8.4"), volume) / "solc"
        assert not os.path.samefile(solc, cached)
        assert solc.read_bytes() == b"solc-0.8.4"
        assert solc.stat().st_mode & 0o777 == 0o755

    def test_unverified_compiler_raises_and_cleans_up(self, tmp_path):
        task = make_task(tmp_path, compiler="0.8.4")
        before = set(Path(tempfile.gettempdir()).iterdir())
        with ScratchVolume() as volume, pytest.raises(MissingCompilerError, match="was not verified by this run"):
            stage_volume(task, {}, volume)
        after = set(Path(tempfile.gettempdir()).iterdir())
        assert not {p for p in after - before if p.name.startswith("scanmux-")}

    def test_aux_files_copied(self, tmp_path, volume):
        aux = tmp_path / "rules.txt"
        aux.write_text("r1")
        task_dir = tmp_path / "c"
        task_dir.mkdir()
        tool = make_tool(aux_files=(aux,))
        contract = make_contract(task_dir)
        task = Task(contract=contract, tool=tool, output_dir="o", limits=ResourceLimits())
        assert (stage_volume(task, {}, volume) / "rules.txt").read_text() == "r1"


class TestRenderCommand:
    def test_placeholders(self, tmp_path):
        task = make_task(
            tmp_path, compiler="0.5.0",
            command="run {contract} --solc {compiler} --out {output}",
        )
        assert render_command(task) == "run /work/contract.sol --solc /work/solc --out /work/output"

    def test_bytecode_path(self, tmp_path):
        task = make_task(tmp_path, fmt=ContractFormat.RUNTIME_CODE, command="x {contract}")
        assert render_command(task) == "x /work/contract.rt.hex"


class TestDockerArgv:
    def test_full_shape(self, tmp_path):
        backend = DockerCliBackend("docker")
        argv = backend.run_argv(
            "sha256:abc", tmp_path, "tool --flag value", ResourceLimits(
                wall_timeout=60, memory_bytes=2**30, cpu_quota=1.5
            )
        )
        assert argv == [
            "docker", "run", "--rm",
            "--volume", f"{tmp_path}:/work",
            "--workdir", "/work",
            "--memory", str(2**30),
            "--cpus", "1.5",
            "--network", "none",
            "sha256:abc",
            "tool", "--flag", "value",
        ]

    def test_staged_compiler_mounted_read_only(self, tmp_path, compiler_cache, volume):
        compiler_cache.store(SemVer.parse("0.8.4"), b"solc-0.8.4")
        path = stage_volume(make_task(tmp_path, compiler="0.8.4"), verified(compiler_cache, "0.8.4"), volume)
        argv = DockerCliBackend().run_argv("img", path, "tool", ResourceLimits())
        at = argv.index(f"{path}:/work")
        assert argv[at + 1:at + 3] == ["--volume", f"{path}/solc:/work/solc:ro"]
        (path / "solc").unlink()
        argv = DockerCliBackend().run_argv("img", path, "tool", ResourceLimits())
        assert not any(a.endswith(":ro") for a in argv)

    def test_quoted_command_splits_like_a_shell(self, tmp_path):
        backend = DockerCliBackend()
        argv = backend.run_argv("img", tmp_path, "sh -c 'echo hi'", ResourceLimits())
        assert argv[-3:] == ["sh", "-c", "echo hi"]


class TestMockBackend:
    def test_digest_is_sha256_of_ref(self):
        assert MockBackend.digest_of("example.io/x:1") == (
            "sha256:db15b5470a0410579b429da8d42ba7733dfa6cbe5c2e03aad18b618367f17461"
        )

    def test_pull_then_run(self, tmp_path):
        backend = MockBackend({"img:a": MockToolBehavior(stdout="hi\n", exit_code=3)})
        digest = backend.pull("img:a")
        outcome = backend.run(digest, tmp_path, "cmd", ResourceLimits())
        assert outcome == RunOutcome(exit_code=3, stdout=b"hi\n")
        assert backend.pull_calls == ["img:a"]

    def test_unpulled_digest_rejected(self, tmp_path):
        backend = MockBackend()
        with pytest.raises(BackendFailureError):
            backend.run("sha256:deadbeef", tmp_path, "cmd", ResourceLimits())

    def test_unpullable(self):
        backend = MockBackend(unpullable={"img:bad"})
        with pytest.raises(BackendFailureError):
            backend.pull("img:bad")

    def test_default_behavior_applies_to_unknown_images(self, tmp_path):
        backend = MockBackend()
        outcome = backend.run(backend.pull("img:any"), tmp_path, "c", ResourceLimits())
        assert outcome.exit_code == 0
        assert b"no issues" in outcome.stdout

    def test_no_default_means_unknown_image_fails(self, tmp_path):
        backend = MockBackend(default=None)
        digest = backend.pull("img:any")
        with pytest.raises(BackendFailureError):
            backend.run(digest, tmp_path, "c", ResourceLimits())

    def test_behavior_files_written_to_volume(self, tmp_path):
        backend = MockBackend({"i": MockToolBehavior(files={"output/res.json": "{}"})})
        backend.run(backend.pull("i"), tmp_path, "c", ResourceLimits())
        assert (tmp_path / "output" / "res.json").read_text() == "{}"

    def test_oom(self, tmp_path):
        backend = MockBackend({"i": MockToolBehavior(oom=True)})
        outcome = backend.run(backend.pull("i"), tmp_path, "c", ResourceLimits())
        assert outcome.exit_code == KILLED
        assert outcome.limit_hit is LimitHit.MEMORY
        assert outcome.stderr == b"out of memory\n"

    def test_sleep_under_limit_just_waits(self, tmp_path):
        backend = MockBackend({"i": MockToolBehavior(stdout="ok", sleep_s=0.05)})
        t0 = time.monotonic()
        outcome = backend.run(backend.pull("i"), tmp_path, "c", ResourceLimits(wall_timeout=5))
        assert time.monotonic() - t0 >= 0.05
        assert outcome.limit_hit is LimitHit.NONE
        assert outcome.exit_code == 0

    def test_sleep_past_limit_times_out_with_partial_stdout(self, tmp_path):
        backend = MockBackend({"i": MockToolBehavior(stdout="partial", sleep_s=60)})
        t0 = time.monotonic()
        outcome = backend.run(backend.pull("i"), tmp_path, "c", ResourceLimits(wall_timeout=0.1))
        assert time.monotonic() - t0 < 5
        assert outcome.exit_code == KILLED
        assert outcome.limit_hit is LimitHit.TIMEOUT
        assert outcome.stdout == b"partial"

    def test_abort_interrupts_sleep(self, tmp_path):
        backend = MockBackend({"i": MockToolBehavior(sleep_s=60)})
        digest = backend.pull("i")
        backend.request_abort()
        t0 = time.monotonic()
        outcome = backend.run(digest, tmp_path, "c", ResourceLimits(wall_timeout=60))
        assert time.monotonic() - t0 < 5
        assert outcome.aborted
        assert outcome.exit_code == KILLED

    def test_from_fixtures(self, tmp_path):
        fixture = tmp_path / "behaviors.yaml"
        fixture.write_text(
            "img:a:\n  stdout: 'found\\n'\n  exit_code: 1\nimg:b:\n  oom: true\n"
        )
        backend = MockBackend.from_fixtures(fixture)
        assert backend.behaviors["img:a"].exit_code == 1
        assert backend.behaviors["img:b"].oom

    @pytest.mark.parametrize("raw", [
        {"oom": "false"},
        {"oom": 1},
        {"files": {"../escaped.txt": "x"}},
        {"files": {"output/../../escaped.txt": "x"}},
        {"files": {"/tmp/escaped.txt": "x"}},
        {"files": {"solc": "x"}},  # a hard link to the compiler cache's file
        {"files": {"./solc": "x"}},
    ])
    def test_from_dict_refuses_accidental_oom_and_escaping_files(self, raw):
        with pytest.raises(ValueError):
            MockToolBehavior.from_dict(raw)


class TestCopyOut:
    def test_patterns_and_nesting(self, tmp_path):
        backend = MockBackend()
        (tmp_path / "output").mkdir()
        (tmp_path / "output" / "a.json").write_text("a")
        (tmp_path / "output" / "b.txt").write_text("b")
        (tmp_path / "contract.sol").write_text("c")
        got = backend.copy_out(tmp_path, ["output/*.json"])
        assert got == {"output/a.json": b"a"}

    def test_overlapping_patterns_keep_one_copy(self, tmp_path):
        backend = MockBackend()
        (tmp_path / "r.json").write_text("x")
        got = backend.copy_out(tmp_path, ["*.json", "r.*"])
        assert got == {"r.json": b"x"}

    def test_symlinks_are_not_followed(self, tmp_path):
        host = tmp_path / "host"
        (host / "dir").mkdir(parents=True)
        (host / "secret.json").write_text("host file")
        (host / "dir" / "inner.json").write_text("host dir")
        volume = tmp_path / "volume"
        (volume / "output").mkdir(parents=True)
        (volume / "output" / "real.json").write_text("ok")
        (volume / "output" / "x.json").symlink_to(host / "secret.json")
        (volume / "output" / "d").symlink_to(host / "dir", target_is_directory=True)
        got = MockBackend().copy_out(volume, ["output/*.json", "output/d/*", "output/d"])
        assert got == {"output/real.json": b"ok"}


class TestMeta:
    def test_roundtrip(self, tmp_path):
        record = ExecutionRecord(
            started_at=1700000000.25,
            finished_at=1700000003.75,
            duration=3.5,
            exit_code=KILLED,
            args="tool --x",
            tool_id="t",
            version_label="1",
            image_digest="sha256:ff",
            limit_hit=LimitHit.TIMEOUT,
            result_files=("stdout", "stderr"),
        )
        write_meta(tmp_path, record)
        back = read_meta(tmp_path)
        assert back == record

    def test_extra_fields_survive_as_json(self, tmp_path):
        record = ExecutionRecord(
            started_at=0, finished_at=1, duration=1, exit_code=0, args="a",
            tool_id="t", version_label="1", image_digest="d",
        )
        write_meta(tmp_path, record, {"warnings": ["w"]})
        doc = json.loads((tmp_path / "meta.json").read_text())
        assert doc["warnings"] == ["w"]


class TestExecute:
    def _run(self, tmp_path, behavior, *, result_sources=("stdout",), fmt=ContractFormat.SOLIDITY):
        backend = MockBackend({"example.io/x:1": behavior})
        digest = backend.pull("example.io/x:1")
        task = make_task(tmp_path / "src", fmt=fmt, result_sources=result_sources)
        root = tmp_path / "results"
        with ScratchVolume() as volume:
            record, raw, aborted = execute(
                task, backend, compilers={}, folder=str(root / task.output_dir), image_digest=digest, volume=volume
            )
        return task, root, record, raw, aborted

    def test_writes_raw_and_meta(self, tmp_path):
        behavior = MockToolBehavior(stdout="VULN: Reentrancy at line 3\n", stderr="warn\n")
        task, root, record, raw, aborted = self._run(tmp_path, behavior)
        out = root / task.output_dir
        assert (out / "raw" / "stdout").read_bytes() == behavior.stdout.encode()
        assert (out / "raw" / "stderr").read_bytes() == b"warn\n"
        assert (out / "meta.json").exists()
        assert not aborted
        assert record.exit_code == 0
        assert record.result_files == ("stdout", "stderr")
        assert raw.stdout == behavior.stdout.encode()

    def test_harvests_declared_files(self, tmp_path):
        behavior = MockToolBehavior(files={"output/res.json": '{"ok": true}'})
        task, root, record, raw, _ = self._run(
            tmp_path, behavior, result_sources=("stdout", "output/*.json")
        )
        out = root / task.output_dir
        assert (out / "raw" / "output" / "res.json").read_text() == '{"ok": true}'
        assert raw.files == {"output/res.json": b'{"ok": true}'}
        assert record.result_files == ("stdout", "stderr", "output/res.json")

    def test_missing_declared_file_noted(self, tmp_path):
        behavior = MockToolBehavior(stdout="done\n")
        task, root, record, raw, _ = self._run(
            tmp_path, behavior, result_sources=("stdout", "output/*.json")
        )
        doc = json.loads((root / task.output_dir / "meta.json").read_text())
        assert doc["missing_results"] == ["output/*.json"]

    def test_symlink_left_by_the_tool_is_not_harvested(self, tmp_path, volume):
        host_file = tmp_path / "host.json"
        host_file.write_text('{"from": "host"}')

        class LinkingBackend(MockBackend):
            def run(self, image_digest, volume_dir, command, limits):
                (volume_dir / "output" / "x.json").symlink_to(host_file)
                return super().run(image_digest, volume_dir, command, limits)

        backend = LinkingBackend()
        digest = backend.pull("example.io/x:1")
        task = make_task(tmp_path / "src", result_sources=("stdout", "output/*.json"))
        root = tmp_path / "results"
        record, raw, _ = execute(task, backend, compilers={}, folder=str(root / task.output_dir), image_digest=digest,
                                 volume=volume)
        out = root / task.output_dir
        assert raw.files == {}
        assert record.result_files == ("stdout", "stderr")
        assert json.loads((out / "meta.json").read_text())["missing_results"] == ["output/*.json"]
        assert not (out / "raw" / "output").exists()

    def test_stale_raw_dir_replaced(self, tmp_path, volume):
        behavior = MockToolBehavior(stdout="fresh\n")
        backend = MockBackend({"example.io/x:1": behavior})
        digest = backend.pull("example.io/x:1")
        task = make_task(tmp_path / "src")
        root = tmp_path / "results"
        stale = root / task.output_dir / "raw"
        stale.mkdir(parents=True)
        (stale / "leftover").write_text("junk")
        execute(task, backend, compilers={}, folder=str(root / task.output_dir), image_digest=digest, volume=volume)
        assert not (stale / "leftover").exists()
        assert (stale / "stdout").read_bytes() == b"fresh\n"

    def test_timeout_recorded(self, tmp_path, volume):
        behavior = MockToolBehavior(stdout="partial", sleep_s=60)
        backend = MockBackend({"example.io/x:1": behavior})
        digest = backend.pull("example.io/x:1")
        contract = make_contract(tmp_path / "src")
        tool = make_tool()
        task = Task(
            contract=contract, tool=tool, output_dir="o",
            limits=ResourceLimits(wall_timeout=0.1),
        )
        record, raw, aborted = execute(
            task, backend, compilers={}, folder=str(tmp_path / "r" / task.output_dir), image_digest=digest,
            volume=volume,
        )
        assert record.exit_code == KILLED
        assert record.limit_hit is LimitHit.TIMEOUT
        assert raw.stdout == b"partial"
        assert volume.path is None  # its container may still hold it

    def test_read_raw_reconstructs(self, tmp_path):
        behavior = MockToolBehavior(
            stdout="s\n", stderr="e\n", files={"output/r.json": "[]"}
        )
        task, root, record, raw, _ = self._run(
            tmp_path, behavior, result_sources=("stdout", "stderr", "output/*.json")
        )
        back = read_raw(root / task.output_dir, record.result_files)
        assert back == raw

    def test_volume_is_emptied_for_the_next_task(self, tmp_path, volume):
        backend = MockBackend({"example.io/x:1": MockToolBehavior(files={"output/r.json": "[]", "junk/x": "j"})})
        digest = backend.pull("example.io/x:1")
        task = make_task(tmp_path / "src")
        execute(task, backend, compilers={}, folder=str(tmp_path / "r" / task.output_dir), image_digest=digest,
                volume=volume)
        assert os.listdir(volume.path) == ["output"]
        assert os.listdir(volume.path / "output") == []

    def test_volume_is_discarded_when_the_backend_raises(self, tmp_path, volume):
        backend = MockBackend(default=None)  # no scripted behavior: run raises
        digest = backend.pull("example.io/x:1")
        with pytest.raises(BackendFailureError):
            execute(make_task(tmp_path / "src"), backend, compilers={}, folder=str(tmp_path / "r" / "out" / "t"),
                    image_digest=digest, volume=volume)
        assert volume.path is None

    @pytest.mark.parametrize("failure", ["missing-compiler", "missing-aux-file"])
    def test_volume_is_discarded_when_staging_fails(self, tmp_path, volume, failure):
        backend = MockBackend()
        digest = backend.pull("example.io/x:1")
        if failure == "missing-compiler":
            task, error = make_task(tmp_path / "src", compiler="0.8.4"), MissingCompilerError
        else:
            task, error = make_task(tmp_path / "src", aux_files=(tmp_path / "gone.txt",)), StagingIOError
        with pytest.raises(error):
            execute(task, backend, compilers={}, folder=str(tmp_path / "r" / task.output_dir), image_digest=digest,
                volume=volume)
        assert volume.path is None  # the next task stages into a new volume
        assert not (tmp_path / "r").exists()

    def test_volume_cleaned_up(self, tmp_path):
        before = {p.name for p in Path(tempfile.gettempdir()).iterdir()}
        self._run(tmp_path, MockToolBehavior(stdout="x"))
        after = {p.name for p in Path(tempfile.gettempdir()).iterdir()}
        assert not {n for n in after - before if n.startswith("scanmux-")}
