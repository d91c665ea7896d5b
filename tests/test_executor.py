"""Container staging, command rendering, mock/engine backends, execute()."""

from __future__ import annotations

import errno
import json
import os
import shutil
import time
from pathlib import Path

import pytest

from scanmux.executor import (
    CONTRACT_FILENAMES,
    DockerCliBackend,
    MissingCompilerError,
    MockBackend,
    MockToolBehavior,
    BackendFailureError,
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

from helpers import backdate


def make_contract(tmp_path: Path, fmt=ContractFormat.SOLIDITY, body="contract A {}"):
    ext = {"solidity": ".sol", "creation": ".hex", "runtime": ".rt.hex"}[fmt.value]
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / f"input{ext}"
    path.write_text(body)
    return ContractInput(
        id=path.name, source_path=path, format=fmt, content_hash=content_hash(path.read_bytes())
    )


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


class TestStaging:
    def test_contract_lands_under_fixed_name(self, tmp_path, compiler_cache):
        for fmt, name in CONTRACT_FILENAMES.items():
            task = make_task(tmp_path / fmt.value, fmt=fmt)
            volume = stage_volume(task, compiler_cache)
            try:
                assert (volume / name).read_bytes() == task.contract.source_path.read_bytes()
                assert (volume / "output").is_dir()
            finally:
                import shutil

                shutil.rmtree(volume)

    def test_compiler_staged_executable(self, tmp_path, compiler_cache):
        compiler_cache.store(SemVer.parse("0.8.4"), MockCompilerFetcher.payload(SemVer.parse("0.8.4")))
        task = make_task(tmp_path, compiler="0.8.4")
        volume = stage_volume(task, compiler_cache)
        try:
            solc = volume / "solc"
            assert solc.exists()
            assert solc.stat().st_mode & 0o111
        finally:
            import shutil

            shutil.rmtree(volume)

    def test_linked_compiler_leaves_cache_file_unchanged(self, tmp_path, compiler_cache):
        cached = compiler_cache.store(SemVer.parse("0.8.4"), b"solc-0.8.4")
        backdate(cached)
        before = cached.stat()
        volume = stage_volume(make_task(tmp_path, compiler="0.8.4"), compiler_cache)
        try:
            assert os.path.samefile(volume / "solc", cached)
        finally:
            shutil.rmtree(volume)
        after = cached.stat()
        assert cached.read_bytes() == b"solc-0.8.4"
        assert (after.st_mode, after.st_mtime_ns) == (before.st_mode, before.st_mtime_ns)

    def test_write_through_staged_link_is_caught(self, tmp_path, compiler_cache):
        backdate(compiler_cache.store(SemVer.parse("0.8.4"), b"solc-0.8.4"))
        task = make_task(tmp_path, compiler="0.8.4")
        volume = stage_volume(task, compiler_cache)
        try:
            (volume / "solc").write_bytes(b"evil-0.8.4")
        finally:
            shutil.rmtree(volume)
        assert compiler_cache.lookup(SemVer.parse("0.8.4")) is None
        with pytest.raises(MissingCompilerError):
            stage_volume(task, compiler_cache)

    def test_compiler_copied_when_link_fails(self, tmp_path, compiler_cache, monkeypatch):
        cached = compiler_cache.store(SemVer.parse("0.8.4"), b"solc-0.8.4")

        def cross_device(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "link", cross_device)
        volume = stage_volume(make_task(tmp_path, compiler="0.8.4"), compiler_cache)
        try:
            solc = volume / "solc"
            assert not os.path.samefile(solc, cached)
            assert solc.read_bytes() == b"solc-0.8.4"
            assert solc.stat().st_mode & 0o777 == 0o755
        finally:
            shutil.rmtree(volume)

    def test_missing_compiler_raises_and_cleans_up(self, tmp_path, compiler_cache):
        task = make_task(tmp_path, compiler="0.8.4")
        before = set(Path(tempfile_dir()).iterdir())
        with pytest.raises(MissingCompilerError):
            stage_volume(task, compiler_cache)
        after = set(Path(tempfile_dir()).iterdir())
        assert not {p for p in after - before if p.name.startswith("scanmux-")}

    def test_aux_files_copied(self, tmp_path, compiler_cache):
        aux = tmp_path / "rules.txt"
        aux.write_text("r1")
        task_dir = tmp_path / "c"
        task_dir.mkdir()
        tool = make_tool(aux_files=(aux,))
        contract = make_contract(task_dir)
        task = Task(contract=contract, tool=tool, output_dir="o", limits=ResourceLimits())
        volume = stage_volume(task, compiler_cache)
        try:
            assert (volume / "rules.txt").read_text() == "r1"
        finally:
            import shutil

            shutil.rmtree(volume)


def tempfile_dir() -> str:
    import tempfile

    return tempfile.gettempdir()


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

    def test_staged_compiler_mounted_read_only(self, tmp_path, compiler_cache):
        compiler_cache.store(SemVer.parse("0.8.4"), b"solc-0.8.4")
        volume = stage_volume(make_task(tmp_path, compiler="0.8.4"), compiler_cache)
        try:
            argv = DockerCliBackend().run_argv("img", volume, "tool", ResourceLimits())
            at = argv.index(f"{volume}:/work")
            assert argv[at + 1:at + 3] == ["--volume", f"{volume}/solc:/work/solc:ro"]
            (volume / "solc").unlink()
            argv = DockerCliBackend().run_argv("img", volume, "tool", ResourceLimits())
            assert not any(a.endswith(":ro") for a in argv)
        finally:
            shutil.rmtree(volume)

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
        assert outcome.exit_code == 3
        assert outcome.stdout == b"hi\n"
        assert backend.pull_calls == ["img:a"]
        assert backend.run_calls == ["img:a"]

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
        path = tmp_path / "meta.json"
        write_meta(path, record)
        back = read_meta(path)
        assert back == record

    def test_extra_fields_survive_as_json(self, tmp_path):
        record = ExecutionRecord(
            started_at=0, finished_at=1, duration=1, exit_code=0, args="a",
            tool_id="t", version_label="1", image_digest="d",
        )
        path = tmp_path / "meta.json"
        write_meta(path, record, {"warnings": ["w"]})
        doc = json.loads(path.read_text())
        assert doc["warnings"] == ["w"]


class TestExecute:
    def _run(self, tmp_path, behavior, *, result_sources=("stdout",), fmt=ContractFormat.SOLIDITY):
        backend = MockBackend({"example.io/x:1": behavior})
        digest = backend.pull("example.io/x:1")
        task = make_task(tmp_path / "src", fmt=fmt, result_sources=result_sources)
        root = tmp_path / "results"
        cache = CompilerCache(tmp_path / "cc")
        record, raw, aborted = execute(
            task, backend, cache=cache, results_root=root, image_digest=digest
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

    def test_symlink_left_by_the_tool_is_not_harvested(self, tmp_path):
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
        record, raw, _ = execute(
            task, backend, cache=CompilerCache(tmp_path / "cc"), results_root=root, image_digest=digest
        )
        out = root / task.output_dir
        assert raw.files == {}
        assert record.result_files == ("stdout", "stderr")
        assert json.loads((out / "meta.json").read_text())["missing_results"] == ["output/*.json"]
        assert not (out / "raw" / "output").exists()

    def test_stale_raw_dir_replaced(self, tmp_path):
        behavior = MockToolBehavior(stdout="fresh\n")
        backend = MockBackend({"example.io/x:1": behavior})
        digest = backend.pull("example.io/x:1")
        task = make_task(tmp_path / "src")
        root = tmp_path / "results"
        stale = root / task.output_dir / "raw"
        stale.mkdir(parents=True)
        (stale / "leftover").write_text("junk")
        execute(task, backend, cache=CompilerCache(tmp_path / "cc"), results_root=root, image_digest=digest)
        assert not (stale / "leftover").exists()
        assert (stale / "stdout").read_bytes() == b"fresh\n"

    def test_timeout_recorded(self, tmp_path):
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
            task, backend, cache=CompilerCache(tmp_path / "cc"),
            results_root=tmp_path / "r", image_digest=digest,
        )
        assert record.exit_code == KILLED
        assert record.limit_hit is LimitHit.TIMEOUT
        assert raw.stdout == b"partial"

    def test_read_raw_reconstructs(self, tmp_path):
        behavior = MockToolBehavior(
            stdout="s\n", stderr="e\n", files={"output/r.json": "[]"}
        )
        task, root, record, raw, _ = self._run(
            tmp_path, behavior, result_sources=("stdout", "stderr", "output/*.json")
        )
        back = read_raw(root / task.output_dir, record.result_files)
        assert back == raw

    def test_volume_cleaned_up(self, tmp_path):
        import tempfile

        before = {p.name for p in Path(tempfile.gettempdir()).iterdir()}
        self._run(tmp_path, MockToolBehavior(stdout="x"))
        after = {p.name for p in Path(tempfile.gettempdir()).iterdir()}
        assert not {n for n in after - before if n.startswith("scanmux-")}
