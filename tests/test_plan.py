"""Planning: discovery, output-dir allocation, canonical args, plan locks."""

from __future__ import annotations

import json
import os
import re
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanmux.executor import MockBackend
from scanmux.model import ContractFormat, HarnessError, ResourceLimits
from scanmux.plan import (
    DEFAULT_SCHEME,
    PLAN_LOCK_FILENAME,
    LockedTask,
    NoMatchesError,
    PlanningError,
    SchemeError,
    args_digest,
    build_plan,
    canonicalize_args,
    discover_contracts,
    filename_stem,
    plan_output_dir,
    plan_to_doc,
    read_plan_lock,
    validate_scheme,
    write_plan_lock,
)
from scanmux.paths import dump_json
from scanmux.registry import load_registry
from scanmux.reporting import SUMMARY_FILENAME
from scanmux.solc import MockCompilerFetcher, PragmaSyntaxError

from helpers import discover_corpus, plan_for, write_corpus, write_tool_dir


def test_discover_sorted_and_typed(corpus_dir):
    contracts = discover_corpus(corpus_dir)
    assert len(contracts) == 20
    assert [c.id for c in contracts] == sorted(c.id for c in contracts)
    by_fmt = {f: sum(1 for c in contracts if c.format is f) for f in ContractFormat}
    assert by_fmt[ContractFormat.SOLIDITY] == 12
    assert by_fmt[ContractFormat.CREATION_BYTECODE] == 4
    assert by_fmt[ContractFormat.RUNTIME_CODE] == 4


def test_discover_extracts_pragmas(corpus_dir):
    contracts = discover_corpus(corpus_dir)
    sol = [c for c in contracts if c.format is ContractFormat.SOLIDITY]
    assert all(c.pragma_constraint is not None for c in sol)
    hexes = [c for c in contracts if c.format is not ContractFormat.SOLIDITY]
    assert all(c.pragma_constraint is None for c in hexes)


def test_discover_no_match():
    with pytest.raises(NoMatchesError):
        discover_contracts(["/nonexistent/nowhere/*.sol"])
    with pytest.raises(NoMatchesError):
        discover_contracts([])


def test_discover_dedupes_same_file(tmp_path: Path):
    p = tmp_path / "a.sol"
    p.write_text("pragma solidity ^0.8.0;\ncontract A {}")
    contracts = discover_contracts([str(tmp_path / "*.sol"), str(p)])
    assert len(contracts) == 1


def test_discover_dedupes_symlink(tmp_path: Path):
    p = tmp_path / "a.sol"
    p.write_text("contract A {}")
    os.symlink(p, tmp_path / "alias.sol")
    contracts = discover_contracts([str(tmp_path / "*.sol")])
    assert len(contracts) == 1


def test_discover_surfaces_pragma_syntax_with_path(tmp_path: Path):
    p = tmp_path / "broken.sol"
    p.write_text("pragma solidity ???;\n")
    with pytest.raises(PragmaSyntaxError) as info:
        discover_contracts([str(p)])
    assert "broken.sol" in str(info.value)


def test_discover_format_override(tmp_path: Path):
    p = tmp_path / "payload.dat"
    p.write_text("6080")
    contracts = discover_contracts([str(p)], ContractFormat.RUNTIME_CODE)
    assert contracts[0].format is ContractFormat.RUNTIME_CODE


@pytest.mark.parametrize("cid,stem", [
    ("dir/a.sol", "a"),
    ("b.hex", "b"),
    ("c.rt.hex", "c"),
    ("x.y.sol", "x.y"),
    ("noext", "noext"),
    (".sol", ".sol"),  # nothing left to strip to
])
def test_filename_stem(cid, stem):
    assert filename_stem(cid) == stem


def _pathlib_filename_stem(contract_id: str) -> str:
    """filename_stem as it was written with PurePosixPath, the reference for the string version."""
    name = PurePosixPath(contract_id).name
    for ext in (".rt.hex", ".hex", ".sol"):
        if name.endswith(ext) and len(name) > len(ext):
            return name[: -len(ext)]
    return PurePosixPath(name).stem or name


@pytest.mark.parametrize("cid", [
    "dir/sub/a.sol", "a.b.sol", "x.rt.hex", "dir/x.rt.hex", "y.hex", ".hidden", "dir/.hidden",
    "notes.txt", "dir/a.tar.gz", "README", "dir/README", ".sol", ".rt.hex", "v1.2/c", "a..sol",
])
def test_filename_stem_matches_pathlib(cid):
    assert filename_stem(cid) == _pathlib_filename_stem(cid)


def test_validate_scheme_accepts_known():
    validate_scheme(DEFAULT_SCHEME)
    validate_scheme("{filename}/{toolid}/{toolversion}")
    validate_scheme(".{filename}/{toolid}..")  # dots inside a part are a folder name like any other
    validate_scheme("a}}b/{toolid}")  # an escaped brace renders one "}"


@pytest.mark.parametrize("scheme", [
    "", "{bogus}", "{filename", "results/{", "{filename}}/{toolid}", "{filename}/x}",
    "{filename}/../{toolid}", "{filename}/./{toolid}", "{filename}//{toolid}", "{filename}/", "/abs/{filename}", "..",
])
def test_validate_scheme_rejects(scheme):
    with pytest.raises(SchemeError):
        validate_scheme(scheme)


def _stub_contract(cid):
    from scanmux.model import ContractInput

    return ContractInput(
        id=cid, format=ContractFormat.SOLIDITY, content_hash="0" * 64
    )


def _stub_tool(tool_id="t", version="1.0"):
    from scanmux.model import ToolSpec

    return ToolSpec(
        tool_id=tool_id,
        version_label=version,
        image_ref=f"img/{tool_id}",
        supported_formats=frozenset({ContractFormat.SOLIDITY}),
        invocation={ContractFormat.SOLIDITY: "x {contract}"},
        result_sources=("stdout",),
        parser_ref=f"{tool_id}/default",
    )


def test_output_dir_collision_suffixes():
    taken: set[str] = set()
    tool = _stub_tool()
    dirs = [
        plan_output_dir("{filename}/{toolid}", _stub_contract(cid), tool, taken)
        for cid in ("x/a.sol", "w/a_1.sol", "y/a.sol", "z/a.sol")
    ]
    assert dirs == ["a/t", "a_1/t", "a_2/t", "a_3/t"]


def test_output_dir_suffix_goes_on_filename_segment():
    taken: set[str] = set()
    tool = _stub_tool()
    first = plan_output_dir("{runid}/{filename}/{toolid}", _stub_contract("p/a.sol"), tool, taken, "run-1")
    second = plan_output_dir("{runid}/{filename}/{toolid}", _stub_contract("q/a.sol"), tool, taken, "run-1")
    assert first == "run-1/a/t"
    assert second == "run-1/a_1/t"


def test_output_dir_without_filename_placeholder_suffixes_whole_path():
    taken: set[str] = set()
    a = plan_output_dir("{toolid}", _stub_contract("a.sol"), _stub_tool(), taken)
    b = plan_output_dir("{toolid}", _stub_contract("b.sol"), _stub_tool(), taken)
    c = plan_output_dir("{toolid}", _stub_contract("c.sol"), _stub_tool(), taken)
    assert a == "t"
    assert b == "t_1"
    assert c == "t_2"


def test_canonicalize_args_is_order_independent():
    a = canonicalize_args(tools=["oyente", "mythril"], files=["b.sol", "a.sol"])
    b = canonicalize_args(tools=["mythril", "oyente"], files=["a.sol", "b.sol"])
    assert a == b


@pytest.mark.parametrize("request_,names", [
    (["alpha"], ["alpha"]),
    (["alpha:1.0"], ["alpha:1.0"]),
    (["alpha:1.0", "alpha:2.0"], ["alpha"]),
], ids=["id", "one-version", "every-version"])
def test_build_plan_names_the_run_by_its_resolved_tools(tmp_path, compiler_cache, release_index, request_, names):
    # alpha in two versions next to bravo: an id names a tool only when all its versions are chosen
    reg = tmp_path / "registry"
    for version in ("1.0", "2.0"):
        write_tool_dir(reg, "alpha", version, ["creation"], {"creation": "alpha {contract}"}).rename(
            reg / f"alpha-{version}"
        )
    write_tool_dir(reg, "bravo", "2.1", ["creation"], {"creation": "bravo {contract}"})
    contracts = discover_corpus(write_corpus(tmp_path / "c", n_sol=0, n_creation=1, n_runtime=0))
    plan = plan_for(contracts, load_registry(reg), compiler_cache, release_index, MockBackend(), tools=request_)
    assert json.loads(plan.created_with_args)["tools"] == names


def test_canonicalize_args_sensitive_to_run_shape():
    base = canonicalize_args(seed=0)
    assert canonicalize_args(seed=1) != base
    assert canonicalize_args(limits=ResourceLimits(wall_timeout=1.0)) != base
    assert canonicalize_args(scheme="{filename}") != base
    assert canonicalize_args(registry_digest="abc") != base


@given(st.lists(st.sampled_from(["a.sol", "b.sol", "c.hex", "d/e.sol"]), max_size=6))
def test_canonicalize_args_file_set_semantics(files):
    # duplicates and ordering must not matter
    import random as _random

    shuffled = list(files)
    _random.Random(7).shuffle(shuffled)
    assert canonicalize_args(files=files) == canonicalize_args(files=shuffled + shuffled)


def test_args_digest_shape():
    d = args_digest(canonicalize_args())
    assert len(d) == 16
    assert all(c in "0123456789abcdef" for c in d)
    assert d == args_digest(canonicalize_args())


def test_build_plan_task_and_skip_counts(
    corpus_dir, mock_registry, compiler_cache, release_index
):
    contracts = discover_corpus(corpus_dir)
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    # 12 sol x {alpha,bravo,delta} + 4 creation x {bravo,echo} + 4 runtime x {bravo,charlie,delta,echo}
    assert len(plan.tasks) == 60
    assert plan.skips == 40
    assert len(plan.tasks) + plan.skips == 100


def test_build_plan_runid_and_digest(corpus_dir, mock_registry, compiler_cache, release_index):
    contracts = discover_corpus(corpus_dir)
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    assert plan.runid == f"run-{plan.args_digest[:8]}"
    assert len(plan.args_digest) == 16


def test_build_plan_output_dirs_distinct(corpus_dir, mock_registry, compiler_cache, release_index):
    contracts = discover_corpus(corpus_dir)
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    dirs = [t.output_dir for t in plan.tasks]
    assert len(set(dirs)) == len(dirs)
    assert all(d.startswith(plan.runid + "/") for d in dirs)


def test_build_plan_resolves_compilers_once_per_constraint(
    corpus_dir, mock_registry, compiler_cache, release_index
):
    from scanmux.solc import MockCompilerFetcher

    contracts = discover_corpus(corpus_dir)
    fetcher = MockCompilerFetcher()
    plan = build_plan(
        contracts, mock_registry, ("all",), DEFAULT_SCHEME, ResourceLimits(), 0,
        cache=compiler_cache, fetcher=fetcher, release_index=release_index,
        backend=MockBackend(), files=[c.id for c in contracts], backend_name="mock",
    )
    needed = {t.compiler_version for t in plan.tasks if t.compiler_version}
    assert sorted(str(v) for v in fetcher.calls) == sorted(needed)


def test_build_plan_missing_pragma_warns(tmp_path, mock_registry, compiler_cache, release_index):
    src = tmp_path / "nopragma.sol"
    src.write_text("contract C {}")
    contracts = discover_contracts([str(src)])
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    compiled = [t for t in plan.tasks if t.tool.needs_compiler]
    assert compiled
    top = str(max(release_index.versions))
    for task in compiled:
        assert task.compiler_version == top
        assert any("no pragma" in w for w in task.warnings)


def test_build_plan_unsatisfiable_pragma_aborts(
    tmp_path, mock_registry, compiler_cache, release_index
):
    src = tmp_path / "ancient.sol"
    src.write_text("pragma solidity <0.4.0;\ncontract C {}")
    contracts = discover_contracts([str(src)])
    with pytest.raises(PlanningError) as info:
        plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    assert "ancient.sol" in "\n".join(info.value.problems)


def test_build_plan_unpullable_image_aborts(
    corpus_dir, mock_registry, compiler_cache, release_index
):
    backend = MockBackend(unpullable={"example.io/mock/bravo:2.1"})
    contracts = discover_corpus(corpus_dir)
    with pytest.raises(PlanningError) as info:
        plan_for(contracts, mock_registry, compiler_cache, release_index, backend)
    assert "bravo" in "\n".join(info.value.problems)


def test_build_plan_pulls_only_planned_images(
    corpus_dir, mock_registry, compiler_cache, release_index
):
    backend = MockBackend()
    contracts = [c for c in discover_corpus(corpus_dir) if c.format is ContractFormat.SOLIDITY]
    plan_for(contracts, mock_registry, compiler_cache, release_index, backend, tools=["alpha"])
    assert backend.pull_calls == ["example.io/mock/alpha:1.0"]


def test_build_plan_shares_one_compiler_string_per_version(
    corpus_dir, mock_registry, compiler_cache, release_index
):
    (corpus_dir / "nopragma.sol").write_text("contract C {}")
    contracts = discover_corpus(corpus_dir)
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    compiled = [t for t in plan.tasks if t.compiler_version]
    by_version = {}
    for task in compiled:
        assert task.compiler_version is by_version.setdefault(task.compiler_version, task.compiler_version)
    assert len({t.contract.pragma_constraint for t in compiled}) > len(by_version)  # a version serves two constraints
    warned = [t.warnings for t in compiled if t.warnings]
    assert len(warned) > 1 and all(w is warned[0] for w in warned)


def test_plan_lock_roundtrip(tmp_path, corpus_dir, mock_registry, compiler_cache, release_index):
    contracts = discover_corpus(corpus_dir)
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    root = tmp_path / "results"
    assert write_plan_lock(plan, root) is None
    lock = read_plan_lock(root)
    assert lock.args_digest == plan.args_digest
    assert lock.registry_path == plan.registry_path
    assert lock.tasks == [LockedTask.of(t) for t in plan.tasks]
    assert len(lock.tasks) == 60
    assert lock.skips == 40
    assert json.loads((root / PLAN_LOCK_FILENAME).read_text())["runid"] == plan.runid
    assert (root / PLAN_LOCK_FILENAME).read_text().endswith("\n")


def test_plan_lock_task_entries_hold_only_what_readers_use(
    tmp_path, corpus_dir, mock_registry, compiler_cache, release_index
):
    contracts = discover_corpus(corpus_dir)
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    write_plan_lock(plan, tmp_path)
    written = json.loads((tmp_path / PLAN_LOCK_FILENAME).read_text())
    assert written["version"] == 3
    assert {frozenset(entry) for entry in written["tasks"]} == {
        frozenset({"output_dir", "contract", "tool", "tool_version", "compiler"})
    }
    assert written["skips"] == 40
    assert [LockedTask(**entry) for entry in written["tasks"]] == read_plan_lock(tmp_path).tasks


def test_plan_lock_of_version_1_reads_as_the_same_rows(
    tmp_path, corpus_dir, mock_registry, compiler_cache, release_index
):
    contracts = discover_corpus(corpus_dir)
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    write_plan_lock(plan, tmp_path)
    version_3 = read_plan_lock(tmp_path)
    path = tmp_path / PLAN_LOCK_FILENAME
    doc = json.loads(path.read_text())
    by_dir = {t.output_dir: t for t in plan.tasks}
    for entry in doc["tasks"]:  # version 1 repeated these facts in every task entry
        task = by_dir[entry["output_dir"]]
        entry |= {
            "source_path": str(Path(task.contract.id)),
            "format": task.contract.format.value,
            "content_hash": task.contract.content_hash,
            "pragma": str(task.contract.pragma_constraint) if task.contract.pragma_constraint else None,
            "image": task.tool.image_ref,
            "warnings": list(task.warnings),
            "limits": {"timeout_s": task.limits.wall_timeout, "memory_bytes": task.limits.memory_bytes,
                       "cpu": task.limits.cpu_quota},
        }
    doc["skips"] = [{"contract": "c.hex", "tool": "alpha:1.0", "reason": "does not support hex"}] * doc["skips"]
    doc["version"] = 1
    path.write_text(dump_json(doc))
    version_1 = read_plan_lock(tmp_path)
    assert version_1 == version_3
    assert all(type(task) is LockedTask for task in version_1.tasks)


def test_plan_lock_byte_identical_across_rebuilds(
    tmp_path, corpus_dir, mock_registry, compiler_cache, release_index
):
    contracts = discover_corpus(corpus_dir)
    blobs = []
    for i in range(3):
        plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
        root = tmp_path / f"root{i}"
        write_plan_lock(plan, root)
        blobs.append((root / PLAN_LOCK_FILENAME).read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_plan_lock_refuses_foreign_root(
    tmp_path, corpus_dir, mock_registry, compiler_cache, release_index
):
    contracts = discover_corpus(corpus_dir)
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    root = tmp_path / "results"
    write_plan_lock(plan, root)
    # a lock written by some other invocation occupies the root
    (root / "plan.lock").write_text(json.dumps({"args_digest": "feedfacefeedface", "tasks": [], "skips": []}))
    (root / SUMMARY_FILENAME).write_text("{}\n")
    with pytest.raises(PlanningError):
        write_plan_lock(plan, root)
    assert (root / SUMMARY_FILENAME).read_text() == "{}\n"  # the reports belong to the other invocation


def test_plan_lock_interrupted_rewrite_keeps_the_previous_lock(
    tmp_path, monkeypatch, corpus_dir, mock_registry, compiler_cache, release_index
):
    contracts = discover_corpus(corpus_dir)
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    root = tmp_path / "results"
    write_plan_lock(plan, root)
    before = (root / PLAN_LOCK_FILENAME).read_bytes()

    def killed(src, dst):
        raise OSError("killed during the rewrite")

    monkeypatch.setattr(os, "replace", killed)
    # an unchanged plan is not rewritten, so move the registry
    with pytest.raises(HarnessError, match="plan.lock: cannot be written: killed"):
        write_plan_lock(plan._replace(registry_path=str(tmp_path / "moved")), root)
    monkeypatch.undo()
    assert (root / "plan.lock").read_bytes() == before
    assert [p.name for p in root.iterdir()] == ["plan.lock"]


@pytest.mark.parametrize("change", [None, "version-1", "registry-moved", "other-byte-form"])
def test_plan_lock_is_rewritten_only_when_its_bytes_changed(
    tmp_path, corpus_dir, mock_registry, compiler_cache, release_index, change
):
    contracts = discover_corpus(corpus_dir)
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    root = tmp_path / "results"
    path = root / PLAN_LOCK_FILENAME
    write_plan_lock(plan, root)
    if change == "version-1":
        path.write_text(path.read_text().replace('"version": 3', '"version": 1'))
    if change == "registry-moved":
        plan = plan._replace(registry_path=str(tmp_path / "moved"))
    if change == "other-byte-form":  # the same document, compact: no longer kept as it is
        path.write_text(json.dumps(json.loads(path.read_text())))
    summary = root / SUMMARY_FILENAME
    summary.write_text("{}\n")
    before = os.stat(path)
    summary_before = os.stat(summary)
    assert write_plan_lock(plan, root) is None
    after = os.stat(path)
    assert path.read_bytes() == dump_json(plan_to_doc(plan)).encode()
    written = json.loads(path.read_text())
    assert written["registry_path"] == plan.registry_path and written["version"] == 3
    unchanged = (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert unchanged == (change is None)
    if change is None:  # the reports were built from this very lock
        summary_after = os.stat(summary)
        assert (summary_after.st_ino, summary_after.st_mtime_ns) == (summary_before.st_ino, summary_before.st_mtime_ns)
    else:  # withdrawn with the lock they were built from
        assert not summary.exists()


def test_plan_lock_that_holds_the_plan_is_not_parsed(
    tmp_path, corpus_dir, mock_registry, compiler_cache, release_index, monkeypatch
):
    contracts = discover_corpus(corpus_dir)
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    write_plan_lock(plan, tmp_path)
    monkeypatch.setattr(json, "loads", lambda *args, **kwargs: pytest.fail("the lock was parsed"))
    assert write_plan_lock(plan, tmp_path) is None


def test_plan_lock_torn_is_an_error_naming_it(
    tmp_path, corpus_dir, mock_registry, compiler_cache, release_index
):
    contracts = discover_corpus(corpus_dir)
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    root = tmp_path / "results"
    write_plan_lock(plan, root)
    path = root / PLAN_LOCK_FILENAME
    for damaged in (path.read_bytes()[:300], b"[" * 100_000 + b"]" * 100_000):  # torn; nested too deep to decode
        path.write_bytes(damaged)
        for call in (lambda: read_plan_lock(root), lambda: write_plan_lock(plan, root)):
            with pytest.raises(HarnessError, match=re.escape(f"{path}: not valid JSON")):
                call()
        assert path.read_bytes() == damaged


def test_plan_lock_missing(tmp_path):
    from scanmux.plan import PlanLockMissingError

    with pytest.raises(PlanLockMissingError):
        read_plan_lock(tmp_path)


def test_build_plan_rejects_duplicate_ids(mock_registry, compiler_cache, release_index, tmp_path):
    src = tmp_path / "a.sol"
    src.write_text("pragma solidity ^0.8.0;\ncontract A {}")
    contracts = discover_contracts([str(src)])
    with pytest.raises(PlanningError):
        build_plan(
            contracts + contracts, mock_registry, ("all",), DEFAULT_SCHEME,
            ResourceLimits(), 0, cache=compiler_cache, fetcher=MockCompilerFetcher(),
            release_index=release_index, backend=MockBackend(),
            files=[c.id for c in contracts], backend_name="mock",
        )
