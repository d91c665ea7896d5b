"""Planning: discovery, output-dir allocation, canonical args, plan locks."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanmux.executor import MockBackend
from scanmux.model import ContractFormat, ResourceLimits
from scanmux.plan import (
    DEFAULT_SCHEME,
    NoMatchesError,
    PlanningError,
    SchemeError,
    args_digest,
    build_plan,
    canonicalize_args,
    discover_contracts,
    filename_stem,
    plan_output_dir,
    read_plan_lock,
    validate_scheme,
    write_plan_lock,
)
from scanmux.solc import PragmaSyntaxError

from conftest import discover_corpus, plan_for, write_corpus


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


def test_validate_scheme_accepts_known():
    validate_scheme(DEFAULT_SCHEME)
    validate_scheme("{filename}/{toolid}/{toolversion}")


@pytest.mark.parametrize("scheme", ["", "{bogus}", "{filename", "results/{"])
def test_validate_scheme_rejects(scheme):
    with pytest.raises(SchemeError):
        validate_scheme(scheme)


def _stub_contract(cid):
    from scanmux.model import ContractInput

    return ContractInput(
        id=cid, source_path=Path(cid), format=ContractFormat.SOLIDITY, content_hash="0" * 64
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
        for cid in ("x/a.sol", "y/a.sol", "z/a.sol")
    ]
    assert dirs == ["a/t", "a_1/t", "a_2/t"]


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
    assert a == "t"
    assert b == "t_1"


def test_canonicalize_args_is_order_independent():
    a = canonicalize_args(tools=["oyente", "mythril"], files=["b.sol", "a.sol"])
    b = canonicalize_args(tools=["Mythril", "oyente"], files=["a.sol", "b.sol"])
    assert a == b


def test_canonicalize_args_all_collapses():
    a = canonicalize_args(tools=["all", "oyente"])
    b = canonicalize_args(tools="all")
    assert a == b


def test_canonicalize_args_sensitive_to_run_shape():
    base = canonicalize_args(seed=0)
    assert canonicalize_args(seed=1) != base
    assert canonicalize_args(wall_timeout=1.0) != base
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
    assert len(plan.skips) == 40
    assert len(plan.tasks) + len(plan.skips) == 100


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
        contracts, mock_registry, "all", DEFAULT_SCHEME, ResourceLimits(), 0,
        cache=compiler_cache, fetcher=fetcher, release_index=release_index,
        backend=MockBackend(),
        created_with_args=canonicalize_args(
            files=[c.id for c in contracts], registry_digest=mock_registry.content_digest
        ),
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


def test_build_plan_skips_have_reasons(corpus_dir, mock_registry, compiler_cache, release_index):
    contracts = discover_corpus(corpus_dir)
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    for skip in plan.skips:
        assert "does not support" in skip.reason
        assert ":" in skip.tool_key


def test_plan_lock_roundtrip(tmp_path, corpus_dir, mock_registry, compiler_cache, release_index):
    contracts = discover_corpus(corpus_dir)
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    root = tmp_path / "results"
    path = write_plan_lock(plan, root)
    doc = read_plan_lock(root)
    assert doc["args_digest"] == plan.args_digest
    assert doc["runid"] == plan.runid
    assert len(doc["tasks"]) == 60
    assert len(doc["skips"]) == 40
    assert path.read_text().endswith("\n")


def test_plan_lock_byte_identical_across_rebuilds(
    tmp_path, corpus_dir, mock_registry, compiler_cache, release_index
):
    contracts = discover_corpus(corpus_dir)
    blobs = []
    for i in range(3):
        plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
        root = tmp_path / f"root{i}"
        blobs.append(write_plan_lock(plan, root).read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_plan_lock_refuses_foreign_root(
    tmp_path, corpus_dir, mock_registry, compiler_cache, release_index
):
    contracts = discover_corpus(corpus_dir)
    plan = plan_for(contracts, mock_registry, compiler_cache, release_index, MockBackend())
    root = tmp_path / "results"
    write_plan_lock(plan, root)
    # a lock written by some other invocation occupies the root
    (root / "plan.lock").write_text(json.dumps({"args_digest": "feedfacefeedface"}))
    with pytest.raises(PlanningError):
        write_plan_lock(plan, root)


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
            contracts + contracts, mock_registry, "all", DEFAULT_SCHEME,
            ResourceLimits(), 0, cache=compiler_cache,
            created_with_args=canonicalize_args(
                files=[c.id for c in contracts], registry_digest=mock_registry.content_digest
            ),
        )
