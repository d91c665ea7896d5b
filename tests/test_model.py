"""Core data types: format detection, hashing, invariants."""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanmux import executor, model, plan, registry, reporting, runner, solc
from scanmux.executor import MockToolBehavior, RunOutcome
from scanmux.model import (
    KILLED,
    BytecodeLocation,
    ContractFormat,
    ContractInput,
    ExecutionRecord,
    Finding,
    MalformedHexError,
    OddHexLengthError,
    ParsedReport,
    RawResult,
    ResourceLimits,
    SourceLocation,
    Task,
    ToolSpec,
    UnknownExtensionError,
    content_hash,
    dedup,
    detect_format,
    validate_hex_payload,
)
from scanmux.parsing import ExitClass
from scanmux.plan import RunPlan, SkipRecord
from scanmux.registry import DocumentRule, FindingRule, ParserSpec, Registry
from scanmux.reporting import CatalogEntry, TaskOutcome, TaxonomyEntry
from scanmux.runner import RunSummary, TaskResult
from scanmux.solc import Comparator, Release, SemVer, VersionConstraint


def test_content_hash_known_value():
    assert content_hash(b"hello") == (
        "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
    )


@given(st.binary(max_size=512))
def test_content_hash_matches_sha256(data):
    assert content_hash(data) == hashlib.sha256(data).hexdigest()


def test_validate_hex_accepts_prefix_and_whitespace():
    assert validate_hex_payload(b"0x60 80\n60 40") == "60806040"


def test_validate_hex_rejects_non_hex():
    with pytest.raises(MalformedHexError):
        validate_hex_payload(b"60zz")


def test_validate_hex_rejects_odd_length():
    with pytest.raises(OddHexLengthError):
        validate_hex_payload(b"608")


def test_validate_hex_rejects_non_ascii():
    with pytest.raises(MalformedHexError):
        validate_hex_payload("6080é".encode("utf-8"))


@given(st.text(alphabet="0123456789abcdefABCDEF", min_size=0, max_size=64))
def test_validate_hex_roundtrip(digits):
    # even-length digit strings always pass and come back without the prefix
    if len(digits) % 2 != 0:
        digits += "0"
    assert validate_hex_payload(("0x" + digits).encode()) == digits


def test_detect_format_by_extension(tmp_path: Path):
    sol = tmp_path / "a.sol"
    sol.write_text("contract A {}")
    creation = tmp_path / "b.hex"
    creation.write_text("6080")
    runtime = tmp_path / "c.rt.hex"
    runtime.write_text("fdfe")
    assert detect_format(sol) is ContractFormat.SOLIDITY
    assert detect_format(creation) is ContractFormat.CREATION_BYTECODE
    assert detect_format(runtime) is ContractFormat.RUNTIME_CODE


def test_detect_format_rt_hex_wins_over_hex(tmp_path: Path):
    # .rt.hex also ends in .hex; the longer suffix must be checked first
    p = tmp_path / "x.rt.hex"
    p.write_text("00")
    assert detect_format(p) is ContractFormat.RUNTIME_CODE


def test_detect_format_override_beats_extension(tmp_path: Path):
    p = tmp_path / "payload.txt"
    p.write_text("6080")
    assert detect_format(p, ContractFormat.CREATION_BYTECODE) is ContractFormat.CREATION_BYTECODE


def test_detect_format_unknown_extension(tmp_path: Path):
    p = tmp_path / "a.bin"
    p.write_bytes(b"\x00")
    with pytest.raises(UnknownExtensionError):
        detect_format(p)


def test_detect_format_validates_bytecode_payload(tmp_path: Path):
    p = tmp_path / "bad.hex"
    p.write_text("not hex at all")
    with pytest.raises(MalformedHexError):
        detect_format(p)


def _contract(fmt=ContractFormat.SOLIDITY, pragma=None, cid="c.sol"):
    return ContractInput(
        id=cid,
        source_path=Path(cid),
        format=fmt,
        content_hash="0" * 64,
        pragma_constraint=pragma,
    )


def _tool(formats, needs_compiler=False, tool_id="t"):
    fmts = frozenset(formats)
    return ToolSpec(
        tool_id=tool_id,
        version_label="1.0",
        image_ref="example.io/t:1.0",
        supported_formats=fmts,
        invocation={f: "run {contract}" for f in fmts},
        result_sources=("stdout", "stderr"),
        parser_ref="t/default",
        needs_compiler=needs_compiler,
    )


def test_contract_rejects_pragma_on_bytecode():
    with pytest.raises(ValueError):
        _contract(
            fmt=ContractFormat.RUNTIME_CODE,
            pragma=VersionConstraint.parse("^0.4.0"),
            cid="r.rt.hex",
        )


def test_toolspec_rejects_empty_formats():
    with pytest.raises(ValueError):
        _tool([])


def test_toolspec_rejects_missing_invocation():
    with pytest.raises(ValueError):
        ToolSpec(
            tool_id="t",
            version_label="1",
            image_ref="img",
            supported_formats=frozenset({ContractFormat.SOLIDITY}),
            invocation={},
            result_sources=(),
            parser_ref="t/p",
        )


def test_toolspec_rejects_compiler_without_solidity():
    with pytest.raises(ValueError):
        _tool([ContractFormat.RUNTIME_CODE], needs_compiler=True)


def test_toolspec_key():
    assert _tool([ContractFormat.SOLIDITY]).key == "t:1.0"


def test_resource_limits_defaults():
    limits = ResourceLimits()
    assert limits.wall_timeout == 600.0
    assert limits.memory_bytes == 4 * 2**30
    assert limits.cpu_quota == 1.0


@pytest.mark.parametrize("kwargs", [
    {"wall_timeout": 0},
    {"memory_bytes": -1},
    {"cpu_quota": 0.0},
])
def test_resource_limits_must_be_positive(kwargs):
    with pytest.raises(ValueError):
        ResourceLimits(**kwargs)


def test_task_rejects_unsupported_format():
    tool = _tool([ContractFormat.SOLIDITY])
    contract = _contract(fmt=ContractFormat.RUNTIME_CODE, cid="r.rt.hex")
    with pytest.raises(ValueError):
        Task(contract=contract, tool=tool, output_dir="out", limits=ResourceLimits())


def test_task_requires_compiler_when_tool_needs_it():
    tool = _tool([ContractFormat.SOLIDITY], needs_compiler=True)
    with pytest.raises(ValueError):
        Task(contract=_contract(), tool=tool, output_dir="out", limits=ResourceLimits())
    # and accepts once resolved
    Task(
        contract=_contract(),
        tool=tool,
        output_dir="out",
        limits=ResourceLimits(),
        compiler_version="0.8.26",
    )


def test_task_rejects_stray_compiler():
    # bytecode input through a compiler-needing tool: no compiler slot
    tool = _tool([ContractFormat.SOLIDITY, ContractFormat.RUNTIME_CODE], needs_compiler=True)
    contract = _contract(fmt=ContractFormat.RUNTIME_CODE, cid="r.rt.hex")
    with pytest.raises(ValueError):
        Task(
            contract=contract,
            tool=tool,
            output_dir="out",
            limits=ResourceLimits(),
            compiler_version="0.8.26",
        )
    Task(contract=contract, tool=tool, output_dir="out", limits=ResourceLimits())


def test_execution_record_ordering():
    with pytest.raises(ValueError):
        ExecutionRecord(
            started_at=10.0, finished_at=9.0, duration=0.0, exit_code=0,
            args="", tool_id="t", version_label="1", image_digest="d",
        )


def test_execution_record_exit_code_string():
    record = ExecutionRecord(
        started_at=0.0, finished_at=1.0, duration=1.0, exit_code=KILLED,
        args="", tool_id="t", version_label="1", image_digest="d",
    )
    assert record.exit_code == "killed"
    with pytest.raises(ValueError):
        ExecutionRecord(
            started_at=0.0, finished_at=1.0, duration=1.0, exit_code="crashed",
            args="", tool_id="t", version_label="1", image_digest="d",
        )


def test_finding_needs_label():
    with pytest.raises(ValueError):
        Finding(native_label="", message="m")


def test_dedup_preserves_first_occurrence():
    assert dedup([3, 1, 3, 2, 1]) == [3, 1, 2]


@given(st.lists(st.integers(min_value=0, max_value=9)))
def test_dedup_properties(items):
    out = dedup(items)
    assert len(set(out)) == len(out)
    assert set(out) == set(items)
    # relative order of first occurrences is kept
    firsts = []
    for x in items:
        if x not in firsts:
            firsts.append(x)
    assert out == firsts


def test_parsed_report_dedups_on_construction():
    f = Finding(native_label="A", message="m")
    report = ParsedReport(findings=(f, f), errors=("e", "e", "f"), failures=("x", "x"))
    assert report.findings == (f,)
    assert report.errors == ("e", "f")
    assert report.failures == ("x",)


# ---------------------------------------------------------------------------
# Records: immutable named tuples, each checked as it is built

def _finding():
    return Finding("L", "m", SourceLocation(3, "c.sol"), "high")


def _plan(tasks=()):
    return RunPlan(tasks, (SkipRecord("c", "t:1.0", "why"),), 0, "{}", "0" * 16, "run-0", "{toolid}")


def _every_record():
    tool = _tool([ContractFormat.SOLIDITY])
    task = Task(_contract(), tool, "out", ResourceLimits())
    rule = FindingRule("boom", "B")
    version = SemVer(0, 8, 26)
    return [
        _contract(pragma=VersionConstraint.parse("^0.8.0")),
        tool,
        ResourceLimits(),
        task,
        ExecutionRecord(0.0, 1.0, 1.0, 0, "run", "t", "1.0", "sha256:0"),
        SourceLocation(3),
        BytecodeLocation(7),
        _finding(),
        ParsedReport((_finding(),), ("e",), ("f",), "v"),
        RawResult(b"out", b"err", {"a.json": b"{}"}),
        rule,
        DocumentRule("issues.*", label_from="title"),
        ParserSpec("p", "line_patterns", (rule,)),
        Registry((tool,), {}, "digest"),
        version,
        Comparator("^", 0, 8, None),
        VersionConstraint.parse(">=0.4.24 <0.9.0"),
        Release(version, None),
        SkipRecord("c", "t:1.0", "why"),
        _plan((task,)),
        RunOutcome(0, b"out"),
        MockToolBehavior(stdout="hi\n"),
        TaskResult(task, exit_class=ExitClass.SUCCESS),
        RunSummary(1, 0),
        TaxonomyEntry("SWC-107", 1),
        CatalogEntry("Reentrancy"),
        TaskOutcome("out", "c", "c.sol", "t", "1.0", ExitClass.SUCCESS, []),
    ]


def test_every_record_of_the_package_is_covered():
    modules = (model, registry, solc, plan, executor, runner, reporting)
    declared = {
        obj for module in modules for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
        and obj.__module__ == module.__name__ and not obj.__name__.startswith("_")
    }
    assert {type(record) for record in _every_record()} == declared


@pytest.mark.parametrize("record", _every_record(), ids=lambda r: type(r).__name__)
def test_a_record_refuses_assignment(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.unknown_field = 1  # no instance dict


@pytest.mark.parametrize("build", [
    lambda: RunSummary(total=0, skipped_as_done=0),
    lambda: RunSummary(0, 0),
    lambda: RawResult(),
    lambda: _plan(),
    lambda: MockToolBehavior(),
], ids=["RunSummary-keyword", "RunSummary-positional", "RawResult", "RunPlan", "MockToolBehavior"])
def test_records_built_with_defaults_share_no_container(build):
    first, second = build(), build()
    containers = [name for name in first._fields if isinstance(getattr(first, name), dict)]
    assert containers
    for name in containers:
        assert getattr(first, name) == {}
        assert getattr(first, name) is not getattr(second, name)


def test_a_given_container_is_kept():
    tally = Counter()
    summary = RunSummary(2, 0, tally)
    summary.tally["x"] += 1
    assert summary.tally is tally and tally["x"] == 1


_TOOL_FIELDS = dict(
    tool_id="t", version_label="1.0", image_ref="img", supported_formats=frozenset({ContractFormat.SOLIDITY}),
    invocation={ContractFormat.SOLIDITY: "run {contract}"}, result_sources=(), parser_ref="t/p",
)
_RECORD_FIELDS = dict(
    started_at=0.0, finished_at=1.0, duration=1.0, exit_code=0, args="", tool_id="t", version_label="1",
    image_digest="d",
)
_SOL_TOOL = _tool([ContractFormat.SOLIDITY])
_COMPILING_TOOL = _tool([ContractFormat.SOLIDITY, ContractFormat.RUNTIME_CODE], needs_compiler=True)
_RUNTIME = _contract(fmt=ContractFormat.RUNTIME_CODE, cid="r.rt.hex")

# (record, its fields in order, the message of the ValueError)
REFUSED = {
    "pragma-on-bytecode": (ContractInput, dict(
        id="r.rt.hex", source_path=Path("r.rt.hex"), format=ContractFormat.RUNTIME_CODE, content_hash="0" * 64,
        pragma_constraint=VersionConstraint.parse("^0.4.0"),
    ), "r.rt.hex: pragma constraint on a bytecode contract"),
    "no-formats": (ToolSpec, _TOOL_FIELDS | dict(supported_formats=frozenset()),
                   "t:1.0: supported_formats must be nonempty"),
    "no-invocation": (ToolSpec, _TOOL_FIELDS | dict(invocation={}), "t:1.0: no invocation template for solidity"),
    "compiler-without-solidity": (ToolSpec, _TOOL_FIELDS | dict(
        supported_formats=frozenset({ContractFormat.RUNTIME_CODE}),
        invocation={ContractFormat.RUNTIME_CODE: "run"}, needs_compiler=True,
    ), "t:1.0: needs_compiler requires Solidity support"),
    "zero-timeout": (ResourceLimits, dict(wall_timeout=0), "resource limits must be strictly positive"),
    "negative-memory": (ResourceLimits, dict(wall_timeout=1.0, memory_bytes=-1),
                        "resource limits must be strictly positive"),
    "zero-cpu": (ResourceLimits, dict(wall_timeout=1.0, memory_bytes=1, cpu_quota=0.0),
                 "resource limits must be strictly positive"),
    "unsupported-format": (Task, dict(contract=_RUNTIME, tool=_SOL_TOOL, output_dir="o", limits=ResourceLimits()),
                           r"t:1.0 does not support runtime \(r.rt.hex\)"),
    "unresolved-compiler": (Task, dict(
        contract=_contract(), tool=_COMPILING_TOOL, output_dir="o", limits=ResourceLimits(),
    ), "t:1.0 on c.sol: compiler version not resolved"),
    "stray-compiler": (Task, dict(
        contract=_RUNTIME, tool=_COMPILING_TOOL, output_dir="o", limits=ResourceLimits(), compiler_version="0.8.26",
    ), "t:1.0 on r.rt.hex: unexpected compiler version"),
    "finished-first": (ExecutionRecord, _RECORD_FIELDS | dict(started_at=2.0),
                       "finished_at precedes started_at"),
    "string-exit-code": (ExecutionRecord, _RECORD_FIELDS | dict(exit_code="crashed"),
                         "exit_code must be an integer or 'killed'"),
    "empty-label": (Finding, dict(native_label="", message="m"), "native_label must be nonempty"),
    "unknown-parser-kind": (ParserSpec, dict(name="p", kind="csv", finding_rules=(FindingRule("x", "X"),)),
                            "parser p: unknown kind 'csv'"),
    "parser-without-rules": (ParserSpec, dict(name="p", kind="line_patterns"),
                             "parser p: needs at least one finding rule or document path"),
    "shared-output-dir": (RunPlan, dict(
        tasks=(Task(_contract(), _SOL_TOOL, "o", ResourceLimits()),
               Task(_contract(cid="d.sol"), _SOL_TOOL, "o", ResourceLimits())),
        skips=(), seed=0, created_with_args="{}", args_digest="0", runid="run-0", scheme="{toolid}",
    ), "output dirs not pairwise distinct: o"),
}


@pytest.mark.parametrize("positional", [False, True], ids=["keyword", "positional"])
@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_record_checks_its_fields_however_it_is_built(case, positional):
    cls, fields, message = REFUSED[case]
    assert list(fields) == list(cls._fields[:len(fields)])  # in field order, so positional builds the same
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(*fields.values()) if positional else cls(**fields)


def test_parsed_report_dedups_however_it_is_built():
    f = Finding("A", "m")
    keyword = ParsedReport(findings=(f, f), errors=("e", "e"), failures=("x", "x"), parser_version="v")
    positional = ParsedReport((f, f), ("e", "e"), ("x", "x"), "v")
    assert keyword == positional == ((f,), ("e",), ("x",), "v")
    assert type(keyword) is type(positional) is ParsedReport


def test_parser_spec_fills_its_version_however_it_is_built():
    rule = FindingRule("boom", "B")
    keyword = ParserSpec(name="p", kind="line_patterns", finding_rules=(rule,))
    positional = ParserSpec("p", "line_patterns", (rule,))
    assert keyword.version == positional.version == keyword.fingerprint() != ""
    assert ParserSpec("p", "line_patterns", (rule,), version="pinned").version == "pinned"
    assert type(keyword) is ParserSpec
