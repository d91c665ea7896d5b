"""Core data types: format detection, hashing, invariants."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanmux.model import (
    KILLED,
    ContractFormat,
    ContractInput,
    ExecutionRecord,
    Finding,
    MalformedHexError,
    OddHexLengthError,
    ParsedReport,
    ResourceLimits,
    Task,
    ToolSpec,
    UnknownExtensionError,
    content_hash,
    dedup,
    detect_format,
    validate_hex_payload,
)
from scanmux.solc import VersionConstraint


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
