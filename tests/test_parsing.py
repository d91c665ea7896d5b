"""Declarative output parsing, exit classification, result file round trips."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanmux.model import (
    KILLED,
    BytecodeLocation,
    ExecutionRecord,
    Finding,
    LimitHit,
    ParsedReport,
    RawResult,
    SourceLocation,
)
from scanmux.parsing import (
    ExitClass,
    classify_exit,
    parse,
    read_findings,
    report_bytes,
    report_to_doc,
    write_report,
)
from scanmux.paths import bundled_registry, dump_json
from scanmux.registry import DocumentRule, FindingRule, ParserSpec, load_registry

LINE_SPEC = ParserSpec(
    name="t/default",
    kind="line_patterns",
    finding_rules=(
        FindingRule(r"VULN: (?P<label>[A-Za-z ]+?)(?: at line (?P<line>\d+))?$", "finding"),
        FindingRule(r"WEAKNESS-(?P<offset>0x[0-9a-fA-F]+)", "Weakness"),
    ),
    error_rules=(r"^ERROR:", r"compilation failed"),
)

DOC_SPEC = ParserSpec(
    name="t/doc",
    kind="structured_document",
    documents=("stdout",),
    document_rules=(
        DocumentRule(
            path="issues.*",
            label_from="title",
            message_from="description",
            file_from="filename",
            line_from="lineno",
            severity_from="severity",
        ),
    ),
    error_rules=(r"^ERROR:",),
)


def run_lines(stdout="", stderr="", files=None, spec=LINE_SPEC):
    return parse(RawResult(stdout=stdout.encode(), stderr=stderr.encode(), files=files or {}), spec)


class TestLineMode:
    def test_label_and_line_captured(self):
        report = run_lines("VULN: Reentrancy at line 42\n")
        assert len(report.findings) == 1
        f = report.findings[0]
        assert f.native_label == "Reentrancy"
        assert f.location == SourceLocation(line=42)
        assert f.message == "VULN: Reentrancy at line 42"

    def test_label_without_location(self):
        report = run_lines("VULN: Integer Overflow\n")
        assert report.findings[0].native_label == "Integer Overflow"
        assert report.findings[0].location is None

    def test_fixed_label_when_no_group(self):
        report = run_lines("WEAKNESS-0x1a detected\n")
        f = report.findings[0]
        assert f.native_label == "Weakness"
        assert f.location == BytecodeLocation(offset=26)

    def test_finding_wins_over_error_on_same_line(self):
        spec = ParserSpec(
            name="t/x", kind="line_patterns",
            finding_rules=(FindingRule(r"issue", "hit"),),
            error_rules=(r"issue",),
        )
        report = run_lines("issue here\n", spec=spec)
        assert len(report.findings) == 1
        assert report.errors == ()

    def test_error_lines(self):
        report = run_lines("ERROR: no such file\nsome compilation failed badly\n")
        assert report.errors == ("ERROR: no such file", "some compilation failed badly")
        assert report.findings == ()

    def test_default_failure_signatures(self):
        report = run_lines(stderr="Traceback (most recent call last):\n  boom\n")
        assert report.failures == ("Traceback (most recent call last):",)

    def test_failure_opt_out(self):
        spec = ParserSpec(
            name="t/y", kind="line_patterns",
            finding_rules=(FindingRule(r"VULN", "v"),),
            default_failure_rules=False,
        )
        report = run_lines(stderr="Traceback (most recent call last):\n", spec=spec)
        assert report.failures == ()

    def test_blank_lines_ignored(self):
        report = run_lines("\n\n   \n")
        assert report == ParsedReport(parser_version=LINE_SPEC.version)

    def test_files_are_scanned_too(self):
        report = run_lines(files={"output/log.txt": b"VULN: Locked Ether\n"})
        assert report.findings[0].native_label == "Locked Ether"

    def test_duplicate_lines_collapse(self):
        report = run_lines("VULN: Reentrancy at line 3\nVULN: Reentrancy at line 3\n")
        assert len(report.findings) == 1

    def test_distinct_lines_kept(self):
        report = run_lines("VULN: Reentrancy at line 3\nVULN: Reentrancy at line 4\n")
        assert len(report.findings) == 2

    def test_crlf_and_trailing_space(self):
        report = run_lines("VULN: Reentrancy at line 9\r\n")
        assert report.findings[0].location == SourceLocation(line=9)

    @given(st.binary(max_size=400))
    def test_never_raises_on_garbage(self, blob):
        report = parse(RawResult(stdout=blob, stderr=blob[::-1]), LINE_SPEC)
        assert isinstance(report, ParsedReport)


class TestDocumentMode:
    STDOUT = json.dumps({
        "success": True,
        "issues": [
            {
                "title": "Integer Overflow",
                "description": "add may wrap",
                "filename": "contract.sol",
                "lineno": 12,
                "severity": "High",
            },
            {"title": "Reentrancy", "description": "external call", "lineno": 30},
        ],
    })

    def test_fields_extracted(self):
        report = run_lines(self.STDOUT, spec=DOC_SPEC)
        assert len(report.findings) == 2
        first = report.findings[0]
        assert first.native_label == "Integer Overflow"
        assert first.message == "add may wrap"
        assert first.location == SourceLocation(line=12, file="contract.sol")
        assert first.severity_native == "High"
        second = report.findings[1]
        assert second.location == SourceLocation(line=30)
        assert second.severity_native is None

    def test_invalid_json_is_a_failure(self):
        report = run_lines("{not json", spec=DOC_SPEC)
        assert report.findings == ()
        assert report.failures == ("unparseable tool output: stdout",)

    def test_document_stream_not_line_scanned(self):
        # an unanchored error rule would hit the payload if stdout were
        # still line-scanned after being consumed as a document
        spec = ParserSpec(
            name="t/doc1", kind="structured_document", documents=("stdout",),
            document_rules=(DocumentRule(path="issues.*", label="x"),),
            error_rules=(r"ignore me",),
        )
        doc = json.dumps({"issues": [], "log": "please ignore me"})
        report = run_lines(doc, spec=spec)
        assert report.errors == ()

    def test_other_streams_still_screened(self):
        report = run_lines(self.STDOUT, stderr="ERROR: solc crashed\n", spec=DOC_SPEC)
        assert report.errors == ("ERROR: solc crashed",)
        assert len(report.findings) == 2

    def test_other_streams_never_add_findings(self):
        spec = ParserSpec(
            name="t/doc2", kind="structured_document", documents=("stdout",),
            document_rules=(DocumentRule(path="issues.*", label="x"),),
            finding_rules=(FindingRule(r"VULN", "v"),),
        )
        report = run_lines('{"issues": []}', stderr="VULN spotted\n", spec=spec)
        assert report.findings == ()

    def test_file_document_via_glob(self):
        spec = ParserSpec(
            name="t/doc3", kind="structured_document", documents=("output/*.json",),
            document_rules=(DocumentRule(path="results.*", label_from="name"),),
        )
        files = {"output/run1.json": json.dumps({"results": [{"name": "LockedEther"}]}).encode()}
        report = parse(RawResult(files=files), spec)
        assert report.findings[0].native_label == "LockedEther"

    def test_missing_document_is_a_failure(self):
        spec = ParserSpec(
            name="t/doc4", kind="structured_document", documents=("output/*.json",),
            document_rules=(DocumentRule(path="r.*", label="x"),),
        )
        report = parse(RawResult(stdout=b"nothing"), spec)
        assert report.failures == ("unparseable tool output: output/*.json missing",)

    def test_fixed_label_and_offset(self):
        spec = ParserSpec(
            name="t/doc5", kind="structured_document", documents=("stdout",),
            document_rules=(
                DocumentRule(path="hits.*", label="Assert", line_from="line", offset_from="pc"),
            ),
        )
        # a line that does not parse falls through to the offset, as in line mode
        for hit in ({"pc": "0x20"}, {"pc": "0x20", "line": "n/a"}):
            [f] = run_lines(json.dumps({"hits": [hit]}), spec=spec).findings
            assert f.native_label == "Assert"
            assert f.location == BytecodeLocation(offset=32)
            assert f.message == "Assert"


def record(exit_code=0, limit=LimitHit.NONE):
    return ExecutionRecord(
        started_at=0, finished_at=1, duration=1, exit_code=exit_code, args="c",
        tool_id="t", version_label="1", image_digest="d", limit_hit=limit,
    )


FINDING = Finding(native_label="x", message="m")


class TestClassifyExit:
    def test_clean_run(self):
        assert classify_exit(record(), ParsedReport()) is ExitClass.SUCCESS

    def test_findings_alone_are_success(self):
        assert classify_exit(record(), ParsedReport(findings=(FINDING,))) is ExitClass.SUCCESS

    def test_nonzero_exit_with_findings_still_success(self):
        assert classify_exit(record(1), ParsedReport(findings=(FINDING,))) is ExitClass.SUCCESS

    def test_errors_beat_success(self):
        assert classify_exit(record(), ParsedReport(errors=("e",))) is ExitClass.TOOL_ERROR

    def test_failures_beat_errors(self):
        report = ParsedReport(errors=("e",), failures=("f",))
        assert classify_exit(record(), report) is ExitClass.TOOL_FAILURE

    def test_silent_nonzero_exit_is_failure(self):
        assert classify_exit(record(2), ParsedReport()) is ExitClass.TOOL_FAILURE
        assert classify_exit(record(KILLED), ParsedReport()) is ExitClass.TOOL_FAILURE

    def test_timeout_beats_everything(self):
        report = ParsedReport(findings=(FINDING,), errors=("e",), failures=("f",))
        got = classify_exit(record(KILLED, LimitHit.TIMEOUT), report)
        assert got is ExitClass.TIMEOUT

    def test_oom_beats_failures(self):
        report = ParsedReport(failures=("f",))
        assert classify_exit(record(KILLED, LimitHit.MEMORY), report) is ExitClass.OUT_OF_MEMORY

    def test_exit_class_values(self):
        assert {c.value for c in ExitClass} == {
            "success", "tool_error", "tool_failure", "timeout", "oom"
        }


locations = st.one_of(
    st.none(),
    st.builds(SourceLocation, line=st.integers(-5, 10**6), file=st.none() | st.text(max_size=10)),
    st.builds(BytecodeLocation, offset=st.integers(0, 10**6)),
)
findings = st.builds(
    Finding,
    native_label=st.text(min_size=1, max_size=20),
    message=st.text(max_size=40),
    location=locations,
    severity_native=st.none() | st.text(max_size=8),
)


def _read_location(location):
    """A location as read_findings returns it."""
    if isinstance(location, SourceLocation):
        return (location.line, location.file)
    return None if location is None else location.offset


class TestReportFile:
    @given(fs=st.lists(findings, max_size=8), errs=st.lists(st.text(max_size=20), max_size=4))
    def test_roundtrip(self, fs, errs, tmp_path_factory):
        report = ParsedReport(findings=tuple(fs), errors=tuple(errs), parser_version="pv")
        path = tmp_path_factory.mktemp("reports") / "result.json"
        write_report(path, report)
        assert read_findings(path) == [
            (f.native_label, f.message, _read_location(f.location)) for f in report.findings
        ]

    @pytest.mark.parametrize("text", [
        "", "{", "[]", '"report"', '{"findings": []}',
        '{"findings": [{"label": "x"}], "errors": [], "failures": [], "parser_version": ""}',
        '{"findings": [{"label": "", "message": "m"}], "errors": [], "failures": [], "parser_version": ""}',
        '{"findings": [{"label": "x", "message": "m", "location": {"kind": "source"}}],'
        ' "errors": [], "failures": [], "parser_version": ""}',
        '{"findings": [{"label": "x", "message": "m", "location": {"kind": "bytecode"}}],'
        ' "errors": [], "failures": [], "parser_version": ""}',
        '{"findings": ["x"], "errors": [], "failures": [], "parser_version": ""}',
    ])
    def test_a_file_that_holds_no_report_is_refused(self, tmp_path, text):
        path = tmp_path / "result.json"
        path.write_text(text)
        with pytest.raises((ValueError, KeyError, TypeError)):
            read_findings(path)

    def test_serialization_is_stable(self, tmp_path):
        report = ParsedReport(
            findings=(Finding("a", "m", SourceLocation(3, "f.sol"), "High"),),
            errors=("e",), failures=("f",), parser_version="1",
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(a, report)
        write_report(b, report)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("\n")

    def test_doc_shape(self):
        doc = report_to_doc(ParsedReport(findings=(FINDING,), parser_version="v"))
        assert set(doc) == {"findings", "errors", "failures", "parser_version"}
        assert doc["findings"][0] == {
            "label": "x", "message": "m", "location": None, "severity": None
        }


BUNDLED = load_registry(bundled_registry())

HOSTILE = {
    "deep-nesting": b"[" * 100_000,
    "long-integer": b'{"issues": [{"title": "x", "lineno": ' + b"9" * 5_000 + b"}]}",
    # valid JSON whose hex offset has more than 4,300 decimal digits; line patterns see it too
    "long-hex": b'{"issues": [{"title": "destroyable integer overflow at 0x' + b"f" * 5_000
    + b'", "address": "0x' + b"f" * 5_000 + b'"}]}',
    "invalid-utf8": b'{"issues": [{"title": "\xff\xc3\x28", "lineno": 3}]}',
    "random-bytes": random.Random(11).randbytes(4_096),
}


@pytest.mark.parametrize("tool", BUNDLED.tools, ids=lambda t: t.key)
@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_bundled_parsers_survive_hostile_output(tool, name):
    """Whatever a tool prints or writes, parse returns a report that serialises."""
    spec = BUNDLED.parser_for(tool)
    data = HOSTILE[name]
    declared = {*tool.result_sources, *spec.documents} - {"stdout", "stderr"}
    files = {source.replace("*", "hostile"): data for source in declared}
    report = parse(RawResult(stdout=data, stderr=data, files=files), spec)
    dump_json(report_to_doc(report))
    if spec.kind == "structured_document":  # undecodable bytes are replaced, so only two inputs decode as JSON
        readable = name in ("invalid-utf8", "long-hex")
        assert ("unparseable tool output: stdout" in report.failures) != readable


# Any JSON value, including the ones a field path's rule does not expect.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([2**64, -(2**70), 10**40, "", "0x1f", " 7 ", "\ud800"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

# A value of the expected type for each field path of a document rule.
WELL_FORMED = {
    "label_from": "Reentrancy", "message_from": "m", "file_from": "c.sol",
    "line_from": 3, "offset_from": 7, "severity_from": "High",
}

DOCUMENT_FIELDS = [
    (ref, index, name)
    for ref, spec in sorted(BUNDLED.parsers.items()) if spec.kind == "structured_document"
    for index, rule in enumerate(spec.document_rules)
    for name in WELL_FORMED if getattr(rule, name) is not None
]


def _document(rule: DocumentRule, fuzzed: str, value):
    """A document whose one node holds ``value`` at the ``fuzzed`` field path and well-formed values elsewhere."""
    node: dict = {}
    for name, expected in WELL_FORMED.items():
        if (path := getattr(rule, name)) is not None:
            *parents, last = path.split(".")
            holder = node
            for segment in parents:
                holder = holder.setdefault(segment, {})
            holder[last] = value if name == fuzzed else expected
    doc = node
    for segment in reversed(rule.path.split(".")):
        doc = [doc] if segment == "*" else {segment: doc}
    return doc


def test_every_document_field_path_is_fuzzed():
    assert {name for _, _, name in DOCUMENT_FIELDS} == set(WELL_FORMED)


@pytest.mark.parametrize("ref,index,name", DOCUMENT_FIELDS)
@given(value=json_values)
def test_any_json_value_in_a_document_field_parses(ref, index, name, value):
    spec = BUNDLED.parsers[ref]
    data = json.dumps(_document(spec.document_rules[index], name, value)).encode()
    sources = {source.replace("*", "doc"): data for source in spec.documents}
    raw = RawResult(stdout=sources.pop("stdout", b""), stderr=sources.pop("stderr", b""), files=sources)
    report = parse(raw, spec)
    unlabelled = name == "label_from" and (value is None or value == "")
    assert len(report.findings) == (0 if unlabelled else 1)
    assert json.loads(report_bytes(report))["parser_version"] == spec.version
