"""Turn raw tool output into findings, errors and failures via declarative rules."""

from __future__ import annotations

import fnmatch
import functools
import hashlib
import json
from enum import Enum
from pathlib import Path

from . import taskdir
from .model import (
    BytecodeLocation,
    ExecutionRecord,
    Finding,
    LimitHit,
    Location,
    ParsedReport,
    RawResult,
    SourceLocation,
)
from .paths import dump_json
from .registry import DocumentRule, ParserSpec, compile_rule

# Crash signatures no tool author should have to anticipate; prepended to
# every parser's failure rules unless the ParserSpec opts out.
DEFAULT_FAILURE_PATTERNS: tuple[str, ...] = (
    r"Traceback \(most recent call last\)",
    r"^\s*AssertionError\b",
    r"assertion .* failed",
    r"Segmentation fault",
    r"core dumped",
    r"MemoryError",
    r"OutOfMemoryError",
    r"Cannot allocate memory",
    r"^Killed\b",
    r"^panic: ",
    r"Uncaught exception",
    r"Exception in thread",
)


class ExitClass(Enum):
    """How one task ended, for accounting and resume markers."""

    SUCCESS = "success"
    TOOL_ERROR = "tool_error"
    TOOL_FAILURE = "tool_failure"
    TIMEOUT = "timeout"
    OUT_OF_MEMORY = "oom"


def _decode(data: bytes) -> str:
    return data.decode("utf-8", errors="replace")


def _parse_int(value) -> int | None:
    """``value`` as a decimal or ``0x`` hex integer, or None when it is neither."""
    if value is None:  # most findings lack a line or an offset; a caught ValueError here doubles parse time
        return None
    text = str(value).strip()
    try:
        if text.lower().startswith("0x"):  # via decimal text, so a value too long to write back raises
            return int(str(int(text, 16)))
        return int(text)
    except ValueError:
        return None


def _location(line, offset, file) -> Location | None:
    """A source location when ``line`` parses, else a bytecode location when ``offset`` does."""
    if (parsed := _parse_int(line)) is not None:
        return SourceLocation(line=parsed, file=None if file is None else str(file))
    parsed = _parse_int(offset)
    return None if parsed is None else BytecodeLocation(offset=parsed)


def _failure_patterns(spec: ParserSpec) -> tuple[str, ...]:
    if spec.default_failure_rules:
        return DEFAULT_FAILURE_PATTERNS + spec.failure_rules
    return spec.failure_rules


def _scan_lines(
    text: str,
    spec: ParserSpec,
    findings: list[Finding],
    errors: list[str],
    failures: list[str],
    include_findings: bool = True,
) -> None:
    failure_rules = _failure_patterns(spec)
    for raw_line in text.splitlines():
        line = raw_line.rstrip()
        if not line.strip():
            continue
        matched = False
        if include_findings:
            for rule in spec.finding_rules:
                m = compile_rule(rule.pattern).search(line)
                if m:
                    groups = m.groupdict()
                    findings.append(
                        Finding(
                            native_label=groups.get("label") or rule.label,
                            message=line.strip(),
                            location=_location(groups.get("line"), groups.get("offset"), groups.get("file")),
                        )
                    )
                    matched = True
                    break
        if matched:
            continue
        if any(compile_rule(p).search(line) for p in spec.error_rules):
            errors.append(line.strip())
            continue
        if any(compile_rule(p).search(line) for p in failure_rules):
            failures.append(line.strip())


def _walk(node, segments: list[str]):
    if not segments:
        yield node
        return
    head, rest = segments[0], segments[1:]
    if head == "*":
        if isinstance(node, list):
            for item in node:
                yield from _walk(item, rest)
    elif isinstance(node, dict) and head in node:
        yield from _walk(node[head], rest)


def _get(node, path: str | None):
    if path is None:
        return None
    for segment in path.split("."):
        if not isinstance(node, dict) or segment not in node:
            return None
        node = node[segment]
    return node


def _document_source(raw: RawResult, name: str) -> bytes | None:
    if name == "stdout":
        return raw.stdout
    if name == "stderr":
        return raw.stderr
    if name in raw.files:
        return raw.files[name]
    for rel in sorted(raw.files):
        if fnmatch.fnmatch(rel, name):
            return raw.files[rel]
    return None


def _apply_document_rule(rule: DocumentRule, doc, findings: list[Finding]) -> None:
    for node in _walk(doc, rule.path.split(".")):
        label = rule.label
        if rule.label_from is not None:
            value = _get(node, rule.label_from)
            label = str(value) if value is not None else None
        if not label:
            continue
        message = _get(node, rule.message_from)
        severity = _get(node, rule.severity_from)
        location = _location(
            _get(node, rule.line_from), _get(node, rule.offset_from), _get(node, rule.file_from)
        )
        findings.append(
            Finding(
                native_label=label,
                message=str(message) if message is not None else label,
                location=location,
                severity_native=str(severity) if severity is not None else None,
            )
        )


def parse(raw: RawResult, spec: ParserSpec) -> ParsedReport:
    """Extract a report from captured output. Never raises on arbitrary bytes.

    Line mode tests every line against finding, then error, then failure
    rules; first match wins. Document mode evaluates field paths over each
    declared result document; stdout and stderr are still scanned for errors
    and failures. Unreadable documents become a failure entry, not an
    exception.
    """
    findings: list[Finding] = []
    errors: list[str] = []
    failures: list[str] = []

    if spec.kind == "structured_document":
        for name in spec.documents:
            data = _document_source(raw, name)
            if data is None:
                failures.append(f"unparseable tool output: {name} missing")
                continue
            try:
                doc = json.loads(_decode(data))
            except (ValueError, RecursionError):  # malformed, too deep, or an integer too long to convert
                failures.append(f"unparseable tool output: {name}")
                continue
            for rule in spec.document_rules:
                _apply_document_rule(rule, doc, findings)
        # Streams consumed as documents are not line-scanned again; the
        # remaining ones still get error/failure screening.
        for name, data in (("stdout", raw.stdout), ("stderr", raw.stderr)):
            if name not in spec.documents:
                _scan_lines(_decode(data), spec, findings, errors, failures, include_findings=False)
    else:
        _scan_lines(_decode(raw.stdout), spec, findings, errors, failures)
        _scan_lines(_decode(raw.stderr), spec, findings, errors, failures)
        for rel in sorted(raw.files):
            _scan_lines(_decode(raw.files[rel]), spec, findings, errors, failures)

    return ParsedReport(
        findings=tuple(findings),
        errors=tuple(errors),
        failures=tuple(failures),
        parser_version=spec.version,
    )


def classify_exit(record: ExecutionRecord, report: ParsedReport) -> ExitClass:
    """Precedence: Timeout > OutOfMemory > ToolFailure > ToolError > Success.

    A nonzero exit with nothing to show for it counts as a failure; silent
    crashes must not inflate the "no findings" bucket.
    """
    if record.limit_hit is LimitHit.TIMEOUT:
        return ExitClass.TIMEOUT
    if record.limit_hit is LimitHit.MEMORY:
        return ExitClass.OUT_OF_MEMORY
    if report.failures:
        return ExitClass.TOOL_FAILURE
    if record.exit_code != 0 and not report.findings and not report.errors:
        return ExitClass.TOOL_FAILURE
    if report.errors:
        return ExitClass.TOOL_ERROR
    return ExitClass.SUCCESS


def _location_doc(location: Location | None) -> dict | None:
    if location is None:
        return None
    if isinstance(location, SourceLocation):
        return {"kind": "source", "line": location.line, "file": location.file}
    return {"kind": "bytecode", "offset": location.offset}


# What decides a result.json's bytes: parse, classify_exit and the document; dump_json; dedup; compile_rule.
_DERIVING_MODULES = ("parsing.py", "paths.py", "model.py", "registry.py")


@functools.cache
def code_digest() -> str | None:
    """A short SHA-256 of the source of ``_DERIVING_MODULES``, or None when one cannot be read."""
    digest = hashlib.sha256()
    try:
        for name in _DERIVING_MODULES:
            digest.update(hashlib.sha256(Path(__file__).with_name(name).read_bytes()).digest())
    except OSError:
        return None
    return digest.hexdigest()[:16]


def report_to_doc(report: ParsedReport) -> dict:
    return {
        "code_digest": code_digest(),
        "findings": [
            {
                "label": f.native_label,
                "message": f.message,
                "location": _location_doc(f.location),
                "severity": f.severity_native,
            }
            for f in report.findings
        ],
        "errors": list(report.errors),
        "failures": list(report.failures),
        "parser_version": report.parser_version,
    }


def report_bytes(report: ParsedReport) -> bytes:
    """The bytes of the ``result.json`` that holds ``report``."""
    return dump_json(report_to_doc(report)).encode("utf-8")


def write_report(folder: str, report: ParsedReport) -> None:
    """Write ``report`` as the ``result.json`` of task ``folder``."""
    taskdir.write(folder, taskdir.RESULT, report_bytes(report))


def read_findings(folder: str, key: tuple[str, str] | None = None) -> list[tuple[str, str, tuple | int | None]]:
    """(label, message, location) of each finding in the ``result.json`` of task ``folder``.

    The lean reader the reports use: no ``ParsedReport`` is built. A location
    is ``(line, file)`` for a source location, the offset for a bytecode one,
    or None. Raises ValueError, KeyError or TypeError for a file that does not
    hold a report, such as one whose label is empty or not a string, whose
    message is not a string, whose line or offset is not an integer, or whose
    file is neither a string nor null. With ``key``, also a ValueError unless
    the file's (parser version, code digest) is ``key``.
    """
    doc = json.loads(taskdir.read(folder, taskdir.RESULT))
    if not isinstance(doc, dict) or not {"errors", "failures", "parser_version"} <= doc.keys():
        raise ValueError(f"{folder}: not a report")
    if key is not None and (doc["parser_version"], doc.get("code_digest")) != key:
        raise ValueError(f"{folder}: derived under another key")
    findings = []
    for finding in doc["findings"]:
        label, message, location = finding["label"], finding["message"], finding.get("location")
        if not (label and type(label) is str and type(message) is str):
            raise ValueError(f"{folder}: a finding without a label or message string")
        if location is not None:
            if location["kind"] == "source":
                location = (location["line"], location.get("file"))
                typed = type(location[0]) is int and (location[1] is None or type(location[1]) is str)
            else:
                location = location["offset"]
                typed = type(location) is int  # not a bool
            if not typed:
                raise ValueError(f"{folder}: a finding location with a wrongly typed field")
        findings.append((label, message, location))
    return findings


def result_is_current(folder: str, parser_version: str) -> bool:
    """Whether the ``result.json`` of task ``folder`` reads as a report derived by ``parser_version`` and this code."""
    if (digest := code_digest()) is None:  # the code is unknown, so no result is shown current
        return False
    try:
        read_findings(folder, (parser_version, digest))
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        return False
    return True
