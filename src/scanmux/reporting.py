"""Taxonomy normalization, SARIF emission and aggregate run analytics."""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import numbers
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import yaml

from .model import (
    BytecodeLocation,
    Finding,
    HarnessError,
    NormalizedFinding,
    ParsedReport,
    SourceLocation,
)
from .parsing import RESULT_FILENAME, ExitClass, read_report
from .paths import load_yaml, replacing, sarif_schema_path, write_json

SARIF_FILENAME = "report.sarif"
FINDINGS_FILENAME = "findings.csv"
SUMMARY_FILENAME = "summary.json"
SUMMARY_SCHEMA = 1

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"


class TaxonomyError(HarnessError):
    pass


class MissingKeyError(HarnessError):
    pass


@dataclass(frozen=True)
class TaxonomyEntry:
    swc_id: str | None = None
    dasp_class: int | None = None


@dataclass(frozen=True)
class CatalogEntry:
    title: str
    ref: str | None = None


class TaxonomyMap:
    """Per-tool native labels mapped onto SWC ids and DASP TOP 10 classes."""

    def __init__(
        self,
        catalog: Mapping[str, CatalogEntry],
        entries: Mapping[tuple[str, str], TaxonomyEntry],
    ):
        for (tool, label), entry in entries.items():
            if entry.swc_id is not None and entry.swc_id not in catalog:
                raise TaxonomyError(
                    f"({tool}, {label}): swc id {entry.swc_id!r} is not in the catalog"
                )
            if entry.dasp_class is not None and not 1 <= entry.dasp_class <= 10:
                raise TaxonomyError(
                    f"({tool}, {label}): dasp class {entry.dasp_class} out of range 1..10"
                )
        self.catalog = dict(catalog)
        self.entries = dict(entries)

    @classmethod
    def load(cls, path: str | Path) -> "TaxonomyMap":
        try:
            doc = load_yaml(Path(path).read_text(encoding="utf-8"))
        except yaml.YAMLError as exc:
            raise TaxonomyError(f"{path}: invalid YAML: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("schema") != 1:
            raise TaxonomyError(f"{path}: missing or unsupported schema version")
        catalog: dict[str, CatalogEntry] = {}
        for swc_id, raw in (doc.get("catalog") or {}).items():
            if not isinstance(raw, dict) or "title" not in raw:
                raise TaxonomyError(f"{path}: catalog entry {swc_id!r} needs a title")
            catalog[str(swc_id)] = CatalogEntry(
                title=str(raw["title"]), ref=str(raw["ref"]) if raw.get("ref") else None
            )
        entries: dict[tuple[str, str], TaxonomyEntry] = {}
        for tool_id, labels in (doc.get("map") or {}).items():
            if not isinstance(labels, dict):
                raise TaxonomyError(f"{path}: map entry for {tool_id!r} must be a mapping")
            for label, raw in labels.items():
                raw = raw or {}
                dasp = raw.get("dasp")
                entries[(str(tool_id).lower(), str(label))] = TaxonomyEntry(
                    swc_id=str(raw["swc"]) if raw.get("swc") else None,
                    dasp_class=int(dasp) if dasp is not None else None,
                )
        return cls(catalog, entries)

    def lookup(self, tool_id: str, native_label: str) -> TaxonomyEntry | None:
        return self.entries.get((tool_id.lower(), native_label))


def normalize(report: ParsedReport, tool_id: str, taxonomy: TaxonomyMap) -> list[NormalizedFinding]:
    """Attach SWC/DASP labels to every finding; unknown labels stay unmapped."""
    out = []
    for finding in report.findings:
        entry = taxonomy.lookup(tool_id, finding.native_label)
        if entry is None:
            out.append(NormalizedFinding(finding))
        else:
            out.append(NormalizedFinding(finding, swc_id=entry.swc_id, dasp_class=entry.dasp_class))
    return out


def unmapped_labels(outcomes: "Iterable[TaskOutcome]") -> list[tuple[str, str]]:
    """Run-level summary of native labels absent from the taxonomy."""
    seen = set()
    for outcome in outcomes:
        for nf in outcome.normalized:
            if nf.unmapped:
                seen.add((outcome.tool_id, nf.finding.native_label))
    return sorted(seen)


@dataclass(frozen=True)
class TaskOutcome:
    """One completed task as the aggregation passes see it."""

    output_dir: str
    contract_id: str
    source_path: str
    tool_id: str
    version_label: str
    exit_class: ExitClass
    report: ParsedReport
    normalized: tuple[NormalizedFinding, ...]

    @property
    def tool_key(self) -> str:
        return f"{self.tool_id}:{self.version_label}"


def collect_outcomes(
    results_root: str | Path,
    entries: Iterable[Mapping],
    finished: Mapping[str, tuple[ExitClass, ParsedReport | None]],
    taxonomy: TaxonomyMap,
) -> tuple[list[TaskOutcome], list[str]]:
    """Join the plan lock's task entries with the outcomes a command holds.

    ``finished`` maps an output dir to its exit class and parsed report; the
    report is None for a task finished by an earlier command, and only then
    is its result.json read. Returns (outcomes sorted by output dir, output
    dirs absent from ``finished`` or without a readable result.json).
    Incomplete tasks are reported, not fatal: a stopped run can still be
    summarized, and reparse rewrites a torn result.json.
    """
    outcomes: list[TaskOutcome] = []
    incomplete: list[str] = []
    for entry in sorted(entries, key=lambda e: e["output_dir"]):
        output_dir = entry["output_dir"]
        if output_dir not in finished:
            incomplete.append(output_dir)
            continue
        exit_class, report = finished[output_dir]
        if report is None:
            try:
                report = read_report(Path(results_root, output_dir, RESULT_FILENAME))
            except (OSError, ValueError, KeyError, TypeError):
                incomplete.append(output_dir)
                continue
        outcomes.append(
            TaskOutcome(
                output_dir=output_dir,
                contract_id=entry["contract"],
                source_path=entry["source_path"],
                tool_id=entry["tool"],
                version_label=entry["tool_version"],
                exit_class=exit_class,
                report=report,
                normalized=tuple(normalize(report, entry["tool"], taxonomy)),
            )
        )
    return outcomes, incomplete


def _sarif_location(outcome: TaskOutcome, finding: Finding) -> dict | None:
    location = finding.location
    if isinstance(location, SourceLocation):
        uri = location.file or outcome.source_path
        return {
            "physicalLocation": {
                "artifactLocation": {"uri": Path(uri).as_posix()},
                "region": {"startLine": max(1, location.line)},
            }
        }
    if isinstance(location, BytecodeLocation):
        # SARIF has no EVM-offset notion; a synthetic artifact URI plus a byte
        # offset keeps the document valid without losing the position.
        return {
            "physicalLocation": {
                "artifactLocation": {"uri": f"bytecode/{outcome.contract_id}"},
                "region": {"byteOffset": max(0, location.offset)},
            }
        }
    return None


def emit_sarif(outcomes: Sequence[TaskOutcome], taxonomy: TaxonomyMap) -> dict:
    """One SARIF run per (tool, version); results ordered by output dir.

    Tools that produced no findings still appear as runs with an empty
    results array, so a consumer sees what actually ran.
    """
    groups: dict[tuple[str, str], list[TaskOutcome]] = {}
    for outcome in sorted(outcomes, key=lambda o: o.output_dir):
        groups.setdefault((outcome.tool_id, outcome.version_label), []).append(outcome)

    runs = []
    for (tool_id, version_label), group in sorted(groups.items()):
        used_swc: set[str] = set()
        results = []
        for outcome in group:
            for nf in outcome.normalized:
                rule_id = nf.swc_id or nf.finding.native_label
                if nf.swc_id is not None:
                    used_swc.add(nf.swc_id)
                result = {
                    "ruleId": rule_id,
                    "level": "warning",
                    "message": {"text": nf.finding.message},
                }
                location = _sarif_location(outcome, nf.finding)
                if location is not None:
                    result["locations"] = [location]
                results.append(result)
        rules = []
        for swc_id in sorted(used_swc):
            entry = taxonomy.catalog[swc_id]
            rule = {
                "id": swc_id,
                "shortDescription": {"text": entry.title},
            }
            if entry.ref:
                rule["helpUri"] = entry.ref
            rules.append(rule)
        runs.append(
            {
                "tool": {
                    "driver": {
                        "name": tool_id,
                        "version": version_label,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        )
    return {"$schema": SARIF_SCHEMA_URI, "version": SARIF_VERSION, "runs": runs}


# Keywords that assert nothing under jsonschema.validate (no format checker).
_ANNOTATIONS = frozenset({"$schema", "title", "description", "definitions", "format"})
_SCALARS = (str, int, float, bool, type(None))
_TYPES = {
    "object": lambda x: type(x) is dict,
    "array": lambda x: type(x) is list,
    "string": lambda x: type(x) is str,
    "integer": lambda x: type(x) is int,  # stricter than draft-07: no bool, no 1.0
}
# The values draft-07's metaschema allows, or fewer, for the keywords above
# whose value is not a subschema; a subschema is checked by compiling it.
_VALUE_CHECKS = {
    "$schema": lambda v: type(v) is str,
    "title": lambda v: type(v) is str,
    "description": lambda v: type(v) is str,
    "format": lambda v: type(v) is str,
    "$ref": lambda v: type(v) is str,
    "definitions": lambda v: type(v) is dict,
    "properties": lambda v: type(v) is dict,
    "required": lambda v: type(v) is list
    and all(type(k) is str for k in v)
    and len(set(v)) == len(v),
    "enum": lambda v: type(v) is list,
    "minLength": lambda v: type(v) is int and v >= 0,
    "minimum": lambda v: type(v) in (int, float),
}


def compile_schema(schema: dict) -> Callable[[object], bool]:
    """A predicate that never accepts what draft-07 rejects under ``schema``.

    It may reject more; jsonschema then has the last word. Raises ValueError
    for a schema draft-07's metaschema refuses and for a keyword or value it
    cannot compile, so jsonschema need not be imported to check the schema.
    """
    definitions = schema.get("definitions", {}) if type(schema) is dict else {}
    return _compile(schema, definitions, ())


def _compile(schema, definitions: dict, resolving: tuple) -> Callable[[object], bool]:
    if type(schema) is not dict:
        raise ValueError(f"cannot compile schema {schema!r}")
    for key, value in schema.items():
        if key in _VALUE_CHECKS and not _VALUE_CHECKS[key](value):
            raise ValueError(f"invalid value for {key!r}: {value!r}")
    for sub in schema.get("definitions", {}).values():
        _compile(sub, definitions, resolving)
    if "$ref" in schema:  # draft-07 ignores the siblings of a $ref, once they are valid
        _compile({k: v for k, v in schema.items() if k != "$ref"}, definitions, resolving)
        ref = schema["$ref"]
        name = ref.removeprefix("#/definitions/")
        if name == ref or name not in definitions or name in resolving:
            raise ValueError(f"cannot compile $ref {ref!r}")
        return _compile(definitions[name], definitions, (*resolving, name))
    checks = []
    for key, value in schema.items():
        if key in _ANNOTATIONS:
            continue
        members = [value] if key == "const" else value
        if key == "type" and type(value) is str and value in _TYPES:
            checks.append(_TYPES[value])
        elif key == "required":
            checks.append(
                lambda x, keys=tuple(value): not isinstance(x, dict) or all(k in x for k in keys)
            )
        elif key == "properties":
            props = {k: _compile(v, definitions, resolving) for k, v in value.items()}
            checks.append(
                lambda x, props=props: not isinstance(x, dict)
                or all(p(x[k]) for k, p in props.items() if k in x)
            )
        elif key == "additionalProperties" and value is False:
            allowed = frozenset(schema.get("properties", ()))
            checks.append(lambda x, allowed=allowed: not isinstance(x, dict) or x.keys() <= allowed)
        elif key == "items":
            item = _compile(value, definitions, resolving)
            checks.append(lambda x, item=item: not isinstance(x, list) or all(map(item, x)))
        elif key in ("const", "enum") and all(type(v) in _SCALARS for v in members):
            options = frozenset((type(v), v) for v in members)
            checks.append(lambda x, options=options: type(x) in _SCALARS and (type(x), x) in options)
        elif key == "minLength":
            checks.append(lambda x, n=value: not isinstance(x, str) or len(x) >= n)
        elif key == "minimum":
            checks.append(
                lambda x, m=value: isinstance(x, bool) or not isinstance(x, numbers.Number) or x >= m
            )
        else:
            raise ValueError(f"cannot compile keyword {key!r}: {value!r}")
    return lambda x, checks=tuple(checks): all(check(x) for check in checks)


@functools.cache
def _sarif_schema() -> tuple[dict, Callable[[object], bool]]:
    schema = json.loads(sarif_schema_path().read_text(encoding="utf-8"))
    return schema, compile_schema(schema)


def validate_sarif(doc: dict) -> None:
    """Raises jsonschema.ValidationError if the document is not valid SARIF.

    The schema is read and compiled once per process. A document the compiled
    check refuses goes to jsonschema, which raises the error or accepts it.
    """
    schema, accepts = _sarif_schema()
    if not accepts(doc):
        import jsonschema  # ~0.1 s to import, so only a refused document pays it

        jsonschema.validate(doc, schema)


def write_sarif(path: str | Path, outcomes: Sequence[TaskOutcome], taxonomy: TaxonomyMap) -> None:
    """Write ``emit_sarif(outcomes, taxonomy)`` one (tool, version) run at a time.

    Each run is emitted and validated as a one-run document before it is
    written; the schema constrains ``runs`` only through its items, so that
    equals validating the whole document. A refused run leaves ``path`` as it was.
    """
    groups: dict[tuple[str, str], list[TaskOutcome]] = {}
    for outcome in outcomes:
        groups.setdefault((outcome.tool_id, outcome.version_label), []).append(outcome)

    def runs():
        for key in sorted(groups):
            doc = emit_sarif(groups[key], taxonomy)
            validate_sarif(doc)
            yield doc["runs"][0]

    if not groups:
        validate_sarif(emit_sarif([], taxonomy))
    write_json(Path(path), {"$schema": SARIF_SCHEMA_URI, "version": SARIF_VERSION, "runs": runs()})


def error_rate_series(
    outcomes: Iterable[TaskOutcome], keys: Mapping[str, int], bin_size: int
) -> dict[str, list[tuple[int, float]]]:
    """Per-tool (bin index, error percentage) pairs, binned by each contract's key.

    Empty bins are omitted. ``keys`` must hold every outcome's contract and
    ``bin_size`` must be positive; the CLI checks both before any task runs.
    """
    per_tool: dict[str, dict[int, list[int]]] = {}
    for outcome in outcomes:
        bin_index = keys[outcome.contract_id] // bin_size
        bucket = per_tool.setdefault(outcome.tool_key, {}).setdefault(bin_index, [0, 0])
        bucket[1] += 1
        if outcome.exit_class is ExitClass.TOOL_ERROR:
            bucket[0] += 1
    return {
        tool: [(b, 100.0 * err / total) for b, (err, total) in sorted(bins.items())]
        for tool, bins in sorted(per_tool.items())
    }


def pct(numerator: int, denominator: int) -> float:
    """Percentage rounded half-up to two decimals; 0.0 for an empty set."""
    if denominator == 0:
        return 0.0
    value = Decimal(100) * Decimal(numerator) / Decimal(denominator)
    return float(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def build_summary(
    outcomes: Sequence[TaskOutcome],
    skips: Sequence[Mapping] = (),
    incomplete: Sequence[str] = (),
    series: Mapping[str, list[tuple[int, float]]] | None = None,
    stamp: str | None = None,
) -> dict:
    """Per-tool exit-class counts and rates, ready for summary.json.

    ``stamp`` is the ``report_stamp`` of the inputs the reports were built
    from; ``reports_current`` compares it with the next command's.
    """
    per_tool: dict[str, dict] = {}
    for outcome in sorted(outcomes, key=lambda o: (o.tool_key, o.output_dir)):
        stats = per_tool.setdefault(
            outcome.tool_key,
            {c.value: 0 for c in ExitClass} | {"total": 0, "findings": 0},
        )
        stats["total"] += 1
        stats[outcome.exit_class.value] += 1
        stats["findings"] += len(outcome.report.findings)
    for stats in per_tool.values():
        stats["error_rate"] = pct(stats["tool_error"], stats["total"])
        stats["failure_rate"] = pct(stats["tool_failure"], stats["total"])
    totals = {c.value: 0 for c in ExitClass} | {"total": 0, "findings": 0}
    for stats in per_tool.values():
        for field in totals:
            totals[field] += stats[field]
    doc = {
        "schema": SUMMARY_SCHEMA,
        "tools": per_tool,
        "totals": totals,
        "unmapped_labels": [list(pair) for pair in unmapped_labels(outcomes)],
        "skips": len(skips),
        "incomplete": sorted(incomplete),
    }
    if series is not None:
        doc["error_rate_series"] = {
            tool: [[b, rate] for b, rate in points] for tool, points in series.items()
        }
    if stamp is not None:
        doc["stamp"] = stamp
    return doc


def report_stamp(
    taxonomy: bytes,
    tasks: Sequence[Mapping],
    skips: Sequence[Mapping],
    keys: Mapping[str, int] | None,
    bin_size: int,
    sarif: bool,
) -> str:
    """Digest of every input the reports depend on besides the tasks' stored results.

    Those inputs are the taxonomy file's bytes, the plan lock's task and skip
    entries, the ``--keys`` mapping, ``--bin-size``, ``--sarif`` and the
    summary schema. It holds no path, so equal inputs give equal stamps
    under any results root.
    """
    inputs = {
        "bin_size": bin_size,
        "keys": keys,
        "sarif": sarif,
        "schema": SUMMARY_SCHEMA,
        "skips": skips,
        "tasks": tasks,
        "taxonomy": hashlib.sha256(taxonomy).hexdigest(),
    }
    return hashlib.sha256(json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def reports_current(results_root: str | Path, stamp: str, sarif: bool) -> bool:
    """True when exactly the reports a command would write exist and ``summary.json`` carries ``stamp``.

    A missing, unreadable or unstamped ``summary.json`` is not current, nor
    is a ``report.sarif`` beside ``sarif=False``. The stamp stays true only
    while no ``result.json`` changes, so a command deletes ``summary.json``
    before it changes one.
    """
    root = Path(results_root)
    if not (root / FINDINGS_FILENAME).is_file() or (root / SARIF_FILENAME).is_file() != sarif:
        return False
    try:
        doc = json.loads((root / SUMMARY_FILENAME).read_bytes())
    except (OSError, ValueError, RecursionError):
        return False
    return isinstance(doc, dict) and doc.get("stamp") == stamp


def write_summary(path: str | Path, summary: dict) -> None:
    write_json(Path(path), summary)


def _location_text(outcome: TaskOutcome, finding: Finding) -> str:
    location = finding.location
    if isinstance(location, SourceLocation):
        return f"{location.file or outcome.source_path}:{location.line}"
    if isinstance(location, BytecodeLocation):
        return f"offset:{location.offset}"
    return ""


def write_findings_csv(path: str | Path, outcomes: Sequence[TaskOutcome]) -> None:
    """One row per normalized finding; the task column is the task's output dir."""
    # A tool's JSON can escape a lone surrogate into a label; UTF-8 cannot hold it.
    with replacing(Path(path), 0o644, encoding="utf-8", errors="backslashreplace", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["task", "tool", "version", "label", "swc", "dasp", "location"])
        for outcome in sorted(outcomes, key=lambda o: o.output_dir):
            for nf in outcome.normalized:
                writer.writerow(
                    [
                        outcome.output_dir,
                        outcome.tool_id,
                        outcome.version_label,
                        nf.finding.native_label,
                        nf.swc_id or "",
                        nf.dasp_class if nf.dasp_class is not None else "",
                        _location_text(outcome, nf.finding),
                    ]
                )


def read_keys(path: str | Path) -> dict[str, int]:
    """contract id -> integer key. Lines with a non-integer key column are
    treated as headers or comments and skipped."""
    out: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for row in csv.reader(fh):
            if len(row) < 2 or row[0].lstrip().startswith("#"):
                continue
            contract, key = row[0].strip(), row[1].strip()
            try:
                out[contract] = int(key)
            except ValueError:
                continue
    return out
