"""Taxonomy normalization, SARIF emission and aggregate run analytics."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import jsonschema
import yaml

from .model import (
    BytecodeLocation,
    ContractFormat,
    Finding,
    HarnessError,
    NormalizedFinding,
    ParsedReport,
    SourceLocation,
    ToolSpec,
)
from .parsing import RESULT_FILENAME, ExitClass, read_report
from .paths import sarif_schema_path
from .plan import read_plan_lock
from .runner import CorruptMarkerError, read_done_marker

SARIF_FILENAME = "report.sarif"
FINDINGS_FILENAME = "findings.csv"
SUMMARY_FILENAME = "summary.json"

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
            doc = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
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


def normalize(
    report: ParsedReport, tool: ToolSpec | str, taxonomy: TaxonomyMap
) -> list[NormalizedFinding]:
    """Attach SWC/DASP labels to every finding; unknown labels stay unmapped."""
    tool_id = tool.tool_id if isinstance(tool, ToolSpec) else tool
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
    format: ContractFormat
    tool_id: str
    version_label: str
    exit_class: ExitClass
    report: ParsedReport
    normalized: tuple[NormalizedFinding, ...]

    @property
    def tool_key(self) -> str:
        return f"{self.tool_id}:{self.version_label}"


def collect_outcomes(
    results_root: str | Path, taxonomy: TaxonomyMap
) -> tuple[list[TaskOutcome], list[str]]:
    """Read every completed task under a results root.

    Returns (outcomes sorted by output dir, output dirs without a valid done
    marker). Incomplete tasks are reported, not fatal: a stopped run can
    still be summarized.
    """
    root = Path(results_root)
    lock = read_plan_lock(root)
    outcomes: list[TaskOutcome] = []
    incomplete: list[str] = []
    for entry in sorted(lock["tasks"], key=lambda e: e["output_dir"]):
        out_dir = root / entry["output_dir"]
        try:
            marker = read_done_marker(out_dir)
        except CorruptMarkerError:
            marker = None
        result_path = out_dir / RESULT_FILENAME
        if marker is None or not result_path.exists():
            incomplete.append(entry["output_dir"])
            continue
        report = read_report(result_path)
        exit_class = ExitClass(marker[2])
        normalized = tuple(normalize(report, entry["tool"], taxonomy))
        outcomes.append(
            TaskOutcome(
                output_dir=entry["output_dir"],
                contract_id=entry["contract"],
                source_path=entry["source_path"],
                format=ContractFormat(entry["format"]),
                tool_id=entry["tool"],
                version_label=entry["tool_version"],
                exit_class=exit_class,
                report=report,
                normalized=normalized,
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


def validate_sarif(doc: dict) -> None:
    """Raises jsonschema.ValidationError if the document is not valid SARIF."""
    schema = json.loads(sarif_schema_path().read_text(encoding="utf-8"))
    jsonschema.validate(doc, schema)


def write_sarif(path: str | Path, doc: dict) -> None:
    validate_sarif(doc)
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class SeriesRecord:
    """One task outcome pinned to an external integer key (e.g. block height)."""

    tool: str
    exit_class: ExitClass
    key: int | None = None


def series_records(
    outcomes: Iterable[TaskOutcome], keys: Mapping[str, int]
) -> list[SeriesRecord]:
    records = []
    for outcome in outcomes:
        key = keys.get(outcome.contract_id)
        if key is None:
            raise MissingKeyError(f"no key for contract {outcome.contract_id!r}")
        records.append(SeriesRecord(outcome.tool_key, outcome.exit_class, key))
    return records


def error_rate_series(
    records: Sequence[SeriesRecord], bin_size: int
) -> dict[str, list[tuple[int, float]]]:
    """Per-tool (bin index, error percentage) pairs; empty bins are omitted."""
    if bin_size <= 0:
        raise ValueError("bin_size must be positive")
    per_tool: dict[str, dict[int, list[int]]] = {}
    for record in records:
        if record.key is None:
            raise MissingKeyError(f"record for {record.tool!r} has no key")
        bin_index = record.key // bin_size
        bucket = per_tool.setdefault(record.tool, {}).setdefault(bin_index, [0, 0])
        bucket[1] += 1
        if record.exit_class is ExitClass.TOOL_ERROR:
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


_CLASS_FIELDS = {
    ExitClass.SUCCESS: "success",
    ExitClass.TOOL_ERROR: "tool_error",
    ExitClass.TOOL_FAILURE: "tool_failure",
    ExitClass.TIMEOUT: "timeout",
    ExitClass.OUT_OF_MEMORY: "oom",
}


def build_summary(
    outcomes: Sequence[TaskOutcome],
    skips: Sequence[Mapping] = (),
    incomplete: Sequence[str] = (),
    series: Mapping[str, list[tuple[int, float]]] | None = None,
) -> dict:
    """Per-tool exit-class counts and rates, ready for summary.json."""
    per_tool: dict[str, dict] = {}
    for outcome in sorted(outcomes, key=lambda o: (o.tool_key, o.output_dir)):
        stats = per_tool.setdefault(
            outcome.tool_key,
            {field: 0 for field in _CLASS_FIELDS.values()} | {"total": 0, "findings": 0},
        )
        stats["total"] += 1
        stats[_CLASS_FIELDS[outcome.exit_class]] += 1
        stats["findings"] += len(outcome.report.findings)
    for stats in per_tool.values():
        stats["error_rate"] = pct(stats["tool_error"], stats["total"])
        stats["failure_rate"] = pct(stats["tool_failure"], stats["total"])
    totals = {field: 0 for field in _CLASS_FIELDS.values()} | {"total": 0, "findings": 0}
    for stats in per_tool.values():
        for field in totals:
            totals[field] += stats[field]
    doc = {
        "schema": 1,
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
    return doc


def write_summary(path: str | Path, summary: dict) -> None:
    Path(path).write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _location_text(outcome: TaskOutcome, finding: Finding) -> str:
    location = finding.location
    if isinstance(location, SourceLocation):
        return f"{location.file or outcome.source_path}:{location.line}"
    if isinstance(location, BytecodeLocation):
        return f"offset:{location.offset}"
    return ""


def write_findings_csv(path: str | Path, outcomes: Sequence[TaskOutcome]) -> None:
    """One row per normalized finding; the task column is the task's output dir."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
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
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if len(row) < 2 or row[0].lstrip().startswith("#"):
                continue
            contract, key = row[0].strip(), row[1].strip()
            try:
                out[contract] = int(key)
            except ValueError:
                continue
    return out
