"""Taxonomy normalization, SARIF emission and aggregate run analytics."""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import numbers
import os
from itertools import groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import yaml

from .model import HarnessError
from .parsing import RESULT_FILENAME, ExitClass, read_findings
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


class TaxonomyEntry(NamedTuple):
    swc_id: str | None = None
    dasp_class: int | None = None


class CatalogEntry(NamedTuple):
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


_UNMAPPED = TaxonomyEntry()

# A finding as the reports see it: (label, message, location, swc id, dasp class).
# The location is as ``parsing.read_findings`` reads it; the swc id and dasp
# class are the taxonomy's, both None for an unmapped label.
Row = tuple[str, str, tuple | int | None, str | None, int | None]


class TaskOutcome(NamedTuple):
    """One completed task as the reports see it."""

    output_dir: str
    contract_id: str
    source_path: str
    tool_id: str
    version_label: str
    exit_class: ExitClass
    findings: list[Row]

    @property
    def tool_key(self) -> str:
        return f"{self.tool_id}:{self.version_label}"


def collect_outcomes(
    results_root: str | Path,
    entries: Iterable[Mapping],
    finished: Mapping[str, ExitClass],
    taxonomy: TaxonomyMap,
    incomplete: list[str] | None = None,
) -> Iterator[TaskOutcome]:
    """Yield the outcome of each plan lock task entry, in the entries' order.

    ``finished`` maps an output dir to its exit class. A task's
    ``result.json`` is read only when its outcome is due, so one task's
    findings are held at a time. An entry absent from ``finished`` or without
    a readable ``result.json`` yields nothing and is appended to
    ``incomplete``. Incomplete tasks are reported, not fatal: a stopped run
    can still be summarized, and reparse rewrites a torn result.json.
    """
    for entry in entries:
        output_dir, tool_id = entry["output_dir"], entry["tool"]
        try:
            exit_class = finished[output_dir]
            findings = []
            for label, message, location in read_findings(os.path.join(results_root, output_dir, RESULT_FILENAME)):
                mapped = taxonomy.lookup(tool_id, label) or _UNMAPPED
                findings.append((label, message, location, mapped.swc_id, mapped.dasp_class))
        except (OSError, ValueError, KeyError, TypeError):
            if incomplete is not None:
                incomplete.append(output_dir)
            continue
        yield TaskOutcome(
            output_dir, entry["contract"], entry["source_path"], tool_id, entry["tool_version"], exit_class, findings
        )


def _sarif_location(outcome: TaskOutcome, location: tuple | int) -> dict:
    if isinstance(location, tuple):
        line, file = location
        return {
            "physicalLocation": {
                "artifactLocation": {"uri": Path(file or outcome.source_path).as_posix()},
                "region": {"startLine": max(1, line)},
            }
        }
    # SARIF has no EVM-offset notion; a synthetic artifact URI plus a byte
    # offset keeps the document valid without losing the position.
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": f"bytecode/{outcome.contract_id}"},
            "region": {"byteOffset": max(0, location)},
        }
    }


def _sarif_document(runs) -> dict:
    return {"$schema": SARIF_SCHEMA_URI, "version": SARIF_VERSION, "runs": runs}


def emit_sarif(outcomes: Iterable[TaskOutcome], taxonomy: TaxonomyMap) -> dict:
    """The SARIF document of ``outcomes``, which come sorted by (tool, version, output dir).

    One run per (tool, version), its results in the outcomes' order. Tools
    that produced no findings still appear as runs with an empty results
    array, so a consumer sees what actually ran. The document is built as
    ``paths.write_json`` encodes it: ``runs`` and each run's ``results`` are
    generators, and a run's ``tool`` is a callable that builds the driver,
    whose rules are the SWC ids the run's results used ("results" sorts
    before "tool").
    """
    return _sarif_document(
        _sarif_run(tool_id, version_label, group, taxonomy)
        for (tool_id, version_label), group in groupby(outcomes, key=attrgetter("tool_id", "version_label"))
    )


def _sarif_run(tool_id: str, version_label: str, outcomes: Iterable[TaskOutcome], taxonomy: TaxonomyMap) -> dict:
    used_swc: set[str] = set()

    def results():
        for outcome in outcomes:
            for label, message, location, swc_id, _ in outcome.findings:
                if swc_id is not None:
                    used_swc.add(swc_id)
                result = {"ruleId": swc_id or label, "level": "warning", "message": {"text": message}}
                if location is not None:
                    result["locations"] = [_sarif_location(outcome, location)]
                yield result

    def tool() -> dict:
        rules = []
        for swc_id in sorted(used_swc):
            entry = taxonomy.catalog[swc_id]
            rule = {"id": swc_id, "shortDescription": {"text": entry.title}}
            if entry.ref:
                rule["helpUri"] = entry.ref
            rules.append(rule)
        return {"driver": {"name": tool_id, "version": version_label, "rules": rules}}

    return {"results": results(), "tool": tool}


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
            checks.append(lambda x, keys=frozenset(value): not isinstance(x, dict) or keys <= x.keys())
        elif key == "properties":
            checks.append(_properties_check(tuple((k, _compile(v, definitions, resolving)) for k, v in value.items())))
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
    return checks[0] if len(checks) == 1 else _all_checks(tuple(checks))


# Plain loops: a generator under all() costs a frame per call, and the checks run once per SARIF value.
def _properties_check(props: tuple) -> Callable[[object], bool]:
    def check(x) -> bool:
        if isinstance(x, dict):
            for key, accepts in props:
                if key in x and not accepts(x[key]):
                    return False
        return True

    return check


def _all_checks(checks: tuple) -> Callable[[object], bool]:
    def check(x) -> bool:
        for accepts in checks:
            if not accepts(x):
                return False
        return True

    return check


@functools.cache
def _sarif_schema() -> tuple[dict, Callable[[object], bool], Callable[[object], bool]]:
    """The bundled schema, its compiled check, and the compiled check of one result."""
    schema = json.loads(sarif_schema_path().read_text(encoding="utf-8"))
    result = {"$ref": "#/definitions/result", "definitions": schema.get("definitions", {})}
    return schema, compile_schema(schema), compile_schema(result)


def validate_sarif(doc: dict) -> None:
    """Raises jsonschema.ValidationError if the document is not valid SARIF.

    The schema is read and compiled once per process. A document the compiled
    check refuses goes to jsonschema, which raises the error or accepts it.
    """
    schema, accepts, _ = _sarif_schema()
    if not accepts(doc):
        import jsonschema  # ~0.1 s to import, so only a refused document pays it

        jsonschema.validate(doc, schema)


def write_sarif(path: str | Path, outcomes: Iterable[TaskOutcome], taxonomy: TaxonomyMap) -> None:
    """Write ``emit_sarif(outcomes, taxonomy)`` result by result.

    The document header is checked first. Each result is checked by the
    compiled check of one result as it passes; a result that check refuses
    goes to ``validate_sarif`` as a one-result document, so jsonschema has
    the last word. Each run's skeleton (its tool, rules included, with no
    results) is checked once its results are through. The schema constrains
    ``runs`` and a run's ``results`` only through their items, so that equals
    validating the whole document. A refused result or run leaves ``path`` as it was.
    """
    validate_sarif(_sarif_document([]))
    doc = emit_sarif(outcomes, taxonomy)
    write_json(Path(path), doc | {"runs": (_checked_run(run) for run in doc["runs"])})


def _checked_run(run: dict) -> dict:
    accepts_result = _sarif_schema()[2]

    def results():
        for result in run["results"]:
            if not accepts_result(result):
                validate_sarif(_sarif_document([{"tool": run["tool"](), "results": [result]}]))
            yield result

    def tool() -> dict:
        built = run["tool"]()
        validate_sarif(_sarif_document([{"tool": built, "results": []}]))
        return built

    return {"results": results(), "tool": tool}


def pct(numerator: int, denominator: int) -> float:
    """Percentage rounded half-up to two decimals; 0.0 for an empty set."""
    if denominator == 0:
        return 0.0
    # Integer half-up rounding of 10000 * n / d is exact; the one division by 100 then rounds correctly.
    return (20000 * numerator + denominator) // (2 * denominator) / 100


_COUNTED = (*(c.value for c in ExitClass), "total", "findings")


class SummaryCounts:
    """The counts of ``summary.json``, folded over the outcomes as they pass.

    It holds counters per tool key and per error-rate bin and the unmapped
    (tool, label) pairs, never an outcome. With ``keys`` (contract id ->
    integer key) it counts the error-rate series, binning each contract's key
    by ``bin_size``; ``keys`` must hold every outcome's contract and
    ``bin_size`` must be positive, which the CLI checks before any task runs.
    """

    def __init__(self, keys: Mapping[str, int] | None = None, bin_size: int = 1):
        self.keys = keys
        self.bin_size = bin_size
        self.tools: dict[str, dict[str, int]] = {}
        self.bins: dict[str, dict[int, list[int]]] = {}  # tool key -> bin -> [errors, total]
        self.unmapped: set[tuple[str, str]] = set()

    def counting(self, outcomes: Iterable[TaskOutcome]) -> Iterator[TaskOutcome]:
        """Yield each outcome once it is counted."""
        for outcome in outcomes:
            tool_key = outcome.tool_key
            stats = self.tools.setdefault(tool_key, dict.fromkeys(_COUNTED, 0))
            stats["total"] += 1
            stats[outcome.exit_class.value] += 1
            stats["findings"] += len(outcome.findings)
            for label, _, _, swc_id, dasp_class in outcome.findings:
                if swc_id is None and dasp_class is None:
                    self.unmapped.add((outcome.tool_id, label))
            if self.keys is not None:
                bin_index = self.keys[outcome.contract_id] // self.bin_size
                bucket = self.bins.setdefault(tool_key, {}).setdefault(bin_index, [0, 0])
                bucket[1] += 1
                if outcome.exit_class is ExitClass.TOOL_ERROR:
                    bucket[0] += 1
            yield outcome


def build_summary(
    counts: SummaryCounts,
    skips: Sequence[Mapping] = (),
    incomplete: Sequence[str] = (),
    stamp: str | None = None,
) -> dict:
    """Per-tool exit-class counts and rates, ready for summary.json.

    With ``counts.keys`` the document holds ``error_rate_series``: per tool
    key, the (bin, error percentage) pairs of its nonempty bins. ``stamp`` is
    the ``report_stamp`` of the inputs the reports were built from;
    ``reports_current`` compares it with the next command's.
    """
    per_tool = {tool_key: dict(stats) for tool_key, stats in counts.tools.items()}
    for stats in per_tool.values():
        stats["error_rate"] = pct(stats["tool_error"], stats["total"])
        stats["failure_rate"] = pct(stats["tool_failure"], stats["total"])
    totals = dict.fromkeys(_COUNTED, 0)
    for stats in per_tool.values():
        for field in totals:
            totals[field] += stats[field]
    doc = {
        "schema": SUMMARY_SCHEMA,
        "tools": per_tool,
        "totals": totals,
        "unmapped_labels": [list(pair) for pair in sorted(counts.unmapped)],
        "skips": len(skips),
        "incomplete": sorted(incomplete),
    }
    if counts.keys is not None:
        doc["error_rate_series"] = {
            tool_key: [[b, 100.0 * errors / total] for b, (errors, total) in sorted(bins.items())]
            for tool_key, bins in sorted(counts.bins.items())
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
    under any results root. The digest is of their compact, key-sorted JSON,
    fed to SHA-256 a slice of entries at a time, so that text is never held whole.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    digest = hashlib.sha256()
    head = {"bin_size": bin_size, "keys": keys, "sarif": sarif, "schema": SUMMARY_SCHEMA}
    digest.update(encode(head)[:-1].encode())  # the keys that sort before "skips", without the closing brace
    for name, entries in (("skips", skips), ("tasks", tasks)):
        digest.update(f',"{name}":['.encode())
        for start in range(0, len(entries), _STAMP_SLICE):
            if start:
                digest.update(b",")
            digest.update(encode(entries[start:start + _STAMP_SLICE])[1:-1].encode())  # without the brackets
        digest.update(b"]")
    digest.update(f',"taxonomy":"{hashlib.sha256(taxonomy).hexdigest()}"}}'.encode())
    return digest.hexdigest()


# Lock entries encoded at a time by report_stamp (~50 KiB of JSON).
_STAMP_SLICE = 256


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


def _location_text(outcome: TaskOutcome, location: tuple | int | None) -> str:
    if location is None:
        return ""
    if isinstance(location, tuple):
        line, file = location
        return f"{file or outcome.source_path}:{line}"
    return f"offset:{location}"


def write_findings_csv(path: str | Path, outcomes: Iterable[TaskOutcome]) -> None:
    """One row per finding, in the outcomes' order; the task column is the task's output dir."""
    # A tool's JSON can escape a lone surrogate into a label; UTF-8 cannot hold it.
    with replacing(Path(path), 0o644, encoding="utf-8", errors="backslashreplace", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["task", "tool", "version", "label", "swc", "dasp", "location"])
        for outcome in outcomes:
            writer.writerows(
                [
                    outcome.output_dir,
                    outcome.tool_id,
                    outcome.version_label,
                    label,
                    swc_id or "",
                    "" if dasp_class is None else dasp_class,
                    _location_text(outcome, location),
                ]
                for label, _, location, swc_id, dasp_class in outcome.findings
            )


def write_reports(
    results_root: Path,
    tasks: Sequence[Mapping],
    skips: Sequence[Mapping],
    finished: Mapping[str, ExitClass],
    taxonomy: TaxonomyMap,
    *,
    keys: Mapping[str, int] | None,
    bin_size: int,
    sarif: bool,
    stamp: str,
) -> None:
    """Build every report from the tasks' ``result.json`` files, ``summary.json`` last.

    ``tasks`` and ``skips`` are the plan lock's entries and ``finished`` maps
    each done task's output dir to its exit class. Each ``result.json`` is
    read once for ``findings.csv`` and ``summary.json``, in output dir order,
    and once more for ``report.sarif``, in (tool, version, output dir) order;
    one task's findings are held at a time. ``summary.json`` comes last, so
    its stamp lands only once the others are in place.
    """
    by_dir = sorted(tasks, key=itemgetter("output_dir"))
    counts = SummaryCounts(keys, bin_size)
    incomplete: list[str] = []
    outcomes = collect_outcomes(results_root, by_dir, finished, taxonomy, incomplete)
    write_findings_csv(results_root / FINDINGS_FILENAME, counts.counting(outcomes))
    if sarif:
        by_run = sorted(by_dir, key=itemgetter("tool_version"))
        by_run.sort(key=itemgetter("tool"))  # stable, so each run keeps output dir order
        write_sarif(results_root / SARIF_FILENAME, collect_outcomes(results_root, by_run, finished, taxonomy), taxonomy)
    else:  # one left by an earlier --sarif command would disagree with the new reports
        (results_root / SARIF_FILENAME).unlink(missing_ok=True)
    write_summary(results_root / SUMMARY_FILENAME, build_summary(counts, skips, incomplete, stamp))


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
