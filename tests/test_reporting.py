"""Taxonomy mapping, SARIF output, rate analytics, summary and CSV files."""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import os
import tracemalloc
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanmux import paths, reporting
from scanmux.executor import MockToolBehavior, MockBackend
from scanmux.model import (
    BytecodeLocation,
    ContractFormat,
    Finding,
    ParsedReport,
    SourceLocation,
)
from scanmux.parsing import ExitClass, write_report
from scanmux.paths import bundled_registry, bundled_taxonomy, dump_json, sarif_schema_path
from scanmux.registry import load_registry
from scanmux.reporting import (
    CatalogEntry,
    SummaryCounts,
    TaskOutcome,
    TaxonomyEntry,
    TaxonomyError,
    TaxonomyMap,
    build_summary,
    collect_outcomes,
    compile_schema,
    emit_sarif,
    pct,
    read_keys,
    report_stamp,
    validate_sarif,
    write_findings_csv,
    write_reports,
    write_sarif,
    write_summary,
)

TAXONOMY_YAML = """\
schema: 1
catalog:
  SWC-107:
    title: Reentrancy
    ref: https://swcregistry.io/docs/SWC-107
  SWC-101:
    title: Integer Overflow and Underflow
map:
  mytool:
    Reentrancy: {swc: SWC-107, dasp: 1}
    Overflow: {swc: SWC-101, dasp: 3}
    Oddity: {dasp: 10}
"""


@pytest.fixture
def taxonomy(tmp_path):
    path = tmp_path / "tax.yaml"
    path.write_text(TAXONOMY_YAML)
    return TaxonomyMap.load(path)


class TestPct:
    @pytest.mark.parametrize("num,den,expected", [
        (1, 4, 25.0),
        (1, 3, 33.33),
        (2, 3, 66.67),
        (1, 8, 12.5),
        (1, 800, 0.13),  # round half up, not banker's
        (0, 7, 0.0),
        (7, 7, 100.0),
        (0, 0, 0.0),
    ])
    def test_frozen_cases(self, num, den, expected):
        assert pct(num, den) == expected

    @given(st.integers(0, 1000), st.integers(1, 1000))
    def test_bounded(self, num, den):
        value = pct(min(num, den), den)
        assert 0.0 <= value <= 100.0

    @given(st.integers(1, 500))
    def test_full_set(self, n):
        assert pct(n, n) == 100.0

    @given(st.data())
    def test_equals_decimal_half_up(self, data):
        den = data.draw(st.integers(1, 10**9))
        num = data.draw(st.integers(0, den))
        value = Decimal(100) * Decimal(num) / Decimal(den)
        assert pct(num, den) == float(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))

    def test_equals_decimal_half_up_on_every_small_fraction(self):
        for den in range(1, 120):
            for num in range(den + 1):
                value = Decimal(100) * Decimal(num) / Decimal(den)
                assert pct(num, den) == float(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)), (num, den)


class TestTaxonomyMap:
    def test_lookup(self, taxonomy):
        entry = taxonomy.lookup("mytool", "Reentrancy")
        assert entry == TaxonomyEntry(swc_id="SWC-107", dasp_class=1)

    def test_tool_id_case_insensitive(self, taxonomy):
        assert taxonomy.lookup("MyTool", "Overflow") is not None

    def test_label_case_sensitive(self, taxonomy):
        assert taxonomy.lookup("mytool", "reentrancy") is None

    def test_unknown(self, taxonomy):
        assert taxonomy.lookup("mytool", "Nonsense") is None
        assert taxonomy.lookup("othertool", "Reentrancy") is None

    def test_dasp_only_entry(self, taxonomy):
        entry = taxonomy.lookup("mytool", "Oddity")
        assert entry == TaxonomyEntry(swc_id=None, dasp_class=10)

    def test_catalog_titles(self, taxonomy):
        assert taxonomy.catalog["SWC-107"].title == "Reentrancy"
        assert taxonomy.catalog["SWC-101"].ref is None

    def test_swc_outside_catalog_rejected(self):
        with pytest.raises(TaxonomyError):
            TaxonomyMap({}, {("t", "X"): TaxonomyEntry(swc_id="SWC-999")})

    def test_dasp_out_of_range_rejected(self):
        with pytest.raises(TaxonomyError):
            TaxonomyMap({}, {("t", "X"): TaxonomyEntry(dasp_class=11)})

    def test_load_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("schema: 99\n")
        with pytest.raises(TaxonomyError):
            TaxonomyMap.load(path)

    def test_load_rejects_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("catalog: [unclosed\n")
        with pytest.raises(TaxonomyError):
            TaxonomyMap.load(path)


class TestBundledTaxonomy:
    def test_loads(self):
        TaxonomyMap.load(bundled_taxonomy())

    def test_covers_every_bundled_tool(self):
        taxonomy = TaxonomyMap.load(bundled_taxonomy())
        registry = load_registry(bundled_registry())
        mapped_tools = {tool for tool, _ in taxonomy.entries}
        assert {t.tool_id for t in registry.tools} <= mapped_tools

    def test_catalog_refs_point_at_swc_registry(self):
        taxonomy = TaxonomyMap.load(bundled_taxonomy())
        for swc_id, entry in taxonomy.catalog.items():
            assert swc_id.startswith("SWC-")
            assert entry.ref and swc_id in entry.ref


def outcome(
    output_dir="run/c/t",
    contract_id="c.sol",
    tool="mytool",
    version="1.0",
    exit_class=ExitClass.SUCCESS,
    findings=(),
    taxonomy=None,
):
    rows = []
    for f in ParsedReport(findings=tuple(findings)).findings:
        entry = (taxonomy.lookup(tool, f.native_label) if taxonomy is not None else None) or TaxonomyEntry()
        rows.append((f.native_label, f.message, read_location(f.location), entry.swc_id, entry.dasp_class))
    return TaskOutcome(
        output_dir=output_dir,
        contract_id=contract_id,
        source_path=f"/src/{contract_id}",
        tool_id=tool,
        version_label=version,
        exit_class=exit_class,
        findings=rows,
    )


def read_location(location):
    """A location as parsing.read_findings returns it."""
    if isinstance(location, SourceLocation):
        return (location.line, location.file)
    return None if location is None else location.offset


def in_run_order(outcomes):
    return sorted(outcomes, key=lambda o: (o.tool_id, o.version_label, o.output_dir))


def sarif_doc(outcomes, taxonomy):
    """emit_sarif's document for outcomes in any order, built and read back as plain JSON."""
    return json.loads(dump_json(emit_sarif(in_run_order(outcomes), taxonomy)))


def counted(outcomes, keys=None, bin_size=1):
    counts = SummaryCounts(keys, bin_size)
    assert list(counts.counting(outcomes)) == list(outcomes)
    return counts


class TestNormalize:
    def test_mapped_and_unmapped(self, tmp_path, taxonomy):
        report = ParsedReport(findings=(
            Finding("Reentrancy", "m1"),
            Finding("Mystery", "m2"),
            Finding("Oddity", "m3", BytecodeLocation(4)),
        ))
        (tmp_path / "run").mkdir()
        write_report(tmp_path / "run" / "result.json", report)
        entry = {"output_dir": "run", "contract": "c.sol", "source_path": "c.sol", "tool": "MyTool",
                 "tool_version": "1.0"}
        [collected] = collect_outcomes(tmp_path, [entry], {"run": ExitClass.SUCCESS}, taxonomy)
        assert collected.findings == [
            ("Reentrancy", "m1", None, "SWC-107", 1),
            ("Mystery", "m2", None, None, None),
            ("Oddity", "m3", 4, None, 10),
        ]

    def test_unmapped_labels_aggregation(self, taxonomy):
        outcomes = [
            outcome(findings=[Finding("Mystery", "m")], taxonomy=taxonomy),
            outcome(output_dir="run/d/t", findings=[Finding("Mystery", "m")], taxonomy=taxonomy),
            outcome(output_dir="run/e/t", findings=[Finding("Reentrancy", "m")], taxonomy=taxonomy),
            outcome(output_dir="run/f/t", findings=[Finding("Oddity", "m")], taxonomy=taxonomy),
        ]
        assert counted(outcomes).unmapped == {("mytool", "Mystery")}

    def test_a_label_mapped_to_nothing_is_unmapped(self):
        taxonomy = TaxonomyMap({}, {("mytool", "Blank"): TaxonomyEntry()})
        outcomes = [outcome(findings=[Finding("Blank", "m")], taxonomy=taxonomy)]
        assert build_summary(counted(outcomes))["unmapped_labels"] == [["mytool", "Blank"]]


class TestSarif:
    def test_minimal_document_shape(self, taxonomy):
        doc = sarif_doc([], taxonomy)
        assert doc["version"] == "2.1.0"
        assert doc["runs"] == []
        validate_sarif(doc)

    def test_one_run_per_tool_version(self, taxonomy):
        outcomes = [
            outcome(output_dir="a", tool="mytool", version="1.0"),
            outcome(output_dir="b", tool="mytool", version="2.0"),
            outcome(output_dir="c", tool="other", version="1.0"),
        ]
        doc = sarif_doc(outcomes, taxonomy)
        drivers = [(r["tool"]["driver"]["name"], r["tool"]["driver"]["version"]) for r in doc["runs"]]
        assert drivers == [("mytool", "1.0"), ("mytool", "2.0"), ("other", "1.0")]
        validate_sarif(doc)

    def test_swc_rule_ids_and_catalog_rules(self, taxonomy):
        outcomes = [outcome(
            findings=[Finding("Reentrancy", "call before state", SourceLocation(12))],
            taxonomy=taxonomy,
        )]
        doc = sarif_doc(outcomes, taxonomy)
        run = doc["runs"][0]
        assert run["results"][0]["ruleId"] == "SWC-107"
        assert run["tool"]["driver"]["rules"] == [{
            "id": "SWC-107",
            "shortDescription": {"text": "Reentrancy"},
            "helpUri": "https://swcregistry.io/docs/SWC-107",
        }]
        validate_sarif(doc)

    def test_unmapped_label_becomes_native_rule_id(self, taxonomy):
        outcomes = [outcome(findings=[Finding("Mystery", "m")], taxonomy=taxonomy)]
        doc = sarif_doc(outcomes, taxonomy)
        run = doc["runs"][0]
        assert run["results"][0]["ruleId"] == "Mystery"
        assert run["tool"]["driver"]["rules"] == []
        validate_sarif(doc)

    def test_source_location(self, taxonomy):
        outcomes = [outcome(findings=[
            Finding("Mystery", "m", SourceLocation(7, "contracts/a.sol")),
        ], taxonomy=taxonomy)]
        doc = sarif_doc(outcomes, taxonomy)
        loc = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "contracts/a.sol"
        assert loc["region"] == {"startLine": 7}
        validate_sarif(doc)

    def test_location_falls_back_to_source_path(self, taxonomy):
        outcomes = [outcome(findings=[Finding("Mystery", "m", SourceLocation(7))], taxonomy=taxonomy)]
        doc = sarif_doc(outcomes, taxonomy)
        loc = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "/src/c.sol"

    def test_nonpositive_line_clamped(self, taxonomy):
        outcomes = [outcome(findings=[Finding("Mystery", "m", SourceLocation(0))], taxonomy=taxonomy)]
        doc = sarif_doc(outcomes, taxonomy)
        region = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 1}
        validate_sarif(doc)

    def test_bytecode_location(self, taxonomy):
        outcomes = [outcome(
            contract_id="c.rt.hex",
            findings=[Finding("Mystery", "m", BytecodeLocation(0x40))],
            taxonomy=taxonomy,
        )]
        doc = sarif_doc(outcomes, taxonomy)
        loc = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "bytecode/c.rt.hex"
        assert loc["region"] == {"byteOffset": 64}
        validate_sarif(doc)

    def test_validate_rejects_wrong_version(self, taxonomy):
        doc = sarif_doc([], taxonomy)
        doc["version"] = "2.0.0"
        with pytest.raises(jsonschema.ValidationError):
            validate_sarif(doc)

    def test_validate_rejects_zero_start_line(self, taxonomy):
        outcomes = [outcome(findings=[Finding("Mystery", "m", SourceLocation(5))], taxonomy=taxonomy)]
        doc = sarif_doc(outcomes, taxonomy)
        region = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"]["region"]
        region["startLine"] = 0
        with pytest.raises(jsonschema.ValidationError):
            validate_sarif(doc)

    def test_write_sarif(self, tmp_path, taxonomy):
        path = tmp_path / "report.sarif"
        write_sarif(path, iter([]), taxonomy)
        assert json.loads(path.read_text()) == {"$schema": reporting.SARIF_SCHEMA_URI, "runs": [], "version": "2.1.0"}


SARIF_TAXONOMY = TaxonomyMap(
    {
        "SWC-107": CatalogEntry("Reentrancy", "https://swcregistry.io/docs/SWC-107"),
        "SWC-101": CatalogEntry("Integer Overflow and Underflow"),
    },
    {
        ("mytool", "Reentrancy"): TaxonomyEntry("SWC-107", 1),
        ("mytool", "Overflow"): TaxonomyEntry("SWC-101", 3),
        ("mytool", "Oddity"): TaxonomyEntry(dasp_class=10),
    },
)

# The outcome shapes TestSarif emits: no runs, several tool versions, SWC
# rules, unmapped labels, source and bytecode locations, a clamped line.
EMITTED_OUTCOMES = {
    "empty": [],
    "runs": [
        outcome(output_dir="a", tool="mytool", version="1.0"),
        outcome(output_dir="b", tool="mytool", version="2.0"),
        outcome(output_dir="c", tool="other", version="1.0"),
    ],
    "swc-rule": [outcome(
        findings=[Finding("Reentrancy", "call before state", SourceLocation(12))],
        taxonomy=SARIF_TAXONOMY,
    )],
    "unmapped": [outcome(findings=[Finding("Mystery", "m")], taxonomy=SARIF_TAXONOMY)],
    "source-file": [outcome(
        findings=[Finding("Mystery", "m", SourceLocation(7, "contracts/a.sol"))],
        taxonomy=SARIF_TAXONOMY,
    )],
    "clamped-line": [outcome(findings=[Finding("Mystery", "m", SourceLocation(0))], taxonomy=SARIF_TAXONOMY)],
    "bytecode": [outcome(
        contract_id="c.rt.hex",
        findings=[Finding("Mystery", "m", BytecodeLocation(0x40))],
        taxonomy=SARIF_TAXONOMY,
    )],
}


@st.composite
def emitted_outcomes(draw):
    """Random outcomes of two tools in two versions: every location kind, mapped and unmapped labels."""
    locations = st.one_of(
        st.none(),
        st.builds(SourceLocation, st.integers(-3, 10**6), st.none() | st.text(max_size=8)),
        st.builds(BytecodeLocation, st.integers(-3, 10**6)),
    )
    findings = st.builds(
        Finding,
        st.sampled_from(["Reentrancy", "Overflow", "Oddity", "Mystery"]),
        st.text(max_size=12),
        locations,
    )
    outcomes = [
        outcome(
            output_dir=f"run/{i}",
            contract_id=draw(st.sampled_from(["c.sol", "c.hex", "c.rt.hex"])),
            tool=draw(st.sampled_from(["mytool", "other"])),
            version=draw(st.sampled_from(["1.0", "2.0"])),
            findings=draw(st.lists(findings, max_size=4)),
            taxonomy=SARIF_TAXONOMY,
        )
        for i in range(draw(st.integers(0, 4)))
    ]
    return outcomes


def emitted_documents():
    """emit_sarif over random outcomes."""
    return emitted_outcomes().map(lambda outcomes: sarif_doc(outcomes, SARIF_TAXONOMY))


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# Wrong JSON types (bool and float where an integer belongs), empty strings,
# startLine 0, negative offsets, a wrong level or version.
WRONG_VALUES = st.one_of(
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([1.0, 0.5, -1.5]),
    st.sampled_from(["", "x", "2.0.0", "fatal", "warning"]),
    st.none(),
    st.sampled_from([[], {}, {"text": "t"}]).map(copy.deepcopy),  # mutations edit them
)
KEYS = st.sampled_from(["extra", "text", "id", "startLine", "byteOffset", "level", "$schema"])


@st.composite
def mutated_documents(draw):
    """An emitted document after 1-3 random edits: a dropped key, an added key, a replaced value."""
    doc = copy.deepcopy(draw(emitted_documents()))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        target = _at(doc, path)
        kind = draw(st.sampled_from(["drop", "add", "replace"]))
        if kind == "add" and isinstance(target, dict):
            target[draw(KEYS)] = draw(WRONG_VALUES)
        elif kind == "add" and isinstance(target, list):
            target.append(draw(WRONG_VALUES))
        elif kind == "drop" and path:
            del _at(doc, path[:-1])[path[-1]]
        elif path:
            _at(doc, path[:-1])[path[-1]] = draw(WRONG_VALUES)
        else:
            doc = draw(WRONG_VALUES)
    return doc


# Every keyword compile_schema reads, and values to put under them: each JSON
# type, negative and fractional numbers, duplicate and non-string list members.
COMPILED_KEYWORDS = [
    "$ref", "$schema", "additionalProperties", "const", "definitions", "description",
    "enum", "format", "items", "minLength", "minimum", "properties", "required",
    "title", "type",
]
SCHEMA_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, 3),
        st.sampled_from([0.0, 1.5, -1.0]),
        st.sampled_from(["", "a", "string", "object", "number", "#/definitions/location"]),
        st.lists(st.sampled_from(["a", "b", "string", "array"]), max_size=3),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["a", "type", "minLength", "items"]), children, max_size=3),
    ),
    max_leaves=6,
)


def _subschema_paths(schema, path=()):
    """Where a keyword may sit: the root, each definition, property and items schema."""
    if not isinstance(schema, dict):
        return
    yield path
    for key in ("definitions", "properties"):
        for name, sub in schema.get(key, {}).items():
            yield from _subschema_paths(sub, (*path, key, name))
    yield from _subschema_paths(schema.get("items"), (*path, "items"))


@pytest.fixture(scope="module")
def sarif_schema():
    return json.loads(sarif_schema_path().read_text(encoding="utf-8"))


class TestCompiledSarifCheck:
    @given(doc=mutated_documents())
    def test_never_accepts_what_draft7_rejects(self, sarif_schema, doc):
        if compile_schema(sarif_schema)(doc):
            assert jsonschema.Draft7Validator(sarif_schema).is_valid(doc)

    @given(doc=emitted_documents())
    def test_accepts_every_emitted_document(self, sarif_schema, doc):
        assert compile_schema(sarif_schema)(doc)

    @pytest.mark.parametrize("name", sorted(EMITTED_OUTCOMES))
    def test_validate_takes_the_compiled_path(self, jsonschema_forbidden, name):
        validate_sarif(sarif_doc(EMITTED_OUTCOMES[name], SARIF_TAXONOMY))

    @pytest.mark.parametrize("path,value", [
        (("version",), "2.0.0"),
        (("runs", 0, "results", 0, "level"), "fatal"),
        (("runs", 0, "results", 0, "ruleId"), ""),
        (("runs", 0, "results", 0, "locations", 0, "physicalLocation", "region", "startLine"), 0),
        (("runs", 0, "results", 0, "locations", 0, "physicalLocation", "region", "startLine"), True),
        (("runs", 0, "results", 0, "locations", 0, "physicalLocation", "region", "startLine"), 0.5),
        (("runs", 0, "results", 0, "locations", 0, "physicalLocation", "region", "byteOffset"), -1),
        (("runs", 0, "results", 0, "extra"), "x"),
    ])
    def test_rejection_is_raised_by_jsonschema(self, sarif_schema, path, value):
        doc = sarif_doc(EMITTED_OUTCOMES["swc-rule"], SARIF_TAXONOMY)
        _at(doc, path[:-1])[path[-1]] = value
        assert not compile_schema(sarif_schema)(doc)
        with pytest.raises(jsonschema.ValidationError):
            validate_sarif(doc)

    def test_dropped_required_key_rejected(self, sarif_schema):
        doc = sarif_doc(EMITTED_OUTCOMES["swc-rule"], SARIF_TAXONOMY)
        del doc["runs"][0]["results"][0]["message"]
        assert not compile_schema(sarif_schema)(doc)
        with pytest.raises(jsonschema.ValidationError, match="'message' is a required property"):
            validate_sarif(doc)

    def test_jsonschema_accepts_what_the_check_refuses(self, sarif_schema):
        # draft-07 takes 1.0 as an integer; the compiled check does not
        doc = sarif_doc(EMITTED_OUTCOMES["swc-rule"], SARIF_TAXONOMY)
        doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"]["region"]["startLine"] = 1.0
        assert not compile_schema(sarif_schema)(doc)
        validate_sarif(doc)

    @pytest.mark.parametrize("schema", [
        {"type": "string", "pattern": "^a"},
        {"type": ["string", "null"]},
        {"type": "number"},
        {"type": "object", "additionalProperties": {"type": "string"}},
        {"items": [{"type": "string"}]},
        {"enum": [{"a": 1}]},
        {"$ref": "#/definitions/missing"},
        {"$ref": "other.json#/definitions/x", "definitions": {"x": {}}},
        {"$ref": "#/definitions/loop", "definitions": {"loop": {"$ref": "#/definitions/loop"}}},
    ])
    def test_unknown_keyword_rejected_at_compile_time(self, schema):
        with pytest.raises(ValueError):
            compile_schema(schema)

    def test_bundled_schema_is_valid_draft7(self, sarif_schema):
        jsonschema.Draft7Validator.check_schema(sarif_schema)

    @pytest.mark.parametrize("schema", [
        {"enum": "ab"},
        {"required": "a"},
        {"required": ["a", "a"]},
        {"required": [1]},
        {"minLength": -1},
        {"minLength": True},
        {"minLength": "1"},
        {"minimum": "0"},
        {"minimum": True},
        {"properties": []},
        {"properties": {"a": 1}},
        {"$ref": 1, "definitions": {}},
        {"definitions": {"a": "x"}},
        {"title": 1},
        {"format": None},
    ])
    def test_invalid_keyword_value_rejected_at_compile_time(self, schema):
        with pytest.raises(jsonschema.SchemaError):
            jsonschema.Draft7Validator.check_schema(schema)
        with pytest.raises(ValueError):
            compile_schema(schema)

    @pytest.mark.parametrize("keyword", COMPILED_KEYWORDS)
    @settings(max_examples=60)
    @given(data=st.data())
    def test_refuses_what_the_metaschema_refuses(self, sarif_schema, keyword, data):
        schema = copy.deepcopy(sarif_schema)
        path = data.draw(st.sampled_from(list(_subschema_paths(schema))))
        _at(schema, path)[keyword] = data.draw(SCHEMA_VALUES)
        try:
            jsonschema.Draft7Validator.check_schema(schema)
        except jsonschema.SchemaError:
            with pytest.raises(ValueError):
                compile_schema(schema)

    def test_schema_read_once_per_process(self, monkeypatch):
        reads = []
        read_text = Path.read_text

        def counting(self, *args, **kwargs):
            if self == sarif_schema_path():
                reads.append(self)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        reporting._sarif_schema.cache_clear()
        for name in sorted(EMITTED_OUTCOMES) * 3:
            validate_sarif(sarif_doc(EMITTED_OUTCOMES[name], SARIF_TAXONOMY))
        assert len(reads) == 1


def reference_sarif(outcomes, taxonomy) -> dict:
    """The whole SARIF document of ``outcomes``, built in one shot: the reference the stream must equal."""
    groups = {}
    for o in sorted(outcomes, key=lambda o: o.output_dir):
        groups.setdefault((o.tool_id, o.version_label), []).append(o)
    runs = []
    for (tool_id, version_label), group in sorted(groups.items()):
        used, results = set(), []
        for o in group:
            for label, message, location, swc_id, _ in o.findings:
                if swc_id is not None:
                    used.add(swc_id)
                result = {"ruleId": swc_id or label, "level": "warning", "message": {"text": message}}
                if isinstance(location, tuple):
                    result["locations"] = [{"physicalLocation": {
                        "artifactLocation": {"uri": Path(location[1] or o.source_path).as_posix()},
                        "region": {"startLine": max(1, location[0])},
                    }}]
                elif location is not None:
                    result["locations"] = [{"physicalLocation": {
                        "artifactLocation": {"uri": f"bytecode/{o.contract_id}"},
                        "region": {"byteOffset": max(0, location)},
                    }}]
                results.append(result)
        rules = []
        for swc_id in sorted(used):
            rule = {"id": swc_id, "shortDescription": {"text": taxonomy.catalog[swc_id].title}}
            if taxonomy.catalog[swc_id].ref:
                rule["helpUri"] = taxonomy.catalog[swc_id].ref
            rules.append(rule)
        runs.append({"tool": {"driver": {"name": tool_id, "version": version_label, "rules": rules}},
                     "results": results})
    return {"$schema": reporting.SARIF_SCHEMA_URI, "version": "2.1.0", "runs": runs}


def reference_csv(outcomes) -> bytes:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["task", "tool", "version", "label", "swc", "dasp", "location"])
    for o in sorted(outcomes, key=lambda o: o.output_dir):
        for label, _, location, swc_id, dasp_class in o.findings:
            where = "" if location is None else (
                f"{location[1] or o.source_path}:{location[0]}" if isinstance(location, tuple) else f"offset:{location}"
            )
            writer.writerow([o.output_dir, o.tool_id, o.version_label, label, swc_id or "",
                             "" if dasp_class is None else dasp_class, where])
    return buffer.getvalue().encode("utf-8", "backslashreplace")


def reference_summary(outcomes, skips, incomplete, keys, bin_size, stamp) -> dict:
    def rate(num, den):
        if den == 0:
            return 0.0
        return float((Decimal(100) * num / den).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))

    per_tool, bins, unmapped = {}, {}, set()
    for o in outcomes:
        stats = per_tool.setdefault(o.tool_key, {c.value: 0 for c in ExitClass} | {"total": 0, "findings": 0})
        stats["total"] += 1
        stats[o.exit_class.value] += 1
        stats["findings"] += len(o.findings)
        unmapped |= {(o.tool_id, row[0]) for row in o.findings if row[3] is None and row[4] is None}
        if keys is not None:
            bucket = bins.setdefault(o.tool_key, {}).setdefault(keys[o.contract_id] // bin_size, [0, 0])
            bucket[0] += o.exit_class is ExitClass.TOOL_ERROR
            bucket[1] += 1
    for stats in per_tool.values():
        stats["error_rate"] = rate(stats["tool_error"], stats["total"])
        stats["failure_rate"] = rate(stats["tool_failure"], stats["total"])
    totals = {field: sum(stats[field] for stats in per_tool.values())
              for field in [c.value for c in ExitClass] + ["total", "findings"]}
    doc = {"schema": 1, "tools": per_tool, "totals": totals, "unmapped_labels": [list(p) for p in sorted(unmapped)],
           "skips": len(skips), "incomplete": sorted(incomplete), "stamp": stamp}
    if keys is not None:
        doc["error_rate_series"] = {
            tool: [[b, 100.0 * err / total] for b, (err, total) in sorted(tool_bins.items())]
            for tool, tool_bins in bins.items()
        }
    return doc


class TestStreamedSarif:
    @given(outcomes=emitted_outcomes(), bound=st.sampled_from([1, 3, 4096]))
    def test_equals_the_one_shot_document(self, tmp_path_factory, outcomes, bound):
        path = tmp_path_factory.getbasetemp() / "streamed.sarif"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(paths, "_FLUSH_CHUNKS", bound)
            write_sarif(path, iter(in_run_order(outcomes)), SARIF_TAXONOMY)
        assert path.read_bytes() == dump_json(reference_sarif(outcomes, SARIF_TAXONOMY)).encode()

    @pytest.mark.parametrize("name, runs", [("empty", 0), ("runs", 3), ("swc-rule", 1), ("bytecode", 1)])
    def test_checks_the_header_and_each_run_once_and_each_result_alone(self, tmp_path, monkeypatch, name, runs):
        documents, results = [], []
        schema, accepts, accepts_result = reporting._sarif_schema()
        monkeypatch.setattr(reporting, "_sarif_schema",
                            lambda: (schema, accepts, lambda r: results.append(r) or accepts_result(r)))
        monkeypatch.setattr(reporting, "validate_sarif", lambda doc: documents.append(doc) or validate_sarif(doc))
        write_sarif(tmp_path / "report.sarif", iter(in_run_order(EMITTED_OUTCOMES[name])), SARIF_TAXONOMY)
        assert len(documents) == 1 + runs
        assert [run["results"] for doc in documents for run in doc["runs"]] == [[]] * runs  # no run is checked whole
        assert len(results) == sum(len(o.findings) for o in EMITTED_OUTCOMES[name])

    def test_jsonschema_has_the_last_word_on_a_refused_result(self, tmp_path):
        # draft-07 takes 2.0 as an integer; the compiled check of a result does not
        outcomes = [outcome(findings=[Finding("Mystery", "m", SourceLocation(2))])]
        outcomes[0].findings[0] = ("Mystery", "m", (2.0, None), None, None)
        path = tmp_path / "report.sarif"
        write_sarif(path, iter(outcomes), SARIF_TAXONOMY)
        assert json.loads(path.read_text())["runs"][0]["results"][0]["locations"][0]["physicalLocation"]["region"] \
            == {"startLine": 2.0}

    @pytest.mark.parametrize("broken, match", [
        (("Mystery", 5, None, None, None), "5 is not of type 'string'"),  # a result
        (("", "m", None, None, None), "''"),  # a result: an empty rule id
    ], ids=["result-message", "result-rule-id"])
    def test_refused_result_leaves_the_previous_report(self, tmp_path, monkeypatch, broken, match):
        monkeypatch.setattr(paths, "_FLUSH_CHUNKS", 1)  # the earlier runs reach the temp file first
        path = tmp_path / "report.sarif"
        path.write_bytes(b"previous\n")
        last = outcome(output_dir="d", tool="zeta", findings=[Finding("X", "m")])
        last.findings[0] = broken
        with pytest.raises(jsonschema.ValidationError, match=match):
            write_sarif(path, iter([*in_run_order(EMITTED_OUTCOMES["runs"]), last]), SARIF_TAXONOMY)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.sarif"]

    def test_refused_run_leaves_the_previous_report(self, tmp_path, monkeypatch):
        monkeypatch.setattr(paths, "_FLUSH_CHUNKS", 1)
        path = tmp_path / "report.sarif"
        path.write_bytes(b"previous\n")
        nameless = outcome(output_dir="d", tool="", findings=[Finding("X", "m")])  # the driver's name is empty
        with pytest.raises(jsonschema.ValidationError, match="''"):
            write_sarif(path, iter([nameless, *in_run_order(EMITTED_OUTCOMES["runs"])]), SARIF_TAXONOMY)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.sarif"]

    def test_schema_constrains_runs_and_results_only_through_their_items(self, sarif_schema):
        # so a document is valid exactly when its header, each run's skeleton and each result are
        assert sarif_schema["properties"]["runs"] == {"type": "array", "items": {"$ref": "#/definitions/run"}}
        assert set(sarif_schema) == {
            "$schema", "title", "description", "definitions", "type", "additionalProperties", "required", "properties",
        }
        run = sarif_schema["definitions"]["run"]
        assert run["properties"]["results"] == {"type": "array", "items": {"$ref": "#/definitions/result"}}
        assert set(run) == {"type", "additionalProperties", "required", "properties"}
        assert "results" not in run["required"]


class TestAtomicReports:
    WRITERS = {
        "summary": (write_summary, build_summary(SummaryCounts())),
        "csv": (write_findings_csv, EMITTED_OUTCOMES["swc-rule"]),
        "sarif": (lambda path, outcomes: write_sarif(path, iter(outcomes), SARIF_TAXONOMY),
                  in_run_order(EMITTED_OUTCOMES["runs"])),
    }

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_failed_replace_keeps_previous_report(self, tmp_path, monkeypatch, name):
        write, content = self.WRITERS[name]
        path = tmp_path / "report"
        path.write_bytes(b"previous\n")

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            write(path, content)
        monkeypatch.undo()
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report"]
        write(path, content)
        assert path.read_bytes() != b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report"]


class TestSeries:
    @staticmethod
    def series(*rows, bin_size):
        """The error-rate series of outcomes from (tool key, exit class, contract key) rows."""
        outcomes, keys = [], {}
        for i, (tool_key, exit_class, key) in enumerate(rows):
            tool, _, version = tool_key.partition(":")
            outcomes.append(outcome(output_dir=f"o{i}", contract_id=f"c{i}.sol", tool=tool,
                                    version=version, exit_class=exit_class))
            keys[f"c{i}.sol"] = key
        return build_summary(counted(outcomes, keys, bin_size))["error_rate_series"]

    def test_bin_assignment_and_rates(self):
        series = self.series(
            ("t:1", ExitClass.TOOL_ERROR, 50),
            ("t:1", ExitClass.SUCCESS, 99_999),
            ("t:1", ExitClass.SUCCESS, 100_000),
            ("t:1", ExitClass.TOOL_ERROR, 250_000),
            bin_size=100_000,
        )
        assert series == {"t:1": [[0, 50.0], [1, 0.0], [2, 100.0]]}

    def test_rates_are_plain_ratio_percentages(self):
        series = self.series(
            ("t:1", ExitClass.TOOL_ERROR, 10),
            ("t:1", ExitClass.SUCCESS, 11),
            ("t:1", ExitClass.SUCCESS, 12),
            bin_size=100,
        )
        assert series["t:1"] == [[0, 100.0 * 1 / 3]]

    def test_tools_kept_apart_and_sorted(self):
        series = self.series(
            ("b:1", ExitClass.SUCCESS, 5),
            ("a:1", ExitClass.TOOL_ERROR, 5),
            bin_size=10,
        )
        assert list(series) == ["a:1", "b:1"]


class TestSummary:
    def test_counts_and_rates(self, taxonomy):
        outcomes = [
            outcome(output_dir="a", findings=[Finding("Reentrancy", "m")], taxonomy=taxonomy),
            outcome(output_dir="b", exit_class=ExitClass.TOOL_ERROR),
            outcome(output_dir="c", exit_class=ExitClass.TOOL_FAILURE),
            outcome(output_dir="d", exit_class=ExitClass.TIMEOUT),
            outcome(output_dir="e", tool="other", exit_class=ExitClass.OUT_OF_MEMORY),
        ]
        doc = build_summary(counted(outcomes), skips=[{}, {}], incomplete=["z", "a"])
        mytool = doc["tools"]["mytool:1.0"]
        assert mytool["total"] == 4
        assert mytool["success"] == 1
        assert mytool["tool_error"] == 1
        assert mytool["tool_failure"] == 1
        assert mytool["timeout"] == 1
        assert mytool["findings"] == 1
        assert mytool["error_rate"] == 25.0
        assert mytool["failure_rate"] == 25.0
        assert doc["tools"]["other:1.0"]["oom"] == 1
        assert doc["totals"]["total"] == 5
        assert doc["totals"]["findings"] == 1
        assert doc["skips"] == 2
        assert doc["incomplete"] == ["a", "z"]
        assert doc["unmapped_labels"] == []

    def test_series_only_with_keys(self):
        assert "error_rate_series" not in build_summary(counted([outcome()]))
        doc = build_summary(counted([outcome(exit_class=ExitClass.TOOL_ERROR), outcome(output_dir="b")],
                                    keys={"c.sol": 5}, bin_size=10))
        assert doc["error_rate_series"] == {"mytool:1.0": [[0, 50.0]]}
        assert build_summary(SummaryCounts({}, 10))["error_rate_series"] == {}

    def test_unmapped_labels_reported(self, taxonomy):
        outcomes = [outcome(findings=[Finding("Mystery", "m")], taxonomy=taxonomy)]
        doc = build_summary(counted(outcomes))
        assert doc["unmapped_labels"] == [["mytool", "Mystery"]]

    def test_stamp_follows_every_report_input(self):
        inputs = dict(taxonomy=TAXONOMY_YAML.encode(), tasks=[{"output_dir": "a"}], skips=[],
                      keys=None, bin_size=100, sarif=False)
        stamp = report_stamp(**inputs)
        assert report_stamp(**inputs) == stamp
        assert build_summary(SummaryCounts(), stamp=stamp)["stamp"] == stamp
        assert "stamp" not in build_summary(SummaryCounts())
        for field, value in [
            ("taxonomy", TAXONOMY_YAML.encode() + b"\n"), ("tasks", []), ("skips", [{"contract": "x"}]),
            ("keys", {"a": 1}), ("bin_size", 7), ("sarif", True),
        ]:
            assert report_stamp(**inputs | {field: value}) != stamp, field

    ENTRIES = st.lists(
        st.dictionaries(st.sampled_from(["output_dir", "contract", "tool", "compiler"]),
                        st.none() | st.text(max_size=5) | st.integers(-3, 3), max_size=4),
        max_size=9,
    )

    @given(tasks=ENTRIES, skips=ENTRIES, keys=st.none() | st.dictionaries(st.text(max_size=4), st.integers()),
           bin_size=st.integers(1, 10**6), sarif=st.booleans(), slice_size=st.integers(1, 4))
    def test_stamp_is_the_digest_of_the_one_shot_encoding(self, tasks, skips, keys, bin_size, sarif, slice_size):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reporting, "_STAMP_SLICE", slice_size)
            stamp = report_stamp(b"taxonomy", tasks, skips, keys, bin_size, sarif)
        inputs = {"bin_size": bin_size, "keys": keys, "sarif": sarif, "schema": 1, "skips": skips, "tasks": tasks,
                  "taxonomy": hashlib.sha256(b"taxonomy").hexdigest()}
        assert stamp == hashlib.sha256(json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class TestFindingsCsv:
    def test_rows(self, tmp_path, taxonomy):
        outcomes = [
            outcome(
                output_dir="run/a/t",
                findings=[
                    Finding("Mystery", "m2", BytecodeLocation(9)),
                    Finding("Oddity", "m3"),
                ],
                taxonomy=taxonomy,
            ),
            outcome(
                output_dir="run/b/t",
                findings=[Finding("Reentrancy", "m", SourceLocation(3, "a.sol"))],
                taxonomy=taxonomy,
            ),
        ]
        path = tmp_path / "findings.csv"
        write_findings_csv(path, iter(outcomes))
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["task", "tool", "version", "label", "swc", "dasp", "location"]
        assert rows[1] == ["run/a/t", "mytool", "1.0", "Mystery", "", "", "offset:9"]
        assert rows[2] == ["run/a/t", "mytool", "1.0", "Oddity", "", "10", ""]
        assert rows[3] == ["run/b/t", "mytool", "1.0", "Reentrancy", "SWC-107", "1", "a.sol:3"]


class TestReadKeys:
    def test_parses_and_skips_junk(self, tmp_path):
        path = tmp_path / "keys.csv"
        path.write_text(
            "contract,block\n"
            "# comment,1\n"
            "a.sol,123\n"
            "b.sol,0\n"
            "broken\n"
            "c.sol,notanumber\n"
        )
        assert read_keys(path) == {"a.sol": 123, "b.sol": 0}

    def test_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path):
        # spreadsheets that save "CSV UTF-8" start the file with a BOM
        path = tmp_path / "keys.csv"
        path.write_bytes("\ufeffa.sol,5\nb.sol,6\n".encode("utf-8"))
        assert read_keys(path) == {"a.sol": 5, "b.sol": 6}


class TestCollectOutcomes:
    def test_roundtrip_through_disk(
        self, tmp_path, corpus_dir, mock_registry, compiler_cache, release_index
    ):
        from scanmux.plan import read_plan_lock, write_plan_lock
        from scanmux.runner import Runner, TaskExecutor, resume_filter

        from helpers import discover_corpus, plan_for

        behaviors = {
            "example.io/mock/delta:1.2": MockToolBehavior(stdout="VULN: Reentrancy at line 3\n"),
        }
        backend = MockBackend(behaviors)
        contracts = [c for c in discover_corpus(corpus_dir) if c.format is ContractFormat.SOLIDITY]
        plan = plan_for(contracts, mock_registry, compiler_cache, release_index, backend, tools=["delta"])
        root = tmp_path / "results"
        write_plan_lock(plan, root)
        executor = TaskExecutor(plan, backend, mock_registry, compiler_cache)
        summary = Runner(executor, root, workers=2).run()

        taxonomy = TaxonomyMap.load(bundled_taxonomy())
        entries = read_plan_lock(root)["tasks"][::-1]
        incomplete = []
        outcomes = list(collect_outcomes(root, entries, summary.finished, taxonomy, incomplete))
        assert incomplete == []
        assert len(outcomes) == 12
        assert [o.output_dir for o in outcomes] == [e["output_dir"] for e in entries]  # the entries' order
        assert all(o.exit_class is ExitClass.SUCCESS for o in outcomes)
        assert all(len(o.findings) == 1 for o in outcomes)

        # strip one marker: that task turns incomplete, the rest still collect
        victim = outcomes[0].output_dir
        (root / victim / "done").unlink()
        _, done = resume_filter(plan, root)
        incomplete2 = []
        outcomes2 = list(collect_outcomes(root, entries, done, taxonomy, incomplete2))
        assert incomplete2 == [victim]
        assert len(outcomes2) == 11

    def test_reads_each_result_only_when_its_outcome_is_due(self, tmp_path, monkeypatch):
        reads = []
        read_findings = reporting.read_findings
        monkeypatch.setattr(reporting, "read_findings", lambda path: reads.append(path) or read_findings(path))
        entries, finished = StreamedRoot.write(tmp_path, tasks=3, findings=2)
        outcomes = collect_outcomes(tmp_path, entries, finished, SARIF_TAXONOMY)
        assert reads == []
        next(outcomes)
        assert len(reads) == 1


class StreamedRoot:
    """A results root of tasks written straight to result.json files, and its plan lock entries."""

    TOOLS = ("mytool", "other", "third")
    LABELS = ("Reentrancy", "Overflow", "Oddity", "Mystery", "Myst\u00e9ry")

    @classmethod
    def write(cls, root: Path, tasks: int, findings: int):
        entries, finished = [], {}
        for i in range(tasks):
            tool = cls.TOOLS[i % 3]
            entry = {"output_dir": f"r/{i:05d}/{tool}", "contract": f"c{i % 7}.sol", "source_path": f"src/c{i % 7}.sol",
                     "tool": tool, "tool_version": "1.0", "compiler": None}
            report = ParsedReport(findings=tuple(
                Finding(cls.LABELS[j % 5], f"finding {j} of task {i}", SourceLocation(j, None if j % 2 else "x.sol"))
                for j in range(findings)
            ))
            (root / entry["output_dir"]).mkdir(parents=True)
            write_report(root / entry["output_dir"] / "result.json", report)
            entries.append(entry)
            finished[entry["output_dir"]] = ExitClass.SUCCESS if i % 4 else ExitClass.TOOL_ERROR
        return entries, finished


LOCATIONS = st.one_of(
    st.none(),
    st.builds(SourceLocation, st.integers(-3, 10**6), st.none() | st.sampled_from(["a.sol", "", "d/./b.sol", "x//y"])),
    st.builds(BytecodeLocation, st.integers(-3, 10**6)),
)


@st.composite
def outcome_sets(draw):
    """Lock entries in random order, with the result.json each done task stores, and ``--keys``.

    Several tools and versions, tools without findings, every location kind,
    mapped and unmapped labels, and incomplete tasks: one without a done
    marker (absent from ``finished``) and one whose result.json is torn.
    """
    tasks = []
    for i in range(draw(st.integers(0, 7))):
        tool = draw(st.sampled_from(["mytool", "other", "zeta"]))
        contract = draw(st.sampled_from(["c.sol", "d.hex", "e.rt.hex"]))
        findings = draw(st.lists(st.builds(
            Finding, st.sampled_from(["Reentrancy", "Overflow", "Oddity", "Mystery", "\u00c9t\u00e9"]),
            st.text(max_size=8), LOCATIONS,
        ), max_size=5)) if tool != "zeta" else []
        tasks.append({
            "entry": {"output_dir": f"run/{draw(st.sampled_from(['b', 'a', 'c']))}{i}/{tool}", "contract": contract,
                      "source_path": f"corpus/{contract}", "tool": tool,
                      "tool_version": draw(st.sampled_from(["1.0", "2.0"])), "compiler": None},
            "exit_class": draw(st.none() | st.sampled_from(list(ExitClass))),
            "torn": draw(st.booleans()) and draw(st.booleans()),
            "report": ParsedReport(findings=tuple(findings)),
        })
    keys = draw(st.none() | st.just({"c.sol": draw(st.integers(0, 999)), "d.hex": draw(st.integers(0, 999)),
                                     "e.rt.hex": draw(st.integers(0, 999))}))
    return draw(st.permutations(tasks)), keys, draw(st.integers(1, 300))


class TestStreamedReports:
    @settings(max_examples=60, deadline=None)  # each example writes a results root
    @given(data=outcome_sets(), bound=st.sampled_from([1, 4096]))
    def test_equal_the_one_shot_reports(self, tmp_path_factory, data, bound):
        tasks, keys, bin_size = data
        root = tmp_path_factory.mktemp("streamed")
        finished, complete, incomplete = {}, [], []
        for task in tasks:
            entry = task["entry"]
            (root / entry["output_dir"]).mkdir(parents=True)
            write_report(root / entry["output_dir"] / "result.json", task["report"])
            if task["torn"]:
                path = root / entry["output_dir"] / "result.json"
                path.write_bytes(path.read_bytes()[:-3])
            if task["exit_class"] is not None:
                finished[entry["output_dir"]] = task["exit_class"]
            if task["exit_class"] is None or task["torn"]:
                incomplete.append(entry["output_dir"])
            else:
                complete.append(outcome(
                    output_dir=entry["output_dir"], contract_id=entry["contract"], tool=entry["tool"],
                    version=entry["tool_version"], exit_class=task["exit_class"],
                    findings=task["report"].findings, taxonomy=SARIF_TAXONOMY,
                )._replace(source_path=entry["source_path"]))
        skips = [{"contract": "x.sol", "tool": "zeta:1.0", "reason": "r"}]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(paths, "_FLUSH_CHUNKS", bound)
            write_reports(root, [t["entry"] for t in tasks], skips, finished, SARIF_TAXONOMY,
                          keys=keys, bin_size=bin_size, sarif=True, stamp="s")
        assert (root / "findings.csv").read_bytes() == reference_csv(complete)
        assert (root / "report.sarif").read_bytes() == dump_json(reference_sarif(complete, SARIF_TAXONOMY)).encode()
        expected = reference_summary(complete, skips, incomplete, keys, bin_size, "s")
        assert (root / "summary.json").read_bytes() == dump_json(expected).encode()

    def test_each_result_is_read_once_per_report(self, tmp_path, monkeypatch):
        reads = []
        read_findings = reporting.read_findings
        monkeypatch.setattr(reporting, "read_findings", lambda path: reads.append(path) or read_findings(path))
        entries, finished = StreamedRoot.write(tmp_path, tasks=9, findings=3)
        for sarif, times in ((False, 1), (True, 2)):
            reads.clear()
            write_reports(tmp_path, entries, [], finished, SARIF_TAXONOMY, keys=None, bin_size=1, sarif=sarif, stamp="s")
            assert sorted(reads) == sorted([str(tmp_path / e["output_dir"] / "result.json") for e in entries] * times)

    def test_report_memory_does_not_grow_with_the_findings(self, tmp_path):
        keys = {f"c{i}.sol": i * 1000 for i in range(7)}

        def peak(tasks: int) -> int:
            root = tmp_path / str(tasks)
            entries, finished = StreamedRoot.write(root, tasks=tasks, findings=60)
            tracemalloc.start()
            try:
                write_reports(root, entries, [], finished, SARIF_TAXONOMY, keys=keys, bin_size=10, sarif=True,
                              stamp="s")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # the compiled schema and other one-time state
        once, four_times = peak(40), peak(160)
        # holding every finding would add ~120 tasks x 60 findings x ~1 KiB; the sorted entries add 24 bytes a task
        assert four_times - once < 64 * 1024, (once, four_times)
