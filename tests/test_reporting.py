"""Taxonomy mapping, SARIF output, rate analytics, summary and CSV files."""

from __future__ import annotations

import csv
import json

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanmux.executor import MockToolBehavior, MockBackend
from scanmux.model import (
    BytecodeLocation,
    ContractFormat,
    Finding,
    NormalizedFinding,
    ParsedReport,
    SourceLocation,
)
from scanmux.parsing import ExitClass
from scanmux.paths import bundled_registry, bundled_taxonomy
from scanmux.registry import load_registry
from scanmux.reporting import (
    CatalogEntry,
    MissingKeyError,
    SeriesRecord,
    TaskOutcome,
    TaxonomyEntry,
    TaxonomyError,
    TaxonomyMap,
    build_summary,
    collect_outcomes,
    emit_sarif,
    error_rate_series,
    normalize,
    pct,
    read_keys,
    series_records,
    unmapped_labels,
    validate_sarif,
    write_findings_csv,
    write_sarif,
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
    fmt=ContractFormat.SOLIDITY,
    taxonomy=None,
):
    report = ParsedReport(findings=tuple(findings))
    normalized = tuple(
        normalize(report, tool, taxonomy)
        if taxonomy is not None
        else (NormalizedFinding(f) for f in report.findings)
    )
    return TaskOutcome(
        output_dir=output_dir,
        contract_id=contract_id,
        source_path=f"/src/{contract_id}",
        format=fmt,
        tool_id=tool,
        version_label=version,
        exit_class=exit_class,
        report=report,
        normalized=normalized,
    )


class TestNormalize:
    def test_mapped_and_unmapped(self, taxonomy):
        report = ParsedReport(findings=(
            Finding("Reentrancy", "m1"),
            Finding("Mystery", "m2"),
        ))
        normalized = normalize(report, "mytool", taxonomy)
        assert normalized[0].swc_id == "SWC-107"
        assert normalized[0].dasp_class == 1
        assert normalized[1].unmapped

    def test_unmapped_labels_aggregation(self, taxonomy):
        outcomes = [
            outcome(findings=[Finding("Mystery", "m")], taxonomy=taxonomy),
            outcome(output_dir="run/d/t", findings=[Finding("Mystery", "m")], taxonomy=taxonomy),
            outcome(output_dir="run/e/t", findings=[Finding("Reentrancy", "m")], taxonomy=taxonomy),
        ]
        assert unmapped_labels(outcomes) == [("mytool", "Mystery")]


class TestSarif:
    def test_minimal_document_shape(self, taxonomy):
        doc = emit_sarif([], taxonomy)
        assert doc["version"] == "2.1.0"
        assert doc["runs"] == []
        validate_sarif(doc)

    def test_one_run_per_tool_version(self, taxonomy):
        outcomes = [
            outcome(output_dir="a", tool="mytool", version="1.0"),
            outcome(output_dir="b", tool="mytool", version="2.0"),
            outcome(output_dir="c", tool="other", version="1.0"),
        ]
        doc = emit_sarif(outcomes, taxonomy)
        drivers = [(r["tool"]["driver"]["name"], r["tool"]["driver"]["version"]) for r in doc["runs"]]
        assert drivers == [("mytool", "1.0"), ("mytool", "2.0"), ("other", "1.0")]
        validate_sarif(doc)

    def test_swc_rule_ids_and_catalog_rules(self, taxonomy):
        outcomes = [outcome(
            findings=[Finding("Reentrancy", "call before state", SourceLocation(12))],
            taxonomy=taxonomy,
        )]
        doc = emit_sarif(outcomes, taxonomy)
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
        doc = emit_sarif(outcomes, taxonomy)
        run = doc["runs"][0]
        assert run["results"][0]["ruleId"] == "Mystery"
        assert run["tool"]["driver"]["rules"] == []
        validate_sarif(doc)

    def test_source_location(self, taxonomy):
        outcomes = [outcome(findings=[
            Finding("Mystery", "m", SourceLocation(7, "contracts/a.sol")),
        ], taxonomy=taxonomy)]
        doc = emit_sarif(outcomes, taxonomy)
        loc = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "contracts/a.sol"
        assert loc["region"] == {"startLine": 7}
        validate_sarif(doc)

    def test_location_falls_back_to_source_path(self, taxonomy):
        outcomes = [outcome(findings=[Finding("Mystery", "m", SourceLocation(7))], taxonomy=taxonomy)]
        doc = emit_sarif(outcomes, taxonomy)
        loc = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "/src/c.sol"

    def test_nonpositive_line_clamped(self, taxonomy):
        outcomes = [outcome(findings=[Finding("Mystery", "m", SourceLocation(0))], taxonomy=taxonomy)]
        doc = emit_sarif(outcomes, taxonomy)
        region = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 1}
        validate_sarif(doc)

    def test_bytecode_location(self, taxonomy):
        outcomes = [outcome(
            contract_id="c.rt.hex",
            fmt=ContractFormat.RUNTIME_CODE,
            findings=[Finding("Mystery", "m", BytecodeLocation(0x40))],
            taxonomy=taxonomy,
        )]
        doc = emit_sarif(outcomes, taxonomy)
        loc = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "bytecode/c.rt.hex"
        assert loc["region"] == {"byteOffset": 64}
        validate_sarif(doc)

    def test_validate_rejects_wrong_version(self, taxonomy):
        doc = emit_sarif([], taxonomy)
        doc["version"] = "2.0.0"
        with pytest.raises(jsonschema.ValidationError):
            validate_sarif(doc)

    def test_validate_rejects_zero_start_line(self, taxonomy):
        outcomes = [outcome(findings=[Finding("Mystery", "m", SourceLocation(5))], taxonomy=taxonomy)]
        doc = emit_sarif(outcomes, taxonomy)
        region = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"]["region"]
        region["startLine"] = 0
        with pytest.raises(jsonschema.ValidationError):
            validate_sarif(doc)

    def test_write_sarif(self, tmp_path, taxonomy):
        path = tmp_path / "report.sarif"
        write_sarif(path, emit_sarif([], taxonomy))
        assert json.loads(path.read_text())["version"] == "2.1.0"


class TestSeries:
    def test_records_pick_up_keys(self):
        outcomes = [outcome(contract_id="a.sol"), outcome(output_dir="x", contract_id="b.sol")]
        records = series_records(outcomes, {"a.sol": 100, "b.sol": 200})
        assert [r.key for r in records] == [100, 200]
        assert records[0].tool == "mytool:1.0"

    def test_missing_key_raises(self):
        with pytest.raises(MissingKeyError):
            series_records([outcome(contract_id="a.sol")], {})

    def test_bin_assignment_and_rates(self):
        records = [
            SeriesRecord("t:1", ExitClass.TOOL_ERROR, 50),
            SeriesRecord("t:1", ExitClass.SUCCESS, 99_999),
            SeriesRecord("t:1", ExitClass.SUCCESS, 100_000),
            SeriesRecord("t:1", ExitClass.TOOL_ERROR, 250_000),
        ]
        series = error_rate_series(records, 100_000)
        assert series == {"t:1": [(0, 50.0), (1, 0.0), (2, 100.0)]}

    def test_rates_are_plain_ratio_percentages(self):
        records = [
            SeriesRecord("t:1", ExitClass.TOOL_ERROR, 10),
            SeriesRecord("t:1", ExitClass.SUCCESS, 11),
            SeriesRecord("t:1", ExitClass.SUCCESS, 12),
        ]
        series = error_rate_series(records, 100)
        assert series["t:1"] == [(0, 100.0 * 1 / 3)]

    def test_tools_kept_apart_and_sorted(self):
        records = [
            SeriesRecord("b:1", ExitClass.SUCCESS, 5),
            SeriesRecord("a:1", ExitClass.TOOL_ERROR, 5),
        ]
        series = error_rate_series(records, 10)
        assert list(series) == ["a:1", "b:1"]

    def test_bad_bin_size(self):
        with pytest.raises(ValueError):
            error_rate_series([], 0)

    def test_keyless_record_rejected(self):
        with pytest.raises(MissingKeyError):
            error_rate_series([SeriesRecord("t:1", ExitClass.SUCCESS)], 10)


class TestSummary:
    def test_counts_and_rates(self, taxonomy):
        outcomes = [
            outcome(output_dir="a", findings=[Finding("Reentrancy", "m")], taxonomy=taxonomy),
            outcome(output_dir="b", exit_class=ExitClass.TOOL_ERROR),
            outcome(output_dir="c", exit_class=ExitClass.TOOL_FAILURE),
            outcome(output_dir="d", exit_class=ExitClass.TIMEOUT),
            outcome(output_dir="e", tool="other", exit_class=ExitClass.OUT_OF_MEMORY),
        ]
        doc = build_summary(outcomes, skips=[{}, {}], incomplete=["z", "a"])
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

    def test_series_embedded(self, taxonomy):
        doc = build_summary([], series={"t:1": [(0, 50.0)]})
        assert doc["error_rate_series"] == {"t:1": [[0, 50.0]]}

    def test_unmapped_labels_reported(self, taxonomy):
        outcomes = [outcome(findings=[Finding("Mystery", "m")], taxonomy=taxonomy)]
        doc = build_summary(outcomes)
        assert doc["unmapped_labels"] == [["mytool", "Mystery"]]


class TestFindingsCsv:
    def test_rows(self, tmp_path, taxonomy):
        outcomes = [
            outcome(
                output_dir="run/b/t",
                findings=[Finding("Reentrancy", "m", SourceLocation(3, "a.sol"))],
                taxonomy=taxonomy,
            ),
            outcome(
                output_dir="run/a/t",
                findings=[
                    Finding("Mystery", "m2", BytecodeLocation(9)),
                    Finding("Oddity", "m3"),
                ],
                taxonomy=taxonomy,
            ),
        ]
        path = tmp_path / "findings.csv"
        write_findings_csv(path, outcomes)
        rows = list(csv.reader(path.open()))
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


class TestCollectOutcomes:
    def test_roundtrip_through_disk(
        self, tmp_path, corpus_dir, mock_registry, compiler_cache, release_index
    ):
        from scanmux.plan import write_plan_lock
        from scanmux.runner import Runner, TaskExecutor

        from conftest import discover_corpus, plan_for

        behaviors = {
            "example.io/mock/delta:1.2": MockToolBehavior(stdout="VULN: Reentrancy at line 3\n"),
        }
        backend = MockBackend(behaviors)
        contracts = [c for c in discover_corpus(corpus_dir) if c.format is ContractFormat.SOLIDITY]
        plan = plan_for(contracts, mock_registry, compiler_cache, release_index, backend, tools=["delta"])
        root = tmp_path / "results"
        write_plan_lock(plan, root)
        executor = TaskExecutor(backend, mock_registry, compiler_cache, plan.image_digests, plan.args_digest)
        Runner(plan, executor, root, workers=2).run()

        taxonomy = TaxonomyMap.load(bundled_taxonomy())
        outcomes, incomplete = collect_outcomes(root, taxonomy)
        assert incomplete == []
        assert len(outcomes) == 12
        assert [o.output_dir for o in outcomes] == sorted(o.output_dir for o in outcomes)
        assert all(o.exit_class is ExitClass.SUCCESS for o in outcomes)
        assert all(len(o.report.findings) == 1 for o in outcomes)
        assert all(o.format is ContractFormat.SOLIDITY for o in outcomes)

        # strip one marker: that task turns incomplete, the rest still collect
        victim = outcomes[0].output_dir
        (root / victim / "done").unlink()
        outcomes2, incomplete2 = collect_outcomes(root, taxonomy)
        assert incomplete2 == [victim]
        assert len(outcomes2) == 11
