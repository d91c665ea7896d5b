"""Registry loading, validation and tool selection."""

from __future__ import annotations

from pathlib import Path

import pytest
import yaml

from scanmux.model import ContractFormat
from scanmux.paths import bundled_registry
from scanmux.registry import (
    ConfigSyntaxError,
    DanglingParserRefError,
    DuplicateToolError,
    ParserSpec,
    FindingRule,
    UnknownToolError,
    load_registry,
    resolve_tools,
)

from helpers import MOCK_PARSER, write_tool_dir


@pytest.fixture(scope="module")
def bundled():
    return load_registry(bundled_registry())


def test_bundled_registry_totals(bundled):
    assert len(bundled.tools) == 19
    by_format = {
        fmt: sum(1 for t in bundled.tools if fmt in t.supported_formats)
        for fmt in ContractFormat
    }
    assert by_format[ContractFormat.SOLIDITY] == 13
    assert by_format[ContractFormat.CREATION_BYTECODE] == 2
    assert by_format[ContractFormat.RUNTIME_CODE] == 13


def test_bundled_registry_creation_tools(bundled):
    creation = sorted(
        t.tool_id for t in bundled.tools
        if ContractFormat.CREATION_BYTECODE in t.supported_formats
    )
    assert creation == ["maian", "mythril"]


@pytest.mark.parametrize("tool_id,version", [
    ("mythril", "0.23.15"),
    ("manticore", "0.3.7"),
    ("solhint", "3.3.8"),
    ("ethor", "2021"),
    ("slither", "latest"),
])
def test_bundled_registry_version_labels(bundled, tool_id, version):
    assert bundled.find(tool_id, version) is not None


def test_bundled_registry_parsers_resolve(bundled):
    for tool in bundled.tools:
        spec = bundled.parser_for(tool)
        assert spec.kind in ("line_patterns", "structured_document")


def test_bundled_tools_sorted(bundled):
    keys = [(t.tool_id, t.version_label) for t in bundled.tools]
    assert keys == sorted(keys)


def test_load_minimal_tool(tmp_path: Path):
    write_tool_dir(tmp_path, "mytool", "1.0", ["solidity"], {"solidity": "run {contract}"})
    reg = load_registry(tmp_path)
    assert len(reg.tools) == 1
    tool = reg.tools[0]
    assert tool.tool_id == "mytool"
    assert tool.result_sources == ("stdout", "stderr")  # default capture
    assert tool.parser_ref == "mytool/default"


def test_tool_id_lowercased(tmp_path: Path):
    tool_dir = tmp_path / "CamelTool"
    tool_dir.mkdir()
    (tool_dir / "config.yaml").write_text(
        "schema: 1\nid: CamelTool\nversion: '1'\nimage: img\n"
        "formats:\n  - solidity\ncommand:\n  solidity: 'x {contract}'\nparser: default\n"
    )
    (tool_dir / "parser.yaml").write_text(MOCK_PARSER)
    reg = load_registry(tmp_path)
    assert reg.tools[0].tool_id == "cameltool"


def test_duplicate_tool_version_rejected(tmp_path: Path):
    write_tool_dir(tmp_path, "dup", "1.0", ["solidity"], {"solidity": "a {contract}"})
    # same (id, version) under a different directory name
    write_tool_dir(tmp_path, "dup2", "1.0", ["solidity"], {"solidity": "b {contract}"})
    second = tmp_path / "dup2" / "config.yaml"
    second.write_text(second.read_text().replace("id: dup2", "id: dup"))
    with pytest.raises(DuplicateToolError):
        load_registry(tmp_path)


def test_two_versions_of_one_tool_allowed(tmp_path: Path):
    write_tool_dir(tmp_path, "t-old", "1.0", ["solidity"], {"solidity": "a {contract}"})
    write_tool_dir(tmp_path, "t-new", "2.0", ["solidity"], {"solidity": "a {contract}"})
    for d in ("t-old", "t-new"):
        cfg = tmp_path / d / "config.yaml"
        cfg.write_text(cfg.read_text().replace(f"id: {d}", "id: t"))
    reg = load_registry(tmp_path)
    assert [t.key for t in reg.tools] == ["t:1.0", "t:2.0"]


def test_dangling_parser_ref(tmp_path: Path):
    write_tool_dir(tmp_path, "t", "1", ["solidity"], {"solidity": "x {contract}"})
    cfg = tmp_path / "t" / "config.yaml"
    cfg.write_text(cfg.read_text().replace("parser: default", "parser: nosuch"))
    with pytest.raises(DanglingParserRefError):
        load_registry(tmp_path)


def test_missing_schema_version(tmp_path: Path):
    tool_dir = tmp_path / "t"
    tool_dir.mkdir()
    (tool_dir / "config.yaml").write_text("id: t\nversion: '1'\n")
    with pytest.raises(ConfigSyntaxError) as info:
        load_registry(tmp_path)
    assert "schema" in str(info.value)


def test_invalid_yaml_reports_path(tmp_path: Path):
    tool_dir = tmp_path / "t"
    tool_dir.mkdir()
    (tool_dir / "config.yaml").write_text("schema: 1\nid: [unclosed\n")
    with pytest.raises(ConfigSyntaxError) as info:
        load_registry(tmp_path)
    assert "config.yaml" in str(info.value)


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "python"])
@pytest.mark.parametrize("text,line", [
    ("schema: 1\nid: [unclosed\nversion: '1'\n", 3),
    ("schema: 1\nid: t\n  bad: indent\n", 3),
    ("schema: 1\nid: *nope\n", 2),
    ("schema: 1\n\tid: t\n", 2),
])
def test_invalid_yaml_names_the_line(tmp_path: Path, monkeypatch, libyaml, text, line):
    # libyaml words its errors differently from PyYAML's parser; the line is the same
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not yaml.__with_libyaml__:
        pytest.skip("PyYAML built without libyaml")
    tool_dir = tmp_path / "t"
    tool_dir.mkdir()
    (tool_dir / "config.yaml").write_text(text)
    with pytest.raises(ConfigSyntaxError, match=rf"config\.yaml:{line}: invalid YAML: "):
        load_registry(tmp_path)


def test_unknown_format_rejected(tmp_path: Path):
    write_tool_dir(tmp_path, "t", "1", ["solidity"], {"solidity": "x {contract}"})
    cfg = tmp_path / "t" / "config.yaml"
    cfg.write_text(cfg.read_text().replace("- solidity", "- wasm"))
    with pytest.raises(ConfigSyntaxError):
        load_registry(tmp_path)


def test_bad_finding_regex_rejected(tmp_path: Path):
    bad_parser = (
        "schema: 1\nparsers:\n  default:\n    kind: line_patterns\n"
        "    findings:\n      - pattern: '([unclosed'\n        label: X\n"
    )
    write_tool_dir(
        tmp_path, "t", "1", ["solidity"], {"solidity": "x {contract}"},
        parser_yaml=bad_parser,
    )
    with pytest.raises(ConfigSyntaxError):
        load_registry(tmp_path)


@pytest.mark.parametrize("label", ["''", ""], ids=["empty", "null"])
def test_empty_finding_label_rejected(tmp_path: Path, label):
    # an empty label would fail on every matching line; a null one would label findings 'None'
    empty_label = (
        "schema: 1\nparsers:\n  default:\n    kind: line_patterns\n"
        f"    findings:\n      - pattern: 'BUG'\n        label: {label}\n"
    )
    write_tool_dir(
        tmp_path, "t", "1", ["solidity"], {"solidity": "x {contract}"},
        parser_yaml=empty_label,
    )
    with pytest.raises(ConfigSyntaxError, match=r"parser\.yaml: parser 'default': .*nonempty label"):
        load_registry(tmp_path)


def test_missing_aux_file_rejected(tmp_path: Path):
    write_tool_dir(tmp_path, "t", "1", ["solidity"], {"solidity": "x {contract}"})
    cfg = tmp_path / "t" / "config.yaml"
    cfg.write_text(cfg.read_text() + "aux_files:\n  - helper.sh\n")
    with pytest.raises(ConfigSyntaxError):
        load_registry(tmp_path)


def test_aux_files_resolved_relative_to_tool_dir(tmp_path: Path):
    write_tool_dir(tmp_path, "t", "1", ["solidity"], {"solidity": "x {contract}"})
    (tmp_path / "t" / "helper.sh").write_text("#!/bin/sh\n")
    cfg = tmp_path / "t" / "config.yaml"
    cfg.write_text(cfg.read_text() + "aux_files:\n  - helper.sh\n")
    reg = load_registry(tmp_path)
    assert [p.name for p in reg.tools[0].aux_files] == ["helper.sh"]


def test_content_digest_tracks_file_changes(tmp_path: Path):
    write_tool_dir(tmp_path, "t", "1", ["solidity"], {"solidity": "x {contract}"})
    before = load_registry(tmp_path).content_digest
    cfg = tmp_path / "t" / "config.yaml"
    cfg.write_text(cfg.read_text().replace("x {contract}", "y {contract}"))
    after = load_registry(tmp_path).content_digest
    assert before != after
    # and reloading without edits is stable
    assert load_registry(tmp_path).content_digest == after


def test_parser_fingerprint_stability():
    rule = FindingRule(pattern="boom", label="B")
    a = ParserSpec(name="p", kind="line_patterns", finding_rules=(rule,))
    b = ParserSpec(name="p", kind="line_patterns", finding_rules=(rule,))
    c = ParserSpec(name="p", kind="line_patterns", finding_rules=(rule,), error_rules=("^E",))
    assert a.version == b.version
    assert a.version != c.version


def test_parser_spec_needs_rules():
    with pytest.raises(ValueError):
        ParserSpec(name="p", kind="line_patterns")
    with pytest.raises(ValueError):
        ParserSpec(name="p", kind="csv", finding_rules=(FindingRule("x", "X"),))


@pytest.mark.parametrize("requested", [["all"], ["ALL", "alpha"], ["alpha", " All "]])
def test_resolve_all_tools(mock_registry, requested):
    tools = resolve_tools(mock_registry, requested)
    assert [t.tool_id for t in tools] == ["alpha", "bravo", "charlie", "delta", "echo"]


def test_resolve_named_tools(mock_registry):
    tools = resolve_tools(mock_registry, ["charlie", "ALPHA"])
    assert [t.tool_id for t in tools] == ["alpha", "charlie"]


def test_resolve_by_id_and_version(mock_registry):
    assert [t.key for t in resolve_tools(mock_registry, ["bravo:2.1"])] == ["bravo:2.1"]
    for name in ("bravo:9.9", "bravo:"):
        with pytest.raises(UnknownToolError, match=repr(name)):
            resolve_tools(mock_registry, ["alpha", name])


def test_resolve_unknown_tool(mock_registry):
    with pytest.raises(UnknownToolError, match="'NoSuchTool'"):
        resolve_tools(mock_registry, ["alpha", "NoSuchTool", "other"])


def test_resolve_request_dedup(mock_registry):
    tools = resolve_tools(mock_registry, ["alpha", "alpha", "ALPHA:1.0"])
    assert [t.tool_id for t in tools] == ["alpha"]


# Each bundled parser's version as every result.json carries it in parser_version.
BUNDLED_PARSER_VERSIONS = {
    "confuzzius/default": "9fe4097a6b10",
    "conkas/default": "bbec4a2b4e38",
    "ethainter/default": "4e942fb7f09e",
    "ethor/default": "f99a51427910",
    "honeybadger/default": "4501af680a74",
    "madmax/default": "ed1bdc88ad04",
    "maian/default": "74ba98a982cc",
    "manticore/default": "740b5fe1eb12",
    "mythril/default": "efa8347f8ba5",
    "osiris/default": "1c0eded15cc6",
    "oyente/default": "e1aa119a9210",
    "pakala/default": "1f5e1498ace2",
    "securify/default": "9578134eb992",
    "sfuzz/default": "ec20f85f765b",
    "slither/default": "b0ce51ea7b7f",
    "smartcheck/default": "1be0679ee4c4",
    "solhint/default": "b51972a980d5",
    "teether/default": "9f4c62d59191",
    "vandal/default": "8841bddedb8c",
}


def test_bundled_parser_versions_are_pinned(bundled):
    assert {ref: spec.version for ref, spec in bundled.parsers.items()} == BUNDLED_PARSER_VERSIONS
