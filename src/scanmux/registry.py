"""Tool registry: load tool + parser definitions from configuration directories."""

from __future__ import annotations

import functools
import hashlib
import json
import re
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import yaml

from .model import ContractFormat, HarnessError, ToolSpec
from .paths import load_yaml

SCHEMA_VERSION = 1

CONFIG_FILENAME = "config.yaml"
PARSER_FILENAME = "parser.yaml"


class ConfigSyntaxError(HarnessError):
    pass


class DuplicateToolError(HarnessError):
    pass


class DanglingParserRefError(HarnessError):
    pass


class UnknownToolError(HarnessError):
    pass


@functools.lru_cache(maxsize=None)
def compile_rule(pattern: str) -> re.Pattern:
    return re.compile(pattern)


class FindingRule(NamedTuple):
    """One line rule: pattern, the native label it assigns, optional captures.

    Named groups carry captures: ``line`` (+ optional ``file``) for a source
    location, ``offset`` for a bytecode location, ``label`` to override the
    fixed label with matched text.
    """

    pattern: str
    label: str


class DocumentRule(NamedTuple):
    """One field-path rule over a structured result document.

    ``path`` is a dotted path; a ``*`` segment iterates array elements. The
    ``*_from`` paths are evaluated relative to each matched node.
    """

    path: str
    label: str | None = None
    label_from: str | None = None
    message_from: str | None = None
    file_from: str | None = None
    line_from: str | None = None
    offset_from: str | None = None
    severity_from: str | None = None


class _ParserSpec(NamedTuple):
    name: str
    kind: str  # "line_patterns" | "structured_document"
    finding_rules: tuple[FindingRule, ...] = ()
    error_rules: tuple[str, ...] = ()
    failure_rules: tuple[str, ...] = ()
    document_rules: tuple[DocumentRule, ...] = ()
    documents: tuple[str, ...] = ()  # structured only: sources to parse
    default_failure_rules: bool = True
    version: str = ""  # "": the fingerprint of the rules


class ParserSpec(_ParserSpec):
    """Declarative parsing rules accompanying a tool."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("line_patterns", "structured_document"):
            raise ValueError(f"parser {self.name}: unknown kind {self.kind!r}")
        if not self.finding_rules and not self.document_rules:
            raise ValueError(f"parser {self.name}: needs at least one finding rule or document path")
        for pat in self.patterns():
            compile_rule(pat)  # raises re.error on a bad pattern
        return self if self.version else self._replace(version=self.fingerprint())

    def patterns(self):
        for rule in self.finding_rules:
            yield rule.pattern
        yield from self.error_rules
        yield from self.failure_rules

    def fingerprint(self) -> str:
        payload = {
            "kind": self.kind,
            "findings": self.finding_rules,
            "errors": list(self.error_rules),
            "failures": list(self.failure_rules),
            "documents": list(self.documents),
            "document_rules": self.document_rules,
            "default_failure_rules": self.default_failure_rules,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


class Registry(NamedTuple):
    """Validated tool specs, each tool's parser built from its parser file on first use.

    ``parsers`` is the memo, parser ref -> spec, filled one parser file at a
    time. ``parser_files`` maps each tool directory's name to the directory
    and the bytes of its parser file that the content digest was taken
    from, None when it has none.
    """

    tools: tuple[ToolSpec, ...]
    parsers: dict[str, ParserSpec]
    content_digest: str
    parser_files: Mapping[str, tuple[Path, bytes | None]]

    def parser_for(self, tool: ToolSpec) -> ParserSpec:
        """The parser of ``tool``; the first call for a parser file decodes, checks and compiles all of it."""
        spec = self.parsers.get(tool.parser_ref)
        if spec is None:
            dir_name, _, name = tool.parser_ref.partition("/")
            tool_dir, data = self.parser_files[dir_name]
            self.parsers.update(_load_parser_file(tool_dir, data))
            spec = self.parsers.get(tool.parser_ref)
            if spec is None:
                raise DanglingParserRefError(
                    f"{tool_dir / CONFIG_FILENAME}: parser {name!r} has no rules in {PARSER_FILENAME}"
                )
        return spec

    def build_parsers(self, tools: Iterable[ToolSpec] | None = None) -> None:
        """Build the parser of each of ``tools`` (default: every tool), so that a bad parser file fails here."""
        for tool in {t.key: t for t in (self.tools if tools is None else tools)}.values():
            self.parser_for(tool)

    def find(self, tool_id: str, version_label: str) -> ToolSpec | None:
        for tool in self.tools:
            if tool.tool_id == tool_id and tool.version_label == version_label:
                return tool
        return None


def _fail(path: Path, message: str, line: int | None = None) -> None:
    where = f"{path}:{line}" if line is not None else str(path)
    raise ConfigSyntaxError(f"{where}: {message}")


def _read(path: Path) -> bytes | None:
    """The bytes of ``path``, or None when there is no such file."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        _fail(path, f"cannot be read: {exc.strerror or exc}")


def _load_yaml(path: Path, data: bytes) -> dict:
    try:
        doc = load_yaml(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        _fail(path, f"not UTF-8: byte {exc.start} cannot be decoded")
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        _fail(path, f"invalid YAML: {getattr(exc, 'problem', exc)}", None if mark is None else mark.line + 1)
    if not isinstance(doc, dict):
        _fail(path, "document must be a mapping")
    if doc.get("schema") != SCHEMA_VERSION:
        _fail(path, f"missing or unsupported schema version (expected schema: {SCHEMA_VERSION})")
    return doc


def _require(doc: dict, key: str, path: Path):
    if key not in doc:
        _fail(path, f"missing required field {key!r}")
    return doc[key]


def _parse_formats(raw, path: Path) -> frozenset[ContractFormat]:
    if not isinstance(raw, list) or not raw:
        _fail(path, "formats must be a nonempty list")
    out = set()
    for item in raw:
        try:
            out.add(ContractFormat(item))
        except ValueError:
            _fail(path, f"unknown format {item!r} (expected solidity, creation or runtime)")
    return frozenset(out)


def _parse_parser_spec(name: str, raw: dict, path: Path) -> ParserSpec:
    if not isinstance(raw, dict):
        _fail(path, f"parser {name!r} must be a mapping")
    kind = raw.get("kind", "line_patterns")
    finding_rules = []
    for entry in raw.get("findings", []) or []:
        if not isinstance(entry, dict) or "pattern" not in entry or entry.get("label") in (None, ""):
            _fail(path, f"parser {name!r}: each finding rule needs pattern and a nonempty label")
        finding_rules.append(FindingRule(pattern=str(entry["pattern"]), label=str(entry["label"])))
    document_rules = []
    for entry in raw.get("document_paths", []) or []:
        if not isinstance(entry, dict) or "path" not in entry:
            _fail(path, f"parser {name!r}: each document path rule needs a path")
        optional = {name: entry.get(name) for name in DocumentRule._fields if name != "path"}
        document_rules.append(DocumentRule(path=str(entry["path"]), **optional))
    try:
        return ParserSpec(
            name=name,
            kind=kind,
            finding_rules=tuple(finding_rules),
            error_rules=tuple(str(p) for p in raw.get("errors", []) or []),
            failure_rules=tuple(str(p) for p in raw.get("failures", []) or []),
            document_rules=tuple(document_rules),
            documents=tuple(raw.get("documents", []) or []),
            default_failure_rules=bool(raw.get("default_failure_rules", True)),
        )
    except (ValueError, re.error) as exc:
        _fail(path, str(exc))


def _load_parser_file(tool_dir: Path, data: bytes | None) -> dict[str, ParserSpec]:
    """Parser ref -> spec for each parser in ``tool_dir``'s parser file, whose bytes are ``data``."""
    if data is None:
        return {}
    parser_path = tool_dir / PARSER_FILENAME
    raw_parsers = _load_yaml(parser_path, data).get("parsers")
    if not isinstance(raw_parsers, dict) or not raw_parsers:
        _fail(parser_path, "expected a nonempty parsers mapping")
    return {
        f"{tool_dir.name}/{name}": _parse_parser_spec(str(name), raw, parser_path)
        for name, raw in raw_parsers.items()
    }


def _load_tool(config_path: Path, data: bytes) -> ToolSpec:
    tool_dir = config_path.parent
    doc = _load_yaml(config_path, data)

    tool_id = str(_require(doc, "id", config_path)).lower()
    version = str(_require(doc, "version", config_path))
    image = str(_require(doc, "image", config_path))
    formats = _parse_formats(_require(doc, "formats", config_path), config_path)
    command = _require(doc, "command", config_path)
    if not isinstance(command, dict):
        _fail(config_path, "command must map formats to templates")
    invocation = {}
    for fmt_name, template in command.items():
        try:
            invocation[ContractFormat(fmt_name)] = str(template)
        except ValueError:
            _fail(config_path, f"command for unknown format {fmt_name!r}")
    results = doc.get("results", ["stdout", "stderr"])
    if not isinstance(results, list):
        _fail(config_path, "results must be a list")
    parser_name = str(_require(doc, "parser", config_path))
    aux_files = tuple(tool_dir / str(p) for p in doc.get("aux_files", []) or [])
    for aux in aux_files:
        if not aux.exists():
            _fail(config_path, f"aux file {aux.name!r} not found in tool directory")
    try:
        return ToolSpec(
            tool_id=tool_id,
            version_label=version,
            image_ref=image,
            supported_formats=formats,
            invocation=invocation,
            result_sources=tuple(str(r) for r in results),
            parser_ref=f"{tool_dir.name}/{parser_name}",
            needs_compiler=bool(doc.get("needs_compiler", False)),
            aux_files=aux_files,
        )
    except ValueError as exc:
        _fail(config_path, str(exc))


def load_registry(registry_dir: str | Path) -> Registry:
    """Load and validate every tool subdirectory of ``registry_dir``.

    Returns tools in deterministic order (lexicographic by tool id, then
    version label). Duplicate (tool_id, version_label) pairs are rejected.
    Each file is read once: its bytes feed the content digest, and a parser
    file's are kept for ``Registry.parser_for`` to decode and check.
    """
    root = Path(registry_dir)
    if not root.is_dir():
        raise ConfigSyntaxError(f"{root}: not a directory")
    tools: list[ToolSpec] = []
    parser_files: dict[str, tuple[Path, bytes | None]] = {}
    seen: dict[tuple[str, str], Path] = {}
    hasher = hashlib.sha256()
    for tool_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        config_path = tool_dir / CONFIG_FILENAME
        config = _read(config_path)
        if config is None:
            _fail(config_path, "missing tool configuration")
        tool = _load_tool(config_path, config)
        key = (tool.tool_id, tool.version_label)
        if key in seen:
            raise DuplicateToolError(
                f"{tool_dir}: ({tool.tool_id}, {tool.version_label}) already declared in {seen[key]}"
            )
        seen[key] = tool_dir
        tools.append(tool)
        parser = _read(tool_dir / PARSER_FILENAME)
        parser_files[tool_dir.name] = (tool_dir, parser)
        hasher.update(tool_dir.name.encode())
        hasher.update(config)
        hasher.update(parser or b"")
    tools.sort(key=lambda t: (t.tool_id, t.version_label))
    return Registry(tools=tuple(tools), parsers={}, content_digest=hasher.hexdigest(), parser_files=parser_files)


def resolve_tools(registry: Registry, requested: Sequence[str]) -> list[ToolSpec]:
    """The registry's tools that ``requested`` names, in registry order.

    A name is ``id`` or ``id:version``, in any case; ``all`` anywhere in the
    request selects the whole registry. Unknown names fail fast, before any
    execution, naming the first one as it was given.
    """
    wanted = {name: name.strip().lower() for name in requested}
    if "all" in wanted.values():
        return list(registry.tools)
    chosen: set[str] = set()
    for name, lowered in wanted.items():
        tool_id, colon, version = lowered.partition(":")
        hits = {
            t.key for t in registry.tools
            if t.tool_id == tool_id and (not colon or t.version_label.lower() == version)
        }
        if not hits:
            raise UnknownToolError(f"tool {name!r} is not in the registry")
        chosen |= hits
    return [t for t in registry.tools if t.key in chosen]
