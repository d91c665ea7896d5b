"""Seeded workload generator: corpus, mock fixtures, compiler cache and the declared intent.

Everything scanmux sees during a benchmark run comes from here: the contract
files, the ``--mock-fixtures`` YAML (one behaviour for each of the bundled
registry's image refs) and a pre-populated compiler cache. The generator also
returns the intent those files declare (exit class and finding count per
tool, the expected task matrix), which the correctness gate checks every run
against. The same seed always produces the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

CLASSES = ("success", "tool_error", "tool_failure", "oom")

# The five pragma styles and the compiler each resolves to against the
# bundled release index; sources without a pragma get the newest release.
PRAGMA_STYLES = (
    ("caret", lambda r: f"^0.4.{r.randint(11, 24)}", "0.4.26"),
    ("range", lambda r: f">=0.4.{r.randint(22, 26)} <0.6.0", "0.5.17"),
    ("exact", lambda r: "0.5.17", "0.5.17"),
    ("tilde", lambda r: f"~0.7.{r.randint(0, 6)}", "0.7.6"),
    ("open", lambda r: f">=0.8.{r.randint(0, 20)}", "0.8.26"),
)
NEWEST_RELEASE = "0.8.26"

HEAVY_COMPILER_BYTES = 40 << 20

QUIET_LINE = "analysis finished: no issues found"
MYTHRIL_QUIET = '{"error": null, "issues": [], "success": true}'
TRACEBACK = (
    "Traceback (most recent call last):\n"
    '  File "/tool/main.py", line 7, in <module>\n'
    "RuntimeError: analysis crashed\n"
)


@dataclass(frozen=True)
class ToolInfo:
    """What the benchmark needs to know of one bundled registry entry."""

    tool_id: str
    version: str
    image: str
    formats: frozenset[str]
    needs_compiler: bool

    @property
    def key(self) -> str:
        return f"{self.tool_id}:{self.version}"


@dataclass(frozen=True)
class Spec:
    """Shape of one workload; the seed varies contents, never these counts."""

    sol: int
    hex: int
    rt: int
    tools: tuple[str, ...] | None  # None: the whole registry (`-t all`)
    no_pragma: int = 0
    heavy_compilers: bool = False
    # tool id -> (exit class, findings per task); tools not listed draw a
    # quiet intent from the seed.
    roles: tuple[tuple[str, str, int], ...] = ()


WORKLOADS: dict[str, Spec] = {
    # The SmartBugs-shaped matrix: every tool, every contract form, quiet
    # tools and placeholder compilers, so per-task harness cost dominates.
    "matrix": Spec(sol=20, hex=8, rt=10, tools=None, no_pragma=3),
    # Fewer tasks, tens of findings each, plus scripted errors, failures,
    # oom and the harvested-file tool: parsing and reporting dominate.
    "findings": Spec(
        sol=8,
        hex=0,
        rt=4,
        tools=(
            "conkas", "honeybadger", "manticore", "mythril", "osiris",
            "oyente", "securify", "slither", "smartcheck", "solhint",
        ),
        no_pragma=2,
        roles=(
            ("mythril", "success", 60),
            ("slither", "success", 60),
            ("solhint", "success", 60),
            ("securify", "success", 60),
            ("smartcheck", "success", 60),
            ("manticore", "success", 60),
            ("oyente", "success", 60),
            ("conkas", "tool_error", 0),
            ("osiris", "tool_failure", 0),
            ("honeybadger", "oom", 0),
        ),
    ),
    # Solidity only x the compiler-needing tools, with a 40 MiB binary per
    # resolved version: compiler hashing and copying dominate.
    "heavy-solc": Spec(
        sol=6,
        hex=0,
        rt=0,
        tools=(
            "confuzzius", "conkas", "honeybadger", "maian", "manticore", "mythril",
            "osiris", "oyente", "securify", "sfuzz", "slither",
        ),
        heavy_compilers=True,
    ),
}


def load_tools(registry_dir: Path) -> dict[str, ToolInfo]:
    """Read the bundled registry's config files directly, independent of scanmux."""
    tools = {}
    for config in sorted(registry_dir.glob("*/config.yaml")):
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        info = ToolInfo(
            tool_id=str(doc["id"]).lower(),
            version=str(doc["version"]),
            image=str(doc["image"]),
            formats=frozenset(doc["formats"]),
            needs_compiler=bool(doc.get("needs_compiler", False)),
        )
        tools[info.tool_id] = info
    return tools


# ---------------------------------------------------------------------------
# tool output

def _finding_line(tool_id: str, rng: random.Random, i: int) -> str:
    """One output line the tool's bundled parser reads as finding number ``i``.

    scanmux drops duplicate findings of a task, so every line carries its
    number; solhint's label must end the line, so there it goes mid-line.
    """
    if tool_id == "solhint":
        return (f"  {rng.randint(1, 400)}:{rng.randint(1, 40)}  warning  "
                f"{rng.choice(['Avoid tx.origin', 'Compiler version'])} (#{i})  "
                + rng.choice(["avoid-tx-origin", "compiler-version", "reason-string"]))
    return _finding_text(tool_id, rng) + f" (#{i})"


def _finding_text(tool_id: str, rng: random.Random) -> str:
    line = rng.randint(1, 400)
    offset = rng.randint(0, 0x3000)
    pick = rng.choice
    if tool_id == "confuzzius":
        return pick(["Reentrancy detected in line {l}", "Integer Overflow in line {l}",
                     "Unchecked Return Value", "Block Dependency"]).format(l=line)
    if tool_id == "conkas":
        return "Vulnerability: " + pick(["Integer Overflow", "Reentrancy", "Time Manipulation"]) + "."
    if tool_id == "ethainter":
        return pick(["Tainted selfdestruct", "Tainted delegatecall", "Accessible selfdestruct"])
    if tool_id == "ethor":
        return "insecure"
    if tool_id == "honeybadger":
        return pick(["Money flow: True", "Balance disorder: True", "Hidden transfer: True"])
    if tool_id == "madmax":
        return pick(["Unbounded mass operation", "Wallet griefing"])
    if tool_id == "maian":
        return pick(["Contract is suicidal", "Contract is prodigal", "Contract is greedy"])
    if tool_id == "manticore":
        return pick([f"Integer overflow at 0x{offset:x}", "Reentrancy detected",
                     "Uninitialized storage", "Unprotected selfdestruct"])
    if tool_id in ("osiris", "oyente"):
        return pick(["Integer Overflow: True", "Integer Underflow: True",
                     "Timestamp Dependency: True"])
    if tool_id == "pakala":
        return pick(["found selfdestruct bug", "found call bug"])
    if tool_id == "securify":
        return f"Violation for {pick(['DAO', 'TODReceiver', 'UnrestrictedWrite'])} in line {line}"
    if tool_id == "sfuzz":
        return pick(["Reentrancy detected", "Gasless Send detected", "Exception Disorder detected"])
    if tool_id == "slither":
        return pick([f"Reentrancy in C.f{line}() (contract.sol#{line})",
                     "C.g() uses tx.origin for authorization",
                     "C.h() ignores return value by token.transfer"])
    if tool_id == "smartcheck":
        return "ruleId: " + pick(["SOLIDITY_TX_ORIGIN", "SOLIDITY_PRAGMAS_VERSION", "SOLIDITY_UPGRADE_TO_050"])
    if tool_id == "teether":
        return "exploit found"
    if tool_id == "vandal":
        return pick([f"destroyable at 0x{offset:x}", f"uncheckedCall at 0x{offset:x}"])
    raise KeyError(f"no finding template for {tool_id}")


_ERROR_LINES = {
    "confuzzius": "Error: solidity compilation failed",
    "conkas": "could not compile contract",
    "ethainter": "decompilation failed",
    "ethor": "unsupported opcode 0xfe",
    "honeybadger": "CRITICAL:root:solidity compilation failed",
    "madmax": "decompilation failed",
    "maian": "compilation failed",
    "manticore": "solc error: cannot compile",
    "mythril": "mythril.mythril [ERROR] Solc experienced a fatal error",
    "osiris": "CRITICAL:root:solidity compilation failed",
    "oyente": "CRITICAL:root:unknown instruction",
    "pakala": "solver timeout",
    "securify": "[ERROR] compilation failed",
    "sfuzz": "compilation failed",
    "slither": "Error: invalid solc version",
    "smartcheck": "could not parse contract",
    "solhint": "Error: No files to lint",
    "teether": "z3 error",
    "vandal": "decompilation error",
}


def behavior(tool_id: str, exit_class: str, findings: int, rng: random.Random) -> dict:
    """Mock fixture for one image that yields ``exit_class`` with ``findings`` findings."""
    if exit_class == "oom":
        return {"oom": True}
    if exit_class == "tool_failure":
        return {"stderr": TRACEBACK, "exit_code": 1}
    if exit_class == "tool_error":
        doc = {"stdout": _ERROR_LINES[tool_id] + "\n", "exit_code": 1}
        if tool_id == "mythril":  # stdout is parsed as a document, errors come from stderr
            doc = {"stdout": '{"error": "compilation", "issues": [], "success": false}\n',
                   "stderr": _ERROR_LINES[tool_id] + "\n", "exit_code": 1}
        return doc
    if exit_class != "success":
        raise ValueError(exit_class)
    if tool_id == "mythril":
        issues = [
            {
                "title": rng.choice(["Integer Arithmetic Bugs", "External Call To User-Supplied Address",
                                     "Dependence on predictable environment variable"]),
                "description": f"issue {i}: " + rng.choice(["arithmetic", "call", "timestamp"]),
                "filename": "contract.sol",
                "lineno": rng.randint(1, 400),
                "severity": rng.choice(["High", "Medium", "Low"]),
            }
            for i in range(findings)
        ]
        text = json.dumps({"error": None, "issues": issues, "success": True}, sort_keys=True)
        return {"stdout": (text if findings else MYTHRIL_QUIET) + "\n"}
    lines = [_finding_line(tool_id, rng, i) for i in range(findings)]
    if tool_id == "securify":  # findings land in the harvested output/*.json file
        body = "{\n  \"findings\": [\n" + ",\n".join(f'    "{l}"' for l in lines) + "\n  ]\n}\n"
        return {"stdout": QUIET_LINE + "\n", "files": {"output/results.json": body}}
    return {"stdout": "\n".join(lines or [QUIET_LINE]) + "\n"}


# ---------------------------------------------------------------------------
# corpus

_WORDS = ("token", "vault", "auction", "wallet", "lottery", "bank", "escrow", "dao",
          "crowdsale", "exchange", "registry", "game", "oracle", "bridge", "proxy")


def _solidity_source(name: str, pragma: str | None, rng: random.Random) -> str:
    head = "// SPDX-License-Identifier: MIT\n"
    if pragma is not None:
        head += f"pragma solidity {pragma};\n"
    body = [f"\ncontract {name.capitalize()} {{", "    mapping(address => uint256) public balances;"]
    for i in range(12):
        k = rng.randint(1, 10**6)
        body.append(
            f"    function f{i}_{k}(uint256 a) public returns (uint256) {{\n"
            f"        balances[msg.sender] += a * {k};\n"
            f"        return balances[msg.sender] % {rng.randint(2, 997)};\n"
            f"    }}"
        )
    body.append("}\n")
    return head + "\n".join(body)


@dataclass(frozen=True)
class Contract:
    path: str  # relative to the work directory, as scanmux is given it
    fmt: str
    compiler: str | None  # version a compiler-needing tool gets, solidity only
    sha256: str


@dataclass(frozen=True)
class Intent:
    """What the generated files declare; the gate checks scanmux against it."""

    workload: str
    seed: int
    contracts: tuple[Contract, ...]
    tools: tuple[ToolInfo, ...]  # requested tools, sorted by id
    classes: dict  # tool id -> exit class
    findings: dict  # tool id -> findings per task
    tool_args: tuple[str, ...]  # `-t` values

    def tasks(self) -> list[tuple[Contract, ToolInfo]]:
        return [(c, t) for c in self.contracts for t in self.tools if c.fmt in t.formats]

    @property
    def skips(self) -> int:
        return sum(1 for c in self.contracts for t in self.tools if c.fmt not in t.formats)

    def expected_counts(self) -> dict[str, int]:
        counts = {cls: 0 for cls in CLASSES} | {"findings": 0}
        for _, tool in self.tasks():
            counts[self.classes[tool.tool_id]] += 1
            counts["findings"] += self.findings[tool.tool_id]
        return counts

    def compilers(self) -> set[str]:
        return {c.compiler for c, t in self.tasks() if c.compiler and t.needs_compiler}


def _write(path: Path, data: bytes) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def generate(workload: str, seed: int, work: Path, registry_dir: Path, spec: Spec | None = None) -> Intent:
    """Write ``corpus/``, ``fixtures.yaml`` and ``cache/`` under ``work``; return the intent.

    The compiler cache is populated through scanmux's public
    ``CompilerCache.store``, so scanmux must be importable.
    """
    from scanmux.solc import CompilerCache, MockCompilerFetcher, SemVer

    spec = spec or WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    registry = load_tools(registry_dir)
    requested = sorted(spec.tools) if spec.tools is not None else sorted(registry)
    tools = tuple(registry[t] for t in requested)

    # corpus: fixed counts per form, seeded names, pragmas and bytes
    contracts = []
    words = [rng.choice(_WORDS) for _ in range(spec.sol + spec.hex + spec.rt)]
    styles = [PRAGMA_STYLES[i % len(PRAGMA_STYLES)] for i in range(spec.sol - spec.no_pragma)]
    styles += [None] * spec.no_pragma
    rng.shuffle(styles)
    index = 0
    for style in styles:
        name = f"{words[index]}{index:03d}"
        pragma = style[1](rng) if style else None
        data = _solidity_source(name, pragma, rng).encode()
        rel = f"corpus/{name}.sol"
        contracts.append(Contract(rel, "solidity", style[2] if style else NEWEST_RELEASE,
                                  _write(work / rel, data)))
        index += 1
    for count, ext, fmt in ((spec.hex, ".hex", "creation"), (spec.rt, ".rt.hex", "runtime")):
        for _ in range(count):
            name = f"{words[index]}{index:03d}"
            data = ("0x" + rng.randbytes(rng.randint(900, 1100)).hex() + "\n").encode()
            rel = f"corpus/{name}{ext}"
            contracts.append(Contract(rel, fmt, None, _write(work / rel, data)))
            index += 1
    contracts.sort(key=lambda c: c.path)

    # fixtures for every bundled image; the intent of requested tools
    roles = {tool_id: (cls, n) for tool_id, cls, n in spec.roles}
    classes, findings, fixtures = {}, {}, {}
    for tool_id, info in sorted(registry.items()):
        if tool_id in roles:
            cls, n = roles[tool_id]
        else:
            cls = rng.choice(("success", "success", "tool_error"))
            n = rng.choice((0, 1)) if cls == "success" else 0
        classes[tool_id], findings[tool_id] = cls, n
        fixtures[info.image] = behavior(tool_id, cls, n, rng)
    _write(work / "fixtures.yaml", yaml.safe_dump(fixtures, sort_keys=True).encode())

    intent = Intent(
        workload=workload,
        seed=seed,
        contracts=tuple(contracts),
        tools=tools,
        classes={t.tool_id: classes[t.tool_id] for t in tools},
        findings={t.tool_id: findings[t.tool_id] for t in tools},
        tool_args=tuple(requested) if spec.tools is not None else ("all",),
    )

    cache = CompilerCache(work / "cache")
    for version in sorted(intent.compilers(), key=SemVer.parse):
        semver = SemVer.parse(version)
        if spec.heavy_compilers:
            payload = random.Random(f"{workload}:{seed}:{version}").randbytes(HEAVY_COMPILER_BYTES)
        else:
            payload = MockCompilerFetcher.payload(semver)
        cache.store(semver, payload)
    return intent
