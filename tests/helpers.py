"""Test helpers: a five-tool mock registry, synthetic contracts, CLI-like plans,
and a child Python process that imports this checkout's scanmux.

Fixtures that use these live in ``conftest.py``; test modules import the
helpers from here.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import scanmux
from scanmux.model import ResourceLimits
from scanmux.plan import build_plan, discover_contracts
from scanmux.solc import MockCompilerFetcher


# Five mock tools with the same kind of format-support spread the real
# registry has: 3 take Solidity, 2 take creation bytecode, 4 take runtime.
MOCK_TOOLS = {
    "alpha": dict(
        version="1.0",
        formats=["solidity"],
        needs_compiler=True,
        command={"solidity": "alpha-scan {contract} --solc {compiler} -o {output}"},
    ),
    "bravo": dict(
        version="2.1",
        formats=["solidity", "creation", "runtime"],
        needs_compiler=True,
        command={
            "solidity": "bravo -s {contract} --solc {compiler}",
            "creation": "bravo -c {contract}",
            "runtime": "bravo -r {contract}",
        },
    ),
    "charlie": dict(
        version="0.9",
        formats=["runtime"],
        needs_compiler=False,
        command={"runtime": "charlie {contract}"},
    ),
    "delta": dict(
        version="1.2",
        formats=["solidity", "runtime"],
        needs_compiler=False,
        command={"solidity": "delta --source {contract}", "runtime": "delta --code {contract}"},
    ),
    "echo": dict(
        version="5.0",
        formats=["creation", "runtime"],
        needs_compiler=False,
        command={"creation": "echo-scan -i {contract}", "runtime": "echo-scan -r {contract}"},
    ),
}

MOCK_PARSER = """\
schema: 1
parsers:
  default:
    kind: line_patterns
    findings:
      - pattern: 'VULN: (?P<label>[A-Za-z ]+?)(?: at line (?P<line>\\d+))?$'
        label: finding
      - pattern: 'WEAKNESS-(?P<offset>0x[0-9a-fA-F]+)'
        label: Weakness
    errors:
      - '^ERROR:'
      - 'compilation failed'
"""


def write_tool_dir(
    root: Path,
    tool_id: str,
    version: str,
    formats: list[str],
    command: dict[str, str],
    needs_compiler: bool = False,
    parser_yaml: str = MOCK_PARSER,
    image: str | None = None,
) -> Path:
    tool_dir = root / tool_id
    tool_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        "schema: 1",
        f"id: {tool_id}",
        f"version: '{version}'",
        f"image: {image or f'example.io/mock/{tool_id}:{version}'}",
        "formats:",
        *[f"  - {f}" for f in formats],
        "command:",
        *[f"  {fmt}: '{tpl}'" for fmt, tpl in command.items()],
    ]
    if needs_compiler:
        lines.append("needs_compiler: true")
    lines.append("parser: default")
    (tool_dir / "config.yaml").write_text("\n".join(lines) + "\n")
    (tool_dir / "parser.yaml").write_text(parser_yaml)
    return tool_dir


SOL_PRAGMAS = [
    "^0.4.24",
    "^0.5.0",
    ">=0.4.11 <0.6.0",
    "0.8.4",
    "~0.6.2",
    ">=0.7.0",
]


def write_corpus(root: Path, n_sol: int = 12, n_creation: int = 4, n_runtime: int = 4) -> Path:
    """Synthetic contracts: .sol with rotating pragmas, plus hex dumps."""
    root.mkdir(parents=True, exist_ok=True)
    for i in range(n_sol):
        pragma = SOL_PRAGMAS[i % len(SOL_PRAGMAS)]
        (root / f"c{i:02d}.sol").write_text(
            textwrap.dedent(
                f"""\
                pragma solidity {pragma};

                contract C{i} {{
                    uint public value = {i};
                }}
                """
            )
        )
    for i in range(n_creation):
        (root / f"d{i:02d}.hex").write_text("60806040" + f"{i:02x}" * 4)
    for i in range(n_runtime):
        (root / f"r{i:02d}.rt.hex").write_text("6080fdfe" + f"{i:02x}" * 4)
    return root


def plan_for(
    contracts,
    registry,
    cache,
    release_index,
    backend,
    tools=("all",),
    seed: int = 0,
    scheme: str = "{runid}/{filename}/{toolid}",
    timeout: float = 600.0,
):
    """Build a plan the way the CLI does, minus the argument parsing."""
    return build_plan(
        contracts,
        registry,
        tools,
        scheme,
        ResourceLimits(wall_timeout=timeout),
        seed,
        files=[c.id for c in contracts],
        backend_name="mock",
        cache=cache,
        fetcher=MockCompilerFetcher(),
        release_index=release_index,
        backend=backend,
    )


def discover_corpus(corpus: Path):
    return discover_contracts([str(corpus / "*")])


def backdate(path: Path, seconds: float = 3600.0) -> None:
    """Set a file's mtime ``seconds`` into the past, like a compiler cached by an earlier run."""
    then = time.time_ns() - int(seconds * 1e9)
    os.utime(path, ns=(then, then))


def run_python(script: str, *args: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run ``python -c script args`` in a child process that imports this checkout's scanmux.

    Returns the finished process with its stdout and stderr as text.
    """
    src = Path(scanmux.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=timeout
    )
