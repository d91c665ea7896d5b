"""Shared fixtures: a small five-tool registry, synthetic contracts, caches."""

from __future__ import annotations

import re
from pathlib import Path

import jsonschema
import pytest

from scanmux.executor import ScratchVolume
from scanmux.registry import load_registry
from scanmux.solc import CompilerCache, ReleaseIndex

from helpers import MOCK_TOOLS, write_corpus, write_tool_dir


@pytest.fixture
def mock_registry_dir(tmp_path: Path) -> Path:
    reg = tmp_path / "registry"
    for tool_id, spec in MOCK_TOOLS.items():
        write_tool_dir(
            reg,
            tool_id,
            spec["version"],
            spec["formats"],
            spec["command"],
            needs_compiler=spec["needs_compiler"],
        )
    return reg


@pytest.fixture
def mock_registry(mock_registry_dir: Path):
    return load_registry(mock_registry_dir)


@pytest.fixture
def corpus_dir(tmp_path: Path) -> Path:
    return write_corpus(tmp_path / "contracts")


@pytest.fixture
def compiler_cache(tmp_path: Path) -> CompilerCache:
    return CompilerCache(tmp_path / "compilers")


@pytest.fixture
def volume():
    """A worker's scratch volume, discarded when the test ends."""
    with ScratchVolume() as volume:
        yield volume


@pytest.fixture
def jsonschema_forbidden(monkeypatch):
    """Fails a test that reaches jsonschema.validate: the compiled SARIF check must accept alone."""

    def forbidden(*args, **kwargs):
        raise AssertionError("validate_sarif fell back to jsonschema")

    monkeypatch.setattr(jsonschema, "validate", forbidden)


@pytest.fixture
def release_index() -> ReleaseIndex:
    from scanmux.paths import bundled_release_index

    return ReleaseIndex.load(bundled_release_index())


# One verdict line per acceptance criterion in the terminal summary, so the
# pass/fail state of each is visible without grepping the dot output.
_CRITERIA: dict[str, str] = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if "test_criterion_" not in name:
        return
    if report.when == "call" or report.outcome != "passed":
        _CRITERIA[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return

    def order(name: str):
        match = re.search(r"test_criterion_(\d+)", name)
        return (int(match.group(1)) if match else 999, name)

    terminalreporter.section("acceptance criteria")
    for name in sorted(_CRITERIA, key=order):
        verdict = "PASS" if _CRITERIA[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {verdict}")
