"""End-to-end checks of the harness's headline guarantees.

Each test covers one shipping criterion; the terminal summary prints one
PASS/FAIL line per criterion (hook in conftest).
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from scanmux import cli
from scanmux.executor import ContainerBackend, MockBackend, MockToolBehavior, RunOutcome
from scanmux.parsing import ExitClass
from scanmux.paths import bundled_taxonomy
from scanmux.plan import read_plan_lock, write_plan_lock
from scanmux.registry import load_registry
from scanmux.reporting import (
    TaxonomyMap,
    build_summary,
    collect_outcomes,
    emit_sarif,
    error_rate_series,
    series_records,
    validate_sarif,
)
from scanmux.runner import Runner, TaskExecutor, permute, read_done_marker
from scanmux.solc import (
    CompilerCache,
    MockCompilerFetcher,
    NoSatisfyingVersionError,
    SemVer,
    UnsupportedEraError,
    VersionConstraint,
    prefetch_compilers,
    resolve_version,
)

from conftest import (
    MOCK_TOOLS,
    discover_corpus,
    plan_for,
    write_corpus,
    write_tool_dir,
)
from test_solc import MIN_SUPPORTED, RELEASES

BEHAVIOR_FIXTURES = """\
example.io/mock/alpha:1.0:
  stdout: "VULN: Reentrancy at line 3\\n"
example.io/mock/charlie:0.9:
  stdout: "ERROR: cannot load bytecode\\n"
example.io/mock/echo:5.0:
  stdout: "WEAKNESS-0x1f\\n"
"""


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    corpus = write_corpus(base / "contracts")  # 12 solidity + 4 creation + 4 runtime
    registry_dir = base / "registry"
    for tool_id, spec in MOCK_TOOLS.items():
        write_tool_dir(
            registry_dir, tool_id, spec["version"], spec["formats"], spec["command"],
            needs_compiler=spec["needs_compiler"],
        )
    fixtures = base / "behaviors.yaml"
    fixtures.write_text(BEHAVIOR_FIXTURES)
    return SimpleNamespace(
        base=base,
        corpus=corpus,
        registry_dir=registry_dir,
        registry=load_registry(registry_dir),
        cache=CompilerCache(base / "compilers"),
        fixtures=fixtures,
    )


@pytest.fixture(scope="module")
def full_run(env):
    """One complete 4-worker run over the 20-contract corpus, via the CLI."""
    root = env.base / "full-run"
    argv = [
        "run",
        "-f", f"{env.corpus}/*",
        "--registry", str(env.registry_dir),
        "--results", f"{root}/{{runid}}/{{filename}}/{{toolid}}",
        "--compiler-cache", str(env.base / "compilers"),
        "--backend", "mock",
        "--mock-fixtures", str(env.fixtures),
        "--processes", "4",
        "--sarif",
    ]
    started = time.monotonic()
    code = cli.main(argv)
    elapsed = time.monotonic() - started
    return SimpleNamespace(root=root, code=code, elapsed=elapsed)


def tree_digest(root: Path) -> dict:
    """Every file under root; meta.json compared minus its timing fields."""
    out = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        if path.name == "meta.json":
            doc = json.loads(path.read_text())
            for field in ("started_at", "finished_at", "duration_s"):
                doc.pop(field, None)
            out[rel] = json.dumps(doc, sort_keys=True)
        else:
            out[rel] = path.read_bytes()
    return out


@pytest.fixture
def release_versions():
    return [SemVer.parse(v) for v in RELEASES]


def test_criterion_1_full_matrix_completes(env, full_run):
    assert full_run.code == 0
    lock = read_plan_lock(full_run.root)
    assert len(lock["tasks"]) == 60
    assert len(lock["skips"]) == 40
    assert len(lock["tasks"]) + len(lock["skips"]) == 100
    for entry in lock["tasks"]:
        out_dir = full_run.root / entry["output_dir"]
        assert (out_dir / "meta.json").is_file(), entry["output_dir"]
        assert (out_dir / "result.json").is_file(), entry["output_dir"]
        assert (out_dir / "done").is_file(), entry["output_dir"]
        assert (out_dir / "raw" / "stdout").is_file(), entry["output_dir"]
    assert full_run.elapsed < 60.0


def test_criterion_2_interrupt_resume_converges(env, tmp_path, release_index):
    behaviors = {
        "example.io/mock/alpha:1.0": MockToolBehavior(stdout="VULN: Reentrancy at line 3\n"),
        "example.io/mock/charlie:0.9": MockToolBehavior(stdout="ERROR: boom\n"),
        "example.io/mock/echo:5.0": MockToolBehavior(stdout="WEAKNESS-0x1f\n"),
    }
    backend = MockBackend(behaviors)
    contracts = discover_corpus(env.corpus)
    plan = plan_for(contracts, env.registry, env.cache, release_index, backend)
    executor = TaskExecutor(backend, env.registry, env.cache, plan.image_digests, plan.args_digest)

    interrupted_root = tmp_path / "interrupted"
    reference_root = tmp_path / "reference"
    write_plan_lock(plan, interrupted_root)
    write_plan_lock(plan, reference_root)

    runner = Runner(plan, executor, interrupted_root, workers=4)
    runner.on_progress = lambda done, total: done >= 18 and runner.request_stop()
    partial = runner.run()
    assert partial.executed >= 18  # stop fired at 30% or later
    assert partial.remaining > 0

    resumed = Runner(plan, executor, interrupted_root, workers=4).run()
    assert resumed.executed == partial.remaining
    assert resumed.skipped_as_done == partial.executed
    assert resumed.remaining == 0

    reference = Runner(plan, executor, reference_root, workers=4).run()
    assert reference.executed == 60
    assert tree_digest(interrupted_root) == tree_digest(reference_root)


def test_criterion_3_determinism(env, tmp_path, release_index):
    contracts = discover_corpus(env.corpus)

    lock_blobs = []
    plans = []
    for i in range(3):
        backend = MockBackend()
        plan = plan_for(contracts, env.registry, env.cache, release_index, backend)
        plans.append(plan)
        root = tmp_path / f"rebuild{i}"
        lock_blobs.append(write_plan_lock(plan, root).read_bytes())
    assert lock_blobs[0] == lock_blobs[1] == lock_blobs[2]

    order_a = [t.output_dir for t in permute(plans[0].tasks, plans[0].seed)]
    order_b = [t.output_dir for t in permute(plans[1].tasks, plans[1].seed)]
    assert order_a == order_b

    behaviors = {"example.io/mock/bravo:2.1": MockToolBehavior(stdout="VULN: Locked Ether\n")}
    backend = MockBackend(behaviors)
    plan = plan_for(contracts, env.registry, env.cache, release_index, backend)
    executor = TaskExecutor(backend, env.registry, env.cache, plan.image_digests, plan.args_digest)
    serial_root = tmp_path / "serial"
    parallel_root = tmp_path / "parallel"
    write_plan_lock(plan, serial_root)
    write_plan_lock(plan, parallel_root)
    assert Runner(plan, executor, serial_root, workers=1).run().executed == 60
    assert Runner(plan, executor, parallel_root, workers=4).run().executed == 60
    assert tree_digest(serial_root) == tree_digest(parallel_root)


def test_criterion_4_resolution_matches_bruteforce(tmp_path, release_versions):
    rng = random.Random(202406)
    pool = RELEASES + ["0.3.6", "0.4.10", "0.9.0", "0.9.7", "1.0.0"]
    constraints = []
    for _ in range(50):
        v = rng.choice(pool)
        form = rng.randrange(6)
        if form == 0:
            text = f"^{v}"
        elif form == 1:
            text = f"~{v}"
        elif form == 2:
            text = v
        elif form == 3:
            text = f"<={v}"
        elif form == 4:
            lo, hi = sorted(rng.sample(pool, 2), key=lambda s: SemVer.parse(s).tuple)
            text = f">={lo} <{hi}"
        else:
            text = "^" + v.rsplit(".", 1)[0]
        constraints.append(text)
    assert len(constraints) == 50

    mismatches = []
    resolved: set[SemVer] = set()
    for text in constraints:
        constraint = VersionConstraint.parse(text)
        brute = [
            v for v in release_versions
            if constraint.satisfied_by(v) and v.tuple >= MIN_SUPPORTED
        ]
        try:
            got = resolve_version(constraint, release_versions)
        except (UnsupportedEraError, NoSatisfyingVersionError):
            got = None
        expected = max(brute) if brute else None
        if got != expected:
            mismatches.append((text, expected, got))
        if got is not None:
            resolved.add(got)
    assert mismatches == []

    assert resolved  # the sample must actually exercise provisioning
    cache = CompilerCache(tmp_path / "cc")
    fetcher = MockCompilerFetcher()
    assert prefetch_compilers(resolved, cache, fetcher) == []
    assert len(fetcher.calls) == len(resolved)
    assert prefetch_compilers(resolved, cache, fetcher) == []
    assert len(fetcher.calls) == len(resolved)  # cache hits, no refetch


def test_criterion_5_sarif_valid_and_versioned_runs(env, full_run, tmp_path, release_index):
    sarif_path = full_run.root / "report.sarif"
    doc = json.loads(sarif_path.read_text())
    assert doc["version"] == "2.1.0"
    validate_sarif(doc)
    assert len(doc["runs"]) == 5  # one per tool that ran

    # two registered versions of one tool produce two SARIF runs
    registry_dir = tmp_path / "registry"
    write_tool_dir(registry_dir, "zeta-old", "1.0", ["runtime"], {"runtime": "z {contract}"})
    write_tool_dir(registry_dir, "zeta-new", "2.0", ["runtime"], {"runtime": "z {contract}"})
    for d in ("zeta-old", "zeta-new"):
        cfg = registry_dir / d / "config.yaml"
        cfg.write_text(cfg.read_text().replace(f"id: {d}", "id: zeta"))
    registry = load_registry(registry_dir)

    corpus = write_corpus(tmp_path / "contracts", n_sol=0, n_creation=0, n_runtime=1)
    contracts = discover_corpus(corpus)
    backend = MockBackend(default=MockToolBehavior(stdout="VULN: Reentrancy at line 2\n"))
    plan = plan_for(contracts, registry, env.cache, release_index, backend)
    assert len(plan.tasks) == 2
    root = tmp_path / "results"
    write_plan_lock(plan, root)
    executor = TaskExecutor(backend, registry, env.cache, plan.image_digests, plan.args_digest)
    Runner(plan, executor, root, workers=2).run()

    taxonomy = TaxonomyMap.load(bundled_taxonomy())
    outcomes, incomplete = collect_outcomes(root, taxonomy)
    assert incomplete == []
    two_version_doc = emit_sarif(outcomes, taxonomy)
    validate_sarif(two_version_doc)
    drivers = [
        (r["tool"]["driver"]["name"], r["tool"]["driver"]["version"])
        for r in two_version_doc["runs"]
    ]
    assert drivers == [("zeta", "1.0"), ("zeta", "2.0")]


class KeyedBackend(ContainerBackend):
    """Emits a tool error iff the staged bytecode decodes to a key >= threshold."""

    def __init__(self, threshold: int):
        self.threshold = threshold

    def available(self) -> bool:
        return True

    def pull(self, image_ref: str) -> str:
        return "sha256:" + image_ref

    def run(self, image_digest, volume_dir, command, limits) -> RunOutcome:
        key = int((volume_dir / "contract.rt.hex").read_text().strip(), 16)
        if key >= self.threshold:
            return RunOutcome(exit_code=0, stdout=b"ERROR: synthetic fault\n")
        return RunOutcome(exit_code=0, stdout=b"clean\n")


class CrashPayloadBackend(ContainerBackend):
    """Crashes (stack trace, exit 1) on one specific staged payload."""

    def __init__(self, crash_payload: str):
        self.crash_payload = crash_payload

    def available(self) -> bool:
        return True

    def pull(self, image_ref: str) -> str:
        return "sha256:" + image_ref

    def run(self, image_digest, volume_dir, command, limits) -> RunOutcome:
        payload = (volume_dir / "contract.rt.hex").read_text().strip()
        if payload == self.crash_payload:
            return RunOutcome(exit_code=1, stderr=b"Traceback (most recent call last):\n  oops\n")
        return RunOutcome(exit_code=0, stdout=b"clean\n")


def _probe_registry(base: Path):
    registry_dir = base / "registry"
    write_tool_dir(registry_dir, "probe", "1.0", ["runtime"], {"runtime": "probe {contract}"})
    return load_registry(registry_dir)


def test_criterion_6_rate_analytics(tmp_path, release_index):
    registry = _probe_registry(tmp_path)
    taxonomy = TaxonomyMap.load(bundled_taxonomy())
    cache = CompilerCache(tmp_path / "cc")

    # keys spanning bins 0..100; errors start exactly at 7,500,000
    corpus = tmp_path / "contracts"
    corpus.mkdir()
    keys = {}
    for i in range(101):
        key = i * 100_000 + 50
        path = corpus / f"k{i:03d}.rt.hex"
        path.write_text(f"{key:08x}")
        keys[path.as_posix()] = key
    contracts = discover_corpus(corpus)
    backend = KeyedBackend(threshold=7_500_000)
    plan = plan_for(contracts, registry, cache, release_index, backend)
    root = tmp_path / "binned"
    write_plan_lock(plan, root)
    executor = TaskExecutor(backend, registry, cache, plan.image_digests, plan.args_digest)
    assert Runner(plan, executor, root, workers=4).run().executed == 101

    outcomes, incomplete = collect_outcomes(root, taxonomy)
    assert incomplete == []
    series = error_rate_series(series_records(outcomes, keys), 100_000)
    points = dict(series["probe:1.0"])
    assert set(points) == set(range(101))
    for bin_index, rate in points.items():
        if bin_index < 75:
            assert rate == 0.0, (bin_index, rate)
        else:
            assert rate > 0.0, (bin_index, rate)

    # one crash in four runs reports as exactly 25.00
    corpus2 = tmp_path / "contracts2"
    corpus2.mkdir()
    payloads = ["deadbe0f", "deadbe1f", "deadbe2f", "deadbe3f"]
    for i, payload in enumerate(payloads):
        (corpus2 / f"f{i}.rt.hex").write_text(payload)
    contracts2 = discover_corpus(corpus2)
    backend2 = CrashPayloadBackend(crash_payload="deadbe2f")
    plan2 = plan_for(contracts2, registry, cache, release_index, backend2)
    root2 = tmp_path / "crash"
    write_plan_lock(plan2, root2)
    executor2 = TaskExecutor(backend2, registry, cache, plan2.image_digests, plan2.args_digest)
    assert Runner(plan2, executor2, root2, workers=2).run().executed == 4

    outcomes2, _ = collect_outcomes(root2, taxonomy)
    classes = sorted(o.exit_class.value for o in outcomes2)
    assert classes.count("tool_failure") == 1
    summary = build_summary(outcomes2)
    assert abs(summary["tools"]["probe:1.0"]["failure_rate"] - 25.00) <= 0.01


def test_criterion_7_timeout_enforced(tmp_path, release_index):
    registry = _probe_registry(tmp_path)
    cache = CompilerCache(tmp_path / "cc")
    corpus = tmp_path / "contracts"
    corpus.mkdir()
    (corpus / "slow.rt.hex").write_text("6080fdfe")
    contracts = discover_corpus(corpus)
    backend = MockBackend(
        {"example.io/mock/probe:1.0": MockToolBehavior(stdout="late\n", sleep_s=3.0)}
    )
    plan = plan_for(contracts, registry, cache, release_index, backend, timeout=1.0)
    root = tmp_path / "results"
    write_plan_lock(plan, root)
    executor = TaskExecutor(backend, registry, cache, plan.image_digests, plan.args_digest)
    result = executor.run_task(plan.tasks[0], root)
    assert result.exit_class is ExitClass.TIMEOUT
    # cut off near the 1s limit; a broken timeout would run the full 3s sleep
    assert 0.9 <= result.record.duration <= 2.5
    marker = read_done_marker(root / plan.tasks[0].output_dir)
    assert marker is not None and marker[2] == "timeout"


def test_criterion_8_reparse_reproduces_results(env, full_run):
    before = {
        p.relative_to(full_run.root).as_posix(): p.read_bytes()
        for p in full_run.root.rglob("result.json")
    }
    assert len(before) == 60
    assert cli.main(["reparse", str(full_run.root), "--registry", str(env.registry_dir)]) == 0
    after = {
        p.relative_to(full_run.root).as_posix(): p.read_bytes()
        for p in full_run.root.rglob("result.json")
    }
    assert after == before


def test_criterion_9_tool_inventory(capsys):
    assert cli.main(["tools"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    body = lines[1:-1]
    assert len(body) == 19
    assert lines[-1].split() == ["total", "19", "tools", "13", "2", "13"]
