"""The correctness gate passes a real run and rejects tampered trees."""

import json
from pathlib import Path

import pytest

import gate
import run
import workload as wl

REGISTRY = Path(__file__).resolve().parents[2] / "src" / "scanmux" / "data" / "registry"
TINY = wl.Spec(sol=3, hex=1, rt=1, tools=None, no_pragma=1)


@pytest.fixture(scope="module")
def cycle(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    (work / "tmp").mkdir()
    intent = wl.generate("matrix", 3, work, REGISTRY, TINY)
    bench = run.Bench(work, intent)
    c = bench.cycle(traced=False)
    return intent, work / "results" / "1", c


def test_an_untampered_run_passes(cycle):
    intent, root, c = cycle
    assert c.problems == [] and c.failed == 0
    assert c.attempted == len(intent.tasks()) + 3
    assert gate.check_reports(intent, root) == []


def test_a_flipped_byte_in_a_result_changes_the_digest(cycle, tmp_path):
    intent, root, c = cycle
    result = next(root.rglob("result.json"))
    original = result.read_bytes()
    try:
        result.write_bytes(bytes([original[0] ^ 1]) + original[1:])
        assert gate.compare_digests(c.digest, gate.scan_tree(root)[0], "tree")
    finally:
        result.write_bytes(original)
    assert gate.compare_digests(c.digest, gate.scan_tree(root)[0], "tree") == []


def test_a_deleted_done_marker_fails_its_task(cycle):
    intent, root, _ = cycle
    marker = next(root.rglob("done"))
    original = marker.read_bytes()
    try:
        marker.unlink()
        problems = gate.task_failures(intent, root)
        assert len(problems) == 1 and "no done marker" in problems[0]
    finally:
        marker.write_bytes(original)
    assert gate.task_failures(intent, root) == []


def test_a_wrong_tally_is_rejected(cycle):
    intent, root, _ = cycle
    n = len(intent.tasks())
    counts = intent.expected_counts()
    good = (f"executed {n} of {n} tasks: {counts['success']} ok, {counts['tool_error']} tool errors, "
            f"0 failures, 0 timeouts, 0 oom, 0 already done")
    assert gate.check_tally(intent, [good], resumed=False) == []
    bad = good.replace(f"{counts['success']} ok", f"{counts['success'] - 1} ok")
    assert gate.check_tally(intent, [bad], resumed=False)
    assert gate.check_tally(intent, [good], resumed=True)


def test_a_wrong_summary_total_is_rejected(cycle):
    intent, root, _ = cycle
    path = root / "summary.json"
    original = path.read_text()
    try:
        doc = json.loads(original)
        doc["totals"]["findings"] += 1
        path.write_text(json.dumps(doc))
        assert any("summary totals" in p for p in gate.check_reports(intent, root))
    finally:
        path.write_text(original)
