"""Correctness gate: check every scanmux output of a cycle against the declared intent.

Each check returns a list of problems; an empty list means it passed. The
benchmark counts a CLI phase as failed when any of its checks reports a
problem, and a task as failed when its ``done`` marker is missing, malformed
or disagrees with the intent.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
from collections import Counter
from pathlib import Path

from workload import Intent

TIMING_FIELDS = ("started_at", "finished_at", "duration_s")

PLANNED_RE = re.compile(r"^planned (\d+) tasks \((\d+) skips\) into ")
TALLY_RE = re.compile(
    r"^executed (\d+) of (\d+) tasks: (\d+) ok, (\d+) tool errors, (\d+) failures, "
    r"(\d+) timeouts, (\d+) oom, (\d+) already done$"
)
REPARSED_RE = re.compile(r"^reparsed (\d+) tasks under ")


def scan_tree(root: Path) -> tuple[dict[str, str], int]:
    """(digest, allocated bytes) of a results tree.

    The digest maps every file's relative path to the SHA-256 of its bytes;
    ``meta.json`` is hashed without its timing fields, the rest verbatim.
    Allocated bytes come from ``st_blocks`` of every file and directory.
    """
    digest: dict[str, str] = {}
    allocated = 0
    for dirpath, _, filenames in os.walk(root):
        allocated += os.stat(dirpath).st_blocks * 512
        for name in filenames:
            path = os.path.join(dirpath, name)
            allocated += os.stat(path).st_blocks * 512
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "meta.json":
                doc = json.loads(data)
                for key in TIMING_FIELDS:
                    doc.pop(key, None)
                data = json.dumps(doc, sort_keys=True).encode()
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            digest[rel] = hashlib.sha256(data).hexdigest()
    return digest, allocated


def compare_digests(expected: dict[str, str], actual: dict[str, str], what: str) -> list[str]:
    if expected == actual:
        return []
    changed = sorted(k for k in expected.keys() & actual.keys() if expected[k] != actual[k])
    missing = sorted(expected.keys() - actual.keys())
    extra = sorted(actual.keys() - expected.keys())
    return [f"{what}: {len(changed)} files changed {changed[:3]}, "
            f"{len(missing)} missing {missing[:3]}, {len(extra)} new {extra[:3]}"]


def _last_match(pattern: re.Pattern, lines: list[str]):
    for line in reversed(lines):
        m = pattern.match(line.strip())
        if m:
            return m
    return None


def check_planned(intent: Intent, stdout: list[str]) -> list[str]:
    m = _last_match(PLANNED_RE, stdout)
    want = (len(intent.tasks()), intent.skips)
    if m is None:
        return ["no 'planned N tasks' line"]
    got = (int(m.group(1)), int(m.group(2)))
    return [] if got == want else [f"planned (tasks, skips) {got} != intent {want}"]


def check_tally(intent: Intent, stdout: list[str], resumed: bool) -> list[str]:
    """The final tally line: everything executed on a first run, nothing on a resume."""
    m = _last_match(TALLY_RE, stdout)
    if m is None:
        return ["no final tally line"]
    n = len(intent.tasks())
    counts = intent.expected_counts()
    if resumed:
        want = (0, n, 0, 0, 0, 0, 0, n)
    else:
        want = (n, n, counts["success"], counts["tool_error"], counts["tool_failure"], 0,
                counts["oom"], 0)
    got = tuple(int(g) for g in m.groups())
    return [] if got == want else [f"tally {got} != intent {want}"]


def check_reparsed(intent: Intent, stdout: list[str]) -> list[str]:
    m = _last_match(REPARSED_RE, stdout)
    if m is None:
        return ["no 'reparsed N tasks' line"]
    n = len(intent.tasks())
    return [] if int(m.group(1)) == n else [f"reparsed {m.group(1)} tasks, intent {n}"]


def check_plan_lock(intent: Intent, root: Path) -> list[str]:
    """plan.lock pairs every contract with exactly the intended tools and compilers."""
    lock = json.loads((root / "plan.lock").read_text(encoding="utf-8"))
    got = sorted((t["contract"], t["tool"], t["compiler"]) for t in lock["tasks"])
    want = sorted(
        (c.path, t.tool_id, c.compiler if (t.needs_compiler and c.fmt == "solidity") else None)
        for c, t in intent.tasks()
    )
    if got != want:
        diff = sorted(set(got) ^ set(want))
        return [f"plan.lock tasks differ from intent in {len(diff)} entries, e.g. {diff[:2]}"]
    return []


def task_failures(intent: Intent, root: Path) -> list[str]:
    """One problem per task whose done marker or result.json is missing or wrong."""
    lock = json.loads((root / "plan.lock").read_text(encoding="utf-8"))
    hashes = {c.path: c.sha256 for c in intent.contracts}
    problems = []
    for task in lock["tasks"]:
        out_dir = root / task["output_dir"]
        try:
            parts = (out_dir / "done").read_text(encoding="utf-8").split()
        except OSError:
            problems.append(f"{task['output_dir']}: no done marker")
            continue
        want_class = intent.classes.get(task["tool"])
        if (len(parts) != 4 or parts[0] != "v1" or parts[1] != hashes.get(task["contract"])
                or parts[3] != want_class):
            problems.append(f"{task['output_dir']}: marker {parts} (intent class {want_class})")
        elif not (out_dir / "result.json").is_file():
            problems.append(f"{task['output_dir']}: no result.json")
    return problems


def check_reports(intent: Intent, root: Path) -> list[str]:
    """summary.json totals and per-tool counts, findings.csv rows, report.sarif results."""
    problems = []
    counts = intent.expected_counts()
    summary = json.loads((root / "summary.json").read_text(encoding="utf-8"))
    totals = summary["totals"]
    want_totals = {k: counts[k] for k in ("success", "tool_error", "tool_failure", "oom", "findings")}
    want_totals |= {"timeout": 0, "total": len(intent.tasks())}
    got_totals = {k: totals.get(k) for k in want_totals}
    if got_totals != want_totals:
        problems.append(f"summary totals {got_totals} != intent {want_totals}")
    per_tool = Counter(tool.tool_id for _, tool in intent.tasks())
    for tool in intent.tools:
        n, cls = per_tool[tool.tool_id], intent.classes[tool.tool_id]
        stats = summary["tools"].get(tool.key, {})
        want = (n, n, n * intent.findings[tool.tool_id])
        got = (stats.get("total"), stats.get(cls), stats.get("findings"))
        if n and got != want:
            problems.append(f"summary for {tool.key}: (total, {cls}, findings) {got} != intent {want}")
    with open(root / "findings.csv", newline="", encoding="utf-8") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    if rows != counts["findings"]:
        problems.append(f"findings.csv has {rows} rows, intent {counts['findings']} findings")
    sarif_path = root / "report.sarif"
    if not sarif_path.is_file():
        problems.append("report.sarif missing")
    else:
        sarif = json.loads(sarif_path.read_text(encoding="utf-8"))
        results = sum(len(run["results"]) for run in sarif["runs"])
        if results != counts["findings"]:
            problems.append(f"report.sarif has {results} results, intent {counts['findings']}")
    return problems
