"""scanmux benchmark: end-to-end and per-layer metrics on seeded mock-backend workloads.

Usage (from the root of a scanmux checkout):

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 20 --trace 0

One cycle is: a first ``scanmux run --sarif`` on a fresh results root, the
same command again on the completed root (a no-op resume), then
``scanmux reparse ROOT --sarif``. Each is a separate process running the
checkout's ``src/scanmux`` on the mock backend with ``--processes 2``.
Cycles repeat until ``--seconds`` are used up; every metric is the median
over cycles. Every cycle passes through the correctness gate (gate.py).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced cycle with a traced one (timing shims from tracing.py), prints the
per-layer metrics of the traced cycles, the tracing overhead and where the
time goes by layer. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

All files live in ``.perfbench_work/`` at the checkout root: corpus,
fixtures, compiler cache, results and ``TMPDIR`` (where scanmux creates its
task volumes), so they share one filesystem, which is reported. Trees are
deleted outside the timed phases.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import selectors
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gate
import workload as wl
from metrics import (BOUNDED, END_TO_END, FAILED_SHARE, MIB, PER_LAYER, SAMPLE_COUNTS, PhaseSpans,
                     layer_breakdown, median, per_layer)
from tracing import load_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PROCESSES = 2
PEAK_RSS_RE = re.compile(r"^perfbench: peak rss (\d+) KiB$")
CHILD_TIMEOUT_S = 120.0
HARD_STOP_S = 140.0  # stop starting cycles after this, to exit well within 180 s


@dataclass
class Proc:
    rc: int
    wall: float
    stdout: list[tuple[float, str]]  # (seconds since launch, line)
    stderr: list[tuple[float, str]]

    @property
    def peak_rss_kib(self) -> int | None:
        """The child's own high-water RSS, as child.py reports it last."""
        m = PEAK_RSS_RE.match(self.stderr[-1][1]) if self.stderr else None
        return int(m.group(1)) if m else None

    def out_lines(self) -> list[str]:
        return [line for _, line in self.stdout]


def run_child(argv: list[str], cwd: Path, env: dict) -> Proc:
    """Run one process, timestamping each output line as it arrives."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    lines: dict[int, list[tuple[float, str]]] = {out_fd: [], err_fd: []}
    partial = {fd: b"" for fd in lines}
    sel = selectors.DefaultSelector()
    try:
        for fd in lines:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = t0 + CHILD_TIMEOUT_S - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(f"{argv[2:4]} ran longer than {CHILD_TIMEOUT_S} s")
            for key, _ in sel.select(remaining):
                chunk = os.read(key.fd, 1 << 16)
                now = time.perf_counter() - t0
                if not chunk:
                    sel.unregister(key.fd)
                    continue
                *complete, partial[key.fd] = (partial[key.fd] + chunk).split(b"\n")
                lines[key.fd] += [(now, c.decode(errors="replace")) for c in complete]
        proc.wait()
        wall = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        sel.close()
        proc.stdout.close()
        proc.stderr.close()
    return Proc(proc.returncode, wall, lines[out_fd], lines[err_fd])


@dataclass
class Cycle:
    traced: bool
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    phases: dict = field(default_factory=dict)  # traced only: phase -> PhaseSpans
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: dict[str, str] | None = None


class Bench:
    """Runs cycles of one generated workload in ``work``."""

    def __init__(self, work: Path, intent: wl.Intent):
        self.work = work
        self.intent = intent
        self.reference_digest: dict[str, str] | None = None  # the first cycle's tree
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
        )
        self.env["TMPDIR"] = str(work / "tmp")
        self.cycles = 0

    def run_args(self, results: str) -> list[str]:
        return [
            "run", "-f", "corpus/*", "-t", ",".join(self.intent.tool_args),
            "--backend", "mock", "--processes", str(PROCESSES), "--seed", str(self.intent.seed),
            "--results", results + "/{runid}/{filename}/{toolid}", "--sarif",
            "--compiler-cache", "cache", "--mock-fixtures", "fixtures.yaml",
        ]

    def child(self, args: list[str], spans: Path | None = None) -> Proc:
        argv = [sys.executable, str(HERE / "child.py")]
        if spans is not None:
            argv += ["--spans", str(spans)]
        return run_child(argv + args, self.work, self.env)

    def warm_up(self) -> None:
        proc = self.child(["tools"])
        if proc.rc != 0:
            raise RuntimeError("`scanmux tools` failed: " + " | ".join(l for _, l in proc.stderr))

    def cycle(self, traced: bool) -> Cycle:
        # Every cycle gets a fresh results root; trees are deleted only when
        # the benchmark ends, so no deletion competes with a timed phase.
        c = Cycle(traced)
        self.cycles += 1
        results = f"results/{self.cycles}"
        root = self.work / results
        spans = {p: self.work / f"spans-{self.cycles}-{p}.jsonl" for p in ("run", "resume", "reparse")}
        n_tasks = len(self.intent.tasks())

        def phase(name: str, problems: list[str]) -> None:
            c.attempted += 1
            if problems:
                c.failed += 1
                c.problems += [f"{name}: {p}" for p in problems]

        # first run
        first = self.child(self.run_args(results), spans["run"] if traced else None)
        out = first.out_lines()
        problems = [] if first.rc == 0 else [f"exit code {first.rc}: "
                                             + " | ".join(l for _, l in first.stderr[-3:])]
        planned_at = next((t for t, l in first.stdout if gate.PLANNED_RE.match(l)), None)
        last_progress = f"[{n_tasks}/{n_tasks}] tasks finished"
        done_at = next((t for t, l in first.stderr if last_progress in l), None)
        problems += gate.check_planned(self.intent, out) + gate.check_tally(self.intent, out, False)
        digest = {}
        if (root / "plan.lock").is_file():
            problems += gate.check_plan_lock(self.intent, root)
            failures = gate.task_failures(self.intent, root)
            c.attempted += n_tasks
            c.failed += len(failures)
            c.problems += failures[:5]
            try:
                problems += gate.check_reports(self.intent, root)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"reports unreadable: {exc!r}")
            digest, allocated = gate.scan_tree(root)
            c.e2e["results_mib"] = allocated / MIB
        else:
            c.attempted += n_tasks
            c.failed += n_tasks
            problems.append("no plan.lock")
        if self.reference_digest is None:
            self.reference_digest = digest
        problems += gate.compare_digests(self.reference_digest, digest, "tree vs first cycle")
        phase("run", problems)
        c.digest = digest
        if planned_at is not None and done_at is not None and done_at > planned_at:
            c.e2e["setup_s"] = planned_at
            c.e2e["exec_tasks_per_s"] = n_tasks / (done_at - planned_at)
        c.e2e["run_s"] = first.wall
        if first.peak_rss_kib is not None:
            c.e2e["peak_rss_mib"] = first.peak_rss_kib / 1024.0

        # no-op resume
        resume = self.child(self.run_args(results), spans["resume"] if traced else None)
        problems = [] if resume.rc == 0 else [f"exit code {resume.rc}"]
        problems += gate.check_tally(self.intent, resume.out_lines(), True)
        problems += gate.compare_digests(digest, gate.scan_tree(root)[0], "tree after resume")
        phase("resume", problems)
        c.e2e["resume_s"] = resume.wall

        # reparse
        reparse = self.child(["reparse", results, "--sarif"], spans["reparse"] if traced else None)
        problems = [] if reparse.rc == 0 else [f"exit code {reparse.rc}"]
        problems += gate.check_reparsed(self.intent, reparse.out_lines())
        problems += gate.compare_digests(digest, gate.scan_tree(root)[0], "tree after reparse")
        phase("reparse", problems)
        c.e2e["reparse_s"] = reparse.wall

        if traced and digest:
            walls = {"run": first.wall, "resume": resume.wall, "reparse": reparse.wall}
            c.phases = {p: PhaseSpans(load_spans(spans[p]), walls[p]) for p in spans}
            sarif = root / "report.sarif"
            c.layers = per_layer(
                c.phases,
                (root / "plan.lock").stat().st_size,
                sarif.stat().st_size if sarif.exists() else 0,
            )
        return c


def filesystem_of(path: Path) -> str:
    """'<fstype> <source> mounted at <mount point>' for the filesystem holding ``path``."""
    dev = os.stat(path).st_dev
    want = f"{os.major(dev)}:{os.minor(dev)}"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if fields[2] == want:
                    sep = fields.index("-")
                    return f"{fields[sep + 1]} {fields[sep + 2]} mounted at {fields[4]}"
    except OSError:
        pass
    return f"device {want}"


def fsync_tree(root: Path) -> None:
    """Write files under ``root`` back now, so their writeback does not land in a timed phase."""
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            fsync_path(os.path.join(dirpath, name))
    fsync_path(root)


def fsync_path(path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def remove_work(work: Path) -> None:
    """Delete the work directory and commit the deletion before going on.

    On a filesystem mounted with online discard, freed blocks are trimmed
    when the journal commits; forcing that commit here keeps it out of the
    next timed phase, in this process or the next one.
    """
    if work.exists():
        shutil.rmtree(work)
        fsync_path(work.parent)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    process_start = time.perf_counter()
    # A terminated benchmark still stops its scanmux process and deletes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "scanmux" / "cli.py").is_file():
        print(f"error: no scanmux sources at {SRC}; run from a scanmux checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scanmux

    if Path(scanmux.__file__).resolve().parent != (SRC / "scanmux").resolve():
        print(f"error: imported scanmux from {scanmux.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work"
    remove_work(work)
    (work / "tmp").mkdir(parents=True)
    cycles: list[Cycle] = []
    try:
        t = time.perf_counter()
        intent = wl.generate(args.workload, args.seed, work, SRC / "scanmux" / "data" / "registry")
        fsync_tree(work)
        counts = intent.expected_counts()
        forms = dict(Counter(c.fmt for c in intent.contracts))
        print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print(f"inputs: {len(intent.contracts)} contracts {forms}, {len(intent.tools)} tools, "
              f"{len(intent.tasks())} tasks, {intent.skips} skips, intent {counts}, "
              f"generated in {time.perf_counter() - t:.2f} s")
        print(f"filesystem of results root, compiler cache and TMPDIR: {work.relative_to(ROOT)} "
              f"on {filesystem_of(work)}")

        bench = Bench(work, intent)
        bench.warm_up()
        deadline = time.perf_counter() + args.seconds
        pattern = (False, True) if args.trace else (False,)
        min_rounds = 2 if args.trace else 3
        rounds = 0
        longest = 0.0
        while True:
            round_start = time.perf_counter()
            for traced in pattern:
                c = bench.cycle(traced)
                cycles.append(c)
                print(f"cycle {len(cycles)}{' traced' if traced else ''}: "
                      + ", ".join(f"{k} {fmt(v)}" for k, v in sorted(c.e2e.items()))
                      + f"; {c.failed} of {c.attempted} operations failed")
                for p in c.problems[:10]:
                    print(f"  problem: {p}", file=sys.stderr)
            rounds += 1
            longest = max(longest, time.perf_counter() - round_start)
            now = time.perf_counter()
            if now - process_start + longest > HARD_STOP_S:
                break
            if rounds >= min_rounds and now + longest > deadline:
                break
    finally:
        remove_work(work)

    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    plain = [c for c in cycles if not c.traced]
    traced = [c for c in cycles if c.traced]

    def med(cs, key, source="e2e"):
        return median([getattr(c, source)[key] for c in cs if key in getattr(c, source)])

    e2e = {m.name: med(plain, m.name) for m in END_TO_END}
    complete = all(all(m.name in c.e2e for m in END_TO_END) for c in plain)
    correct = failed == 0 and complete and attempted > 0
    print(f"end-to-end (median of {len(plain)} untraced cycles):")
    for m in END_TO_END:
        note = "" if m.bound is not None else "  (printed only)"
        print(f"  {m.name:<18} {fmt(e2e[m.name]):>12} {m.unit}{note}")
    share = failed / attempted if attempted else 1.0
    print(f"  {FAILED_SHARE[0]:<18} {fmt(share):>12} {FAILED_SHARE[1]}"
          f"  ({failed} of {attempted} operations)")

    if args.trace:
        layers = {m.name: med(traced, m.name, "layers") for m in PER_LAYER}
        print(f"per-layer (median of {len(traced)} traced cycles; sums over run, resume and reparse):")
        for m in PER_LAYER:
            n = f"  (n={fmt(layers[SAMPLE_COUNTS[m.name]])})" if m.name in SAMPLE_COUNTS else ""
            print(f"  {m.name:<30} {fmt(layers[m.name]):>12} {m.unit}{n}")
        print("tracing overhead (median traced - median untraced):")
        for key in ("setup_s", "run_s", "resume_s", "reparse_s"):
            a, b = med(plain, key), med(traced, key)
            print(f"  {key:<10} {b - a:+.4f} s ({(b - a) / a * 100 if a else 0:+.1f}%)")
        last = next(c for c in reversed(traced) if c.phases)
        views = (("run_task time, first run", "run", "runner.TaskExecutor.run_task"),
                 ("resume process", "resume", None), ("reparse process", "reparse", None))
        print("self time by layer, last traced cycle:")
        for title, phase, within in views:
            parts = layer_breakdown(last.phases[phase], within)
            total = sum(parts.values()) or 1.0
            print(f"  {title}: " + ", ".join(
                f"{layer} {v / total * 100:.1f}%" for layer, v in
                sorted(parts.items(), key=lambda kv: -kv[1])))
        digests_equal = all(c.digest == bench.reference_digest for c in cycles)
        print(f"traced and untraced result trees identical: {digests_equal}")
        metrics = {m.name: {"value": layers[m.name], "unit": m.unit} for m in PER_LAYER}
    else:
        metrics = {m.name: {"value": e2e[m.name], "unit": m.unit} for m in BOUNDED}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
