"""Run the benchmark over many seeds and write a BENCH_*.json record.

Usage (from the root of a scanmux checkout):

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BENCH_<commit>.json

For every workload of BENCHMARK.json it makes one ``run.py --trace 0`` run per seed and one
``--trace 1`` run on the first seed. The record holds, per workload and
end-to-end metric, every run's value, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (interquartile range
/ median), plus the per-layer medians of the traced run and the metric
table of metrics.py (unit, direction, layer, what it should move, where).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """(result JSON, report lines printed before it) of one run.py run."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, check=True)
    *report, last = out.stdout.strip().splitlines()
    return json.loads(last), report


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    seeds = parse_seeds(args.seeds)

    record = {
        "benchmark": config["command"],
        "run_seconds": seconds,
        "seeds": seeds,
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": len(os.sched_getaffinity(0))},
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
        "metric_table": {
            "end_to_end": [m.__dict__ for m in metrics.END_TO_END],
            "per_layer": [m.__dict__ | {"layer": m.layer} for m in metrics.PER_LAYER],
        },
    }
    for name in [w["name"] for w in config["workloads"]]:
        runs = []
        for seed in seeds:
            result, _ = bench(name, seed, seconds, 0)
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m.name: summarize([r["metrics"][m.name]["value"] for r in runs])
                           | {"unit": m.unit, "bound": m.bound} for m in metrics.BOUNDED},
        }
        for m in metrics.BOUNDED:
            s = entry["end_to_end"][m.name]
            print(f"  {m.name:<18} median {s['median']:.4g} {m.unit}  spread {s['spread']:.3f} "
                  f"(bound {m.bound})", flush=True)
        traced, report = bench(name, seeds[0], seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["trace_report"] = report
        record["workloads"][name] = entry
    record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
