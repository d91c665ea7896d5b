"""The benchmark's timing shims (perfbench/tracing.py) still find and time every function they name."""

from __future__ import annotations

import json
from pathlib import Path

from scanmux.paths import bundled_registry

from helpers import run_python, write_corpus
from test_cli import run_argv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Installs the shims, runs `run --sarif` and then `reparse` in this process,
# and prints every target's span name beside the names that recorded a span.
TRACED_COMMANDS = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
import scanmux.cli as cli

tracer = tracing.Tracer()
tracing.install(tracer)
run_argv, results = sys.argv[3:], sys.argv[2]
codes = [cli.main(run_argv), cli.main(["reparse", results, "--sarif"])]
names = [module.rsplit(".", 1)[1] + "." + attr for module, attr, _, _ in tracing.TARGETS]
print(json.dumps({"codes": codes, "targets": names, "recorded": sorted({s.name for s in tracer.spans})}))
"""


def test_every_target_records_a_span(tmp_path):
    corpus = write_corpus(tmp_path / "contracts", n_sol=1, n_creation=0, n_runtime=1)
    results = tmp_path / "results"
    # securify harvests output/*.json (copy_out) and needs a compiler (CompilerCache.lookup)
    argv = run_argv(corpus, bundled_registry(), results, tmp_path / "cc", "--tools", "securify", "--sarif")
    proc = run_python(TRACED_COMMANDS, str(PERFBENCH), str(results), *argv)
    assert proc.returncode == 0, proc.stderr  # install raises for a target it cannot resolve
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["targets"]
    assert sorted(set(report["targets"]) - set(report["recorded"])) == []
