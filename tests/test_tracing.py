"""The benchmark's timing shims (perfbench/tracing.py) still find and time every function they name."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from scanmux.paths import bundled_registry

from helpers import run_python, write_corpus
from test_cli import run_argv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Installs the shims, runs `run --sarif` and then `reparse --registry <edited copy>` in this process,
# and prints every target's span name beside the names that recorded a span.
TRACED_COMMANDS = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
import scanmux.cli as cli

tracer = tracing.Tracer()
tracing.install(tracer)
results, edited, run_argv = sys.argv[2], sys.argv[3], sys.argv[4:]
codes = [cli.main(run_argv), cli.main(["reparse", results, "--sarif", "--registry", edited])]
names = [module.rsplit(".", 1)[1] + "." + attr for module, attr, _, _ in tracing.TARGETS]
print(json.dumps({"codes": codes, "targets": names, "recorded": sorted({s.name for s in tracer.spans})}))
"""


def test_every_target_records_a_span(tmp_path):
    corpus = write_corpus(tmp_path / "contracts", n_sol=1, n_creation=0, n_runtime=1)
    results = tmp_path / "results"
    # securify harvests output/*.json (copy_out) and needs a compiler (CompilerCache.lookup)
    argv = run_argv(corpus, bundled_registry(), results, tmp_path / "cc", "--tools", "securify", "--sarif")
    edited = tmp_path / "registry"  # securify's parser changed, so reparse reads stored output (read_meta, read_raw)
    shutil.copytree(bundled_registry(), edited)
    parser = edited / "securify" / "parser.yaml"
    parser.write_text(parser.read_text() + "      - '^FATAL:'\n")
    proc = run_python(TRACED_COMMANDS, str(PERFBENCH), str(results), str(edited), *argv)
    assert proc.returncode == 0, proc.stderr  # install raises for a target it cannot resolve
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["targets"]
    assert sorted(set(report["targets"]) - set(report["recorded"])) == []
