"""The generator is a pure function of (workload, seed)."""

import json
from pathlib import Path

import metrics
import workload as wl

ROOT = Path(__file__).resolve().parents[2]
REGISTRY = ROOT / "src" / "scanmux" / "data" / "registry"
SMALL = wl.Spec(sol=6, hex=2, rt=2, tools=None, no_pragma=1)


def files_under(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    a = wl.generate("matrix", 5, tmp_path / "a", REGISTRY, SMALL)
    b = wl.generate("matrix", 5, tmp_path / "b", REGISTRY, SMALL)
    c = wl.generate("matrix", 6, tmp_path / "c", REGISTRY, SMALL)
    assert files_under(tmp_path / "a") == files_under(tmp_path / "b")
    assert a == b
    assert files_under(tmp_path / "a") != files_under(tmp_path / "c")
    assert len(a.tasks()) == len(c.tasks()) and a.skips == c.skips


def test_fixtures_cover_every_bundled_image(tmp_path):
    import yaml

    wl.generate("findings", 1, tmp_path, REGISTRY)
    fixtures = yaml.safe_load((tmp_path / "fixtures.yaml").read_text())
    assert set(fixtures) == {t.image for t in wl.load_tools(REGISTRY).values()}


def test_benchmark_json_lists_the_declared_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in metrics.BOUNDED
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]
    assert {w["name"] for w in doc["workloads"]} <= set(wl.WORKLOADS)
