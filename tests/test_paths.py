"""The YAML and JSON codecs every config load and result write goes through."""

from __future__ import annotations

import enum
import hashlib
import json
import math
from decimal import Decimal

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from scanmux import paths
from scanmux.paths import bundled_registry, bundled_taxonomy, dump_json, json_digest, load_yaml, write_json


def stdlib(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class Flag(enum.IntEnum):
    ON = 7


class Ratio(float):
    def __repr__(self):
        return "Ratio()"


class Label(str):
    pass


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**30, max_value=10**60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e300, -1e-300, 5e-324, math.nan, math.inf, -math.inf]),
    st.text(),  # non-ASCII and control characters; a lone surrogate below
    st.sampled_from(["\x00\x1f\x7f", "é", " ", "\ud800", '"\\/', "\U0001f600"]),
    st.sampled_from([Flag.ON, Label("sub"), Ratio(0.5), True, False]),
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=24,
)


class TestDumpJson:
    @given(doc=DOCUMENTS)
    def test_matches_the_stdlib_encoding(self, doc):
        assert dump_json(doc) == stdlib(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], (), "", 0, None, {"a": {}, "b": [], "c": [[]]}, [{}, [{}]],
        {"b": 1, "a": [1, 2.5, "x", None, True]},
    ])
    def test_empty_and_nested_containers(self, doc):
        assert dump_json(doc) == stdlib(doc)

    @pytest.mark.parametrize("value", [{1, 2}, b"bytes", Decimal("1.5"), object(), 1j])
    def test_unsupported_type_raises(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            dump_json({"key": [value]})

    @pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2)])
    def test_non_str_key_raises(self, key):
        with pytest.raises(TypeError):
            dump_json({"nested": {key: 1}})


class TestWriteJson:
    @given(doc=DOCUMENTS, bound=st.integers(1, 3))
    def test_streamed_bytes_equal_dump_json(self, tmp_path_factory, doc, bound):
        path = tmp_path_factory.getbasetemp() / "streamed.json"
        with pytest.MonkeyPatch.context() as patch:  # flushes fall inside nested lists and dicts
            patch.setattr(paths, "_FLUSH_CHUNKS", bound)
            write_json(path, doc)
        assert path.read_bytes() == dump_json(doc).encode()
        assert path.stat().st_mode & 0o777 == 0o644

    @pytest.mark.parametrize("items", [[], [1, {"b": [2]}]], ids=["empty", "nested"])
    def test_generator_is_written_as_its_list(self, tmp_path, monkeypatch, items):
        monkeypatch.setattr(paths, "_FLUSH_CHUNKS", 1)
        write_json(tmp_path / "doc.json", {"a": (item for item in items), "z": 0})
        assert (tmp_path / "doc.json").read_text() == stdlib({"a": items, "z": 0})
        assert dump_json([(item for item in items)]) == stdlib([items])

    def test_callable_is_written_as_what_it_returns_when_reached(self, tmp_path, monkeypatch):
        monkeypatch.setattr(paths, "_FLUSH_CHUNKS", 1)
        seen = []
        doc = {"a": (seen.append(i) or i for i in range(3)), "b": lambda: {"seen": list(seen)}}  # "a" sorts first
        write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_text() == stdlib({"a": [0, 1, 2], "b": {"seen": [0, 1, 2]}})
        assert dump_json([lambda: [lambda: None]]) == stdlib([[None]])

    @given(doc=DOCUMENTS, bound=st.integers(1, 3))
    def test_digest_is_of_the_written_bytes(self, doc, bound):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(paths, "_FLUSH_CHUNKS", bound)
            digest = json_digest(doc)
        assert digest == hashlib.sha256(dump_json(doc).encode()).hexdigest()

    def test_type_error_deep_in_the_document_keeps_the_previous_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(paths, "_FLUSH_CHUNKS", 1)  # much of the document reaches the temp file first
        path = tmp_path / "doc.json"
        path.write_bytes(b"previous\n")
        doc = {"a": list(range(50)), "b": [{"c": [1, 2, {"d": object()}]}]}
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write_json(path, doc)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def bundled_yaml_files():
    return [*sorted(bundled_registry().glob("*/*.yaml")), bundled_taxonomy()]


class TestLoadYaml:
    @pytest.mark.parametrize("path", bundled_yaml_files(), ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_bundled_files_load_as_with_the_python_loader(self, path):
        text = path.read_text(encoding="utf-8")
        assert load_yaml(text) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_bundled_file_count(self):
        assert len(bundled_yaml_files()) == 39  # 19 tools x config + parser, and the taxonomy

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_uses_libyaml_when_built_in(self, monkeypatch):
        monkeypatch.setattr(yaml, "SafeLoader", None)
        assert load_yaml("a: [1, 2]\n") == {"a": [1, 2]}

    def test_falls_back_without_libyaml(self, monkeypatch):
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert load_yaml("a: [1, 2]\nb: {c: null}\n") == {"a": [1, 2], "b": {"c": None}}

    @pytest.mark.parametrize("text", ["!!python/object:os.system {}\n", "a: !!python/name:os.system\n"])
    def test_refuses_python_tags(self, text):
        with pytest.raises(yaml.YAMLError):
            load_yaml(text)
