"""Bundled data locations, atomic file replacement, and the YAML and JSON codecs."""

from __future__ import annotations

import contextlib
import os
import tempfile
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path

import yaml


def data_dir() -> Path:
    return Path(str(resources.files("scanmux") / "data"))


def bundled_registry() -> Path:
    return data_dir() / "registry"


def bundled_taxonomy() -> Path:
    return data_dir() / "taxonomy.yaml"


def bundled_release_index() -> Path:
    return data_dir() / "solc-releases.txt"


def sarif_schema_path() -> Path:
    return data_dir() / "sarif-2.1.0-subset.schema.json"


def write_atomically(path: Path, data: bytes, mode: int) -> None:
    """Replace ``path`` by a complete new file, so a crash leaves the old or the new one."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            os.fchmod(f.fileno(), mode)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_yaml(text: str):
    """``yaml.safe_load(text)``, parsed by libyaml when PyYAML was built with it."""
    return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def dump_json(doc) -> str:
    """Exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` for a document with str keys.

    With ``indent`` set the stdlib encodes through a chain of Python
    generators; this builds one list of chunks and escapes strings in C.
    """
    out: list[str] = []
    _encode(doc, "\n", out)
    out.append("\n")
    return "".join(out)


_INFINITY = float("inf")


def _encode(value, newline: str, out: list[str]) -> None:
    # The type tests run in the stdlib encoder's order, so subclasses encode alike.
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            out.append("NaN")
        elif value == _INFINITY:
            out.append("Infinity")
        elif value == -_INFINITY:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _encode(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):  # a key that is not str raises TypeError
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _encode(value[key], inner, out)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
