"""Bundled data locations, atomic file replacement, and the YAML and JSON codecs."""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import GeneratorType

import yaml

from .model import HarnessError


def data_dir() -> Path:
    return Path(__file__).parent / "data"


def bundled_registry() -> Path:
    return data_dir() / "registry"


def bundled_taxonomy() -> Path:
    return data_dir() / "taxonomy.yaml"


def bundled_release_index() -> Path:
    return data_dir() / "solc-releases.txt"


def sarif_schema_path() -> Path:
    return data_dir() / "sarif-2.1.0-subset.schema.json"


@contextlib.contextmanager
def replacing(path: Path, mode: int, **text):
    """Yield a temp file beside ``path`` that replaces it once the block ends.

    The file is binary, or text opened with ``text`` (``encoding`` and the
    like). On an exception the temp file is removed and ``path`` is left as
    it was; a crash leaves the old file and a ``.<name>.*`` temp sibling. An
    OSError, the block's writes included, becomes a HarnessError naming ``path``.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "w" if text else "wb", **text) as f:
                yield f
                os.fchmod(f.fileno(), mode)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise HarnessError(f"{path}: cannot be written: {exc.strerror or exc}") from None


def load_yaml(text: str):
    """``yaml.safe_load(text)``, parsed by libyaml when PyYAML was built with it."""
    return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def dump_json(doc) -> str:
    """Exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` for a document with str keys.

    With ``indent`` set the stdlib encodes through a chain of Python
    generators; this builds one list of chunks and escapes strings in C.
    A generator encodes as the list of its items, and a callable as what it
    returns when the encoder reaches it, where the stdlib raises.
    """
    out: list[str] = []
    _encode(doc, "\n", out, None)
    out.append("\n")
    return "".join(out)


def write_json(path: Path, doc) -> None:
    """Replace ``path`` atomically by ``dump_json(doc)``'s bytes, mode 0o644.

    The document is encoded into the temp file in chunks of at most about
    ``_FLUSH_CHUNKS`` strings, so its text is never held whole; a generator
    or callable in it is consumed while the file is written.
    """
    with replacing(path, 0o644) as f:
        _stream_json(doc, f.write)


def json_digest(doc) -> str:
    """SHA-256 hex digest of ``dump_json(doc)``'s bytes, encoded in chunks as ``write_json`` writes them."""
    digest = hashlib.sha256()
    _stream_json(doc, digest.update)
    return digest.hexdigest()


def _stream_json(doc, write) -> None:
    out: list[str] = []

    def flush() -> None:
        write("".join(out).encode())
        out.clear()

    _encode(doc, "\n", out, flush)
    out.append("\n")
    flush()


# Encoded strings held before write_json hands them to the file (~100 KiB of JSON).
_FLUSH_CHUNKS = 4096
_INFINITY = float("inf")


def _encode(value, newline: str, out: list[str], flush) -> None:
    # The type tests run in the stdlib encoder's order, so subclasses encode alike.
    # ``flush`` (or None) empties ``out`` into a file; it runs between elements.
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
    elif isinstance(value, (list, tuple, GeneratorType)):
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _encode(item, inner, out, flush)
            separator = "," + inner
            if flush is not None and len(out) >= _FLUSH_CHUNKS:
                flush()
        out.append(newline + "]" if separator[0] == "," else "[]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):  # a key that is not str raises TypeError
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _encode(value[key], inner, out, flush)
            separator = "," + inner
            if flush is not None and len(out) >= _FLUSH_CHUNKS:
                flush()
        out.append(newline + "}")
    elif callable(value):
        _encode(value(), newline, out, flush)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
