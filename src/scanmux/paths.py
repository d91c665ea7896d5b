"""Locations of the data files bundled with the package, and atomic file replacement."""

from __future__ import annotations

import contextlib
import os
import tempfile
from importlib import resources
from pathlib import Path


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
