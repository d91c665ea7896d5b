"""A task's folder below the results root: the names of its members, and every read and write below it.

A shared results tree may hold symlinks to anywhere on the host, so nothing is
read or written through one: ``folder`` refuses a folder that a link leads to,
the other calls a name below it that passes through one, and the file itself is
opened with ``O_NOFOLLOW``. Each part is checked with ``lstat``, then used by path.
"""

from __future__ import annotations

import os
import shutil
import stat

from .model import HarnessError

DONE = "done"
META = "meta.json"
RESULT = "result.json"
RAW = "raw"
STDOUT = "stdout"  # in raw/, as meta.json's result_files names them
STDERR = "stderr"


def _link_in(base: str | os.PathLike, rel: str) -> str | None:
    """The first path from ``base`` along ``rel``'s components that is a symlink, or None."""
    path = base
    for part in rel.split("/"):
        if os.path.islink(path := os.path.join(path, part)):
            return path
    return None


def folder(root: str | os.PathLike, output_dir: str) -> str:
    """The path of task folder ``output_dir`` below ``root``; a HarnessError when a symlink leads to it."""
    if (link := _link_in(root, output_dir)) is not None:
        raise HarnessError(f"{link} is a symlink; nothing is read or written through it")
    return os.path.join(root, output_dir)


def _below(folder: str | os.PathLike, name: str) -> str:
    """The path of ``name`` below ``folder``; ValueError for a name with an empty or ``..`` part or a link."""
    parts = name.split("/")
    if "" in parts or ".." in parts:
        raise ValueError(f"{name!r}: not a name below {folder}")
    head = name.rpartition("/")[0]
    if head and (link := _link_in(folder, head)) is not None:
        raise ValueError(f"{link}: is a symlink")
    return os.path.join(folder, name)


def read(folder: str | os.PathLike, name: str) -> bytes:
    """The bytes of ``name`` below ``folder``; OSError when it is missing, unreadable or a symlink."""
    with open(os.open(_below(folder, name), os.O_RDONLY | os.O_NOFOLLOW), "rb") as fh:
        return fh.read()


def write(folder: str | os.PathLike, name: str, data: bytes) -> None:
    """Write ``name`` below ``folder``, making the directories it lacks; an OSError becomes a HarnessError."""
    path = _below(folder, name)
    try:
        if "/" in name:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        if os.path.islink(path):  # replaced by the file, never written through
            os.unlink(path)
        with open(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW, 0o666), "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise HarnessError(f"{path}: cannot be written: {exc.strerror or exc}") from None


def remove(folder: str | os.PathLike, name: str) -> None:
    """Remove ``name`` below ``folder``, if there, without following it; an OSError becomes a HarnessError."""
    path = _below(folder, name)
    try:
        if stat.S_ISDIR(os.lstat(path).st_mode):
            shutil.rmtree(path)
        else:  # a symlink is unlinked, never followed
            os.unlink(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise HarnessError(f"{path}: cannot be removed: {exc.strerror or exc}") from None
