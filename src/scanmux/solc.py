"""Solidity compiler provisioning: pragma inspection, version resolution, cached downloads."""

from __future__ import annotations

import hashlib
import os
import re
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .model import HarnessError
from .paths import replacing

# Oldest compiler the harness provisions; constraints satisfiable only below
# this line are rejected as belonging to an unsupported era.
MIN_SUPPORTED = (0, 4, 11)


class PragmaSyntaxError(HarnessError):
    pass


class NoSatisfyingVersionError(HarnessError):
    pass


class UnsupportedEraError(HarnessError):
    pass


class DownloadFailedError(HarnessError):
    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} (after {attempts} attempt{'s' if attempts != 1 else ''})")
        self.attempts = attempts


class SemVer(NamedTuple):
    major: int
    minor: int
    patch: int

    @classmethod
    def parse(cls, text: str) -> "SemVer":
        m = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", text.strip())
        if not m:
            raise ValueError(f"not a version: {text!r}")
        return cls(int(m.group(1)), int(m.group(2)), int(m.group(3)))

    def __str__(self) -> str:
        return f"{self.major}.{self.minor}.{self.patch}"


_TERM_RE = re.compile(r"(\^|~|>=|<=|>|<|=)?\s*(\d+)\.(\d+)(?:\.(\d+))?")

_EXCLUSIVE_MAX = (10**9, 0, 0)


class Comparator(NamedTuple):
    """One comparator term, e.g. ``^0.4.24`` or ``<0.6.0``.

    ``patch`` is None for a two-component exact term, which matches the whole
    minor series (``=0.4`` behaves like ``>=0.4.0 <0.5.0``).
    """

    op: str
    major: int
    minor: int
    patch: int | None

    def satisfied_by(self, v: SemVer) -> bool:
        lo, hi = self.bounds()
        return lo <= v < hi

    def bounds(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """Half-open interval [lo, hi) of versions this term admits."""
        base = (self.major, self.minor, self.patch or 0)
        if self.op == "=":
            if self.patch is None:
                return base, (self.major, self.minor + 1, 0)
            return base, _bump_patch(base)
        if self.op == ">=":
            return base, _EXCLUSIVE_MAX
        if self.op == ">":
            return _bump_patch(base), _EXCLUSIVE_MAX
        if self.op == "<":
            return (0, 0, 0), base
        if self.op == "<=":
            return (0, 0, 0), _bump_patch(base)
        if self.op == "^":
            if self.major > 0:
                return base, (self.major + 1, 0, 0)
            if self.minor > 0 or self.patch is None:
                return base, (0, self.minor + 1, 0)
            # ^0.0.x admits only that patch level
            return base, _bump_patch(base)
        if self.op == "~":
            return base, (self.major, self.minor + 1, 0)
        raise AssertionError(f"unknown operator {self.op!r}")

    def __str__(self) -> str:
        ver = f"{self.major}.{self.minor}" + ("" if self.patch is None else f".{self.patch}")
        return ver if self.op == "=" else f"{self.op}{ver}"


def _bump_patch(t: tuple[int, int, int]) -> tuple[int, int, int]:
    return (t[0], t[1], t[2] + 1)


class VersionConstraint(NamedTuple):
    """Conjunction of comparator terms over semantic versions."""

    terms: tuple[Comparator, ...]

    @classmethod
    def parse(cls, text: str) -> "VersionConstraint":
        stripped = text.strip()
        if not stripped:
            raise PragmaSyntaxError("empty version constraint")
        terms = []
        pos = 0
        while pos < len(stripped):
            if stripped[pos].isspace():
                pos += 1
                continue
            m = _TERM_RE.match(stripped, pos)
            if not m:
                raise PragmaSyntaxError(f"cannot parse version constraint {text!r} at {stripped[pos:]!r}")
            op, major, minor, patch = m.groups()
            terms.append(
                Comparator(
                    op=op or "=",
                    major=int(major),
                    minor=int(minor),
                    patch=None if patch is None else int(patch),
                )
            )
            pos = m.end()
        return cls(terms=tuple(terms))

    def satisfied_by(self, v: SemVer) -> bool:
        return all(t.satisfied_by(v) for t in self.terms)

    def upper_bound(self) -> tuple[int, int, int]:
        """Exclusive upper bound of the admitted region."""
        return min(t.bounds()[1] for t in self.terms)

    def __str__(self) -> str:
        return " ".join(str(t) for t in self.terms)


_PRAGMA_RE = re.compile(r"pragma\s+solidity\s+([^;]+);")
_LINE_COMMENT_RE = re.compile(r"//[^\n]*")
_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)


def extract_pragma(source_text: str) -> VersionConstraint | None:
    """Constraint of the first ``pragma solidity`` statement, ignoring comments."""
    stripped = _BLOCK_COMMENT_RE.sub(" ", source_text)
    stripped = _LINE_COMMENT_RE.sub(" ", stripped)
    m = _PRAGMA_RE.search(stripped)
    if m is None:
        return None
    return VersionConstraint.parse(m.group(1))


class ReleaseIndex:
    """Ordered list of known compiler releases."""

    def __init__(self, versions: Sequence[SemVer]):
        if list(versions) != sorted(versions):
            raise ValueError("release index must be ascending")
        if len(set(versions)) != len(versions):
            raise ValueError("release index contains duplicates")
        self.versions = tuple(versions)

    @classmethod
    def load(cls, path: str | Path) -> "ReleaseIndex":
        lines = (raw.strip() for raw in Path(path).read_text(encoding="utf-8").splitlines())
        return cls([SemVer.parse(line) for line in lines if line and not line.startswith("#")])


def resolve_version(constraint: VersionConstraint, releases: Sequence[SemVer]) -> SemVer:
    """Highest release satisfying the constraint.

    Raises UnsupportedEraError when the constraint is satisfiable only below
    the oldest provisioned compiler line, NoSatisfyingVersionError otherwise.
    """
    if not releases:
        raise NoSatisfyingVersionError("release list is empty")
    satisfying = [v for v in releases if constraint.satisfied_by(v)]
    supported = [v for v in satisfying if v >= MIN_SUPPORTED]
    if supported:
        return max(supported)
    if satisfying or constraint.upper_bound() <= MIN_SUPPORTED:
        raise UnsupportedEraError(
            f"constraint {constraint} is satisfiable only below "
            f"{'.'.join(map(str, MIN_SUPPORTED))}"
        )
    raise NoSatisfyingVersionError(f"no release satisfies {constraint}")


Fetcher = Callable[[SemVer], bytes]


class MockCompilerFetcher:
    """Deterministic stand-in for a binary distribution channel.

    Produces a placeholder shell stub per version.
    """

    def __init__(self) -> None:
        self.calls: list[SemVer] = []

    @staticmethod
    def payload(version: SemVer) -> bytes:
        return f"#!/bin/sh\n# placeholder compiler {version}\nexit 0\n".encode()

    def __call__(self, version: SemVer) -> bytes:
        self.calls.append(version)
        return self.payload(version)


DEFAULT_SOLC_URL = (
    "https://github.com/ethereum/solidity/releases/download/v{version}/solc-static-linux"
)


class UrlCompilerFetcher:
    """Fetch official static compiler binaries over HTTP(S).

    The URL template is configurable because distribution channels differ by
    platform; the default points at the upstream static Linux builds.
    """

    def __init__(self, url_template: str = DEFAULT_SOLC_URL, timeout: float = 60.0):
        self.url_template = url_template
        self.timeout = timeout

    def __call__(self, version: SemVer) -> bytes:
        import urllib.error
        import urllib.request

        url = self.url_template.format(version=version)
        try:
            with urllib.request.urlopen(url, timeout=self.timeout) as response:
                return response.read()
        except (urllib.error.URLError, OSError) as exc:
            raise DownloadFailedError(f"GET {url} failed: {exc}", 1) from exc


class CompilerCache:
    """Digest-verified store of downloaded compiler binaries.

    Layout: ``<cache_dir>/solc-<version>`` plus an ``index`` file with one
    ``version digest size`` line per entry. A binary is deleted only by
    ``discard``; its index line then stays until the version is stored again.

    ``holds`` reads only the index and the file's size; ``lookup`` hashes the
    file. ``store`` gives each binary mtime 0, so a later write in place moves
    its mtime even on a file system with coarse timestamps.
    """

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self._index: dict[SemVer, tuple[str, int]] = {}
        self._load_index()

    @property
    def index_path(self) -> Path:
        return self.cache_dir / "index"

    def path_for(self, version: SemVer | str) -> Path:
        return self.cache_dir / f"solc-{version}"

    def _load_index(self) -> None:
        try:
            data = self.index_path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):  # no index yet; storing there reports a bad cache dir
            return
        except OSError as exc:
            raise HarnessError(
                f"{self.index_path}: compiler cache index cannot be read: {exc.strerror or exc}"
            ) from None
        for raw in data.splitlines():
            try:
                line = raw.decode("utf-8").strip()
                if not line or line.startswith("#"):
                    continue
                version_s, digest, size_s = line.split()
                self._index[SemVer.parse(version_s)] = (digest, int(size_s))
            except ValueError:  # a torn, undecodable or hand-edited line: that version is fetched again
                continue

    def known_versions(self) -> tuple[SemVer, ...]:
        return tuple(sorted(self._index))

    def holds(self, version: SemVer) -> bool:
        """Whether the index lists ``version`` and its file has the recorded size; hashes nothing."""
        entry = self._index.get(version)
        if entry is None:
            return False
        try:
            return os.stat(self.path_for(version)).st_size == entry[1]
        except OSError:
            return False

    def discard(self, version: SemVer) -> None:
        """Delete a cached binary, so that the next ``ensure_compiler`` fetches it again."""
        self.path_for(version).unlink(missing_ok=True)

    def lookup(self, version: SemVer) -> Path | None:
        """Path of a cached binary whose bytes match the index digest, or None; hashes it."""
        entry = self._index.get(version)
        if entry is None:
            return None
        path = self.path_for(version)
        try:
            with open(path, "rb") as f:
                if hashlib.file_digest(f, "sha256").hexdigest() != entry[0]:
                    return None
        except OSError:
            return None
        return path

    def store(self, version: SemVer, data: bytes) -> Path:
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self.path_for(version)
        with replacing(path, 0o755) as f:
            f.write(data)
            f.flush()
            os.utime(f.fileno(), ns=(0, 0))  # the rename keeps it; a later write in place moves it
        digest = hashlib.sha256(data).hexdigest()
        self._index[version] = (digest, len(data))
        lines = [f"{v} {d} {s}" for v, (d, s) in sorted(self._index.items())]
        with replacing(self.index_path, 0o644) as f:
            f.write(("\n".join(lines) + "\n").encode())
        return path


FETCH_ATTEMPTS = 3  # per compiler version, before planning reports it as failed


def ensure_compiler(version: SemVer, cache: CompilerCache, fetcher: Fetcher) -> Path:
    """Idempotently provision one compiler binary into the cache.

    A second call for the same version performs no fetch. A cached binary is
    taken on its index entry and size, unhashed: a run hashes it once with
    ``CompilerCache.lookup`` and stages it while its stat stamp is unchanged.
    """
    if cache.holds(version):
        return cache.path_for(version)
    last_error: Exception | None = None
    for _ in range(FETCH_ATTEMPTS):
        try:
            data = fetcher(version)
        except Exception as exc:  # fetcher failures are retried
            last_error = exc
            continue
        try:
            return cache.store(version, data)
        except (OSError, HarnessError) as exc:  # replacing names the file in a HarnessError
            raise HarnessError(f"compiler {version}: cannot store it in {cache.cache_dir}: {exc}") from exc
    raise DownloadFailedError(f"could not fetch compiler {version}: {last_error}", FETCH_ATTEMPTS)


def prefetch_compilers(versions: Iterable[SemVer], cache: CompilerCache, fetcher: Fetcher) -> list[HarnessError]:
    """Ensure every distinct version once; returns collected errors instead of raising."""
    errors: list[HarnessError] = []
    for version in sorted(set(versions)):
        try:
            ensure_compiler(version, cache, fetcher)
        except HarnessError as exc:
            errors.append(exc)
    return errors
