"""Compiler provisioning: pragma parsing, version resolution, cached fetches."""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanmux.model import HarnessError
from scanmux.solc import (
    MIN_SUPPORTED,
    CompilerCache,
    DownloadFailedError,
    MockCompilerFetcher,
    NoSatisfyingVersionError,
    PragmaSyntaxError,
    ReleaseIndex,
    SemVer,
    UnsupportedEraError,
    UrlCompilerFetcher,
    VersionConstraint,
    ensure_compiler,
    extract_pragma,
    prefetch_compilers,
    resolve_version,
)

versions = st.builds(
    SemVer,
    major=st.integers(0, 2),
    minor=st.integers(0, 12),
    patch=st.integers(0, 30),
)


@given(versions)
def test_semver_roundtrip(v):
    assert SemVer.parse(str(v)) == v


def test_semver_rejects_garbage():
    for bad in ("1.2", "v0.4.11", "0.4.11-nightly", ""):
        with pytest.raises(ValueError):
            SemVer.parse(bad)


@given(versions, versions)
def test_semver_ordering_matches_tuples(a, b):
    assert (a < b) == (tuple(a) < tuple(b))


# constraint text -> versions inside, versions outside
CONSTRAINT_CASES = [
    ("^0.4.24", ["0.4.24", "0.4.26"], ["0.4.23", "0.5.0"]),
    ("~0.6.2", ["0.6.2", "0.6.12"], ["0.6.1", "0.7.0"]),
    (">=0.4.11 <0.6.0", ["0.4.11", "0.5.17"], ["0.4.10", "0.6.0"]),
    ("0.8.4", ["0.8.4"], ["0.8.3", "0.8.5"]),
    ("=0.5", ["0.5.0", "0.5.17"], ["0.4.26", "0.6.0"]),
    (">0.7.1", ["0.7.2", "1.0.0"], ["0.7.1", "0.7.0"]),
    ("<=0.4.25", ["0.4.25", "0.0.1"], ["0.4.26"]),
    ("^0.0.3", ["0.0.3"], ["0.0.4", "0.1.0"]),
    ("^1.2.3", ["1.2.3", "1.9.0"], ["2.0.0", "1.2.2"]),
]


@pytest.mark.parametrize("text,inside,outside", CONSTRAINT_CASES)
def test_constraint_membership(text, inside, outside):
    c = VersionConstraint.parse(text)
    for v in inside:
        assert c.satisfied_by(SemVer.parse(v)), f"{v} should satisfy {text}"
    for v in outside:
        assert not c.satisfied_by(SemVer.parse(v)), f"{v} should not satisfy {text}"


def test_constraint_parse_rejects_garbage():
    with pytest.raises(PragmaSyntaxError):
        VersionConstraint.parse("")
    with pytest.raises(PragmaSyntaxError):
        VersionConstraint.parse("banana")


def test_constraint_str_roundtrip():
    c = VersionConstraint.parse(">=0.4.11 <0.6.0")
    assert str(c) == ">=0.4.11 <0.6.0"
    assert VersionConstraint.parse(str(c)) == c


def test_extract_pragma_basic():
    src = "pragma solidity ^0.5.0;\ncontract C {}"
    assert str(extract_pragma(src)) == "^0.5.0"


def test_extract_pragma_ignores_comments():
    src = (
        "// pragma solidity ^0.4.0;\n"
        "/* pragma solidity 0.4.1; */\n"
        "pragma solidity >=0.6.0;\n"
    )
    assert str(extract_pragma(src)) == ">=0.6.0"


def test_extract_pragma_first_statement_wins():
    src = "pragma solidity ^0.5.0;\npragma solidity ^0.8.0;\n"
    assert str(extract_pragma(src)) == "^0.5.0"


def test_extract_pragma_absent():
    assert extract_pragma("contract C {}") is None


def test_extract_pragma_bad_constraint():
    with pytest.raises(PragmaSyntaxError):
        extract_pragma("pragma solidity ???;")


def _index(versions_text):
    return ReleaseIndex([SemVer.parse(v) for v in versions_text])


RELEASES = (
    [f"0.4.{p}" for p in range(11, 27)]
    + [f"0.5.{p}" for p in range(0, 18)]
    + [f"0.6.{p}" for p in range(0, 13)]
    + [f"0.7.{p}" for p in range(0, 7)]
    + [f"0.8.{p}" for p in range(0, 6)]
)  # 60 releases


def test_release_index_rejects_disorder():
    with pytest.raises(ValueError):
        _index(["0.5.0", "0.4.11"])
    with pytest.raises(ValueError):
        _index(["0.4.11", "0.4.11"])


def test_release_index_load_format(tmp_path: Path):
    p = tmp_path / "releases.txt"
    p.write_text("# comment\n\n0.4.11\n 0.5.0 \n0.8.0\n")
    idx = ReleaseIndex.load(p)
    assert idx.versions == (SemVer(0, 4, 11), SemVer(0, 5, 0), SemVer(0, 8, 0))
    p.write_text("0.4.11 8c0a92c2d7c5\n")  # a version per line, nothing after it
    with pytest.raises(ValueError, match="not a version"):
        ReleaseIndex.load(p)


def test_resolve_picks_highest_satisfying():
    idx = _index(RELEASES)
    assert str(resolve_version(VersionConstraint.parse("^0.4.24"), idx.versions)) == "0.4.26"
    assert str(resolve_version(VersionConstraint.parse(">=0.4.11 <0.6.0"), idx.versions)) == "0.5.17"
    assert str(resolve_version(VersionConstraint.parse("0.8.4"), idx.versions)) == "0.8.4"


def test_resolve_era_rejection():
    idx = _index(RELEASES)
    # satisfiable only below the provisioning floor
    with pytest.raises(UnsupportedEraError):
        resolve_version(VersionConstraint.parse("<0.4.0"), idx.versions)
    with pytest.raises(UnsupportedEraError):
        resolve_version(VersionConstraint.parse("0.4.10"), idx.versions)


def test_resolve_no_satisfying():
    idx = _index(RELEASES)
    with pytest.raises(NoSatisfyingVersionError):
        resolve_version(VersionConstraint.parse("^0.9.0"), idx.versions)


def test_resolve_empty_release_list():
    with pytest.raises(NoSatisfyingVersionError):
        resolve_version(VersionConstraint.parse("^0.4.0"), [])


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["^", "~", ">=", "<=", ">", "<", "="]),
            st.integers(0, 1),
            st.integers(0, 9),
            st.one_of(st.none(), st.integers(0, 30)),
        ),
        min_size=1,
        max_size=2,
    )
)
def test_resolve_matches_bruteforce(term_specs):
    # oracle: filter-and-max over the raw membership test must agree
    text = " ".join(
        f"{op}{maj}.{mi}" + ("" if pat is None else f".{pat}")
        for op, maj, mi, pat in term_specs
    )
    constraint = VersionConstraint.parse(text)
    releases = [SemVer.parse(v) for v in RELEASES]
    brute = [
        v for v in releases if constraint.satisfied_by(v) and tuple(v) >= MIN_SUPPORTED
    ]
    if brute:
        assert resolve_version(constraint, releases) == max(brute)
    else:
        with pytest.raises((UnsupportedEraError, NoSatisfyingVersionError)):
            resolve_version(constraint, releases)


def test_mock_fetcher_payload_is_deterministic():
    fetcher = MockCompilerFetcher()
    v = SemVer.parse("0.5.17")
    assert fetcher(v) == fetcher(v)
    assert fetcher(v).startswith(b"#!/bin/sh")
    assert len(fetcher.calls) == 3


def test_cache_store_and_lookup(tmp_path: Path):
    cache = CompilerCache(tmp_path / "cc")
    v = SemVer.parse("0.8.1")
    path = cache.store(v, b"binary-bytes")
    assert path.exists()
    assert path.stat().st_mode & 0o111  # executable
    assert cache.lookup(v) == path
    assert cache.lookup(SemVer.parse("0.8.2")) is None


def test_cache_detects_corruption(tmp_path: Path):
    cache = CompilerCache(tmp_path / "cc")
    v = SemVer.parse("0.8.1")
    path = cache.store(v, b"good")
    path.write_bytes(b"tampered")
    assert cache.lookup(v) is None


def test_cache_lookup_of_an_unopenable_binary_is_none(tmp_path: Path):
    cache = CompilerCache(tmp_path / "cc")
    v = SemVer.parse("0.8.1")
    path = cache.store(v, b"good")
    path.unlink()
    path.mkdir()  # open() raises, as for a binary removed between stat and open
    assert cache.lookup(v) is None


def test_cache_survives_reload(tmp_path: Path):
    cache = CompilerCache(tmp_path / "cc")
    v = SemVer.parse("0.7.6")
    cache.store(v, b"data")
    reloaded = CompilerCache(tmp_path / "cc")
    assert reloaded.lookup(v) is not None
    assert reloaded.known_versions() == (v,)


def test_cache_detects_same_size_tamper_after_verified_lookup(tmp_path: Path):
    cache = CompilerCache(tmp_path / "cc")
    v = SemVer.parse("0.8.1")
    path = cache.store(v, b"good")
    assert cache.lookup(v) == path
    path.write_bytes(b"evil")
    assert cache.lookup(v) is None


def test_store_replaces_a_verified_binary(tmp_path: Path):
    cache = CompilerCache(tmp_path / "cc")
    v = SemVer.parse("0.8.1")
    path = cache.store(v, b"first-")
    assert cache.lookup(v) == path
    cache.store(v, b"second")
    assert cache.lookup(v) == path
    assert path.read_bytes() == b"second"


def test_store_leaves_mtime_0_so_a_write_in_place_moves_it(tmp_path: Path):
    cache = CompilerCache(tmp_path / "cc")
    path = cache.store(SemVer.parse("0.8.1"), b"binary-bytes")
    assert path.stat().st_mtime_ns == 0
    assert path.stat().st_mode & 0o777 == 0o755
    assert sorted(p.name for p in path.parent.iterdir()) == ["index", "solc-0.8.1"]  # renamed into place
    path.write_bytes(b"binary-bytes")  # same size, same bytes, at once
    assert path.stat().st_mtime_ns != 0


def test_cache_skips_torn_index_line(tmp_path: Path):
    cache = CompilerCache(tmp_path / "cc")
    fetcher = MockCompilerFetcher()
    old, new = SemVer.parse("0.4.26"), SemVer.parse("0.8.4")
    for v in (old, new):
        ensure_compiler(v, cache, fetcher)
    # a write cut short inside the last line's digest
    cache.index_path.write_bytes(cache.index_path.read_bytes()[:-30])
    reloaded = CompilerCache(tmp_path / "cc")
    assert reloaded.known_versions() == (old,)
    ensure_compiler(new, reloaded, fetcher)
    assert fetcher.calls == [old, new, new]
    assert CompilerCache(tmp_path / "cc").known_versions() == (old, new)


def test_cache_skips_undecodable_index_line(tmp_path: Path):
    cache = CompilerCache(tmp_path / "cc")
    fetcher = MockCompilerFetcher()
    old, new = SemVer.parse("0.4.26"), SemVer.parse("0.8.4")
    for v in (old, new):
        ensure_compiler(v, cache, fetcher)
    first, second = cache.index_path.read_bytes().splitlines(keepends=True)
    cache.index_path.write_bytes(first + b"\xff\xfe" + second)  # the second line is no longer UTF-8
    reloaded = CompilerCache(tmp_path / "cc")
    assert reloaded.known_versions() == (old,)
    ensure_compiler(new, reloaded, fetcher)
    assert fetcher.calls == [old, new, new]
    assert CompilerCache(tmp_path / "cc").known_versions() == (old, new)


def test_unreadable_index_is_an_error_naming_it(tmp_path: Path):
    (tmp_path / "cc" / "index").mkdir(parents=True)
    with pytest.raises(HarnessError, match=r"cc/index: compiler cache index cannot be read: Is a directory"):
        CompilerCache(tmp_path / "cc")


def test_store_failure_keeps_previous_index(tmp_path: Path, monkeypatch):
    cache = CompilerCache(tmp_path / "cc")
    old = SemVer.parse("0.4.26")
    cache.store(old, b"old")
    before = sorted(p.name for p in cache.cache_dir.iterdir())
    index = cache.index_path.read_bytes()

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(HarnessError, match="solc-0.8.4: cannot be written: disk full"):
        cache.store(SemVer.parse("0.8.4"), b"new")
    monkeypatch.undo()
    assert sorted(p.name for p in cache.cache_dir.iterdir()) == before
    assert cache.index_path.read_bytes() == index
    assert CompilerCache(tmp_path / "cc").known_versions() == (old,)


def test_ensure_compiler_fetches_exactly_once(tmp_path: Path):
    cache = CompilerCache(tmp_path / "cc")
    fetcher = MockCompilerFetcher()
    v = SemVer.parse("0.6.12")
    first = ensure_compiler(v, cache, fetcher)
    second = ensure_compiler(v, cache, fetcher)
    assert first == second
    assert fetcher.calls == [v]


def test_ensure_compiler_retries_then_gives_up(tmp_path: Path):
    calls = []

    def flaky(version):
        calls.append(version)
        raise OSError("connection reset")

    cache = CompilerCache(tmp_path / "cc")
    with pytest.raises(DownloadFailedError) as info:
        ensure_compiler(SemVer.parse("0.6.0"), cache, flaky)
    assert len(calls) == 3
    assert info.value.attempts == 3


def test_prefetch_dedupes_versions(tmp_path: Path):
    cache = CompilerCache(tmp_path / "cc")
    fetcher = MockCompilerFetcher()
    wanted = [SemVer.parse(v) for v in ("0.5.0", "0.5.0", "0.8.1", "0.5.0")]
    errors = prefetch_compilers(wanted, cache, fetcher)
    assert errors == []
    assert sorted(fetcher.calls) == [SemVer.parse("0.5.0"), SemVer.parse("0.8.1")]


def test_prefetch_collects_errors_instead_of_raising(tmp_path: Path):
    cache = CompilerCache(tmp_path / "cc")
    def unreachable(version):
        raise OSError("network is unreachable")

    errors = prefetch_compilers([SemVer.parse("0.5.0")], cache, unreachable)
    assert len(errors) == 1
    assert isinstance(errors[0], DownloadFailedError)


def test_url_fetcher_reads_file_urls(tmp_path: Path):
    blob = tmp_path / "solc-bin"
    blob.write_bytes(b"\x7fELF fake")
    fetcher = UrlCompilerFetcher(url_template=f"file://{tmp_path}/solc-bin")
    assert fetcher(SemVer.parse("0.8.0")) == b"\x7fELF fake"


def test_url_fetcher_wraps_failures(tmp_path: Path):
    fetcher = UrlCompilerFetcher(url_template=f"file://{tmp_path}/absent-{{version}}")
    with pytest.raises(DownloadFailedError):
        fetcher(SemVer.parse("0.8.0"))
