"""Compiler provisioning: pragma parsing, version resolution, cached fetches."""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanmux.solc import (
    MIN_SUPPORTED,
    CompilerCache,
    DigestMismatchError,
    DownloadFailedError,
    MockCompilerFetcher,
    NoSatisfyingVersionError,
    PragmaSyntaxError,
    Release,
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

from helpers import backdate

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
    assert (a < b) == (a.tuple < b.tuple)


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
    return ReleaseIndex([Release(SemVer.parse(v), None) for v in versions_text])


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
    p.write_text("# comment\n\n0.4.11 abc123\n0.5.0 -\n0.8.0\n")
    idx = ReleaseIndex.load(p)
    assert len(idx.versions) == 3
    assert idx.digest_for(SemVer.parse("0.4.11")) == "abc123"
    assert idx.digest_for(SemVer.parse("0.5.0")) is None
    assert idx.digest_for(SemVer.parse("0.8.0")) is None


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
        v for v in releases if constraint.satisfied_by(v) and v.tuple >= MIN_SUPPORTED
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


@pytest.mark.parametrize("settled, hashes", [(True, 1), (False, 3)])
def test_lookup_hashes_a_settled_file_once(tmp_path: Path, monkeypatch, settled, hashes):
    # A file written moments ago could be rewritten within one timestamp
    # tick, so only a settled file is trusted on its stat stamp.
    cache = CompilerCache(tmp_path / "cc")
    v = SemVer.parse("0.8.1")
    path = cache.store(v, b"binary-bytes")
    if settled:
        backdate(path)
    hashed = []
    file_digest = hashlib.file_digest

    def counted(f, name):
        hashed.append(f.name)
        return file_digest(f, name)

    monkeypatch.setattr(hashlib, "file_digest", counted)
    assert [cache.lookup(v) for _ in range(3)] == [path] * 3
    assert len(hashed) == hashes


@pytest.mark.parametrize("settled", [True, False])
def test_cache_detects_same_size_tamper_after_verified_lookup(tmp_path: Path, settled):
    cache = CompilerCache(tmp_path / "cc")
    v = SemVer.parse("0.8.1")
    path = cache.store(v, b"good")
    if settled:
        backdate(path)
    assert cache.lookup(v) == path
    path.write_bytes(b"evil")
    assert cache.lookup(v) is None


def test_store_replaces_a_verified_binary(tmp_path: Path):
    cache = CompilerCache(tmp_path / "cc")
    v = SemVer.parse("0.8.1")
    path = cache.store(v, b"first-")
    backdate(path)
    assert cache.lookup(v) == path
    cache.store(v, b"second")
    assert cache.lookup(v) == path
    assert path.read_bytes() == b"second"


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


def test_store_failure_keeps_previous_index(tmp_path: Path, monkeypatch):
    cache = CompilerCache(tmp_path / "cc")
    old = SemVer.parse("0.4.26")
    cache.store(old, b"old")
    before = sorted(p.name for p in cache.cache_dir.iterdir())
    index = cache.index_path.read_bytes()

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
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


def test_ensure_compiler_digest_mismatch_not_retried(tmp_path: Path):
    calls = []

    def fetch(version):
        calls.append(version)
        return b"unexpected-binary"

    cache = CompilerCache(tmp_path / "cc")
    with pytest.raises(DigestMismatchError):
        ensure_compiler(
            SemVer.parse("0.6.0"), cache, fetch,
            expected_digest=hashlib.sha256(b"the-real-binary").hexdigest(),
        )
    assert len(calls) == 1
    # the corrupt download never reached the cache
    assert cache.lookup(SemVer.parse("0.6.0")) is None


def test_ensure_compiler_verifies_pinned_digest(tmp_path: Path):
    cache = CompilerCache(tmp_path / "cc")
    v = SemVer.parse("0.6.0")
    payload = MockCompilerFetcher.payload(v)
    path = ensure_compiler(
        v, cache, MockCompilerFetcher(),
        expected_digest=hashlib.sha256(payload).hexdigest(),
    )
    assert path.read_bytes() == payload


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


def test_bundled_index_pins_mock_payloads():
    # the shipped index digests must match what the mock fetcher produces,
    # or every out-of-the-box run would fail digest verification
    from scanmux.paths import bundled_release_index

    idx = ReleaseIndex.load(bundled_release_index())
    assert len(idx.versions) >= 60
    for v in (SemVer.parse("0.4.11"), SemVer.parse("0.8.26")):
        expected = hashlib.sha256(MockCompilerFetcher.payload(v)).hexdigest()
        assert idx.digest_for(v) == expected
