"""Tests for the OSS storage backends."""

import os

import pytest

from repro.oss.backend import FilesystemBackend, InMemoryBackend


class TestInMemoryBackend:
    def test_put_get_roundtrip(self):
        backend = InMemoryBackend()
        backend.put("a/b", b"hello")
        assert backend.get("a/b") == b"hello"

    def test_get_missing_is_none(self):
        assert InMemoryBackend().get("nope") is None

    def test_overwrite(self):
        backend = InMemoryBackend()
        backend.put("k", b"v1")
        backend.put("k", b"v2")
        assert backend.get("k") == b"v2"

    def test_delete(self):
        backend = InMemoryBackend()
        backend.put("k", b"v")
        assert backend.delete("k") is True
        assert backend.delete("k") is False
        assert backend.get("k") is None

    def test_keys_sorted(self):
        backend = InMemoryBackend()
        for key in ("b", "a", "c"):
            backend.put(key, b"x")
        assert list(backend.keys()) == ["a", "b", "c"]

    def test_size_and_contains(self):
        backend = InMemoryBackend()
        backend.put("k", b"12345")
        assert backend.size("k") == 5
        assert backend.contains("k")
        assert not backend.contains("other")

    def test_total_bytes(self):
        backend = InMemoryBackend()
        backend.put("a", b"12")
        backend.put("b", b"345")
        assert backend.total_bytes() == 5

    def test_put_copies_input(self):
        backend = InMemoryBackend()
        payload = bytearray(b"abc")
        backend.put("k", bytes(payload))
        payload[0] = ord("z")
        assert backend.get("k") == b"abc"


class TestFilesystemBackend:
    def test_roundtrip(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.put("dir/key.bin", b"payload")
        assert backend.get("dir/key.bin") == b"payload"
        assert backend.size("dir/key.bin") == 7

    def test_keys_recursive_sorted(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.put("b/x", b"1")
        backend.put("a/y", b"2")
        assert list(backend.keys()) == ["a/y", "b/x"]

    def test_delete(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.put("k", b"v")
        assert backend.delete("k") is True
        assert backend.get("k") is None
        assert backend.delete("k") is False

    def test_rejects_unsafe_keys(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        with pytest.raises(ValueError):
            backend.put("../escape", b"x")
        with pytest.raises(ValueError):
            backend.put("/absolute", b"x")

    def test_rejects_empty_and_dot_keys(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        with pytest.raises(ValueError):
            backend.put("", b"x")
        with pytest.raises(ValueError):
            backend.put(".", b"x")
        with pytest.raises(ValueError):
            backend.get("")

    def test_total_bytes(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.put("a", b"12")
        backend.put("d/b", b"345")
        assert backend.total_bytes() == 5

    def test_failed_replace_cleans_up_tmp(self, tmp_path, monkeypatch):
        backend = FilesystemBackend(tmp_path)
        backend.put("k", b"old")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.oss.backend.os.replace", broken_replace)
        with pytest.raises(OSError):
            backend.put("k", b"new")
        monkeypatch.undo()
        # The old object survives and no orphaned temp file remains.
        assert backend.get("k") == b"old"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_atomic_overwrite(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.put("k", b"old")
        backend.put("k", b"new")
        assert backend.get("k") == b"new"
        # No stray temp files left behind.
        assert list(backend.keys()) == ["k"]

    def test_tmp_suffixed_key_survives_put_of_its_stem(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.put("a.tmp", b"kept")
        backend.put("a", b"other")
        assert backend.get("a.tmp") == b"kept"
        assert backend.get("a") == b"other"

    def test_keys_lists_tmp_suffixed_keys(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.put("log/active.wal.tmp", b"x")
        backend.put("log/active.wal", b"y")
        assert list(backend.keys()) == ["log/active.wal", "log/active.wal.tmp"]

    def test_rejects_keys_in_the_staging_directory(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        for key in (".staging/x", "./.staging/x", ".staging"):
            with pytest.raises(ValueError):
                backend.put(key, b"x")

    def test_interleaved_puts_of_one_key_both_land(self, tmp_path, monkeypatch):
        backend = FilesystemBackend(tmp_path)
        real_replace = os.replace
        calls = []

        def interleaving_replace(src, dst):
            # The second put runs between the first put's write and rename.
            calls.append(dst)
            if len(calls) == 1:
                backend.put("wal", b"second" * 100)
            real_replace(src, dst)

        monkeypatch.setattr("repro.oss.backend.os.replace", interleaving_replace)
        backend.put("wal", b"first" * 100)
        monkeypatch.undo()
        assert len(calls) == 2
        assert backend.get("wal") in (b"first" * 100, b"second" * 100)
        assert list(backend.keys()) == ["wal"]
