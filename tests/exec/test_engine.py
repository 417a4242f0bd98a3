"""ParallelExecutor: slab-parallel scans and pooled fingerprints are
indistinguishable from the per-byte reference scan, in every mode, at every
width."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.chunking.base import ChunkerParams, make_chunker
from repro.exec import IOPool, ParallelExecutor
from repro.exec.engine import EXEC_MODES
from repro.fingerprint.hashing import fingerprint
from tests.chunking.reference_scan import reference_positions, reference_spans

PARAMS = ChunkerParams(min_size=128, avg_size=2048, max_size=16384)


def _payload(seed: int, size: int) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def _assert_matches_reference(chunker, data: bytes, boundary_set) -> None:
    permissive, strict = reference_positions(chunker, data)
    assert boundary_set.length == len(data)
    assert np.array_equal(boundary_set._positions, permissive)
    assert np.array_equal(
        boundary_set._strict, permissive if strict is None else strict
    )


class TestScanBoundaries:
    @pytest.mark.parametrize("name", ["gear", "fastcdc", "rabin", "fixed"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial(self, name, workers):
        chunker = make_chunker(name, PARAMS)
        data = _payload(13, 1 << 18)
        _assert_matches_reference(chunker, data, chunker.boundaries(data))
        for mode in EXEC_MODES:
            with ParallelExecutor(workers, mode=mode) as executor:
                executor.slab_bytes = 1 << 15  # one slab per worker
                _assert_matches_reference(
                    chunker, data, executor.scan_boundaries(chunker, data)
                )

    @pytest.mark.parametrize("size", [0, 31, 32, 47, 48, 49, 1 << 15])
    def test_edge_lengths(self, size):
        data = _payload(17, size)
        with ParallelExecutor(2, slab_bytes=1 << 15) as executor:
            for name in ("gear", "fastcdc", "rabin"):
                chunker = make_chunker(name, PARAMS)
                _assert_matches_reference(
                    chunker, data, executor.scan_boundaries(chunker, data)
                )

    def test_tiny_slabs_force_many_tasks(self):
        """A slab barely above the floor still concatenates correctly."""
        chunker = make_chunker("fastcdc", PARAMS)
        data = _payload(19, (1 << 20) + 7)
        executor = ParallelExecutor(4)
        executor.slab_bytes = 1 << 20  # two slabs, 7-window tail merged math
        try:
            _assert_matches_reference(
                chunker, data, executor.scan_boundaries(chunker, data)
            )
        finally:
            executor.close()

    @pytest.mark.parametrize("name", ["gear", "fastcdc", "rabin"])
    def test_slab_edges_keep_every_position(self, name):
        """Hundreds of slab layouts at a dense cut condition: a position in
        the last window of any slab would be lost without the overlap."""
        chunker = make_chunker(name, ChunkerParams(64, 64, 512))
        data = _payload(47, 4096)
        with ParallelExecutor(8) as executor:
            executor.slab_bytes = 1  # slabs of window_count / workers
            for length in range(2048, 4096, 7):
                prefix = data[:length]
                _assert_matches_reference(
                    chunker, prefix, executor.scan_boundaries(chunker, prefix)
                )

    def test_process_mode(self):
        chunker = make_chunker("gear", PARAMS)
        data = _payload(23, 1 << 17)
        with ParallelExecutor(2, mode="process", slab_bytes=1 << 15) as executor:
            _assert_matches_reference(
                chunker, data, executor.scan_boundaries(chunker, data)
            )

    def test_inactive_falls_back(self):
        chunker = make_chunker("gear", PARAMS)
        data = _payload(29, 1 << 14)
        executor = ParallelExecutor(0)
        assert not executor.active
        assert executor.io_pool is None
        _assert_matches_reference(chunker, data, executor.scan_boundaries(chunker, data))


class TestChunkAndFingerprint:
    @pytest.mark.parametrize("name", ["gear", "fastcdc", "rabin", "fixed"])
    def test_memo_covers_the_cdc_walk(self, name):
        chunker = make_chunker(name, PARAMS)
        data = _payload(31, 1 << 17)
        with ParallelExecutor(2, slab_bytes=1 << 15) as executor:
            boundary_set, memo = executor.chunk_and_fingerprint(chunker, data)
        # The memo spans tile the buffer exactly along the next_cut walk...
        for span in reference_spans(chunker, data):
            assert span in memo
        # ...and every digest is the chunk's true fingerprint.
        for (start, end), digest in memo.items():
            assert digest == fingerprint(data[start:end])

    def test_blake2b_digests(self):
        chunker = make_chunker("fastcdc", PARAMS)
        data = _payload(37, 1 << 16)
        with ParallelExecutor(2) as executor:
            _, memo = executor.chunk_and_fingerprint(chunker, data, algo="blake2b")
        for (start, end), digest in memo.items():
            assert digest == hashlib.blake2b(data[start:end], digest_size=20).digest()

    def test_process_mode_memo(self):
        chunker = make_chunker("gear", PARAMS)
        data = _payload(41, 1 << 16)
        with ParallelExecutor(2, mode="process") as executor:
            _, memo = executor.chunk_and_fingerprint(chunker, data)
        assert memo
        for (start, end), digest in memo.items():
            assert digest == fingerprint(data[start:end])

    def test_empty_stream(self):
        chunker = make_chunker("gear", PARAMS)
        with ParallelExecutor(1) as executor:
            boundary_set, memo = executor.chunk_and_fingerprint(chunker, b"")
        assert boundary_set.length == 0
        assert memo == {}


class TestConstruction:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(-1)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            ParallelExecutor(1, mode="fibers")

    def test_close_is_idempotent(self):
        executor = ParallelExecutor(2)
        executor.scan_boundaries(make_chunker("gear", PARAMS), _payload(43, 1 << 13))
        executor.close()
        executor.close()


class TestIOPool:
    def test_map_preserves_order(self):
        with IOPool(4) as pool:
            assert pool.map(lambda x: x * x, range(20)) == [x * x for x in range(20)]

    def test_submit_propagates_exceptions(self):
        def boom() -> None:
            raise RuntimeError("worker failure")

        with IOPool(1) as pool:
            with pytest.raises(RuntimeError, match="worker failure"):
                pool.submit(boom).result()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            IOPool(0)
