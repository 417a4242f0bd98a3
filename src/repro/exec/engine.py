"""ParallelExecutor: chunk + fingerprint a backup stream with real workers.

The executor owns two pools:

  - a *compute* pool (threads by default, fork processes on request) that
    runs each chunker's boundary scan over buffer slabs and fingerprints
    chunk batches — numpy and hashlib both release the GIL, so threads
    already scale, and processes cover pure-python paths;
  - an *IO* pool (:class:`repro.exec.iopool.IOPool`) that the OSS layer
    and the container flusher borrow for concurrent ranged reads and
    background PUTs.

Everything here is deterministic: slabs partition the window-index range,
positions map back by adding the slab origin, and the concatenation of
ascending slab outputs is exactly the whole-buffer scan's output.  Fingerprints
are pure functions of chunk payloads.  Parallel runs are therefore
byte-identical to serial — the property the differential parity suite
enforces.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

from repro.chunking.base import BoundarySet, Chunker
from repro.exec.iopool import IOPool
from repro.fingerprint.hashing import make_fingerprinter

#: Minimum slab width (in window positions) worth shipping to a worker.
_MIN_SLAB = 1 << 20
#: Target payload bytes per fingerprint batch task.
_FP_BATCH_BYTES = 1 << 20
#: Maximum chunk count per fingerprint batch task.
_FP_BATCH_CHUNKS = 256

EXEC_MODES = ("thread", "process")


def _fp_task(
    algo: str, buf: bytes | memoryview, ranges: list[tuple[int, int]], base: int
) -> list[bytes]:
    fingerprinter = make_fingerprinter(algo)
    view = memoryview(buf)
    return [fingerprinter(view[start - base : end - base]) for start, end in ranges]


class ParallelExecutor:
    """Fans CDC scanning and fingerprinting across a worker pool.

    ``workers=0`` means inactive: callers scan and fingerprint in-process.
    ``mode`` picks the compute pool flavour — "thread" (default; numpy and
    hashlib release the GIL) or "process" (fork workers for pure-python
    stages).  The IO pool is always threads: it exists to overlap
    GIL-releasing syscalls, and OSS handles don't cross processes.
    """

    def __init__(
        self, workers: int = 0, mode: str = "thread", slab_bytes: int = 4 << 20
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0: {workers}")
        if mode not in EXEC_MODES:
            raise ValueError(f"exec mode must be one of {EXEC_MODES}: {mode!r}")
        self.workers = workers
        self.mode = mode
        self.slab_bytes = max(slab_bytes, _MIN_SLAB)
        self._compute: Executor | None = None
        self._io_pool: IOPool | None = None

    @property
    def active(self) -> bool:
        return self.workers > 0

    @property
    def io_pool(self) -> IOPool | None:
        if not self.active:
            return None
        if self._io_pool is None:
            self._io_pool = IOPool(self.workers)
        return self._io_pool

    def _pool(self) -> Executor:
        if self._compute is None:
            if self.mode == "process":
                self._compute = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("fork"),
                )
            else:
                self._compute = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-exec"
                )
        return self._compute

    def _ship(self, data: bytes | memoryview, start: int, stop: int):
        """A buffer slice a worker can consume (bytes copy for processes)."""
        view = memoryview(data)[start:stop]
        return bytes(view) if self.mode == "process" else view

    # ------------------------------------------------------------------
    # boundary scan

    def scan_boundaries(self, chunker: Chunker, data: bytes) -> BoundarySet:
        """The chunker's BoundarySet for ``data``, scanned slab-parallel.

        Identical to ``chunker.boundaries(data)`` for every chunker and
        buffer length: each slab runs ``chunker.scan`` over its windows.
        """
        window = chunker.window
        if not self.active or not window:
            return chunker.boundaries(data)
        n = len(data)
        window_count = n - window + 1
        slab = max(self.slab_bytes, -(-window_count // self.workers))
        if window_count <= slab:
            return chunker.boundaries(data)
        origins = range(0, window_count, slab)
        futures = [
            self._pool().submit(
                chunker.scan,
                self._ship(data, a, min(a + slab, window_count) + window - 1),
            )
            for a in origins
        ]
        parts = [future.result() for future in futures]
        permissive = np.concatenate([p + a for (p, _), a in zip(parts, origins)])
        strict = None
        if parts[0][1] is not None:
            strict = np.concatenate([s + a for (_, s), a in zip(parts, origins)])
        return BoundarySet(n, chunker.params, permissive, strict)

    # ------------------------------------------------------------------
    # chunk + fingerprint

    def chunk_and_fingerprint(
        self, chunker: Chunker, data: bytes, algo: str = "sha1"
    ) -> tuple[BoundarySet, dict[tuple[int, int], bytes]]:
        """Boundary scan plus a fingerprint memo for the plain CDC walk.

        The memo maps ``(start, end)`` chunk spans — the spans the serial
        ``next_cut`` walk visits — to their digests, computed on the pool.
        Classification consults the memo and falls back to inline hashing
        for spans it invents itself (skip-chunking, superchunks), so the
        result is byte-identical either way.
        """
        boundary_set = self.scan_boundaries(chunker, data)
        if not self.active:
            return boundary_set, {}
        ranges: list[tuple[int, int]] = []
        start = 0
        length = len(data)
        while start < length:
            end = boundary_set.next_cut(start)
            ranges.append((start, end))
            start = end
        futures = []
        batches: list[list[tuple[int, int]]] = []
        batch: list[tuple[int, int]] = []
        batch_bytes = 0
        for span in ranges:
            batch.append(span)
            batch_bytes += span[1] - span[0]
            if batch_bytes >= _FP_BATCH_BYTES or len(batch) >= _FP_BATCH_CHUNKS:
                batches.append(batch)
                batch, batch_bytes = [], 0
        if batch:
            batches.append(batch)
        for spans in batches:
            base, stop = spans[0][0], spans[-1][1]
            buf = self._ship(data, base, stop)
            futures.append(self._pool().submit(_fp_task, algo, buf, spans, base))
        memo: dict[tuple[int, int], bytes] = {}
        for spans, future in zip(batches, futures):
            for span, digest in zip(spans, future.result()):
                memo[span] = digest
        return boundary_set, memo

    def close(self) -> None:
        if self._compute is not None:
            self._compute.shutdown(wait=True)
            self._compute = None
        if self._io_pool is not None:
            self._io_pool.close()
            self._io_pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
