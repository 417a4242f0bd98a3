"""Rabin-style rolling-hash CDC.

The classic chunker of LBFS lineage: a polynomial rolling hash over a
48-byte sliding window, cutting where the hash satisfies a modulus
condition.  We use the Rabin–Karp polynomial form ``h = Σ b[i]·P^k mod
2^64`` (an odd multiplier over a power-of-two ring), which preserves the
properties that matter here — content-defined boundaries, window locality,
uniform cut density — while admitting a fully vectorised evaluation.

Its virtual-time cost ("rabin" in the cost model) reflects the real
algorithm's expensive per-byte work, which is what Fig 2 of the paper is
about.
"""

from __future__ import annotations

import numpy as np

from repro.chunking.base import (
    BoundarySet,
    Chunker,
    ChunkerParams,
    ScanPositions,
    windowed_hashes,
)

#: Sliding-window width in bytes.
WINDOW = 48
#: Odd multiplier of the rolling polynomial.
PRIME = 0x3B9ACA07


def _multiply_add(left: np.ndarray, right: np.ndarray, span: int) -> np.ndarray:
    return left * np.uint64(pow(PRIME, span, 1 << 64)) + right


def rabin_hashes(data: bytes | memoryview) -> np.ndarray:
    """uint64 polynomial hash of every window: entry ``j`` covers
    ``data[j : j + WINDOW]``.  uint64 wraparound is the mod-2^64 ring."""
    values = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    with np.errstate(over="ignore"):
        return windowed_hashes(values, WINDOW, _multiply_add)


class RabinChunker(Chunker):
    """Rabin rolling-hash content-defined chunking."""

    name = "rabin"
    window = WINDOW

    def __init__(self, params: ChunkerParams | None = None) -> None:
        super().__init__(params)
        if self.params.min_size <= WINDOW:
            raise ValueError(
                f"min chunk size {self.params.min_size} must exceed the "
                f"{WINDOW}-byte rolling window"
            )
        # Cut when the low log2(avg) bits are all ones: density 1/avg.
        self._mask = np.uint64(self.params.avg_size - 1)

    def scan(self, data: bytes | memoryview) -> ScanPositions:
        hits = np.flatnonzero((rabin_hashes(data) & self._mask) == self._mask)
        return hits + WINDOW, None

    def boundaries(self, data: bytes) -> BoundarySet:
        return BoundarySet(len(data), self.params, *self.scan(data))
