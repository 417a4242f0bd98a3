"""Gear-hash CDC (DDelta).

Gear replaces Rabin's multiply-heavy window roll with one table lookup,
one shift and one add per byte: ``h = (h << 1) + gear[b]``.  Contributions
shift out of a 32-bit hash after 32 bytes, giving an implicit 32-byte
window.  The cut condition tests the *high* bits of the hash, where the
most history is mixed in.
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

#: Implicit window: how many trailing bytes influence a 32-bit gear hash.
WINDOW = 32
#: Hash width in bits.
HASH_BITS = 32


def _gear_table(seed: int = 0x5EED) -> np.ndarray:
    """The 256-entry random table shared by Gear and FastCDC."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << HASH_BITS, size=256, dtype=np.uint64).astype(np.uint32)


GEAR_TABLE = _gear_table()


def _shift_add(left: np.ndarray, right: np.ndarray, span: int) -> np.ndarray:
    return (left << np.uint32(span)) + right


def gear_hashes(data: bytes | memoryview) -> np.ndarray:
    """uint32 gear hash of every window: entry ``j`` covers
    ``data[j : j + WINDOW]``, the window ending at stream position
    ``j + WINDOW``.  uint32 wraparound is the hash's mod-2^32 ring."""
    with np.errstate(over="ignore"):
        return windowed_hashes(
            GEAR_TABLE[np.frombuffer(data, dtype=np.uint8)], WINDOW, _shift_add
        )


def top_bits_mask(bits: int) -> np.uint32:
    """A mask selecting the ``bits`` most significant hash bits."""
    if not 0 < bits < HASH_BITS:
        raise ValueError(f"mask bits must be in (0, {HASH_BITS}): {bits}")
    return np.uint32(((1 << bits) - 1) << (HASH_BITS - bits))


class GearChunker(Chunker):
    """Plain gear-hash CDC with a single cut condition."""

    name = "gear"
    window = WINDOW

    def __init__(self, params: ChunkerParams | None = None) -> None:
        super().__init__(params)
        if self.params.min_size <= WINDOW:
            raise ValueError(
                f"min chunk size {self.params.min_size} must exceed the "
                f"{WINDOW}-byte gear window"
            )
        avg_bits = self.params.avg_size.bit_length() - 1
        self._mask = top_bits_mask(min(avg_bits, HASH_BITS - 1))

    def scan(self, data: bytes | memoryview) -> ScanPositions:
        hits = np.flatnonzero((gear_hashes(data) & self._mask) == 0)
        return hits + WINDOW, None

    def boundaries(self, data: bytes) -> BoundarySet:
        return BoundarySet(len(data), self.params, *self.scan(data))
