"""Per-byte reference scans: the oracle the chunkers' kernel is tested against.

These are the straightforward serial loops: one whole-buffer numpy pass per
window byte, summing each byte's contribution to every window directly.
They live outside ``src/`` so the equality tests compare the chunkers'
log-doubling kernel with an independent implementation rather than with
itself.  The cut masks are derived from the chunk-size parameters here
too, not read from the chunkers.
"""

from __future__ import annotations

import numpy as np

from repro.chunking import gear, rabin
from repro.chunking.base import BoundarySet, Chunker

_GEAR_TABLE = gear.GEAR_TABLE.astype(np.uint64)
_GEAR_MASK = np.uint64((1 << 32) - 1)


def gear_hash_positions(data: bytes) -> np.ndarray:
    """Gear hash of the window ending at each position (length-WINDOW+1 values).

    Entry ``j`` is the hash for stream position ``p = j + WINDOW``, i.e.
    the window ``data[p-WINDOW:p]``.
    """
    length = len(data)
    if length < gear.WINDOW:
        return np.empty(0, dtype=np.uint64)
    mapped = _GEAR_TABLE[np.frombuffer(data, dtype=np.uint8)]
    window_count = length - gear.WINDOW + 1
    with np.errstate(over="ignore"):
        acc = np.zeros(window_count, dtype=np.uint64)
        for t in range(gear.WINDOW):
            shift = np.uint64(gear.WINDOW - 1 - t)
            acc += mapped[t : t + window_count] << shift
    return acc & _GEAR_MASK


def _rabin_coefficients() -> np.ndarray:
    """coef[t] = PRIME^(WINDOW-1-t) mod 2^64 for window offset t."""
    coefficients = np.empty(rabin.WINDOW, dtype=np.uint64)
    power = 1
    for exponent in range(rabin.WINDOW):
        coefficients[rabin.WINDOW - 1 - exponent] = power
        power = (power * int(rabin.PRIME)) % (1 << 64)
    return coefficients


_RABIN_COEFFICIENTS = _rabin_coefficients()


def rabin_hash_positions(data: bytes) -> np.ndarray:
    """Rabin polynomial of the window ending at each position, as above."""
    length = len(data)
    if length < rabin.WINDOW:
        return np.empty(0, dtype=np.uint64)
    stream = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    window_count = length - rabin.WINDOW + 1
    with np.errstate(over="ignore"):
        acc = np.zeros(window_count, dtype=np.uint64)
        for t in range(rabin.WINDOW):
            acc += stream[t : t + window_count] * _RABIN_COEFFICIENTS[t]
    return acc


def _top_bits(bits: int) -> np.uint64:
    return np.uint64(((1 << bits) - 1) << (32 - bits))


def reference_positions(
    chunker: Chunker, data: bytes
) -> tuple[np.ndarray, np.ndarray | None]:
    """(permissive, strict) cut positions of every full window in ``data``."""
    avg_bits = chunker.params.avg_size.bit_length() - 1
    if chunker.name == "gear":
        hashes = gear_hash_positions(data)
        hits = np.nonzero((hashes & _top_bits(min(avg_bits, 31))) == 0)[0]
        return hits.astype(np.int64) + gear.WINDOW, None
    if chunker.name == "fastcdc":
        hashes = gear_hash_positions(data)
        permissive = np.nonzero((hashes & _top_bits(max(avg_bits - 2, 1))) == 0)[0]
        strict = np.nonzero((hashes & _top_bits(min(avg_bits + 2, 31))) == 0)[0]
        return (
            permissive.astype(np.int64) + gear.WINDOW,
            strict.astype(np.int64) + gear.WINDOW,
        )
    if chunker.name == "rabin":
        mask = np.uint64(chunker.params.avg_size - 1)
        hits = np.nonzero((rabin_hash_positions(data) & mask) == mask)[0]
        return hits.astype(np.int64) + rabin.WINDOW, None
    return np.empty(0, dtype=np.int64), None


def reference_boundaries(chunker: Chunker, data: bytes) -> BoundarySet:
    """The BoundarySet the serial scans built, rabin's short-buffer rule
    included: it found no position in a buffer of at most WINDOW bytes."""
    if chunker.name == "rabin" and len(data) <= rabin.WINDOW:
        return BoundarySet(len(data), chunker.params, np.empty(0, dtype=np.int64))
    return BoundarySet(len(data), chunker.params, *reference_positions(chunker, data))


def reference_spans(chunker: Chunker, data: bytes) -> list[tuple[int, int]]:
    """The ``(start, end)`` chunk spans of the ``next_cut`` walk over
    :func:`reference_boundaries`."""
    boundary_set = reference_boundaries(chunker, data)
    spans = []
    start = 0
    while start < len(data):
        end = boundary_set.next_cut(start)
        spans.append((start, end))
        start = end
    return spans
