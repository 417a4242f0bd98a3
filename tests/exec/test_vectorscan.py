"""The chunkers' log-doubling scan kernel equals the per-byte reference scans.

Every chunker computes its cut positions with one kernel,
:func:`repro.chunking.base.windowed_hashes`, in-process and in every slab of
the parallel engine.  These tests pin it against the serial loops kept in
``tests/chunking/reference_scan.py``: the gear hash equals the shift-add
loop mod 2^32, the rabin polynomial equals the multiply-accumulate loop in
the mod-2^64 ring, and every chunker's ``scan``/``boundaries`` therefore
reproduces the reference positions — and the reference cuts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import gear, rabin
from repro.chunking.base import ChunkerParams, make_chunker
from tests.chunking.reference_scan import (
    gear_hash_positions,
    rabin_hash_positions,
    reference_positions,
    reference_spans,
)

PARAMS = ChunkerParams(min_size=128, avg_size=2048, max_size=16384)


def _payload(seed: int, size: int) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


@pytest.mark.parametrize("size", [32, 33, 100, 4096, 1 << 17])
@pytest.mark.parametrize("seed", [0, 7])
def test_gear_hashes_match_serial(seed, size):
    data = _payload(seed, size)
    vectorised = gear.gear_hashes(data)
    assert vectorised.dtype == np.uint32
    assert np.array_equal(gear_hash_positions(data).astype(np.uint32), vectorised)


def test_gear_hashes_short_buffer_is_empty():
    assert gear.gear_hashes(b"x" * (gear.WINDOW - 1)).size == 0


@pytest.mark.parametrize("size", [48, 49, 100, 4096, 1 << 16])
@pytest.mark.parametrize("seed", [1, 11])
def test_rabin_hashes_match_serial(seed, size):
    data = _payload(seed, size)
    assert np.array_equal(rabin_hash_positions(data), rabin.rabin_hashes(data))


def _assert_same_boundaries(chunker, data: bytes) -> None:
    permissive, strict = reference_positions(chunker, data)
    scanned, scanned_strict = chunker.scan(data)
    assert np.array_equal(scanned, permissive)
    assert (scanned_strict is None) == (strict is None)
    boundary_set = chunker.boundaries(data)
    assert np.array_equal(boundary_set._positions, permissive)
    if strict is None:
        assert np.array_equal(boundary_set._strict, permissive)
    else:
        assert np.array_equal(scanned_strict, strict)
        assert np.array_equal(boundary_set._strict, strict)


@pytest.mark.parametrize("name", ["gear", "fastcdc", "rabin"])
@pytest.mark.parametrize("size", [0, 31, 47, 48, 49, 1000, 1 << 16])
def test_scan_positions_match_boundaries(name, size):
    chunker = make_chunker(name, PARAMS)
    _assert_same_boundaries(chunker, _payload(3, size))


def test_scan_positions_none_for_fixed():
    chunker = make_chunker("fixed", PARAMS)
    assert chunker.window == 0
    permissive, strict = chunker.scan(b"x" * 1000)
    assert permissive.size == 0 and strict is None
    assert chunker.boundaries(b"x" * 1000)._positions.size == 0


@pytest.mark.parametrize("name", ["gear", "fastcdc", "rabin"])
def test_short_buffers_cut_like_the_oracle(name):
    """Every buffer up to ``min_size + WINDOW`` bytes cuts exactly as the
    reference walk does.  The serial rabin scan found no position in a
    buffer of at most WINDOW bytes; the kernel evaluates that one window,
    but ``min_size > WINDOW`` means no cut ever consults it."""
    chunker = make_chunker(name, PARAMS)
    data = _payload(5, PARAMS.min_size + chunker.window)
    for length in range(len(data) + 1):
        prefix = data[:length]
        spans = [(c.start, c.end) for c in chunker.chunk(prefix)]
        assert spans == reference_spans(chunker, prefix)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    size=st.integers(0, 3000),
    name=st.sampled_from(["gear", "fastcdc", "rabin"]),
)
def test_scan_positions_property(seed, size, name):
    chunker = make_chunker(name, PARAMS)
    _assert_same_boundaries(chunker, _payload(seed, size))


def test_low_entropy_buffers():
    """Constant and repeating buffers stress hash wraparound paths."""
    for name in ("gear", "fastcdc", "rabin"):
        chunker = make_chunker(name, PARAMS)
        for data in (b"\x00" * 5000, b"\xff" * 5000, bytes(range(256)) * 20):
            _assert_same_boundaries(chunker, data)
