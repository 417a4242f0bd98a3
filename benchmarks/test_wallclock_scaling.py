"""Wall-clock scaling of the parallel execution engine (host time).

Every other bench in this suite runs on the *virtual* clock — the cost
model charges simulated seconds, so results are deterministic.  This one
deliberately measures real elapsed time: the parallel engine exists to
cut host wall-clock on the ingest CPU stages (CDC boundary scan +
chunk fingerprinting), and only a stopwatch can show that.

Methodology:

* **serial baseline** — the in-process path ``workers=0`` takes: the
  chunker's own ``boundaries`` scan (the same log-doubling kernel every
  worker runs), then a ``next_cut`` walk fingerprinting every chunk with
  :func:`repro.fingerprint.hashing.fingerprint`.  Because both sides run
  one kernel, a speedup here is real thread scaling of the scan slabs
  and the pooled fingerprints.
* **parallel points** — ``ParallelExecutor(w).chunk_and_fingerprint``
  for each worker count in ``WALLCLOCK_WORKERS`` (default ``1,2,4,8``),
  best-of-``ROUNDS`` like the zero-copy microbench.
* **byte identity** — every parallel point must reproduce the serial
  boundary set exactly and every memoised digest must equal the serial
  fingerprint; a fast-but-wrong engine fails here, not in production.

The measured speedups are overlaid against the simulated Fig 10 cluster
curves (``repro.bench.scaling``) so ``BENCH_wallclock.json`` tells both
stories: single-node host-time scaling and cluster virtual-time scaling.

Env knobs (CI uses a generous guard band on a shared 1-2 vCPU runner):

* ``WALLCLOCK_WORKERS`` — comma list of worker counts to measure.
* ``WALLCLOCK_MIN_SPEEDUP`` — required speedup at the >=4-worker point
  (default 2.0, per the engine's acceptance bar).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.bench.scaling import restic_aggregate_throughput, slimstore_backup_scaling
from repro.chunking import make_chunker
from repro.chunking.base import ChunkerParams
from repro.exec import ParallelExecutor
from repro.fingerprint.hashing import fingerprint

RESULTS_DIR = Path(__file__).parent / "results"

ROUNDS = 3
_MB = float(1 << 20)


def _workers() -> list[int]:
    raw = os.environ.get("WALLCLOCK_WORKERS", "1,2,4,8")
    return [int(part) for part in raw.split(",") if part.strip()]


def _min_speedup() -> float:
    return float(os.environ.get("WALLCLOCK_MIN_SPEEDUP", "2.0"))


def _sdb_stream(sdb_small) -> bytes:
    _generator, versions = sdb_small
    return b"".join(f.data for version in versions for f in version.files)


def _serial_chunk_fingerprint(chunker, data: bytes):
    """The in-process (``workers=0``) ingest path, staged for the breakdown."""
    start = time.perf_counter()
    boundary_set = chunker.boundaries(data)
    chunk_seconds = time.perf_counter() - start

    start = time.perf_counter()
    view = memoryview(data)
    digests = {}
    position = 0
    while position < len(data):
        end = boundary_set.next_cut(position)
        digests[(position, end)] = fingerprint(view[position:end])
        position = end
    fingerprint_seconds = time.perf_counter() - start
    return boundary_set, digests, chunk_seconds, fingerprint_seconds


def _best_serial(chunker, data: bytes):
    best_total = float("inf")
    result = None
    for _ in range(ROUNDS):
        boundary_set, digests, chunk_s, fp_s = _serial_chunk_fingerprint(chunker, data)
        if chunk_s + fp_s < best_total:
            best_total = chunk_s + fp_s
            result = (boundary_set, digests, chunk_s, fp_s)
    return result


def _best_parallel(executor, chunker, data: bytes):
    best = float("inf")
    result = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        boundary_set, memo = executor.chunk_and_fingerprint(chunker, data)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            result = (boundary_set, memo)
    return result[0], result[1], best


def _identical(serial_set, serial_digests, parallel_set, memo, data: bytes) -> bool:
    if serial_set.length != parallel_set.length:
        return False
    if not np.array_equal(serial_set._positions, parallel_set._positions):
        return False
    if not np.array_equal(serial_set._strict, parallel_set._strict):
        return False
    # Every span the serial walk visits must carry the serial digest.
    return all(memo.get(span) == digest for span, digest in serial_digests.items())


def test_wallclock_scaling(sdb_small, record):
    data = _sdb_stream(sdb_small)
    chunker = make_chunker("fastcdc", ChunkerParams().scaled(4096))

    serial_set, serial_digests, chunk_s, fp_s = _best_serial(chunker, data)
    serial_total = chunk_s + fp_s

    points = []
    for workers in _workers():
        with ParallelExecutor(workers) as executor:
            parallel_set, memo, elapsed = _best_parallel(executor, chunker, data)
            identical = _identical(serial_set, serial_digests, parallel_set, memo, data)
        points.append(
            {
                "workers": workers,
                "mode": "thread",
                "seconds": elapsed,
                "throughput_mbps": len(data) / elapsed / _MB,
                "speedup_vs_serial": serial_total / elapsed,
                "byte_identical": identical,
            }
        )

    # Simulated Fig 10 overlay: feed the measured single-job profile into
    # the cluster scaling arithmetic (4 L-nodes, first-backup upload).
    jobs_axis = [1, 2, 4, 8, 16, 32]
    overlay = {
        "jobs": jobs_axis,
        "slimstore_mbps": [
            slimstore_backup_scaling(
                len(data), serial_total, len(data), jobs, lnode_count=4
            )
            for jobs in jobs_axis
        ],
        "restic_mbps": [
            restic_aggregate_throughput(
                len(data), serial_total, serial_total * 0.35, jobs
            )
            for jobs in jobs_axis
        ],
    }

    payload = {
        "experiment": "wallclock_scaling",
        "cpu_count": os.cpu_count(),
        "stream_bytes": len(data),
        "chunker": "fastcdc",
        "rounds": ROUNDS,
        "serial": {
            "chunk_seconds": chunk_s,
            "fingerprint_seconds": fp_s,
            "total_seconds": serial_total,
            "throughput_mbps": len(data) / serial_total / _MB,
        },
        "parallel": points,
        "min_speedup_required": _min_speedup(),
        "simulated_fig10": overlay,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_wallclock.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    lines = [
        "Wall-clock scaling: chunk + fingerprint, serial vs parallel engine",
        "=" * 68,
        f"stream: {len(data) / _MB:.1f} MiB S-DB, cpu_count={os.cpu_count()}, "
        f"best of {ROUNDS}",
        f"serial   : {serial_total * 1e3:8.1f} ms "
        f"(chunk {chunk_s * 1e3:.1f} + fingerprint {fp_s * 1e3:.1f}) "
        f"{len(data) / serial_total / _MB:7.1f} MB/s",
    ]
    for point in points:
        lines.append(
            f"workers={point['workers']:<2}: {point['seconds'] * 1e3:8.1f} ms "
            f"{point['throughput_mbps']:7.1f} MB/s  "
            f"speedup {point['speedup_vs_serial']:5.2f}x  "
            f"identical={point['byte_identical']}"
        )
    record("wallclock_scaling", "\n".join(lines))

    # Correctness is unconditional; a fast engine that rewrites the
    # repository is not an optimisation.
    assert all(point["byte_identical"] for point in points)
    # The speedup bar applies at the widest >=4-worker point measured
    # (single-core CI runners keep the bar via WALLCLOCK_MIN_SPEEDUP).
    gated = [p for p in points if p["workers"] >= 4] or points
    best = max(p["speedup_vs_serial"] for p in gated)
    assert best >= _min_speedup(), (
        f"chunk+fingerprint speedup {best:.2f}x below the "
        f"{_min_speedup():.2f}x bar"
    )
