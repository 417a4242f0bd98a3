"""The benchmark's workloads and the closed-loop client that drives them.

One client in one process calls the public API (``SlimStore``,
``BrowseSession`` and ``repro.cli.open_repository``) and waits for each
call before issuing the next.  The store always runs the shipped default
``SlimStoreConfig()``.

A workload run is a set-up, repeated a few times so its median is stable,
followed by as many *rounds* as take the measuring time on the sizing
host.  A round is a fixed amount of work: back up the dataset (unless the
workload ingests it during set-up), restore, browse with interleaved
writes and flushes, and re-attach the repository.  Every restore and browse read is compared byte
for byte with the generator's content, keyed by the version number
``backup()`` (or ``flush()``) returned.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import os
import shutil
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import BrowseSession, SlimStore, SlimStoreConfig
from repro.cli import open_repository
from repro.sim.metrics import TimeBreakdown
from repro.workloads import (
    SDBConfig,
    SDBGenerator,
    SrcTreeConfig,
    SrcTreeGenerator,
    VMFleetConfig,
    VMFleetGenerator,
)

READ_BYTES = 4096
WRITE_BYTES = 4096
#: The client times the reference work after any operation that ends
#: this many seconds or more after the last timing, so every stretch of a
#: run has reference times of its own.
CALIBRATE_EVERY_S = 0.25

_REFERENCE_DATA = bytes(range(256)) * 2048


def reference_work() -> int:
    """A fixed slice of work in the program's mix (interpreted loops and
    dicts, SHA-1 over 4 KiB slices, a numpy scan, buffer joins).

    The client times it between phases; its median time tracks how fast
    the host ran during the run, which the end-to-end metrics scale by.
    """
    data = _REFERENCE_DATA
    table: dict[int, int] = {}
    total = 0
    for i in range(20000):
        table[i & 4095] = i
        total += i * i
    pieces = [data[off : off + 4096] for off in range(0, len(data), 4096)]
    for piece in pieces:
        hashlib.sha1(piece).digest()
    total += int(np.cumsum(np.frombuffer(data, dtype=np.uint8).astype(np.uint64))[-1])
    return total + len(b"".join(pieces))


_BIT_SLOTS = 1 << 20


def _slot(key: bytes, probe: int) -> int:
    digest = hashlib.blake2b(key, digest_size=8, person=b"perfbench").digest()
    return (int.from_bytes(digest, "little") + probe) % _BIT_SLOTS


def interpreted_reference_work() -> int:
    """A fixed slice of interpreter-bound work shaped like the restore
    path's hot loop: one Python call per key and probe, each a keyed
    BLAKE2b digest, int conversions and a bit set in a bytearray.

    When the host slowed down, such calls slowed down further than
    :func:`reference_work` did, and so did the restore path, which is
    mostly such calls; the restore samples are scaled by this work.
    """
    bits = bytearray(_BIT_SLOTS >> 3)
    total = 0
    for i in range(2500):
        key = i.to_bytes(20, "little")
        for probe in range(3):
            slot = _slot(key, probe)
            bits[slot >> 3] |= 1 << (slot & 7)
            total += slot
    return total


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its inputs and the work of one round."""

    name: str
    generator: str
    #: Generator config per scale ("full" for the benchmark, "tiny" for
    #: the self-tests); the seed is added at run time.
    shapes: dict
    #: Allowed (low, high) of each dataset shape figure at full scale.
    shape_ranges: dict
    on_disk: bool
    #: Phases of one round, in order ("backup" starts a fresh store).
    #: Workloads without "backup" ingest into one store during set-up,
    #: attach and restore it there, and keep it for every round: a
    #: repository re-attached after a write that followed an earlier
    #: attach loses index entries (see ``README.md``), and every operation
    #: here must succeed.
    phases: tuple[str, ...]
    #: "newest": newest version of every file; "all": every version,
    #: oldest first.
    restore_scope: str
    #: Times the restore phase restores its targets.  The restore metrics
    #: take the fast end of the repeats (see ``run.FAST_QUANTILE``).
    restore_passes: int
    browse_reads: dict
    #: Wall seconds one full-scale round takes on the sizing host; a run
    #: of ``--seconds`` executes ``seconds / round_seconds`` rounds, so the
    #: work per run does not depend on how fast the host happens to be.
    round_seconds: float
    write_every: int
    flush_every: int
    attaches: int
    setups: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sdb-backup",
            generator="sdb",
            shapes={
                "full": dict(
                    table_count=8, initial_table_bytes=512 << 10, version_count=8
                ),
                "tiny": dict(
                    table_count=2, initial_table_bytes=64 << 10, version_count=3
                ),
            },
            shape_ranges={
                "logical_mib": (27.0, 38.0),
                "backup_jobs": (64, 64),
                "files": (8, 8),
                "cross_version_dup": (0.80, 0.90),
                "intra_version_dup": (0.03, 0.10),
            },
            on_disk=False,
            phases=("backup", "restore", "browse", "attach"),
            restore_scope="newest",
            restore_passes=10,
            browse_reads={"full": 1000, "tiny": 200},
            round_seconds=4.5,
            write_every=50,
            flush_every=250,
            attaches=3,
            setups=15,
        ),
        Workload(
            name="vmfleet-aged-read",
            generator="vmfleet",
            shapes={
                "full": dict(
                    image_count=1, image_bytes=13 << 20, version_count=3
                ),
                "tiny": dict(
                    image_count=2, image_bytes=128 << 10, version_count=2
                ),
            },
            shape_ranges={
                "logical_mib": (39.0, 39.0),
                "backup_jobs": (3, 3),
                "files": (1, 1),
                "cross_version_dup": (0.65, 0.80),
                "intra_version_dup": (0.15, 0.32),
            },
            on_disk=False,
            phases=("browse",),
            restore_scope="all",
            restore_passes=6,
            browse_reads={"full": 1000, "tiny": 200},
            round_seconds=6.5,
            write_every=100,
            flush_every=500,
            attaches=5,
            setups=3,
        ),
        Workload(
            name="srctree-disk",
            generator="srctree",
            shapes={
                "full": dict(file_count=120, version_count=5, size_log_sigma=0.5),
                "tiny": dict(file_count=12, version_count=2),
            },
            shape_ranges={
                "logical_mib": (2.0, 3.3),
                "backup_jobs": (600, 680),
                "files": (120, 150),
                "cross_version_dup": (0.85, 0.99),
                "intra_version_dup": (0.0, 0.10),
            },
            on_disk=True,
            phases=("backup", "attach", "restore", "browse"),
            restore_scope="all",
            restore_passes=1,
            browse_reads={"full": 1000, "tiny": 200},
            round_seconds=5.0,
            write_every=20,
            flush_every=100,
            attaches=5,
            setups=5,
        ),
    )
}

_GENERATORS = {
    "sdb": (SDBConfig, SDBGenerator),
    "vmfleet": (VMFleetConfig, VMFleetGenerator),
    "srctree": (SrcTreeConfig, SrcTreeGenerator),
}


def dataset_shape(versions, summary) -> dict:
    """Logical bytes, jobs, files and measured duplication of a dataset."""
    return {
        "logical_mib": sum(v.total_bytes for v in versions) / (1 << 20),
        "backup_jobs": sum(len(v.files) for v in versions),
        "files": summary.file_count,
        "versions": summary.version_count,
        "cross_version_dup": summary.cross_version_duplication,
        "intra_version_dup": summary.intra_version_duplication,
    }


def shape_violations(workload: Workload, shape: dict) -> list[str]:
    """Shape figures outside the workload's full-scale ranges."""
    return [
        f"{key}={shape[key]!r} outside [{low}, {high}]"
        for key, (low, high) in workload.shape_ranges.items()
        if not low <= shape[key] <= high
    ]


def generate(workload: Workload, seed: int, scale: str):
    """The workload's versions and their shape, from ``seed`` alone."""
    config_cls, generator_cls = _GENERATORS[workload.generator]
    generator = generator_cls(config_cls(seed=seed, **workload.shapes[scale]))
    versions = generator.versions()
    return versions, dataset_shape(versions, generator.summary())


def filesystem_type(path: Path) -> str:
    """Filesystem type of ``path`` from statfs(2) (``"unknown"`` if none)."""
    names = {
        0xEF53: "ext4",
        0x01021994: "tmpfs",
        0x58465342: "xfs",
        0x9123683E: "btrfs",
        0x794C7630: "overlayfs",
        0x6969: "nfs",
        0x65735546: "fuse",
        0x858458F6: "ramfs",
    }
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        buffer = ctypes.create_string_buffer(256)
        if libc.statfs(os.fsencode(str(path)), buffer) != 0:
            return "unknown"
    except (OSError, AttributeError):
        return "unknown"
    magic = int.from_bytes(buffer.raw[:8], "little") & 0xFFFFFFFF
    return names.get(magic, hex(magic))


@dataclass
class Samples:
    """Everything one run measured, appended to as operations complete."""

    setups: list[float] = field(default_factory=list)
    #: (perf_counter at its middle, wall s of :func:`reference_work`, wall
    #: s of :func:`interpreted_reference_work`) of each reference timing.
    reference: list[tuple[float, float, float]] = field(default_factory=list)
    #: (wall s, logical bytes, virtual s, batch) per backup job; a batch is
    #: one set-up or one round.
    backups: list[tuple[float, int, float, int]] = field(default_factory=list)
    #: (wall s, logical bytes, virtual s, pass, (path, version)) per
    #: restore job; a pass restores every target once.
    restores: list[tuple[float, int, float, int, tuple[str, int]]] = field(
        default_factory=list
    )
    reads: list[float] = field(default_factory=list)
    flushes: list[float] = field(default_factory=list)
    attaches: list[float] = field(default_factory=list)
    space_ratios: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    rounds: int = 0
    #: Figures the per-layer metrics need from the jobs' own reports.
    backup_counters: Counter = field(default_factory=Counter)
    restore_counters: Counter = field(default_factory=Counter)
    browse_counters: Counter = field(default_factory=Counter)
    backup_breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    restore_breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    backed_up_bytes: int = 0
    restored_bytes: int = 0
    bytes_reclaimed: int = 0
    cache_stats: list = field(default_factory=list)
    #: perf_counter of each entry of the timed lists ("setups", "backups",
    #: "restores", "reads", "flushes"), by list name.
    stamps: dict[str, list[float]] = field(default_factory=dict)

    def timed(self, kind: str, entry, at: float | None = None) -> None:
        """Append ``entry`` to the timed list ``kind``, stamped ``at`` (by
        default now) so the host's speed around it can be looked up."""
        getattr(self, kind).append(entry)
        self.stamps.setdefault(kind, []).append(time.perf_counter() if at is None else at)

    def add_backup(self, report) -> None:
        result = report.result
        self.backup_counters.update(result.counters.as_dict())
        self.backup_breakdown = self.backup_breakdown.merged_with(result.breakdown)
        self.backed_up_bytes += result.logical_bytes
        for maintenance in (report.reverse_dedup, report.compaction):
            if maintenance is not None:
                self.bytes_reclaimed += maintenance.bytes_reclaimed

    def add_restore(self, result) -> None:
        self.restore_counters.update(result.counters.as_dict())
        self.restore_breakdown = self.restore_breakdown.merged_with(result.breakdown)
        self.restored_bytes += len(result.data)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


class Client:
    """The closed-loop client: one operation at a time, each checked."""

    def __init__(self, workload, seed, scale, work_dir, samples, tracer=None):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.work_dir = Path(work_dir)
        self.samples = samples
        self.tracer = tracer
        self.store = None
        self.session: BrowseSession | None = None
        self.repo_dir: Path | None = None
        #: (path, version) -> committed content.
        self.truth: dict[tuple[str, int], bytes] = {}
        self.versions = None
        self.shape: dict = {}
        self.logical_bytes = 0
        #: Set-ups and rounds run so far.
        self.batch = 0
        #: Restore passes run so far.
        self.restore_batch = 0
        self._repos = 0
        #: perf_counter at the end of the last reference timing, and the
        #: seconds all reference timings took so far.
        self._calibrated_at = 0.0
        self._calibration_s = 0.0

    # --- one timed, checked operation ------------------------------------
    def _op(self, kind: str, phase: str, call):
        """Run ``call`` as one operation; returns (result, wall s) or
        (None, None) when it raised."""
        self.samples.attempted += 1
        scope = self.tracer.op(kind, phase) if self.tracer else nullcontext()
        with scope:
            start = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # a failed operation is counted, not fatal
                self.samples.fail(f"{kind}: {type(exc).__name__}: {exc}")
                return None, None
            wall = time.perf_counter() - start
        if start + wall - self._calibrated_at >= CALIBRATE_EVERY_S:
            self.calibrate()
        return result, wall

    def calibrate(self) -> None:
        """Time one :func:`reference_work` and one
        :func:`interpreted_reference_work` (between operations)."""
        start = time.perf_counter()
        reference_work()
        middle = time.perf_counter()
        interpreted_reference_work()
        self._calibrated_at = time.perf_counter()
        self._calibration_s += self._calibrated_at - start
        self.samples.reference.append(
            (middle, middle - start, self._calibrated_at - middle)
        )

    # --- stores --------------------------------------------------------------
    def _new_store(self):
        self._retire_session()
        if self.store is not None:
            self.store.close()
        if self.workload.on_disk:
            if self.repo_dir is not None:
                shutil.rmtree(self.repo_dir, ignore_errors=True)
            self.repo_dir = self.work_dir / f"repo-{self._repos}"
            self._repos += 1
            store = open_repository(self.repo_dir)
        else:
            store = SlimStore()
        if store.config != SlimStoreConfig():
            raise RuntimeError("the store does not run the default SlimStoreConfig()")
        self.store = store
        self.truth = {}

    def close(self) -> None:
        self._retire_session()
        if self.store is not None:
            self.store.close()
            self.store = None
        if self.repo_dir is not None:
            shutil.rmtree(self.repo_dir, ignore_errors=True)

    # --- phases --------------------------------------------------------------
    def setup(self) -> None:
        """Generate the dataset.  A set-up ingest workload also ingests it,
        then (outside the set-up timing) re-attaches the store and restores
        every version while the store is as the ingest left it."""
        self.batch += 1
        calibrated = self._calibration_s
        start = time.perf_counter()
        self.versions, self.shape = generate(self.workload, self.seed, self.scale)
        self.logical_bytes = sum(v.total_bytes for v in self.versions)
        if self.ingest_in_setup:
            self._new_store()
            self.backup_phase("setup")
        end = time.perf_counter()
        # The reference timings between the ingest's jobs are not set-up.
        self.samples.timed(
            "setups", end - start - (self._calibration_s - calibrated), (start + end) / 2
        )
        gc.collect()
        self.calibrate()
        if self.ingest_in_setup:
            # Attached right after the ingest, before any later write, so
            # no write falls between two attaches of one store (see the
            # ``phases`` note).  The restores run here too: browse flushes
            # later rewrite containers of the versions they read.
            self.attach_phase()
            self.restore_phase(
                self.restore_targets(), self.workload.restore_passes
            )

    def backup_phase(self, phase: str) -> None:
        store = self.store
        for version in self.versions:
            for item in version.files:
                report, wall = self._op(
                    "backup", phase, lambda: store.backup(item.path, item.data)
                )
                if report is None:
                    continue
                self.truth[(item.path, report.version)] = item.data
                self.samples.timed(
                    "backups",
                    (wall, len(item.data), report.result.elapsed_seconds, self.batch),
                )
                self.samples.add_backup(report)
        self.samples.space_ratios.append(
            store.space_report().total_bytes / self.logical_bytes
        )

    def restore_targets(self) -> list[tuple[str, int]]:
        if self.workload.restore_scope == "all":
            return sorted(self.truth, key=lambda key: (key[1], key[0]))
        newest: dict[str, int] = {}
        for path, version in self.truth:
            newest[path] = max(version, newest.get(path, version))
        return sorted(newest.items())

    def restore_phase(self, targets, passes: int = 1) -> None:
        for _ in range(passes):
            self.restore_batch += 1
            self._restore_pass(targets)

    def _restore_pass(self, targets) -> None:
        store = self.store
        for path, version in targets:
            result, wall = self._op(
                "restore", "restore", lambda: store.restore(path, version)
            )
            if result is None:
                continue
            if result.data != self.truth[(path, version)]:
                self.samples.fail(f"restore {path}@{version}: bytes differ")
                continue
            self.samples.timed(
                "restores",
                (
                    wall,
                    len(result.data),
                    result.elapsed_seconds,
                    self.restore_batch,
                    (path, version),
                )
            )
            self.samples.add_restore(result)

    def browse_phase(self, round_index: int) -> None:
        """Uniform random 4 KiB reads over every committed version, with a
        4 KiB write to one file's newest version every ``write_every`` reads
        (read back at once) and a flush every ``flush_every`` reads."""
        if not self.truth:
            return
        workload = self.workload
        rng = np.random.default_rng([self.seed, round_index])
        session = self._browse_session()
        targets = sorted(self.truth)
        dirty: dict[tuple[str, int], bytearray] = {}
        paths = sorted({path for path, _ in targets})
        writable = paths[int(rng.integers(len(paths)))]
        reads = workload.browse_reads[self.scale]
        for index in range(1, reads + 1):
            key = targets[int(rng.integers(len(targets)))]
            content = dirty[key] if key in dirty else self.truth[key]
            offset = READ_BYTES * int(rng.integers(max(1, len(content) // READ_BYTES)))
            self._read(session, key, offset, content)
            if index % workload.write_every == 0:
                key = (writable, max(v for p, v in self.truth if p == writable))
                content = dirty.setdefault(key, bytearray(self.truth[key]))
                span = max(1, len(content) - WRITE_BYTES + 1)
                offset = int(rng.integers(span))
                payload = rng.integers(0, 256, WRITE_BYTES, dtype=np.uint8).tobytes()
                end = min(len(content), offset + WRITE_BYTES)
                written, _ = self._op(
                    "browse_write",
                    "browse",
                    lambda: session.write(writable, offset, payload[: end - offset]),
                )
                if written is not None:
                    content[offset:end] = payload[: end - offset]
                    self._read(session, key, offset, content)
            if index % workload.flush_every == 0 or index == reads:
                self._flush(session, dirty, targets)
                writable = paths[int(rng.integers(len(paths)))]

    def _browse_session(self) -> BrowseSession:
        """The current store's browse session.  It is kept across rounds,
        as a mounted file system keeps its cache, until the store is
        replaced or re-attached."""
        if self.session is None:
            self.session = BrowseSession(self.store)
            self.samples.cache_stats.append(self.session.stats)
        return self.session

    def _retire_session(self) -> None:
        if self.session is not None:
            self.samples.browse_counters.update(self.session.counters.as_dict())
            self.session = None

    def _read(self, session, key, offset, content) -> None:
        path, version = key
        data, wall = self._op(
            "browse_read",
            "browse",
            lambda: session.read(path, offset, READ_BYTES, version=version),
        )
        if data is None:
            return
        if data != bytes(content[offset : offset + READ_BYTES]):
            self.samples.fail(f"browse read {path}@{version}+{offset}: bytes differ")
            return
        self.samples.timed("reads", wall)

    def _flush(self, session, dirty, targets) -> None:
        if not dirty:
            return
        reports, wall = self._op("browse_flush", "browse", session.flush)
        if reports is None:
            return
        self.samples.timed("flushes", wall)
        for report in reports:
            content = dirty.pop((report.path, report.base_version), None)
            if content is None:
                self.samples.fail(f"flush of {report.path}: no writes pending")
                continue
            key = (report.path, report.version)
            self.truth[key] = bytes(content)
            targets.append(key)
            self.samples.add_backup(report.backup_report)
        for key in dirty:
            self.samples.fail(f"flush left {key} unpublished")
        dirty.clear()

    def attach_phase(self) -> None:
        """Re-attach the repository (attach-time recovery included)."""
        expected = sorted(self.truth)
        for _ in range(self.workload.attaches):
            old = self.store
            self._retire_session()
            old.close()
            # An attach normally starts a fresh process: collect the garbage
            # earlier work left, so it is not charged to the attach.
            gc.collect()
            if self.workload.on_disk:
                call = lambda: open_repository(self.repo_dir)  # noqa: E731
            else:
                def call():
                    store = SlimStore(old.config, old.oss)
                    store.recover()
                    return store
            store, wall = self._op("attach", "attach", call)
            if store is None:
                self.store = None
                return
            self.store = store
            live = sorted((p, v) for p in store.catalog.paths() for v in store.versions(p))
            if live != expected:
                self.samples.fail("attach: catalog differs from the versions written")
                continue
            self.samples.attaches.append(wall)

    @property
    def ingest_in_setup(self) -> bool:
        return "backup" not in self.workload.phases

    def run_round(self, round_index: int) -> None:
        self.batch += 1
        for phase in self.workload.phases:
            self.calibrate()
            if phase == "backup":
                self._new_store()
                self.backup_phase("backup")
            elif self.store is None:
                return
            elif phase == "restore":
                self.restore_phase(
                    self.restore_targets(), self.workload.restore_passes
                )
            elif phase == "browse":
                self.browse_phase(round_index)
            elif phase == "attach":
                self.attach_phase()
        self.samples.rounds += 1
        # Collect the round's garbage outside the timed operations, so
        # peak memory and the next round do not depend on collector timing.
        gc.collect()
