"""Which program functions the traced run wraps, and the per-layer metrics.

Each layer is named ``<module>.<function>`` after the ``repro`` module it
lives in.  The wrapped functions are the layers' public entry points; a
layer's self time is its spans' time minus the time of the wrapped layers
they call.  Ratios and byte counts that no wrapped call returns come from
the reports the public API hands back (``BackupReport``, ``RestoreResult``,
``BrowseSession.stats``).
"""

from __future__ import annotations

from repro.chunking import fastcdc, fixed, gear, rabin
from repro.core import (
    blockcache,
    browse,
    container,
    dedup,
    global_index,
    gnode,
    journal,
    recipe,
    restore,
    restore_cache,
    restore_plan,
    similar_index,
    system,
)
from repro.exec import engine
from repro.fingerprint import hashing
from repro.kvstore import bloom
from repro.oss import backend, object_store

from perfbench.tracer import Hook, Tracer


def _len_arg(position: int):
    return lambda args, kwargs, result: len(args[position])


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _spans_bytes(args, kwargs, result) -> int:
    return sum(len(item[1]) for item in result)


def _ranges_bytes(args, kwargs, result) -> int:
    return sum(len(item) for item in result)


def _container_bytes(args, kwargs, result) -> int:
    return args[1].payload_bytes


def _read_bytes(args, kwargs, result) -> int:
    return len(result) if isinstance(result, (bytes, bytearray)) else 0


def _put_bytes(args, kwargs, result) -> int:
    return len(args[3] if len(args) > 3 else kwargs["data"])


def _planned_reads(args, kwargs, result) -> int:
    return len(result.reads)


def hooks() -> list[Hook]:
    """Every function the traced run wraps, with its layer name."""
    out: list[Hook] = []

    def add(layer, owner, names, measure=None):
        for name in names:
            out.append(Hook(layer, owner, name, measure))

    for cls in (fastcdc.FastCDCChunker, gear.GearChunker, rabin.RabinChunker,
                fixed.FixedChunker):
        if "boundaries" in cls.__dict__:
            add("chunking.boundaries", cls, ["boundaries"], _len_arg(1))
    add("exec.chunk_and_fingerprint", engine.ParallelExecutor,
        ["chunk_and_fingerprint"])
    # make_fingerprinter reads these module globals when a store is built,
    # so stores built while the tracer is installed call the wrappers.
    add("fingerprint", hashing, ["fingerprint", "_blake2b_fingerprint"],
        _len_arg(0))
    add("dedup.backup", dedup.BackupEngine, ["backup"])
    add("global_index.probe", global_index.GlobalIndex,
        ["maybe_contains", "maybe_contains_many", "lookup", "get_many"])
    add("global_index.put_many", global_index.GlobalIndex, ["put_many"])
    add("kvstore.bloom", bloom.BloomFilter, ["add", "update", "__contains__"])
    add("kvstore.bloom", bloom.CountingBloomFilter,
        ["add", "remove", "count", "__contains__"])
    add("container.write", container.ContainerStore, ["write"], _container_bytes)
    add("container.read", container.ContainerStore,
        ["read_data", "read_chunk"], _read_bytes)
    add("container.read", container.ContainerStore, ["read_spans"], _spans_bytes)
    add("container.read", container.ContainerStore, ["read_meta"])
    add("recipe.put", recipe.RecipeStore, ["put_recipe", "put_recipe_index"],
        lambda args, kwargs, result: result)
    add("recipe.get", recipe.RecipeStore,
        ["get_recipe", "open_recipe", "get_recipe_index"])
    add("similar_index.register", similar_index.SimilarFileIndex, ["register"])
    add("similar_index.lookup", similar_index.SimilarFileIndex, ["find_similar"])
    add("catalog.to_json", system.VersionCatalog, ["to_json"], _len_result)
    add("journal", journal.IntentJournal, ["begin", "update", "close"])
    add("gnode.reverse_dedup", gnode.GNode, ["reverse_dedup"])
    add("gnode.compact_sparse", gnode.GNode, ["compact_sparse"])
    add("restore_plan.plan", restore_plan.RestorePlanner, ["plan"], _planned_reads)
    add("restore_cache", restore_cache.FullVisionCache,
        ["status_of", "lookup", "peek", "consume", "insert_chunk",
         "insert_container", "memory_used", "disk_used"])
    add("restore_cache", restore_cache.LookAheadWindow,
        ["advance_past", "__contains__", "upcoming_container_ids"])
    add("restore.restore", restore.RestoreEngine, ["restore"])
    add("blockcache", blockcache.BlockCache,
        ["memory_used", "disk_used", "resident_keys", "contains", "is_dirty",
         "dirty_keys", "dirty_bytes", "get", "peek", "put", "mark_clean",
         "rekey", "drop", "drop_version"])
    add("browse.read", browse.BrowseFile, ["read"])
    add("browse.fetch_chunks", browse.BrowseSession, ["fetch_chunks"])
    add("browse.flush", browse.BrowseFile, ["flush"])
    add("oss.get", object_store.ObjectStorageService, ["get_object"], _len_result)
    add("oss.get", object_store.ObjectStorageService, ["get_range"], _read_bytes)
    add("oss.get", object_store.ObjectStorageService, ["get_ranges"],
        _ranges_bytes)
    add("oss.put", object_store.ObjectStorageService, ["put_object"], _put_bytes)
    add("oss.backend_put", backend.InMemoryBackend, ["put"])
    add("oss.backend_put", backend.FilesystemBackend, ["put"])
    return out


#: Fig 2 / Fig 5(d) rows: virtual TimeBreakdown fields and traced layers.
SIM_ROWS = {
    "chunking": (("chunking",), ("chunking.boundaries", "exec.chunk_and_fingerprint")),
    "fingerprinting": (("fingerprinting",), ("fingerprint",)),
    "index": (
        ("index_query",),
        ("global_index.probe", "global_index.put_many", "kvstore.bloom",
         "similar_index.register", "similar_index.lookup", "recipe.get"),
    ),
    "network": (("upload", "download"), ("oss.get", "oss.put", "oss.backend_put")),
}

#: name -> unit of every per-layer metric, in report order.
PER_LAYER: dict[str, str] = {
    "chunking.boundaries.calls": "count",
    "chunking.boundaries.bytes": "bytes",
    "chunking.boundaries.self_ms": "ms",
    "exec.chunk_and_fingerprint.calls": "count",
    "exec.chunk_and_fingerprint.self_ms": "ms",
    "fingerprint.calls": "count",
    "fingerprint.bytes": "bytes",
    "fingerprint.self_ms": "ms",
    "dedup.backup.self_ms": "ms",
    "dedup.skip_hit_ratio": "ratio",
    "dedup.dup_bytes_frac": "ratio",
    "global_index.probe.calls": "count",
    "global_index.probe.self_ms": "ms",
    "global_index.put_many.self_ms": "ms",
    "kvstore.bloom.calls": "count",
    "kvstore.bloom.self_ms": "ms",
    "container.write.calls": "count",
    "container.write.bytes": "bytes",
    "container.write.self_ms": "ms",
    "container.read.calls": "count",
    "container.read.bytes": "bytes",
    "container.read.self_ms": "ms",
    "recipe.put.bytes": "bytes",
    "recipe.put.self_ms": "ms",
    "recipe.get.self_ms": "ms",
    "similar_index.register.self_ms": "ms",
    "similar_index.lookup.self_ms": "ms",
    "catalog.to_json.calls": "count",
    "catalog.to_json.bytes": "bytes",
    "catalog.to_json.self_ms": "ms",
    "journal.calls": "count",
    "journal.self_ms": "ms",
    "gnode.reverse_dedup.self_ms": "ms",
    "gnode.compact_sparse.self_ms": "ms",
    "gnode.bytes_reclaimed": "bytes",
    "restore_plan.plan.self_ms": "ms",
    "restore_plan.planned_reads": "count",
    "restore_plan.ranged_bytes_saved": "bytes",
    "restore_cache.self_ms": "ms",
    "restore_cache.hit_ratio": "ratio",
    "restore.restore.self_ms": "ms",
    "restore.read_amplification": "ratio",
    "blockcache.hit_ratio": "ratio",
    "blockcache.demotions": "count",
    "blockcache.evictions": "count",
    "blockcache.self_ms": "ms",
    "browse.read.self_ms": "ms",
    "browse.fetch_chunks.self_ms": "ms",
    "browse.flush.self_ms": "ms",
    "oss.get.calls": "count",
    "oss.get.bytes": "bytes",
    "oss.get.self_ms": "ms",
    "oss.put.calls": "count",
    "oss.put.bytes": "bytes",
    "oss.put.self_ms": "ms",
    "oss.backend_put.self_ms": "ms",
    "oss.puts_per_backup": "count",
    "oss.write_amplification": "ratio",
    **{
        f"sim.{row}.{clock}_ms": f"{clock}-ms" if clock == "virtual" else "ms"
        for row in ("chunking", "fingerprinting", "index", "other", "network")
        for clock in ("wall", "virtual")
    },
    "trace.overhead_frac": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, samples, overhead_frac: float) -> dict:
    """Every :data:`PER_LAYER` value from one traced run."""
    totals = tracer.totals()
    jobs = tracer.totals(lambda job: job[0] in ("backup", "restore"))
    backups = tracer.totals(lambda job: job[0] == "backup")
    values: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        entry = totals.get(layer)
        if stat in ("calls", "bytes", "self_ms") and layer:
            if entry is None:
                values[name] = 0
            elif stat == "calls":
                values[name] = entry.calls
            elif stat == "bytes":
                values[name] = entry.quantity
            else:
                values[name] = entry.self_ns / 1e6

    counters = samples.backup_counters
    skips = sum(counters[k] for k in ("skip_success", "skip_fail", "skip_fp_mismatch"))
    values["dedup.skip_hit_ratio"] = _ratio(counters["skip_success"], skips)
    values["dedup.dup_bytes_frac"] = _ratio(counters["dup_bytes"], samples.backed_up_bytes)
    values["gnode.bytes_reclaimed"] = samples.bytes_reclaimed
    restored = samples.restore_counters
    plan = totals.get("restore_plan.plan")
    values["restore_plan.planned_reads"] = plan.quantity if plan else 0
    values["restore_plan.ranged_bytes_saved"] = (
        restored["ranged_bytes_saved"] + samples.browse_counters["ranged_bytes_saved"]
    )
    hits = restored["memory_hits"] + restored["disk_promotions"]
    values["restore_cache.hit_ratio"] = _ratio(hits, hits + restored["cache_misses"])
    values["restore.read_amplification"] = _ratio(
        restored["container_bytes_read"], samples.restored_bytes
    )
    stats = samples.cache_stats
    cache_hits = sum(s.hits for s in stats)
    values["blockcache.hit_ratio"] = _ratio(cache_hits, cache_hits + sum(s.misses for s in stats))
    values["blockcache.demotions"] = sum(s.demotions for s in stats)
    values["blockcache.evictions"] = sum(s.evictions for s in stats)
    backup_puts = backups.get("oss.put")
    backup_jobs = sum(1 for kind, _ in tracer.jobs.values() if kind == "backup")
    values["oss.puts_per_backup"] = _ratio(backup_puts.calls if backup_puts else 0, backup_jobs)
    values["oss.write_amplification"] = _ratio(
        backup_puts.quantity if backup_puts else 0,
        sum(job[1] for job in samples.backups),
    )

    breakdowns = (samples.backup_breakdown, samples.restore_breakdown)
    job_wall_ns = sum(
        span[2] - span[1]
        for span in tracer.spans
        if span[3] < 0 and tracer.jobs.get(span[4], ("", ""))[0] in ("backup", "restore")
    )
    attributed_ns = 0
    for row, (fields, layers) in SIM_ROWS.items():
        wall_ns = sum(jobs[layer].self_ns for layer in layers if layer in jobs)
        attributed_ns += wall_ns
        values[f"sim.{row}.wall_ms"] = wall_ns / 1e6
        values[f"sim.{row}.virtual_ms"] = 1e3 * sum(
            getattr(b, f) for b in breakdowns for f in fields
        )
    values["sim.other.wall_ms"] = (job_wall_ns - attributed_ns) / 1e6
    values["sim.other.virtual_ms"] = 1e3 * sum(b.other for b in breakdowns)
    values["trace.overhead_frac"] = overhead_frac
    return {name: values[name] for name in PER_LAYER}


def phase_self_ms(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Self time per layer within each phase (set-up, backup, restore, ...)."""
    phases = sorted({phase for _, phase in tracer.jobs.values()})
    out = {}
    for phase in phases:
        totals = tracer.totals(lambda job, phase=phase: job[1] == phase)
        out[phase] = {
            layer: round(entry.self_ns / 1e6, 3)
            for layer, entry in sorted(totals.items(), key=lambda kv: -kv[1].self_ns)
        }
    return out
