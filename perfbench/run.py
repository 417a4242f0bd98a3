"""Wall-clock benchmark of the SLIMSTORE reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload sdb-backup --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs one set-up and one round untraced, then the same again
with the layer tracer installed, and reports the per-layer metrics and the
tracer's own overhead; it also writes the spans as Chrome trace-event JSON.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run facts, the
dataset shape and figures that are not gated go to a JSON file under
``perfbench/out/`` and a summary to standard error.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import copy
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: name -> (unit, clock) of every end-to-end metric.  "wall" metrics are
#: scaled to the sizing host's speed (see :func:`host_factor`).
END_TO_END = {
    "backup_mb_s": ("MiB/s", "wall"),
    "backup_p50_ms": ("ms", "wall"),
    "restore_mb_s": ("MiB/s", "wall"),
    "restore_p50_ms": ("ms", "wall"),
    "browse_read_p50_us": ("us", "wall"),
    "browse_read_p99_us": ("us", "wall"),
    "browse_flush_p50_ms": ("ms", "wall"),
    "space_ratio": ("ratio", "none"),
    "backup_virtual_mb_s": ("virtual-MiB/s", "virtual"),
    "restore_virtual_mb_s": ("virtual-MiB/s", "virtual"),
    "setup_s": ("s", "wall"),
    "peak_rss_mb": ("MiB", "none"),
}

#: Quantile of repeated timings that the host factor and the restore
#: metrics take: their fast end, which other tenants' load on a shared
#: host disturbs least.
FAST_QUANTILE = 0.1

#: :data:`FAST_QUANTILE` of the seconds of ``workloads.reference_work``
#: ("native") and ``workloads.interpreted_reference_work``
#: ("interpreted") on the sizing host (2 vCPUs, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = {"native": 0.0058, "interpreted": 0.0085}

#: Reference timings on each side of a sample that its host factor uses
#: (about 3 s each way, see ``workloads.CALIBRATE_EVERY_S``).
NEAREST_REFERENCES = 12

#: The timed lists of :class:`workloads.Samples` that are host-scaled, and
#: the reference work each is scaled by.  The restore path is mostly
#: interpreted calls: when the host slowed down it slowed about 1.7x as
#: far (in log terms) as the native reference did, and about as far as
#: the interpreted one.
TIMED = {
    "setups": "native",
    "backups": "native",
    "restores": "interpreted",
    "reads": "native",
    "flushes": "native",
}


def host_factors(samples, stamps, kind: str = "native") -> list[float]:
    """How much slower than the sizing host the host ran at each of
    ``stamps``: the :data:`FAST_QUANTILE` of the nearest timings of the
    ``kind`` reference work over its :data:`REFERENCE_S`.

    The shared host this benchmark was sized on changed speed by up to 2x
    for minutes at a time, and within one run, which moved the wall-clock
    figures near each other together.  Dividing each sample's time by the
    factor at its stamp removes that common factor; the raw figures stay
    in the facts file.  The fast end is taken because the reference work,
    timed between the program's operations, itself ran up to 2x slower
    after some of them.
    """
    if not samples.reference:
        return [1.0] * len(stamps)
    at = [timing[0] for timing in samples.reference]
    walls = [timing[1 if kind == "native" else 2] for timing in samples.reference]
    factors = []
    for stamp in stamps:
        index = bisect.bisect(at, stamp)
        near = walls[max(0, index - NEAREST_REFERENCES) : index + NEAREST_REFERENCES]
        factors.append(_percentile(near, FAST_QUANTILE) / REFERENCE_S[kind])
    return factors


def host_scaled(samples):
    """A copy of ``samples`` whose timed walls are divided by the host
    factor at their stamps (see :func:`host_factors`)."""
    scaled = copy.copy(samples)
    for kind, reference in TIMED.items():
        entries = getattr(samples, kind)
        factors = host_factors(samples, samples.stamps.get(kind, []), reference)
        setattr(scaled, kind, [
            (entry[0] / factor, *entry[1:]) if isinstance(entry, tuple) else entry / factor
            for entry, factor in zip(entries, factors)
        ])
    return scaled


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _rate_mib_s(jobs, column: int) -> float:
    """Median over batches (set-ups, rounds or restore passes) of each
    batch's MiB/s."""
    batches: dict[int, list[float]] = {}
    for job in jobs:
        totals = batches.setdefault(job[3], [0.0, 0.0])
        totals[0] += job[1]
        totals[1] += job[column]
    rates = [nbytes / seconds / (1 << 20) for nbytes, seconds in batches.values() if seconds]
    return statistics.median(rates) if rates else 0.0


def _fast_rate_mib_s(jobs) -> float:
    """MiB/s at the :data:`FAST_QUANTILE` of the passes' seconds per byte."""
    passes: dict[int, list[float]] = {}
    for job in jobs:
        totals = passes.setdefault(job[3], [0.0, 0.0])
        totals[0] += job[1]
        totals[1] += job[0]
    per_byte = [seconds / nbytes for nbytes, seconds in passes.values() if nbytes]
    return 1 / _percentile(per_byte, FAST_QUANTILE) / (1 << 20) if per_byte else 0.0


def _fast_median_s(jobs) -> float:
    """Median over targets of each target's :data:`FAST_QUANTILE` time."""
    walls: dict = {}
    for job in jobs:
        walls.setdefault(job[4], []).append(job[0])
    return _percentile([_percentile(w, FAST_QUANTILE) for w in walls.values()], 0.5)


def end_to_end_metrics(samples) -> dict[str, float]:
    """Every :data:`END_TO_END` value from one untraced run's samples, its
    wall-clock figures host-scaled (see :func:`host_scaled`)."""
    return _raw_end_to_end(host_scaled(samples))


def _raw_end_to_end(samples) -> dict[str, float]:
    backup_walls = [job[0] for job in samples.backups]
    return {
        "backup_mb_s": _rate_mib_s(samples.backups, 0),
        "backup_p50_ms": 1e3 * _percentile(backup_walls, 0.5),
        "restore_mb_s": _fast_rate_mib_s(samples.restores),
        "restore_p50_ms": 1e3 * _fast_median_s(samples.restores),
        "browse_read_p50_us": 1e6 * _percentile(samples.reads, 0.5),
        "browse_read_p99_us": 1e6 * _percentile(samples.reads, 0.99),
        "browse_flush_p50_ms": 1e3 * _percentile(samples.flushes, 0.5),
        "space_ratio": statistics.median(samples.space_ratios)
        if samples.space_ratios
        else 0.0,
        "backup_virtual_mb_s": _rate_mib_s(samples.backups, 2),
        "restore_virtual_mb_s": _rate_mib_s(samples.restores, 2),
        "setup_s": statistics.median(samples.setups) if samples.setups else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def ungated_figures(samples) -> dict:
    """Figures reported without a gate: tails with too few samples, the
    attach latency (see README.md), sample counts and the error rate."""
    backup_walls = [job[0] for job in samples.backups]
    restore_walls = [job[0] for job in samples.restores]
    return {
        "attach_p50_ms": 1e3 * _percentile(samples.attaches, 0.5),
        "backup_p99_ms": 1e3 * _percentile(backup_walls, 0.99),
        "restore_p99_ms": 1e3 * _percentile(restore_walls, 0.99),
        "error_rate": samples.failed / max(1, samples.attempted),
        "samples": {
            "backups": len(samples.backups),
            "restores": len(samples.restores),
            "reads": len(samples.reads),
            "flushes": len(samples.flushes),
            "attaches": len(samples.attaches),
            "setups": len(samples.setups),
        },
        "rounds": samples.rounds,
        "errors": samples.errors,
    }


def run_untraced(workload, seed, seconds, scale, work_dir):
    """Set up ``workload.setups`` times, then run the rounds that take
    ``seconds`` on the sizing host (always at least one)."""
    from perfbench.workloads import Client, Samples

    samples = Samples()
    client = Client(workload, seed, scale, work_dir, samples)
    try:
        for _ in range(workload.setups):
            client.setup()
        for round_index in range(max(1, round(seconds / workload.round_seconds))):
            client.run_round(round_index)
    finally:
        client.close()
    return samples, client.shape


def _one_round(workload, seed, scale, work_dir, tracer=None):
    from perfbench.workloads import Client, Samples

    samples = Samples()
    client = Client(workload, seed, scale, work_dir, samples, tracer)
    start = time.perf_counter()
    try:
        client.setup()
        client.run_round(0)
    finally:
        client.close()
    return samples, client.shape, time.perf_counter() - start


def run_traced(workload, seed, scale, work_dir):
    """One untraced and one traced set-up + round; returns the traced
    samples, the tracer, the shape and the tracer's overhead."""
    from perfbench.layers import hooks
    from perfbench.tracer import Tracer

    _, _, untraced_wall = _one_round(workload, seed, scale, work_dir)
    tracer = Tracer()
    tracer.install(hooks())
    try:
        samples, shape, traced_wall = _one_round(
            workload, seed, scale, work_dir, tracer
        )
    finally:
        tracer.uninstall()
    return samples, tracer, shape, traced_wall / untraced_wall - 1, traced_wall


def run_facts(args, work_dir) -> dict:
    import numpy

    from perfbench.workloads import filesystem_type

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "work_dir_filesystem": filesystem_type(work_dir),
        "config": "SlimStoreConfig() defaults (checked per store)",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny runs the self-tests' miniature datasets",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="directory for the facts and trace files (default perfbench/out)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, shape_violations

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    out_dir = args.out or ROOT / "perfbench" / "out"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = measure(args, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    violations = shape_violations(workload, report["shape"]) if args.scale == "full" else []
    report["shape_violations"] = violations
    samples = report.pop("samples")
    correct = samples.failed == 0 and not violations and samples.attempted > 0
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "tracer" in report:
        report.pop("tracer").write_chrome(out_dir / f"{name}.trace.json")
    (out_dir / f"{name}.json").write_text(json.dumps(report, indent=2, default=str))
    for line in _summary(report, correct, samples):
        print(line, file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in report["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


def measure(args, workload, work_dir) -> dict:
    from perfbench.layers import PER_LAYER, per_layer_metrics, phase_self_ms

    report = {"facts": run_facts(args, work_dir)}
    if args.trace:
        samples, tracer, shape, overhead, traced_wall = run_traced(
            workload, args.seed, args.scale, work_dir
        )
        values = per_layer_metrics(tracer, samples, overhead)
        report["metrics"] = {k: (values[k], PER_LAYER[k]) for k in PER_LAYER}
        report["traced_wall_s"] = traced_wall
        report["span_count"] = len(tracer.spans)
        report["self_ms_sum"] = sum(tracer.self_times()) / 1e6
        report["phase_self_ms"] = phase_self_ms(tracer)
        report["tracer"] = tracer
    else:
        samples, shape = run_untraced(
            workload, args.seed, args.seconds, args.scale, work_dir
        )
        values = end_to_end_metrics(samples)
        report["metrics"] = {k: (values[k], END_TO_END[k][0]) for k in END_TO_END}
        report["clocks"] = {k: clock for k, (_, clock) in END_TO_END.items()}
        stamps = [timing[0] for timing in samples.reference]
        report["host_factor"] = {}
        for kind in REFERENCE_S:
            factors = host_factors(samples, stamps, kind) or [1.0]
            report["host_factor"][kind] = {
                "min": min(factors),
                "median": _percentile(factors, 0.5),
                "max": max(factors),
            }
        report["raw_metrics"] = _raw_end_to_end(samples)
    report["ungated"] = ungated_figures(samples)
    report["shape"] = shape
    report["samples"] = samples
    return report


def _summary(report, correct, samples) -> list[str]:
    lines = [
        f"perfbench {report['facts']['workload']} seed={report['facts']['seed']} "
        f"correct={correct} attempted={samples.attempted} failed={samples.failed} "
        f"rounds={samples.rounds}",
        f"  shape: {json.dumps(report['shape'])}",
    ]
    lines += [f"  {key} = {value:.6g} {unit}" for key, (value, unit) in report["metrics"].items()]
    lines += [f"  error: {message}" for message in samples.errors[:5]]
    lines += [f"  shape out of range: {v}" for v in report["shape_violations"]]
    return lines


if __name__ == "__main__":
    sys.exit(main())
