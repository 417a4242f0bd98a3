"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They run every workload at a miniature scale, so they take seconds; the
full-scale runs belong to ``perfbench/run.py`` alone.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import PER_LAYER, hooks  # noqa: E402
from perfbench.run import (  # noqa: E402
    END_TO_END,
    REFERENCE_S,
    end_to_end_metrics,
    host_factors,
    run_traced,
)
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    Client,
    Samples,
    generate,
    shape_violations,
)

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _run(args, cwd=ROOT):
    return subprocess.run(
        RUN + args, cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    proc = _run([
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--scale", "tiny", "--out", str(tmp_path),
    ])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = (
        PER_LAYER if trace else {name: unit for name, (unit, _) in END_TO_END.items()}
    )
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert (tmp_path / f"{workload}-seed3-trace1.trace.json").is_file()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_expected_payload_counts_as_error(tmp_path, workload):
    samples = Samples()
    client = Client(WORKLOADS[workload], 3, "tiny", tmp_path, samples)
    try:
        client.setup()
        if "backup" in client.workload.phases:
            client._new_store()
            client.backup_phase("backup")
        assert samples.failed == 0
        key = min(client.truth)
        data = bytearray(client.truth[key])
        data[len(data) // 2] ^= 0xFF
        client.truth[key] = bytes(data)
        client.restore_phase([key])
    finally:
        client.close()
    assert samples.failed == 1
    assert samples.failed / samples.attempted > 0


def test_traced_self_times_sum_to_at_most_the_traced_wall(tmp_path):
    samples, tracer, _, overhead, traced_wall = run_traced(
        WORKLOADS["sdb-backup"], 3, "tiny", tmp_path
    )
    own = tracer.self_times()
    assert samples.failed == 0
    assert min(own) >= 0
    assert 0 < sum(own) <= traced_wall * 1e9
    assert sum(own) == tracer.root_wall_ns()
    assert overhead > -1
    assert all(
        span[4] == tracer.spans[span[3]][4] for span in tracer.spans if span[3] >= 0
    )


def test_host_scaling_uses_the_reference_times_near_each_sample():
    samples = Samples()
    native, interpreted = REFERENCE_S["native"], REFERENCE_S["interpreted"]
    # Reference timings at t = 0..99 s; the host runs 2x slow from 50 s on.
    for t in range(100):
        slow = 2.0 if t >= 50 else 1.0
        samples.reference.append((float(t), native * slow, interpreted * slow))
    assert host_factors(samples, [10.0, 90.0]) == pytest.approx([1.0, 2.0])
    # Two restore passes of one 1 MiB target: 0.01 s on the fast stretch,
    # 0.02 s on the slow one, so the same 0.01 s once scaled.
    for index, (at, wall) in enumerate([(20.0, 0.01), (80.0, 0.02)]):
        samples.timed("restores", (wall, 1 << 20, 0.0, index, ("a", 1)), at)
    values = end_to_end_metrics(samples)
    assert values["restore_p50_ms"] == pytest.approx(10.0)
    assert values["restore_mb_s"] == pytest.approx(100.0)


def test_uninstall_restores_every_wrapped_function():
    targets = hooks()
    before = [hook.owner.__dict__[hook.attr] for hook in targets]
    tracer = Tracer()
    tracer.install(targets)
    assert all(
        hook.owner.__dict__[hook.attr] is not original
        for hook, original in zip(targets, before)
    )
    tracer.uninstall()
    assert [hook.owner.__dict__[hook.attr] for hook in targets] == before


def test_spans_nest_under_the_operation_that_caused_them():
    tracer = Tracer()

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    from perfbench.tracer import Hook

    tracer.install([Hook("demo.outer", Layer, "outer"), Hook("demo.inner", Layer, "inner")])
    try:
        with tracer.op("backup", "backup") as job:
            assert Layer().outer() == 2
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names == ["op.backup", "demo.outer", "demo.inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1]
    assert {span[4] for span in tracer.spans} == {job}
    totals = tracer.totals()
    assert totals["demo.inner"].calls == 1
    assert sum(t.self_ns for t in totals.values()) == tracer.root_wall_ns()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_full_scale_shape_stays_in_range(workload, seed):
    spec = WORKLOADS[workload]
    versions, shape = generate(spec, seed, "full")
    assert shape_violations(spec, shape) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sdb-backup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
