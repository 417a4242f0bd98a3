"""In-memory span tracer that wraps the program's layer functions from outside.

The tracer never edits the program: :meth:`Tracer.install` replaces each
listed function or method with a thin wrapper and :meth:`Tracer.uninstall`
puts the originals back.  Each wrapper records one span (layer, start,
end, parent span, job id) into a flat in-memory list.  The parent is the
innermost span open on the same thread when the call started, so spans of
one top-level operation form a tree under the root the benchmark opens with
:meth:`Tracer.op`, and every span carries that root's job id.

Self time is a span's duration minus the durations of its direct children;
because children nest strictly inside their parent on one thread, the self
times of all spans sum to the roots' total duration.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

#: A measure hook: ``(args, kwargs, result) -> int`` quantity of one call.
Measure = Callable[[tuple, dict, Any], int]


@dataclass(frozen=True)
class Hook:
    """One function to wrap and the layer its spans are booked under."""

    layer: str
    owner: Any
    attr: str
    #: Optional quantity recorded per outermost call (bytes, reads, ...).
    measure: Measure | None = None


@dataclass
class LayerTotals:
    """Aggregates of one layer over a set of spans."""

    calls: int = 0
    quantity: int = 0
    self_ns: int = 0


class Tracer:
    """Span recorder; spans live in memory until :meth:`write_chrome`."""

    def __init__(self) -> None:
        # One span = [layer, start_ns, end_ns, parent_index, job, quantity,
        # thread_id, outermost-of-its-layer].
        self.spans: list[list] = []
        #: job id -> (operation kind, phase) of the root that opened it.
        self.jobs: dict[int, tuple[str, str]] = {}
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []
        self._next_job = 0

    # --- stack -------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, job: int | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        outermost = True
        if parent >= 0:
            parent_span = self.spans[parent]
            job = parent_span[4] if job is None else job
            outermost = parent_span[0] != layer
        index = len(self.spans)
        self.spans.append(
            [layer, time.perf_counter_ns(), 0, parent, job, 0,
             threading.get_ident(), outermost]
        )
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def op(self, kind: str, phase: str):
        """Root span of one top-level operation; tags a fresh job id."""
        job = self._next_job
        self._next_job += 1
        self.jobs[job] = (kind, phase)
        index = self._open(f"op.{kind}", job)
        try:
            yield job
        finally:
            self._close(index)

    # --- wrapping ----------------------------------------------------------
    def install(self, hooks: list[Hook]) -> None:
        """Wrap every hook's function; :meth:`uninstall` undoes it."""
        for hook in hooks:
            original = hook.owner.__dict__[hook.attr]
            self._saved.append((hook.owner, hook.attr, original))
            setattr(hook.owner, hook.attr, self._wrap(hook, original))

    def uninstall(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        tracer = self
        layer = hook.layer
        measure = hook.measure

        def traced(*args, **kwargs):
            index = tracer._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if measure is not None and tracer.spans[index][7]:
                tracer.spans[index][5] = measure(args, kwargs, result)
            return result

        traced.__name__ = getattr(original, "__name__", hook.attr)
        traced.__doc__ = getattr(original, "__doc__", None)
        traced.__wrapped__ = original
        return traced

    # --- analysis ----------------------------------------------------------
    def self_times(self) -> list[int]:
        """Self time (ns) of every span, in span order."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            parent = span[3]
            if parent >= 0:
                own[parent] -= span[2] - span[1]
        return own

    def totals(
        self, select: Callable[[tuple[str, str]], bool] = lambda job: True
    ) -> dict[str, LayerTotals]:
        """Per-layer calls, quantities and self/wall time over the spans of
        every job whose ``(kind, phase)`` satisfies ``select``.

        Calls and quantities count only the outermost span of a layer, so a
        wrapped method calling another of its own layer is one call; self
        time counts every span.
        """
        own = self.self_times()
        out: dict[str, LayerTotals] = defaultdict(LayerTotals)
        for span, self_ns in zip(self.spans, own):
            if not select(self.jobs.get(span[4], ("", ""))):
                continue
            totals = out[span[0]]
            totals.self_ns += self_ns
            if span[7]:
                totals.calls += 1
                totals.quantity += span[5]
        return dict(out)

    def root_wall_ns(self) -> int:
        """Summed duration of every root span (the traced operations)."""
        return sum(span[2] - span[1] for span in self.spans if span[3] < 0)

    def write_chrome(self, path) -> None:
        """Write every span as Chrome trace-event JSON ("X" events, µs)."""
        origin = min((span[1] for span in self.spans), default=0)
        threads: dict[int, int] = {}
        events = []
        for span in self.spans:
            tid = threads.setdefault(span[6], len(threads))
            kind, phase = self.jobs.get(span[4], ("", ""))
            events.append(
                {
                    "name": span[0],
                    "cat": span[0].split(".", 1)[0],
                    "ph": "X",
                    "ts": (span[1] - origin) / 1000,
                    "dur": (span[2] - span[1]) / 1000,
                    "pid": 1,
                    "tid": tid,
                    "args": {"job": span[4], "op": kind, "phase": phase},
                }
            )
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
