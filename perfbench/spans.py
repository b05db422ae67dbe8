"""In-memory span recording and per-layer self-time accounting.

The benchmark measures layers from the outside: it wraps public
functions and methods of the program (see ``probes.py``) and records
one :class:`Span` per call.  Spans stay in memory — a list append per
call — and are written out once, when the run ends.

A span's *self time* is its duration minus the part of its interval
covered by its child spans.  :func:`layer_table` sums self time per
layer over the spans of one thread and adds an explicit
``unattributed`` row, so the table always adds up to the wall time it
is given.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

UNATTRIBUTED = "unattributed"


@dataclass
class Span:
    """One timed call: ids, interval, the layer it belongs to."""

    span_id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent_id: int | None = None
    thread: str = ""
    run_id: str = ""
    request_id: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any thread; parents link within a thread.

    ``run_id`` is shared by every span of one benchmark run; a span may
    also carry a ``request_id`` shared with the client-side record of
    the same request.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, *, request_id: str | None = None,
             attrs: dict | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent.request_id
        span = Span(span_id=next(self._ids), name=name, layer=layer,
                    start=time.perf_counter(),
                    parent_id=parent.span_id if parent else None,
                    thread=threading.current_thread().name,
                    run_id=self.run_id, request_id=request_id,
                    attrs=dict(attrs or {}))
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, layer: str, **kwargs):
        """Context manager around :meth:`open`/:meth:`close`."""
        span = self.open(name, layer, **kwargs)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn, name: str, layer: str, *, on_call=None):
        """Return *fn* wrapped so each call records a span.

        ``on_call(span, args, kwargs, result)`` may add attributes after
        a successful call (row counts, byte counts); it is not called
        when *fn* raises, and the span gets ``attrs["error"]`` instead.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                recorder.close(span)
                raise
            recorder.close(span)
            if on_call is not None:
                on_call(span, args, kwargs, result)
            return result

        return wrapper

    def write_jsonl(self, path) -> int:
        """Write every finished span as one JSON line; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), default=str) + "\n")
        return len(self.spans)


def load_jsonl(path) -> list[Span]:
    """Read back the spans written by :meth:`Recorder.write_jsonl`."""
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    return {span.span_id: span.duration
            - _covered(children.get(span.span_id, []), span.start, span.end)
            for span in spans}


def layer_table(spans: list[Span], wall: float, layers=()) -> dict[str, float]:
    """Per-layer self time over *spans*, plus an ``unattributed`` row.

    *spans* must not overlap each other except by nesting (one thread's
    blocking path, or the requests of one client) and must lie within
    *wall* seconds; the rows then sum to *wall* exactly.  Every layer in
    *layers* gets a row, 0 when no span reached it.
    """
    own = self_times(spans)
    table = {layer: 0.0 for layer in layers}
    for span in spans:
        table[span.layer] = table.get(span.layer, 0.0) + own[span.span_id]
    table[UNATTRIBUTED] = wall - sum(table.values())
    return table


def format_table(table: dict[str, float], wall: float) -> str:
    """Human-readable layer table (seconds), largest self time first."""
    lines = [f"{'layer':<24}{'self s':>12}{'share':>9}"]
    for layer, value in sorted(table.items(), key=lambda kv: -kv[1]):
        share = value / wall if wall > 0 else 0.0
        lines.append(f"{layer:<24}{value:>12.4f}{share:>8.1%}")
    lines.append(f"{'total (wall)':<24}{sum(table.values()):>12.4f}")
    return "\n".join(lines)
