"""Spans and trace IDs: who spent the wall clock, structured.

The stack is instrumented with **spans** — ``with span("campaign.chunk",
n_units=12):`` around the phases worth attributing time to — and
**trace points**, zero-duration events inside a span.  Disarmed (the
default), both are a single module-global ``None`` check returning a
shared no-op handle, the same cost contract as
:func:`repro.faults.harness.fault_point`; nothing on a hot path changes
its bytes or its budget.

Armed (:func:`activate`, :meth:`Tracer.activate`, or ``REPRO_OBS=trace``
via :mod:`repro.obs.harness`), every finished span lands in the active
:class:`Tracer` — a :class:`Ring`, the bounded record buffer the event
log shares — as one plain dict::

    {"trace_id": ..., "span_id": ..., "parent_id": ..., "name": ...,
     "t0": <wall epoch>, "dur_s": ..., "attrs": {...}}

Parent/child nesting is tracked per thread: the innermost open span is
the parent of anything opened under it, so a serve worker's
``serve.job`` span automatically parents the campaign's
``campaign.run`` which parents each ``campaign.chunk``.  Crossing a
process boundary is explicit — :func:`current_context` captures
``(trace_id, span_id)`` into a picklable tuple, :func:`seed_context`
adopts it on the far side, and the pool worker's span dicts travel
home in the chunk's obs bundle (:func:`repro.obs.harness.collect`) for
the parent's tracer to :meth:`~Ring.absorb`.

Spans record timing and metadata only — never results — so tracing
armed cannot perturb any byte-identity contract (CI proves it with
``cmp``).
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import uuid
from collections import deque


def new_id() -> str:
    """A fresh 16-hex-char trace/span id (random, not deterministic —
    ids are telemetry, never part of any result)."""
    return uuid.uuid4().hex[:16]


_TLS = threading.local()    # .ctx = (trace_id, innermost open span_id)


@contextlib.contextmanager
def armed(activate, collector):
    """Scoped arming, shared by every collector and by fault plans:
    ``with armed(activate, obj):`` arms ``obj`` through its module's
    ``activate`` and re-arms whatever was armed before on exit."""
    previous = activate(collector)
    try:
        yield collector
    finally:
        activate(previous)


class Ring:
    """A bounded, thread-safe ring of records (plain dicts).

    ``buffer`` caps retained records (oldest evicted first — a
    long-lived service must not grow without bound); :attr:`recorded`
    and :attr:`dropped` count every record and every eviction, so
    triage knows when the window is partial.  ``export_path``
    additionally appends every record as one JSONL line the moment it
    lands (crash-safe flush per line), which is what ``repro trace`` and
    ``repro doctor`` read back with :func:`load_jsonl`.
    """

    def __init__(self, buffer: int = 65536, export_path=None) -> None:
        if buffer < 1:
            raise ValueError(f"buffer must be >= 1, got {buffer}")
        self._lock = threading.Lock()
        self._buffer = buffer
        self._records: deque = deque(maxlen=buffer)
        self.export_path = export_path
        self._export_fh = None
        #: Total records (monotonic, survives eviction).
        self.recorded = 0
        #: Records evicted by ring overflow (monotonic).
        self.dropped = 0

    def record(self, record: dict) -> None:
        with self._lock:
            self._tally(record)
            self.recorded += 1
            if len(self._records) == self._buffer:
                self.dropped += 1
            self._records.append(record)
            if self.export_path is not None:
                if self._export_fh is None:
                    self._export_fh = open(self.export_path, "a")
                self._export_fh.write(json.dumps(record) + "\n")
                self._export_fh.flush()

    def _tally(self, record: dict) -> None:
        """Per-record bookkeeping under the ring's lock (none here)."""

    def absorb(self, records) -> None:
        """Merge records collected elsewhere (a pool worker, a batch
        group), preserving their ids and pids."""
        for record in records:
            self.record(record)

    def _copy(self) -> list[dict]:
        with self._lock:
            return list(self._records)

    def export_jsonl(self, path) -> int:
        """Write every buffered record to ``path`` as JSONL; returns the
        record count."""
        records = self._copy()
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        return len(records)

    def close(self) -> None:
        with self._lock:
            if self._export_fh is not None:
                self._export_fh.close()
                self._export_fh = None


class Tracer(Ring):
    """The ring of finished spans."""

    def spans(self, trace_id: str | None = None) -> list[dict]:
        """Buffered spans (a copy), optionally only one trace's."""
        spans = self._copy()
        if trace_id is None:
            return spans
        return [s for s in spans if s.get("trace_id") == trace_id]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids in the buffer, oldest first."""
        seen: dict[str, None] = {}
        for s in self._copy():
            seen.setdefault(s.get("trace_id"), None)
        return list(seen)

    def activate(self):
        """Context manager arming this tracer (restores the previous
        one on exit) — the worker/test-scoped arming path."""
        return armed(activate, self)


class _NullSpan:
    """The disarmed span handle: one shared instance, no state."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """One armed, open span (context manager)."""

    __slots__ = ("tracer", "name", "attrs", "trace_id", "span_id",
                 "parent_id", "_prev_ctx", "_t0_wall", "_t0")

    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_SpanHandle":
        ctx = getattr(_TLS, "ctx", None)
        self._prev_ctx = ctx
        if ctx is None:
            self.trace_id = new_id()
            self.parent_id = None
        else:
            self.trace_id, self.parent_id = ctx
        self.span_id = new_id()
        _TLS.ctx = (self.trace_id, self.span_id)
        self._t0_wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def annotate(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. units executed)."""
        self.attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._t0
        _TLS.ctx = self._prev_ctx
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer.record({
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t0": self._t0_wall,
            "dur_s": dur,
            "attrs": self.attrs,
            "pid": os.getpid(),
        })
        return False


#: The single armed tracer; ``None`` keeps every span/trace point inert.
_ACTIVE: Tracer | None = None


def activate(tracer: Tracer | None) -> Tracer | None:
    """Arm ``tracer`` globally (``None`` disarms); returns the
    previously armed tracer."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, tracer
    return previous


def deactivate() -> None:
    """Disarm tracing entirely."""
    activate(None)


def active_tracer() -> Tracer | None:
    return _ACTIVE


def span(name: str, **attrs):
    """Open a named span under the thread's current trace context.
    Disarmed this is one global load and a falsy check returning a
    shared no-op handle."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return _SpanHandle(tracer, name, attrs)


def trace_point(name: str, **attrs) -> None:
    """Record a zero-duration event under the current span.  Disarmed
    this is one global load and a falsy check — hot-path safe."""
    tracer = _ACTIVE
    if tracer is None:
        return
    ctx = getattr(_TLS, "ctx", None)
    if ctx is None:
        trace_id, parent_id = new_id(), None
    else:
        trace_id, parent_id = ctx
    tracer.record({
        "trace_id": trace_id,
        "span_id": new_id(),
        "parent_id": parent_id,
        "name": name,
        "t0": time.time(),
        "dur_s": 0.0,
        "attrs": attrs,
        "pid": os.getpid(),
    })


def current_context() -> tuple[str, str] | None:
    """The thread's ``(trace_id, span_id)``, picklable for shipping
    across a process boundary; ``None`` outside any span."""
    return getattr(_TLS, "ctx", None)


class seed_context:
    """Adopt a remote parent context for this thread (context manager):
    spans opened inside nest under ``(trace_id, span_id)`` exactly as if
    the remote span were open locally."""

    def __init__(self, trace_id: str, span_id: str) -> None:
        self._ctx = (trace_id, span_id)
        self._prev = None

    def __enter__(self) -> "seed_context":
        self._prev = getattr(_TLS, "ctx", None)
        _TLS.ctx = self._ctx
        return self

    def __exit__(self, *exc) -> None:
        _TLS.ctx = self._prev


# ----------------------------------------------------------------------
# Presentation
# ----------------------------------------------------------------------
def format_tree(spans, max_attrs: int = 4) -> str:
    """A per-trace indented tree of span names and durations — what
    ``repro trace`` prints.  Children sort by start time; orphaned
    parents (evicted from the buffer) surface their subtree at root."""
    by_id = {s["span_id"]: s for s in spans}
    children: dict[str | None, list[dict]] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None           # orphan: parent span not in this set
        children.setdefault(parent, []).append(s)
    for group in children.values():
        group.sort(key=lambda s: (s.get("t0", 0.0), s.get("span_id", "")))

    lines: list[str] = []

    def walk(parent_id, depth: int) -> None:
        for s in children.get(parent_id, []):
            attrs = s.get("attrs") or {}
            shown = {k: attrs[k] for k in list(attrs)[:max_attrs]}
            extra = f"  {shown}" if shown else ""
            lines.append(f"{'  ' * depth}{s['name']:<24} "
                         f"{1e3 * s.get('dur_s', 0.0):9.2f} ms{extra}")
            walk(s["span_id"], depth + 1)

    traces: dict[str, None] = {}
    for s in spans:
        traces.setdefault(s.get("trace_id"), None)
    for trace_id in traces:
        trace_spans = [s for s in children.get(None, [])
                       if s.get("trace_id") == trace_id]
        if not trace_spans:
            continue
        lines.append(f"trace {trace_id}")
        for root in trace_spans:
            attrs = root.get("attrs") or {}
            shown = {k: attrs[k] for k in list(attrs)[:max_attrs]}
            extra = f"  {shown}" if shown else ""
            lines.append(f"  {root['name']:<24} "
                         f"{1e3 * root.get('dur_s', 0.0):9.2f} ms{extra}")
            walk(root["span_id"], 2)
    return "\n".join(lines)


def slowest_spans(spans, top: int = 10) -> list[dict]:
    """The ``top`` spans by **self-time** (own duration minus the time
    covered by direct children, clamped at zero), slowest first.

    Self-time is what makes a hot *leaf* visible: a ``campaign.run``
    span covering the whole wall clock ranks below the one chunk that
    actually burned it.  Returns copies of the span dicts with a
    ``self_s`` key added — what ``repro trace --top`` prints.
    """
    child_time: dict[str, float] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None:
            child_time[parent] = (child_time.get(parent, 0.0)
                                  + s.get("dur_s", 0.0))
    ranked = []
    for s in spans:
        self_s = max(0.0, s.get("dur_s", 0.0)
                     - child_time.get(s.get("span_id"), 0.0))
        entry = dict(s)
        entry["self_s"] = self_s
        ranked.append(entry)
    ranked.sort(key=lambda s: s["self_s"], reverse=True)
    return ranked[:max(0, top)]


def format_slowest(spans, top: int = 10) -> str:
    """Flat ``--top`` summary: name, self-time, total, trace id."""
    rows = slowest_spans(spans, top)
    if not rows:
        return ""
    lines = [f"slowest {len(rows)} spans by self-time:"]
    for s in rows:
        lines.append(f"  {s.get('name', '?'):<24} "
                     f"self {1e3 * s['self_s']:9.2f} ms   "
                     f"total {1e3 * s.get('dur_s', 0.0):9.2f} ms   "
                     f"trace {s.get('trace_id', '-')}")
    return "\n".join(lines)


def load_jsonl(path) -> list[dict]:
    """Read records back from a ring's JSONL export (spans or events);
    blank lines are ignored, corrupt lines raise."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
