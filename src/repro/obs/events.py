"""Structured events: the stack's degradation paths, recorded with cause.

Spans say *where the wall clock went*; events say *what went wrong and
why*.  Every silent fallback in the stack — a Newton ladder escalating
to gmin stepping, a sparse step latching to dense, a spectral solve
rejected on residual, a batched group dropping to serial, a store
payload quarantined, a pool worker restarted, a serve job timed out —
emits one :func:`event` with a name, a severity, and the fields a
post-mortem needs (the rejecting residual, the triggering exception,
the quarantine reason).

Disarmed (the default), :func:`event` is a single module-global
``None`` check — the same cost contract as ``span`` / ``prof_count`` /
``fault_point`` — so the hooks live permanently on degradation paths
without perturbing any byte-identity or overhead budget.  Armed
(:func:`activate`, :meth:`EventLog.activate`, or ``REPRO_OBS=events``),
each event lands in the active :class:`EventLog` as one plain dict::

    {"name": ..., "severity": "info"|"warn"|"error", "t": <wall epoch>,
     "trace_id": ..., "span_id": ..., "pid": ..., "fields": {...}}

``trace_id``/``span_id`` come from the thread's current span context
(:func:`repro.obs.trace.current_context`), so an event raised three
layers under a ``serve.job`` span is correlated to that job's trace
with no plumbing.  The log is a bounded ring — overflow evicts the
oldest and counts the drops — and severity tallies are monotonic
(they survive eviction), which is what the service surfaces as the
``events.*`` counters in ``/v1/metrics`` and the Prometheus
exposition.  The ring, its JSONL export and :func:`load_jsonl` are the
tracer's (:class:`repro.obs.trace.Ring`); pool workers collect into a
fresh local log whose events travel home in the chunk's obs bundle
(:func:`repro.obs.harness.collect`), exactly like spans.

Events record diagnosis only — never results — so arming cannot change
the bytes of any exported document (CI proves it with ``cmp``).
"""

from __future__ import annotations

import os
import time

from repro.obs import trace as _trace
from repro.obs.trace import load_jsonl  # noqa: F401 — the one JSONL reader

#: Recognised severities, mildest first.
SEVERITIES = ("info", "warn", "error")


class EventLog(_trace.Ring):
    """The ring of structured events, plus per-severity tallies that
    are monotonic (they survive eviction, like :attr:`recorded` and
    :attr:`dropped`)."""

    def __init__(self, buffer: int = 65536, export_path=None) -> None:
        super().__init__(buffer, export_path)
        self._severity_counts = {s: 0 for s in SEVERITIES}

    def _tally(self, event_dict: dict) -> None:
        sev = event_dict.get("severity")
        if sev in self._severity_counts:
            self._severity_counts[sev] += 1

    def events(self, name: str | None = None,
               severity: str | None = None) -> list[dict]:
        """Buffered events (a copy), optionally filtered by exact name
        and/or severity."""
        events = self._copy()
        if name is not None:
            events = [e for e in events if e.get("name") == name]
        if severity is not None:
            events = [e for e in events if e.get("severity") == severity]
        return events

    def severity_counts(self) -> dict:
        """Monotonic per-severity tallies (survive ring eviction) —
        the ``events.*`` counters the service exposes."""
        with self._lock:
            return dict(self._severity_counts)

    def activate(self):
        """Context manager arming this log (restores the previous one
        on exit) — the worker/test-scoped arming path."""
        return _trace.armed(activate, self)


#: The single armed event log; ``None`` keeps every hook inert.
_ACTIVE: EventLog | None = None


def activate(log: EventLog | None) -> EventLog | None:
    """Arm ``log`` globally (``None`` disarms); returns the previously
    armed log."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, log
    return previous


def deactivate() -> None:
    """Disarm event logging entirely."""
    activate(None)


def active_event_log() -> EventLog | None:
    return _ACTIVE


def event(name: str, severity: str = "warn", **fields) -> None:
    """Record one structured event under the current trace context.
    Disarmed this is one global load and a falsy check — hot-path safe.

    Callers that must *compute* expensive fields (a condition estimate,
    a residual norm) should guard the computation on
    ``active_event_log() is not None`` so the disarmed path stays free.
    """
    log = _ACTIVE
    if log is None:
        return
    ctx = _trace.current_context()
    trace_id, span_id = ctx if ctx is not None else (None, None)
    log.record({
        "name": name,
        "severity": severity,
        "t": time.time(),
        "trace_id": trace_id,
        "span_id": span_id,
        "pid": os.getpid(),
        "fields": fields,
    })


# ----------------------------------------------------------------------
# Presentation / triage
# ----------------------------------------------------------------------
def format_events(events, limit: int = 50) -> str:
    """A flat, newest-last rendering of events for terminal triage."""
    lines = []
    for e in events[-limit:]:
        fields = e.get("fields") or {}
        shown = " ".join(f"{k}={fields[k]!r}" for k in fields)
        trace = e.get("trace_id") or "-"
        lines.append(f"[{e.get('severity', '?'):<5}] "
                     f"{e.get('name', '?'):<32} trace={trace} {shown}")
    return "\n".join(lines)
