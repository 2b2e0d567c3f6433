"""``REPRO_OBS`` arming: one env var turns the observability layer on.

The grammar is ``REPRO_FAULTS``'s, parsed by the one splitter both
use (:func:`split_spec`: semicolon- or comma-separated components,
colon-separated options)::

    REPRO_OBS="1"                               # everything on
    REPRO_OBS="trace"                           # tracing only
    REPRO_OBS="trace:export=/tmp/spans.jsonl"   # + JSONL append per span
    REPRO_OBS="trace:buffer=100000;profile"     # tracing + profiling
    REPRO_OBS="profile"                         # profiling accumulators
    REPRO_OBS="events"                          # structured event log
    REPRO_OBS="events:export=/tmp/events.jsonl" # + JSONL append per event

Components: ``trace`` (span collection — see :mod:`repro.obs.trace`),
``profile`` (engine accumulators — :mod:`repro.obs.profile`),
``events`` (degradation-path event log — :mod:`repro.obs.events`), and
``metrics`` (accepted for symmetry; service histograms/gauges are
always on, they live on ``ServiceMetrics`` and cost one lock + bisect
per observation).  ``1`` / ``all`` / ``on`` arm every component.
``export=`` and ``buffer=`` apply to the components that own a ring
(``trace``, ``events``); on ``1`` / ``all`` a ``buffer=`` sizes both
rings and an ``export=`` names the span file.

Pool workers do not ship each collector home separately: the executor
runs a chunk through :func:`collect`, which arms fresh local collectors
for whatever is armed and returns one bundle, and the parent folds it
in with :func:`absorb`.

Like the fault harness, arming happens at import time so subprocesses
(CLI runs, CI smoke jobs, forked pool workers) inherit the armed state
from their environment with no code changes.  With ``REPRO_OBS`` unset
this module is inert and every hook stays a single ``None`` check.
"""

from __future__ import annotations

import contextlib
import os

from repro.obs import events as _events
from repro.obs import profile as _profile
from repro.obs import trace as _trace

#: Environment variable holding the compact obs spec.
OBS_ENV = "REPRO_OBS"


class ObsConfig:
    """Parsed arming request: which components, with which options."""

    def __init__(self, trace: bool = False, profile: bool = False,
                 metrics: bool = False, events: bool = False,
                 trace_export=None, trace_buffer: int = 65536,
                 events_export=None, events_buffer: int = 65536) -> None:
        self.trace = trace
        self.profile = profile
        self.metrics = metrics
        self.events = events
        self.trace_export = trace_export
        self.trace_buffer = trace_buffer
        self.events_export = events_export
        self.events_buffer = events_buffer

    @property
    def any(self) -> bool:
        return self.trace or self.profile or self.metrics or self.events

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (f"ObsConfig(trace={self.trace}, profile={self.profile}, "
                f"metrics={self.metrics}, events={self.events}, "
                f"export={self.trace_export!r})")


def split_spec(spec: str) -> list[tuple[str, str, list[str]]]:
    """The compact env grammar ``REPRO_OBS`` and ``REPRO_FAULTS`` share:
    ``;``-separated parts (blank ones ignored), each a head followed by
    ``:``-separated ``key=value`` (or bare flag) options.  Returns
    ``(part, head, options)`` per part; each caller owns its vocabulary
    and its error messages."""
    parts = []
    for part in spec.split(";"):
        part = part.strip()
        if part:
            head, *options = part.split(":")
            parts.append((part, head, options))
    return parts


#: Spec component -> the :class:`ObsConfig` flags it arms.
_COMPONENTS = {
    "trace": ("trace",), "profile": ("profile",),
    "metrics": ("metrics",), "events": ("events",),
    **dict.fromkeys(("1", "all", "on", "true"),
                    ("trace", "profile", "metrics", "events")),
}


def config_from_env(spec: str) -> ObsConfig:
    """Parse a compact ``REPRO_OBS`` spec (see module docstring)."""
    config = ObsConfig()
    for part, component, options in split_spec(spec.replace(",", ";")):
        component = component.lower()
        flags = _COMPONENTS.get(component)
        if flags is None:
            raise ValueError(
                f"unknown component {component!r} in {OBS_ENV}; one of "
                "['1', 'all', 'trace', 'profile', 'metrics', 'events']")
        for flag in flags:
            setattr(config, flag, True)
        for opt in options:
            key, eq, value = opt.partition("=")
            if not eq or key not in ("export", "buffer"):
                raise ValueError(
                    f"unknown option {opt!r} in {OBS_ENV} part {part!r}")
            rings = [f for f in flags if f in ("trace", "events")]
            if not rings:
                raise ValueError(
                    f"{key}= applies to trace/events, not {component!r}")
            if key == "export":
                rings = rings[:1]   # an everything-spec exports spans only
            for ring in rings:
                setattr(config, f"{ring}_{key}",
                        int(value) if key == "buffer" else value)
    return config


def arm(config: ObsConfig) -> dict:
    """Arm the requested components globally; returns the armed objects
    (``{"tracer": ..., "profiler": ...}``, absent keys disarmed)."""
    armed: dict = {}
    if config.trace:
        tracer = _trace.Tracer(buffer=config.trace_buffer,
                               export_path=config.trace_export)
        _trace.activate(tracer)
        armed["tracer"] = tracer
    if config.profile:
        profiler = _profile.Profiler()
        _profile.activate(profiler)
        armed["profiler"] = profiler
    if config.events:
        log = _events.EventLog(buffer=config.events_buffer,
                               export_path=config.events_export)
        _events.activate(log)
        armed["events"] = log
    return armed


def arm_from_env(environ=None) -> dict | None:
    """Arm from ``$REPRO_OBS`` if set; returns the armed objects."""
    spec = (os.environ if environ is None else environ).get(OBS_ENV)
    if not spec:
        return None
    return arm(config_from_env(spec))


def trace_enabled() -> bool:
    """Is a tracer armed right now (any scope)?"""
    return _trace.active_tracer() is not None


def profile_enabled() -> bool:
    """Is a profiler armed right now (any scope)?"""
    return _profile.active_profiler() is not None


def events_enabled() -> bool:
    """Is an event log armed right now (any scope)?"""
    return _events.active_event_log() is not None


#: What a pool worker ships home, per bundle key: the component's
#: active-collector getter, its ``activate``, a fresh collector, what
#: that collector ships, and how the parent's collector folds it in.
_SHIPPED = {
    "spans": (_trace.active_tracer, _trace.activate, _trace.Tracer,
              _trace.Tracer.spans, _trace.Tracer.absorb),
    "profile": (_profile.active_profiler, _profile.activate,
                _profile.Profiler, _profile.Profiler.snapshot,
                _profile.Profiler.merge),
    "events": (_events.active_event_log, _events.activate,
               _events.EventLog, _events.EventLog.events,
               _events.EventLog.absorb),
}


def collect(fn, *args):
    """Run ``fn(*args)`` in a pool worker under *fresh local*
    collectors, one per component armed in this process, and return
    ``(result, bundle)`` — the bundle maps each armed component to what
    its collector recorded (empty when nothing is armed).

    Fresh collectors, never the fork-copied parent ones: those own
    export file handles a child must not write to.  The parent hands
    the bundle to :func:`absorb`.
    """
    local = {key: (activate, new(), ship)
             for key, (active, activate, new, ship, _fold)
             in _SHIPPED.items() if active() is not None}
    with contextlib.ExitStack() as stack:
        for activate, collector, _ship in local.values():
            stack.enter_context(_trace.armed(activate, collector))
        result = fn(*args)
    return result, {key: ship(collector)
                    for key, (_activate, collector, ship) in local.items()}


def absorb(bundle) -> None:
    """Fold a worker's :func:`collect` bundle into this process's armed
    collectors; components disarmed here drop their share."""
    for key, shipped in bundle.items():
        active, _activate, _new, _ship, fold = _SHIPPED[key]
        collector = active()
        if shipped and collector is not None:
            fold(collector, shipped)


# CLI / subprocess / CI runs arm the moment any instrumented module
# imports repro.obs; with REPRO_OBS unset this is a no-op and every
# span/profile hook stays inert.
arm_from_env()
