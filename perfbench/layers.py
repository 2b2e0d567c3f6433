"""Per-layer attribution for the traced benchmark run.

The program is not instrumented for this: :func:`install` wraps the
public entry point of each layer, from outside, in a span recorder, and
:func:`layer_metrics` turns the recorded spans plus the program's own
profile counters into the ``per_layer`` metrics of ``BENCHMARK.json``.

A span is ``(name, start, end, parent id, request id, span id)``.  The
request id is the id of the outermost span on the calling thread, so
every span of one request shares it.  A layer's *self* time is its span
minus the time its child spans cover; summed over one request's tree
the self times add up to the root span, and :func:`request_breakdown`
checks them against the request's wall time as the benchmark measured
it outside the spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time

#: (module or ``module:Class``, attribute, layer name).  Each entry is a
#: public entry point of one layer, patched where its callers look it up.
PATCHES = (
    ("repro.campaign", "run_campaign", "campaign.run"),
    ("repro.campaign.runner", "run_campaign", "campaign.run"),
    ("repro.optimize.evaluate", "run_campaign", "campaign.run"),
    ("repro.campaign.result:CampaignResult", "to_json",
     "campaign.result.to_json"),
    ("repro.campaign.runner", "build_unit_circuit", "circuits.build"),
    ("repro.campaign.runner", "dc_operating_point", "spice.dc"),
    ("repro.campaign.batchrun", "dc_operating_point", "spice.dc"),
    ("repro.campaign.batchrun", "BatchedSystem", "spice.batch.stamp"),
    ("repro.campaign.batchrun", "newton_batch", "spice.batch.newton"),
    ("repro.spice.linsolve:SmallSignalContext", "solve", "spice.linsolve"),
    ("repro.spice.linsolve:BatchedSmallSignalContext", "solve",
     "spice.linsolve"),
    ("repro.spice.linsolve:BatchedSmallSignalContext", "solve_checked",
     "spice.linsolve"),
    ("repro.store.backend:ResultStore", "get_many", "store.get"),
    ("repro.store.backend:ResultStore", "put_many", "store.put"),
    ("repro.store.backend:ResultStore", "contains_many", "store.probe"),
    ("repro.store.keys:UnitKeyer", "key", "store.keys"),
    ("repro.optimize", "optimize_mic_amp", "optimize.search"),
    ("repro.optimize.micamp", "optimize_mic_amp", "optimize.search"),
    ("repro.optimize.evaluate:CandidateEvaluator", "evaluate",
     "optimize.evaluate"),
    ("repro.ingest", "canonicalize_deck", "ingest.canonicalize"),
    ("repro.ingest", "compile_deck", "ingest.compile"),
    ("repro.serve.service:CharacterizationService", "submit_campaign",
     "serve.submit"),
    ("repro.serve.service:CharacterizationService", "_run_job", "serve.job"),
    ("repro.serve.service:CharacterizationService", "result_text",
     "serve.result"),
)

#: Registries whose values are measurement functions.
MEASURE_REGISTRIES = (("repro.campaign.measurements", "MEASUREMENTS"),
                      ("repro.campaign.batchrun", "_BATCHED"))


class SpanRecorder:
    """Thread-aware span sink; each thread keeps its own open-span stack."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            sid = next(recorder._ids)
            parent, request = stack[-1] if stack else (None, sid)
            stack.append((sid, request))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                recorder.spans.append((name, t0, t1, parent, request, sid))

        return traced


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def install(recorder: SpanRecorder):
    """Wrap every layer entry point; returns an undo callable."""
    undo = []
    for target, attr, layer in PATCHES:
        owner = _resolve(target)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, recorder.wrap(layer, original))
        undo.append((owner, attr, original))
    for module, name in MEASURE_REGISTRIES:
        registry = getattr(importlib.import_module(module), name)
        saved = dict(registry)
        for key, fn in saved.items():
            registry[key] = recorder.wrap("campaign.measure", fn)
        undo.append((registry, None, saved))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------
def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    self_s = {s[5]: s[2] - s[1] for s in spans}
    for _name, t0, t1, parent, _req, _sid in spans:
        if parent is not None and parent in self_s:
            self_s[parent] -= t1 - t0
    return self_s


def layer_totals(spans: list[tuple]) -> dict[str, dict]:
    """Layer name -> ``{"calls", "total_s", "self_s"}``."""
    self_s = self_times(spans)
    out: dict[str, dict] = {}
    for name, t0, t1, _parent, _req, sid in spans:
        acc = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0})
        acc["calls"] += 1
        acc["total_s"] += t1 - t0
        acc["self_s"] += self_s[sid]
    return out


def request_breakdown(spans: list[tuple], root: str,
                      walls: list[float]) -> dict:
    """Per-request self times by layer, checked against walls timed
    outside the trace.

    The requests are the trees under the ``root`` spans; ``walls`` holds
    the same requests' wall times measured independently of the spans.
    The root's own self time is the part of a request no wrapped layer
    covers, reported as ``uncovered``.  Returns the mean self
    milliseconds per request of every layer, the uncovered share of the
    wall, the relative gap between the summed self times and the summed
    walls, and the smallest self time: a negative one means spans that
    overlap their siblings or outlive their parent, so the attribution
    cannot be trusted.
    """
    self_s = self_times(spans)
    roots = {s[5] for s in spans if s[3] is None and s[0] == root}
    per_layer: dict[str, float] = {}
    uncovered = 0.0
    for name, _t0, _t1, _parent, req, sid in spans:
        if req not in roots:
            continue
        if sid in roots:
            uncovered += self_s[sid]
        else:
            per_layer[name] = per_layer.get(name, 0.0) + self_s[sid]
    covered = sum(per_layer.values())
    wall = sum(walls)
    n = max(1, len(roots))
    return {"requests": len(roots),
            "walls": len(walls),
            "wall_ms_per_request": 1e3 * wall / n,
            "self_ms_per_request": {k: 1e3 * v / n
                                    for k, v in sorted(per_layer.items())},
            "uncovered_ms_per_request": 1e3 * uncovered / n,
            "uncovered_share": uncovered / wall if wall else 1.0,
            "sum_gap": (abs(covered + uncovered - wall) / wall
                        if wall else 1.0),
            "min_self_s": min(self_s.values(), default=0.0)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple], counts: dict[str, int], *, units: int,
                  requests: int) -> dict[str, float]:
    """The span- and counter-derived per-layer metrics.

    ``units`` and ``requests`` are what the traced section delivered;
    layers the workload never touched report 0.
    """
    tot = layer_totals(spans)

    def self_ms(layer: str, per: int) -> float:
        return _ratio(1e3 * tot.get(layer, {}).get("self_s", 0.0), per)

    def calls(layer: str) -> int:
        return tot.get(layer, {}).get("calls", 0)

    c = counts.get
    evals = calls("optimize.evaluate")
    memo = c("optimize.memo_hits", 0) + c("optimize.memo_misses", 0)
    return {
        "circuits.build.ms_per_unit": self_ms("circuits.build", units),
        "spice.batch.stamp_ms_per_unit": self_ms("spice.batch.stamp", units),
        "spice.batch.newton_ms_per_unit": self_ms("spice.batch.newton", units),
        "spice.batch.newton_iterations": c("batch.newton_iterations", 0),
        "spice.dc.ms_per_unit": self_ms("spice.dc", units),
        "spice.dc.newton_iterations_per_unit":
            _ratio(c("dc.newton_iterations", 0), units),
        "spice.dc.escalations": c("dc.strategy.gmin-stepping", 0)
            + c("dc.strategy.source-stepping", 0),
        "spice.linsolve.ms_per_unit": self_ms("spice.linsolve", units),
        "spice.linsolve.lu_factors_per_unit":
            _ratio(c("linsolve.lu_factor", 0) + c("batch.zgetrf", 0), units),
        "campaign.measure.ms_per_unit": self_ms("campaign.measure", units),
        "campaign.run.self_ms_per_unit": self_ms("campaign.run", units),
        "campaign.result.to_json_ms_per_unit":
            self_ms("campaign.result.to_json", units),
        "campaign.fallbacks": c("campaign.batch_group_fallbacks", 0),
        "store.get_ms_per_unit": self_ms("store.get", units),
        "store.put_ms_per_unit": self_ms("store.put", units),
        "store.probe_ms_per_request": self_ms("store.probe", requests),
        "store.keys_ms_per_unit": self_ms("store.keys", units),
        "optimize.evaluate_ms_per_call": _ratio(
            1e3 * tot.get("optimize.evaluate", {}).get("total_s", 0.0), evals),
        "optimize.search.self_ms_per_eval": self_ms("optimize.search", evals),
        "optimize.memo_hit_ratio": _ratio(c("optimize.memo_hits", 0), memo),
        "ingest.canonicalize_ms_per_request":
            self_ms("ingest.canonicalize", requests),
        "ingest.compile_ms_per_unit": self_ms("ingest.compile", units),
        "ingest.compile_calls_per_unit": _ratio(calls("ingest.compile"), units),
    }
