#!/usr/bin/env python3
"""End-to-end benchmark of the repro stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload qualification --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``qualification``, ``serve-mixed``, ``optimize``, ``netlist``
(``BENCHMARK.json`` records why each exists).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the per-layer traced variant and
prints the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it record the run's provenance and, when traced, the per-request
layer breakdown.

Every program process runs with one BLAS/OpenMP thread and without
``REPRO_OBS``/``REPRO_FAULTS``, so a run measures the program rather
than the scheduler or an armed hook.  End-to-end timings are reported
at a reference host speed, measured between requests by a fixed kernel
outside the program (``hostspeed.py``), so runs minutes apart on a
host whose speed drifts stay comparable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REMOVED_VARS = ("REPRO_OBS", "REPRO_FAULTS")


def pin_environment() -> dict:
    """Apply the benchmark's environment rules to this process (before
    numpy loads) and return what was in effect before.

    The process is also pinned to one CPU, which every process it
    launches inherits: the host-speed reference then times the CPU the
    program runs on, whose speed can differ from the other CPUs'.
    """
    before = {name: os.environ.get(name) for name in THREAD_VARS + REMOVED_VARS}
    if hasattr(os, "sched_setaffinity"):
        cpus = os.sched_getaffinity(0)
        before["cpu_affinity"] = sorted(cpus)
        os.sched_setaffinity(0, {max(cpus)})
    for name in THREAD_VARS:
        os.environ[name] = "1"
    for name in REMOVED_VARS:
        os.environ.pop(name, None)
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src if not path else f"{src}{os.pathsep}{path}"
    sys.path.insert(0, src)
    return before


def latency_quantile(n: int) -> float:
    """p90, or the highest percentile with at least ten samples beyond
    it (never below the median)."""
    if n <= 0:
        return 0.5
    return max(0.5, min(0.9, math.floor(100 * (n - 10) / n) / 100))


def metric_values(out, scaled: bool) -> dict:
    """The end-to-end metrics of a run, with its timings scaled to the
    reference host speed (see ``hostspeed.py``) or as measured."""
    import numpy as np
    from statistics import median

    def times(values, factors):
        return [v * f for v, f in zip(values, factors)] if scaled else values

    latencies = times(out.latencies, out.latency_factors) or [0.0]
    setup = times(out.setup_s, out.setup_factors) or [0.0]
    units_per_s = out.info.get("units_per_s") or (
        out.units / out.wall_s if out.wall_s else 0.0)
    cpu_ms = 1e3 * out.cpu_s / out.units if out.units else 0.0
    return {
        "setup_s": median(setup),
        "units_per_s": units_per_s / (out.rate_factor if scaled else 1.0),
        "latency_p50_s": median(latencies),
        "latency_p90_s": float(np.percentile(
            latencies, 100 * latency_quantile(len(out.latencies)))),
        "cpu_ms_per_unit": cpu_ms * (out.cpu_factor if scaled else 1.0),
        "peak_rss_mb": out.peak_rss_mb,
    }


def notes(out) -> dict:
    """What the provenance line adds about the run's measurements."""
    return {"raw_metrics": metric_values(out, scaled=False),
            "host_speed": out.info.get("host_speed"),
            "rate_factor": out.rate_factor,
            "cpu_factor": out.cpu_factor,
            "latency_samples": len(out.latencies),
            "latency_p90_quantile": latency_quantile(len(out.latencies)),
            "setup_samples": len(out.setup_s),
            "units": out.units,
            "loadgen_lateness_p90_s": out.info.get("lateness_p90_s")}


def main(argv: list[str] | None = None) -> int:
    import manifest

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=manifest.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    before = pin_environment()
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: the program must come from {ROOT / 'src'}, "
              f"not {repro.__file__}", file=sys.stderr)
        return 2

    import provenance
    import workloads

    env = dict(os.environ)
    record = provenance.provenance(THREAD_VARS + REMOVED_VARS)
    record["env_before"] = before
    steal0 = provenance.steal_ticks()
    try:
        out = workloads.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), env)
    except Exception:
        traceback.print_exc()
        return 1
    steal1 = provenance.steal_ticks()
    record["steal_ticks"] = (None if steal0 is None or steal1 is None
                             else steal1 - steal0)
    record["server_env"] = out.info.pop("server_env", None)
    values = metric_values(out, scaled=True)
    record.update(notes(out))
    print(json.dumps({"provenance": record}))

    if args.trace:
        print(json.dumps({"breakdown": out.info.get("breakdown"),
                          "counts": out.info.get("counts")}))
        metrics = {n: {"value": float(out.layer.get(n, 0.0)), "unit": m["unit"]}
                   for n, m in manifest.PER_LAYER.items()}
        sane = all(math.isfinite(m["value"]) for m in metrics.values())
    else:
        metrics = {n: {"value": float(values[n]), "unit": m["unit"]}
                   for n, m in manifest.END_TO_END.items()}
        sane = all(math.isfinite(m["value"]) and m["value"] > 0
                   for m in metrics.values())
    for message in out.errors:
        print(f"failure: {message}", file=sys.stderr)
    print(json.dumps({"correct": out.failed == 0 and sane,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
