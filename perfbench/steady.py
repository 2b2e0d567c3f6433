#!/usr/bin/env python3
"""Run-to-run steadiness check for the benchmark.

Runs ``run.py`` once per seed on each named workload and prints, per
end-to-end metric, the median and the interquartile spread as a share
of the median (``statistics.quantiles(values, n=4)``) next to the
metric's bound.  A spread must stay within its bound; aim for a third.

With ``--against``, a second set of seeds runs after the first, and
each metric's second median is compared with the first: the share by
which it is worse (in the metric's ``better`` direction) must stay
within the bound too.  ``--log`` keeps every run's output lines
(provenance and result) as JSON lines, to explain a drifting run.

Usage (from the repository root)::

    python3 perfbench/steady.py --workloads optimize netlist \\
        --seeds 1 2 3 4 5 [--against 6 7 8 9 10] [--seconds 10] \\
        [--log runs.jsonl]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import manifest  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, log) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if log is not None:
        for line in lines:
            log.write(json.dumps({"workload": workload, "seed": seed,
                                  **json.loads(line)}) + "\n")
        log.flush()
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worsening(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse."""
    gap = (second - first) / first
    return gap if better == "lower" else -gap


def run_set(workload: str, seeds: list[int], seconds: float,
            log) -> dict[str, list[float]]:
    runs = [run_once(workload, seed, seconds, log) for seed in seeds]
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    print(f"{workload}: seeds {seeds[0]}..{seeds[-1]}, {len(runs)} runs, "
          f"{len(bad)} incorrect")
    values = {name: [r["metrics"][name]["value"] for r in runs]
              for name in manifest.END_TO_END}
    for name, m in manifest.END_TO_END.items():
        v = values[name]
        print(f"  {name:<16} median {statistics.median(v):12.6g} "
              f"{m['unit']:<8} spread {100 * spread(v):5.1f}% "
              f"(bound {100 * m['bound']:.0f}%)  values "
              f"{' '.join(f'{x:.4g}' for x in v)}")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=manifest.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--against", nargs="+", type=int, default=None,
                        help="a second seed set whose medians are compared "
                             "with the first's")
    parser.add_argument("--seconds", type=float,
                        default=manifest.RUN_SECONDS)
    parser.add_argument("--log", type=Path, default=None,
                        help="append every run's output lines here")
    args = parser.parse_args(argv)
    log = open(args.log, "a") if args.log else None
    worst_spread, worst_gap = 0.0, 0.0
    try:
        for workload in args.workloads:
            sets = [run_set(workload, args.seeds, args.seconds, log)]
            if args.against:
                sets.append(run_set(workload, args.against, args.seconds, log))
            for values in sets:
                worst_spread = max(
                    worst_spread, *(spread(values[n]) / m["bound"]
                                    for n, m in manifest.END_TO_END.items()))
            if len(sets) == 2:
                print(f"{workload}: second median worse than the first by")
                for name, m in manifest.END_TO_END.items():
                    gap = worsening(statistics.median(sets[0][name]),
                                    statistics.median(sets[1][name]),
                                    m["better"])
                    worst_gap = max(worst_gap, gap / m["bound"])
                    print(f"  {name:<16} {100 * gap:+6.1f}% "
                          f"(bound {100 * m['bound']:.0f}%)")
    finally:
        if log is not None:
            log.close()
    print(f"worst spread / bound (setup_s included): {worst_spread:.2f}")
    if args.against:
        print(f"worst median worsening / bound: {worst_gap:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
