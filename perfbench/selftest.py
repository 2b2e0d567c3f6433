"""The benchmark's own tests.

Run from the repository root (about two minutes; not part of tier-1)::

    PYTHONPATH=src python -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import manifest  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_within_contract_limits():
    m = manifest.SPEC
    assert set(m) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16
    assert 1 <= len(m["per_layer"]) <= 128
    assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60
    names = [w["name"] for w in m["workloads"]] + \
        [e["name"] for e in m["end_to_end"]] + \
        [p["name"] for p in m["per_layer"]]
    assert len(names) == len(set(names))
    assert set(manifest.WORKLOADS) == set(workloads.CLOSED_LOOPS) | {
        "serve-mixed"}
    assert all(NAME.match(n) for n in names)
    for w in m["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for e in m["end_to_end"] + m["per_layer"]:
        assert UNIT.match(e["unit"]) and e["better"] in ("lower", "higher")
    bounds = {e["name"]: e["bound"] for e in m["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert manifest.PATH.stat().st_size < 64 * 1024


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_requests_are_a_function_of_the_seed():
    for gen in (workloads.serve_payload, workloads.netlist_payload):
        assert [gen(7, i) for i in range(8)] == [gen(7, i) for i in range(8)]
        assert [gen(7, i) for i in range(8)] != [gen(8, i) for i in range(8)]
    assert workloads.qualification_spec(7, 3) == \
        workloads.qualification_spec(7, 3)


@pytest.mark.parametrize("seed", [1, 2, 99])
def test_serve_mix_shares_and_sizes_hold_for_any_seed(seed):
    fresh_seen = set()
    for index in range(40):
        p = workloads.serve_payload(seed, index)
        assert len(p["corners"]) * len(p["temps_c"]) * len(p["seeds"]) == 24
        fresh = [s for s in p["seeds"]
                 if s >= workloads.SERVE_PREFILL_SEEDS]
        assert len(fresh) == (0 if workloads.serve_is_warm(index) else 1)
        assert not fresh_seen & set(fresh)
        fresh_seen |= set(fresh)
    assert workloads._expected_store_totals(range(40)) == (
        30 * 6, 30 * 18 + 10 * 24)


@pytest.mark.parametrize("seed", [1, 2, 99])
def test_closed_loop_request_sizes_hold_for_any_seed(seed):
    blocks = set()
    for index in range(6):
        spec = workloads.qualification_spec(seed, index)
        assert spec.n_units == 60
        assert not blocks & set(spec.seeds)
        blocks |= set(spec.seeds)
        p = workloads.netlist_payload(seed, index)
        assert len(p["temps_c"]) * len(p["supplies"]) == 9
    assert len({workloads.optimize_seed(seed, i) for i in range(6)}) == 6


def test_every_netlist_grid_point_converges():
    from repro.campaign import SerialExecutor, run_campaign
    from repro.serve.validate import campaign_spec_from_dict

    for index, deck in enumerate(sorted(workloads.NETLIST_GRIDS)):
        temps, supplies = workloads.NETLIST_GRIDS[deck]
        payload = workloads.netlist_payload(1, index)
        payload.update(temps_c=list(temps), supplies=list(supplies))
        result = run_campaign(campaign_spec_from_dict(payload),
                              executor=SerialExecutor())
        doc = result.to_json()
        assert workloads._check_campaign_doc(doc, len(result)) is None


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
#: request [0, 10] > campaign.run [1, 9] > spice.dc [2, 5], [6, 8]
SPANS = [("spice.dc", 2.0, 5.0, 2, 1, 3),
         ("spice.dc", 6.0, 8.0, 2, 1, 4),
         ("campaign.run", 1.0, 9.0, 1, 1, 2),
         ("request", 0.0, 10.0, None, 1, 1)]


def test_self_times_add_up_to_the_request_wall():
    totals = layers.layer_totals(SPANS)
    assert totals["spice.dc"]["self_s"] == pytest.approx(5.0)
    assert totals["campaign.run"]["self_s"] == pytest.approx(3.0)
    assert totals["request"]["self_s"] == pytest.approx(2.0)
    b = layers.request_breakdown(SPANS, "request", [10.0])
    assert b["self_ms_per_request"] == pytest.approx(
        {"spice.dc": 5e3, "campaign.run": 3e3})
    assert b["uncovered_ms_per_request"] == pytest.approx(2e3)
    assert b["uncovered_share"] == pytest.approx(0.2)
    assert b["sum_gap"] == pytest.approx(0)
    assert b["min_self_s"] == pytest.approx(2.0)


def test_time_outside_the_trace_shows_as_a_sum_gap():
    # The request took 12.5 s as timed from outside; the spans cover 10.
    b = layers.request_breakdown(SPANS, "request", [12.5])
    assert b["sum_gap"] == pytest.approx(0.2)


def test_overlapping_spans_show_as_negative_self_time():
    # Two children covering more than their parent's interval.
    spans = [("spice.dc", 0.0, 3.0, 1, 1, 2),
             ("spice.dc", 1.0, 4.0, 1, 1, 3),
             ("request", 0.0, 4.0, None, 1, 1)]
    assert layers.request_breakdown(spans, "request", [4.0])["min_self_s"] < 0


def test_timings_are_scaled_by_their_own_host_speed_factors():
    import run
    from hostspeed import NOMINAL_S, HostSpeed

    # Brackets at twice the nominal kernel time: the host ran at half
    # the reference speed, so the scaled time is half the measured one.
    assert HostSpeed.factor(2 * NOMINAL_S, 2 * NOMINAL_S) == \
        pytest.approx(0.5)
    out = workloads.Outcome(units=60, wall_s=2.0, cpu_s=1.2,
                            latencies=[0.1, 0.4, 0.2],
                            latency_factors=[1.0, 0.25, 0.5],
                            setup_s=[1.0, 3.0, 2.0],
                            setup_factors=[1.0, 0.5, 0.25],
                            rate_factor=0.5, cpu_factor=0.5)
    raw = run.metric_values(out, scaled=False)
    scaled = run.metric_values(out, scaled=True)
    assert raw["latency_p50_s"] == pytest.approx(0.2)
    assert scaled["latency_p50_s"] == pytest.approx(0.1)   # of .1, .1, .1
    assert scaled["setup_s"] == pytest.approx(1.0)         # of 1, 1.5, .5
    assert scaled["units_per_s"] == pytest.approx(2 * raw["units_per_s"])
    assert scaled["cpu_ms_per_unit"] == \
        pytest.approx(raw["cpu_ms_per_unit"] / 2)


def test_install_wraps_and_restores_entry_points():
    import repro.campaign.runner as runner
    from repro.campaign.measurements import MEASUREMENTS

    before = (runner.dc_operating_point, dict(MEASUREMENTS))
    uninstall = layers.install(layers.SpanRecorder())
    try:
        assert runner.dc_operating_point.__wrapped__ is before[0]
    finally:
        uninstall()
    assert (runner.dc_operating_point, dict(MEASUREMENTS)) == before


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------
def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=600)


def _traced(workload: str, seed: int) -> tuple[dict, dict]:
    proc = _run("--workload", workload, "--seed", str(seed),
                "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return json.loads(lines[-2])["counts"], result["metrics"]


#: Per-layer metrics that are counts or ratios of counts.
COUNTED = [n for n, m in manifest.PER_LAYER.items()
           if m["unit"] == "count" or n in ("campaign.batched_ratio",
                                       "store.hit_ratio",
                                       "serve.warm_hit_ratio",
                                       "optimize.memo_hit_ratio")]


@pytest.mark.parametrize("workload", manifest.WORKLOADS)
def test_traced_counts_repeat_exactly_for_one_seed(workload):
    counts_a, metrics_a = _traced(workload, 5)
    counts_b, metrics_b = _traced(workload, 5)
    assert counts_a == counts_b
    assert {n: metrics_a[n] for n in COUNTED} == \
        {n: metrics_b[n] for n in COUNTED}
    assert set(metrics_a) == set(manifest.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "qualification", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
