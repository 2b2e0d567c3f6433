"""The benchmark's definition, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the only copy of the
workloads, the metrics and their bounds; the benchmark's scripts and
tests read it through this module.
"""

from __future__ import annotations

import json
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SPEC = json.loads(PATH.read_text())

RUN_SECONDS: int = SPEC["run_seconds"]
WORKLOADS: list[str] = [w["name"] for w in SPEC["workloads"]]
#: name -> ``{"name", "unit", "better", "bound"}``, in file order.
END_TO_END: dict[str, dict] = {m["name"]: m for m in SPEC["end_to_end"]}
#: name -> ``{"name", "unit", "better"}``, in file order.
PER_LAYER: dict[str, dict] = {m["name"]: m for m in SPEC["per_layer"]}
