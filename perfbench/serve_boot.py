"""Run ``repro serve`` with every layer entry point wrapped in spans.

Usage: ``python3 perfbench/serve_boot.py TRACE_OUT [repro serve flags]``.
On shutdown (SIGINT) the spans and the program's profile counters are
written to ``TRACE_OUT`` as JSON for the benchmark to reduce.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import layers


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main
    from repro.obs.profile import Profiler, activate

    out = Path(argv[0])
    recorder = layers.SpanRecorder()
    layers.install(recorder)
    profiler = Profiler()
    activate(profiler)
    try:
        return cli_main(["serve", *argv[1:]])
    finally:
        out.write_text(json.dumps({"spans": recorder.spans,
                                   "counts": profiler.snapshot()["counts"]}))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
