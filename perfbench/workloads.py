"""The four workloads: request generators, timed loops and correctness gates.

Every request is a pure function of ``(seed, index)``, so one seed gives
one input sequence.  The closed-loop workloads run in this process (the
program's library is called the way its CLI calls it); ``serve-mixed``
drives a ``repro serve`` subprocess from a single generator process.
Correctness gates run outside the timed windows; a failed gate counts
as a failed request.

Each ``run_*`` function returns a :class:`Outcome`; ``run.py`` turns it
into the printed metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import resource
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import layers
from hostspeed import HostSpeed
from provenance import process_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECK_DIR = ROOT / "tests" / "ingest" / "decks"

#: Table-1 campaign rows measured per unit (qualification).
QUAL_MEASUREMENTS = ("offset_v", "iq_ma", "gain_1khz_db", "psrr_1khz_db",
                     "cmrr_1khz_db")
SERVE_MEASUREMENTS = ("offset_v", "iq_ma", "gain_1khz_db")
NETLIST_MEASUREMENTS = ("offset_v", "iq_ma", "gain_1khz_db")
TEMPS = (-20.0, 25.0, 85.0)
GAIN_CODE = 5
OPTIMIZE_BUDGET = 60

#: Cold program processes per run; ``setup_s`` is their median.  Half
#: run before the timed window and half after it, so the median samples
#: the host at two points of the run.
SETUP_SPAWNS = 6
#: Requests per configured second in the traced run (fixed, so the
#: per-layer counts of two traced runs with one seed repeat exactly).
TRACED_REQUESTS_PER_S = {"qualification": 3.0, "optimize": 0.4,
                         "netlist": 2.0}
#: serve-mixed: prefilled seeds; rounds of a burst (requests per
#: configured second, over all rounds) then a seeded Poisson open loop at
#: a fixed rate, with as many requests as fill ``SERVE_OPEN_SHARE`` of the
#: run.  The rate is about a third of the drain rate, so the server is
#: short of saturation and latency is not a growing queue.  Short rounds
#: keep each phase's host-speed brackets close to its requests.
SERVE_PREFILL_SEEDS = 12
SERVE_ROUNDS = 16
#: Host-speed samples at each phase boundary: a phase holds many
#: requests, so its bracket takes the median of a few samples.
SERVE_BRACKET_SAMPLES = 3
SERVE_BURST_PER_S = 5
SERVE_RATE_PER_S = 10.0
SERVE_OPEN_SHARE = 0.75
#: Index offsets of the requests the cold set-up processes answer and
#: of the untraced comparison burst, apart from the measured ones.
SETUP_INDEX = 1_000_000
PLAIN_INDEX = 10_000_000
#: Traced-run attribution limits: the summed layer self times may differ
#: from the independently timed request walls by ``MAX_SUM_GAP`` of
#: them, and the part of a request no wrapped layer covers may be at
#: most ``MAX_UNCOVERED_SHARE`` of them.
MAX_SUM_GAP = 0.02
MAX_UNCOVERED_SHARE = 0.05


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    units: int = 0
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    #: Host-speed factors (:meth:`HostSpeed.factor`) that scale the
    #: timings to the reference speed: one per latency and per set-up
    #: time, and one each for the throughput and the CPU time.
    latency_factors: list = field(default_factory=list)
    setup_factors: list = field(default_factory=list)
    rate_factor: float = 1.0
    cpu_factor: float = 1.0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def add_requests(self, other: "Outcome") -> None:
        """Count ``other``'s requests and failures in this outcome."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


def _weighted(pairs) -> float:
    """Time-weighted mean factor of ``(seconds, factor)`` pairs."""
    pairs = list(pairs)
    total = sum(t for t, _f in pairs)
    return sum(t * f for t, f in pairs) / total if total else 1.0


def _rng(seed: int, index: int) -> random.Random:
    # String seeding hashes with SHA-512: stable across processes and
    # independent of PYTHONHASHSEED.
    return random.Random(f"perfbench:{seed}:{index}")


def _cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_campaign_doc(doc: str, n_units: int) -> str | None:
    """``None`` when a campaign JSON document has ``n_units`` rows of
    finite metrics, else the reason it does not."""
    payload = json.loads(doc)
    for name in payload["metrics"]:
        column = payload["columns"][name]
        if len(column) != n_units:
            return f"{name}: {len(column)} rows, expected {n_units}"
        if any(not isinstance(v, (int, float)) for v in column):
            return f"{name}: non-finite value"
    return None


def _spawn_timed(cmd: list[str], env: dict, ok_codes: tuple,
                 timeout: float = 120.0) -> float:
    """Wall seconds of one cold program process; raises on failure."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    wall = time.perf_counter() - t0
    if proc.returncode not in ok_codes:
        raise RuntimeError(f"{' '.join(cmd[2:5])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
    return wall


def import_seconds(env: dict, spawns: int) -> float:
    """Median time to import the program in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli, "
            "repro.serve; print(time.perf_counter() - t)")
    times = []
    for _ in range(spawns):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.strip()))
    return median(times)


# ----------------------------------------------------------------------
# Request generators
# ----------------------------------------------------------------------
def qualification_spec(seed: int, index: int):
    """Table-1 campaign with its own block of four mismatch seeds."""
    from repro.campaign import CampaignSpec
    from repro.process import CORNERS

    first = (seed % 100_000) * 4_000_000 + 4 * index
    return CampaignSpec(builder="micamp", corners=tuple(CORNERS),
                        temps_c=TEMPS, seeds=tuple(range(first, first + 4)),
                        gain_codes=(GAIN_CODE,),
                        measurements=QUAL_MEASUREMENTS)


def optimize_seed(seed: int, index: int) -> int:
    return (seed % 100_000) * 4_000_000 + index


#: Deck -> (temperature grid, supply grid) on which it converges today.
NETLIST_GRIDS = {
    "ota_5t": ((-20.0, 0.0, 25.0, 50.0, 85.0),
               (2.25, 2.4, 2.5, 2.6, 2.75)),
    "diff_amp": ((-20.0, 0.0, 25.0, 50.0, 85.0),
                 (2.25, 2.4, 2.5, 2.6, 2.75)),
    "clocked_comparator": ((25.0, 40.0, 55.0, 70.0, 85.0),
                           (2.25, 2.4, 2.5, 2.6, 2.75)),
}


def netlist_payload(seed: int, index: int) -> dict:
    """One ``netlist`` campaign request: the decks in rotation, every
    corner, three temperatures and three supplies from the deck's grid."""
    rng = _rng(seed, index)
    deck = sorted(NETLIST_GRIDS)[index % len(NETLIST_GRIDS)]
    temps, supplies = NETLIST_GRIDS[deck]
    return {
        "netlist": {
            "deck": (DECK_DIR / f"{deck}.sp").read_text(),
            "binding": json.loads(
                (DECK_DIR / f"{deck}.binding.json").read_text()),
        },
        "corners": "all",
        "temps_c": sorted(rng.sample(temps, 3)),
        "supplies": sorted(rng.sample(supplies, 3)),
        "measurements": list(NETLIST_MEASUREMENTS),
    }


def serve_payload(seed: int, index: int) -> dict:
    """serve-mixed request ``index``: 2 corners x 3 temps x 4 seeds.

    Three in four take three prefilled seeds and one seed no other
    request uses (18 units read, 6 executed); every fourth takes four
    prefilled seeds and is answered warm at submit.
    """
    from repro.process import CORNERS

    rng = _rng(seed, index)
    corners = rng.sample(sorted(CORNERS), 2)
    if serve_is_warm(index):
        seeds = rng.sample(range(SERVE_PREFILL_SEEDS), 4)
    else:
        seeds = rng.sample(range(SERVE_PREFILL_SEEDS), 3)
        seeds.insert(rng.randrange(4), SERVE_PREFILL_SEEDS + index)
    return {"corners": corners, "temps_c": list(TEMPS), "seeds": seeds,
            "gain_codes": [GAIN_CODE],
            "measurements": list(SERVE_MEASUREMENTS)}


def serve_is_warm(index: int) -> bool:
    return index % 4 == 3


# ----------------------------------------------------------------------
# Closed-loop workloads (in-process)
# ----------------------------------------------------------------------
class ClosedLoop:
    """One in-process closed-loop workload.

    Subclasses define ``call(index) -> (units, document)``, the cold
    command for ``setup_s`` and the reference check for the sampled
    correctness gate.
    """

    name = ""
    #: Exit codes of a cold process that answered its request.
    ok_codes = (0,)

    def __init__(self, seed: int, speed: HostSpeed) -> None:
        self.seed = seed
        self.speed = speed
        self.batch_stats: dict[str, int] = {}

    def call(self, index: int) -> tuple[int, str]:
        raise NotImplementedError

    def expected_units(self, index: int) -> int:
        raise NotImplementedError

    def setup_command(self, index: int, workdir: Path) -> tuple[list, Path]:
        raise NotImplementedError

    def reference(self, index: int) -> str:
        """The document request ``index`` must produce, computed by an
        independent path."""
        raise NotImplementedError

    def cold_document(self, path: Path) -> str:
        """The document a cold process wrote (files end in a newline)."""
        return path.read_text().removesuffix("\n")

    def check_document(self, index: int, doc: str) -> str | None:
        return _check_campaign_doc(doc, self.expected_units(index))

    # -- driving ------------------------------------------------------
    def timed(self, out: Outcome, indices, seconds: float | None,
              docs: dict, call=None) -> None:
        """Run requests until ``seconds`` have passed (or ``indices`` is
        exhausted when ``seconds`` is None), recording latencies.  Each
        request is bracketed by host-speed samples, which are not in the
        wall or CPU time."""
        call = call or self.call
        start = time.perf_counter()
        spent0, spent_cpu0 = self.speed.spent_s, self.speed.spent_cpu_s
        cpu0 = _cpu_self()
        before = self.speed.measure()
        for index in indices:
            out.attempted += 1
            t0 = time.perf_counter()
            latency = None
            try:
                units, doc = call(index)
            except Exception as exc:
                out.fail(f"request {index}: {type(exc).__name__}: {exc}")
            else:
                latency = time.perf_counter() - t0
                out.units += units
                docs[index] = doc
            after = self.speed.measure()
            if latency is not None:
                out.latencies.append(latency)
                out.latency_factors.append(HostSpeed.factor(before, after))
            before = after
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
        out.wall_s = time.perf_counter() - start - (self.speed.spent_s - spent0)
        out.cpu_s = _cpu_self() - cpu0 - (self.speed.spent_cpu_s - spent_cpu0)
        out.rate_factor = out.cpu_factor = _weighted(
            zip(out.latencies, out.latency_factors))

    def setup(self, out: Outcome, env: dict, workdir: Path,
              spawns: range) -> None:
        """Cold program processes answering a first request; the first
        document is checked against the in-process one."""
        for j in spawns:
            index = SETUP_INDEX + j
            cmd, doc_path = self.setup_command(index, workdir)
            out.attempted += 1
            before = self.speed.measure()
            try:
                out.setup_s.append(_spawn_timed(cmd, env, self.ok_codes))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                out.fail(f"cold {self.name} process: {exc}")
                continue
            out.setup_factors.append(
                HostSpeed.factor(before, self.speed.measure()))
            if not doc_path.is_file():
                out.fail(f"cold {self.name} process wrote no document")
            elif j == 0:
                _units, doc = self.call(index)
                if self.cold_document(doc_path) != doc:
                    out.fail(f"cold {self.name} document differs from "
                             "the in-process one")

    def gates(self, out: Outcome, docs: dict) -> None:
        for index, doc in docs.items():
            reason = self.check_document(index, doc)
            if reason is not None:
                out.fail(f"request {index}: {reason}")
        if docs:
            sample = sorted(docs)[_rng(self.seed, -1).randrange(len(docs))]
            if self.reference(sample) != docs[sample]:
                out.fail(f"request {sample}: document differs from the "
                         "reference path")


class CampaignLoop(ClosedLoop):
    """A campaign request run as ``repro campaign`` runs it: the CLI's
    default (batched) executor, then ``to_json``."""

    def spec(self, index: int):
        raise NotImplementedError

    def _run(self, index: int, executor) -> tuple[int, str]:
        from repro.campaign import run_campaign

        result = run_campaign(self.spec(index), executor=executor)
        return len(result), result.to_json()

    def call(self, index: int) -> tuple[int, str]:
        from repro.campaign import BatchedCampaignExecutor

        executor = BatchedCampaignExecutor()
        try:
            return self._run(index, executor)
        finally:
            for k, v in executor.stats.items():
                self.batch_stats[k] = self.batch_stats.get(k, 0) + v

    def expected_units(self, index: int) -> int:
        return self.spec(index).n_units

    def reference(self, index: int) -> str:
        from repro.campaign import SerialExecutor

        return self._run(index, SerialExecutor())[1]


class Qualification(CampaignLoop):
    name = "qualification"

    def spec(self, index: int):
        return qualification_spec(self.seed, index)

    def setup_command(self, index: int, workdir: Path):
        spec = self.spec(index)
        doc = workdir / f"cold-{index}.json"
        return ([sys.executable, "-m", "repro", "campaign",
                 "--seeds", ",".join(map(str, spec.seeds)),
                 "--codes", str(GAIN_CODE),
                 "--measure", ",".join(QUAL_MEASUREMENTS),
                 "--json", str(doc)], doc)


class Netlist(CampaignLoop):
    name = "netlist"

    def spec(self, index: int):
        from repro.serve.validate import campaign_spec_from_dict

        return campaign_spec_from_dict(netlist_payload(self.seed, index))

    def setup_command(self, index: int, workdir: Path):
        request = workdir / f"request-{index}.json"
        request.write_text(json.dumps(netlist_payload(self.seed, index)))
        doc = workdir / f"cold-{index}.json"
        return ([sys.executable, "-m", "repro", "campaign",
                 "--spec", str(request), "--json", str(doc)], doc)


class Optimize(ClosedLoop):
    name = "optimize"
    # ``repro optimize`` exits 1 when its best design misses the spec.
    ok_codes = (0, 1)

    def call(self, index: int) -> tuple[int, str]:
        from repro.optimize import optimize_mic_amp

        result = optimize_mic_amp(budget=OPTIMIZE_BUDGET,
                                  seed=optimize_seed(self.seed, index))
        return result.n_evaluations, result.pareto.to_json()

    def check_document(self, index: int, doc: str) -> str | None:
        points = json.loads(doc)["points"]
        if not points:
            return "empty Pareto front"
        return None

    def reference(self, index: int) -> str:
        return self.call(index)[1]

    def setup_command(self, index: int, workdir: Path):
        doc = workdir / f"cold-{index}.json"
        return ([sys.executable, "-m", "repro", "optimize", "--quick",
                 "--no-progress", "--seed",
                 str(optimize_seed(self.seed, index)),
                 "--pareto-json", str(doc)], doc)


CLOSED_LOOPS = {"qualification": Qualification, "netlist": Netlist,
                "optimize": Optimize}


def run_closed_loop(name: str, seed: int, seconds: float, trace: bool,
                    env: dict, workdir: Path, speed: HostSpeed) -> Outcome:
    from repro.obs.profile import Profiler

    loop = CLOSED_LOOPS[name](seed, speed)
    out = Outcome()
    half = SETUP_SPAWNS // 2
    loop.setup(out, env, workdir, range(half))
    docs: dict[int, str] = {}
    # The first request is steady-state warm-up, outside the window.
    warm = Outcome()
    loop.timed(warm, [0], None, docs)
    out.add_requests(warm)
    if not trace:
        loop.timed(out, itertools.count(1), seconds, docs)
        out.peak_rss_mb = _peak_rss_self_mb()
        loop.setup(out, env, workdir, range(half, SETUP_SPAWNS))
        loop.gates(out, docs)
        return out

    # Traced run: the same fixed request count untraced, then traced.
    n = max(2, round(TRACED_REQUESTS_PER_S[name] * seconds))
    plain = Outcome()
    loop.timed(plain, range(1 + n, 1 + 2 * n), None, docs)
    recorder = layers.SpanRecorder()
    profiler = Profiler()
    uninstall = layers.install(recorder)
    loop.batch_stats = {}
    traced = Outcome()
    try:
        with profiler.activate():
            loop.timed(traced, range(1, 1 + n), None, docs,
                       call=recorder.wrap("request", loop.call))
    finally:
        uninstall()
    out.add_requests(plain)
    out.add_requests(traced)
    loop.gates(out, docs)
    _reduce_trace(out, env, recorder.spans, profiler.snapshot()["counts"],
                  units=traced.units, requests=n,
                  steady_p50=median(plain.latencies),
                  root="request", walls=traced.latencies)
    batched = loop.batch_stats.get("batched_units", 0)
    ran = batched + loop.batch_stats.get("fallback_units", 0)
    out.layer["campaign.batched_ratio"] = batched / ran if ran else 0.0
    # Both rates at the reference host speed, so a drift of the host
    # between the two halves does not show as tracing overhead.
    out.layer["trace.overhead_ratio"] = (
        (plain.units / (plain.wall_s * plain.rate_factor))
        / (traced.units / (traced.wall_s * traced.rate_factor))
        if traced.units and plain.units else 0.0)
    out.units, out.wall_s = traced.units, traced.wall_s
    return out


def _reduce_trace(out: Outcome, env: dict, spans: list, counts: dict, *,
                  units: int, requests: int, steady_p50: float, root: str,
                  walls: list[float]) -> None:
    """Per-layer metrics, set-up split and per-request breakdown of a
    traced run.  ``walls`` are the wall times, timed outside the spans,
    of the requests under the ``root`` spans; a breakdown that does not
    add up to them, or leaves too much of them uncovered, fails the run."""
    out.layer = layers.layer_metrics(spans, counts, units=units,
                                     requests=requests)
    imp = import_seconds(env, 3)
    cold = median(out.setup_s) if out.setup_s else 0.0
    out.layer["setup.import_s"] = imp
    out.layer["setup.first_request_s"] = max(0.0, cold - imp - steady_p50)
    out.info["counts"] = counts
    out.info["breakdown"] = b = layers.request_breakdown(spans, root, walls)
    if b["requests"] != b["walls"] or b["sum_gap"] > MAX_SUM_GAP \
            or b["min_self_s"] < -1e-6:
        out.fail(f"layer self times do not add up to the request walls: {b}")
    elif b["uncovered_share"] > MAX_UNCOVERED_SHARE:
        out.fail(f"{b['uncovered_share']:.1%} of the request walls is "
                 "outside every traced layer")


# ----------------------------------------------------------------------
# serve-mixed (subprocess server, one generator process)
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` subprocess on a given store."""

    def __init__(self, env: dict, store: Path, workdir: Path,
                 trace_out: Path | None = None) -> None:
        args = ["--port", "0", "--store", str(store), "--workers", "2"]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_boot.py"),
                   str(trace_out), *args]
        self._stderr = open(workdir / "server.err", "ab")
        self.proc = subprocess.Popen(cmd, env=env, cwd=ROOT,
                                     stdout=subprocess.PIPE,
                                     stderr=self._stderr, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        from repro.serve import ServeClient

        self.url = line.split()[2]
        self.client = ServeClient(self.url, timeout=60.0)

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def _wait_done(client, ids: list[str], poll: float = 0.05) -> dict:
    """Block until every job is terminal; returns id -> final view.

    Jobs finish roughly in submission order, so waiting on each in turn
    costs few polls; the views come from one list call at the end.
    """
    for job_id in ids:
        while client.job(job_id)["state"] not in ("done", "failed"):
            time.sleep(poll)
    views = {v["id"]: v for v in client.jobs()}
    return {job_id: views[job_id] for job_id in ids}


def _serve_first_request(env, store, workdir, payload, out,
                         keep: bool = False):
    """Spawn a server, answer one request; returns the server if kept."""
    t0 = time.perf_counter()
    server = Server(env, store, workdir)
    try:
        view = server.client.submit("campaign", payload)
        while view["state"] not in ("done", "failed"):
            time.sleep(0.01)
            view = server.client.job(view["id"])
        body = server.client.result_bytes(view["id"])
        out.setup_s.append(time.perf_counter() - t0)
        if view["state"] != "done" or not body:
            out.fail(f"cold server: first request {view['state']}")
    except Exception:
        server.stop()
        raise
    if keep:
        return server
    server.stop()
    return None


def _burst(server, seed: int, indices) -> tuple[float, list[dict]]:
    """Submit every request at once from one connection; returns the
    drain time (first submit to last server-side finish) and records."""
    start = time.time()
    records = [{"index": i, "id": server.client.submit(
        "campaign", serve_payload(seed, i))["id"]} for i in indices]
    views = _wait_done(server.client, [r["id"] for r in records])
    for rec in records:
        rec["view"] = views[rec["id"]]
    return max(v["finished_at"] for v in views.values()) - start, records


def _open_loop(server, seed: int, indices, offsets: list[float],
               threads: int) -> list[dict]:
    """Send request ``indices[k]`` at ``offsets[k]`` seconds from now,
    from ``threads`` sender threads; waits until every job is done."""
    base = time.time() + 0.02
    records = [{"index": i, "due": base + t} for i, t in zip(indices, offsets)]
    lock = threading.Lock()
    cursor = iter(records)

    def sender() -> None:
        while True:
            with lock:
                rec = next(cursor, None)
            if rec is None:
                return
            delay = rec["due"] - time.time()
            if delay > 0:
                time.sleep(delay)
            rec["sent"] = time.time()
            t0 = time.perf_counter()
            try:
                rec["id"] = server.client.submit(
                    "campaign", serve_payload(seed, rec["index"]))["id"]
            except Exception as exc:  # counted as a failed request
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["submit_s"] = time.perf_counter() - t0

    workers = [threading.Thread(target=sender) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    views = _wait_done(server.client, [r["id"] for r in records if "id" in r])
    for rec in records:
        if "id" in rec:
            rec["view"] = views[rec["id"]]
    return records


def _poisson_offsets(seed: int, round_no: int, rate: float,
                     count: int) -> list[float]:
    """Send times of ``count`` requests with exponential gaps at ``rate``.

    The count is fixed rather than the span, so every seed gives the
    same number of latency samples and so the same reported percentile.
    """
    rng = _rng(seed, -2 - round_no)
    return list(itertools.accumulate(rng.expovariate(rate)
                                     for _ in range(count)))


def _serve_rounds(server, seed: int, seconds: float,
                  speed: HostSpeed) -> tuple:
    """The measured mix: rounds of a burst followed by an open loop, so
    both figures sample the whole run.  Each phase is bracketed by
    host-speed samples; its factor is set on its open-loop records.
    Returns ``(drains, phases, burst records, open-loop records)``, the
    first two as ``(seconds, factor)`` pairs of the bursts and of every
    phase."""
    n_burst = max(1, round(SERVE_BURST_PER_S * seconds / SERVE_ROUNDS))
    n_open = max(1, round(SERVE_RATE_PER_S * SERVE_OPEN_SHARE * seconds
                          / SERVE_ROUNDS))
    threads = os.cpu_count() or 1
    drains, phases, bursts, loop, index = [], [], [], [], 0
    before = speed.measure(SERVE_BRACKET_SAMPLES)
    for round_no in range(SERVE_ROUNDS):
        d, recs = _burst(server, seed, range(index, index + n_burst))
        after = speed.measure(SERVE_BRACKET_SAMPLES)
        drains.append((d, HostSpeed.factor(before, after)))
        bursts += recs
        index += n_burst
        before = after
        t0 = time.perf_counter()
        offsets = _poisson_offsets(seed, round_no, SERVE_RATE_PER_S, n_open)
        recs = _open_loop(server, seed, range(index, index + len(offsets)),
                          offsets, threads)
        t1 = time.perf_counter()
        after = speed.measure(SERVE_BRACKET_SAMPLES)
        factor = HostSpeed.factor(before, after)
        for rec in recs:
            rec["factor"] = factor
        phases.append((t1 - t0, factor))
        loop += recs
        index += len(offsets)
        before = after
    return drains, drains + phases, bursts, loop


def _expected_store_totals(indices) -> tuple[int, int]:
    indices = list(indices)
    executed = sum(0 if serve_is_warm(i) else 6 for i in indices)
    reused = sum(24 if serve_is_warm(i) else 18 for i in indices)
    return executed, reused


def _counter_delta(after: dict, before: dict, name: str) -> int:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def run_serve_mixed(seed: int, seconds: float, trace: bool, env: dict,
                    workdir: Path, speed: HostSpeed) -> Outcome:
    from repro.campaign import BatchedCampaignExecutor, CampaignSpec, run_campaign
    from repro.process import CORNERS
    from repro.serve.validate import campaign_spec_from_dict
    from repro.store import ResultStore

    out = Outcome()
    store_root = workdir / "store"
    prefill = CampaignSpec(builder="micamp", corners=tuple(CORNERS),
                           temps_c=TEMPS,
                           seeds=tuple(range(SERVE_PREFILL_SEEDS)),
                           gain_codes=(GAIN_CODE,),
                           measurements=SERVE_MEASUREMENTS)
    run_campaign(prefill, executor=BatchedCampaignExecutor(),
                 store=ResultStore(store_root))

    half = SETUP_SPAWNS // 2

    def cold_servers(spawns: range, keep_last: bool):
        server = None
        for j in spawns:
            out.attempted += 1
            before = speed.measure()
            server = _serve_first_request(
                env, store_root, workdir, serve_payload(seed, SETUP_INDEX + 4 * j),
                out, keep=keep_last and j == spawns[-1])
            out.setup_factors.append(HostSpeed.factor(before, speed.measure()))
        return server

    server = None
    try:
        server = cold_servers(range(half), keep_last=True)
        out.info["server_env"] = process_env(
            server.proc.pid, ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS", "REPRO_OBS", "REPRO_FAULTS"))
        if trace:
            # Untraced drain on the last cold server, for the overhead
            # ratio; then a fresh traced server runs the measured mix.
            n_plain = round(SERVE_BURST_PER_S * seconds)
            plain_drain, plain = _burst(
                server, seed, range(PLAIN_INDEX, PLAIN_INDEX + n_plain))
            plain_rate = 24 * n_plain / plain_drain
            server.stop()
            trace_out = workdir / "server-trace.json"
            server = Server(env, store_root, workdir, trace_out=trace_out)
        before = server.client.metrics()
        cpu0 = server.cpu_s()
        drains, phases, bursts, loop = _serve_rounds(server, seed, seconds,
                                                     speed)
        cpu1 = server.cpu_s()
        after = server.client.metrics()
        out.peak_rss_mb = server.peak_rss_mb()
        # Latency runs to the server-side finish plus the result fetch.
        for rec in loop + bursts[:4]:
            if "id" in rec:
                t0 = time.perf_counter()
                rec["body"] = server.client.result_bytes(rec["id"])
                rec["fetch_s"] = time.perf_counter() - t0
    finally:
        if server is not None:
            server.stop()
    if not trace:
        cold_servers(range(half, SETUP_SPAWNS), keep_last=False)

    requests = bursts + loop + (plain if trace else [])
    out.attempted += len(requests)
    for rec in requests:
        view = rec.get("view", {})
        if view.get("state") != "done":
            out.fail(f"request {rec['index']}: "
                     f"{rec.get('error') or view.get('error')}")
    n_units = 24 * len(bursts + loop)
    drain = sum(d for d, _f in drains)
    out.units = n_units
    out.wall_s = drain
    out.cpu_s = cpu1 - cpu0
    out.info["units_per_s"] = 24 * len(bursts) / drain
    out.rate_factor = _weighted(drains)
    out.cpu_factor = _weighted(phases)

    done = [r for r in loop if "fetch_s" in r]
    for r in done:
        r["latency"] = r["view"]["finished_at"] - r["due"] + r["fetch_s"]
        out.latencies.append(r["latency"])
        out.latency_factors.append(r["factor"])
    half = len(done) // 2
    if half and median(r["latency"] for r in done[half:]) > \
            2 * median(r["latency"] for r in done[:half]) + 0.05:
        out.fail("open-loop backlog grew over the run")
    late = [r["sent"] - r["due"] for r in loop]

    # Gates: exact store traffic, and documents equal a direct run.
    executed, reused = _expected_store_totals(
        r["index"] for r in bursts + loop)
    got = (_counter_delta(after, before, "units_executed"),
           _counter_delta(after, before, "units_reused"))
    if got != (executed, reused):
        out.fail(f"store traffic {got} != implied {(executed, reused)}")
    for rec in bursts[:4] + done[:4]:
        spec = campaign_spec_from_dict(serve_payload(seed, rec["index"]))
        if rec["body"].decode() != run_campaign(spec).to_json() + "\n":
            out.fail(f"request {rec['index']}: served document differs "
                     "from a direct run")

    if trace:
        server_trace = json.loads(trace_out.read_text())
        n_requests = len(bursts + loop)
        # A queued job's wall, from dequeue to finish, is on its view.
        jobs = [r["view"] for r in bursts + loop
                if "view" in r and not r["view"]["warm"]]
        _reduce_trace(out, env, [tuple(s) for s in server_trace["spans"]],
                      server_trace["counts"], units=n_units,
                      requests=n_requests,
                      steady_p50=median(out.latencies), root="serve.job",
                      walls=[v["finished_at"] - v["started_at"]
                             for v in jobs])
        queued = [r["view"] for r in done if not r["view"]["warm"]]
        waits = [v["started_at"] - v["created_at"] for v in queued]
        out.layer.update({
            "store.hit_ratio": reused / (reused + executed),
            "serve.submit_p50_s": median(r["submit_s"] for r in loop),
            "serve.queue_wait_p50_s": median(waits),
            "serve.queue_wait_p90_s": np.percentile(waits, 90),
            "serve.run_p50_s": median(
                v["finished_at"] - v["started_at"] for v in queued),
            "serve.fetch_p50_s": median(r["fetch_s"] for r in done),
            "serve.warm_hit_ratio":
                _counter_delta(after, before, "warm_hits") / n_requests,
            "loadgen.lateness_p90_s": np.percentile(late, 90),
            "trace.overhead_ratio": plain_rate / out.info["units_per_s"],
        })
    out.info["lateness_p90_s"] = float(np.percentile(late, 90))
    return out


def run(name: str, seed: int, seconds: float, trace: bool,
        env: dict) -> Outcome:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    speed = HostSpeed()
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        workdir = Path(tmp)
        runner = (run_serve_mixed if name == "serve-mixed"
                  else functools.partial(run_closed_loop, name))
        out = runner(seed, seconds, trace, env, workdir, speed)
    out.info["host_speed"] = speed.record()
    return out
