"""Pluggable campaign executors: serial and chunked process pool.

Both executors consume the same contiguous chunks of the spec's
deterministic expansion order and return chunk results *in order*, so
the collected records are identical regardless of executor (the
determinism tests pin this).  The pool executor exists for multi-core
hosts: campaign units are independent processes-friendly work (a spec
chunk pickles to a small message, records are plain floats), and chunked
dispatch keeps the per-chunk circuit cache effective while amortising
IPC overhead over many units per message.

The pool executor also survives its workers: a ``BrokenProcessPool``
(OOM-killed or SIGKILLed worker, crashed interpreter) loses only the
chunks that had not completed — the pool is rebuilt and exactly those
chunks re-execute, up to ``max_attempts`` per chunk, after which a
structured :class:`CampaignExecutionError` names every unit that could
not be computed.  Because chunks are independent and results are merged
back in chunk order, a recovered run is byte-identical to an
uninterrupted (or serial) one — ``tests/faults/test_pool_faults.py``
kills workers mid-campaign to pin this.

On a single-CPU container the pool cannot beat serial (there is nothing
to run on); ``benchmarks/bench_campaign.py`` records the host CPU count
next to its serial/parallel throughput numbers for exactly that reason.
"""

from __future__ import annotations

import contextlib
import math
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from typing import Iterator

from repro.campaign.runner import ChunkCache, run_chunk, worker_chunk_cache
from repro.campaign.spec import CampaignSpec, WorkUnit
from repro.faults.harness import fault_point
from repro.obs import harness as obs_harness
from repro.obs.events import event
from repro.obs.trace import current_context, seed_context, span


class CampaignExecutionError(RuntimeError):
    """A campaign could not compute some units even after retries.

    ``units`` lists the :class:`WorkUnit`\\ s that were lost, so the
    caller (or its operator) knows exactly which corner/seed/code
    combinations have no records instead of guessing from a bare
    ``BrokenProcessPool`` traceback.
    """

    def __init__(self, message: str, units: list[WorkUnit]) -> None:
        super().__init__(message)
        self.units = list(units)


class SerialExecutor:
    """Run every chunk in-process, in order."""

    name = "serial"

    def default_chunk_size(self, spec: CampaignSpec) -> int:
        # One chunk: the shared cache then spans the whole campaign.
        return max(1, spec.n_units)

    def map_chunks(self, spec: CampaignSpec,
                   chunks: list[list[WorkUnit]]) -> Iterator[list[dict]]:
        for chunk in chunks:
            with span("campaign.chunk", executor=self.name,
                      n_units=len(chunk)):
                records = run_chunk(spec, chunk)
            yield records


class BatchedCampaignExecutor:
    """Run chunks in-process through the tensor engine.

    Identical records to :class:`SerialExecutor` (byte-for-byte — the
    equivalence suite pins it), roughly an order of magnitude faster on
    mismatch campaigns: structure-sharing units are stamped into one
    ``(N, dim, dim)`` tensor, DC-solved by a lockstep Newton iteration
    and measured through unit-batched factorizations.  ``stats``
    accumulates ``batched_units``/``fallback_units`` across chunks so
    callers (and the chaos tests) can see how much work actually rode
    the tensor path.
    """

    name = "batched"

    def __init__(self, batch_size: int | None = None) -> None:
        from repro.campaign.batchrun import DEFAULT_BATCH_SIZE

        self.batch_size = batch_size or DEFAULT_BATCH_SIZE
        self.stats: dict[str, int] = {}

    def default_chunk_size(self, spec: CampaignSpec) -> int:
        # One chunk, like serial: grouping happens inside the chunk.
        return max(1, spec.n_units)

    def map_chunks(self, spec: CampaignSpec,
                   chunks: list[list[WorkUnit]]) -> Iterator[list[dict]]:
        from repro.campaign.batchrun import run_chunk_batched

        cache = ChunkCache(spec)
        for chunk in chunks:
            with span("campaign.chunk", executor=self.name,
                      n_units=len(chunk)):
                records = run_chunk_batched(spec, chunk, cache=cache,
                                            batch_size=self.batch_size,
                                            stats=self.stats)
            yield records


def _warm_worker(spec: CampaignSpec) -> None:
    """Pool-worker initializer: build the per-process chunk cache and
    every corner technology once, before the first chunk message lands.
    Workers then start warm — the skew arithmetic and cache setup are
    paid per *worker*, not per chunk."""
    cache = worker_chunk_cache(spec)
    for corner in spec.corners:
        cache.tech(corner)


def _run_chunk_task(spec: CampaignSpec, chunk: list[WorkUnit],
                    attempt: int, trace_ctx=None) -> tuple:
    """The picklable message the pool ships to workers.  ``attempt``
    exists for the fault harness: child-side kill rules key off it
    (``when=lambda ctx: ctx["attempt"] == 0``) so a chaos run dies
    deterministically on the first dispatch and recovers on the
    retry.

    Returns ``(records, bundle)``: the chunk runs under
    :func:`repro.obs.harness.collect`, so whatever observability is
    armed in the worker (the harness env is inherited across fork)
    collects locally and travels home as one bundle for the parent to
    absorb; the records are untouched either way.  ``trace_ctx`` is
    the parent's ``(trace_id, span_id)`` so worker spans *and events*
    nest under the dispatching campaign span.
    """
    fault_point("campaign.pool_chunk", attempt=attempt, n_units=len(chunk))
    return obs_harness.collect(_pool_chunk, spec, chunk, attempt, trace_ctx)


def _pool_chunk(spec: CampaignSpec, chunk: list[WorkUnit], attempt: int,
                trace_ctx) -> list[dict]:
    with (seed_context(*trace_ctx) if trace_ctx is not None
          else contextlib.nullcontext()):
        with span("campaign.pool_chunk", attempt=attempt,
                  n_units=len(chunk)):
            return run_chunk(spec, chunk, cache=worker_chunk_cache(spec))


class ProcessPoolCampaignExecutor:
    """Dispatch chunks to a :class:`concurrent.futures.ProcessPoolExecutor`.

    ``max_workers`` defaults to the host CPU count.  The default chunk
    size aims at ~4 chunks per worker: small enough to load-balance,
    large enough that each worker's circuit cache and the one-time
    import/fork cost amortise over real work.  ``max_attempts`` bounds
    how many times one chunk may be re-dispatched after pool breakage
    before the run fails with :class:`CampaignExecutionError`.
    """

    name = "process-pool"

    def __init__(self, max_workers: int | None = None,
                 max_attempts: int = 3) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.max_attempts = max_attempts
        #: Pool rebuilds performed on the last map_chunks call.
        self.restarts = 0
        self._pool: ProcessPoolExecutor | None = None
        self._pool_spec: CampaignSpec | None = None

    def default_chunk_size(self, spec: CampaignSpec) -> int:
        return max(1, math.ceil(spec.n_units / (4 * self.max_workers)))

    def _get_pool(self, spec: CampaignSpec) -> ProcessPoolExecutor:
        """The persistent, pre-warmed pool for ``spec``.

        The pool survives across ``map_chunks`` calls (fork + import +
        cache warm-up are paid once per worker, not once per campaign)
        and is rebuilt only when the spec changes — worker caches are
        keyed to the spec their initializer warmed — or after breakage.
        """
        if self._pool is not None and self._pool_spec != spec:
            self._shutdown_pool()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_warm_worker, initargs=(spec,))
            self._pool_spec = spec
        return self._pool

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._pool_spec = None

    def close(self) -> None:
        """Release the worker pool (idempotent)."""
        self._shutdown_pool()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self._shutdown_pool()
        except Exception:
            pass

    def map_chunks(self, spec: CampaignSpec,
                   chunks: list[list[WorkUnit]]) -> Iterator[list[dict]]:
        """Yield chunk results in chunk order, surviving worker death.

        Results are collected per chunk index and yielded contiguously
        as soon as the next-in-order chunk completes, so streaming
        progress is preserved.  When the pool breaks, only chunks
        without a collected result re-dispatch (fresh pool, bumped
        attempt number); a measurement exception inside a healthy
        worker still propagates unchanged — retrying is for lost
        workers, not buggy code.
        """
        results: dict[int, list[dict]] = {}
        attempts = {i: 0 for i in range(len(chunks))}
        pending = set(attempts)
        self.restarts = 0
        next_to_yield = 0
        trace_ctx = current_context()
        while pending:
            pool = self._get_pool(spec)
            futures = {}
            try:
                futures = {
                    pool.submit(_run_chunk_task, spec, chunks[i],
                                attempts[i], trace_ctx): i
                    for i in sorted(pending)
                }
                for future in as_completed(futures):
                    i = futures[future]
                    records, bundle = future.result()
                    obs_harness.absorb(bundle)
                    results[i] = records
                    pending.discard(i)
                    while next_to_yield in results:
                        yield results[next_to_yield]
                        next_to_yield += 1
            except BrokenExecutor as exc:
                self._shutdown_pool()
                self.restarts += 1
                event("campaign.pool_restart", "error",
                      restarts=self.restarts, pending_chunks=len(pending),
                      error=f"{type(exc).__name__}: {exc}")
                for i in pending:
                    attempts[i] += 1
                exhausted = sorted(i for i in pending
                                   if attempts[i] >= self.max_attempts)
                if exhausted:
                    units = [u for i in exhausted for u in chunks[i]]
                    event("campaign.pool_exhausted", "error",
                          n_chunks=len(exhausted), n_units=len(units),
                          max_attempts=self.max_attempts)
                    raise CampaignExecutionError(
                        f"pool broke {attempts[exhausted[0]]} times on "
                        f"{len(exhausted)} chunk(s) ({len(units)} units) "
                        f"after {self.max_attempts} attempts each; first "
                        f"lost unit: {units[0]} [{exc}]", units) from exc
            except BaseException:
                # A measurement error (or generator teardown) must not
                # leave orphaned chunk tasks running in live workers.
                for future in futures:
                    future.cancel()
                raise
