"""Shared-memory campaign fan-out for the columnar engine.

A heap-engine campaign ships one pickled
:class:`~repro.sim.replication.SimulationResult` per replication back
through the process pool.  Columnar replications reduce to a fixed vector
of scalars (:data:`COLUMNAR_FIELDS`), so a campaign can instead allocate
one ``multiprocessing.shared_memory`` float64 matrix — one row per
replication — that workers write in place.  The parent never unpickles
result payloads; it reads the matrix.

Checkpointing still works: each worker *also* returns its row as a plain
tuple, which is what :func:`~repro.runtime.executor.run_jobs` journals and
what a resumed campaign splices back (a fresh shared-memory block cannot
contain rows written before the crash).  Fresh rows are read from shared
memory; resumed rows come from the journal — byte-for-byte the same
numbers, since the journal stores exactly what the worker wrote.

The public entry point is :class:`~repro.runtime.executor.ParallelReplicator`
with ``engine="columnar"`` (or :func:`run_columnar_campaign` directly);
results come back as the same :class:`~repro.runtime.executor.CampaignResult`
shape, with compact :class:`ColumnarReplication` records in ``results`` so
``summaries()``, ``events_processed``, and ``describe()`` all work
unchanged.

``engine="columnar-batched"`` (``batch=True`` here) changes the unit of
dispatch from one replication to one contiguous *seed group*: the task
receives the whole group's seed list and runs it through the batched
kernel (:mod:`repro.sim.columnar_batch`), writing every row of the
shared-memory matrix in a single call.  With ``workers=1`` the entire
campaign is one group — the batched kernel drives the result matrix
directly with no per-replication task dispatch at all.  Failure/retry/
checkpoint accounting stays *per seed* (a failed group records one
:class:`~repro.runtime.executor.ReplicationFailure` per member seed), and
because batched rows are bit-identical to sequential columnar rows, both
engines produce the same statistics for the same seed list.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from multiprocessing import shared_memory

import numpy as np

from repro.runtime.executor import (
    CampaignResult,
    ReplicationFailure,
    _Job,
    default_worker_count,
    derive_seeds,
    run_jobs,
)
from repro.runtime.resilience import CheckpointJournal, RetryPolicy

__all__ = [
    "COLUMNAR_FIELDS",
    "ColumnarReplication",
    "run_columnar_campaign",
]

#: Scalars each columnar replication contributes, in row order.  A superset
#: of :data:`~repro.runtime.executor.SUMMARY_FIELDS`, so campaign summaries
#: are computed exactly as for heap results.
COLUMNAR_FIELDS = (
    "mean_delay",
    "mean_wait",
    "sigma",
    "utilization",
    "mean_queue_length",
    "messages_served",
    "effective_arrival_rate",
    "delay_variance",
    "events_processed",
)


@dataclass(frozen=True)
class ColumnarReplication:
    """One replication's scalar statistics, rehydrated from a result row.

    Field-compatible with :class:`~repro.sim.replication.SimulationResult`
    for everything a campaign aggregates; traces and extras (which the
    heap engine attaches per replication) do not exist in columnar rows —
    that compactness is the point.
    """

    mean_delay: float
    mean_wait: float
    sigma: float
    utilization: float
    mean_queue_length: float
    messages_served: int
    effective_arrival_rate: float
    delay_variance: float
    events_processed: int

    @classmethod
    def from_row(cls, row) -> "ColumnarReplication":
        values = dict(zip(COLUMNAR_FIELDS, (float(v) for v in row)))
        values["messages_served"] = int(values["messages_served"])
        values["events_processed"] = int(values["events_processed"])
        return cls(**values)


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without registering a tracker claim.

    Workers must not let the resource tracker unlink the parent's block
    when they exit; ``track=False`` exists from Python 3.13, older
    interpreters never tracked attachments from pool workers spawned via
    fork, so plain attachment is the correct fallback.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover — pre-3.13 signature
        return shared_memory.SharedMemory(name=name)


def _columnar_worker(task: Callable, shm_name: str, base_seed: int, seed: int):
    """Run one columnar replication and publish its row.

    Module-level (pickles into pool workers); the campaign binds ``task``,
    ``shm_name``, and ``base_seed`` with :func:`functools.partial`.  The
    returned tuple is the journal/retry payload; the shared-memory write is
    the fast path the parent reads.
    """
    result = task(seed)
    row = tuple(float(getattr(result, name)) for name in COLUMNAR_FIELDS)
    shm = _attach(shm_name)
    try:
        matrix = np.ndarray(
            (len(row),),
            dtype=np.float64,
            buffer=shm.buf,
            offset=(seed - base_seed) * len(row) * 8,
        )
        matrix[:] = row
    finally:
        shm.close()
    return row


def _columnar_batch_worker(
    task: Callable,
    shm_name: str,
    base_seed: int,
    seeds: tuple[int, ...],
    _seed: int,
):
    """Run one seed group through the batched kernel and publish its rows.

    ``task`` is a batched columnar task: ``task(seeds) -> list of
    SimulationResult``, one per seed in order.  The trailing ``_seed``
    positional is the group's first seed, supplied by the dispatch loop's
    ``job.task(job.seed)`` convention and unused — the bound ``seeds``
    tuple is authoritative.  Returns the tuple of row tuples (the
    journal/retry payload); the shared-memory writes are the fast path.
    """
    results = task(list(seeds))
    if len(results) != len(seeds):
        raise RuntimeError(
            f"batched columnar task returned {len(results)} results "
            f"for {len(seeds)} seeds"
        )
    width = len(COLUMNAR_FIELDS)
    rows = tuple(
        tuple(float(getattr(result, name)) for name in COLUMNAR_FIELDS)
        for result in results
    )
    shm = _attach(shm_name)
    try:
        for seed, row in zip(seeds, rows):
            matrix = np.ndarray(
                (width,),
                dtype=np.float64,
                buffer=shm.buf,
                offset=(seed - base_seed) * width * 8,
            )
            matrix[:] = row
    finally:
        shm.close()
    return rows


def run_columnar_campaign(
    task: Callable,
    num_replications: int,
    base_seed: int = 0,
    max_workers: int | None = None,
    chunk_size: int | None = None,
    wall_clock_budget: float | None = None,
    policy: RetryPolicy | None = None,
    checkpoint: CheckpointJournal | str | None = None,
    resume: bool = False,
    batch: bool = False,
) -> CampaignResult:
    """Fan a columnar task out over a campaign through shared memory.

    Same seed derivation, failure semantics, retry/checkpoint behaviour,
    and :class:`~repro.runtime.executor.CampaignResult` contract as the
    heap path — the only difference is the transport: workers write
    :data:`COLUMNAR_FIELDS` rows into one shared-memory matrix instead of
    pickling full result objects back.  ``task`` must be picklable for the
    pool to be used (the usual :func:`functools.partial` over a
    module-level function); otherwise the campaign degrades to the
    identical in-process path, which writes the same shared memory.

    With ``batch=True`` the task is batched — ``task(seeds) -> list of
    SimulationResult`` — and the unit of dispatch becomes a contiguous
    seed group: ``chunk_size`` seeds per group when given, otherwise the
    campaign split evenly across the worker count (one single all-seed
    group when ``workers=1``, so one batched kernel call owns the whole
    matrix).  Per-seed accounting (failures, retries, skips, resume
    counts) expands from the group outcome, and a checkpoint journal keys
    groups by their seed span — resuming requires the same
    ``chunk_size``/worker partitioning that wrote the journal.
    """
    seeds = derive_seeds(num_replications, base_seed)
    width = len(COLUMNAR_FIELDS)
    shm = shared_memory.SharedMemory(
        create=True, size=num_replications * width * 8
    )
    try:
        matrix = np.ndarray(
            (num_replications, width), dtype=np.float64, buffer=shm.buf
        )
        matrix[:] = math.nan
        if batch:
            workers_hint = (
                default_worker_count(limit=num_replications)
                if max_workers is None
                else max(1, int(max_workers))
            )
            rows_per_job = (
                max(1, int(chunk_size))
                if chunk_size is not None
                else math.ceil(num_replications / workers_hint)
            )
            groups = [
                seeds[start : start + rows_per_job]
                for start in range(0, num_replications, rows_per_job)
            ]
            jobs = [
                _Job(
                    index=k,
                    seed=group[0],
                    task=partial(
                        _columnar_batch_worker, task, shm.name, base_seed, group
                    ),
                    key=f"seeds={group[0]}-{group[-1]}",
                )
                for k, group in enumerate(groups)
            ]
            dispatch_chunk = 1  # each seed group is already a dispatch unit
        else:
            groups = [(seed,) for seed in seeds]
            worker = partial(_columnar_worker, task, shm.name, base_seed)
            jobs = [
                _Job(index=k, seed=seed, task=worker)
                for k, seed in enumerate(seeds)
            ]
            dispatch_chunk = chunk_size
        outcomes, skipped, wall_clock, workers = run_jobs(
            jobs,
            max_workers=max_workers,
            chunk_size=dispatch_chunk,
            wall_clock_budget=wall_clock_budget,
            policy=policy,
            journal=checkpoint,
            resume=resume,
        )
        outcomes.sort(key=lambda outcome: outcome.index)
        results: list[ColumnarReplication] = []
        result_seeds: list[int] = []
        failures: list[ReplicationFailure] = []
        for outcome in outcomes:
            group = groups[outcome.index]
            if outcome.error is not None:
                failures.extend(
                    ReplicationFailure(
                        index=seed - base_seed,
                        seed=seed,
                        error=outcome.error,
                        traceback=outcome.traceback,
                        attempts=outcome.attempts,
                    )
                    for seed in group
                )
                continue
            if outcome.from_checkpoint:
                # Journaled rows; the shm rows were never written this run.
                rows = outcome.value if batch else (outcome.value,)
            else:
                rows = [matrix[seed - base_seed] for seed in group]
            for seed, row in zip(group, rows):
                results.append(ColumnarReplication.from_row(row))
                result_seeds.append(seed)
        return CampaignResult(
            results=tuple(results),
            seeds=tuple(result_seeds),
            failures=tuple(failures),
            skipped_seeds=tuple(
                seed for job in skipped for seed in groups[job.index]
            ),
            wall_clock=wall_clock,
            busy_time=sum(o.elapsed for o in outcomes),
            max_workers=workers,
            retried_seeds=tuple(
                sorted(
                    {
                        seed
                        for o in outcomes
                        if o.attempts > 1
                        for seed in groups[o.index]
                    }
                )
            ),
            resumed=sum(
                len(groups[o.index]) for o in outcomes if o.from_checkpoint
            ),
        )
    finally:
        # Both halves must run even if one raises: a leaked segment
        # outlives the process and eats /dev/shm until reboot.
        try:
            shm.close()
        finally:
            shm.unlink()
