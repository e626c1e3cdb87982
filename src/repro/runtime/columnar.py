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
unchanged.  ``engine="columnar-batched"`` is a second name for the same
path.

Dispatch is one seed per job under both names: ``task(seed)`` returns one
columnar result.  The package's own tasks run that seed as a batch of one
through the replication-batched kernel (:mod:`repro.sim.columnar_batch`),
whose rows are bit-identical to the sequential engine's.  Timeouts,
retries, failures, and checkpoint journal keys (``seed=<seed>``) are all
per seed, so a journal resumes under any worker count or a larger
replication count.  A journal written by the former seed-group dispatch,
which keyed each group by its seed span, splices nothing: resuming from
it re-runs every seed, with identical results.  A batched task
(``task(seeds) -> list``) is no longer a valid task; each seed it is
handed fails.
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
    _campaign_result,
    _Job,
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
) -> CampaignResult:
    """Fan a columnar task out over a campaign through shared memory.

    Same seed derivation, failure semantics, retry/checkpoint behaviour,
    and :class:`~repro.runtime.executor.CampaignResult` contract as the
    heap path — the only difference is the transport: workers write
    :data:`COLUMNAR_FIELDS` rows into one shared-memory matrix instead of
    pickling full result objects back.  ``task(seed)`` returns one columnar
    result and must be picklable for the pool to be used (the usual
    :func:`functools.partial` over a module-level function); otherwise the
    campaign degrades to the identical in-process path, which writes the
    same shared memory.
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
        worker = partial(_columnar_worker, task, shm.name, base_seed)
        jobs = [
            _Job(index=k, seed=seed, task=worker)
            for k, seed in enumerate(seeds)
        ]
        outcomes, skipped, wall_clock, workers = run_jobs(
            jobs,
            max_workers=max_workers,
            chunk_size=chunk_size,
            wall_clock_budget=wall_clock_budget,
            policy=policy,
            journal=checkpoint,
            resume=resume,
        )
        # Journaled rows come from the journal: a resumed run never wrote
        # their shared-memory rows.
        return _campaign_result(
            outcomes,
            skipped,
            wall_clock,
            workers,
            result_of=lambda outcome: ColumnarReplication.from_row(
                outcome.value
                if outcome.from_checkpoint
                else matrix[outcome.index]
            ),
        )
    finally:
        # Both halves must run even if one raises: a leaked segment
        # outlives the process and eats /dev/shm until reboot.
        try:
            shm.close()
        finally:
            shm.unlink()
