"""Columnar campaign fan-out: one compact row of scalars per seed.

A heap-engine campaign ships one pickled
:class:`~repro.sim.replication.SimulationResult` per replication back
through the process pool.  Columnar replications reduce to a fixed vector
of scalars (:data:`COLUMNAR_FIELDS`), so each worker returns only that
row, as a plain tuple of floats.  The pool pickles the tuple back, the
checkpoint journal stores it, and a resumed campaign splices the journaled
tuple back in: fresh and resumed rows are the same numbers in the same
form.

The public entry point is :class:`~repro.runtime.executor.ParallelReplicator`
with ``engine="columnar"`` (or :func:`run_columnar_campaign` directly);
results come back as the same :class:`~repro.runtime.executor.CampaignResult`
shape, with compact :class:`ColumnarReplication` records in ``results`` so
``summaries()``, ``events_processed``, and ``describe()`` all work
unchanged.  ``engine="columnar-batched"`` is a second name for the same
path.

Dispatch is one seed per job under both names: ``task(seed)`` returns one
columnar result.  The package's own task, :func:`hap_approx_columnar_task`,
runs that seed as a batch of one through the replication-batched kernel
(:mod:`repro.sim.columnar_batch`), whose rows are bit-identical to the
sequential engine's.  Timeouts, retries, failures, and checkpoint journal
keys (``seed=<seed>``) are all per seed, so a journal resumes under any
worker count or a larger replication count.  A journal written by the
former seed-group dispatch, which keyed each group by its seed span,
splices nothing: resuming from it re-runs every seed, with identical
results.  A batched task (``task(seeds) -> list``) is no longer a valid
task; each seed it is handed fails.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

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
    "hap_approx_columnar_task",
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


def _columnar_worker(task: Callable, seed: int) -> tuple[float, ...]:
    """Run one columnar replication and return its row.

    Module-level (pickles into pool workers); the campaign binds ``task``
    with :func:`functools.partial`.  The returned tuple is what travels
    back through the pool and what the checkpoint journal stores.
    """
    result = task(seed)
    return tuple(float(getattr(result, name)) for name in COLUMNAR_FIELDS)


def hap_approx_columnar_task(params, horizon: float, seed: int):
    """One M/HAP-approx/1 replication of ``seed`` through the columnar kernel.

    The campaign task of ``simulate --engine columnar`` (or
    ``columnar-batched``) and of
    :func:`~repro.experiments.headline.run_headline_columnar_campaign`:
    bind ``params`` and ``horizon`` with :func:`functools.partial` and it
    pickles into pool workers.  The seed runs as a batch of one through
    :func:`~repro.sim.columnar_batch.simulate_hap_approx_columnar_batch`,
    imported lazily so importing the runtime package never pulls the
    columnar stack in; each worker builds the (per-process LRU-cached)
    symmetric MMPP mapping once and reuses it across its replications.
    """
    from repro.sim.columnar_batch import simulate_hap_approx_columnar_batch

    return simulate_hap_approx_columnar_batch(params, horizon, [seed])[0]


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
    """Fan a columnar task out over a campaign, one row per seed.

    Same seed derivation, failure semantics, retry/checkpoint behaviour,
    and :class:`~repro.runtime.executor.CampaignResult` contract as the
    heap path — the only difference is what travels back: workers return
    :data:`COLUMNAR_FIELDS` rows instead of pickling full result objects.
    ``task(seed)`` returns one columnar result and must be picklable for
    the pool to be used (the usual :func:`functools.partial` over a
    module-level function, such as :func:`hap_approx_columnar_task`);
    otherwise the campaign degrades to the identical in-process path.
    """
    worker = partial(_columnar_worker, task)
    jobs = [
        _Job(index=k, seed=seed, task=worker)
        for k, seed in enumerate(derive_seeds(num_replications, base_seed))
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
    return _campaign_result(
        outcomes,
        skipped,
        wall_clock,
        workers,
        result_of=lambda outcome: ColumnarReplication.from_row(outcome.value),
    )
