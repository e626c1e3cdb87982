"""Analytic sweeps over the replication runtime.

The process-pool machinery in :mod:`repro.runtime.executor` was built for
simulation replications, but the paper's figure pipelines are mostly
*analytic* grids — Solution-2 load curves, QBD ladders, bounded-population
points — whose points are just as independent as simulation seeds.
:func:`run_analytic_sweep` adapts those zero-replication workloads onto
:func:`repro.runtime.sweep.sweep` so they share the pool, the failure
capture, and the determinism contract (results are keyed by grid position,
never by scheduling): it evaluates a list of labelled zero-argument tasks,
one pool job each, returning results in input order.

With one worker the sweep runs in-process (no pool, no pickling), so small
smoke-test sweeps pay no dispatch overhead; on multicore machines the
points fan out like any simulation campaign.  Tasks must be picklable
(module level functions or :func:`functools.partial` over them) to actually
fan out — the executor degrades to the identical serial path otherwise.
A closed-form curve over a numpy grid is one vectorized call, not a sweep:
the Figure 9/10 drivers evaluate their densities directly.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.runtime.resilience import CheckpointJournal, RetryPolicy
from repro.runtime.sweep import SweepPoint, sweep

__all__ = ["run_analytic_sweep"]


@dataclass(frozen=True)
class _SeedlessTask:
    """Picklable adapter giving a zero-argument task the ``task(seed)`` shape."""

    fn: Callable

    def __call__(self, seed: int):
        return self.fn()


def run_analytic_sweep(
    tasks: Sequence[tuple[str, Callable]],
    max_workers: int | None = None,
    chunk_size: int | None = None,
    policy: RetryPolicy | None = None,
    checkpoint: CheckpointJournal | str | None = None,
    resume: bool = False,
) -> list:
    """Evaluate labelled zero-argument tasks over the sweep pool.

    Parameters
    ----------
    tasks:
        ``(label, fn)`` pairs; each ``fn()`` computes one analytic grid
        point.  Labels must be unique (they key failure reports).
    max_workers, chunk_size:
        As in :func:`repro.runtime.sweep.sweep`.
    policy:
        Optional :class:`~repro.runtime.resilience.RetryPolicy`: per-point
        timeouts and retries (an analytic point is deterministic, but a
        worker can still be OOM-killed or hang in an ill-conditioned
        solve).
    checkpoint, resume:
        Optional crash-safe journal; with ``resume=True`` a sweep that
        died at grid point *k* recomputes only the missing points.  Keys
        are the task labels, so labels must be stable across runs.

    Returns
    -------
    The task results, in input order.  Any task failure re-raises as a
    :class:`~repro.runtime.executor.ReplicationError` carrying the
    worker-side traceback.
    """
    if not tasks:
        return []
    labels = [label for label, _ in tasks]
    points = [
        SweepPoint(label=label, task=_SeedlessTask(fn), num_replications=1)
        for label, fn in tasks
    ]
    result = sweep(
        points,
        num_replications=1,
        max_workers=max_workers,
        chunk_size=chunk_size,
        policy=policy,
        checkpoint=checkpoint,
        resume=resume,
    )
    result.raise_if_failed()
    return [result[label].results[0] for label in labels]
