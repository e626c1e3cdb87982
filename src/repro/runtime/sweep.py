"""Grid campaigns: parameter points × replications over one process pool.

Every ``repro.experiments.fig*`` driver has the same shape — a handful of
parameter points (HAP versus Poisson, a service-rate ladder, a burstiness
grid), each needing independent replications.  :func:`sweep` runs that grid
through one shared pool with round-robin dispatch (so a wall-clock budget
truncates all points evenly rather than starving the last ones) and returns
per-point :class:`~repro.runtime.executor.CampaignResult` objects.

Seed discipline mirrors the executor's: point ``p`` replication ``r`` runs
with ``base_seed + p · seed_stride + r`` unless the point pins its own
``base_seed``.  The derivation depends only on grid position — never on
scheduling — so sweeps are reproducible at any worker count.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.runtime.executor import (
    CampaignResult,
    ReplicationFailure,
    _Job,
    run_jobs,
)
from repro.runtime.resilience import CheckpointJournal, RetryPolicy

__all__ = [
    "SweepCampaignResult",
    "SweepPoint",
    "SweepPointResult",
    "SweepResult",
    "sweep",
]


@dataclass(frozen=True)
class SweepPoint:
    """One parameter point of a campaign grid.

    Attributes
    ----------
    label:
        Name the point is reported (and looked up) under.
    task:
        ``task(seed) -> result``; must be picklable (module-level function
        or :func:`functools.partial` over one) for pool dispatch.
    base_seed:
        Pin this point's first seed; ``None`` derives it from the sweep's
        ``base_seed`` and the point's grid position.
    num_replications:
        Override the sweep-wide replication count for this point.
    """

    label: str
    task: Callable
    base_seed: int | None = None
    num_replications: int | None = None


class SweepCampaignResult(CampaignResult):
    """A per-point campaign inside a sweep.

    Points share one pool and their replications interleave, so a per-point
    wall time is not well defined: ``wall_clock`` holds the *whole-sweep*
    wall-clock, the same number for every point
    (:attr:`SweepResult.wall_clock`).  This point's own cost is
    ``busy_time``.

    ``events_per_second`` and ``describe`` are redefined off ``busy_time``
    so per-point throughput is a real per-point figure.
    """

    @property
    def events_per_second(self) -> float:
        """Per-point throughput: this point's events / its busy seconds.

        0.0 (not NaN) when the point accumulated no busy time — e.g. every
        replication failed instantly or was spliced from a checkpoint.
        """
        if self.busy_time <= 0.0:
            return 0.0
        return self.events_processed / self.busy_time

    def describe(self) -> str:
        """One line of per-point stats, timed off ``busy_time``."""
        rate = self.events_per_second
        rate_text = f"{rate:,.0f} events/s" if not math.isnan(rate) else "n/a"
        parts = [
            f"{self.completed}/{self.requested} replications",
            f"{self.busy_time:.2f} s busy",
            rate_text,
        ]
        if self.failures:
            parts.append(f"{len(self.failures)} failed")
        if self.skipped_seeds:
            parts.append(f"{len(self.skipped_seeds)} skipped (budget)")
        if self.retried_seeds:
            parts.append(f"{len(self.retried_seeds)} retried")
        if self.resumed:
            parts.append(f"{self.resumed} resumed (checkpoint)")
        return ", ".join(parts)


@dataclass(frozen=True)
class SweepPointResult:
    """One grid point's campaign, keyed by its label.

    ``campaign`` is a :class:`SweepCampaignResult`: per-point timing comes
    from ``busy_time`` (the summed execution seconds of this point's
    replications alone); its ``wall_clock`` is the whole-sweep wall-clock.
    """

    label: str
    campaign: CampaignResult


@dataclass(frozen=True)
class SweepResult:
    """All campaigns of a sweep, in grid order.

    Attributes
    ----------
    points:
        Per-point results, in the order the points were given.
    wall_clock:
        Whole-sweep wall-clock seconds (shared pool, so this is *not* the
        sum of per-point wall-clocks).
    max_workers:
        Worker processes used.
    """

    points: tuple[SweepPointResult, ...]
    wall_clock: float
    max_workers: int

    def __getitem__(self, label: str) -> CampaignResult:
        """The campaign for ``label`` (KeyError if absent)."""
        for point in self.points:
            if point.label == label:
                return point.campaign
        raise KeyError(label)

    def labels(self) -> tuple[str, ...]:
        """Grid-point labels, in grid order."""
        return tuple(point.label for point in self.points)

    @property
    def failures(self) -> tuple[ReplicationFailure, ...]:
        """All captured failures across the grid."""
        return tuple(
            failure
            for point in self.points
            for failure in point.campaign.failures
        )

    @property
    def skipped(self) -> int:
        """Replications never dispatched because the budget ran out."""
        return sum(len(point.campaign.skipped_seeds) for point in self.points)

    @property
    def events_processed(self) -> int:
        """Simulator events fired across the whole grid."""
        return sum(point.campaign.events_processed for point in self.points)

    @property
    def events_per_second(self) -> float:
        """Aggregate throughput: grid events / sweep wall-clock.

        0.0 (not NaN) for a sweep that consumed no wall-clock time, so
        downstream tables and gates see a number, not a NaN.
        """
        if self.wall_clock <= 0.0:
            return 0.0
        return self.events_processed / self.wall_clock

    def raise_if_failed(self) -> None:
        """Re-raise captured failures, if any, as one error."""
        from repro.runtime.executor import ReplicationError

        if self.failures:
            raise ReplicationError(self.failures)

    def describe(self) -> str:
        """Per-point progress/timing lines plus a sweep total.

        Per-point lines are timed off each point's ``busy_time`` (the only
        well-defined per-point figure — points interleave over one shared
        pool); the closing total carries the sweep wall-clock.
        """
        lines = [
            f"{point.label:<12} {point.campaign.describe()}"
            for point in self.points
        ]
        lines.append(
            f"sweep total: {self.wall_clock:.2f} s wall, "
            f"{self.max_workers} worker(s), "
            f"{self.events_processed:,} events"
        )
        return "\n".join(lines)


def _normalized(points: Sequence) -> list[SweepPoint]:
    """Accept ``SweepPoint`` objects or ``(label, task)`` pairs."""
    normalized = []
    for point in points:
        if isinstance(point, SweepPoint):
            normalized.append(point)
        else:
            label, task = point
            normalized.append(SweepPoint(label=label, task=task))
    if not normalized:
        raise ValueError("sweep needs at least one point")
    labels = [point.label for point in normalized]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate sweep labels: {labels}")
    return normalized


def sweep(
    points: Sequence,
    num_replications: int = 1,
    base_seed: int = 0,
    seed_stride: int = 1_000,
    max_workers: int | None = None,
    chunk_size: int | None = None,
    wall_clock_budget: float | None = None,
    policy: RetryPolicy | None = None,
    checkpoint: CheckpointJournal | str | None = None,
    resume: bool = False,
) -> SweepResult:
    """Run a grid of parameter points × replications over one pool.

    Parameters
    ----------
    points:
        :class:`SweepPoint` objects or ``(label, task)`` pairs.
    num_replications:
        Replications per point (points may override individually).
    base_seed, seed_stride:
        Point ``p`` replication ``r`` gets seed
        ``base_seed + p * seed_stride + r`` unless the point pins
        ``base_seed``; the stride keeps points' seed ranges disjoint.
    max_workers, chunk_size:
        As in :class:`~repro.runtime.executor.ParallelReplicator`.
    wall_clock_budget:
        Optional budget in seconds, checked at chunk boundaries.  Jobs are
        dispatched round-robin across points, so a truncated sweep has
        evenly thinned replication counts instead of whole missing points.
    policy:
        Optional :class:`~repro.runtime.resilience.RetryPolicy` adding
        per-job timeouts and seed-preserving retries across the grid.
    checkpoint, resume:
        Optional crash-safe journal (path or
        :class:`~repro.runtime.resilience.CheckpointJournal`); with
        ``resume=True`` a sweep interrupted at grid point *k* restarts
        from its last completed replication and produces bit-identical
        result tables.  Journal keys are ``"<label>/seed=<seed>"``, so
        resuming is safe across re-orderings of the same grid.

    Notes
    -----
    Each returned campaign is a :class:`SweepCampaignResult`: per-point
    throughput reads off ``busy_time``, and its ``wall_clock`` is the
    whole-sweep figure; see :class:`SweepPointResult`.
    """
    if num_replications < 1:
        raise ValueError("need at least one replication per point")
    grid = _normalized(points)
    replications = [
        point.num_replications
        if point.num_replications is not None
        else num_replications
        for point in grid
    ]
    first_seeds = [
        point.base_seed
        if point.base_seed is not None
        else base_seed + position * seed_stride
        for position, point in enumerate(grid)
    ]

    # Flatten round-robin: replication round 0 of every point, then round 1…
    jobs: list[_Job] = []
    coordinates: list[tuple[int, int]] = []  # job index -> (point, replication)
    for round_index in range(max(replications)):
        for position, point in enumerate(grid):
            if round_index >= replications[position]:
                continue
            coordinates.append((position, round_index))
            seed = first_seeds[position] + round_index
            jobs.append(
                _Job(
                    index=len(jobs),
                    seed=seed,
                    task=point.task,
                    key=f"{point.label}/seed={seed}",
                )
            )

    started = time.perf_counter()
    outcomes, skipped, _, workers = run_jobs(
        jobs,
        max_workers=max_workers,
        chunk_size=chunk_size,
        wall_clock_budget=wall_clock_budget,
        policy=policy,
        journal=checkpoint,
        resume=resume,
    )
    wall_clock = time.perf_counter() - started

    skipped_ids = {job.index for job in skipped}
    per_point_outcomes: list[list] = [[] for _ in grid]
    per_point_skipped: list[list[int]] = [[] for _ in grid]
    for outcome in outcomes:
        position, _ = coordinates[outcome.index]
        per_point_outcomes[position].append(outcome)
    for job in jobs:
        if job.index in skipped_ids:
            position, _ = coordinates[job.index]
            per_point_skipped[position].append(job.seed)

    results = []
    for position, point in enumerate(grid):
        ordered = sorted(per_point_outcomes[position], key=lambda o: o.seed)
        successes = [o for o in ordered if o.error is None]
        failures = tuple(
            ReplicationFailure(
                index=o.seed - first_seeds[position],
                seed=o.seed,
                error=o.error,
                traceback=o.traceback,
                attempts=o.attempts,
            )
            for o in ordered
            if o.error is not None
        )
        campaign = SweepCampaignResult(
            results=tuple(o.value for o in successes),
            seeds=tuple(o.seed for o in successes),
            failures=failures,
            skipped_seeds=tuple(per_point_skipped[position]),
            wall_clock=wall_clock,
            busy_time=sum(o.elapsed for o in ordered),
            max_workers=workers,
            retried_seeds=tuple(
                sorted({o.seed for o in ordered if o.attempts > 1})
            ),
            resumed=sum(1 for o in ordered if o.from_checkpoint),
        )
        results.append(SweepPointResult(label=point.label, campaign=campaign))
    return SweepResult(
        points=tuple(results), wall_clock=wall_clock, max_workers=workers
    )
