"""Figures 9 and 10 — message interarrival time distribution, body and tail.

The paper plots HAP's closed-form ``a(t)`` against the load-equivalent
exponential (both at ``lambda-bar = 7.5``): HAP starts higher
(a(0) = 9.28 > 7.5), dips below the exponential through the middle, and
re-crosses into a heavier tail — intersections at t ≈ 0.077 and ≈ 0.53.
Short gaps are intra-burst, long gaps are between bursts.

:func:`run_fig9_empirical` backs the closed form with simulation: a
replicated campaign (via :func:`repro.runtime.sweep.sweep`) measures the
mean arrival rate the event-driven HAP actually produces and checks it
against ``lambda-bar`` — the paper's mean interarrival of 0.133 s.

:func:`run_fig9` and :func:`run_fig10_tail` evaluate the closed-form
density in one vectorized call over their grid: at the figures' few hundred
points that takes well under a millisecond, less than starting one worker
process would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.interarrival import (
    InterarrivalDistribution,
    density_intersections,
    poisson_interarrival_density,
)
from repro.experiments.configs import fig9_parameters
from repro.runtime.sweep import SweepPoint, sweep
from repro.sim.replication import ReplicationSummary, simulate_hap_mm1

__all__ = [
    "Fig9EmpiricalResult",
    "Fig9Result",
    "run_fig9",
    "run_fig9_empirical",
    "run_fig10_tail",
]


@dataclass(frozen=True)
class Fig9Result:
    """The interarrival comparison at equal mean rate."""

    lambda_bar: float
    hap_density_at_zero: float
    poisson_density_at_zero: float
    intersections: tuple[float, ...]
    grid: np.ndarray
    hap_density: np.ndarray
    poisson_density: np.ndarray

    def describe(self) -> str:
        """The numbers the paper quotes for Figure 9."""
        crossings = ", ".join(f"{t:.3f}" for t in self.intersections)
        return "\n".join(
            [
                f"lambda-bar = {self.lambda_bar:.4g} (paper: 7.5)",
                f"a(0): HAP = {self.hap_density_at_zero:.3f} (paper: 9.28), "
                f"Poisson = {self.poisson_density_at_zero:.3f} (paper: 7.5)",
                f"intersections at t = {crossings} (paper: 0.077, 0.53)",
            ]
        )


def run_fig9(grid_upper: float = 0.7, grid_points: int = 200) -> Fig9Result:
    """Compute both densities on a grid plus the crossing points."""
    params = fig9_parameters()
    dist = InterarrivalDistribution(params)
    rate = params.mean_message_rate
    grid = np.linspace(0.0, grid_upper, grid_points)
    return Fig9Result(
        lambda_bar=rate,
        hap_density_at_zero=dist.density_at_zero(),
        poisson_density_at_zero=rate,
        intersections=tuple(density_intersections(dist)),
        grid=grid,
        hap_density=dist.density(grid),
        poisson_density=poisson_interarrival_density(rate, grid),
    )


@dataclass(frozen=True)
class Fig9EmpiricalResult:
    """Closed-form interarrival mean versus a replicated simulation.

    Attributes
    ----------
    lambda_bar:
        The closed-form mean message rate (paper: 7.5).
    rate_summary:
        Across-replication summary of the measured effective arrival rate.
    num_replications:
        Successful replications behind the summary.
    wall_clock:
        Campaign wall-clock seconds.
    """

    lambda_bar: float
    rate_summary: ReplicationSummary
    num_replications: int
    wall_clock: float

    @property
    def mean_interarrival(self) -> float:
        """Measured mean interarrival time (paper: 0.133 s)."""
        return 1.0 / self.rate_summary.mean

    def describe(self) -> str:
        """Closed form versus measurement, in the paper's units."""
        return "\n".join(
            [
                f"lambda-bar closed form = {self.lambda_bar:.4g} (paper: 7.5)",
                f"lambda-bar simulated   = {self.rate_summary.mean:.4g} "
                f"+/- {self.rate_summary.half_width():.2g} "
                f"({self.num_replications} replications)",
                f"mean interarrival      = {self.mean_interarrival:.4g} s "
                "(paper: 0.133)",
            ]
        )


def _fig9_rate_task(params, horizon, seed):
    """Picklable sweep task: one HAP run measuring the arrival rate."""
    return simulate_hap_mm1(params, horizon=horizon, seed=seed)


def run_fig9_empirical(
    horizon: float = 40_000.0,
    num_replications: int = 4,
    base_seed: int = 9,
    max_workers: int | None = None,
    policy=None,
    checkpoint=None,
    resume: bool = False,
) -> Fig9EmpiricalResult:
    """Validate the Figure-9 mean interarrival time by simulation.

    Runs a replicated campaign of the Figure-9 HAP through
    :func:`repro.runtime.sweep.sweep` and summarizes the measured effective
    arrival rate, whose reciprocal is the paper's 0.133 s mean
    interarrival.  ``policy``, ``checkpoint`` and ``resume`` have the
    :func:`~repro.runtime.sweep.sweep` semantics (an interrupted campaign
    resumes from its last completed seed).
    """
    params = fig9_parameters()
    result = sweep(
        [
            SweepPoint(
                "fig9-hap",
                partial(_fig9_rate_task, params, horizon),
                base_seed=base_seed,
            )
        ],
        num_replications=num_replications,
        max_workers=max_workers,
        policy=policy,
        checkpoint=checkpoint,
        resume=resume,
    )
    result.raise_if_failed()
    campaign = result["fig9-hap"]
    return Fig9EmpiricalResult(
        lambda_bar=params.mean_message_rate,
        rate_summary=campaign.summaries(("effective_arrival_rate",))[
            "effective_arrival_rate"
        ],
        num_replications=campaign.completed,
        # A per-point campaign's wall_clock is the whole-sweep figure; this
        # is a one-point sweep, so the sweep total IS the campaign's.
        wall_clock=result.wall_clock,
    )


def run_fig10_tail(
    tail_start: float = 0.45,
    tail_end: float = 0.7,
    grid_points: int = 120,
) -> Fig9Result:
    """The Figure-10 zoom: the tail window around the second crossing."""
    params = fig9_parameters()
    dist = InterarrivalDistribution(params)
    rate = params.mean_message_rate
    grid = np.linspace(tail_start, tail_end, grid_points)
    return Fig9Result(
        lambda_bar=rate,
        hap_density_at_zero=dist.density_at_zero(),
        poisson_density_at_zero=rate,
        intersections=tuple(
            t for t in density_intersections(dist) if tail_start <= t <= tail_end
        ),
        grid=grid,
        hap_density=dist.density(grid),
        poisson_density=poisson_interarrival_density(rate, grid),
    )
