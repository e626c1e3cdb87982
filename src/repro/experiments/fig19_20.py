"""Figures 19 and 20 plus the Section-5 rate studies (Solution 2 based).

Figure 19 perturbs the arrival rate of one level at a time (±5 % steps) and
plots delay against the resulting ``lambda-bar``: upper-level rates move
``lambda-bar`` most; lower-level rates move *burstiness* most (so at equal
``lambda-bar`` the curve perturbed at the message level sits highest).

Section 5 also scales arrival *and* departure rates of one level together —
``lambda-bar`` is invariant (Equation 4 depends only on ratios), but faster
churn shortens bursts: +10 % on both moved delay by about -1 % in the paper.

Figure 20 bounds users at 12 and applications at 60 and shows both
``lambda-bar`` and delay drop, more at higher load.

The Figure 19/20 grid points are independent closed-form solves, so both
sweeps fan out over :func:`repro.runtime.analytic.run_analytic_sweep`.
The Section-5 joint-scaling study is the exception: its QBD solves share a
modulating box and neighbouring factors have nearby rate matrices, so it
runs serially and *warm-starts* each solve from the previous factor's
converged ``R`` (see :func:`run_sec5_joint_scaling`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.core.admission import solve_bounded_solution2
from repro.core.params import HAPParameters
from repro.core.solution2 import solve_solution2
from repro.experiments.configs import base_parameters
from repro.runtime.analytic import run_analytic_sweep

__all__ = [
    "LevelSweepPoint",
    "Fig20Point",
    "run_fig19",
    "run_fig20",
    "run_sec5_joint_scaling",
]


@dataclass(frozen=True)
class LevelSweepPoint:
    """One (level, factor) perturbation result."""

    level: str
    factor: float
    lambda_bar: float
    delay: float
    sigma: float

    def describe(self) -> str:
        """One row of Figure 19."""
        return (
            f"{self.level:<12} x{self.factor:<5.2f} "
            f"lambda-bar={self.lambda_bar:.4g} delay={self.delay:.4g} "
            f"sigma={self.sigma:.3f}"
        )


def _fig19_point(
    base: HAPParameters, level: str, factor: float, service_rate: float
) -> LevelSweepPoint:
    params = base.scaled(level, "arrival", factor)
    solution = solve_solution2(params, service_rate)
    return LevelSweepPoint(
        level=level,
        factor=factor,
        lambda_bar=params.mean_message_rate,
        delay=solution.mean_delay,
        sigma=solution.sigma,
    )


def run_fig19(
    factors: tuple[float, ...] = (0.85, 0.90, 0.95, 1.0, 1.05, 1.10, 1.15),
    service_rate: float = 20.0,
    max_workers: int | None = None,
    policy=None,
    checkpoint=None,
    resume: bool = False,
) -> list[LevelSweepPoint]:
    """Perturb each level's arrival rate and solve with Solution 2.

    The paper notes Solutions 1/2 are only trend-accurate past 30 %
    utilization, and uses them exactly this way — for the trend.  The
    ``3 levels x len(factors)`` grid fans out over ``max_workers``
    processes; results keep the serial (level, factor) order.  ``policy``,
    ``checkpoint`` and ``resume`` have the
    :func:`~repro.runtime.analytic.run_analytic_sweep` semantics.
    """
    base = base_parameters(service_rate=service_rate)
    tasks = [
        (
            f"{level}-x{factor:g}",
            partial(_fig19_point, base, level, factor, service_rate),
        )
        for level in ("user", "application", "message")
        for factor in factors
    ]
    return run_analytic_sweep(
        tasks,
        max_workers=max_workers,
        policy=policy,
        checkpoint=checkpoint,
        resume=resume,
    )


def run_sec5_joint_scaling(
    factors: tuple[float, ...] = (0.9, 1.0, 1.1),
    level: str = "application",
    service_rate: float = 20.0,
    modulating_bounds: tuple[int, int] = (16, 80),
) -> list[LevelSweepPoint]:
    """Scale arrival and departure together: same ``lambda-bar``, less burst.

    The paper: sources that "come frequently but go quickly generate shorter
    bursts than [equal-load] sources that come infrequently but stay longer";
    +10 % on both moved delay about -1 %.

    Reproduction note: Solution 2's closed form depends on the level rates
    only through their *ratios* (``a_i = lambda_i / mu_i``), so it is
    mathematically invariant under this scaling — the churn-speed effect
    lives in the interarrival *correlation* that Solutions 1/2 discard.  We
    therefore run this study with Solution 0 (exact QBD), which shows the
    paper's ~1 % effect at the application level.

    All factors share one modulating box, and a ±10 % rate scaling moves
    the matrix-geometric ``R`` only slightly, so the sweep runs serially
    and warm-starts each factor's fixed point from the previous factor's
    converged ``R`` (the warm-start contract documented in EXPERIMENTS.md).
    """
    from repro.core.solution0 import solve_solution0

    base = base_parameters(service_rate=service_rate)
    points = []
    previous_rate_matrix = None
    for factor in factors:
        params = base.scaled(level, "both", factor)
        solution = solve_solution0(
            params,
            service_rate,
            backend="qbd",
            modulating_bounds=modulating_bounds,
            qbd_initial_rate_matrix=previous_rate_matrix,
        )
        previous_rate_matrix = solution.rate_matrix
        points.append(
            LevelSweepPoint(
                level=f"{level}(both)",
                factor=factor,
                lambda_bar=params.mean_message_rate,
                delay=solution.mean_delay,
                sigma=solution.sigma,
            )
        )
    return points


@dataclass(frozen=True)
class Fig20Point:
    """Bounded versus unbounded delay at one load level."""

    user_arrival_rate: float
    lambda_bar_unbounded: float
    delay_unbounded: float
    lambda_bar_bounded: float
    delay_bounded: float

    @property
    def delay_reduction(self) -> float:
        """Fractional delay saved by the admission bound."""
        return 1.0 - self.delay_bounded / self.delay_unbounded

    def describe(self) -> str:
        """One row of Figure 20."""
        return (
            f"lambda={self.user_arrival_rate:g}: unbounded "
            f"(rate={self.lambda_bar_unbounded:.3g}, T={self.delay_unbounded:.4g}) "
            f"bounded (rate={self.lambda_bar_bounded:.3g}, "
            f"T={self.delay_bounded:.4g}) saving={100 * self.delay_reduction:.1f}%"
        )


def _fig20_point(
    lam: float, max_users: int, max_apps: int, service_rate: float
) -> Fig20Point:
    params = base_parameters(service_rate=service_rate, user_arrival_rate=lam)
    unbounded = solve_solution2(params, service_rate)
    bounded = solve_bounded_solution2(
        params, max_users=max_users, max_apps=max_apps, service_rate=service_rate
    )
    return Fig20Point(
        user_arrival_rate=lam,
        lambda_bar_unbounded=params.mean_message_rate,
        delay_unbounded=unbounded.mean_delay,
        lambda_bar_bounded=bounded.mean_rate,
        delay_bounded=bounded.mean_delay,
    )


def run_fig20(
    user_rates: tuple[float, ...] = (0.004, 0.005, 0.0055, 0.006, 0.0065, 0.007),
    max_users: int = 12,
    max_apps: int = 60,
    service_rate: float = 20.0,
    max_workers: int | None = None,
    policy=None,
    checkpoint=None,
    resume: bool = False,
) -> list[Fig20Point]:
    """Sweep the load; compare unbounded Solution 2 with the bounded variant.

    The paper's bounds: 12 users / 60 applications, versus 60/300 as the
    "effectively unbounded" reference (our unbounded arm is the closed form,
    i.e. genuinely unbounded).  Load points are independent and fan out
    over ``max_workers`` processes, with :func:`run_fig19`'s resilience
    knobs.
    """
    tasks = [
        (
            f"lambda={lam:g}",
            partial(_fig20_point, lam, max_users, max_apps, service_rate),
        )
        for lam in user_rates
    ]
    return run_analytic_sweep(
        tasks,
        max_workers=max_workers,
        policy=policy,
        checkpoint=checkpoint,
        resume=resume,
    )
