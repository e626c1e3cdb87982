"""Figures 11 and 12 — mean delay versus server capacity / arrival rate.

Figure 11 fixes the workload (``lambda-bar = 8.25``) and sweeps the server
capacity ``mu''``; Figure 12 fixes ``mu'' = 17`` and sweeps the load through
the user arrival rate ``lambda``.  The paper's observation: the HAP/Poisson
delay gap is mild at low utilization (15.22 % above M/M/1 at ``mu'' = 30``)
and explodes as utilization grows (about 200x at 64 %).

Both sweeps share one row shape: simulation is the ground truth for HAP,
with Solution 2 alongside to show where its light-load validity ends, and
M/M/1 as the Poisson baseline.

Sweep points are independent (each carries its own seed and parameter set),
so both figures fan their points over the shared replication runtime via
:func:`repro.runtime.analytic.run_analytic_sweep` — serial and parallel
runs produce identical point lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.core.params import HAPParameters
from repro.core.solution0 import solve_solution0
from repro.core.solution2 import solve_solution2
from repro.experiments.configs import base_parameters
from repro.queueing.mm1 import solve_mm1
from repro.runtime.analytic import run_analytic_sweep
from repro.sim.replication import simulate_hap_mm1

__all__ = ["SweepPoint", "run_fig11", "run_fig12"]


@dataclass(frozen=True)
class SweepPoint:
    """One sweep position of Figure 11 or 12."""

    sweep_value: float
    utilization: float
    delay_simulation: float
    sigma_simulation: float
    delay_exact: float
    delay_solution2: float
    delay_mm1: float

    @property
    def ratio_vs_mm1(self) -> float:
        """Exact (Solution 0) HAP delay over M/M/1 delay — the noise-free
        version of the paper's gap; the simulation column shows agreement."""
        return self.delay_exact / self.delay_mm1

    @property
    def sim_ratio_vs_mm1(self) -> float:
        """Simulated HAP delay over M/M/1 delay."""
        return self.delay_simulation / self.delay_mm1

    def describe(self) -> str:
        """One table row."""
        return (
            f"value={self.sweep_value:<8g} rho={self.utilization:.3f} "
            f"T_exact={self.delay_exact:.4g} T_sim={self.delay_simulation:.4g} "
            f"T_sol2={self.delay_solution2:.4g} "
            f"T_mm1={self.delay_mm1:.4g} ratio={self.ratio_vs_mm1:.2f}"
        )


#: Truncation spread (standard deviations) for the exact column's chain;
#: 4 sigma keeps the sweep affordable at a small, documented accuracy cost
#: (the full-accuracy headline run uses the 6-sigma default).
_EXACT_SPREAD = 4.0


def _sweep_point(
    params: HAPParameters,
    service_rate: float,
    sweep_value: float,
    horizon: float,
    seed: int,
) -> SweepPoint:
    lam = params.mean_message_rate
    sim = simulate_hap_mm1(
        params, horizon=horizon, seed=seed, service_rate=service_rate
    )
    import numpy as np

    u = params.mean_users
    c_total = sum(app.offered_instances for app in params.applications)
    x_max = int(np.ceil(u + _EXACT_SPREAD * np.sqrt(u)))
    y_var = u * c_total * (1.0 + c_total)
    y_max = int(np.ceil(u * c_total + _EXACT_SPREAD * np.sqrt(y_var)))
    exact = solve_solution0(
        params,
        service_rate,
        backend="qbd",
        modulating_bounds=(max(x_max, 2), max(y_max, 2)),
    )
    sol2 = solve_solution2(params, service_rate)
    mm1 = solve_mm1(lam, service_rate)
    return SweepPoint(
        sweep_value=sweep_value,
        utilization=lam / service_rate,
        delay_simulation=sim.mean_delay,
        sigma_simulation=sim.sigma,
        delay_exact=exact.mean_delay,
        delay_solution2=sol2.mean_delay,
        delay_mm1=mm1.mean_delay,
    )


def run_fig11(
    capacities: tuple[float, ...] = (13.0, 15.0, 17.0, 20.0, 25.0, 30.0, 40.0),
    horizon: float = 300_000.0,
    seed: int = 11,
    max_workers: int | None = None,
    policy=None,
    checkpoint=None,
    resume: bool = False,
) -> list[SweepPoint]:
    """Delay versus server capacity at fixed ``lambda-bar = 8.25``.

    The lowest capacities sit at the paper's 64 % utilization corner where
    HAP's delay blows up; expect large run-to-run variation there (that
    *is* the finding).  Points are independent and fan out over
    ``max_workers`` processes (default: one per CPU).  ``policy``,
    ``checkpoint`` and ``resume`` have the
    :func:`~repro.runtime.analytic.run_analytic_sweep` semantics — a
    checkpointed sweep interrupted mid-grid resumes from the last
    completed capacity point.
    """
    params = base_parameters()
    tasks = [
        (f"mu={mu:g}", partial(_sweep_point, params, mu, mu, horizon, seed + k))
        for k, mu in enumerate(capacities)
    ]
    return run_analytic_sweep(
        tasks,
        max_workers=max_workers,
        policy=policy,
        checkpoint=checkpoint,
        resume=resume,
    )


def run_fig12(
    user_rates: tuple[float, ...] = (
        0.002,
        0.003,
        0.004,
        0.0055,
        0.007,
        0.008,
    ),
    service_rate: float = 17.0,
    horizon: float = 300_000.0,
    seed: int = 12,
    max_workers: int | None = None,
    policy=None,
    checkpoint=None,
    resume: bool = False,
) -> list[SweepPoint]:
    """Delay versus message arrival rate at fixed ``mu'' = 17``.

    The sweep changes the load the way the paper does — through the user
    arrival rate ``lambda`` — so the hierarchy's shape stays fixed while
    ``lambda-bar`` scales linearly.  Points fan out over ``max_workers``
    processes like :func:`run_fig11`, with the same resilience knobs.
    """
    tasks = []
    for k, lam in enumerate(user_rates):
        params = base_parameters(
            service_rate=service_rate, user_arrival_rate=lam
        )
        tasks.append(
            (
                f"lambda={lam:g}",
                partial(
                    _sweep_point,
                    params,
                    service_rate,
                    params.mean_message_rate,
                    horizon,
                    seed + k,
                ),
            )
        )
    return run_analytic_sweep(
        tasks,
        max_workers=max_workers,
        policy=policy,
        checkpoint=checkpoint,
        resume=resume,
    )
