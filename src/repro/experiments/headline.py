"""Section-4 headline experiment: all three solutions + simulation + M/M/1.

The paper's opening numbers (base parameters, ``mu'' = 20``):

    lambda-bar = 8.25, sigma = 0.50, rho = 0.42,
    HAP/M/1 delay = 0.55 by Solution 0 and simulation,
                    0.10 by Solutions 1 and 2,
    M/M/1 delay    = 0.085  (HAP 6.47x higher by Solution 0 / simulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.core.solution0 import solve_solution0
from repro.core.solution1 import solve_solution1
from repro.core.solution2 import solve_solution2
from repro.experiments.configs import base_parameters
from repro.queueing.mm1 import solve_mm1
from repro.runtime.columnar import (
    hap_approx_columnar_task,
    run_columnar_campaign,
)
from repro.runtime.executor import CampaignResult, ParallelReplicator
from repro.sim.replication import simulate_hap_mm1

__all__ = [
    "HeadlineCampaignResult",
    "HeadlineResult",
    "run_headline",
    "run_headline_campaign",
    "run_headline_columnar_campaign",
]


@dataclass(frozen=True)
class HeadlineResult:
    """Delays and sigmas from every route to the same queue."""

    lambda_bar: float
    delay_solution0: float
    sigma_solution0: float
    utilization_solution0: float
    delay_solution1: float
    sigma_solution1: float
    delay_solution2: float
    sigma_solution2: float
    delay_simulation: float
    sigma_simulation: float
    delay_mm1: float

    @property
    def ratio_solution0_vs_mm1(self) -> float:
        """The 6.47x of the paper."""
        return self.delay_solution0 / self.delay_mm1

    @property
    def ratio_solution2_vs_mm1(self) -> float:
        """The paper's "17.65 % higher" (its 0.10 / 0.085)."""
        return self.delay_solution2 / self.delay_mm1

    def describe(self) -> str:
        """Rows shaped like the paper's Section-4 paragraph."""
        return "\n".join(
            [
                f"lambda-bar            = {self.lambda_bar:.4g}",
                f"Solution 0 : delay={self.delay_solution0:.4g} "
                f"sigma={self.sigma_solution0:.3f} rho={self.utilization_solution0:.3f}",
                f"Solution 1 : delay={self.delay_solution1:.4g} "
                f"sigma={self.sigma_solution1:.3f}",
                f"Solution 2 : delay={self.delay_solution2:.4g} "
                f"sigma={self.sigma_solution2:.3f}",
                f"Simulation : delay={self.delay_simulation:.4g} "
                f"sigma={self.sigma_simulation:.3f}",
                f"M/M/1      : delay={self.delay_mm1:.4g}",
                f"Solution0/MM1 ratio = {self.ratio_solution0_vs_mm1:.2f} "
                "(paper: 6.47)",
                f"Solution2/MM1 ratio = {self.ratio_solution2_vs_mm1:.2f} "
                "(paper: 1.18)",
            ]
        )


def run_headline(
    sim_horizon: float = 400_000.0,
    seed: int = 7,
    solution0_bounds: tuple[int, int] | None = None,
) -> HeadlineResult:
    """Run the full Section-4 cross-method comparison.

    Parameters
    ----------
    sim_horizon:
        Simulated seconds (the paper's own Figure 13 shows convergence needs
        a lot; 4e5 s keeps the benchmark affordable and lands within the
        run-to-run fluctuation band).
    seed:
        Simulation seed.
    solution0_bounds:
        Modulating-chain truncation for Solution 0 (None = automatic; pass
        something small like (14, 70) to trade accuracy for speed).
    """
    params = base_parameters(service_rate=20.0)
    mm1 = solve_mm1(params.mean_message_rate, 20.0)
    sol0 = solve_solution0(
        params, backend="qbd", modulating_bounds=solution0_bounds
    )
    sol1 = solve_solution1(params)
    sol2 = solve_solution2(params)
    sim = simulate_hap_mm1(params, horizon=sim_horizon, seed=seed)
    return _assemble(params, mm1, sol0, sol1, sol2, sim.mean_delay, sim.sigma)


def _assemble(params, mm1, sol0, sol1, sol2, sim_delay, sim_sigma):
    """Fold the per-method numbers into a :class:`HeadlineResult`."""
    return HeadlineResult(
        lambda_bar=params.mean_message_rate,
        delay_solution0=sol0.mean_delay,
        sigma_solution0=sol0.sigma,
        utilization_solution0=sol0.utilization,
        delay_solution1=sol1.mean_delay,
        sigma_solution1=sol1.sigma,
        delay_solution2=sol2.mean_delay,
        sigma_solution2=sol2.sigma,
        delay_simulation=sim_delay,
        sigma_simulation=sim_sigma,
        delay_mm1=mm1.mean_delay,
    )


@dataclass(frozen=True)
class HeadlineCampaignResult:
    """The headline comparison with a replicated, parallel simulation column.

    Attributes
    ----------
    headline:
        The cross-method numbers, with the simulation column set to the
        across-replication mean.
    campaign:
        The raw :class:`~repro.runtime.executor.CampaignResult` — seeds,
        failures, wall-clock, events/sec.
    """

    headline: HeadlineResult
    campaign: CampaignResult

    def describe(self) -> str:
        """Headline rows plus confidence interval and campaign stats."""
        summaries = self.campaign.summaries()
        delay = summaries["mean_delay"]
        return "\n".join(
            [
                self.headline.describe(),
                f"sim delay CI95     = {delay.mean:.4g} "
                f"+/- {delay.half_width():.2g} "
                f"({self.campaign.completed} replications)",
                f"campaign           : {self.campaign.describe()}",
            ]
        )


def _headline_sim_task(params, horizon, seed):
    """Picklable campaign task: one headline-parameter HAP simulation."""
    return simulate_hap_mm1(params, horizon=horizon, seed=seed)


def run_headline_campaign(
    num_replications: int = 4,
    sim_horizon: float = 400_000.0,
    base_seed: int = 7,
    max_workers: int | None = None,
    solution0_bounds: tuple[int, int] | None = None,
) -> HeadlineCampaignResult:
    """The Section-4 comparison with a replicated simulation estimate.

    One long seed is exactly the Figure-13 trap — the mean delay is carried
    by rare mega-bursts — so the simulation column here is the mean over
    ``num_replications`` independent seeds, fanned out over ``max_workers``
    processes (``None`` = machine CPU count).  Analytic solutions run once,
    in-process, while the campaign is embarrassingly parallel.
    """
    params = base_parameters(service_rate=20.0)
    mm1 = solve_mm1(params.mean_message_rate, 20.0)
    sol0 = solve_solution0(
        params, backend="qbd", modulating_bounds=solution0_bounds
    )
    sol1 = solve_solution1(params)
    sol2 = solve_solution2(params)
    campaign = ParallelReplicator(max_workers=max_workers).run(
        partial(_headline_sim_task, params, sim_horizon),
        num_replications,
        base_seed=base_seed,
    )
    campaign.raise_if_failed()
    summaries = campaign.summaries()
    headline = _assemble(
        params,
        mm1,
        sol0,
        sol1,
        sol2,
        summaries["mean_delay"].mean,
        summaries["sigma"].mean,
    )
    return HeadlineCampaignResult(headline=headline, campaign=campaign)


def run_headline_columnar_campaign(
    num_replications: int = 4,
    sim_horizon: float = 400_000.0,
    base_seed: int = 7,
    max_workers: int | None = None,
    engine: str = "columnar",
) -> CampaignResult:
    """The headline simulation column via the columnar engine.

    Same parameters and seed derivation as :func:`run_headline_campaign`'s
    simulation leg, but each replication generates its whole M/HAP-approx
    arrival stream as numpy arrays and solves the queue with the vectorized
    Lindley recursion, one seed per job through the replication-batched
    kernel (:mod:`repro.sim.columnar_batch`), each worker returning its
    row of scalars to the campaign.  Each row is bit-identical to the
    sequential engine's (:mod:`repro.sim.columnar`) for the same seed.
    ``engine`` names that one path: ``"columnar"``, or its former second
    name ``"columnar-batched"``, still accepted.  Returns the raw
    campaign — callers compare its ``mean_delay`` summary against the heap
    campaign's (the BENCH_6 agreement gate does exactly that).
    """
    if engine not in ("columnar", "columnar-batched"):
        raise ValueError(
            "engine must be 'columnar' or 'columnar-batched' "
            f"(got {engine!r})"
        )
    params = base_parameters(service_rate=20.0)
    campaign = run_columnar_campaign(
        partial(hap_approx_columnar_task, params, sim_horizon),
        num_replications,
        base_seed=base_seed,
        max_workers=max_workers,
    )
    campaign.raise_if_failed()
    return campaign
