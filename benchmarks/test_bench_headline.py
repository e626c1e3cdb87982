"""Section-4 headline: Solutions 0/1/2, simulation and M/M/1 side by side.

Paper: lambda-bar = 8.25, sigma = 0.50, rho = 0.42; delay 0.55 (Solution 0
and simulation) vs 0.10 (Solutions 1/2) vs 0.085 (M/M/1) — a 6.47x gap that
Poisson modelling misses entirely.

Two benches: the legacy single-seed cross-method comparison, and the
replicated campaign that fans simulation seeds over a process pool
(``REPRO_BENCH_WORKERS`` overrides the worker count; statistics are
bit-identical at any worker count, only the wall-clock changes).
"""

from __future__ import annotations

import os
from _util import run_once

from repro.experiments.headline import run_headline, run_headline_campaign


def _bench_workers() -> int | None:
    workers_env = os.environ.get("REPRO_BENCH_WORKERS")
    return int(workers_env) if workers_env else None


def test_headline_cross_method(benchmark, report, scale):
    result = run_once(
        benchmark, lambda: run_headline(sim_horizon=400_000.0 * scale)
    )
    report(
        "Section 4 headline (paper: T0=0.55, T12=0.10, Tmm1=0.085, "
        "sigma=0.50, rho=0.42)",
        result.describe(),
    )
    # Shape assertions: the orderings the paper's argument rests on.
    assert result.delay_solution0 > 3.0 * result.delay_mm1
    assert result.delay_solution2 < result.delay_solution0
    assert abs(result.sigma_solution0 - 0.5) < 0.05


def test_headline_replicated_campaign(benchmark, report, scale):
    workers = _bench_workers()
    result = run_once(
        benchmark,
        lambda: run_headline_campaign(
            num_replications=4,
            sim_horizon=100_000.0 * scale,
            max_workers=workers,
        ),
    )
    report(
        "Section 4 headline, replicated campaign "
        "(simulation column = 4-seed mean; parallel replication runtime)",
        result.describe(),
    )
    assert result.campaign.failures == ()
    assert result.campaign.completed == 4
    assert result.headline.delay_solution0 > 3.0 * result.headline.delay_mm1
