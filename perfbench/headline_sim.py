"""Workload ``headline-sim``: the Section-4 headline simulation campaign.

One operation is :func:`repro.experiments.headline.run_headline_columnar_campaign`
over ``REPLICATIONS`` seeds of a ``HORIZON``-second M/HAP-approx/1 queue at
the paper's base parameters (``mu'' = 20``): the batched columnar engine,
in-process (one worker), with its shared-memory result transport.  Work is
simulated events (modulating jumps plus messages).  Each operation takes
the next block of seeds after the previous one, starting from a block fixed
by ``--seed``.

This is a scaled-down campaign: the program's default is 32 seeds of
400 000 s.  A horizon of 40 000 s is 40 mean user lifetimes and about
330 000 messages per replication, so each row spans several candidate
blocks (``DEFAULT_BLOCK_SIZE``) and crosses a Lindley chunk boundary
(``DEFAULT_CHUNK_SIZE``), the large-array paths the full campaign spends
its time in, while an operation stays under a second.  Two rows fit in one
256 MiB group, so the group split of the full campaign does not run here.

Correctness: every campaign completes every replication with consistent
statistics; pooled over the run, utilization and arrival rate
match the mapped chain's ``rho`` and ``lambda-bar``; and the first
campaign's first row is bit-identical to a sequential columnar run of the
same seed (the batched engine's determinism contract).
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

import repro.runtime.columnar  # noqa: F401 — imported lazily by the engine; bound here for tracing
import repro.sim.columnar_batch  # noqa: F401
from common import Measurement
from repro.core.mmpp_mapping import symmetric_hap_to_mmpp
from repro.experiments import headline
from repro.experiments.configs import base_parameters
from repro.sim.columnar import simulate_hap_approx_columnar

REPLICATIONS = 2
HORIZON = 40_000.0
SERVICE_RATE = 20.0
TAIL_QUANTILE = 0.9

#: Traced layers, outermost first.
LAYERS = (
    "campaign",
    "transport",
    "batch",
    "map",
    "walk",
    "thin",
    "services",
    "lindley",
    "stats",
)

_BIT_IDENTICAL_FIELDS = ("mean_delay", "sigma", "utilization", "messages_served")


def _base_seed(seed: int, op: int) -> int:
    return seed * 1_000_000 + REPLICATIONS * op


def _campaign(base_seed: int, replications: int, horizon: float):
    return headline.run_headline_columnar_campaign(
        num_replications=replications,
        sim_horizon=horizon,
        base_seed=base_seed,
        max_workers=1,
        engine="columnar-batched",
    )


def setup(seed: int) -> dict:
    """Build the mapped chain and run one short campaign (lazy set-up)."""
    params = base_parameters(service_rate=SERVICE_RATE)
    mmpp = symmetric_hap_to_mmpp(params).mmpp
    _campaign(_base_seed(seed, 0), 2, HORIZON / 10)
    return {
        "seed": seed,
        "params": params,
        "rate": mmpp.mean_rate(),
        "rho": mmpp.mean_rate() / SERVICE_RATE,
    }


def instrument(tracer, state: dict) -> None:
    """Trace the campaign from its entry point down to the kernels."""
    tracer.patch_function(
        "repro.experiments.headline", "run_headline_columnar_campaign", "campaign"
    )
    tracer.patch_function(
        "repro.runtime.columnar", "run_columnar_campaign", "transport"
    )
    for name in ("simulate_hap_approx_columnar_batch", "simulate_mmpp_columnar_batch"):
        tracer.patch_function("repro.sim.columnar_batch", name, "batch")
    tracer.patch_function("repro.core.mmpp_mapping", "symmetric_hap_to_mmpp", "map")
    for name, layer in (
        ("_mmpp_walks", "walk"),
        ("_thin_group", "thin"),
        ("_service_block", "services"),
        ("_lindley_rows", "lindley"),
        ("_queue_result_from_waits", "stats"),
    ):
        tracer.patch_function("repro.sim.columnar_batch", name, layer)


def measure(state: dict, seconds: float):
    """Run campaigns back to back for ``seconds``, timing the reference after each."""
    run = Measurement()
    campaigns = []
    deadline = run.started + seconds
    while run.attempted == 0 or perf_counter() < deadline:
        base_seed = _base_seed(state["seed"], run.attempted + 1)
        run.attempted += 1
        op_started = perf_counter()
        try:
            campaign = _campaign(base_seed, REPLICATIONS, HORIZON)
        except Exception as error:  # noqa: BLE001 — a failed op is counted, the run goes on
            run.failed += 1
            run.problems.append(f"campaign at seed {base_seed} raised {error!r}")
            continue
        run.record(perf_counter() - op_started, campaign.events_processed)
        campaigns.append((base_seed, campaign))
        run.calibrate()
    run.stop()
    return run, campaigns


def _row_ok(row) -> bool:
    """One replication's statistics are consistent.

    A short horizon can see no message served after warm-up (every user
    gone); the engine then reports a NaN delay, which is correct.  A burst
    can also keep the server busy throughout, where summing busy intervals
    rounds utilization a few ulps above 1.
    """
    if not 0.0 <= row.utilization <= 1.0 + 1e-9:
        return False
    if row.messages_served == 0:
        return math.isnan(row.mean_delay)
    return math.isfinite(row.mean_delay) and row.mean_delay >= row.mean_wait >= 0.0


def check(state: dict, run: Measurement, campaigns) -> None:
    """Validate every campaign, the pooled statistics and determinism."""
    utilization = []
    arrival_rate = []
    for base_seed, campaign in campaigns:
        rows = campaign.results
        ok = (
            campaign.completed == REPLICATIONS
            and not campaign.failures
            and all(_row_ok(row) for row in rows)
        )
        if not ok:
            run.failed += 1
            run.problems.append(f"campaign at seed {base_seed} has invalid rows")
        utilization.extend(row.utilization for row in rows)
        arrival_rate.extend(row.effective_arrival_rate for row in rows)
    if not campaigns:
        return
    mean_utilization = sum(utilization) / len(utilization)
    mean_rate = sum(arrival_rate) / len(arrival_rate)
    run.check(
        abs(mean_utilization - state["rho"]) < 0.03,
        f"pooled utilization {mean_utilization:.4f} vs rho {state['rho']:.4f}",
    )
    run.check(
        abs(mean_rate / state["rate"] - 1.0) < 0.06,
        f"pooled arrival rate {mean_rate:.4f} vs lambda-bar {state['rate']:.4f}",
    )
    base_seed, first = campaigns[0]
    sequential = simulate_hap_approx_columnar(state["params"], HORIZON, seed=base_seed)
    batched_row = [getattr(first.results[0], name) for name in _BIT_IDENTICAL_FIELDS]
    sequential_row = [getattr(sequential, name) for name in _BIT_IDENTICAL_FIELDS]
    run.check(
        np.array_equal(batched_row, sequential_row, equal_nan=True),
        f"batched row at seed {base_seed} differs from the sequential engine",
    )


def close(state: dict) -> None:
    """Nothing outlives a campaign."""
