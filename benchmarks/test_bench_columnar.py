"""Columnar engine benches: headline throughput and heap agreement.

The columnar engine generates each replication's whole M/HAP-approx
arrival stream as numpy arrays and solves the queue with the chunked
Lindley recursion, so its events/sec ceiling is memory bandwidth, not
Python-level event dispatch.  Its campaigns run one seed per job through
the replication-batched kernel
(``repro.sim.columnar_batch``); the sequential engine
(``repro.sim.columnar``) is the bit-identity reference.  Three benches:

* ``test_columnar_headline_campaign`` — the BENCH_6 throughput gate: the
  headline campaign (4 seeds, each worker returning its row of scalars)
  must sustain >= 1M events/sec where the heap engine managed ~273k
  (BENCH_4).
* ``test_columnar_batched_headline_campaign`` — the BENCH_8 gate: a
  32-seed columnar campaign (one kernel call per seed: a per-row chain
  walk, then thinning and Lindley) must sustain
  >= 4M events/sec at full scale — >= 3x the single-replication
  columnar throughput recorded in BENCH_6/ROADMAP (~1.24M).  The gate
  also proves the kernel is free of statistical cost: row 0 must be
  bit-identical to a plain sequential columnar run of the same seed.  A
  batch of one seed is timed beside that sequential run and recorded
  (``batch_of_one_events_per_sec``), not gated.
* ``test_columnar_vs_heap_agreement`` — the correctness side of the same
  coin: heap and columnar campaigns over identical parameters must agree
  on mean delay within 3 sigma of their combined replication standard
  errors.  (The engines draw from different determinism domains, so the
  comparison is statistical, never bitwise.)
"""

from __future__ import annotations

import math
import os
import time
from functools import partial

from _util import run_once

from repro.experiments.configs import base_parameters
from repro.experiments.headline import run_headline_columnar_campaign
from repro.runtime import ParallelReplicator
from repro.sim.replication import simulate_hap_mm1


def _bench_workers() -> int | None:
    workers_env = os.environ.get("REPRO_BENCH_WORKERS")
    return int(workers_env) if workers_env else None


def test_columnar_headline_campaign(benchmark, report, scale):
    campaign = run_once(
        benchmark,
        lambda: run_headline_columnar_campaign(
            num_replications=4,
            sim_horizon=400_000.0 * scale,
            max_workers=_bench_workers(),
        ),
    )
    delay = campaign.summaries()["mean_delay"]
    report(
        "Columnar headline campaign (4-seed M/HAP-approx, per-seed rows; "
        "BENCH_6 gate: >= 1M events/s)",
        f"mean delay {delay.mean:.4f} +/- {delay.half_width():.2g} s, "
        f"{campaign.events_per_second:,.0f} events/s "
        f"({campaign.max_workers} worker(s), "
        f"{campaign.events_processed:,} events)",
    )
    assert campaign.failures == ()
    assert campaign.completed == 4
    # The hard throughput floor only binds at benchmark scale: tiny smoke
    # horizons amortise less setup, and the JSON gate re-checks it anyway.
    if scale >= 1.0:
        assert campaign.events_per_second >= 1_000_000


def test_columnar_batched_headline_campaign(benchmark, report, scale):
    from repro.sim.columnar import simulate_hap_approx_columnar
    from repro.sim.columnar_batch import simulate_hap_approx_columnar_batch

    params = base_parameters(service_rate=20.0)
    horizon = 400_000.0 * scale

    # Reference point, outside the benchmark timer: one sequential columnar
    # replication of the campaign's first seed.  Its throughput anchors the
    # recorded speedup, and its result doubles as the bit-identity witness.
    started = time.perf_counter()
    sequential = simulate_hap_approx_columnar(params, horizon, seed=7)
    single_rep_rate = sequential.events_processed / (
        time.perf_counter() - started
    )
    # The same seed as a batch of one, recorded beside it (not gated).
    started = time.perf_counter()
    (batch_of_one,) = simulate_hap_approx_columnar_batch(params, horizon, [7])
    batch_of_one_rate = batch_of_one.events_processed / (
        time.perf_counter() - started
    )

    def speedup(campaign):
        return {
            "single_rep_events_per_sec": round(single_rep_rate, 1),
            "batch_of_one_events_per_sec": round(batch_of_one_rate, 1),
            "speedup_vs_single_rep": round(
                campaign.events_per_second / single_rep_rate, 2
            ),
        }

    campaign = run_once(
        benchmark,
        lambda: run_headline_columnar_campaign(
            num_replications=32,
            sim_horizon=horizon,
            max_workers=_bench_workers(),
        ),
        extra=speedup,
    )
    delay = campaign.summaries()["mean_delay"]
    report(
        "Batched columnar headline campaign (32-seed replication-batched "
        "kernel; BENCH_8 gate: >= 4M events/s at full scale)",
        f"mean delay {delay.mean:.4f} +/- {delay.half_width():.2g} s, "
        f"{campaign.events_per_second:,.0f} events/s "
        f"({campaign.events_per_second / single_rep_rate:.2f}x one "
        f"sequential columnar replication at {single_rep_rate:,.0f} ev/s; "
        f"batch of one at {batch_of_one_rate:,.0f} ev/s; "
        f"{campaign.max_workers} worker(s), "
        f"{campaign.events_processed:,} events)",
    )
    assert campaign.failures == ()
    assert campaign.completed == 32
    # Batching must not change a single bit: the campaign's first
    # row is the same replication the sequential engine just ran.
    first = campaign.results[0]
    for field in ("mean_delay", "sigma", "utilization", "messages_served"):
        assert getattr(first, field) == getattr(sequential, field)
    # The hard throughput floor only binds at benchmark scale (cf. the
    # columnar gate above): >= 4M ev/s is >= 3x the ~1.24M single-rep
    # columnar throughput BENCH_6 recorded on this container class.
    if scale >= 1.0:
        assert campaign.events_per_second >= 4_000_000


def test_columnar_vs_heap_agreement(benchmark, report, scale):
    params = base_parameters(service_rate=20.0)
    horizon = 100_000.0 * scale
    workers = _bench_workers()

    def both():
        heap = ParallelReplicator(max_workers=workers).run(
            partial(simulate_hap_mm1, params, horizon), 4, base_seed=7
        )
        columnar = run_headline_columnar_campaign(
            num_replications=4, sim_horizon=horizon, max_workers=workers
        )
        return heap, columnar

    heap, columnar = run_once(benchmark, both)
    heap_delay = heap.summaries()["mean_delay"]
    columnar_delay = columnar.summaries()["mean_delay"]
    gap = abs(columnar_delay.mean - heap_delay.mean)
    combined_se = math.hypot(
        heap_delay.std / math.sqrt(len(heap_delay.values)),
        columnar_delay.std / math.sqrt(len(columnar_delay.values)),
    )
    report(
        "Columnar vs heap mean-delay agreement (4 seeds each, 3-sigma "
        "replication gate)",
        f"heap {heap_delay.mean:.4f} s vs columnar "
        f"{columnar_delay.mean:.4f} s; gap {gap:.4f} vs "
        f"3*SE {3.0 * combined_se:.4f} "
        f"(heap {heap.events_per_second:,.0f} ev/s, "
        f"columnar {columnar.events_per_second:,.0f} ev/s)",
    )
    assert heap.failures == () and columnar.failures == ()
    assert gap <= 3.0 * combined_se

