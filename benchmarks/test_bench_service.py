"""Online admission-control service: decisions/sec, one answer tier at a time.

Each benchmark boots the asyncio service with a precomputed decision
surface, drives a closed-loop query mix pinned to one answer tier through
real TCP connections (the same path ``cli bench-serve`` measures), and
reports sustained decisions/sec with client-observed latency percentiles.
The tiers are the service's whole point:

* **cached** — exact-grid lookups; the gate holds the ten-thousands/sec
  bar the precomputed-surface design exists to clear.
* **interpolated** — conservative corner bounds for off-grid queries.
* **miss** — live Solution-2 solves through the worker pool; the p99
  latency rides into the BENCH record and is gated (lower is better),
  because a slow miss path is exactly the regression the three-tier
  design guards against.

Two rungs cover the PR-9 serving work:

* **sharded cached** — an SO_REUSEPORT fleet whose shards each boot from
  the same JSON surface artifact; the >= 3x-BENCH_7 multi-core assert is skipped (with an
  explicit warning) on boxes without enough cores, but the figure is
  always recorded so the baseline gate can pin it where it was measured.
* **batch cached** — the ``admit_batch`` verb amortizes protocol
  round-trips, so it must beat BENCH_7's scalar cached figure even on
  one core.

Two more cover the PR-10 overload hardening:

* **overload shed** — the same cached workload at 4x the connections
  with 5% live-solve queries against a one-worker solver behind a
  single-slot in-flight bound; excess solves shed as instant
  conservative denies, and *goodput* (accepted answers/sec) must stay
  within 20% of the uncontended cached rung while the accepted-request
  p99 stays bounded.
* **rolling restart** — a 2-shard fleet keeps answering a retried
  cached closed loop while every shard is drained and replaced one at a
  time; zero failed queries is the availability bar.

Request counts are floored well above ``REPRO_BENCH_SCALE`` quick runs:
throughput over a few hundred requests is dominated by connection setup
and would gate noise, not the service.
"""

from __future__ import annotations

import asyncio
import gc
import os
import threading
import time
import warnings

from _util import run_once

from repro.core.params import HAPParameters
from repro.runtime.resilience import RetryPolicy
from repro.service.client import generate_queries, run_load
from repro.service.server import AdmissionService, OverloadPolicy, start_server
from repro.service.sharded import ShardFleet
from repro.service.surfaces import build_decision_surfaces

#: BENCH_7's cached-tier decisions/sec — the reference both new serving
#: rungs are measured against (3x for the sharded fleet, 1x for batch).
BENCH7_CACHED_DECISIONS_PER_SEC = 12_053.5

_SURFACES = None


def _surfaces():
    """Build the benchmark surface once per session (probe-cache warm)."""
    global _SURFACES
    if _SURFACES is None:
        params = HAPParameters.symmetric(
            user_arrival_rate=0.05,
            user_departure_rate=0.05,
            app_arrival_rate=0.05,
            app_departure_rate=0.05,
            message_arrival_rate=0.4,
            message_service_rate=3.0,
            num_app_types=2,
            num_message_types=1,
            name="bench-serve",
        )
        _SURFACES = build_decision_surfaces(
            params, (0.6, 0.9, 1.4), max_population=8, max_workers=1
        )
    return _SURFACES


class _ServiceBenchResult:
    """Adapter exposing a LoadReport through run_once's record extractors.

    ``events_processed`` / ``wall_clock`` make ``events_per_sec`` equal the
    client-measured decisions/sec (the load run's span, not the benchmark's
    wall-clock with server boot included).
    """

    def __init__(self, report):
        self.report = report
        self.events_processed = report.requests
        self.wall_clock = report.elapsed_s


def _latency_extra(result) -> dict:
    return {
        "p50_latency_ms": round(result.report.p50_latency_ms, 3),
        "p99_latency_ms": round(result.report.p99_latency_ms, 3),
    }


def _load_without_gc(host, port, queries, connections, batch_size):
    """Run the closed loop with the cyclic collector paused.

    In a shared bench session the campaigns before this leave a large
    heap; cyclic-GC passes over it land on the event loop and halve the
    measured throughput.  Collect once, then pause the collector for the
    sub-second load run (refcounting still frees the hot-path garbage).
    """
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return asyncio.run(
            run_load(
                host,
                port,
                queries,
                connections=connections,
                batch_size=batch_size,
            )
        )
    finally:
        if gc_was_enabled:
            gc.enable()


def _serve_and_load(
    service: AdmissionService,
    queries: list,
    connections: int,
    batch_size: int = 0,
):
    """Serve on a dedicated thread/event loop; drive clients from this one.

    Sharing one loop between server and load generator halves the apparent
    throughput (every request pays both sides' scheduling on one loop); two
    loops is also what a real deployment looks like.
    """
    ready = threading.Event()
    box: dict = {}

    def serve() -> None:
        async def main():
            server = await start_server(service)
            box["port"] = server.sockets[0].getsockname()[1]
            box["loop"] = asyncio.get_running_loop()
            box["stop"] = asyncio.Event()
            ready.set()
            await box["stop"].wait()
            server.close()
            await server.wait_closed()

        asyncio.run(main())

    thread = threading.Thread(target=serve, name="bench-serve")
    thread.start()
    ready.wait()
    try:
        report = _load_without_gc(
            "127.0.0.1", box["port"], queries, connections, batch_size
        )
    finally:
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join()
        service.close()
    return report


def _drive(tier: str, requests: int, connections: int = 4, batch_size: int = 0):
    """One single-tier closed loop against an unbounded service."""
    surfaces = _surfaces()
    queries = generate_queries(surfaces, tier, requests)
    report = _serve_and_load(
        AdmissionService(surfaces), queries, connections, batch_size
    )
    return _ServiceBenchResult(report)


def _drive_sharded(
    tier: str, requests: int, shards: int, connections: int, batch_size: int = 0
):
    """Boot an SO_REUSEPORT fleet and drive the same closed loop at it."""
    surfaces = _surfaces()
    with ShardFleet(surfaces, shards=shards) as fleet:
        host, port = fleet.address
        queries = generate_queries(surfaces, tier, requests)
        report = _load_without_gc(host, port, queries, connections, batch_size)
    return _ServiceBenchResult(report)


def test_service_cached_decisions(benchmark, report, scale):
    requests = max(5000, int(12000 * scale))
    result = run_once(
        benchmark,
        lambda: _drive("cached", requests, connections=8),
        extra=_latency_extra,
    )
    load = result.report
    report("Service: cached-tier (surface lookup) decisions/sec", load.describe())
    assert load.tiers == {"surface": requests}
    # The headline bar: precomputed surfaces answer >= 10k decisions/sec.
    assert load.decisions_per_sec >= 10_000


def test_service_interpolated_decisions(benchmark, report, scale):
    requests = max(1000, int(4000 * scale))
    result = run_once(
        benchmark,
        lambda: _drive("interpolated", requests),
        extra=_latency_extra,
    )
    load = result.report
    report(
        "Service: interpolated-tier (conservative corner) decisions/sec",
        load.describe(),
    )
    assert load.tiers == {"interpolated": requests}
    assert load.decisions_per_sec >= 2_000


def test_service_miss_decisions(benchmark, report, scale):
    requests = max(200, int(800 * scale))
    result = run_once(
        benchmark, lambda: _drive("miss", requests), extra=_latency_extra
    )
    load = result.report
    report("Service: miss-tier (live solve) decisions/sec", load.describe())
    assert load.tiers == {"solve": requests}
    assert load.decisions_per_sec >= 100
    # A hung or runaway miss path shows up here long before the gate.
    assert load.p99_latency_ms < 250


def test_service_sharded_cached_decisions(benchmark, report, scale):
    cores = os.cpu_count() or 1
    shards = max(2, min(4, cores))
    requests = max(8000, int(24000 * scale))
    result = run_once(
        benchmark,
        lambda: _drive_sharded("cached", requests, shards=shards, connections=8),
        extra=lambda r: {**_latency_extra(r), "shards": shards, "cores": cores},
    )
    load = result.report
    report(
        f"Service: sharded cached-tier decisions/sec ({shards} shards)",
        load.describe(),
    )
    assert load.tiers == {"surface": requests}
    floor = 3.0 * BENCH7_CACHED_DECISIONS_PER_SEC
    if cores >= 4:
        # The tentpole gate: the fleet must turn spare cores into >= 3x
        # BENCH_7's single-process cached throughput.
        assert load.decisions_per_sec >= floor
    else:
        warnings.warn(
            f"sharded >=3x gate skipped: host has {cores} CPU(s), so the "
            f"fleet cannot exceed one core's throughput; recorded "
            f"{load.decisions_per_sec:.0f} decisions/sec against a "
            f"{floor:.0f}/sec multi-core bar",
            RuntimeWarning,
            stacklevel=2,
        )


def test_service_batch_cached_decisions(benchmark, report, scale):
    requests = max(20_000, int(48_000 * scale))
    result = run_once(
        benchmark,
        lambda: _drive("cached", requests, connections=4, batch_size=256),
        extra=lambda r: {**_latency_extra(r), "batch_size": 256},
    )
    load = result.report
    report(
        "Service: batched cached-tier (admit_batch, 256 rows) decisions/sec",
        load.describe(),
    )
    assert load.tiers == {"surface": requests}
    # Strictly better than BENCH_7's scalar cached rung: amortizing the
    # protocol round-trip must pay for itself even on one core.
    assert load.decisions_per_sec > BENCH7_CACHED_DECISIONS_PER_SEC


#: One live-solve query per this many in the overload mix.  5% misses
#: saturate a one-worker solver many times over (solves are milliseconds,
#: cached answers are tens of microseconds) while leaving goodput head-
#: room: shed answers do not count toward goodput, so a heavier miss
#: fraction would cap the gated ratio structurally, not behaviorally.
_MISS_EVERY = 20


def _overload_mix(surfaces, requests: int) -> list:
    """Deterministic cached/miss interleave for the overload rung.

    Every ``_MISS_EVERY``-th query is a live solve, so the one-worker
    solver saturates immediately and the bounded in-flight queue must
    shed — while the rest keep answering from the surface lookup.
    """
    misses = max(1, requests // _MISS_EVERY)
    cached = generate_queries(surfaces, "cached", requests - misses)
    miss = generate_queries(surfaces, "miss", misses)
    mix: list = []
    next_cached = next_miss = 0
    for index in range(requests):
        if index % _MISS_EVERY == _MISS_EVERY - 1 and next_miss < len(miss):
            mix.append(miss[next_miss])
            next_miss += 1
        else:
            mix.append(cached[next_cached])
            next_cached += 1
    return mix


class _OverloadBenchResult(_ServiceBenchResult):
    """Goodput adapter: events = accepted (non-shed) answers.

    ``events_per_sec`` therefore reads as shed-mode *goodput*, which is
    what the BENCH gate pins; the uncontended cached rate measured in the
    same run rides along for the in-test ratio assert.
    """

    def __init__(self, report, uncontended_per_sec: float):
        super().__init__(report)
        self.events_processed = report.requests - report.shed
        self.uncontended_per_sec = uncontended_per_sec


def _drive_overload_shed(requests: int):
    """Uncontended cached reference, then the same box at 4x connections.

    A warmup pass runs the exact miss set first so the measured phases
    see a steady-state service (cold first solves would charge one-time
    numpy setup to the overload phase), and each side keeps the better
    of two runs: the gated ratio compares steady states, not scheduler
    noise on a sub-second closed loop.
    """
    surfaces = _surfaces()
    _serve_and_load(
        AdmissionService(surfaces, solve_timeout=5.0, solver_workers=1),
        generate_queries(surfaces, "miss", max(1, requests // _MISS_EVERY))
        + generate_queries(surfaces, "cached", 1000),
        connections=8,
    )
    reference = max(
        (
            _serve_and_load(
                AdmissionService(surfaces),
                generate_queries(surfaces, "cached", requests),
                connections=8,
            )
            for _ in range(2)
        ),
        key=lambda r: r.decisions_per_sec,
    )
    # 4x the connections, 5% live-solve queries, one solver worker, and a
    # single-slot solve queue: excess misses must shed as instant
    # conservative denies instead of queuing behind the solver.
    best = None
    best_goodput = 0.0
    for _ in range(2):
        candidate = _serve_and_load(
            AdmissionService(
                surfaces,
                solve_timeout=5.0,
                solver_workers=1,
                overload=OverloadPolicy(max_inflight=1),
            ),
            _overload_mix(surfaces, requests),
            connections=32,
        )
        goodput = (candidate.requests - candidate.shed) / candidate.elapsed_s
        if best is None or goodput > best_goodput:
            best, best_goodput = candidate, goodput
    return _OverloadBenchResult(best, reference.decisions_per_sec)


def test_service_overload_shed(benchmark, report, scale):
    requests = max(10_000, int(24_000 * scale))
    result = run_once(
        benchmark,
        lambda: _drive_overload_shed(requests),
        extra=lambda r: {
            **_latency_extra(r),
            "p99_accepted_ms": round(r.report.p99_accepted_ms, 3),
            "shed_requests": r.report.shed,
            "uncontended_per_sec": round(r.uncontended_per_sec, 1),
        },
    )
    load = result.report
    goodput = (load.requests - load.shed) / load.elapsed_s
    report(
        "Service: shed-mode goodput under 4x overload (32 conns, 5% misses)",
        load.describe()
        + f"\ngoodput {goodput:,.1f}/s vs uncontended "
        f"{result.uncontended_per_sec:,.1f}/s",
    )
    assert load.failed == 0
    assert load.shed > 0  # the overload actually bit
    assert load.tiers.get("shed", 0) == load.shed
    # The headline gate: shedding keeps goodput within 20% of the
    # uncontended cached rung instead of letting queues collapse it.
    assert goodput >= 0.8 * result.uncontended_per_sec
    # Accepted answers keep a bounded tail — shed answers are instant and
    # excluded, live solves are capped by the 4-deep queue.
    assert load.p99_accepted_ms < 500.0


class _RestartBenchResult:
    """run_once adapter for the rolling-restart availability smoke."""

    def __init__(self, totals: dict, cycled: int, rounds: int, elapsed_s: float):
        self.requests = totals["requests"]
        self.failed = totals["failed"]
        self.retried = totals["retried"]
        self.cycled = cycled
        self.rounds = rounds
        self.events_processed = self.requests
        self.wall_clock = elapsed_s


def _drive_rolling_restart(requests_per_round: int):
    """Hammer a 2-shard fleet with cached load across a rolling restart."""
    surfaces = _surfaces()
    totals = {"requests": 0, "failed": 0, "retried": 0}
    with ShardFleet(surfaces, shards=2, solve_timeout=5.0) as fleet:
        host, port = fleet.address

        async def drive():
            retry = RetryPolicy(max_attempts=6, timeout=2.0, backoff_base=0.05)
            loop = asyncio.get_running_loop()
            restart = loop.run_in_executor(None, fleet.rolling_restart)
            started = time.perf_counter()
            rounds = 0
            while True:
                queries = generate_queries(
                    surfaces, "cached", requests_per_round, seed=rounds
                )
                round_report = await run_load(
                    host, port, queries, connections=4, retry=retry
                )
                totals["requests"] += round_report.requests
                totals["failed"] += round_report.failed
                totals["retried"] += round_report.retried
                rounds += 1
                if restart.done():
                    break
            cycled = await restart
            return cycled, rounds, time.perf_counter() - started

        cycled, rounds, elapsed = asyncio.run(drive())
    return _RestartBenchResult(totals, cycled, rounds, elapsed)


def test_service_rolling_restart_availability(benchmark, report, scale):
    per_round = max(200, int(800 * scale))
    result = run_once(
        benchmark,
        lambda: _drive_rolling_restart(per_round),
        extra=lambda r: {
            "failed_requests": r.failed,
            "retried_requests": r.retried,
            "restarts_cycled": r.cycled,
            "load_rounds": r.rounds,
        },
    )
    report(
        "Service: availability across a rolling restart (2 shards)",
        f"{result.requests} cached answers over {result.rounds} round(s) "
        f"while {result.cycled} shard(s) drained and respawned; "
        f"{result.failed} failed, {result.retried} retried",
    )
    assert result.cycled == 2
    # The availability bar: the fleet answered every query throughout —
    # retries absorb the one-shard-down windows, nothing is lost.
    assert result.failed == 0
    assert result.requests > 0
