"""Workload ``admission-mix``: the admission service under a mixed query load.

Set-up builds decision surfaces for the Section-7 admission family (three
delay targets, populations 0..8), wraps them in an
:class:`~repro.service.server.AdmissionService` with one solver thread and
serves it over loopback TCP from its own thread and event loop, as
``cli serve`` does.  ``CONNECTIONS`` clients then drive it closed-loop
(each sends its next ``admit`` when the previous answer lands) through
:class:`~repro.service.client.AdmissionClient`.  One operation is one
decision.

The mix is the one the repository's overload benchmark
(``benchmarks/test_bench_service.py``, ``_MISS_EVERY``) drives: on each
connection every ``MISS_EVERY``-th query is a live solve, the rest are
exact-grid surface lookups; ``CONNECTIONS`` is the connection count of
that file's uncontended cached rung.  The live solves are queries beyond
the grid with fractional populations, so the probe cache has never seen
them and each one runs Solution 2.  At one in twenty, the p99 latency
falls well inside the solve tier.  Each connection draws its queries
lazily from its own generator seeded by ``--seed``, so the stream never
runs out however fast the service answers.

Correctness: every answer comes from the tier its query was built for,
lookups agree with the surfaces read directly, and live-solve answers
agree with an independent Solution-2 evaluation of the pinned mix.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import threading
from time import perf_counter

import numpy as np

from common import Measurement
from repro.control.admission_table import pinned_population_params
from repro.core.params import HAPParameters
from repro.core.solution2 import solve_solution2
from repro.service.client import AdmissionClient
from repro.service.server import AdmissionService, start_server
from repro.service.surfaces import DecisionSurfaces, build_decision_surfaces

DELAY_TARGETS = (0.6, 0.9, 1.4)
MAX_POPULATION = 8
CONNECTIONS = 8
MISS_EVERY = 20
#: Query kind -> the tier that must answer it.
TIERS = {"cached": "surface", "miss": "solve"}
#: Queries drawn from a connection's generator at a time.
DRAW_CHUNK = 1024
#: Length of one stretch of load between two reference timings.
SLICE_SECONDS = 1.0
WARMUP_QUERIES = 60
MISS_CHECKS = 60
#: Miss populations stay below this per type, so the pinned mix offers
#: less than the service rate and every miss runs a real solve.
STABLE_MIX_POPULATION = 3.5
TAIL_QUANTILE = 0.99

#: Traced layers, outermost first (``closed_form`` is shared with
#: ``analytic-sweep``).
LAYERS = ("wire", "dispatch", "encode", "tier", "lookup", "solve", "closed_form")

_HOST = "127.0.0.1"


def service_parameters() -> HAPParameters:
    """The Section-7 admission family the surfaces are built for."""
    return HAPParameters.symmetric(
        user_arrival_rate=0.05,
        user_departure_rate=0.05,
        app_arrival_rate=0.05,
        app_departure_rate=0.05,
        message_arrival_rate=0.4,
        message_service_rate=3.0,
        num_app_types=2,
        num_message_types=1,
        name="perfbench-serve",
    )


def query_stream(rng: np.random.Generator):
    """Endless queries ``(kind, n1, n2, delay_target)``, every ``MISS_EVERY``-th a miss."""
    targets = np.asarray(DELAY_TARGETS)
    index = itertools.count(1)
    while True:
        rows = rng.integers(0, len(targets), size=DRAW_CHUNK)
        whole_n1 = rng.integers(0, MAX_POPULATION + 1, size=DRAW_CHUNK)
        whole_n2 = rng.integers(0, MAX_POPULATION + 1, size=DRAW_CHUNK)
        stable_n1 = rng.uniform(0.0, STABLE_MIX_POPULATION, size=DRAW_CHUNK)
        stable_n2 = rng.uniform(0.0, STABLE_MIX_POPULATION, size=DRAW_CHUNK)
        beyond = targets[-1] * rng.uniform(1.5, 3.0, size=DRAW_CHUNK)
        for k in range(DRAW_CHUNK):
            if next(index) % MISS_EVERY == 0:
                yield ("miss", float(stable_n1[k]), float(stable_n2[k]), float(beyond[k]))
            else:
                yield ("cached", float(whole_n1[k]), float(whole_n2[k]), float(targets[rows[k]]))


def _streams(seed: int, first_slot: int):
    """One query generator per connection."""
    return [
        query_stream(np.random.default_rng([seed, first_slot + slot]))
        for slot in range(CONNECTIONS)
    ]


def _serve(service: AdmissionService, box: dict, ready: threading.Event) -> None:
    """Server thread body: serve until ``box["stop"]`` is set."""

    async def main():
        server = await start_server(service, host=_HOST, port=0)
        box["port"] = server.sockets[0].getsockname()[1]
        box["loop"] = asyncio.get_running_loop()
        box["stop"] = asyncio.Event()
        ready.set()
        await box["stop"].wait()
        server.close()
        await server.wait_closed()

    try:
        asyncio.run(main())
    finally:
        ready.set()


def setup(seed: int) -> dict:
    """Build surfaces, start the server, and warm every answer tier."""
    surfaces = build_decision_surfaces(
        service_parameters(), DELAY_TARGETS, max_population=MAX_POPULATION, max_workers=1
    )
    service = AdmissionService(surfaces, solve_timeout=5.0, solver_workers=1)
    box: dict = {}
    ready = threading.Event()
    thread = threading.Thread(target=_serve, args=(service, box, ready), name="perfbench-serve")
    thread.start()
    ready.wait()
    state = {
        "surfaces": surfaces,
        "service": service,
        "thread": thread,
        "box": box,
        "seed": seed,
    }
    try:
        if "port" not in box:
            raise RuntimeError("admission server failed to start")
        warmup = [
            itertools.islice(stream, WARMUP_QUERIES) for stream in _streams(seed, CONNECTIONS)
        ]
        asyncio.run(_drive(box["port"], warmup, math.inf))
    except BaseException:
        close(state)
        raise
    return state


def instrument(tracer, state: dict) -> None:
    """Trace client round trip, server dispatch, tiers, lookups and solves."""
    original = AdmissionClient.request

    async def tagged(self, payload):
        return await original(self, {**payload, "trace": tracer.current_id()})

    tracer.replace(AdmissionClient, "request", tracer.wrap("wire", tagged))
    tracer.patch_function(
        "repro.service.server",
        "_handle_request",
        "dispatch",
        adopt_from=lambda args, kwargs: args[1].pop("trace", None),
    )
    tracer.patch_function("repro.service.server", "_decision_payload", "encode")
    tracer.patch_method(AdmissionService, "admit", "tier")
    tracer.patch_method(DecisionSurfaces, "grid_bound", "lookup")
    tracer.patch_function("repro.service.server", "_solve_admit_miss", "solve")
    tracer.patch_function("repro.core.solution2", "solve_solution2", "closed_form")
    tracer.propagate(state["service"]._pool)


async def _drive(port: int, streams, seconds: float):
    """Closed loop: one client per query stream, for ``seconds`` (or the stream).

    The loop runs in slices of ``SLICE_SECONDS``; between slices every
    connection is idle and the reference computation is timed.  Returns the
    measurement and the answers ``(query, tier, admit)``.
    """
    clients = [await AdmissionClient.open(_HOST, port) for _ in streams]
    run = Measurement()
    answers = []
    deadline = run.started + seconds

    async def drive(client, stream, until) -> bool:
        """Send queries until ``until``; False once the stream or the connection ends."""
        while perf_counter() < until:
            query = next(stream, None)
            if query is None:
                return False
            _, n1, n2, delay = query
            run.attempted += 1
            sent = perf_counter()
            try:
                response = await client.admit(n1, n2, delay)
            except (ConnectionError, OSError, RuntimeError) as error:
                run.failed += 1
                run.problems.append(f"query {query} failed: {error!r}")
                return False
            run.record(perf_counter() - sent)
            answers.append((query, response["tier"], response["admit"]))
        return True

    active = list(zip(clients, streams))
    try:
        while active and perf_counter() < deadline:
            until = min(deadline, perf_counter() + SLICE_SECONDS)
            going = await asyncio.gather(*(drive(c, s, until) for c, s in active))
            active = [pair for pair, more in zip(active, going) if more]
            if active and perf_counter() < deadline:
                run.calibrate()
    finally:
        run.stop()
        for client in clients:
            await client.close()
    return run, answers


def measure(state: dict, seconds: float):
    """Drive the mix for ``seconds``."""
    return asyncio.run(_drive(state["box"]["port"], _streams(state["seed"], 0), seconds))


def check(state: dict, run: Measurement, answers) -> None:
    """Each answer: right tier, and the admit bit a direct evaluation gives."""
    surfaces = state["surfaces"]
    misses = []
    for query, tier, admit in answers:
        kind, n1, n2, delay = query
        expected_tier = TIERS[kind]
        if tier != expected_tier:
            run.failed += 1
            run.problems.append(f"query {query} answered by {tier}, not {expected_tier}")
            continue
        if kind == "miss":
            misses.append((query, admit))
            continue
        bound = surfaces.grid_bound(n1, delay)
        if admit != (n2 <= bound):
            run.failed += 1
            run.problems.append(f"query {query} admit={admit} against bound {bound}")
    for query, admit in misses[:MISS_CHECKS]:
        _, n1, n2, delay = query
        if admit != (_solution2_delay(surfaces, n1, n2) <= delay):
            run.failed += 1
            run.problems.append(f"live solve of {query} answered admit={admit}")


def _solution2_delay(surfaces: DecisionSurfaces, n1: float, n2: float) -> float:
    """Independent Solution-2 delay of the pinned mix (inf when unstable)."""
    pinned = pinned_population_params(surfaces.params, (n1, n2))
    if pinned is None:
        return 0.0
    if pinned.mean_message_rate >= surfaces.service_rate:
        return math.inf
    try:
        return solve_solution2(pinned, surfaces.service_rate).mean_delay
    except (ValueError, ArithmeticError):
        return math.inf


def close(state: dict) -> None:
    """Stop the server thread and the solver pool; wait for both."""
    box = state["box"]
    if "loop" in box:
        box["loop"].call_soon_threadsafe(box["stop"].set)
    state["thread"].join()
    state["service"].close()
    state["service"]._pool.shutdown(wait=True)
