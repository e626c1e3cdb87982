"""Chaos and smoke drills: boot, drive, and verdict on named invariants.

The paper's Section 7 admission rules are only safe to consult online if
the service's contract is one-sided under faults: it may under-admit, but
it never over-admits and never hangs.  Each drill proves one face of that
contract end to end.

:data:`DRILLS` maps every ``cli chaos --target`` to a plain function
``drill(hap, args, out)``.  A drill boots a loopback service or fleet
through :func:`booted`, drives a fixed load, and returns the
:class:`Invariant` rows it promises, each with the value measured for it;
:func:`verdict` prints them and turns them into the exit status.  Every
drill names the fault flags it injects (``reads``) so the CLI can refuse
the others instead of passing a verdict for a fault that never fired.
``cli serve --smoke`` runs :func:`smoke` against the service it booted.

This module is deliberately outside :mod:`repro.runtime.chaos` and the
:mod:`repro.service` package namespace: importing the server loads both,
so drill imports there would be an import cycle and start-up cost for
every server.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from collections.abc import Awaitable, Callable
from functools import partial
from typing import NamedTuple

import scipy.sparse as sp

from repro.core.model import HAP
from repro.markov.ctmc import CTMC
from repro.markov.spectral import SpectralKernel
from repro.runtime import chaos
from repro.runtime.executor import ParallelReplicator
from repro.runtime.resilience import DegradationError, RetryPolicy
from repro.service.client import AdmissionClient, generate_queries, run_load
from repro.service.server import AdmissionService, OverloadPolicy, start_server
from repro.service.sharded import ShardFleet
from repro.service.surfaces import (
    DecisionSurfaces,
    build_decision_surfaces,
    two_type_params,
)
from repro.sim.replication import simulate_hap_mm1

__all__ = ["DRILLS", "Invariant", "UsageError", "booted", "smoke", "verdict"]


class Invariant(NamedTuple):
    """One named invariant of a drill and the value measured for it."""

    name: str
    holds: bool
    measured: str


class UsageError(ValueError):
    """A drill's arguments cannot run it (the CLI exits 2)."""


def verdict(invariants: list[Invariant], holds: str, out) -> int:
    """Print every invariant and the verdict line; 0 when all hold, else 1.

    ``holds`` is the verdict when every invariant holds; otherwise the
    verdict names each broken one.
    """
    for invariant in invariants:
        print(
            f"invariant            : {invariant.name}: {invariant.holds} "
            f"({invariant.measured})",
            file=out,
        )
    broken = "; ".join(i.name for i in invariants if not i.holds)
    print(
        f"verdict              : {f'BROKEN — {broken}' if broken else holds}",
        file=out,
    )
    return 1 if broken else 0


@contextlib.asynccontextmanager
async def booted(
    surfaces: DecisionSurfaces,
    out,
    shards: int | None = None,
    plan: chaos.ChaosPlan | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    drain_grace: float = 30.0,
    **options,
):
    """Serve ``surfaces`` for one ``async with`` block; yield ``(host, port, fleet)``.

    ``shards=None`` runs an :class:`AdmissionService` on the running event
    loop (``fleet`` is ``None``) with ``plan`` active in this process; an
    integer boots a :class:`ShardFleet` of that many processes, each
    carrying ``plan``, and ``drain_grace`` applies.  ``options`` go to
    both constructors (``solve_timeout``, ``solver_workers``,
    ``overload``).  Prints the listening address.
    """
    if shards is None:
        with AdmissionService(surfaces, **options) as service:
            async with await start_server(service, host=host, port=port) as server:
                host, port = server.sockets[0].getsockname()[:2]
                print(f"listening            : {host}:{port}", file=out)
                with chaos.chaos_active(plan):
                    yield host, port, None
        return
    fleet = ShardFleet(
        surfaces,
        shards=shards,
        host=host,
        port=port,
        chaos_plan=plan,
        drain_grace=drain_grace,
        **options,
    )
    # Spawning blocks the loop, which has nothing else to run yet.
    with fleet:
        host, port = fleet.address
        print(
            f"listening            : {host}:{port} "
            f"({shards} shards, SO_REUSEPORT)",
            file=out,
        )
        yield host, port, fleet


async def smoke(host: str, port: int, fleet, surfaces, out) -> list[Invariant]:
    """One query per answer tier, a batch, and the stats verb.

    Runs against a service booted by :func:`booted` (``fleet`` is what it
    yielded); the verdict for ``cli serve --smoke``.
    """
    grid_target = float(surfaces.delay_targets[0])
    probes = (
        ("surface", (1.0, 1.0, grid_target)),
        ("interpolated", (0.5, 1.0, grid_target)),
        ("solve", (1.0, 1.0, float(surfaces.delay_targets[-1]) * 2.0)),
    )
    tiers, admits = [], []
    client = await AdmissionClient.open(host, port)
    try:
        for label, query in probes:
            answer = await client.admit(*query)
            tiers.append(answer["tier"])
            admits.append(answer["admit"])
            print(
                f"{label:<21}: admit={answer['admit']} tier={answer['tier']} "
                f"latency={answer['latency_us']:.0f}us",
                file=out,
            )
        # The surface and interpolated probes again, as one batch.
        batch = await client.admit_batch(
            [1.0, 0.5], [1.0, 1.0], [grid_target, grid_target]
        )
        print(
            f"batch                : rows={batch['rows']} tiers={batch['tier']}",
            file=out,
        )
        stats = await client.request({"op": "stats", "scope": "fleet"})
    finally:
        await client.close()
    scope = stats["scope"]
    print(
        f"{scope + ' stats':<21}: shards={stats['shards']} {stats['stats']}",
        file=out,
    )
    shards, alive = (fleet.shards, fleet.alive()) if fleet else (1, 1)
    return [
        Invariant(
            "each probe answered from its tier",
            tiers == [label for label, _ in probes],
            f"tiers {tiers}",
        ),
        Invariant(
            "batch rows match their probes",
            batch["tier"] == ["surface", "interpolated"]
            and batch["admit"] == admits[:2],
            f"tiers {batch['tier']} admit {batch['admit']}, "
            f"probes admit {admits[:2]}",
        ),
        Invariant(
            "stats cover every shard",
            (scope, stats["shards"]) == ("fleet" if fleet else "shard", shards),
            f"scope={scope} shards={stats['shards']}",
        ),
        Invariant("every shard alive", alive == shards, f"{alive}/{shards}"),
    ]


# ----------------------------------------------------------------------
# The drill table
# ----------------------------------------------------------------------

#: ``cli chaos --target`` name -> drill coroutine, run on its own event
#: loop.  Each drill carries ``holds`` (its verdict when every invariant
#: holds) and ``reads`` (the fault flags it injects; the CLI refuses any
#: other).
DRILLS: dict[str, Callable[..., Awaitable[list[Invariant]]]] = {}


def _drill(target: str, holds: str, reads: tuple[str, ...] = ()):
    """Register the decorated coroutine function as the ``target`` drill."""

    def register(fn):
        fn.holds, fn.reads = holds, frozenset(reads)
        DRILLS[target] = fn
        return fn

    return register


def _parse_kill(spec: str) -> tuple[int, int]:
    """``"SEED"`` or ``"SEED:ATTEMPT"`` -> (seed, attempt)."""
    parts = spec.split(":")
    try:
        if len(parts) in (1, 2):
            return int(parts[0]), int(parts[1]) if len(parts) == 2 else 1
    except ValueError:
        pass
    raise UsageError(f"bad --kill spec {spec!r}; expected SEED[:ATTEMPT]")


def _parse_delay(spec: str) -> tuple[int, int, float]:
    """``"SEED:SECONDS"`` or ``"SEED:SECONDS:ATTEMPT"`` -> plan triple."""
    parts = spec.split(":")
    try:
        if len(parts) in (2, 3):
            attempt = int(parts[2]) if len(parts) == 3 else 1
            return int(parts[0]), attempt, float(parts[1])
    except ValueError:
        pass
    raise UsageError(
        f"bad --delay spec {spec!r}; expected SEED:SECONDS[:ATTEMPT]"
    )


def _faults(specs: list[str] | None, parse) -> tuple:
    """Every spec of one repeatable fault flag, parsed (None = not given)."""
    return tuple(parse(spec) for spec in specs or ())


#: Client retry for queries that ride a fleet through kills and restarts:
#: reconnect under the campaign runtime's deterministic seeded backoff.
_RETRY = RetryPolicy(max_attempts=6, backoff_base=0.05)


class _Fixture(NamedTuple):
    """The service drills' surface grid and answer margin."""

    surfaces: DecisionSurfaces
    #: The solve deadline bounds the service side; the client round trip
    #: gets a scheduling margin on top.
    margin: float

    def miss(self, index: int) -> tuple[float, float, float]:
        """Miss query ``index``: past every grid target, so a live solve."""
        surfaces = self.surfaces
        return (
            float(index % (surfaces.max_population + 1)),
            1.0,
            float(surfaces.delay_targets[-1]) * 3.0,
        )


def _fixture(hap: HAP, args, out) -> _Fixture:
    surfaces = build_decision_surfaces(
        two_type_params(hap.params), (0.1, 0.2), max_population=6, max_workers=1
    )
    print(f"surfaces             : {surfaces.describe()}", file=out)
    return _Fixture(surfaces, args.deadline + max(1.0, args.deadline))


@contextlib.asynccontextmanager
async def _connections(host: str, port: int, count: int):
    """``count`` open clients, closed when the block exits."""
    clients = [await AdmissionClient.open(host, port) for _ in range(count)]
    try:
        yield clients
    finally:
        for client in clients:
            await client.close()


async def _ask_misses(host, port, fixture, indices, out) -> list[tuple]:
    """Ask each miss query on a fresh connection; ``(tier, admit, seconds)`` each.

    A connection that dies under its query (a killed shard) reconnects
    through :func:`run_load`'s retry path; a query that never answers is
    printed and left out of the list.
    """
    answers = []
    for index in indices:
        started = time.perf_counter()
        report = await run_load(
            host, port, [fixture.miss(index)], connections=1, retry=_RETRY
        )
        seconds = time.perf_counter() - started
        if report.failed:
            print(f"request {index:<13}: unanswered", file=out)
            continue
        (tier,) = report.tiers
        admit = report.admitted == 1
        answers.append((tier, admit, seconds))
        print(
            f"request {index:<13}: tier={tier:<12} admit={admit} "
            f"latency={seconds * 1e3:.1f}ms",
            file=out,
        )
    return answers


def _degradation(answers, requests: int, margin: float) -> list[Invariant]:
    """Invariants of a miss stream whose solves are faulted."""
    degraded = [admit for tier, admit, _ in answers if tier == "degraded"]
    slowest = max((seconds for *_, seconds in answers), default=0.0)
    return [
        Invariant(
            "every request answered",
            len(answers) == requests,
            f"{len(answers)}/{requests}",
        ),
        Invariant(
            "no answer over deadline+margin",
            slowest <= margin,
            f"slowest {slowest * 1e3:.0f}ms, margin {margin:g}s",
        ),
        Invariant("the fault fired", bool(degraded), f"{len(degraded)} degraded"),
        Invariant(
            "every degraded answer is a deny",
            not any(degraded),
            f"{sum(degraded)} admitted",
        ),
    ]


@_drill("serve", "conservative degradation holds", reads=("delay", "poison"))
async def _serve(hap, args, out) -> list[Invariant]:
    """Poisoned rungs and hung solves degrade to in-deadline denies.

    Drives ``--requests`` miss-tier queries (each a live solve) through
    an in-process service.  ``--delay`` specs key on the service's request
    index.  With no fault flag, the Solution-2 rung is poisoned and
    request 0's solve hangs for four deadlines.
    """
    delays = _faults(args.delay, _parse_delay)
    poisons = tuple(args.poison or ())
    if not (delays or poisons):
        poisons = ("admission-solve:solution2",)
        delays = ((0, 1, args.deadline * 4.0),)
    print(
        f"chaos plan           : delays={list(delays)} "
        f"poisons={list(poisons)} deadline={args.deadline:g}s",
        file=out,
    )
    fixture = _fixture(hap, args, out)
    async with booted(
        fixture.surfaces,
        out,
        plan=chaos.ChaosPlan(delay=delays, poison=poisons),
        solve_timeout=args.deadline,
    ) as (host, port, _):
        answers = await _ask_misses(host, port, fixture, range(args.requests), out)
    return _degradation(answers, args.requests, fixture.margin)


@_drill(
    "fleet",
    "conservative fleet degradation holds",
    reads=("kill", "delay", "poison"),
)
async def _fleet(hap, args, out) -> list[Invariant]:
    """SIGKILL shards mid-load: survivors deny conservatively, respawns rejoin.

    ``--kill`` specs name shard indexes (default shard 0), killed after
    ``--requests // 2`` answers.  The Solution-2 rung is poisoned unless
    ``--poison`` says otherwise, so every miss degrades to a deny.  Each
    query rides a fresh connection, so one landing on the dying shard
    costs a retry, never a hang.
    """
    kills = _faults(args.kill, _parse_kill)
    victims = sorted({shard for shard, _ in kills}) or [0]
    stray = [shard for shard in victims if not 0 <= shard < args.shards]
    if stray:
        raise UsageError(
            f"--kill names shard {stray[0]}, but --shards {args.shards} "
            f"numbers its shards 0..{args.shards - 1}"
        )
    plan = chaos.ChaosPlan(
        delay=_faults(args.delay, _parse_delay),
        poison=tuple(args.poison or ()) or ("admission-solve:solution2",),
    )
    print(
        f"chaos plan           : kill shard(s) {victims}, "
        f"poisons={list(plan.poison)} deadline={args.deadline:g}s",
        file=out,
    )
    fixture = _fixture(hap, args, out)
    kill_at = min(max(1, args.requests // 2), args.requests)
    async with booted(
        fixture.surfaces,
        out,
        shards=args.shards,
        plan=plan,
        solve_timeout=args.deadline,
    ) as (host, port, fleet):
        answers = await _ask_misses(host, port, fixture, range(kill_at), out)
        for victim in victims:
            pid = fleet.kill_shard(victim)
            print(f"killed               : shard {victim} (pid {pid})", file=out)
        answers += await _ask_misses(
            host, port, fixture, range(kill_at, args.requests), out
        )
        rejoin_deadline = time.monotonic() + 30.0
        while fleet.alive() < fleet.shards and time.monotonic() < rejoin_deadline:
            await asyncio.sleep(0.1)
        alive = fleet.alive()
    return [
        *_degradation(answers, args.requests, fixture.margin),
        Invariant(
            "respawn rejoined",
            alive == args.shards,
            f"{alive}/{args.shards} shards alive",
        ),
    ]


@_drill("overload", "load shedding holds")
async def _overload(hap, args, out) -> list[Invariant]:
    """Saturate the live-solve path: excess load sheds, cached traffic flows.

    An in-process service with ``max_inflight=2`` and one solver thread,
    every live solve slowed by a wildcard delay, takes ``max(4,
    --requests)`` concurrent misses on their own connections while 50
    cached queries stream on another.  Then one 8 KiB frame, past the
    4 KiB line cap, and a ping follow on one raw socket.
    """
    slow = min(0.4, args.deadline / 2.0)
    print(
        f"chaos plan           : every live solve sleeps {slow:g}s "
        f"(wildcard seed), max_inflight=2, deadline={args.deadline:g}s",
        file=out,
    )
    fixture = _fixture(hap, args, out)
    requests = max(4, args.requests)
    cached_query = (1.0, 1.0, float(fixture.surfaces.delay_targets[0]))
    async with booted(
        fixture.surfaces,
        out,
        plan=chaos.ChaosPlan(delay=((chaos.ANY, 1, slow),)),
        solve_timeout=args.deadline,
        overload=OverloadPolicy(max_inflight=2, max_line_bytes=4096),
    ) as (host, port, _):
        async with _connections(host, port, requests) as clients:
            started = time.perf_counter()
            misses = [
                asyncio.create_task(client.admit(*fixture.miss(i)))
                for i, client in enumerate(clients)
            ]
            cached = await run_load(host, port, [cached_query] * 50, connections=1)
            answers = await asyncio.gather(*misses)
            elapsed = time.perf_counter() - started
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(b'{"op": "ping", "pad": "' + b"x" * 8192 + b'"}\n')
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            oversized = json.loads(await reader.readline())
            followup = json.loads(await reader.readline())
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
    for index, answer in enumerate(answers):
        print(
            f"miss {index:<16}: tier={answer['tier']:<12} "
            f"admit={answer['admit']} "
            f"latency={answer['latency_us'] / 1e3:.1f}ms",
            file=out,
        )
    sheds = [answer["admit"] for answer in answers if answer["tier"] == "shed"]
    return [
        Invariant(
            "no miss over deadline+margin",
            elapsed <= fixture.margin,
            f"{len(answers)} answered in {elapsed:.2f}s, "
            f"margin {fixture.margin:g}s",
        ),
        Invariant("the saturated solver shed", bool(sheds), f"{len(sheds)} shed"),
        Invariant(
            "every shed answer is a deny", not any(sheds), f"{sum(sheds)} admitted"
        ),
        Invariant(
            "cached queries answered from the surface tier",
            cached.tiers == {"surface": 50},
            f"tiers {cached.tiers}",
        ),
        Invariant(
            "oversized frame answered, socket resynced",
            oversized.get("ok") is False
            and "error" in oversized
            and followup.get("pong") is True,
            f"error={oversized.get('error', '')!r}, "
            f"follow-up pong={followup.get('pong')}",
        ),
    ]


@_drill("drain", "graceful drain holds")
async def _drain(hap, args, out) -> list[Invariant]:
    """SIGTERM a loaded shard: every in-flight answer lands before it exits.

    A one-shard fleet parks ``max(2, --requests)`` slow live solves in
    flight and is drained mid-solve; then a ``--shards`` fleet rolls
    through a restart while a retrying client drives 400-query cached
    rounds until the restart completes.
    """
    fixture = _fixture(hap, args, out)
    requests = max(2, args.requests)
    slow = min(0.5, args.deadline / 2.0)
    print(
        f"chaos plan           : every live solve sleeps {slow:g}s "
        f"(wildcard seed), deadline={args.deadline:g}s",
        file=out,
    )
    loop = asyncio.get_running_loop()
    async with booted(
        fixture.surfaces,
        out,
        shards=1,
        plan=chaos.ChaosPlan(delay=((chaos.ANY, 1, slow),)),
        solve_timeout=args.deadline,
        solver_workers=requests,
    ) as (host, port, fleet):
        async with _connections(host, port, requests) as clients:
            calls = [
                asyncio.create_task(client.admit(*fixture.miss(i)))
                for i, client in enumerate(clients)
            ]
            # Let every request park on the solver, then SIGTERM mid-flight.
            await asyncio.sleep(slow / 2.0)
            drained = loop.run_in_executor(None, fleet.drain_shard, 0)
            answers = await asyncio.gather(*calls, return_exceptions=True)
            clean = await drained
        await asyncio.sleep(1.0)  # two monitor ticks: a respawn would land
        left = fleet.alive()
    async with booted(
        fixture.surfaces, out, shards=args.shards, solve_timeout=args.deadline
    ) as (host, port, fleet):
        restart = loop.run_in_executor(None, fleet.rolling_restart)
        reports = []
        while not reports or not restart.done():
            queries = generate_queries(
                fixture.surfaces, "cached", 400, seed=args.seed + len(reports)
            )
            reports.append(
                await run_load(host, port, queries, connections=4, retry=_RETRY)
            )
        cycled = await restart
        alive = fleet.alive()
    delivered = sum(isinstance(a, dict) and a.get("ok") is True for a in answers)
    failed = sum(report.failed for report in reports)
    return [
        Invariant(
            "0 in-flight answers lost",
            delivered == requests,
            f"{delivered}/{requests} delivered, {requests - delivered} lost",
        ),
        Invariant("the drained shard exits cleanly", clean, f"clean exit: {clean}"),
        Invariant(
            "a drained shard is not respawned", left == 0, f"{left} shards alive"
        ),
        Invariant(
            "0 failed queries across the rolling restart",
            failed == 0,
            f"{sum(report.requests for report in reports)} queries, "
            f"{sum(report.retried for report in reports)} retried, "
            f"{failed} failed",
        ),
        Invariant(
            "every shard cycled back to full strength",
            cycled == alive == args.shards,
            f"{cycled}/{args.shards} cycled, {alive}/{args.shards} alive",
        ),
    ]


def _admitted_probe(surfaces: DecisionSurfaces) -> tuple[float, float, float]:
    """An on-grid query the surfaces admit (the loosest target first)."""
    for target in reversed(surfaces.delay_targets):
        for n1 in range(int(surfaces.max_population) + 1):
            bound = surfaces.grid_bound(float(n1), float(target))
            if bound is not None and bound >= 0.0:
                return float(n1), 0.0, float(target)
    raise UsageError("surfaces admit nothing; no observable reload flip")


@_drill("reload", "hot reload holds")
async def _reload(hap, args, out) -> list[Invariant]:
    """Hot-swap the surfaces mid-load: every answer from exactly one generation.

    Four connections hammer one on-grid probe that generation 0 admits.
    Generation 1, published 0.2 s in, lowers every boundary below zero,
    so the same probe must deny.  A batch asked after the swap must
    carry one generation.
    """
    fixture = _fixture(hap, args, out)
    probe = _admitted_probe(fixture.surfaces)
    tightened = fixture.surfaces.tightened(
        by=float(fixture.surfaces.max_population) + 2.0
    )
    print(
        f"probe                : n1={probe[0]:g} n2={probe[1]:g} "
        f"target={probe[2]:g} (gen 0 admits, gen 1 denies)",
        file=out,
    )
    answers: list[tuple[int, int, bool]] = []  # (connection, gen, admit)
    stop = asyncio.Event()

    async def hammer(slot: int, client) -> None:
        while not stop.is_set():
            answer = await client.admit(*probe)
            answers.append((slot, int(answer["gen"]), bool(answer["admit"])))

    async with booted(
        fixture.surfaces, out, shards=args.shards, solve_timeout=args.deadline
    ) as (host, port, fleet):
        async with _connections(host, port, 4) as clients:
            try:
                tasks = [
                    asyncio.create_task(hammer(slot, client))
                    for slot, client in enumerate(clients)
                ]
                await asyncio.sleep(0.2)  # observe generation-0 answers
                generation = await asyncio.get_running_loop().run_in_executor(
                    None, fleet.reload_surfaces, tightened
                )
                await asyncio.sleep(0.2)  # observe generation-1 answers
            finally:
                stop.set()
            await asyncio.gather(*tasks)
            batch = await clients[0].admit_batch(*([value] * 2 for value in probe))
    expected = {0: True, 1: False}
    mixed = sum(expected.get(gen, admit) != admit for _, gen, admit in answers)
    last: dict[int, int] = {}
    backwards = 0
    for slot, gen, _ in answers:
        backwards += gen < last.get(slot, gen)
        last[slot] = gen
    on_gen = [sum(gen == g for _, gen, _ in answers) for g in (0, generation)]
    last_gens = [last.get(slot, -1) for slot in range(4)]
    return [
        Invariant(
            "both generations answered",
            generation == 1 and min(on_gen) > 0,
            f"{on_gen[0]} answers on gen 0, {on_gen[1]} on gen {generation}",
        ),
        Invariant(
            "0 mixed-generation answers",
            mixed == 0,
            f"{mixed} of {len(answers)} admit bits contradict their gen",
        ),
        Invariant(
            "generations only move forward per connection",
            backwards == 0,
            f"{backwards} backward steps",
        ),
        Invariant(
            "every connection settled on the new generation",
            all(gen == generation for gen in last_gens),
            f"last gens {last_gens}",
        ),
        Invariant(
            "single-generation batch",
            batch.get("gen") == generation and not any(batch["admit"]),
            f"gen={batch.get('gen')} admit={batch['admit']}",
        ),
    ]


def _poisoned_chains(hap: HAP, plan: chaos.ChaosPlan, out) -> Invariant:
    """Run each targeted degradation chain under ``plan``; print its rungs."""
    mmpp = hap.to_mmpp().mmpp

    def stationary():
        chain = CTMC(sp.csr_matrix(mmpp.generator, dtype=float), validate=False)
        chain.stationary_distribution()
        return chain.stationary_diagnostics

    outcomes = []
    with chaos.chaos_active(plan):
        for name, solve in (
            ("spectral-kernel", lambda: SpectralKernel(mmpp.d0()).diagnostics),
            ("ctmc-stationary", stationary),
        ):
            try:
                diagnostics = solve()
            except DegradationError as error:
                print(f"{name:<21}: exhausted — {error}", file=out)
                outcomes.append(f"{name} exhausted")
            else:
                print(diagnostics.describe(), file=out)
                outcomes.append(f"{name} by {diagnostics.rung!r}")
    return Invariant(
        "every poisoned chain answers from a lower rung",
        not any(outcome.endswith("exhausted") for outcome in outcomes),
        ", ".join(outcomes),
    )


def _recovered_campaign(hap: HAP, args, plan: chaos.ChaosPlan, out) -> Invariant:
    """A retried campaign under ``plan`` against its fault-free twin."""
    task = partial(simulate_hap_mm1, hap.params, args.horizon)
    clean = ParallelReplicator(max_workers=args.workers).run(
        task, args.replications, base_seed=args.seed
    )
    policy = RetryPolicy(
        max_attempts=max(1, args.retries + 1),
        timeout=args.timeout,
        backoff_base=0.05,
    )
    faulted = ParallelReplicator(max_workers=args.workers, policy=policy).run(
        chaos.wrap(task, plan), args.replications, base_seed=args.seed
    )
    print(f"fault-free campaign  : {clean.describe()}", file=out)
    print(f"chaos campaign       : {faulted.describe()}", file=out)
    for failure in faulted.failures:
        print(
            f"failed replication   : seed {failure.seed}: {failure.error}",
            file=out,
        )
    identical = faulted.results == clean.results and faulted.seeds == clean.seeds
    return Invariant(
        "bit-identical recovery",
        identical and not faulted.failures,
        f"{len(faulted.failures)} failed, statistics "
        f"{'identical to' if identical else 'DIFFER from'} the fault-free run",
    )


@_drill("campaign", "chaos recovery holds", reads=("kill", "delay", "poison"))
async def _campaign(hap, args, out) -> list[Invariant]:
    """Kill, hang and poison the replication runtime: recovery is exact.

    Kill and delay faults hit a retried campaign whose statistics must be
    bit-identical to a fault-free run of the same seeds.  Poisoned rungs
    must leave the spectral-kernel and CTMC-stationary chains answering
    from a lower rung.  With no fault flag, the worker running seed
    ``--seed + 1`` is killed.  No service runs, so the campaign may block
    the drill's event loop.
    """
    kills = _faults(args.kill, _parse_kill)
    delays = _faults(args.delay, _parse_delay)
    poisons = tuple(args.poison or ())
    if not (kills or delays or poisons):
        kills = ((args.seed + 1, 1),)
    plan = chaos.ChaosPlan(kill=kills, delay=delays, poison=poisons)
    print(
        f"chaos plan           : kills={list(kills)} delays={list(delays)} "
        f"poisons={list(poisons)}",
        file=out,
    )
    invariants = []
    if poisons:
        invariants.append(_poisoned_chains(hap, plan, out))
    if kills or delays:
        invariants.append(_recovered_campaign(hap, args, plan, out))
    return invariants
