"""Tests for the SO_REUSEPORT shard fleet and its shared counter table.

The fleet tests spawn real worker processes; one module-scoped fleet is
shared by the read-only tests, and the chaos test (which kills a shard)
boots its own.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time

import pytest

from repro.runtime.chaos import ChaosPlan
from repro.service.client import AdmissionClient, generate_queries, run_load
from repro.service.server import AdmissionService
from repro.service.sharded import COUNTER_FIELDS, FleetCounters, ShardFleet
from tests.service.conftest import MALFORMED_ARTIFACTS, malformed_artifact


def _run(coro):
    """Drive a coroutine to completion (pytest-asyncio is not available)."""
    return asyncio.run(coro)


class TestFleetCounters:
    def test_mirror_rows_sum_into_totals(self):
        counters = FleetCounters.publish(shards=3)
        try:
            counters.mirror(0).add("surface", 5)
            counters.mirror(2).add("surface", 2)
            counters.mirror(2).add("denied", 7)
            attached = FleetCounters.attach(counters.name, shards=3)
            try:
                view = attached.view(1)
                assert view.shards == 3
                totals = view.totals()
                assert totals["surface"] == 7
                assert totals["denied"] == 7
                per_shard = view.per_shard()
                assert per_shard[0]["surface"] == 5
                assert per_shard[1]["surface"] == 0
                assert per_shard[2]["denied"] == 7
                assert set(totals) == set(COUNTER_FIELDS)
            finally:
                attached.close()
        finally:
            counters.close()

    def test_unknown_counter_name_ignored(self):
        counters = FleetCounters.publish(shards=1)
        try:
            counters.mirror(0).add("not-a-tier", 3)
            assert sum(counters.totals().values()) == 0
        finally:
            counters.close()


@pytest.fixture(scope="module")
def fleet(surfaces):
    """A live 2-shard fleet shared by the read-only fleet tests."""
    with ShardFleet(surfaces, shards=2, solve_timeout=30.0) as running:
        yield running


class TestFleetServing:
    def test_fleet_answers_match_single_process(self, surfaces, fleet):
        """Every sharded answer == the single-process answer, per tier."""
        queries = (
            generate_queries(surfaces, "cached", 6, seed=3)
            + generate_queries(surfaces, "interpolated", 6, seed=3)
            + generate_queries(surfaces, "miss", 3, seed=3)
        )

        async def scenario():
            host, port = fleet.address
            with AdmissionService(surfaces, solve_timeout=30.0) as reference:
                client = await AdmissionClient.open(host, port)
                try:
                    for n1, n2, target in queries:
                        expected = await reference.admit(n1, n2, target)
                        answer = await client.admit(n1, n2, target)
                        assert answer["admit"] == expected.admit
                        assert answer["tier"] == expected.tier
                        assert answer["max_n2"] == expected.max_n2
                finally:
                    await client.close()

        _run(scenario())

    def test_batch_verb_matches_single_queries(self, surfaces, fleet):
        queries = (
            generate_queries(surfaces, "cached", 8, seed=5)
            + generate_queries(surfaces, "interpolated", 4, seed=5)
        )
        n1s, n2s, targets = (list(column) for column in zip(*queries))

        async def scenario():
            host, port = fleet.address
            client = await AdmissionClient.open(host, port)
            try:
                batch = await client.admit_batch(n1s, n2s, targets)
                assert batch["rows"] == len(queries)
                for row, (n1, n2, target) in enumerate(queries):
                    single = await client.admit(n1, n2, target)
                    assert batch["admit"][row] == single["admit"]
                    assert batch["tier"][row] == single["tier"]
                    assert batch["max_n2"][row] == single["max_n2"]
            finally:
                await client.close()

        _run(scenario())

    def test_fleet_stats_aggregate_across_shards(self, surfaces, fleet):
        async def scenario():
            host, port = fleet.address
            before = None
            client = await AdmissionClient.open(host, port)
            try:
                response = await client.request(
                    {"op": "stats", "scope": "fleet"}
                )
                before = response["stats"]
                assert response["scope"] == "fleet"
                assert response["shards"] == 2
                assert len(response["per_shard"]) == 2
            finally:
                await client.close()
            # Many short connections spread across shards by the kernel;
            # the fleet scope must still account for every one of them.
            queries = generate_queries(surfaces, "cached", 30, seed=9)
            for n1, n2, target in queries:
                client = await AdmissionClient.open(host, port)
                try:
                    await client.admit(n1, n2, target)
                finally:
                    await client.close()
            client = await AdmissionClient.open(host, port)
            try:
                after = await client.stats(scope="fleet")
            finally:
                await client.close()
            assert after["surface"] - before["surface"] == 30

        _run(scenario())

    def test_run_load_drives_the_fleet(self, surfaces, fleet):
        async def scenario():
            host, port = fleet.address
            queries = generate_queries(surfaces, "cached", 40, seed=11)
            report = await run_load(host, port, queries, connections=4)
            assert report.requests == 40
            assert report.tiers == {"surface": 40}
            batched = await run_load(
                host, port, queries, connections=2, batch_size=8
            )
            assert batched.requests == 40
            assert batched.tiers == {"surface": 40}
            assert batched.admitted == report.admitted

        _run(scenario())


class TestShardKillChaos:
    def test_killed_shard_respawns_and_fleet_stays_conservative(self, surfaces):
        """SIGKILL one shard mid-load: no hang, no loosened admit, rejoin."""
        plan = ChaosPlan(poison=("admission-solve:solution2",))
        miss_target = float(surfaces.delay_targets[-1]) * 3.0

        async def ask_with_retry(host, port):
            for _ in range(40):
                try:
                    client = await AdmissionClient.open(host, port)
                    try:
                        return await client.admit(1.0, 1.0, miss_target)
                    finally:
                        await client.close()
                except (ConnectionError, OSError):
                    await asyncio.sleep(0.05)
            raise ConnectionError("fleet unreachable")

        with ShardFleet(
            surfaces, shards=2, solve_timeout=5.0, chaos_plan=plan
        ) as fleet:
            host, port = fleet.address

            async def scenario():
                answers = []
                for index in range(6):
                    if index == 3:
                        fleet.kill_shard(0)
                    answers.append(await ask_with_retry(host, port))
                return answers

            answers = _run(scenario())
            assert len(answers) == 6
            # The poisoned ladder degrades every miss: always a deny.
            assert all(a["tier"] == "degraded" for a in answers)
            assert not any(a["admit"] for a in answers)
            deadline = time.monotonic() + 30.0
            while fleet.alive() < 2 and time.monotonic() < deadline:
                time.sleep(0.1)
            assert fleet.alive() == 2
            assert fleet.respawns() >= 1

    def test_rejects_bad_shard_count(self, surfaces):
        with pytest.raises(ValueError, match="shards must be at least 1"):
            ShardFleet(surfaces, shards=0)


class TestGracefulDrain:
    def test_drain_shard_answers_inflight_and_is_not_respawned(self, surfaces):
        miss_target = float(surfaces.delay_targets[-1]) * 3.0
        plan = ChaosPlan(delay=((-1, 1, 0.4),))  # every solve sleeps 0.4 s
        with ShardFleet(
            surfaces,
            shards=1,
            solve_timeout=5.0,
            solver_workers=3,
            chaos_plan=plan,
        ) as fleet:
            host, port = fleet.address

            async def scenario():
                clients = [
                    await AdmissionClient.open(host, port) for _ in range(3)
                ]
                try:
                    calls = [
                        asyncio.ensure_future(
                            client.admit(1.0, 1.0, miss_target)
                        )
                        for client in clients
                    ]
                    await asyncio.sleep(0.15)  # all three solves in flight
                    loop = asyncio.get_running_loop()
                    drained = loop.run_in_executor(None, fleet.drain_shard, 0)
                    answers = await asyncio.gather(*calls)
                    return answers, await drained
                finally:
                    for client in clients:
                        await client.close()

            answers, clean = _run(scenario())
            assert clean is True
            assert len(answers) == 3
            assert all(a["ok"] for a in answers)
            assert all(a["tier"] == "solve" for a in answers)
            # A clean exit is intentional: the monitor must park the slot,
            # never respawn it.
            time.sleep(0.5)
            assert fleet.alive() == 0
            assert fleet.respawns() == 0

    def test_rolling_restart_keeps_fleet_answering(self, surfaces):
        from repro.runtime.resilience import RetryPolicy

        with ShardFleet(surfaces, shards=2, solve_timeout=5.0) as fleet:
            host, port = fleet.address

            async def scenario():
                retry = RetryPolicy(
                    max_attempts=6, timeout=5.0, backoff_base=0.05
                )
                loop = asyncio.get_running_loop()
                restart = loop.run_in_executor(None, fleet.rolling_restart)
                total = failed = 0
                rounds = 0
                while True:
                    queries = generate_queries(
                        surfaces, "cached", 300, seed=rounds
                    )
                    report = await run_load(
                        host, port, queries, connections=4, retry=retry
                    )
                    total += report.requests
                    failed += report.failed
                    rounds += 1
                    if restart.done():
                        break
                return total, failed, await restart

            total, failed, cycled = _run(scenario())
            assert cycled == 2
            assert failed == 0
            assert total >= 300
            assert fleet.alive() == 2

    def test_restart_refuses_live_shard(self, surfaces):
        with ShardFleet(surfaces, shards=1, solve_timeout=5.0) as fleet:
            with pytest.raises(RuntimeError, match="still running"):
                fleet.restart_shard(0)


class TestHotReload:
    def test_reload_flips_generation_and_survives_restart(self, surfaces):
        tightened = surfaces.tightened(
            by=float(surfaces.max_population) + 2.0
        )
        with ShardFleet(surfaces, shards=2, solve_timeout=5.0) as fleet:
            host, port = fleet.address

            async def probe():
                client = await AdmissionClient.open(host, port)
                try:
                    return await client.admit(2.0, 0.0, 0.9)
                finally:
                    await client.close()

            before = _run(probe())
            assert before["gen"] == 0
            assert before["admit"] is True

            generation = fleet.reload_surfaces(tightened)
            assert generation == 1
            assert fleet.generation == 1

            after = _run(probe())
            assert after["gen"] == 1
            assert after["admit"] is False  # boundaries now all below zero

            # A drained-and-restarted shard comes back on the new surfaces.
            assert fleet.drain_shard(0) is True
            fleet.restart_shard(0)
            revived = _run(probe())
            assert revived["gen"] == 1

    def test_reload_refused_on_schema_mismatch_keeps_old_generation(
        self, surfaces
    ):
        with ShardFleet(surfaces, shards=1, solve_timeout=5.0) as fleet:
            stale = json.loads(surfaces.to_json())
            stale["schema"] = "repro-admission-surface/0"
            with pytest.raises(RuntimeError, match="reload refused"):
                fleet._broadcast_reload(json.dumps(stale), 1, timeout=10.0)
            assert fleet.generation == 0
            host, port = fleet.address

            async def probe():
                client = await AdmissionClient.open(host, port)
                try:
                    return await client.admit(2.0, 0.0, 0.9)
                finally:
                    await client.close()

            answer = _run(probe())
            assert answer["gen"] == 0
            assert answer["admit"] is True

    @pytest.mark.parametrize("case", MALFORMED_ARTIFACTS)
    def test_malformed_artifact_reload_refused(self, surfaces, case):
        broken = malformed_artifact(surfaces.to_json(), case)
        with ShardFleet(surfaces, shards=1, solve_timeout=5.0) as fleet:
            with pytest.raises(RuntimeError, match="reload refused") as refusal:
                fleet._broadcast_reload(broken, 1, timeout=10.0)
            assert MALFORMED_ARTIFACTS[case][2] in str(refusal.value)
            assert fleet.generation == 0

    def test_malformed_reload_refused_promptly(self, surfaces):
        """A 1-D ``max_n2`` is refused by every shard's decoder and acked
        at once, instead of the supervisor waiting out its timeout."""
        broken = dataclasses.replace(surfaces, max_n2=surfaces.max_n2[0])
        with ShardFleet(surfaces, shards=2, solve_timeout=5.0) as fleet:
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="reload refused"):
                fleet.reload_surfaces(broken, timeout=20.0)
            assert time.monotonic() - started < 5.0
            assert fleet.generation == 0
            host, port = fleet.address

            async def probe():
                answers = []
                for _ in range(4):  # fresh connections reach both shards
                    client = await AdmissionClient.open(host, port)
                    try:
                        answers.append(await client.admit(2.0, 0.0, 0.9))
                    finally:
                        await client.close()
                return answers

            for answer in _run(probe()):
                assert answer["gen"] == 0
                assert answer["admit"] is True
