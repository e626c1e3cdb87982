"""Tests for the asyncio admission service, TCP protocol, and load client."""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.runtime import chaos
from repro.runtime.chaos import ChaosPlan
from repro.service.client import (
    AdmissionClient,
    _percentile,
    generate_queries,
    run_load,
)
from repro.service.server import (
    MAX_BATCH_ROWS,
    AdmissionService,
    start_server,
)


def _run(coro):
    """Drive a coroutine to completion (pytest-asyncio is not available)."""
    return asyncio.run(coro)


class TestTierRouting:
    def test_on_grid_query_answers_from_surface(self, surfaces):
        async def scenario():
            with AdmissionService(surfaces) as service:
                decision = await service.admit(2.0, 1.0, 0.9)
                assert decision.tier == "surface"
                assert decision.max_n2 == surfaces.max_n2[1, 2]
                assert decision.admit == (1.0 <= decision.max_n2)
                assert decision.latency_s < 0.1

        _run(scenario())

    def test_off_grid_query_answers_from_interpolation(self, surfaces):
        async def scenario():
            with AdmissionService(surfaces) as service:
                decision = await service.admit(2.5, 0.0, 1.0)
                assert decision.tier == "interpolated"
                # Conservative corner: row of 0.9, column ceil(2.5) = 3.
                assert decision.max_n2 == surfaces.max_n2[1, 3]
                assert decision.estimate is not None

        _run(scenario())

    def test_miss_answers_from_live_solve(self, surfaces):
        async def scenario():
            with AdmissionService(surfaces) as service:
                target = float(surfaces.delay_targets[-1]) * 2.0
                decision = await service.admit(1.0, 1.0, target)
                assert decision.tier == "solve"
                assert "solution2" in decision.detail
                # A looser-than-grid target admits a mix the grid admits.
                assert decision.admit

        _run(scenario())

    def test_bandwidth_tiers(self, surfaces):
        async def scenario():
            with AdmissionService(surfaces) as service:
                on_grid = await service.bandwidth(0.9)
                assert on_grid.tier == "surface"
                assert on_grid.bandwidth == surfaces.bandwidth[1]
                between = await service.bandwidth(1.0)
                assert between.tier == "interpolated"
                assert between.bandwidth >= between.estimate
                miss = await service.bandwidth(
                    float(surfaces.delay_targets[-1]) * 2.0
                )
                assert miss.tier == "solve"
                assert math.isfinite(miss.bandwidth)

        _run(scenario())


class TestDegradation:
    def test_poisoned_ladder_denies_conservatively(self, surfaces):
        plan = ChaosPlan(poison=("admission-solve:solution2",))

        async def scenario():
            with AdmissionService(surfaces) as service:
                target = float(surfaces.delay_targets[-1]) * 2.0
                decision = await service.admit(1.0, 1.0, target)
                assert decision.tier == "degraded"
                assert not decision.admit
                assert "deny" in decision.detail

        with chaos.chaos_active(plan):
            _run(scenario())

    def test_slow_solve_degrades_at_deadline(self, surfaces):
        # Request index 0 sleeps 1 s in the worker; the 0.2 s deadline must
        # bound the answer, not the worker thread.
        plan = ChaosPlan(delay=((0, 1, 1.0),))

        async def scenario():
            with AdmissionService(surfaces, solve_timeout=0.2) as service:
                target = float(surfaces.delay_targets[-1]) * 2.0
                decision = await service.admit(1.0, 1.0, target)
                assert decision.tier == "degraded"
                assert not decision.admit
                assert "deadline" in decision.detail
                assert decision.latency_s < 0.8

        with chaos.chaos_active(plan):
            _run(scenario())

    def test_degraded_bandwidth_refuses_to_commit(self, surfaces):
        plan = ChaosPlan(poison=("admission-solve:solution2",))

        async def scenario():
            with AdmissionService(surfaces) as service:
                answer = await service.bandwidth(
                    float(surfaces.delay_targets[-1]) * 2.0
                )
                assert answer.tier == "degraded"
                assert math.isinf(answer.bandwidth)

        with chaos.chaos_active(plan):
            _run(scenario())


class TestValidationAndStats:
    def test_rejects_bad_queries(self, surfaces):
        async def scenario():
            with AdmissionService(surfaces) as service:
                with pytest.raises(ValueError, match="n1"):
                    await service.admit(-1.0, 0.0, 0.9)
                with pytest.raises(ValueError, match="n2"):
                    await service.admit(0.0, math.nan, 0.9)
                with pytest.raises(ValueError, match="delay_target"):
                    await service.admit(0.0, 0.0, 0.0)
                with pytest.raises(ValueError, match="delay_target"):
                    await service.bandwidth(math.inf)

        _run(scenario())

    def test_rejects_bad_configuration(self, surfaces):
        with pytest.raises(ValueError, match="solve_timeout"):
            AdmissionService(surfaces, solve_timeout=0.0)
        with pytest.raises(ValueError, match="solver_workers"):
            AdmissionService(surfaces, solver_workers=0)

    def test_counters_track_tiers_and_outcomes(self, surfaces):
        async def scenario():
            with AdmissionService(surfaces) as service:
                await service.admit(2.0, 0.0, 0.9)  # surface
                await service.admit(2.5, 0.0, 1.0)  # interpolated
                await service.admit(
                    1.0, 1.0, float(surfaces.delay_targets[-1]) * 2.0
                )  # solve
                stats = service.stats()
                assert stats["surface"] == 1
                assert stats["interpolated"] == 1
                assert stats["solve"] == 1
                assert stats["admitted"] + stats["denied"] == 3

        _run(scenario())


class TestProtocol:
    async def _serve(self, surfaces, scenario, **service_kwargs):
        with AdmissionService(surfaces, **service_kwargs) as service:
            server = await start_server(service)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                await scenario(host, port, service)
            finally:
                server.close()
                await server.wait_closed()

    def test_admit_and_ping_round_trip(self, surfaces):
        async def scenario(host, port, service):
            client = await AdmissionClient.open(host, port)
            try:
                assert (await client.ping())["pong"] is True
                answer = await client.admit(2.0, 1.0, 0.9)
                assert answer["tier"] == "surface"
                assert answer["admit"] == (1.0 <= surfaces.max_n2[1, 2])
                stats = await client.stats()
                assert stats["surface"] == 1
            finally:
                await client.close()

        _run(self._serve(surfaces, scenario))

    def test_protocol_errors_answer_without_killing_connection(self, surfaces):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for bad_line in (
                    b"this is not json\n",
                    b'["a", "list"]\n',
                    b'{"op": "launch-missiles"}\n',
                    b'{"op": "admit", "n1": -1, "n2": 0, "delay_target": 1}\n',
                ):
                    writer.write(bad_line)
                    await writer.drain()
                    response = json.loads(await reader.readline())
                    assert response["ok"] is False
                    assert response["error"]
                # The connection survived all four errors.
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                assert json.loads(await reader.readline())["ok"] is True
            finally:
                writer.close()
                await writer.wait_closed()

        _run(self._serve(surfaces, scenario))

    def test_client_raises_on_service_error(self, surfaces):
        async def scenario(host, port, service):
            client = await AdmissionClient.open(host, port)
            try:
                with pytest.raises(RuntimeError, match="unknown op"):
                    await client.request({"op": "nope"})
            finally:
                await client.close()

        _run(self._serve(surfaces, scenario))

    def test_non_finite_numbers_answer_as_json_null(self, surfaces):
        """RFC 8259 has no ``Infinity``: a strict parser must read every line."""
        import dataclasses

        import numpy as np

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        overloaded = {"n1": 40.0, "n2": 40.0, "delay_target": 3.0}
        unsized = dataclasses.replace(
            surfaces, bandwidth=np.full(surfaces.bandwidth.shape, math.inf)
        )

        async def scenario(host, port, service):
            decision = await service.admit(**overloaded)
            assert (decision.tier, decision.estimate) == ("solve", math.inf)
            reader, writer = await asyncio.open_connection(host, port)

            async def ask(request):
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                line = await reader.readline()
                return json.loads(line, parse_constant=refuse)

            try:
                single = await ask({"op": "admit", **overloaded})
                assert (single["tier"], single["estimate"]) == ("solve", None)
                batch = await ask(
                    {
                        "op": "admit_batch",
                        **{key: [value] for key, value in overloaded.items()},
                    }
                )
                assert (batch["tier"], batch["estimate"]) == (["solve"], [None])
                service.set_surfaces(unsized, 1)
                width = await ask(
                    {
                        "op": "bandwidth",
                        "delay_target": float(surfaces.delay_targets[-1]),
                    }
                )
                assert width["tier"] == "surface"
                assert (width["bandwidth"], width["estimate"]) == (None, None)
            finally:
                writer.close()
                await writer.wait_closed()

        _run(self._serve(surfaces, scenario))


class TestLoadGenerator:
    def test_generated_queries_pin_their_tier(self, surfaces):
        async def scenario():
            with AdmissionService(surfaces) as service:
                for tier, expected in (
                    ("cached", "surface"),
                    ("interpolated", "interpolated"),
                    ("miss", "solve"),
                ):
                    for n1, n2, target in generate_queries(surfaces, tier, 10):
                        decision = await service.admit(n1, n2, target)
                        assert decision.tier == expected, (tier, n1, n2, target)

        _run(scenario())

    def test_generate_queries_validates(self, surfaces):
        with pytest.raises(ValueError, match="unknown tier"):
            generate_queries(surfaces, "warp-speed", 5)
        with pytest.raises(ValueError, match="at least 1"):
            generate_queries(surfaces, "cached", 0)

    def test_queries_are_deterministic(self, surfaces):
        first = generate_queries(surfaces, "interpolated", 20, seed=7)
        second = generate_queries(surfaces, "interpolated", 20, seed=7)
        assert first == second
        assert generate_queries(surfaces, "interpolated", 20, seed=8) != first

    def test_run_load_reports_throughput(self, surfaces):
        async def scenario():
            with AdmissionService(surfaces) as service:
                server = await start_server(service)
                host, port = server.sockets[0].getsockname()[:2]
                try:
                    queries = generate_queries(surfaces, "cached", 60)
                    report = await run_load(host, port, queries, connections=3)
                finally:
                    server.close()
                    await server.wait_closed()
            assert report.requests == 60
            assert report.decisions_per_sec > 0
            assert report.tiers == {"surface": 60}
            assert report.admitted + report.denied == 60
            assert report.p50_latency_ms <= report.p99_latency_ms
            assert report.p99_latency_ms <= report.max_latency_ms
            assert "decisions" in report.describe()

        _run(scenario())


class TestPercentile:
    def test_nearest_rank_rounds_half_up(self):
        # round() rounds half-to-even: round(0.5) == 0 would report 10 as
        # the median of [10, 20]; explicit round-half-up reports 20.
        assert _percentile([10.0, 20.0], 0.50) == 20.0
        # q*(n-1) = 2.5 is another half-way case: banker's rounding picks
        # index 2, round-half-up picks index 3.
        assert _percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 0.50) == 4.0

    def test_endpoints_and_empty(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert _percentile(values, 0.0) == 1.0
        assert _percentile(values, 1.0) == 5.0
        assert _percentile(values, 0.99) == 5.0
        assert _percentile([], 0.5) == 0.0

    def test_exact_ranks_unchanged(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert _percentile(values, 0.50) == 3.0
        assert _percentile(values, 0.25) == 2.0


class TestRunLoadEdgeCases:
    def test_empty_queries_reports_zero(self, surfaces):
        async def scenario():
            with AdmissionService(surfaces) as service:
                server = await start_server(service)
                host, port = server.sockets[0].getsockname()[:2]
                try:
                    report = await run_load(host, port, [], connections=4)
                finally:
                    server.close()
                    await server.wait_closed()
            assert report.requests == 0
            assert report.decisions_per_sec == 0.0
            assert report.elapsed_s == 0.0
            assert report.p50_latency_ms == 0.0
            assert report.tiers == {}

        _run(scenario())

    def test_more_connections_than_queries(self, surfaces):
        async def scenario():
            with AdmissionService(surfaces) as service:
                server = await start_server(service)
                host, port = server.sockets[0].getsockname()[:2]
                try:
                    queries = generate_queries(surfaces, "cached", 3)
                    report = await run_load(
                        host, port, queries, connections=16
                    )
                finally:
                    server.close()
                    await server.wait_closed()
            assert report.requests == 3
            assert report.admitted + report.denied == 3

        _run(scenario())

    def test_negative_batch_size_rejected(self, surfaces):
        async def scenario():
            with pytest.raises(ValueError, match="batch_size"):
                await run_load("127.0.0.1", 1, [(1.0, 1.0, 0.9)], batch_size=-1)

        _run(scenario())


class TestBatchVerb:
    def test_batch_matches_per_query_decisions_and_counters(self, surfaces):
        queries = (
            generate_queries(surfaces, "cached", 10, seed=2)
            + generate_queries(surfaces, "interpolated", 5, seed=2)
            + generate_queries(surfaces, "miss", 2, seed=2)
        )
        n1s, n2s, targets = (list(column) for column in zip(*queries))

        async def scenario():
            with AdmissionService(surfaces, solve_timeout=30.0) as single:
                expected = [
                    await single.admit(n1, n2, target)
                    for n1, n2, target in queries
                ]
                with AdmissionService(surfaces, solve_timeout=30.0) as batched:
                    batch = await batched.admit_batch(n1s, n2s, targets)
                    assert batch.rows == len(queries)
                    for row, decision in enumerate(expected):
                        assert batch.admit[row] == decision.admit
                        assert batch.tier[row] == decision.tier
                        assert batch.max_n2[row] == decision.max_n2
                        assert batch.estimate[row] == decision.estimate
                    assert batched.counters == single.counters

        _run(scenario())

    def test_edge_rows_match_per_query_decisions_and_counters(self, surfaces):
        from repro.service.surfaces import _GRID_RTOL

        first, middle, last = surfaces.delay_targets.tolist()
        top = float(surfaces.max_population)
        queries = [
            (0.0, 0.0, first),  # n1 at 0, on the low hull edge
            (top, 0.0, last),  # n1 at max_population, on the high hull edge
            (top - 0.5, 0.0, middle),  # fractional n1 in the last column
            (2.5, 1.0, middle),  # fractional n1 on a grid row
            (3.0, 1.0, (first + middle) / 2.0),  # midway between rows
            (1.0, 1.0, last * 2.0),  # past the hull (delay)
            (top + 1.0, 0.0, first),  # past the hull (n1)
            (1.0, 1.0, first * (1.0 - _GRID_RTOL / 2)),  # just below the hull
            (1.0, 1.0, middle * (1.0 - _GRID_RTOL / 2)),
            (1.0, 1.0, middle * (1.0 + _GRID_RTOL / 2)),
            (2.0, 1.0, last * (1.0 - _GRID_RTOL / 2)),
            (2.0, 1.0, last * (1.0 + _GRID_RTOL / 2)),  # just past the hull
        ]
        n1s, n2s, targets = (list(column) for column in zip(*queries))

        async def scenario():
            with AdmissionService(surfaces, solve_timeout=30.0) as single:
                expected = [
                    await single.admit(n1, n2, target)
                    for n1, n2, target in queries
                ]
                with AdmissionService(surfaces, solve_timeout=30.0) as batched:
                    batch = await batched.admit_batch(n1s, n2s, targets)
                    answered = list(
                        zip(batch.tier, batch.admit, batch.max_n2, batch.estimate)
                    )
                    assert answered == [
                        (d.tier, d.admit, d.max_n2, d.estimate) for d in expected
                    ]
                    assert batched.counters == single.counters
            # The edge rows reach both lookups and the live solve.
            assert {d.tier for d in expected} == {
                "surface",
                "interpolated",
                "solve",
            }

        _run(scenario())

    def test_empty_batch(self, surfaces):
        async def scenario():
            with AdmissionService(surfaces) as service:
                batch = await service.admit_batch([], [], [])
                assert batch.rows == 0
                assert service.counters["surface"] == 0

        _run(scenario())

    def test_batch_validation(self, surfaces):
        import numpy as np

        async def scenario():
            with AdmissionService(surfaces) as service:
                with pytest.raises(ValueError, match="equal lengths"):
                    await service.admit_batch([1.0], [1.0, 2.0], [0.9])
                with pytest.raises(ValueError, match="1-D"):
                    await service.admit_batch(
                        [[1.0]], [[1.0]], [[0.9]]
                    )
                with pytest.raises(ValueError, match="finite and non-negative"):
                    await service.admit_batch([-1.0], [1.0], [0.9])
                with pytest.raises(ValueError, match="finite and positive"):
                    await service.admit_batch([1.0], [1.0], [0.0])
                oversized = np.ones(MAX_BATCH_ROWS + 1)
                with pytest.raises(ValueError, match="protocol limit"):
                    await service.admit_batch(oversized, oversized, oversized)

        _run(scenario())

    def test_batch_over_protocol(self, surfaces):
        async def scenario():
            with AdmissionService(surfaces) as service:
                server = await start_server(service)
                host, port = server.sockets[0].getsockname()[:2]
                try:
                    client = await AdmissionClient.open(host, port)
                    try:
                        answer = await client.admit_batch(
                            [2.0, 0.5], [1.0, 1.0], [0.9, 0.9]
                        )
                        assert answer["rows"] == 2
                        assert answer["tier"] == ["surface", "interpolated"]
                        single = await client.admit(2.0, 1.0, 0.9)
                        assert answer["admit"][0] == single["admit"]
                    finally:
                        await client.close()
                finally:
                    server.close()
                    await server.wait_closed()

        _run(scenario())

    def test_run_load_batched_counts_rows(self, surfaces):
        async def scenario():
            with AdmissionService(surfaces) as service:
                server = await start_server(service)
                host, port = server.sockets[0].getsockname()[:2]
                try:
                    queries = generate_queries(surfaces, "cached", 50)
                    report = await run_load(
                        host, port, queries, connections=2, batch_size=10
                    )
                finally:
                    server.close()
                    await server.wait_closed()
            assert report.requests == 50
            assert report.tiers == {"surface": 50}
            assert report.admitted + report.denied == 50

        _run(scenario())
