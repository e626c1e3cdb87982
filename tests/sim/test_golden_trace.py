"""Golden-trace regression lock for the event-heap simulation hot path.

The PR-2 hot-path rewrite (tuple heap, bound-method events, rate tables)
promises that the heap engine's draws — one exponential per event — are
**bit-identical** to the pre-rewrite engine.  This test is the proof: it
replays a seeded short HAP/M/1 replication and asserts a SHA-256 hash over
the exact ``(event-time, delay)`` float sequence, captured from the
pre-rewrite code (commit 4141506).  Any change to the draw order, event
ordering, or float arithmetic changes the hash and fails loudly.

The same draws are checked against the paper's closed forms (Equations 4
and 7–11) in ``tests/sim/test_sources.py``.  The columnar engine is a
different determinism domain with its own locks
(``tests/sim/test_columnar_digests.py``).
"""

from __future__ import annotations

import hashlib

from repro.core.params import HAPParameters
from repro.sim.engine import Simulator
from repro.sim.random_streams import Exponential, RandomStreams
from repro.sim.server import FCFSQueue
from repro.sim.sources import HAPSource

#: SHA-256 of the (completion-time, delay) hex sequence on the pre-rewrite
#: engine — seed 1234, horizon 2000 s, paper base parameters, prepopulated.
GOLDEN_SHA256 = "4664e3b3dd70d11a7119555272add12f281d21ad2905f4fc506044139b024f50"

GOLDEN_SEED = 1234
GOLDEN_HORIZON = 2000.0


def _paper_base() -> HAPParameters:
    return HAPParameters.symmetric(
        user_arrival_rate=0.0055,
        user_departure_rate=0.001,
        app_arrival_rate=0.01,
        app_departure_rate=0.01,
        message_arrival_rate=0.1,
        message_service_rate=20.0,
        num_app_types=5,
        num_message_types=3,
        name="golden",
    )


def run_golden_trace(seed: int = GOLDEN_SEED, horizon: float = GOLDEN_HORIZON):
    """One seeded HAP/M/1 replication; returns the (time, delay) pairs."""
    sim = Simulator()
    streams = RandomStreams(seed)
    pairs: list[tuple[float, float]] = []

    def on_departure(sim_, message):
        pairs.append((sim_.now, sim_.now - message.arrival_time))

    queue = FCFSQueue(
        sim,
        Exponential(20.0),
        streams.get("server"),
        on_departure=on_departure,
    )
    source = HAPSource(sim, _paper_base(), streams.get("hap-source"), queue.arrive)
    source.prepopulate()
    source.start()
    sim.run_until(horizon)
    return pairs, sim.events_processed


def trace_digest(pairs) -> str:
    """SHA-256 over the exact float bits (``float.hex``) of the trace."""
    hasher = hashlib.sha256()
    for time, delay in pairs:
        hasher.update(time.hex().encode())
        hasher.update(delay.hex().encode())
    return hasher.hexdigest()


class TestGoldenTrace:
    def test_legacy_mode_matches_pre_rewrite_trace(self):
        pairs, events = run_golden_trace()
        assert len(pairs) > 5_000, "trace suspiciously short — wiring changed?"
        assert trace_digest(pairs) == GOLDEN_SHA256

    def test_trace_is_reproducible_within_this_build(self):
        first, _ = run_golden_trace()
        second, _ = run_golden_trace()
        assert first == second
