"""Tests for repro.sim.sources."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core.client_server import (
    ClientServerApplicationType,
    ClientServerHAPParameters,
    ClientServerMessageType,
)
from repro.core.interarrival import InterarrivalDistribution
from repro.core.onoff import InterruptedPoisson
from repro.experiments.configs import base_parameters
from repro.runtime import ParallelReplicator
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams
from repro.sim.replication import simulate_hap_mm1
from repro.sim.sources import (
    ClientServerHAPSource,
    HAPSource,
    MMPPSource,
    OnOffSource,
    PacketTrainSource,
    PoissonSource,
)


def run_source(factory, horizon: float, seed: int = 3):
    """Wire a source to a counting sink and run it."""
    sim = Simulator()
    streams = RandomStreams(seed)
    messages = []
    source = factory(sim, streams.get("source"), messages.append)
    source.start()
    sim.run_until(horizon)
    return source, messages


class TestPoissonSource:
    def test_rate(self):
        _, messages = run_source(
            lambda sim, rng, emit: PoissonSource(sim, 2.0, rng, emit), 5000.0
        )
        assert len(messages) / 5000.0 == pytest.approx(2.0, rel=0.05)

    def test_interarrivals_exponential(self):
        _, messages = run_source(
            lambda sim, rng, emit: PoissonSource(sim, 2.0, rng, emit), 5000.0
        )
        gaps = np.diff([m.arrival_time for m in messages])
        assert gaps.mean() == pytest.approx(0.5, rel=0.05)
        scv = gaps.var() / gaps.mean() ** 2
        assert scv == pytest.approx(1.0, rel=0.1)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            PoissonSource(Simulator(), 0.0, None, lambda m: None)


class TestHAPSource:
    def test_mean_rate_matches_equation4(self, small_hap):
        source, messages = run_source(
            lambda sim, rng, emit: HAPSource(sim, small_hap, rng, emit),
            40_000.0,
        )
        rate = len(messages) / 40_000.0
        assert rate == pytest.approx(small_hap.mean_message_rate, rel=0.1)

    def test_populations_match_closed_forms(self, small_hap):
        source, _ = run_source(
            lambda sim, rng, emit: HAPSource(sim, small_hap, rng, emit),
            40_000.0,
        )
        source.finalize()
        assert source.user_population.time_average == pytest.approx(
            small_hap.mean_users, rel=0.15
        )
        assert source.app_population.time_average == pytest.approx(
            small_hap.mean_applications, rel=0.15
        )

    def test_prepopulate_starts_near_stationary(self, small_hap):
        sim = Simulator()
        source = HAPSource(
            sim, small_hap, RandomStreams(1).get("s"), lambda m: None
        )
        source.prepopulate()
        # Poisson(1) users and Poisson(2) apps: tiny but usually non-empty.
        assert source.users_present >= 0
        assert source.apps_alive == sum(source.apps_alive_by_type)

    def test_messages_carry_type_indices(self, asymmetric_hap):
        _, messages = run_source(
            lambda sim, rng, emit: HAPSource(sim, asymmetric_hap, rng, emit),
            20_000.0,
        )
        app_types = {m.app_type for m in messages}
        assert app_types == {0, 1}
        keystrokes = [m for m in messages if m.app_type == 0]
        assert {m.message_type for m in keystrokes} == {0, 1}

    def test_per_type_rates_proportional(self, asymmetric_hap):
        _, messages = run_source(
            lambda sim, rng, emit: HAPSource(sim, asymmetric_hap, rng, emit),
            60_000.0,
        )
        type0 = sum(1 for m in messages if m.app_type == 0)
        type1 = sum(1 for m in messages if m.app_type == 1)
        apps = asymmetric_hap.applications
        expected_ratio = (
            apps[0].offered_instances * apps[0].total_message_rate
        ) / (apps[1].offered_instances * apps[1].total_message_rate)
        assert type0 / type1 == pytest.approx(expected_ratio, rel=0.15)

    def test_user_departure_stops_invocations_not_apps(self, small_hap):
        """The paper's semantics: applications outlive their user."""
        sim = Simulator()
        source = HAPSource(
            sim, small_hap, RandomStreams(2).get("s"), lambda m: None,
        )
        source._create_app_instance(0)
        assert source.apps_alive == 1
        # No users present: after any amount of time, no new apps appear
        # but the one alive keeps running until its own departure fires.
        sim.run_until(1.0)
        assert source.apps_alive in (0, 1)  # may have died on its own

    def test_population_traces_recorded(self, small_hap):
        sim = Simulator()
        source = HAPSource(
            sim,
            small_hap,
            RandomStreams(3).get("s"),
            lambda m: None,
            trace_stride=1,
        )
        source.prepopulate()
        source.start()
        sim.run_until(5000.0)
        assert len(source.user_trace) > 0
        assert len(source.app_trace) > 0


class TestMMPPSource:
    def test_poisson_degenerate_case(self):
        from repro.markov.mmpp import MMPP

        mmpp = MMPP(np.zeros((1, 1)), np.array([2.0]))
        _, messages = run_source(
            lambda sim, rng, emit: MMPPSource(sim, mmpp, rng, emit), 5000.0
        )
        assert len(messages) / 5000.0 == pytest.approx(2.0, rel=0.05)

    def test_two_state_mean_rate(self):
        from repro.markov.mmpp import MMPP

        generator = np.array([[-0.2, 0.2], [0.3, -0.3]])
        mmpp = MMPP(generator, np.array([1.0, 4.0]))
        _, messages = run_source(
            lambda sim, rng, emit: MMPPSource(sim, mmpp, rng, emit), 20_000.0
        )
        assert len(messages) / 20_000.0 == pytest.approx(
            mmpp.mean_rate(), rel=0.05
        )

    def test_hap_mapped_mmpp_source_matches_hap_rate(self, small_hap):
        """Simulating the mapped MMPP reproduces the HAP's mean rate."""
        from repro.core.mmpp_mapping import symmetric_hap_to_mmpp

        mapped = symmetric_hap_to_mmpp(small_hap)
        _, messages = run_source(
            lambda sim, rng, emit: MMPPSource(sim, mapped.mmpp, rng, emit),
            40_000.0,
        )
        assert len(messages) / 40_000.0 == pytest.approx(
            small_hap.mean_message_rate, rel=0.1
        )


class TestOnOffSource:
    def test_mean_rate(self):
        _, messages = run_source(
            lambda sim, rng, emit: OnOffSource(sim, 1.0, 3.0, 8.0, rng, emit),
            20_000.0,
        )
        expected = 8.0 * 1.0 / 4.0
        assert len(messages) / 20_000.0 == pytest.approx(expected, rel=0.05)

    def test_agrees_with_ipp_mmpp(self):
        source_def = InterruptedPoisson(1.0, 3.0, 8.0)
        sim = Simulator()
        on_off = OnOffSource(
            sim, 1.0, 3.0, 8.0, RandomStreams(1).get("s"), lambda m: None
        )
        assert on_off.mean_rate() == pytest.approx(source_def.mean_rate)
        assert on_off.to_mmpp().mean_rate() == pytest.approx(
            source_def.mean_rate
        )

    def test_validates_rates(self):
        with pytest.raises(ValueError):
            OnOffSource(Simulator(), 0.0, 1.0, 1.0, None, lambda m: None)


class TestPacketTrainSource:
    def test_mean_rate(self):
        _, messages = run_source(
            lambda sim, rng, emit: PacketTrainSource(
                sim, 0.5, 4.0, 10.0, rng, emit
            ),
            20_000.0,
        )
        assert len(messages) / 20_000.0 == pytest.approx(2.0, rel=0.05)

    def test_trains_cluster_arrivals(self):
        _, messages = run_source(
            lambda sim, rng, emit: PacketTrainSource(
                sim, 0.2, 5.0, 20.0, rng, emit
            ),
            20_000.0,
        )
        gaps = np.diff([m.arrival_time for m in messages])
        scv = gaps.var() / gaps.mean() ** 2
        assert scv > 1.5  # far burstier than Poisson

    def test_validates(self):
        with pytest.raises(ValueError):
            PacketTrainSource(Simulator(), 1.0, 0.5, 1.0, None, lambda m: None)


class TestClientServerSource:
    @staticmethod
    def params(p_response=0.8, p_next=0.5) -> ClientServerHAPParameters:
        message = ClientServerMessageType(
            arrival_rate=0.3,
            request_service_rate=20.0,
            response_service_rate=10.0,
            p_response=p_response,
            p_next_request=p_next,
        )
        app = ClientServerApplicationType(
            arrival_rate=0.05, departure_rate=0.05, messages=(message,)
        )
        return ClientServerHAPParameters(
            user_arrival_rate=0.05,
            user_departure_rate=0.05,
            applications=(app,),
        )

    def test_chain_amplification_in_simulation(self):
        from repro.sim.replication import simulate_client_server_mm1

        params = self.params()
        result = simulate_client_server_mm1(
            params, horizon=30_000.0, service_rate=20.0, seed=4
        )
        requests = result.extras["requests_emitted"]
        responses = result.extras["responses_emitted"]
        assert responses / requests == pytest.approx(0.8, rel=0.05)

    def test_effective_rate_matches_closed_form(self):
        from repro.sim.replication import simulate_client_server_mm1

        params = self.params()
        result = simulate_client_server_mm1(
            params, horizon=30_000.0, service_rate=20.0, seed=5
        )
        assert result.effective_arrival_rate == pytest.approx(
            params.effective_message_rate, rel=0.1
        )

    def test_no_chains_reduces_to_plain_hap_rate(self):
        from repro.sim.replication import simulate_client_server_mm1

        params = self.params(p_response=0.0, p_next=0.0)
        result = simulate_client_server_mm1(
            params, horizon=30_000.0, service_rate=20.0, seed=6
        )
        assert result.effective_arrival_rate == pytest.approx(
            params.spontaneous_message_rate, rel=0.1
        )

    def test_message_kinds_labelled(self):
        sim = Simulator()
        streams = RandomStreams(8)
        messages = []
        source = ClientServerHAPSource(
            sim, self.params(), streams.get("s"), messages.append
        )
        source.prepopulate()
        source.start()
        sim.run_until(5000.0)
        kinds = {m.kind for m in messages}
        assert "request" in kinds


def _arrival_times(seed: int, horizon: float):
    """Message arrival instants of one prepopulated source-only run."""
    sim = Simulator()
    streams = RandomStreams(seed)
    times: list[float] = []
    source = HAPSource(
        sim,
        base_parameters(),
        streams.get("hap-source"),
        lambda message: times.append(message.arrival_time),
    )
    source.prepopulate()
    source.start()
    sim.run_until(horizon)
    return np.asarray(times)


class TestHAPSourceDeterminism:
    """The heap source draws one exponential per event; the golden trace
    (``tests/sim/test_golden_trace.py``) locks those bits, and these
    tests pin the contract around them."""

    def test_seed_stable(self):
        first = _arrival_times(31, 1500.0)
        second = _arrival_times(31, 1500.0)
        np.testing.assert_array_equal(first, second)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(
            _arrival_times(31, 1500.0), _arrival_times(32, 1500.0)
        )

    def test_worker_count_stable(self):
        task = partial(simulate_hap_mm1, base_parameters(), 300.0)
        serial = ParallelReplicator(max_workers=1).run(task, 4, base_seed=9)
        parallel = ParallelReplicator(max_workers=2).run(task, 4, base_seed=9)
        assert serial.seeds == parallel.seeds
        assert [r.mean_delay for r in serial.results] == [
            r.mean_delay for r in parallel.results
        ]
        assert [r.events_processed for r in serial.results] == [
            r.events_processed for r in parallel.results
        ]


class TestClosedFormValidation:
    """The heap source's draws against the paper's Eqs. 4–5 and 7–11."""

    SEEDS = range(100, 116)
    HORIZON = 6000.0

    @pytest.fixture(scope="class")
    def runs(self):
        return [_arrival_times(seed, self.HORIZON) for seed in self.SEEDS]

    def test_mean_message_rate_matches_equation_4(self, runs):
        # Per-replication rates vary a lot (user lifetimes are 1000 s, so
        # one run rides a handful of user-population excursions); the test
        # is on the ensemble mean, within 4 standard errors of lambda-bar.
        params = base_parameters()
        rates = np.array([len(times) / self.HORIZON for times in runs])
        stderr = rates.std(ddof=1) / np.sqrt(len(rates))
        assert abs(rates.mean() - params.mean_message_rate) < 4.0 * stderr

    def test_interarrival_tail_matches_equations_7_to_11(self, runs):
        # Pooled empirical ccdf of successive gaps against the closed-form
        # Abar(t).  Checkpoints bracket the bulk and the tail of the
        # distribution (mean gap is 1/8.25 ~ 0.12 s); the 0.04 tolerance
        # absorbs finite-ensemble bias while still failing for any
        # wrong-scale or wrong-shape draw stream.
        dist = InterarrivalDistribution(base_parameters())
        gaps = np.concatenate([np.diff(times) for times in runs])
        assert len(gaps) > 100_000
        checkpoints = np.array([0.02, 0.05, 0.1, 0.2, 0.3])
        closed_form = dist.ccdf(checkpoints)
        empirical = np.array([(gaps > t).mean() for t in checkpoints])
        np.testing.assert_allclose(empirical, closed_form, atol=0.04)
