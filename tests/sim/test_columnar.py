"""Tests for the columnar execution mode (repro.sim.columnar).

Four layers of confidence, cheapest first:

* algebra — the chunked vectorized Lindley recursion is the sequential
  recursion (hypothesis property test, bit-exact on a dyadic grid where
  every float sum is representable, ~1e-12 otherwise);
* engine equivalence — the Lindley queue reproduces the event-heap FCFS
  queue message-for-message for deterministic-service arrivals;
* stream law — the uniformization-thinned MMPP stream has the chain's
  mean rate and index of dispersion, and a seeded golden-array lock pins
  the exact variates (the columnar determinism contract);
* statistics — columnar M/M/1 and M/HAP-approx results land on the known
  analytic/heap answers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.markov.mmpp import MMPP
from repro.sim.columnar import (
    lindley_waits,
    sample_mmpp_stream,
    sample_poisson_stream,
    simulate_hap_approx_columnar,
    simulate_mmpp_columnar,
    simulate_poisson_columnar,
)
from repro.sim.engine import Simulator
from repro.sim.random_streams import Deterministic
from repro.sim.server import FCFSQueue, Message


def _sequential_lindley(arrivals, services, initial_wait=0.0):
    waits = np.empty(len(arrivals))
    waits[0] = initial_wait
    for k in range(1, len(arrivals)):
        waits[k] = max(
            0.0, waits[k - 1] + services[k - 1] - (arrivals[k] - arrivals[k - 1])
        )
    return waits


#: Dyadic-grid strategy: every value is an integer multiple of 2^-10 and
#: bounded, so all sums in both recursions are exact in double precision —
#: vectorized-vs-sequential agreement must be bit-exact, not approximate.
_dyadic = st.integers(min_value=0, max_value=4096).map(lambda n: n / 1024.0)


class TestLindleyRecursion:
    @given(
        gaps=st.lists(_dyadic, min_size=1, max_size=200),
        services=st.data(),
        chunk_size=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_sequential_bit_exactly_on_dyadic_grid(
        self, gaps, services, chunk_size
    ):
        arrivals = np.cumsum(np.asarray(gaps))
        svc = np.asarray(
            services.draw(
                st.lists(
                    _dyadic, min_size=len(gaps), max_size=len(gaps)
                )
            )
        )
        vectorized = lindley_waits(arrivals, svc, chunk_size=chunk_size)
        assert np.array_equal(vectorized, _sequential_lindley(arrivals, svc))

    def test_matches_sequential_closely_on_arbitrary_floats(self):
        rng = np.random.default_rng(11)
        arrivals = np.cumsum(rng.exponential(0.1, 20_000))
        services = rng.exponential(0.09, 20_000)
        vectorized = lindley_waits(arrivals, services, chunk_size=997)
        sequential = _sequential_lindley(arrivals, services)
        np.testing.assert_allclose(
            vectorized, sequential, rtol=1e-12, atol=1e-12
        )

    def test_chunk_size_does_not_change_dyadic_results(self):
        rng = np.random.default_rng(5)
        arrivals = np.cumsum(rng.integers(1, 2000, 5000) / 1024.0)
        services = rng.integers(0, 2000, 5000) / 1024.0
        reference = lindley_waits(arrivals, services, chunk_size=1)
        for chunk_size in (3, 64, 4999, 5000, 10**7):
            assert np.array_equal(
                reference, lindley_waits(arrivals, services, chunk_size=chunk_size)
            )

    def test_initial_wait_carries_into_first_chunk(self):
        arrivals = np.array([0.0, 1.0, 2.0])
        services = np.array([0.5, 0.5, 0.5])
        waits = lindley_waits(arrivals, services, initial_wait=2.0)
        assert waits[0] == 2.0
        assert waits[1] == 1.5  # 2.0 + 0.5 - 1.0
        assert waits[2] == 1.0

    def test_empty_stream_is_empty(self):
        waits = lindley_waits(np.empty(0), np.empty(0))
        assert waits.size == 0

    def test_rejects_bad_inputs(self):
        good_a = np.array([0.0, 1.0])
        good_s = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="1-D and aligned"):
            lindley_waits(good_a, np.array([0.5]))
        with pytest.raises(ValueError, match="non-decreasing"):
            lindley_waits(np.array([1.0, 0.5]), good_s)
        with pytest.raises(ValueError, match="finite and non-negative"):
            lindley_waits(good_a, np.array([0.5, -0.1]))
        with pytest.raises(ValueError, match="finite and non-negative"):
            lindley_waits(good_a, np.array([0.5, math.nan]))
        with pytest.raises(ValueError, match="chunk_size"):
            lindley_waits(good_a, good_s, chunk_size=0)
        with pytest.raises(ValueError, match="initial_wait"):
            lindley_waits(good_a, good_s, initial_wait=-1.0)


@st.composite
def _dyadic_arrival_plan(draw):
    """Strictly positive dyadic gaps + one dyadic deterministic service."""
    gaps = draw(
        st.lists(
            st.integers(min_value=1, max_value=2048).map(lambda n: n / 1024.0),
            min_size=1,
            max_size=60,
        )
    )
    service = draw(
        st.integers(min_value=1, max_value=2048).map(lambda n: n / 1024.0)
    )
    return np.cumsum(np.asarray(gaps)), service


class TestHeapEquivalence:
    """Lindley delays == event-heap FCFS delays, message for message."""

    @staticmethod
    def _heap_delays(arrivals, service):
        sim = Simulator()
        queue = FCFSQueue(
            sim,
            Deterministic(service),
            np.random.default_rng(0),  # deterministic service: never drawn from
            warmup=0.0,
            record_delays=True,
        )
        for t in arrivals:
            sim.schedule_at(
                float(t),
                lambda s, t=float(t): queue.arrive(Message(arrival_time=t)),
            )
        # Far enough for every message to complete.
        sim.run_until(float(arrivals[-1]) + service * (len(arrivals) + 1))
        queue.finalize()
        return np.asarray(queue.delay_log)

    @given(plan=_dyadic_arrival_plan())
    @settings(max_examples=60, deadline=None)
    def test_deterministic_service_delays_match_exactly(self, plan):
        arrivals, service = plan
        services = np.full(arrivals.size, service)
        columnar = lindley_waits(arrivals, services) + services
        heap = self._heap_delays(arrivals, service)
        assert heap.shape == columnar.shape
        assert np.array_equal(columnar, heap)


class TestGoldenMMPPStream:
    """Seeded golden-array lock: the columnar determinism contract.

    These exact variates (seed 2024, default block size) are part of the
    columnar determinism domain — draw order and block size are contract.
    If this test fails, the contract was broken: every seeded columnar
    result in every downstream experiment changed.  Bump deliberately, in
    its own commit, with the EXPERIMENTS.md contract section updated.
    """

    GOLDEN_ARRIVALS_PREFIX = np.array(
        [
            1.0706399068018737,
            3.5413865326909164,
            4.077687573389941,
            4.343388684796425,
            4.347489170593953,
            4.381647154545924,
            4.407202894164656,
            4.5405596578618495,
        ]
    )
    GOLDEN_JUMPS_PREFIX = np.array(
        [
            3.4127128757519487,
            3.469981951304807,
            4.146840344339877,
            4.794714281638027,
        ]
    )

    @staticmethod
    def _stream(**kwargs):
        generator = np.array([[-0.25, 0.25], [2.0, -2.0]])
        mmpp = MMPP(generator, np.array([1.0, 12.0]))
        return sample_mmpp_stream(
            mmpp, 200.0, np.random.default_rng(2024), initial_state=0, **kwargs
        )

    def test_locked_variates(self):
        stream = self._stream()
        assert stream.arrivals.size == 475
        assert stream.num_jumps == 110
        assert stream.candidates == 2362
        assert stream.initial_state == 0
        assert np.array_equal(
            stream.arrivals[:8], self.GOLDEN_ARRIVALS_PREFIX
        )
        assert np.array_equal(stream.jump_times[:4], self.GOLDEN_JUMPS_PREFIX)
        assert float(stream.arrivals[-1]) == 197.38233791937876
        assert float(stream.arrivals.sum()) == 42937.95066473353

    def test_block_size_is_part_of_the_contract(self):
        # A different block size consumes the bit-stream differently: the
        # variates legitimately change.  This is the contract's sharp edge.
        stream = self._stream(block_size=1024)
        assert not np.array_equal(
            stream.arrivals[:8], self.GOLDEN_ARRIVALS_PREFIX
        )


class TestMMPPStreamLaw:
    def test_arrivals_sorted_and_within_horizon(self):
        stream = TestGoldenMMPPStream._stream()
        assert np.all(np.diff(stream.arrivals) >= 0.0)
        assert stream.arrivals[0] > 0.0
        assert stream.arrivals[-1] <= 200.0
        assert np.all(stream.jump_times <= 200.0)
        assert stream.states.size == stream.num_jumps + 1

    def test_mean_rate_matches_chain(self):
        generator = np.array([[-0.5, 0.5], [1.0, -1.0]])
        mmpp = MMPP(generator, np.array([2.0, 10.0]))
        horizon = 60_000.0
        stream = sample_mmpp_stream(
            mmpp, horizon, np.random.default_rng(1)
        )
        empirical = stream.arrivals.size / horizon
        assert empirical == pytest.approx(mmpp.mean_rate(), rel=0.03)

    def test_index_of_dispersion_matches_analytic(self):
        # The IDC is the statistic the whole paper is about: a thinned
        # stream with the wrong correlation structure would pass a plain
        # rate check and fail here.
        generator = np.array([[-0.5, 0.5], [1.0, -1.0]])
        mmpp = MMPP(generator, np.array([2.0, 10.0]))
        horizon, window = 120_000.0, 4.0
        stream = sample_mmpp_stream(mmpp, horizon, np.random.default_rng(9))
        edges = np.arange(0.0, horizon + window, window)
        counts = np.histogram(stream.arrivals, bins=edges)[0]
        empirical = counts.var() / counts.mean()
        analytic = mmpp.index_of_dispersion(window)
        assert empirical == pytest.approx(analytic, rel=0.10)

    def test_zero_rate_chain_produces_no_arrivals(self):
        generator = np.array([[-0.5, 0.5], [1.0, -1.0]])
        mmpp = MMPP(generator, np.array([0.0, 0.0]))
        stream = sample_mmpp_stream(mmpp, 100.0, np.random.default_rng(0))
        assert stream.arrivals.size == 0
        assert stream.candidates == 0
        assert stream.num_jumps > 0  # the chain still moves

    def test_rejects_bad_initial_state(self):
        generator = np.array([[-0.5, 0.5], [1.0, -1.0]])
        mmpp = MMPP(generator, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="initial_state"):
            sample_mmpp_stream(
                mmpp, 10.0, np.random.default_rng(0), initial_state=7
            )


class TestPoissonStream:
    def test_rate_and_bounds(self):
        horizon = 50_000.0
        stream = sample_poisson_stream(4.0, horizon, np.random.default_rng(3))
        assert np.all(np.diff(stream) >= 0.0)
        assert stream[-1] <= horizon
        assert stream.size / horizon == pytest.approx(4.0, rel=0.03)

    def test_zero_rate_is_empty(self):
        assert sample_poisson_stream(
            0.0, 10.0, np.random.default_rng(0)
        ).size == 0

    def test_rejects_bad_rate_and_horizon(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="rate"):
            sample_poisson_stream(-1.0, 10.0, rng)
        with pytest.raises(ValueError, match="horizon"):
            sample_poisson_stream(1.0, math.inf, rng)


class TestColumnarQueueStatistics:
    def test_mm1_matches_analytic(self):
        # lambda=8, mu=10: mean system time 1/(mu-lambda)=0.5, rho=0.8.
        result = simulate_poisson_columnar(8.0, 60_000.0, 10.0, seed=3)
        assert result.mean_delay == pytest.approx(0.5, rel=0.08)
        assert result.utilization == pytest.approx(0.8, rel=0.03)
        assert result.sigma == pytest.approx(0.8, rel=0.03)
        assert result.mean_wait < result.mean_delay
        assert result.delay_variance > 0.0
        assert result.extras["engine"] == "columnar"
        # Little's law closes on the columnar estimates too.
        assert result.littles_law_residual() < 0.05

    def test_seed_determinism(self):
        a = simulate_poisson_columnar(5.0, 5_000.0, 8.0, seed=42)
        b = simulate_poisson_columnar(5.0, 5_000.0, 8.0, seed=42)
        c = simulate_poisson_columnar(5.0, 5_000.0, 8.0, seed=43)
        assert a.mean_delay == b.mean_delay
        assert a.events_processed == b.events_processed
        assert a.mean_delay != c.mean_delay

    def test_chunk_size_invariant_statistics(self):
        small = simulate_poisson_columnar(
            5.0, 5_000.0, 8.0, seed=1, chunk_size=100
        )
        large = simulate_poisson_columnar(
            5.0, 5_000.0, 8.0, seed=1, chunk_size=10**7
        )
        assert small.mean_delay == pytest.approx(large.mean_delay, rel=1e-12)
        assert small.messages_served == large.messages_served

    def test_mmpp_events_count_arrivals_departures_and_jumps(self):
        generator = np.array([[-0.5, 0.5], [1.0, -1.0]])
        mmpp = MMPP(generator, np.array([2.0, 10.0]))
        result = simulate_mmpp_columnar(mmpp, 5_000.0, 12.0, seed=5)
        extras = result.extras
        assert extras["engine"] == "columnar"
        assert extras["modulating_jumps"] > 0
        assert result.events_processed > 2 * result.messages_served

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="warmup"):
            simulate_poisson_columnar(1.0, 100.0, 2.0, warmup=100.0)


class TestHAPColumnar:
    def test_approx_matches_stationary_statistics(self):
        # Cheap cross-engine agreement smoke check (the full 3-sigma gate
        # against heap replications lives in benchmarks/test_bench_columnar).
        # Single-seed sigma/utilization fluctuate by ~±0.07 at this horizon
        # in BOTH engines (burst-driven), so anchor on the Section-4
        # stationary values the heap engine reproduces — sigma 0.50,
        # rho = 8.25/20 = 0.4125, lambda-bar 8.25 — averaged over seeds.
        from repro.experiments.configs import base_parameters

        params = base_parameters(service_rate=20.0)
        runs = [
            simulate_hap_approx_columnar(params, 60_000.0, seed=seed)
            for seed in range(4)
        ]
        sigma = np.mean([run.sigma for run in runs])
        utilization = np.mean([run.utilization for run in runs])
        rate = np.mean([run.effective_arrival_rate for run in runs])
        assert sigma == pytest.approx(0.50, abs=0.05)
        assert utilization == pytest.approx(0.4125, abs=0.04)
        assert rate == pytest.approx(8.25, rel=0.06)

    def test_plain_hap_routes_columnar(self):
        from repro.experiments.configs import base_parameters

        params = base_parameters(service_rate=20.0)
        result = simulate_hap_approx_columnar(params, 5_000.0, seed=1)
        assert result.extras["engine"] == "columnar"
        assert result.extras["source"] == "hap-approx"


class TestEmbeddedRowsVectorized:
    """The vectorized jump-chain table builder vs a plain per-state loop.

    ``_embedded_rows`` used to build ``(targets, cumulative)`` with a
    Python loop over states; the vectorized ``_embedded_chain`` scatter
    must reproduce those arrays bit-for-bit — they are inputs to the
    golden-locked walk, so even a last-bit cumsum difference would shift
    every seeded columnar result.
    """

    @staticmethod
    def _reference_rows(chain):
        import scipy.sparse as sp

        matrix = chain.embedded_transition_matrix()
        if sp.issparse(matrix):
            matrix = matrix.toarray()
        matrix = np.asarray(matrix, dtype=float)
        rows = []
        for state in range(matrix.shape[0]):
            mask = matrix[state] > 0.0
            targets = np.nonzero(mask)[0].astype(np.int64)
            rows.append((targets, np.cumsum(matrix[state][mask])))
        return rows

    def _check(self, chain):
        from repro.sim.columnar import _embedded_rows

        vectorized = _embedded_rows(chain)
        reference = self._reference_rows(chain)
        assert len(vectorized) == len(reference)
        for (targets, cumulative), (ref_targets, ref_cumulative) in zip(
            vectorized, reference
        ):
            assert np.array_equal(targets, ref_targets)
            assert np.array_equal(cumulative, ref_cumulative)

    def test_dense_generator(self):
        generator = np.array(
            [
                [-1.0, 0.7, 0.3],
                [0.2, -0.5, 0.3],
                [1.5, 0.5, -2.0],
            ]
        )
        self._check(MMPP(generator, np.array([1.0, 2.0, 3.0])).chain)

    def test_dense_generator_with_absorbing_state(self):
        generator = np.array([[-0.8, 0.8], [0.0, 0.0]])
        self._check(MMPP(generator, np.array([5.0, 0.0])).chain)

    def test_sparse_generator(self):
        import scipy.sparse as sp

        from repro.markov.ctmc import CTMC

        rng = np.random.default_rng(17)
        size = 40
        dense = np.zeros((size, size))
        for state in range(size):
            neighbours = rng.choice(
                [s for s in range(size) if s != state],
                size=rng.integers(1, 4),
                replace=False,
            )
            dense[state, neighbours] = rng.random(neighbours.size) + 0.05
            dense[state, state] = -dense[state].sum()
        self._check(CTMC(sp.csr_matrix(dense)))

    def test_sparse_chain_with_empty_row(self):
        import scipy.sparse as sp

        from repro.markov.ctmc import CTMC

        dense = np.array(
            [
                [-1.0, 1.0, 0.0],
                [0.0, 0.0, 0.0],
                [0.5, 0.5, -1.0],
            ]
        )
        self._check(CTMC(sp.csr_matrix(dense)))


def _mask_queue_result(arrivals, services, waits, horizon, warmup, source_events):
    """The statistics pass written with a boolean mask for every selection
    and a clip for every overlap: the reference the shared pass, which
    selects by suffix and ``compress``, must match bit for bit."""
    observed = max(horizon - warmup, 1e-12)
    starts = arrivals + waits
    departures = starts + services
    delays = waits + services
    post_warmup = arrivals >= warmup
    arrivals_total = int(np.count_nonzero(post_warmup))
    in_horizon = departures <= horizon
    served = post_warmup & in_horizon
    observed_delays = delays[served]
    messages_served = int(observed_delays.size)
    busy_overlap = np.clip(
        np.minimum(departures, horizon) - np.maximum(starts, warmup), 0.0, None
    )
    presence_overlap = np.clip(
        np.minimum(departures, horizon) - np.maximum(arrivals, warmup), 0.0, None
    )
    return {
        "mean_delay": (
            float(observed_delays.mean()) if messages_served else math.nan
        ),
        "mean_wait": float(waits[served].mean()) if messages_served else math.nan,
        "sigma": (
            float(np.count_nonzero(waits[post_warmup] > 0.0) / arrivals_total)
            if arrivals_total
            else math.nan
        ),
        "utilization": float(busy_overlap.sum() / observed),
        "mean_queue_length": float(presence_overlap.sum() / observed),
        "messages_served": messages_served,
        "effective_arrival_rate": arrivals_total / observed,
        "horizon": horizon,
        "delay_variance": (
            float(observed_delays.var(ddof=1)) if messages_served >= 2 else math.nan
        ),
        "events_processed": int(
            arrivals.size + np.count_nonzero(in_horizon) + source_events
        ),
    }


@st.composite
def _queue_pass_inputs(draw):
    """Sorted arrivals with ties, and waits free of any queue law, so
    departures are not monotone; warmup is often an arrival time."""
    size = draw(st.integers(min_value=0, max_value=40))
    times = st.integers(min_value=0, max_value=400).map(lambda n: n / 4.0)
    arrivals = np.sort(draw(st.lists(times, min_size=size, max_size=size)))
    floats = st.floats(min_value=0.0, max_value=30.0)
    services = np.array(draw(st.lists(floats, min_size=size, max_size=size)))
    waits = np.array(draw(st.lists(floats, min_size=size, max_size=size)))
    horizon = draw(st.floats(min_value=1.0, max_value=130.0))
    if size and draw(st.booleans()):
        warmup = float(arrivals[draw(st.integers(0, size - 1))])
    else:
        warmup = draw(st.floats(min_value=0.0, max_value=120.0))
    return arrivals.astype(float), services, waits, horizon, warmup


def _queue_case(arrivals, services, waits, horizon, warmup):
    return tuple(
        np.array(values, dtype=float) for values in (arrivals, services, waits)
    ) + (horizon, warmup)


class TestQueueResultPass:
    """The shared statistics pass equals its mask-based reference, field
    for field and bit for bit (NaN equal to NaN), and leaves its inputs
    alone."""

    @given(case=_queue_pass_inputs())
    # Warmup equal to an arrival time (two arrivals at it).
    @example(
        case=_queue_case(
            [1.0, 2.0, 2.0, 3.0], [0.5] * 4, [0.0, 1.0, 0.0, 2.0], 9.0, 2.0
        )
    )
    # Every arrival before warmup.
    @example(case=_queue_case([1.0, 2.0], [0.5, 0.5], [0.0, 0.0], 9.0, 5.0))
    # Departures past the horizon.
    @example(
        case=_queue_case([1.0, 2.0, 3.0], [1.0] * 3, [0.0, 5.0, 9.0], 6.0, 0.5)
    )
    # No arrivals.
    @example(case=_queue_case([], [], [], 9.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_mask_reference(self, case):
        from repro.sim.columnar import _queue_result_from_waits

        arrivals, services, waits, horizon, warmup = case
        inputs = [arrivals.copy(), services.copy(), waits.copy()]
        result = _queue_result_from_waits(
            arrivals, services, waits, horizon, warmup, 3, {}
        )
        expected = _mask_queue_result(arrivals, services, waits, horizon, warmup, 3)
        for field, value in expected.items():
            got = getattr(result, field)
            if isinstance(value, float):
                assert float(got).hex() == value.hex(), field
            else:
                assert got == value, field
        for before, after in zip(inputs, (arrivals, services, waits)):
            assert np.array_equal(before, after)
