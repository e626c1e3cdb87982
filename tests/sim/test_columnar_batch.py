"""Tests for the replication-batched columnar engine (repro.sim.columnar_batch).

The batched kernel's whole value proposition is *bit-identity*: each row
of a batch must consume its seed's substreams exactly as the
sequential columnar engine does, so batching R replications is free of
statistical cost.  These tests pin that contract three ways:

* a hypothesis property drives Poisson/MMPP/HAP-approx batches across
  random parameters, replication counts, and (contract-bearing) block
  sizes, comparing every result field bitwise against sequential runs;
* the BENCH_6 golden stream (seed 2024) must fall out of the batched
  sampler unchanged — same arrays the sequential sampler locks;
* unit tests cover the sharp edges: absorbing modulating chains, zero
  and subnormal rates, the walk's block boundaries and rounding clamp,
  and the candidate array's growth and thinning's chunk edges
  (stream-level, against the sequential sampler);
* a ``tracemalloc`` test checks that a multi-seed call holds one row's
  arrays at a time.
"""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.markov.mmpp import MMPP
from repro.sim.columnar import (
    sample_mmpp_stream,
    simulate_hap_approx_columnar,
    simulate_mmpp_columnar,
    simulate_poisson_columnar,
)
from repro.sim.columnar_batch import (
    sample_mmpp_streams_batch,
    simulate_hap_approx_columnar_batch,
    simulate_mmpp_columnar_batch,
    simulate_poisson_columnar_batch,
)

RESULT_FIELDS = (
    "mean_delay",
    "mean_wait",
    "sigma",
    "utilization",
    "mean_queue_length",
    "messages_served",
    "effective_arrival_rate",
    "delay_variance",
    "events_processed",
)


def assert_rows_bit_identical(sequential, batched, context=""):
    """Every result field equal bitwise; NaN counts as equal to NaN.

    (An empty stream legitimately produces NaN statistics — mean delay of
    zero messages — and NaN != NaN would fail a correct comparison.)
    """
    for field in RESULT_FIELDS:
        left = getattr(sequential, field)
        right = getattr(batched, field)
        same = left == right or (left != left and right != right)
        assert same, f"{context}{field}: {left!r} != {right!r}"
    left_extras = dict(sequential.extras)
    right_extras = dict(batched.extras)
    for extras in (left_extras, right_extras):
        extras.pop("engine", None)
        extras.pop("batch_rows", None)
    assert left_extras == right_extras, context


def _outcome(run):
    """What ``run()`` returns, or the type and message of what it raises."""
    try:
        return run()
    except Exception as error:  # noqa: BLE001 — the error is the outcome
        return type(error), str(error)


def assert_same_outcomes(sequential, batched, context=""):
    """Bit-identical rows, or the same exception type and message."""
    if isinstance(sequential, tuple) or isinstance(batched, tuple):
        assert sequential == batched, context
    else:
        assert_rows_bit_identical(sequential, batched, context)


def _two_state_mmpp(rate_low=1.0, rate_high=12.0):
    generator = np.array([[-0.25, 0.25], [2.0, -2.0]])
    return MMPP(generator, np.array([rate_low, rate_high]))


class TestGoldenBatchStream:
    """The BENCH_6 golden arrays must survive batching unchanged."""

    def test_batched_sampler_reproduces_the_golden_stream(self):
        batched = sample_mmpp_streams_batch(
            _two_state_mmpp(),
            200.0,
            [np.random.default_rng(2024)],
            initial_state=0,
        )[0]
        sequential = sample_mmpp_stream(
            _two_state_mmpp(),
            200.0,
            np.random.default_rng(2024),
            initial_state=0,
        )
        assert np.array_equal(batched.arrivals, sequential.arrivals)
        assert np.array_equal(batched.jump_times, sequential.jump_times)
        assert np.array_equal(batched.states, sequential.states)
        assert batched.initial_state == 0
        # The same locked constants TestGoldenMMPPStream pins for the
        # sequential sampler (tests/sim/test_columnar.py).
        assert batched.arrivals.size == 475
        assert batched.jump_times.size == 110
        assert batched.candidates == 2362
        assert float(batched.arrivals[-1]) == 197.38233791937876

    def test_neighbouring_rows_do_not_perturb_the_golden_row(self):
        # Row 1 is the golden stream; rows 0 and 2 are strangers.  The
        # batch draws for all three, but each row's generator must see
        # exactly its own draw sequence.
        rngs = [np.random.default_rng(seed) for seed in (11, 2024, 99)]
        batched = sample_mmpp_streams_batch(
            _two_state_mmpp(),
            200.0,
            rngs,
            initial_state=0,
        )[1]
        assert batched.arrivals.size == 475
        assert batched.candidates == 2362
        assert float(batched.arrivals[-1]) == 197.38233791937876


@st.composite
def _mmpp_batch_cases(draw):
    n_states = draw(st.integers(min_value=2, max_value=3))
    rates = np.array(
        [
            draw(st.floats(min_value=0.0, max_value=25.0))
            for _ in range(n_states)
        ]
    )
    generator = np.zeros((n_states, n_states))
    for i in range(n_states):
        for j in range(n_states):
            if i != j:
                generator[i, j] = draw(
                    st.floats(min_value=0.05, max_value=3.0)
                )
        generator[i, i] = -generator[i].sum()
    return {
        "mmpp": MMPP(generator, rates),
        "horizon": draw(st.floats(min_value=40.0, max_value=250.0)),
        "initial_state": draw(st.integers(0, n_states - 1)),
        "block_size": draw(st.integers(min_value=8, max_value=128)),
        "chunk_size": draw(st.integers(min_value=1, max_value=512)),
        "base_seed": draw(st.integers(min_value=0, max_value=2**20)),
        "rows": draw(st.integers(min_value=1, max_value=5)),
    }


#: A rate whose reciprocal overflows: the candidate mean is ``inf``.
_SUBNORMAL_RATE = 5e-324
_INF_MEAN = "exponential mean must be positive and finite (got inf)"


class TestBitIdentityProperty:
    @given(case=_mmpp_batch_cases())
    @example(
        case={
            "mmpp": _two_state_mmpp(0.0, _SUBNORMAL_RATE),
            "horizon": 100.0,
            "initial_state": 0,
            "block_size": 8,
            "chunk_size": 7,
            "base_seed": 0,
            "rows": 2,
        }
    )
    @settings(max_examples=25, deadline=None)
    def test_mmpp_batch_rows_match_sequential(self, case):
        seeds = list(range(case["base_seed"], case["base_seed"] + case["rows"]))
        options = {
            "initial_state": case["initial_state"],
            "block_size": case["block_size"],
            "chunk_size": case["chunk_size"],
        }
        batched = _outcome(
            lambda: simulate_mmpp_columnar_batch(
                case["mmpp"], case["horizon"], 14.0, seeds, **options
            )
        )
        for index, seed in enumerate(seeds):
            sequential = _outcome(
                lambda: simulate_mmpp_columnar(
                    case["mmpp"], case["horizon"], 14.0, seed=seed, **options
                )
            )
            row = batched if isinstance(batched, tuple) else batched[index]
            assert_same_outcomes(sequential, row, f"seed={seed} ")

    @given(
        # Subnormal rates overflow the 1/rate exponential mean to inf: both
        # engines must then raise the same error.
        rate=st.floats(min_value=0.0, max_value=20.0),
        horizon=st.floats(min_value=40.0, max_value=400.0),
        block_size=st.integers(min_value=8, max_value=128),
        chunk_size=st.integers(min_value=1, max_value=512),
        base_seed=st.integers(min_value=0, max_value=2**20),
        rows=st.integers(min_value=1, max_value=5),
    )
    @example(
        rate=_SUBNORMAL_RATE,
        horizon=100.0,
        block_size=8,
        chunk_size=7,
        base_seed=0,
        rows=2,
    )
    @settings(max_examples=25, deadline=None)
    def test_poisson_batch_rows_match_sequential(
        self, rate, horizon, block_size, chunk_size, base_seed, rows
    ):
        seeds = list(range(base_seed, base_seed + rows))
        options = {"block_size": block_size, "chunk_size": chunk_size}
        batched = _outcome(
            lambda: simulate_poisson_columnar_batch(
                rate, horizon, 9.0, seeds, **options
            )
        )
        for index, seed in enumerate(seeds):
            sequential = _outcome(
                lambda: simulate_poisson_columnar(
                    rate, horizon, 9.0, seed=seed, **options
                )
            )
            row = batched if isinstance(batched, tuple) else batched[index]
            assert_same_outcomes(sequential, row, f"seed={seed} ")

    @given(
        base_seed=st.integers(min_value=0, max_value=2**16),
        rows=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=8, deadline=None)
    def test_hap_approx_batch_rows_match_sequential(self, base_seed, rows):
        from repro.experiments.configs import base_parameters

        params = base_parameters(service_rate=20.0)
        seeds = list(range(base_seed, base_seed + rows))
        batched = simulate_hap_approx_columnar_batch(params, 1_500.0, seeds)
        for seed, row in zip(seeds, batched):
            sequential = simulate_hap_approx_columnar(
                params, 1_500.0, seed=seed
            )
            assert_rows_bit_identical(sequential, row, f"seed={seed} ")
            assert row.extras["engine"] == "columnar-batched"
            assert row.extras["source"] == "hap-approx"
            assert row.extras["batch_rows"] == rows


class TestSharpEdges:
    def test_stationary_initial_state_draws_match_sequential(self):
        mmpp = _two_state_mmpp()
        seeds = [31, 32, 33]
        batched = simulate_mmpp_columnar_batch(mmpp, 120.0, 14.0, seeds)
        for seed, row in zip(seeds, batched):
            sequential = simulate_mmpp_columnar(mmpp, 120.0, 14.0, seed=seed)
            assert_rows_bit_identical(sequential, row, f"seed={seed} ")

    @pytest.mark.parametrize("initial_state", [0, 1])
    def test_absorbing_chain_rows_match_sequential(self, initial_state):
        # State 1 absorbs (zero exit rate) and emits nothing: rows stop
        # walking at different steps and must still consume their streams
        # exactly as the sequential walk does.
        mmpp = MMPP(
            np.array([[-0.8, 0.8], [0.0, 0.0]]), np.array([5.0, 0.0])
        )
        seeds = [7, 8, 9, 10]
        batched = simulate_mmpp_columnar_batch(
            mmpp, 80.0, 20.0, seeds, initial_state=initial_state, block_size=8
        )
        for seed, row in zip(seeds, batched):
            sequential = simulate_mmpp_columnar(
                mmpp,
                80.0,
                20.0,
                seed=seed,
                initial_state=initial_state,
                block_size=8,
            )
            assert_rows_bit_identical(sequential, row, f"seed={seed} ")

    def test_zero_rate_poisson_batch(self):
        batched = simulate_poisson_columnar_batch(0.0, 300.0, 9.0, [1, 2])
        for seed, row in zip([1, 2], batched):
            sequential = simulate_poisson_columnar(0.0, 300.0, 9.0, seed=seed)
            assert_rows_bit_identical(sequential, row, f"seed={seed} ")
            assert row.messages_served == 0

    def test_overflowing_mmpp_candidate_mean_raises_like_sequential(self):
        # r_max = 5e-324, so 1/r_max is inf: no candidate can be drawn.
        mmpp = _two_state_mmpp(0.0, _SUBNORMAL_RATE)
        with pytest.raises(ValueError, match=re.escape(_INF_MEAN)):
            simulate_mmpp_columnar(mmpp, 100.0, 14.0, seed=1, initial_state=0)
        with pytest.raises(ValueError, match=re.escape(_INF_MEAN)):
            simulate_mmpp_columnar_batch(mmpp, 100.0, 14.0, [1], initial_state=0)
        with pytest.raises(ValueError, match=re.escape(_INF_MEAN)):
            sample_mmpp_streams_batch(
                mmpp, 100.0, [np.random.default_rng(1)], initial_state=0
            )

    def test_overflowing_poisson_mean_raises_like_sequential(self):
        with pytest.raises(ValueError, match=re.escape(_INF_MEAN)):
            simulate_poisson_columnar(_SUBNORMAL_RATE, 100.0, 9.0, seed=1)
        with pytest.raises(ValueError, match=re.escape(_INF_MEAN)):
            simulate_poisson_columnar_batch(_SUBNORMAL_RATE, 100.0, 9.0, [1, 2])

    def test_empty_seed_list_returns_empty(self):
        assert simulate_poisson_columnar_batch(5.0, 100.0, 9.0, []) == []

    def test_invalid_horizon_message_matches_sequential(self):
        with pytest.raises(ValueError, match="horizon must be positive"):
            simulate_mmpp_columnar_batch(_two_state_mmpp(), -1.0, 14.0, [1])

    def test_initial_state_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            simulate_mmpp_columnar_batch(
                _two_state_mmpp(), 100.0, 14.0, [1], initial_state=5
            )


def _assert_streams_match_sequential(
    mmpp, horizon, seeds, initial_state, block_size, make_rng=np.random.default_rng
):
    """Batched streams equal sequential ones bitwise, and every generator
    ends in the same state; returns the batched streams."""
    rngs = [make_rng(seed) for seed in seeds]
    batched = sample_mmpp_streams_batch(
        mmpp, horizon, rngs, initial_state=initial_state, block_size=block_size
    )
    for seed, rng, row in zip(seeds, rngs, batched):
        own = make_rng(seed)
        sequential = sample_mmpp_stream(
            mmpp, horizon, own, initial_state=initial_state, block_size=block_size
        )
        for field in ("arrivals", "jump_times", "states"):
            left, right = getattr(sequential, field), getattr(row, field)
            assert left.dtype == right.dtype, f"seed={seed} {field}"
            assert np.array_equal(left, right), f"seed={seed} {field}"
        assert row.candidates == sequential.candidates, f"seed={seed}"
        assert rng.bit_generator.state == own.bit_generator.state, f"seed={seed}"
    return batched


def _absorbing_three_state_mmpp(absorb_rate=0.5):
    # States 0 and 1 trade places; state 2 absorbs (zero exit rate).
    generator = np.array(
        [
            [-2.0, 1.5, 0.5],
            [1.0, -1.0 - absorb_rate, absorb_rate],
            [0.0, 0.0, 0.0],
        ]
    )
    return MMPP(generator, np.array([1.0, 3.0, 0.5]))


class TestWalkBlockEdges:
    """Stream-level bit identity where the walk crosses block boundaries:
    overshoot at a block's first column (empty uniform leftover),
    absorption on a block's last column, no draws at all, many blocks."""

    @pytest.mark.parametrize("block_size", [1, 2, 3])
    def test_tiny_blocks(self, block_size):
        batched = _assert_streams_match_sequential(
            _two_state_mmpp(), 150.0, list(range(8)), 0, block_size
        )
        # Some row stopped on the first column of a fresh block.
        assert any(row.num_jumps % block_size == 0 for row in batched)

    def test_absorbed_on_a_block_last_column(self):
        batched = _assert_streams_match_sequential(
            _absorbing_three_state_mmpp(), 50.0, list(range(40)), 0, 4
        )
        assert any(
            row.num_jumps and row.num_jumps % 4 == 0 and row.states[-1] == 2
            for row in batched
        )

    def test_absorbing_initial_state_walks_nothing(self):
        batched = _assert_streams_match_sequential(
            _absorbing_three_state_mmpp(), 50.0, [3, 4], 2, 8
        )
        for row in batched:
            assert row.num_jumps == 0
            assert row.states.tolist() == [2]
            assert row.candidates > 0

    def test_rows_walk_several_blocks(self):
        batched = _assert_streams_match_sequential(
            _two_state_mmpp(), 200.0, [11, 2024, 99], 0, 8
        )
        assert all(row.num_jumps > 3 * 8 for row in batched)

    def test_rows_of_very_different_lengths(self):
        # Slow absorption: some rows stop after a few jumps, others walk
        # to the horizon, all in one batch.
        batched = _assert_streams_match_sequential(
            _absorbing_three_state_mmpp(absorb_rate=0.02),
            400.0,
            list(range(10)),
            0,
            16,
        )
        lengths = [row.num_jumps for row in batched]
        assert max(lengths) > 10 * min(lengths)

    def test_leftover_uniforms_cover_every_candidate(self):
        # A short walk out of one large uniform block leaves more uniforms
        # than there are candidates: thinning draws none.
        batched = _assert_streams_match_sequential(
            _two_state_mmpp(), 30.0, [1, 2, 3], 0, 4_096
        )
        for row in batched:
            assert 0 < row.candidates <= 4_096 - row.num_jumps

    def test_row_with_no_candidates(self):
        mmpp = _two_state_mmpp(rate_low=1e-4, rate_high=2e-4)
        batched = _assert_streams_match_sequential(mmpp, 5.0, [1, 2, 3], 0, 8)
        for row in batched:
            assert row.num_jumps > 0
            assert row.candidates == 0
            assert row.arrivals.size == 0


class _TopUniforms:
    """A generator whose every uniform is the largest double below 1."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def standard_exponential(self, size=None, out=None):
        return self._rng.standard_exponential(size, out=out)

    def random(self, size=None, out=None):
        top = np.nextafter(1.0, 0.0)
        if out is None:
            return np.full(size, top)
        out.fill(top)
        return out


class _StubExponentials:
    """A generator whose exponentials are ``transform`` of its real ones.

    Uniforms and ``bit_generator`` are the wrapped generator's, so two
    engines' generator states still compare.
    """

    def __init__(self, seed, transform):
        self._rng = np.random.default_rng(seed)
        self._transform = transform

    @property
    def bit_generator(self):
        return self._rng.bit_generator

    def standard_exponential(self, size=None, out=None):
        values = self._rng.standard_exponential(size, out=out)
        values[...] = self._transform(values)
        return values

    def random(self, size=None, out=None):
        return self._rng.random(size, out=out)


class TestThinningChunks:
    """Stream-level bit identity where the kernel's candidate array and
    its block-sized thinning chunks meet their edges."""

    def test_rows_longer_than_the_preallocation_grow(self):
        # Exponentials at a quarter of their size put about four times the
        # expected horizon * r_max candidates before the horizon; the
        # kernel preallocates that expectation plus about two blocks.
        horizon, block_size = 100.0, 64
        batched = _assert_streams_match_sequential(
            _two_state_mmpp(),
            horizon,
            [1, 2],
            0,
            block_size,
            make_rng=lambda seed: _StubExponentials(seed, lambda v: 0.25 * v),
        )
        for row in batched:
            assert row.candidates > 2 * (horizon * 12.0 + 2 * block_size)

    @pytest.mark.parametrize("block_size", [3, 9])
    def test_exact_lattice_chunk_edges(self, block_size):
        # Every exponential is 1.0 and every mean a power of two, so times
        # are exact: candidates sit at 0.25 k (r_max = 4) and the chain
        # jumps at 16, 18, 34 and 36.  Jump t cuts the candidates at
        # 4 t - 1: cuts 63 and 135 fall on chunk boundaries, the 144
        # candidates fill whole chunks, and state 0's first run of 63
        # candidates spans several chunks.
        generator = np.array([[-1.0 / 16.0, 1.0 / 16.0], [0.5, -0.5]])
        mmpp = MMPP(generator, np.array([1.0, 4.0]))
        batched = _assert_streams_match_sequential(
            mmpp,
            36.0,
            [4, 5],
            0,
            block_size,
            make_rng=lambda seed: _StubExponentials(seed, lambda v: 1.0),
        )
        for row in batched:
            assert row.jump_times.tolist() == [16.0, 18.0, 34.0, 36.0]
            cuts = (4 * row.jump_times - 1).astype(int).tolist()
            assert [cut % block_size for cut in (cuts[0], cuts[2])] == [0, 0]
            assert row.candidates == 144
            assert row.candidates % block_size == 0
            assert cuts[0] > 2 * block_size
            assert 0 < row.arrivals.size < row.candidates


class TestRoundingClamp:
    """A uniform at or above a row's rounded total jumps to the row's last
    target in both engines (no random draw reaches this: ~2**-53 a jump)."""

    @staticmethod
    def _ten_exit_mmpp():
        # State 0 leaves to each of states 1..10 at rate 1: ten embedded
        # probabilities of 0.1, whose running sum ends at 1 - 2**-53.
        generator = np.zeros((11, 11))
        generator[0, 1:] = 1.0
        generator[1:, 0] = 2.0
        np.fill_diagonal(generator, -generator.sum(axis=1))
        return MMPP(generator, np.array([4.0] + [1.0] * 10))

    def test_row_total_rounds_below_one(self):
        from repro.sim.columnar import _embedded_chain

        packed = _embedded_chain(self._ten_exit_mmpp().chain)
        assert packed.cumulative[0, 9] == np.nextafter(1.0, 0.0)

    def test_both_engines_jump_to_the_last_target(self):
        mmpp = self._ten_exit_mmpp()
        sequential = sample_mmpp_stream(
            mmpp, 20.0, _TopUniforms(5), initial_state=0, block_size=8
        )
        batched = sample_mmpp_streams_batch(
            mmpp, 20.0, [_TopUniforms(5)], initial_state=0, block_size=8
        )[0]
        for stream in (sequential, batched):
            assert stream.num_jumps > 2
            assert set(stream.states[1::2].tolist()) == {10}
            assert set(stream.states[0::2].tolist()) == {0}
        for field in ("arrivals", "jump_times", "states"):
            assert np.array_equal(getattr(sequential, field), getattr(batched, field))
        assert sequential.candidates == batched.candidates


def _peak_traced_bytes(run) -> int:
    """Peak bytes ``tracemalloc`` sees while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneRowAtATime:
    """A multi-seed call holds one row's arrays at a time, so its peak
    memory does not grow with the number of seeds."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda seeds: simulate_mmpp_columnar_batch(
                _two_state_mmpp(), 20_000.0, 14.0, seeds, block_size=1_024
            ),
            lambda seeds: simulate_poisson_columnar_batch(
                5.0, 20_000.0, 9.0, seeds, block_size=1_024
            ),
        ],
        ids=["mmpp", "poisson"],
    )
    def test_eight_seeds_peak_below_twice_one_seed(self, run):
        one = _peak_traced_bytes(lambda: run([1]))
        eight = _peak_traced_bytes(lambda: run(list(range(1, 9))))
        assert eight < 2 * one, f"1 seed: {one} B, 8 seeds: {eight} B"
