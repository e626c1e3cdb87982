"""Replication-batched columnar engine: a list of seeds per call.

The columnar engine (:mod:`repro.sim.columnar`) already pays Python
overhead per *block* instead of per event, but it still runs one
replication per call.  This module takes a list of seeds (campaigns call
it with one seed per job) and runs the rows one after another, each in
passes that allocate once:

* the call first walks every row's embedded jump chain, each in one
  scalar pass over Python floats, one ``bisect`` into the state's
  cumulative row per jump, from per-state tables built once per call (a
  vectorized step over all rows costs a dozen numpy calls, far more than
  the scalar steps at the replication counts campaigns use);
* then, one row at a time, ``Poisson(r_max)`` candidates are drawn block
  by block straight into one array and scaled, cumsum-ed and offset in
  place; thinning walks the candidates one block-sized chunk at a time,
  building thresholds, uniforms and the accept mask in two chunk buffers
  and keeping arrivals with ``np.compress``; the FCFS queue is
  :func:`repro.sim.columnar.lindley_waits` on the row, and the statistics
  pass is the sequential engine's own.

Determinism contract (the same domain as the sequential columnar engine)
------------------------------------------------------------------------
Each row consumes its own :class:`~repro.sim.random_streams.RandomStreams`
substreams (``"columnar-source"``, ``"columnar-server"``) in *exactly* the
sequential draw order — block refills, splices, and all.  Rows are
therefore **bit-identical** to sequential ``simulate_*_columnar`` runs
with the same seeds and ``block_size``: walking every row before running
any is free (independent generators), and within a row the walk, the
candidate blocks and the thinning uniforms make the sequential engine's
generator calls in its order, splicing the walk's partly used blocks
first (numpy draws the same values in consecutive pieces as in one
call).  Only ``extras`` metadata differs (``engine="columnar-batched"``
plus batch bookkeeping).  Golden arrays, whole-row SHA-256 digests
(``tests/sim/test_columnar_digests.py``) and hypothesis tests pin this
contract.

Memory model
------------
A call holds one row's arrays at a time, for any number of seeds.  The
chain walk keeps, per row, its jumps (one float and one int per
modulating jump) and the unused tails of its last sojourn and uniform
blocks.  The row being run holds one candidate array of about
``horizon * r_max`` floats plus two blocks, two ``block_size`` thinning
buffers and one chunk of thresholds; its kept arrivals, their services
and waits, and the statistics temporaries scale with the accepted count.
A finished row leaves only its :class:`SimulationResult` behind
(:func:`sample_mmpp_streams_batch` returns every row's stream, so its
result grows with the rows).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.params import HAPParameters
from repro.markov.mmpp import MMPP
from repro.sim.columnar import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_CHUNK_SIZE,
    MMPPStreamArrays,
    _embedded_chain,
    _queue_result_from_waits,
    _service_block,
    lindley_waits,
)
from repro.sim.random_streams import ExponentialBatcher, RandomStreams
from repro.sim.replication import SimulationResult, _validate_window

__all__ = [
    "sample_mmpp_streams_batch",
    "simulate_hap_approx_columnar_batch",
    "simulate_mmpp_columnar_batch",
    "simulate_poisson_columnar_batch",
]

_EMPTY = np.empty(0)


@dataclass(frozen=True)
class _RowWalk:
    """One row's chain walk.

    ``sojourn_leftover``/``uniform_leftover`` are the unused tails of the
    row's last sojourn and uniform blocks: what the sequential engine's
    batchers still hold when its walk stops.  The candidate and thinning
    phases splice them first, which is what keeps the row's bit-stream
    identical to the sequential engine's.
    """

    initial_state: int
    jump_times: np.ndarray
    states: np.ndarray
    sojourn_leftover: np.ndarray
    uniform_leftover: np.ndarray


def _walk_row(rng, state, horizon, block_size, means, alive, targets, cumulative):
    """One row's embedded jump chain in plain Python floats.

    Returns ``(jump times, visited states, sojourn leftover, uniform
    leftover)``.  The draw order is the sequential engine's: a sojourn
    block, then a uniform block unless the block's first step already
    overshoots the horizon.  Iterating memoryviews hands out Python floats
    one at a time, so a short walk never converts a block's unused tail.
    An absorbing state has an infinite mean sojourn, so absorption shows
    up as the next step's overshoot and needs no per-step check.
    """
    now = 0.0
    times: list[float] = []
    visited = [state]
    while alive[state]:
        sojourns = rng.standard_exponential(block_size)
        if now + float(sojourns[0]) * means[state] > horizon:
            return times, visited, sojourns[1:], _EMPTY
        uniforms = rng.random(block_size)
        for k, (sojourn, uniform) in enumerate(
            zip(memoryview(sojourns), memoryview(uniforms))
        ):
            now += sojourn * means[state]
            if not now <= horizon:  # or NaN: a zero sojourn times inf
                if not alive[state]:
                    return times, visited, sojourns[k:], uniforms[k:]
                return times, visited, sojourns[k + 1 :], uniforms[k:]
            times.append(now)
            state = targets[state][bisect_right(cumulative[state], uniform)]
            visited.append(state)
    return times, visited, _EMPTY, _EMPTY


def _blocked_cumulative_row(
    rng: np.random.Generator,
    head: np.ndarray,
    mean: float,
    horizon: float,
    block_size: int,
) -> np.ndarray:
    """Rate-``1/mean`` Poisson event times on ``(0, horizon]`` for one row.

    The kernel's twin of :func:`repro.sim.columnar._cumulative_exponentials`.
    The blocks land in one array sized from the expected count and doubled
    when the row runs long: a block is drawn straight into its slot,
    splicing the leftover variates ``head`` first (the batcher bit-stream
    rule), then scaled, cumsum-ed and offset in place.  Times never
    decrease, so the ``<= horizon`` cut is a prefix: the row is a view of
    its array up to a ``searchsorted`` position.  The mean is checked
    before any draw, with the sequential engine's message.
    """
    ExponentialBatcher._validate_mean(mean)
    times = np.empty((math.ceil(horizon / mean / block_size) + 1) * block_size)
    filled = 0
    offset = 0.0
    while offset <= horizon:
        if filled == times.size:
            grown = np.empty(2 * times.size)
            grown[:filled] = times
            times = grown
        block = times[filled : filled + block_size]
        block[: head.size] = head
        rng.standard_exponential(out=block[head.size :])
        head = _EMPTY
        np.multiply(block, mean, out=block)
        np.cumsum(block, out=block)
        np.add(block, offset, out=block)
        offset = block[-1]
        filled += block_size
    return times[: np.searchsorted(times[:filled], horizon, "right")]


def _thin_group(
    walk: _RowWalk,
    rates: np.ndarray,
    r_max: float,
    horizon: float,
    rng: np.random.Generator,
    block_size: int,
) -> tuple[np.ndarray, int]:
    """One row's candidates and thinning: ``(arrivals, candidates)``.

    Thinning walks the candidates one ``block_size`` chunk at a time
    through two chunk buffers, so no temporary spans the row.  A chain
    whose rates are all zero has no candidates and draws nothing.
    """
    if r_max <= 0.0:
        return np.empty(0), 0
    candidates = _blocked_cumulative_row(
        rng, walk.sojourn_leftover, 1.0 / r_max, horizon, block_size
    )
    # Rate at each candidate: the sequential engine gathers
    # rates[states[searchsorted(jump_times, t, "right")]] per candidate;
    # with sorted candidates the jump times instead cut the candidates
    # into one run per visited state, and each chunk repeats the rates
    # of the runs it overlaps, clipped to the chunk.  Pure integer
    # bookkeeping, so the thresholds are bit-identical.
    count = candidates.size
    cuts = np.empty(walk.jump_times.size + 2, dtype=np.int64)
    cuts[0] = 0
    cuts[-1] = count
    cuts[1:-1] = np.searchsorted(candidates, walk.jump_times, side="left")
    run_rates = rates[walk.states]
    # The walk's unused uniforms serve the first candidates; numpy
    # draws the same values in consecutive pieces as in one call.
    leftover = walk.uniform_leftover
    uniforms = np.empty(block_size)
    accept = np.empty(block_size, dtype=bool)
    pieces: list[np.ndarray] = []
    for start in range(0, count, block_size):
        stop = min(start + block_size, count)
        first = int(np.searchsorted(cuts, start, side="right")) - 1
        last = int(np.searchsorted(cuts, stop, side="left"))
        runs = np.diff(np.clip(cuts[first : last + 1], start, stop))
        thresholds = np.repeat(run_rates[first:last], runs)
        chunk = uniforms[: stop - start]
        spliced = min(max(leftover.size - start, 0), chunk.size)
        chunk[:spliced] = leftover[start : start + spliced]
        if spliced < chunk.size:
            rng.random(out=chunk[spliced:])
        np.multiply(chunk, r_max, out=chunk)
        keep = np.less(chunk, thresholds, out=accept[: chunk.size])
        pieces.append(np.compress(keep, candidates[start:stop]))
    arrivals = np.concatenate(pieces) if pieces else np.empty(0)
    return arrivals, count


def _lindley_rows(
    arrivals: np.ndarray, services: np.ndarray, chunk_size: int
) -> np.ndarray:
    """One row's FCFS waits from an empty queue.

    :func:`repro.sim.columnar.lindley_waits` itself, so the row is
    bit-identical to the sequential engine's by construction; its own name
    is what perfbench traces as the ``lindley`` layer.
    """
    return lindley_waits(arrivals, services, chunk_size)


def _mmpp_walks(
    mmpp: MMPP,
    horizon: float,
    rngs: Sequence[np.random.Generator],
    initial_state: int | None,
    block_size: int,
) -> tuple[np.ndarray, list[_RowWalk]]:
    """Validate, draw initial states, and walk each row's jump chain.

    Rows walk one after another, each from its own generator.  The
    per-state tables become Python lists once per call: bisecting a
    ``+inf``-padded cumulative row gives the same position as
    ``searchsorted`` on the unpadded one, and each target row is padded
    with its last target, which is the sequential engine's clamp for a
    uniform at or above the row's rounded total.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite (got {horizon})")
    rates = np.asarray(mmpp.rates, dtype=float)
    chain = mmpp.chain
    holding = np.asarray(chain.holding_rates(), dtype=float)
    if initial_state is None:
        pi = mmpp.stationary_distribution()
        initial_states = [int(rng.choice(rates.size, p=pi)) for rng in rngs]
    else:
        if not 0 <= initial_state < rates.size:
            raise ValueError(f"initial_state {initial_state} out of range")
        initial_states = [int(initial_state)] * len(rngs)
    packed = _embedded_chain(chain)
    clamp = np.minimum(
        np.arange(packed.targets.shape[1] + 1),
        np.maximum(packed.lengths - 1, 0)[:, None],
    )
    with np.errstate(divide="ignore"):
        sojourn_means = np.where(holding > 0.0, 1.0 / holding, np.inf)
    tables = (
        sojourn_means.tolist(),
        (holding > 0.0).tolist(),
        np.take_along_axis(packed.targets, clamp, axis=1).tolist(),
        packed.cumulative.tolist(),
    )
    walks = []
    for rng, state in zip(rngs, initial_states):
        times, visited, sojourns, uniforms = _walk_row(
            rng, state, horizon, block_size, *tables
        )
        walks.append(
            _RowWalk(
                initial_state=state,
                jump_times=np.array(times, dtype=float),
                states=np.array(visited, dtype=np.int64),
                sojourn_leftover=sojourns,
                uniform_leftover=uniforms,
            )
        )
    return rates, walks


def sample_mmpp_streams_batch(
    mmpp: MMPP,
    horizon: float,
    rngs: Sequence[np.random.Generator],
    initial_state: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> list[MMPPStreamArrays]:
    """MMPP arrival streams, one per generator.

    Row ``k`` is bit-identical (arrivals, jump times, states, candidate
    count) to ``sample_mmpp_stream(mmpp, horizon, rngs[k], ...)`` with a
    fresh generator in the same state — the batched determinism contract.
    The returned streams scale with the number of rows times ``horizon``;
    while a row is thinned the call also holds its candidate array (about
    ``horizon * r_max`` floats) and two block-sized buffers.
    """
    rngs = list(rngs)
    if not rngs:
        return []
    rates, walks = _mmpp_walks(mmpp, horizon, rngs, initial_state, block_size)
    r_max = float(rates.max()) if rates.size else 0.0
    streams: list[MMPPStreamArrays] = []
    for rng, walk in zip(rngs, walks):
        arrivals, candidates = _thin_group(
            walk, rates, r_max, horizon, rng, block_size
        )
        streams.append(
            MMPPStreamArrays(
                arrivals=arrivals,
                jump_times=walk.jump_times,
                states=walk.states,
                initial_state=walk.initial_state,
                candidates=candidates,
            )
        )
    return streams


def simulate_poisson_columnar_batch(
    rate: float,
    horizon: float,
    service_rate: float,
    seeds: Sequence[int],
    warmup: float | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[SimulationResult]:
    """Batched columnar M/M/1: one result per seed, rows bit-identical to
    :func:`repro.sim.columnar.simulate_poisson_columnar` per seed."""
    if warmup is None:
        warmup = 0.05 * horizon
    _validate_window(horizon, warmup)
    if not 0.0 <= rate < math.inf:
        raise ValueError(f"rate must be non-negative and finite (got {rate})")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite (got {horizon})")
    seeds = [int(seed) for seed in seeds]
    results: list[SimulationResult] = []
    for seed in seeds:
        streams = RandomStreams(seed)
        if rate == 0.0:
            arrivals = np.empty(0)
        else:
            arrivals = _blocked_cumulative_row(
                streams.get("columnar-source"),
                _EMPTY,
                1.0 / rate,
                horizon,
                block_size,
            )
        services = _service_block(
            streams.get("columnar-server"), arrivals.size, service_rate, block_size
        )
        waits = _lindley_rows(arrivals, services, chunk_size)
        results.append(
            _queue_result_from_waits(
                arrivals,
                services,
                waits,
                horizon,
                warmup,
                source_events=0,
                extras={
                    "engine": "columnar-batched",
                    "source": "poisson",
                    "batch_rows": len(seeds),
                },
            )
        )
        del arrivals, services, waits  # free this row before the next
    return results


def simulate_mmpp_columnar_batch(
    mmpp: MMPP,
    horizon: float,
    service_rate: float,
    seeds: Sequence[int],
    warmup: float | None = None,
    initial_state: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[SimulationResult]:
    """Batched columnar MMPP/M/1 — R replications in one call.

    Every row's chain is walked first; candidates, thinning, services, the
    Lindley queue and the statistics then run one row at a time.  Result
    rows are bit-identical to
    :func:`repro.sim.columnar.simulate_mmpp_columnar` per seed (extras
    carry ``engine="columnar-batched"`` instead).
    """
    if warmup is None:
        warmup = 0.05 * horizon
    _validate_window(horizon, warmup)
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        return []
    streams = [RandomStreams(seed) for seed in seeds]
    source_rngs = [stream.get("columnar-source") for stream in streams]
    rates, walks = _mmpp_walks(
        mmpp, horizon, source_rngs, initial_state, block_size
    )
    r_max = float(rates.max()) if rates.size else 0.0
    results: list[SimulationResult] = []
    for stream, rng, walk in zip(streams, source_rngs, walks):
        arrivals, candidates = _thin_group(
            walk, rates, r_max, horizon, rng, block_size
        )
        services = _service_block(
            stream.get("columnar-server"), arrivals.size, service_rate, block_size
        )
        waits = _lindley_rows(arrivals, services, chunk_size)
        jumps = int(walk.jump_times.size)
        results.append(
            _queue_result_from_waits(
                arrivals,
                services,
                waits,
                horizon,
                warmup,
                source_events=jumps,
                extras={
                    "engine": "columnar-batched",
                    "source": "mmpp",
                    "modulating_states": int(rates.size),
                    "modulating_jumps": jumps,
                    "thinning_candidates": candidates,
                    "batch_rows": len(seeds),
                },
            )
        )
        del arrivals, services, waits  # free this row before the next
    return results


def simulate_hap_approx_columnar_batch(
    params: HAPParameters,
    horizon: float,
    seeds: Sequence[int],
    service_rate: float | None = None,
    warmup: float | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[SimulationResult]:
    """Batched columnar M/HAP-approx/1 via the symmetric MMPP mapping.

    Warmup and service-rate defaults mirror
    :func:`repro.sim.columnar.simulate_hap_approx_columnar`, so each row
    is bit-identical to the sequential run with the same seed.
    """
    from repro.core.mmpp_mapping import symmetric_hap_to_mmpp

    if service_rate is None:
        service_rate = params.common_service_rate()
    if warmup is None:
        warmup = min(10.0 / params.user_departure_rate, 0.1 * horizon)
    mapped = symmetric_hap_to_mmpp(params)
    results = simulate_mmpp_columnar_batch(
        mapped.mmpp,
        horizon,
        service_rate,
        seeds,
        warmup=warmup,
        block_size=block_size,
        chunk_size=chunk_size,
    )
    for result in results:
        result.extras["source"] = "hap-approx"
    return results
