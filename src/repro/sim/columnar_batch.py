"""Replication-batched columnar engine: whole campaigns per call.

The columnar engine (:mod:`repro.sim.columnar`) already pays Python
overhead per *block* instead of per event, but it still runs one
replication per call.  This module takes a list of seeds (campaigns call
it with one seed per job) and runs each row through per-row passes that
allocate once:

* each row's embedded jump chain is walked in one scalar pass over
  Python floats, one ``bisect`` into the state's cumulative row per jump
  (a vectorized step over all R rows costs a dozen numpy calls, far more
  than R scalar steps at the replication counts campaigns use);
* ``Poisson(r_max)`` candidates are drawn block by block straight into
  one array per row and scaled, cumsum-ed and offset in place; thinning
  then walks the candidates one block-sized chunk at a time, building
  thresholds, uniforms and the accept mask in :class:`BatchWorkspace`
  buffers and keeping arrivals with ``np.compress``;
* the FCFS queue is :func:`repro.sim.columnar.lindley_waits` on each row,
  and the statistics pass is the sequential engine's own.

Determinism contract (the same domain as the sequential columnar engine)
------------------------------------------------------------------------
Each row consumes its own :class:`~repro.sim.random_streams.RandomStreams`
substreams (``"columnar-source"``, ``"columnar-server"``) in *exactly* the
sequential draw order — block refills, splices, and all.  Rows are
therefore **bit-identical** to sequential ``simulate_*_columnar`` runs
with the same seeds and ``block_size``: interleaving draws *across* rows
is free (independent generators), and within a row the walk, the
candidate blocks and the thinning uniforms make the sequential engine's
generator calls in its order, splicing the walk's partly used blocks
first (numpy draws the same values in consecutive pieces as in one
call).  Only ``extras`` metadata differs (``engine="columnar-batched"``
plus batch bookkeeping).  Golden arrays, whole-row SHA-256 digests
(``tests/sim/test_columnar_digests.py``) and hypothesis tests pin this
contract.

Memory model
------------
The chain walk keeps, per row, its jumps (one float and one int per
modulating jump) and the unused tails of its last sojourn and uniform
blocks.  Per row, the candidate phase holds one float array of about
``horizon * r_max`` plus two blocks, and thinning adds two ``block_size``
workspace buffers and one chunk of thresholds; the kept arrivals, their
services and waits, and the statistics temporaries scale with the
accepted count.  A multi-seed call still runs its rows in groups whose
estimated size (48 bytes per expected candidate) fits ``max_group_bytes``
(default 256 MiB); campaigns pass one seed per call.
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
    "BatchWorkspace",
    "lindley_waits_batch",
    "sample_mmpp_streams_batch",
    "simulate_hap_approx_columnar_batch",
    "simulate_mmpp_columnar_batch",
    "simulate_poisson_columnar_batch",
]

#: Default budget for one candidate/thinning/Lindley row group.
DEFAULT_GROUP_BYTES = 256 * 2**20

_EMPTY = np.empty(0)


class BatchWorkspace:
    """A keyed pool of reusable numpy buffers for the batched engine.

    ``array(key, shape)`` returns a view of a backing buffer that is
    allocated on first use and grown only when a larger request arrives.
    Thinning takes its block-sized uniform and accept-mask chunks from
    here, so across the chunks, rows and repeated batch calls that share
    a workspace those buffers are allocated once.  Buffers are plain
    ``np.empty`` storage: callers own initialization.  Pass one workspace
    to repeated ``simulate_*_columnar_batch`` calls to share the pool;
    call :meth:`release` to drop the memory when a campaign ends.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, key: str, shape, dtype=np.float64) -> np.ndarray:
        """A ``shape``-shaped view of the (grown-once) buffer for ``key``."""
        if isinstance(shape, int):
            shape = (shape,)
        size = 1
        for dim in shape:
            size *= int(dim)
        dtype = np.dtype(dtype)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.dtype != dtype or buffer.size < size:
            buffer = np.empty(max(size, 1), dtype=dtype)
            self._buffers[key] = buffer
        return buffer[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Bytes currently held across all pooled buffers."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def release(self) -> None:
        """Drop every pooled buffer (outstanding views keep their storage)."""
        self._buffers.clear()


def _rows_per_group(
    bytes_per_row: float, max_group_bytes: int | None, total_rows: int
) -> int:
    """How many rows the candidate/Lindley phase processes at once."""
    budget = DEFAULT_GROUP_BYTES if max_group_bytes is None else max(
        int(max_group_bytes), 1
    )
    per_row = max(bytes_per_row, 1.0)
    return max(1, min(total_rows, int(budget / per_row)))


@dataclass
class _BatchWalk:
    """Everything the per-row chain walks produced, per row.

    ``sojourn_leftovers``/``uniform_leftovers`` are the unused tails of
    each row's last sojourn and uniform blocks: what the sequential
    engine's batchers still hold when its walk stops.  The candidate and
    thinning phases splice them first, which is what keeps per-row
    bit-streams identical to the sequential engine's.
    """

    initial_states: np.ndarray
    jump_times: list[np.ndarray]
    states: list[np.ndarray]
    sojourn_leftovers: list[np.ndarray]
    uniform_leftovers: list[np.ndarray]


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


def _blocked_cumulative_rows(
    rngs: Sequence[np.random.Generator],
    leftovers: Sequence[np.ndarray],
    mean: float,
    horizon: float,
    block_size: int,
) -> list[np.ndarray]:
    """Rate-``1/mean`` Poisson event times on ``(0, horizon]``, per row.

    The kernel's twin of :func:`repro.sim.columnar._cumulative_exponentials`.
    Each row's blocks land in one array sized from the expected count and
    doubled when a row runs long: a block is drawn straight into its slot,
    splicing the row's leftover variates first (the batcher bit-stream
    rule), then scaled, cumsum-ed and offset in place.  Times never
    decrease, so the ``<= horizon`` cut is a prefix: each row is a view of
    its array up to a ``searchsorted`` position.  The mean is checked
    before any draw, with the sequential engine's message.
    """
    ExponentialBatcher._validate_mean(mean)
    expected_blocks = math.ceil(horizon / mean / block_size) + 1
    rows: list[np.ndarray] = []
    for rng, head in zip(rngs, leftovers):
        times = np.empty(expected_blocks * block_size)
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
        rows.append(times[: np.searchsorted(times[:filled], horizon, "right")])
    return rows


def _thin_group(
    walk: _BatchWalk,
    rows: Sequence[int],
    rates: np.ndarray,
    r_max: float,
    horizon: float,
    rngs: Sequence[np.random.Generator],
    block_size: int,
    workspace: BatchWorkspace,
) -> list[tuple[np.ndarray, int]]:
    """Candidates + thinning for one row group: ``(arrivals, candidates)``.

    Thinning walks each row's candidates one ``block_size`` chunk at a
    time through two workspace buffers, so no temporary spans the row.
    """
    candidate_rows = _blocked_cumulative_rows(
        [rngs[row] for row in rows],
        [walk.sojourn_leftovers[row] for row in rows],
        1.0 / r_max,
        horizon,
        block_size,
    )
    uniforms = workspace.array("thin-uniforms", (block_size,))
    accept = workspace.array("thin-accept", (block_size,), dtype=bool)
    output: list[tuple[np.ndarray, int]] = []
    for candidates, row in zip(candidate_rows, rows):
        # Rate at each candidate: the sequential engine gathers
        # rates[states[searchsorted(jump_times, t, "right")]] per candidate;
        # with sorted candidates the jump times instead cut the candidates
        # into one run per visited state, and each chunk repeats the rates
        # of the runs it overlaps, clipped to the chunk.  Pure integer
        # bookkeeping, so the thresholds are bit-identical.
        count = candidates.size
        jump_times = walk.jump_times[row]
        cuts = np.empty(jump_times.size + 2, dtype=np.int64)
        cuts[0] = 0
        cuts[-1] = count
        cuts[1:-1] = np.searchsorted(candidates, jump_times, side="left")
        run_rates = rates[walk.states[row]]
        # The walk's unused uniforms serve the first candidates; numpy
        # draws the same values in consecutive pieces as in one call.
        leftover = walk.uniform_leftovers[row]
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
                rngs[row].random(out=chunk[spliced:])
            np.multiply(chunk, r_max, out=chunk)
            keep = np.less(chunk, thresholds, out=accept[: chunk.size])
            pieces.append(np.compress(keep, candidates[start:stop]))
        arrivals = np.concatenate(pieces) if pieces else np.empty(0)
        output.append((arrivals, count))
    return output


def _lindley_rows(
    arrival_rows: Sequence[np.ndarray],
    service_rows: Sequence[np.ndarray],
    chunk_size: int,
    initial_wait: float,
) -> list[np.ndarray]:
    """:func:`repro.sim.columnar.lindley_waits` over each row in turn.

    Each row is the sequential recursion itself, so rows are bit-identical
    to it by construction.
    """
    if len(arrival_rows) != len(service_rows):
        raise ValueError("need matching arrival and service row lists")
    return [
        lindley_waits(arrivals, services, chunk_size, initial_wait)
        for arrivals, services in zip(arrival_rows, service_rows)
    ]


def lindley_waits_batch(
    arrival_rows: Sequence[np.ndarray],
    service_rows: Sequence[np.ndarray],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    initial_wait: float = 0.0,
    workspace: BatchWorkspace | None = None,
) -> list[np.ndarray]:
    """FCFS waits for R replications, one :func:`lindley_waits` per row.

    Every returned row is **bit-identical** to ``lindley_waits`` on that
    row alone, and ``chunk_size`` stays outside the determinism contract
    exactly as in the 1-D case.  ``workspace`` is accepted and unused.
    """
    return _lindley_rows(
        list(arrival_rows), list(service_rows), chunk_size, initial_wait
    )


def _mmpp_walks(
    mmpp: MMPP,
    horizon: float,
    rngs: Sequence[np.random.Generator],
    initial_state: int | None,
    block_size: int,
    workspace: BatchWorkspace,
) -> tuple[np.ndarray, _BatchWalk]:
    """Validate, draw initial states, and walk each row's jump chain.

    Rows walk one after another, each from its own generator
    (``workspace`` is not used: a row's leftovers are views of its own
    last blocks).  The per-state tables become Python lists once per call:
    bisecting a ``+inf``-padded cumulative row gives the same position as
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
    rows = [
        _walk_row(rng, state, horizon, block_size, *tables)
        for rng, state in zip(rngs, initial_states)
    ]
    return rates, _BatchWalk(
        initial_states=np.array(initial_states, dtype=np.int64),
        jump_times=[np.array(row[0], dtype=float) for row in rows],
        states=[np.array(row[1], dtype=np.int64) for row in rows],
        sojourn_leftovers=[row[2] for row in rows],
        uniform_leftovers=[row[3] for row in rows],
    )


def sample_mmpp_streams_batch(
    mmpp: MMPP,
    horizon: float,
    rngs: Sequence[np.random.Generator],
    initial_state: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workspace: BatchWorkspace | None = None,
    max_group_bytes: int | None = None,
) -> list[MMPPStreamArrays]:
    """R MMPP arrival streams in one batch, one per generator.

    Row ``k`` is bit-identical (arrivals, jump times, states, candidate
    count) to ``sample_mmpp_stream(mmpp, horizon, rngs[k], ...)`` with a
    fresh generator in the same state — the batched determinism contract.
    Memory scales with ``R * horizon`` for the retained streams; while a
    row is thinned it also holds its candidate array (about
    ``horizon * r_max`` floats) and two block-sized workspace buffers.
    """
    rngs = list(rngs)
    if not rngs:
        return []
    workspace = BatchWorkspace() if workspace is None else workspace
    rates, walk = _mmpp_walks(
        mmpp, horizon, rngs, initial_state, block_size, workspace
    )
    r_max = float(rates.max()) if rates.size else 0.0
    streams: list[MMPPStreamArrays] = []
    if r_max <= 0.0:
        for row in range(len(rngs)):
            streams.append(
                MMPPStreamArrays(
                    arrivals=np.empty(0),
                    jump_times=walk.jump_times[row],
                    states=walk.states[row],
                    initial_state=int(walk.initial_states[row]),
                    candidates=0,
                )
            )
        return streams
    group_rows = _rows_per_group(
        horizon * r_max * 8.0 * 6.0, max_group_bytes, len(rngs)
    )
    for start in range(0, len(rngs), group_rows):
        rows = range(start, min(start + group_rows, len(rngs)))
        thinned = _thin_group(
            walk, rows, rates, r_max, horizon, rngs, block_size, workspace
        )
        for local, row in enumerate(rows):
            arrivals, candidates = thinned[local]
            streams.append(
                MMPPStreamArrays(
                    arrivals=arrivals,
                    jump_times=walk.jump_times[row],
                    states=walk.states[row],
                    initial_state=int(walk.initial_states[row]),
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
    workspace: BatchWorkspace | None = None,
    max_group_bytes: int | None = None,
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
    if not seeds:
        return []
    results: list[SimulationResult | None] = [None] * len(seeds)
    group_rows = _rows_per_group(
        horizon * rate * 8.0 * 5.0, max_group_bytes, len(seeds)
    )
    for start in range(0, len(seeds), group_rows):
        group = seeds[start : start + group_rows]
        streams = [RandomStreams(seed) for seed in group]
        if rate == 0.0:
            arrival_rows = [np.empty(0) for _ in group]
        else:
            arrival_rows = _blocked_cumulative_rows(
                [stream.get("columnar-source") for stream in streams],
                [_EMPTY] * len(group),
                1.0 / rate,
                horizon,
                block_size,
            )
        service_rows = [
            _service_block(
                streams[local].get("columnar-server"),
                arrival_rows[local].size,
                service_rate,
                block_size,
            )
            for local in range(len(group))
        ]
        wait_rows = _lindley_rows(arrival_rows, service_rows, chunk_size, 0.0)
        for local in range(len(group)):
            results[start + local] = _queue_result_from_waits(
                arrival_rows[local],
                service_rows[local],
                wait_rows[local],
                horizon,
                warmup,
                source_events=0,
                extras={
                    "engine": "columnar-batched",
                    "source": "poisson",
                    "batch_rows": len(seeds),
                },
            )
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
    workspace: BatchWorkspace | None = None,
    max_group_bytes: int | None = None,
) -> list[SimulationResult]:
    """Batched columnar MMPP/M/1 — R replications in one call.

    Each row's chain is walked in turn; candidates, thinning, services,
    and the Lindley queue then run group-by-group
    within the ``max_group_bytes`` budget.  Result rows are bit-identical
    to :func:`repro.sim.columnar.simulate_mmpp_columnar` per seed (extras
    carry ``engine="columnar-batched"`` instead).
    """
    if warmup is None:
        warmup = 0.05 * horizon
    _validate_window(horizon, warmup)
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        return []
    workspace = BatchWorkspace() if workspace is None else workspace
    streams = [RandomStreams(seed) for seed in seeds]
    source_rngs = [stream.get("columnar-source") for stream in streams]
    rates, walk = _mmpp_walks(
        mmpp, horizon, source_rngs, initial_state, block_size, workspace
    )
    r_max = float(rates.max()) if rates.size else 0.0
    results: list[SimulationResult | None] = [None] * len(seeds)
    group_rows = _rows_per_group(
        horizon * max(r_max, 0.0) * 8.0 * 6.0, max_group_bytes, len(seeds)
    )
    for start in range(0, len(seeds), group_rows):
        rows = range(start, min(start + group_rows, len(seeds)))
        if r_max <= 0.0:
            thinned = [(np.empty(0), 0) for _ in rows]
        else:
            thinned = _thin_group(
                walk, rows, rates, r_max, horizon, source_rngs, block_size,
                workspace,
            )
        arrival_rows = [arrivals for arrivals, _ in thinned]
        service_rows = [
            _service_block(
                streams[row].get("columnar-server"),
                arrival_rows[local].size,
                service_rate,
                block_size,
            )
            for local, row in enumerate(rows)
        ]
        wait_rows = _lindley_rows(arrival_rows, service_rows, chunk_size, 0.0)
        for local, row in enumerate(rows):
            jumps = int(walk.jump_times[row].size)
            results[row] = _queue_result_from_waits(
                arrival_rows[local],
                service_rows[local],
                wait_rows[local],
                horizon,
                warmup,
                source_events=jumps,
                extras={
                    "engine": "columnar-batched",
                    "source": "mmpp",
                    "modulating_states": int(rates.size),
                    "modulating_jumps": jumps,
                    "thinning_candidates": thinned[local][1],
                    "batch_rows": len(seeds),
                },
            )
    return results


def simulate_hap_approx_columnar_batch(
    params: HAPParameters,
    horizon: float,
    seeds: Sequence[int],
    service_rate: float | None = None,
    warmup: float | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workspace: BatchWorkspace | None = None,
    max_group_bytes: int | None = None,
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
        workspace=workspace,
        max_group_bytes=max_group_bytes,
    )
    for result in results:
        result.extras["source"] = "hap-approx"
    return results
