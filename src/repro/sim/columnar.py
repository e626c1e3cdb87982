"""Columnar simulation core: whole-stream arrays instead of heap events.

The tuple-heap engine (:mod:`repro.sim.engine`) pays Python-interpreter
overhead per *event*; this module pays it per *block*.  An entire arrival
stream is generated as numpy arrays — Poisson streams as blocked exponential
cumsums, MMPP streams by **uniformization-thinning** (walk the modulating
chain once, lay down candidate arrivals at the dominating rate ``r_max``,
keep each candidate with probability ``rate(state)/r_max``) — and the FCFS
queue is then solved in one pass with a vectorized **Lindley recursion**

    ``W[k] = max(0, W[k-1] + S[k-1] - (A[k] - A[k-1]))``

evaluated chunk-by-chunk via cumulative sums and running minima, so peak
temporary memory is bounded by the chunk size regardless of stream length.
No numba, no event heap: everything is numpy primitives.

The replication-batched variant (:mod:`repro.sim.columnar_batch`,
re-exported here as ``simulate_*_columnar_batch``) takes a list of seeds
and runs the rows one at a time, in passes that allocate once — a scalar
chain walk, candidates drawn in place into one array, thinning one
block-sized chunk at a time with ``np.compress`` — then shares
:func:`lindley_waits` and the statistics pass with the functions below.
Its rows are bit-identical to theirs: one engine, two dispatch shapes.

Semantics contract (mirrors the heap engine observable-for-observable)
----------------------------------------------------------------------
* delays/waits are observed for messages that *arrived at or after the
  warmup* and *completed by the horizon* (exactly
  :meth:`repro.sim.server.FCFSQueue._complete_service`);
* ``sigma`` is the fraction of post-warmup arrivals that found the server
  busy (``W > 0``);
* utilization and mean queue length are time averages over
  ``[warmup, horizon]`` computed from exact busy/presence interval overlaps;
* ``events_processed`` counts arrivals, in-horizon departures, and
  modulating-chain jumps — the columnar analog of the heap's fired events.

Determinism contract (a second domain, beside the event heap's)
---------------------------------------------------------------
All variates come from one :class:`~repro.sim.random_streams.RandomStreams`
pair of named substreams (``"columnar-source"``, ``"columnar-server"``) in a
fixed draw order: modulating-chain sojourns and jump targets first, then
candidate gaps, then thinning uniforms, then service times.  Results are
seed-stable and worker-count-stable; they are **not** bit-identical to
the heap engine (block boundaries change bit-stream consumption), and
the ``block_size`` is part of the contract — changing it changes the
variates.  The chunk size of the Lindley recursion is *not* part of the
contract: it only reassociates floating-point sums (see
:func:`lindley_waits`), never which variates are drawn.

Scope
-----
Columnar generation covers sources whose arrival process is fully
determined by a finite modulating chain (Poisson, MMPP, and the symmetric
HAP through its Section-3.1 ``(x, y)`` MMPP mapping).  State-*dependent*
dynamics — lifetime-distribution overrides, client–server feedback — have
no such chain; run them on the event heap by driving
:class:`~repro.sim.sources.HAPSource` directly (as
:mod:`repro.experiments.extensions` does for heavy-tailed lifetimes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import _lazy_exports
from repro.core.params import HAPParameters
from repro.markov.mmpp import MMPP
from repro.sim.random_streams import ExponentialBatcher, RandomStreams
from repro.sim.replication import SimulationResult, _validate_window

__all__ = [
    "MMPPStreamArrays",
    "lindley_waits",
    "sample_mmpp_stream",
    "sample_poisson_stream",
    "simulate_hap_approx_columnar",
    "simulate_mmpp_columnar",
    "simulate_poisson_columnar",
    # Served on first use: the batch engine imports this module.
    *_lazy_exports(
        globals(),
        {
            ".columnar_batch": (
                "sample_mmpp_streams_batch",
                "simulate_hap_approx_columnar_batch",
                "simulate_mmpp_columnar_batch",
                "simulate_poisson_columnar_batch",
            )
        },
    ),
]

#: Variates drawn per numpy block — part of the determinism contract.
DEFAULT_BLOCK_SIZE = 65_536

#: Arrivals processed per Lindley chunk — bounds temporaries, not results.
DEFAULT_CHUNK_SIZE = 262_144


class _UniformBlocks:
    """Uniform [0, 1) variates in blocks, scalar- or array-served.

    The uniform twin of :class:`~repro.sim.random_streams.ExponentialBatcher`
    (jump-target and thinning draws need uniforms, not exponentials), with
    the same bit-stream splicing rule: a partially served block is used up
    before the generator is asked for more, so mixing scalar and block
    draws stays seed-deterministic.
    """

    __slots__ = ("_rng", "_block_size", "_block", "_index")

    def __init__(self, rng: np.random.Generator, block_size: int = DEFAULT_BLOCK_SIZE):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self._rng = rng
        self._block_size = block_size
        self._block: list[float] = []
        self._index = 0

    def draw(self) -> float:
        """One uniform variate."""
        i = self._index
        block = self._block
        if i >= len(block):
            block = self._block = self._rng.random(self._block_size).tolist()
            i = 0
        self._index = i + 1
        return block[i]

    def draw_block(self, count: int) -> np.ndarray:
        """``count`` uniform variates as an array (splices a partial block)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if len(self._block) - self._index >= count:
            i = self._index
            self._index = i + count
            return np.asarray(self._block[i : i + count], dtype=float)
        head = np.asarray(self._block[self._index :], dtype=float)
        self._block = []
        self._index = 0
        tail = self._rng.random(count - len(head))
        return np.concatenate([head, tail])


def _cumulative_exponentials(
    batcher: ExponentialBatcher, mean: float, horizon: float, block_size: int
) -> np.ndarray:
    """Event times of a rate-``1/mean`` Poisson process on ``(0, horizon]``.

    Gaps come from :meth:`ExponentialBatcher.draw_block`; each block is
    cumsum-ed onto a running offset, so generation is O(n) with numpy doing
    all the per-event work.
    """
    pieces: list[np.ndarray] = []
    offset = 0.0
    while offset <= horizon:
        times = offset + np.cumsum(batcher.draw_block(block_size, mean))
        offset = float(times[-1])
        pieces.append(times)
    times = np.concatenate(pieces)
    return times[times <= horizon]


def sample_poisson_stream(
    rate: float,
    horizon: float,
    rng: np.random.Generator,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Arrival times of a Poisson(``rate``) process on ``(0, horizon]``."""
    if not 0.0 <= rate < math.inf:
        raise ValueError(f"rate must be non-negative and finite (got {rate})")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite (got {horizon})")
    if rate == 0.0:
        return np.empty(0)
    batcher = ExponentialBatcher(rng, block_size)
    return _cumulative_exponentials(batcher, 1.0 / rate, horizon, block_size)


@dataclass(frozen=True)
class MMPPStreamArrays:
    """A whole MMPP arrival stream plus its modulating-chain trajectory.

    Attributes
    ----------
    arrivals:
        Accepted (thinned) arrival times, sorted, within ``(0, horizon]``.
    jump_times:
        Modulating state-change times within ``(0, horizon]``.
    states:
        Visited states; ``states[0]`` holds from time 0, ``states[i]``
        from ``jump_times[i-1]`` (the chain is right-continuous).
    initial_state:
        Where the walk started (drawn from the stationary law by default).
    candidates:
        Uniformization candidates generated before thinning (diagnostics:
        the acceptance ratio is ``arrivals.size / candidates``).
    """

    arrivals: np.ndarray
    jump_times: np.ndarray
    states: np.ndarray
    initial_state: int
    candidates: int

    @property
    def num_jumps(self) -> int:
        """Modulating state changes within the horizon."""
        return int(self.jump_times.size)


@dataclass(frozen=True)
class _EmbeddedChain:
    """Padded per-state jump-chain lookup tables.

    ``cumulative[s, :lengths[s]]`` holds the cumulative transition
    probabilities out of state ``s`` (bit-identical to ``np.cumsum`` over
    that state's positive entries) and ``targets[s, :lengths[s]]`` the
    matching destination states.  Pad columns carry ``+inf`` cumulative
    values, so a right-sided rank query (``count of entries <= u``) over a
    full padded row equals ``searchsorted`` on the unpadded one — that is
    what lets the batched walk ``bisect`` a padded Python row and land
    where the sequential walk's ``searchsorted`` does.
    Memory is ``O(n_states * max_row_nnz)``: the truncated HAP lattices
    have a handful of neighbours per state, so the padding is tiny.
    """

    targets: np.ndarray  # (n_states, width) int64
    cumulative: np.ndarray  # (n_states, width) float64, +inf pads
    lengths: np.ndarray  # (n_states,) int64


def _embedded_chain(chain) -> _EmbeddedChain:
    """Build :class:`_EmbeddedChain` in one vectorized pass over the matrix.

    No per-state Python loop: the CSR path scatters ``indptr``/``data``
    straight into the padded matrices, the dense path masks positive
    entries, and one ``cumsum(axis=1)`` over the zero-padded rows produces
    per-row cumulatives bit-identical to the old row-by-row ``np.cumsum``
    (trailing zeros never perturb a leading prefix sum).
    """
    matrix = chain.embedded_transition_matrix()
    if sp.issparse(matrix):
        csr = matrix.tocsr()
        n_states = csr.shape[0]
        counts = np.diff(csr.indptr).astype(np.int64)
        width = max(int(counts.max(initial=0)), 1)
        row_of = np.repeat(np.arange(n_states), counts)
        col_of = np.arange(csr.indices.size) - np.repeat(
            csr.indptr[:-1].astype(np.int64), counts
        )
        data = csr.data
        target_values = csr.indices
    else:
        dense = np.asarray(matrix, dtype=float)
        n_states = dense.shape[0]
        mask = dense > 0.0
        counts = mask.sum(axis=1, dtype=np.int64)
        width = max(int(counts.max(initial=0)), 1)
        row_of, target_values = np.nonzero(mask)
        offsets = np.zeros(n_states, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        col_of = np.arange(row_of.size) - offsets[row_of]
        data = dense[mask]
    padded = np.zeros((n_states, width))
    padded[row_of, col_of] = data
    cumulative = np.cumsum(padded, axis=1)
    cumulative[np.arange(width) >= counts[:, None]] = np.inf
    targets = np.zeros((n_states, width), dtype=np.int64)
    targets[row_of, col_of] = target_values
    return _EmbeddedChain(targets=targets, cumulative=cumulative, lengths=counts)


def _embedded_rows(chain) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-state ``(targets, cumulative probabilities)`` of the jump chain.

    Views into the padded :func:`_embedded_chain` tables — same arrays the
    old per-state CSR/dense loop produced, built vectorized.
    """
    packed = _embedded_chain(chain)
    return [
        (packed.targets[s, :n], packed.cumulative[s, :n])
        for s, n in enumerate(packed.lengths)
    ]


def sample_mmpp_stream(
    mmpp: MMPP,
    horizon: float,
    rng: np.random.Generator,
    initial_state: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> MMPPStreamArrays:
    """One MMPP arrival stream on ``(0, horizon]`` by uniformization-thinning.

    The modulating chain is walked once as its embedded jump chain (blocked
    exponential sojourns + blocked uniform jump targets — the only Python
    loop, one iteration per *state change*, orders of magnitude rarer than
    arrivals for the paper's parameters).  Candidate arrivals are then laid
    down as a Poisson(``r_max``) stream in one vectorized pass and thinned
    by the state-dependent acceptance probability ``rates[state]/r_max``,
    which yields exactly a Poisson process with the modulated rate
    conditional on the chain trajectory.

    Draw order (the determinism contract): initial state (one stationary
    choice, unless pinned), then the chain walk's interleaved sojourn/jump
    draws, then candidate gaps, then thinning uniforms.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite (got {horizon})")
    rates = np.asarray(mmpp.rates, dtype=float)
    chain = mmpp.chain
    holding = np.asarray(chain.holding_rates(), dtype=float)
    if initial_state is None:
        pi = mmpp.stationary_distribution()
        initial_state = int(rng.choice(rates.size, p=pi))
    elif not 0 <= initial_state < rates.size:
        raise ValueError(f"initial_state {initial_state} out of range")

    rows = _embedded_rows(chain)
    sojourns = ExponentialBatcher(rng, block_size)
    uniforms = _UniformBlocks(rng, block_size)
    with np.errstate(divide="ignore"):
        sojourn_means = np.where(holding > 0.0, 1.0 / holding, np.inf)

    jump_list: list[float] = []
    state_list: list[int] = [initial_state]
    state = initial_state
    now = 0.0
    draw_sojourn = sojourns.draw
    draw_uniform = uniforms.draw
    while holding[state] > 0.0:
        now += draw_sojourn(sojourn_means[state])
        if now > horizon:
            break
        jump_list.append(now)
        targets, cumulative = rows[state]
        position = int(
            np.searchsorted(cumulative, draw_uniform(), side="right")
        )
        if position >= targets.size:  # guard the cumulative-rounding edge
            position = targets.size - 1
        state = int(targets[position])
        state_list.append(state)

    jump_times = np.asarray(jump_list, dtype=float)
    states = np.asarray(state_list, dtype=np.int64)

    r_max = float(rates.max()) if rates.size else 0.0
    if r_max <= 0.0:
        arrivals = np.empty(0)
        candidates = 0
    else:
        candidate_times = _cumulative_exponentials(
            sojourns, 1.0 / r_max, horizon, block_size
        )
        candidates = int(candidate_times.size)
        # State in effect at each candidate: count of jumps at-or-before it.
        state_at = states[
            np.searchsorted(jump_times, candidate_times, side="right")
        ]
        accept = uniforms.draw_block(candidates) * r_max < rates[state_at]
        arrivals = candidate_times[accept]

    return MMPPStreamArrays(
        arrivals=arrivals,
        jump_times=jump_times,
        states=states,
        initial_state=initial_state,
        candidates=candidates,
    )


def lindley_waits(
    arrival_times: np.ndarray,
    service_times: np.ndarray,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    initial_wait: float = 0.0,
) -> np.ndarray:
    """FCFS waiting times by the vectorized, chunked Lindley recursion.

    For ``U[k] = S[k-1] - (A[k] - A[k-1])`` the recursion
    ``W[k] = max(0, W[k-1] + U[k])`` unrolls, within a chunk entered with
    carry ``w0`` and local prefix sums ``C`` (``C[0] = 0``), to

        ``W[k] = max(0, C[k] - min(C[0..k-1]), w0 + C[k])``

    — one ``cumsum`` plus one ``minimum.accumulate`` per chunk, with the
    chunk's last wait carried into the next.  In exact arithmetic this *is*
    the sequential recursion; in floating point the prefix-sum
    reassociation perturbs results by at most a few ulps per chunk (a
    hypothesis test pins bit-exact agreement on a dyadic grid where all
    sums are representable, and ~1e-12 relative agreement in general).
    ``chunk_size`` moves results only within that same tolerance and is
    not part of the determinism contract.  Peak temporary memory is three
    ``chunk_size`` buffers, allocated once and reused by every chunk, on
    top of the output array, which each chunk's waits are written into.
    """
    arrivals = np.ascontiguousarray(arrival_times, dtype=float)
    services = np.ascontiguousarray(service_times, dtype=float)
    if arrivals.ndim != 1 or arrivals.shape != services.shape:
        raise ValueError("arrival and service arrays must be 1-D and aligned")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if not math.isfinite(initial_wait) or initial_wait < 0.0:
        raise ValueError(f"initial_wait must be finite and >= 0 (got {initial_wait})")
    count = arrivals.size
    waits = np.empty(count)
    if count == 0:
        return waits
    if not np.isfinite(services).all() or (services < 0.0).any():
        raise ValueError("service times must be finite and non-negative")
    waits[0] = initial_wait
    carry = initial_wait
    span = min(chunk_size, count - 1)
    increments = np.empty(span)
    prefix = np.zeros(span + 1)
    running_min = np.empty(span)
    for start in range(1, count, chunk_size):
        stop = min(start + chunk_size, count)
        width = stop - start
        gaps = np.subtract(
            arrivals[start:stop], arrivals[start - 1 : stop - 1],
            out=increments[:width],
        )
        if (gaps < 0.0).any():
            raise ValueError("arrival times must be non-decreasing")
        step = np.subtract(services[start - 1 : stop - 1], gaps, out=gaps)
        body = np.cumsum(step, out=prefix[1 : width + 1])
        low = np.minimum.accumulate(prefix[:width], out=running_min[:width])
        np.subtract(body, low, out=low)
        np.add(body, carry, out=body)
        chunk = np.maximum(low, body, out=waits[start:stop])
        np.maximum(chunk, 0.0, out=chunk)
        carry = float(chunk[-1])
    return waits


def _columnar_queue_result(
    arrivals: np.ndarray,
    services: np.ndarray,
    horizon: float,
    warmup: float,
    source_events: int,
    chunk_size: int,
    extras: dict,
) -> SimulationResult:
    """Fold a whole arrival/service stream into a :class:`SimulationResult`.

    Every statistic replicates the heap engine's observation rule — see the
    module docstring's semantics contract.
    """
    waits = lindley_waits(arrivals, services, chunk_size=chunk_size)
    return _queue_result_from_waits(
        arrivals, services, waits, horizon, warmup, source_events, extras
    )


def _queue_result_from_waits(
    arrivals: np.ndarray,
    services: np.ndarray,
    waits: np.ndarray,
    horizon: float,
    warmup: float,
    source_events: int,
    extras: dict,
) -> SimulationResult:
    """The statistics pass shared by the sequential and batched engines.

    Takes precomputed waits so the batched engine can feed its Lindley
    rows through the *same* reductions — bit-identity between the engines
    then follows from identical inputs, not parallel code.  ``arrivals``
    must be sorted (:func:`lindley_waits` rejects decreasing ones), so the
    post-warmup arrivals are the suffix from one ``searchsorted``;
    departures need not be monotone, so the in-horizon test stays a mask.
    """
    observed = max(horizon - warmup, 1e-12)
    first = int(np.searchsorted(arrivals, warmup, side="left"))
    arrivals_total = arrivals.size - first
    starts = arrivals + waits
    departures = starts + services
    in_horizon = departures <= horizon
    served = in_horizon[first:]
    observed_delays = np.compress(served, waits[first:] + services[first:])
    messages_served = int(observed_delays.size)

    if messages_served:
        mean_delay = float(observed_delays.mean())
        mean_wait = float(np.compress(served, waits[first:]).mean())
    else:
        mean_delay = math.nan
        mean_wait = math.nan
    delay_variance = (
        float(observed_delays.var(ddof=1)) if messages_served >= 2 else math.nan
    )
    sigma = (
        float(np.count_nonzero(waits[first:] > 0.0) / arrivals_total)
        if arrivals_total
        else math.nan
    )
    # Busy intervals [start, departure) are disjoint (one server); presence
    # intervals [arrival, departure) overlap-count the number in system.
    # Both clip to [warmup, horizon] over the full rows: a message that
    # arrived before warmup can still be served or present after it.
    capped = np.minimum(departures, horizon, out=departures)
    busy_overlap = np.maximum(starts, warmup, out=starts)
    np.subtract(capped, busy_overlap, out=busy_overlap)
    np.maximum(busy_overlap, 0.0, out=busy_overlap)
    presence_overlap = np.maximum(arrivals, warmup)
    np.subtract(capped, presence_overlap, out=presence_overlap)
    np.maximum(presence_overlap, 0.0, out=presence_overlap)
    utilization = float(busy_overlap.sum() / observed)
    mean_queue_length = float(presence_overlap.sum() / observed)
    events = int(arrivals.size + np.count_nonzero(in_horizon) + source_events)

    return SimulationResult(
        mean_delay=mean_delay,
        mean_wait=mean_wait,
        sigma=sigma,
        utilization=utilization,
        mean_queue_length=mean_queue_length,
        messages_served=messages_served,
        effective_arrival_rate=arrivals_total / observed,
        horizon=horizon,
        delay_variance=delay_variance,
        events_processed=events,
        extras=extras,
    )


def _service_block(
    rng: np.random.Generator, count: int, service_rate: float, block_size: int
) -> np.ndarray:
    if service_rate <= 0.0 or not math.isfinite(service_rate):
        raise ValueError(
            f"service_rate must be positive and finite (got {service_rate})"
        )
    if count == 0:
        return np.empty(0)
    return ExponentialBatcher(rng, block_size).draw_block(
        count, 1.0 / service_rate
    )


def simulate_poisson_columnar(
    rate: float,
    horizon: float,
    service_rate: float,
    seed: int = 0,
    warmup: float | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> SimulationResult:
    """Columnar M/M/1: Poisson arrivals through the vectorized FCFS queue.

    The warmup default (5 % of the horizon) matches
    :func:`~repro.sim.replication.simulate_source_mm1`, so columnar and
    heap runs of the same workload estimate the same quantities.
    """
    if warmup is None:
        warmup = 0.05 * horizon
    _validate_window(horizon, warmup)
    streams = RandomStreams(seed)
    arrivals = sample_poisson_stream(
        rate, horizon, streams.get("columnar-source"), block_size=block_size
    )
    services = _service_block(
        streams.get("columnar-server"), arrivals.size, service_rate, block_size
    )
    return _columnar_queue_result(
        arrivals,
        services,
        horizon,
        warmup,
        source_events=0,
        chunk_size=chunk_size,
        extras={"engine": "columnar", "source": "poisson"},
    )


def simulate_mmpp_columnar(
    mmpp: MMPP,
    horizon: float,
    service_rate: float,
    seed: int = 0,
    warmup: float | None = None,
    initial_state: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> SimulationResult:
    """Columnar MMPP/M/1: one thinned stream through the Lindley queue."""
    if warmup is None:
        warmup = 0.05 * horizon
    _validate_window(horizon, warmup)
    streams = RandomStreams(seed)
    stream = sample_mmpp_stream(
        mmpp,
        horizon,
        streams.get("columnar-source"),
        initial_state=initial_state,
        block_size=block_size,
    )
    services = _service_block(
        streams.get("columnar-server"),
        stream.arrivals.size,
        service_rate,
        block_size,
    )
    return _columnar_queue_result(
        stream.arrivals,
        services,
        horizon,
        warmup,
        source_events=stream.num_jumps,
        chunk_size=chunk_size,
        extras={
            "engine": "columnar",
            "source": "mmpp",
            "modulating_states": int(np.asarray(mmpp.rates).size),
            "modulating_jumps": stream.num_jumps,
            "thinning_candidates": stream.candidates,
        },
    )


def simulate_hap_approx_columnar(
    params: HAPParameters,
    horizon: float,
    seed: int = 0,
    service_rate: float | None = None,
    warmup: float | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> SimulationResult:
    """Columnar M/HAP-approx/1 via the Section-3.1 symmetric MMPP mapping.

    The symmetric HAP's message process is exactly an MMPP on the collapsed
    ``(x, y)`` lattice; the only approximation is the truncation box (whose
    stationary boundary mass is tiny at the default bounds — the same chain
    Solutions 0/1 analyze).  Warmup and service-rate defaults match
    :func:`~repro.sim.replication.simulate_hap_mm1` so delay estimates are
    directly comparable to heap replications of the same parameters.
    """
    from repro.core.mmpp_mapping import symmetric_hap_to_mmpp

    if service_rate is None:
        service_rate = params.common_service_rate()
    if warmup is None:
        warmup = min(10.0 / params.user_departure_rate, 0.1 * horizon)
    mapped = symmetric_hap_to_mmpp(params)
    result = simulate_mmpp_columnar(
        mapped.mmpp,
        horizon,
        service_rate,
        seed=seed,
        warmup=warmup,
        block_size=block_size,
        chunk_size=chunk_size,
    )
    result.extras["source"] = "hap-approx"
    return result
