"""High-level simulation drivers: warmup, replications, batch means.

:func:`simulate_hap_mm1` is the workhorse behind every simulated figure: it
wires a :class:`~repro.sim.sources.HAPSource` to a
:class:`~repro.sim.server.FCFSQueue`, handles warmup (with a warm-started
hierarchy), and returns a :class:`SimulationResult` carrying every statistic
the paper reports.  :func:`simulate_source_mm1` does the same for any other
source (Poisson, MMPP, on–off, packet train), so HAP-versus-baseline
comparisons share one code path.

The paper highlights (Figure 13) how slowly HAP simulations converge —
user-level dynamics at tens of minutes versus message service at tens of
milliseconds.  :func:`replicate` runs independent replications and reports a
confidence interval, which is how the benchmarks bound that fluctuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.client_server import ClientServerHAPParameters
from repro.core.params import HAPParameters
from repro.sim.busy_periods import BusyPeriodStats, analyze_busy_periods
from repro.sim.engine import Simulator
from repro.sim.random_streams import Exponential, RandomStreams
from repro.sim.server import FCFSQueue
from repro.sim.sources import ClientServerHAPSource, HAPSource

__all__ = [
    "SimulationResult",
    "replicate",
    "simulate_client_server_mm1",
    "simulate_hap_mm1",
    "simulate_source_mm1",
]


@dataclass
class SimulationResult:
    """Everything one simulation run measured.

    Attributes mirror the paper's reported quantities; trace fields are None
    unless the run was asked to record them.
    """

    mean_delay: float
    mean_wait: float
    sigma: float
    utilization: float
    mean_queue_length: float
    messages_served: int
    effective_arrival_rate: float
    horizon: float
    busy_stats: BusyPeriodStats | None = None
    queue_trace: tuple[np.ndarray, np.ndarray] | None = None
    user_trace: tuple[np.ndarray, np.ndarray] | None = None
    app_trace: tuple[np.ndarray, np.ndarray] | None = None
    mean_users: float = math.nan
    mean_apps: float = math.nan
    delay_variance: float = math.nan
    events_processed: int = 0
    extras: dict = field(default_factory=dict)

    def littles_law_residual(self) -> float:
        """Relative gap between ``N`` and ``lambda T`` — a self-check."""
        if self.mean_queue_length == 0:
            return math.nan
        predicted = self.effective_arrival_rate * self.mean_delay
        return abs(predicted - self.mean_queue_length) / self.mean_queue_length


def simulate_hap_mm1(
    params: HAPParameters,
    horizon: float,
    seed: int = 0,
    service_rate: float | None = None,
    warmup: float | None = None,
    prepopulate: bool = True,
    trace_stride: int = 0,
    population_trace_stride: int = 0,
    collect_busy_periods: bool = False,
) -> SimulationResult:
    """Simulate a HAP feeding an exponential FCFS server.

    Parameters
    ----------
    params:
        The HAP description.
    horizon:
        Simulated time (seconds, in the paper's units).
    seed:
        Master seed; source and server use independent substreams.
    service_rate:
        ``mu''``; defaults to the common message service rate.
    warmup:
        Statistics collection starts here; defaults to 10 user lifetimes or
        10 % of the horizon, whichever is smaller (with ``prepopulate`` the
        hierarchy starts near stationarity so a short warmup suffices).
    prepopulate:
        Start with stationary user/application populations.
    trace_stride:
        Record the queue length at every ``stride``-th change (0 = off);
        required (with 1) for exact busy-period heights.
    population_trace_stride:
        Record user/app population traces (Figures 16–17).
    collect_busy_periods:
        Compute :class:`~repro.sim.busy_periods.BusyPeriodStats`.
    """
    if service_rate is None:
        service_rate = params.common_service_rate()
    if warmup is None:
        warmup = min(10.0 / params.user_departure_rate, 0.1 * horizon)
    _validate_window(horizon, warmup)
    if collect_busy_periods and trace_stride == 0:
        trace_stride = 1

    sim = Simulator()
    streams = RandomStreams(seed)
    queue = FCFSQueue(
        sim,
        Exponential(service_rate),
        streams.get("server"),
        trace_stride=trace_stride,
        warmup=warmup,
    )
    source = HAPSource(
        sim,
        params,
        streams.get("hap-source"),
        queue.arrive,
        track_populations=True,
        trace_stride=population_trace_stride,
    )
    if prepopulate:
        source.prepopulate()
    source.start()
    sim.run_until(horizon)
    queue.finalize()
    source.finalize()

    return _collect(
        queue,
        horizon,
        warmup,
        collect_busy_periods,
        mean_users=source.user_population.time_average,
        mean_apps=source.app_population.time_average,
        user_trace=source.user_trace.as_arrays() if source.user_trace else None,
        app_trace=source.app_trace.as_arrays() if source.app_trace else None,
    )


def simulate_source_mm1(
    make_source,
    horizon: float,
    service_rate: float,
    seed: int = 0,
    warmup: float | None = None,
    trace_stride: int = 0,
    collect_busy_periods: bool = False,
) -> SimulationResult:
    """Simulate an arbitrary source against an exponential FCFS server.

    Parameters
    ----------
    make_source:
        Callable ``(sim, rng, emit) -> source`` where the source exposes
        ``start()``; see :mod:`repro.sim.sources` for ready-made ones.
    horizon, service_rate, seed, warmup, trace_stride, collect_busy_periods:
        As in :func:`simulate_hap_mm1`.
    """
    if warmup is None:
        warmup = 0.05 * horizon
    _validate_window(horizon, warmup)
    if collect_busy_periods and trace_stride == 0:
        trace_stride = 1
    sim = Simulator()
    streams = RandomStreams(seed)
    queue = FCFSQueue(
        sim,
        Exponential(service_rate),
        streams.get("server"),
        trace_stride=trace_stride,
        warmup=warmup,
    )
    source = make_source(sim, streams.get("source"), queue.arrive)
    source.start()
    sim.run_until(horizon)
    queue.finalize()
    return _collect(queue, horizon, warmup, collect_busy_periods)


def simulate_client_server_mm1(
    params: ClientServerHAPParameters,
    horizon: float,
    service_rate: float,
    seed: int = 0,
    warmup: float | None = None,
    prepopulate: bool = True,
) -> SimulationResult:
    """Simulate a HAP-CS source with request/response chains at one queue.

    The queue's ``on_departure`` hook feeds completions back to the source,
    closing the client–server loop; ``extras`` carries the request/response
    counts so tests can verify the chain-amplification closed form.
    """
    if warmup is None:
        warmup = min(10.0 / params.user_departure_rate, 0.1 * horizon)
    _validate_window(horizon, warmup)
    sim = Simulator()
    streams = RandomStreams(seed)
    source_holder: list[ClientServerHAPSource] = []

    def on_departure(sim_, message):
        source_holder[0].handle_departure(sim_, message)

    queue = FCFSQueue(
        sim,
        Exponential(service_rate),
        streams.get("server"),
        warmup=warmup,
        on_departure=on_departure,
    )
    source = ClientServerHAPSource(
        sim, params, streams.get("hap-cs-source"), queue.arrive
    )
    source_holder.append(source)
    if prepopulate:
        source.prepopulate()
    source.start()
    sim.run_until(horizon)
    queue.finalize()
    result = _collect(queue, horizon, warmup, collect_busy_periods=False)
    result.extras["requests_emitted"] = source.requests_emitted
    result.extras["responses_emitted"] = source.responses_emitted
    return result


def _validate_window(horizon: float, warmup: float) -> None:
    """Reject measurement windows that are empty or inverted.

    ``warmup >= horizon`` used to slip through and divide the arrival count
    by the ``1e-12`` floor in :func:`_collect`, yielding an absurd
    ``effective_arrival_rate`` (and NaN-free garbage downstream) instead of
    an error.
    """
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError(f"horizon must be positive and finite (got {horizon})")
    if not math.isfinite(warmup) or warmup < 0:
        raise ValueError(f"warmup must be finite and >= 0 (got {warmup})")
    if warmup >= horizon:
        raise ValueError(
            f"warmup ({warmup}) must end before the horizon ({horizon}); "
            "nothing would be measured"
        )


def _collect(
    queue: FCFSQueue,
    horizon: float,
    warmup: float,
    collect_busy_periods: bool,
    mean_users: float = math.nan,
    mean_apps: float = math.nan,
    user_trace=None,
    app_trace=None,
) -> SimulationResult:
    observed = max(horizon - warmup, 1e-12)
    busy_stats = None
    if collect_busy_periods:
        _, busy_stats = analyze_busy_periods(queue)
    return SimulationResult(
        mean_delay=queue.mean_delay,
        mean_wait=queue.waits.mean,
        sigma=queue.sigma_estimate,
        utilization=queue.utilization_estimate,
        mean_queue_length=queue.mean_queue_length,
        messages_served=queue.delays.count,
        effective_arrival_rate=queue.arrivals_total / observed,
        horizon=horizon,
        busy_stats=busy_stats,
        queue_trace=queue.trace.as_arrays() if queue.trace else None,
        user_trace=user_trace,
        app_trace=app_trace,
        mean_users=mean_users,
        mean_apps=mean_apps,
        delay_variance=queue.delays.variance,
        events_processed=queue.sim.events_processed,
    )


@dataclass(frozen=True)
class ReplicationSummary:
    """Mean and confidence half-width of a statistic across replications."""

    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        """Across-replication mean."""
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        """Across-replication sample standard deviation."""
        return float(np.std(self.values, ddof=1)) if len(self.values) > 1 else math.nan

    def half_width(self, confidence: float = 0.95) -> float:
        """Student-t confidence half-width."""
        from scipy.stats import t as student_t

        n = len(self.values)
        if n < 2:
            return math.nan
        quantile = student_t.ppf(0.5 + confidence / 2.0, df=n - 1)
        return float(quantile * self.std / math.sqrt(n))


def replicate(
    run_one,
    num_replications: int,
    base_seed: int = 0,
    max_workers: int = 1,
) -> dict[str, ReplicationSummary]:
    """Run ``run_one(seed) -> SimulationResult`` over distinct seeds.

    Returns summaries for the scalar statistics (delay, sigma, utilization,
    queue length) keyed by name.  Delegates to
    :class:`repro.runtime.executor.ParallelReplicator`; seeds are
    ``base_seed + k`` at every worker count, and results are assembled in
    replication order, so ``max_workers=4`` returns summaries bit-identical
    to the legacy serial loop (``max_workers=1``, the default).  A
    replication that raises re-raises here — use the runtime directly for
    failure-tolerant campaigns.
    """
    from repro.runtime.executor import ParallelReplicator

    campaign = ParallelReplicator(max_workers=max_workers).run(
        run_one, num_replications, base_seed=base_seed
    )
    campaign.raise_if_failed()
    return campaign.summaries()
