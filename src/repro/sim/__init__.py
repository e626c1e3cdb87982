"""Discrete-event simulation substrate.

The paper validates every analytic result against an event-driven simulator;
this package is that simulator:

* :mod:`repro.sim.engine` — the event loop (heap scheduler with cancellable
  events).
* :mod:`repro.sim.random_streams` — seeded, named random-number substreams
  and the distribution objects the sources draw from.
* :mod:`repro.sim.sources` — traffic sources: the full HAP hierarchy,
  HAP-CS, Poisson, MMPP, on–off/IPP, and packet trains.
* :mod:`repro.sim.server` — the FCFS exponential (or general) single-server
  queue the messages feed.
* :mod:`repro.sim.monitors` — tallies, time-weighted statistics and traces.
* :mod:`repro.sim.busy_periods` — busy-period / "mountain" analysis
  (Figures 14, 15, 18).
* :mod:`repro.sim.replication` — warmup handling, replications, batch means,
  and the high-level :func:`repro.sim.replication.simulate_hap_mm1` driver.
* :mod:`repro.sim.columnar` — the columnar execution mode: whole-stream
  numpy generation (uniformization-thinning) plus a vectorized Lindley
  queue, an order of magnitude faster than the heap for chain-modulated
  sources.
"""

from repro import _lazy_exports

__all__ = _lazy_exports(
    globals(),
    {
        ".busy_periods": ("BusyPeriod", "BusyPeriodStats", "analyze_busy_periods"),
        ".columnar": (
            "lindley_waits",
            "sample_mmpp_stream",
            "sample_poisson_stream",
            "simulate_hap_approx_columnar",
            "simulate_mmpp_columnar",
            "simulate_poisson_columnar",
        ),
        ".engine": ("Event", "Simulator"),
        ".monitors": ("Tally", "TimeWeightedValue", "TraceRecorder"),
        ".network": ("TandemNetwork",),
        ".protocol": ("Fragmenter", "WindowRegulator"),
        ".random_streams": (
            "Deterministic",
            "Erlang",
            "Exponential",
            "Hyperexponential",
            "Pareto",
            "RandomStreams",
        ),
        ".replication": ("SimulationResult", "simulate_hap_mm1", "simulate_source_mm1"),
        ".server": ("FCFSQueue", "Message"),
        ".sources": (
            "ClientServerHAPSource",
            "HAPSource",
            "MMPPSource",
            "OnOffSource",
            "PacketTrainSource",
            "PoissonSource",
        ),
    },
)
