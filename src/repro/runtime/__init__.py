"""Parallel replication runtime: process-pool campaigns with serial fidelity.

The paper's own Figure 13 makes the case for this subsystem: HAP
simulations converge painfully slowly because user-level dynamics evolve
over tens of minutes while message service takes milliseconds, so every
simulated figure needs many long *independent* replications.  Independence
is an opportunity — replications share nothing, so they can fan out over a
process pool with zero coordination.  The contract that makes the fan-out
safe is *serial fidelity*: seeds are derived exactly as the legacy serial
loop derived them, and results are re-ordered by replication index, so a
parallel campaign is bit-identical to the serial one.

Two layers:

* :class:`~repro.runtime.executor.ParallelReplicator` runs ``run_one(seed)``
  over ``n`` seeds (one parameter point, many replications) with failure
  capture and progress/timing stats.
* :func:`~repro.runtime.sweep.sweep` runs a grid of parameter points ×
  replications — the shape every ``repro.experiments.fig*`` driver needs —
  with chunked dispatch and an optional wall-clock budget.

Fault tolerance rides on both layers via :mod:`repro.runtime.resilience`
(per-job timeouts, seed-preserving retries, pool respawn on worker death,
crash-safe checkpoint journals) and is proven by the deterministic
fault-injection harness in :mod:`repro.runtime.chaos`.
"""

from repro import _lazy_exports

__all__ = _lazy_exports(
    globals(),
    {
        ".analytic": ("run_analytic_sweep",),
        ".chaos": ("ChaosPlan",),
        ".columnar": ("ColumnarReplication", "run_columnar_campaign"),
        ".executor": (
            "CampaignResult",
            "ParallelReplicator",
            "ReplicationError",
            "ReplicationFailure",
            "default_worker_count",
            "derive_seeds",
        ),
        ".resilience": (
            "CheckpointJournal",
            "DegradationChain",
            "DegradationError",
            "RetryPolicy",
            "SolveDiagnostics",
        ),
        ".sweep": (
            "SweepCampaignResult",
            "SweepPoint",
            "SweepPointResult",
            "SweepResult",
            "sweep",
        ),
    },
)
