"""Online admission control: the production half of Section 7.

The paper's deployment story computes admissible regions *offline* and
answers each connection request with a table lookup at the interface.
:mod:`repro.control` reproduces the offline half; this package serves it:

* :mod:`repro.service.surfaces` — precomputed decision surfaces (admissible
  ``(n_1, n_2)`` boundary over a delay-target grid, plus the
  bandwidth-for-delay curve), built by fanning
  :func:`repro.runtime.analytic.run_analytic_sweep` over the grid and
  persisted as a versioned JSON artifact loaded at service boot.
* :mod:`repro.service.server` — an asyncio (stdlib-only) admission-control
  service with a three-tier answer path: exact-grid surface lookup,
  conservative interpolation between grid points, and a true solver miss
  executed off the event loop in a reusable worker pool.  Timed-out,
  poisoned, or failed solves degrade to a conservative *deny* — the service
  may refuse traffic the network could carry, but never admits traffic that
  would violate the delay target, and never hangs a request.
* :mod:`repro.service.client` — newline-delimited-JSON TCP client (single
  and pipelined-batch verbs) and the closed-loop load generator behind
  ``cli bench-serve``.
* :mod:`repro.service.sharded` — the multi-core fleet: ``SO_REUSEPORT``
  shard processes behind one address, each booted and hot-reloaded from
  the same JSON artifact text, a shared-memory per-tier counter table,
  and a supervisor that respawns crashed shards on the
  :mod:`repro.runtime.resilience` backoff schedule.
"""

from repro import _lazy_exports

__all__ = _lazy_exports(
    globals(),
    {
        ".client": ("AdmissionClient", "LoadReport", "run_load"),
        ".server": (
            "AdmissionService",
            "BandwidthAnswer",
            "BatchDecision",
            "Decision",
            "start_server",
        ),
        ".sharded": ("FleetCounters", "ShardFleet"),
        ".surfaces": (
            "SURFACE_SCHEMA",
            "DecisionSurfaces",
            "build_decision_surfaces",
            "load_surfaces",
            "save_surfaces",
        ),
    },
)
