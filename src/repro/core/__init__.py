"""HAP — the paper's primary contribution.

The model (:mod:`repro.core.params`, :mod:`repro.core.model`,
:mod:`repro.core.client_server`, :mod:`repro.core.onoff`), its MMPP mapping
(:mod:`repro.core.mmpp_mapping`), the closed-form interarrival distribution
(:mod:`repro.core.interarrival`), the three queueing solutions
(:mod:`repro.core.solution0`, :mod:`repro.core.solution1`,
:mod:`repro.core.solution2`), burstiness metrics
(:mod:`repro.core.burstiness`) and admission bounding
(:mod:`repro.core.admission`).
"""

from repro import _lazy_exports

__all__ = _lazy_exports(
    globals(),
    {
        ".admission": (
            "BoundedSolution2Result",
            "bounded_mean_message_rate",
            "bounded_modulating_mmpp",
            "solve_bounded_solution2",
        ),
        ".arrival_rate": (
            "equivalent_rate_family",
            "mean_message_rate",
            "symmetric_mean_message_rate",
        ),
        ".burstiness": ("BurstinessReport", "burstiness_report", "rate_moments"),
        ".client_server": (
            "ClientServerApplicationType",
            "ClientServerHAPParameters",
            "ClientServerMessageType",
            "chain_amplification",
        ),
        ".interarrival": (
            "InterarrivalDistribution",
            "density_intersections",
            "poisson_interarrival_density",
        ),
        ".mmpp_mapping": (
            "MappedMMPP",
            "default_bounds",
            "hap_to_mmpp",
            "symmetric_hap_to_mmpp",
        ),
        ".model": ("HAP",),
        ".onoff": ("InterruptedPoisson", "TwoLevelHAP"),
        ".params": ("ApplicationType", "HAPParameters", "MessageType"),
        ".solution0": ("Solution0Result", "solve_solution0"),
        ".solution1": ("Solution1Result", "solve_solution1"),
        ".solution2": ("Solution2Result", "condition_report", "solve_solution2"),
    },
)
