"""Broadband network control applications (Sections 6–7 of the paper).

The paper's closing argument is that HAP should be "the computational base
to estimate the admissible workload for a given bandwidth (admission
control), or the required bandwidth for a given workload (bandwidth
allocation)", with admissible-call regions precomputed into lookup tables at
each ATM interface, and a connectionless (CL) overlay designed on top.

* :mod:`repro.control.admission_table` — admissible workload search and the
  precomputed decision table, with Hui-style linear approximation of the
  admissible region boundary.
* :mod:`repro.control.bandwidth` — minimum service rate meeting a delay (or
  waiting-time-percentile) target.
* :mod:`repro.control.overlay` — a small CL-overlay design study on a
  networkx topology: route CL traffic over virtual paths and size them with
  the HAP bandwidth rule.
"""

from repro import _lazy_exports

__all__ = _lazy_exports(
    globals(),
    {
        ".admission_table": (
            "AdmissionTable",
            "ProbeStats",
            "admissible_region",
            "build_admission_table",
            "clear_probe_cache",
            "linear_region_approximation",
            "max_admissible_user_rate",
            "pinned_population_params",
            "probe_stats",
        ),
        ".bandwidth": ("bandwidth_for_delay_target", "bandwidth_for_wait_percentile"),
        ".overlay": ("OverlayDesign", "design_cl_overlay"),
    },
)
