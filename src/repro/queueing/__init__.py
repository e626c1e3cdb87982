"""Analytic queueing-theory substrate.

Classical single-server results used throughout the reproduction:

* :mod:`repro.queueing.mm1` — M/M/1, the paper's Poisson baseline.
* :mod:`repro.queueing.mg1` — M/G/1 Pollaczek–Khinchine results.
* :mod:`repro.queueing.gm1` — G/M/1 via the root ``sigma`` of
  ``A*(mu - mu sigma) = sigma``, including the paper's averaging
  "σ-algorithm" and a fast Brent variant.
* :mod:`repro.queueing.littles_law` — Little's-law helpers.
* :mod:`repro.queueing.laplace` — numerical Laplace transforms of densities
  and complementary CDFs.
"""

from repro import _lazy_exports

__all__ = _lazy_exports(
    globals(),
    {
        ".gm1": ("GM1Solution", "sigma_fixed_point_paper", "solve_gm1"),
        ".laplace": ("laplace_of_density", "laplace_of_interarrival_from_ccdf"),
        ".littles_law": ("mean_delay_from_queue", "mean_queue_from_delay"),
        ".mg1": ("MG1Solution", "solve_mg1"),
        ".mm1": ("MM1Solution", "solve_mm1"),
    },
)
