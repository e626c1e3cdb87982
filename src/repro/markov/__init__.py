"""Continuous-time Markov chain and MMPP substrate.

This package provides the generic stochastic-process machinery that the HAP
model is built on:

* :mod:`repro.markov.ctmc` — generator-matrix CTMCs, stationary solves,
  uniformization, and path simulation.
* :mod:`repro.markov.birth_death` — birth–death chains and the classical
  special cases (M/M/1, M/M/∞, Erlang/truncated-Poisson).
* :mod:`repro.markov.mmpp` — Markov-modulated Poisson processes given as
  (Q, rates) or (D0, D1), with moments, IDC, superposition and 2-state
  moment-matched fitting (the "conventional MMPP" baseline of the paper).
* :mod:`repro.markov.matrix_geometric` — Neuts' matrix-geometric solution of
  the MMPP/M/1 quasi-birth-death queue.
* :mod:`repro.markov.truncation` — enumeration and sparse-generator assembly
  for truncated multi-dimensional state spaces.
"""

from repro import _lazy_exports

__all__ = _lazy_exports(
    globals(),
    {
        ".birth_death": (
            "BirthDeathChain",
            "erlang_blocking_probability",
            "mm1_queue_length_distribution",
            "mminf_stationary",
            "truncated_poisson_pmf",
        ),
        ".ctmc": ("CTMC",),
        ".matrix_geometric": ("QBDSolution", "solve_mmpp_m1"),
        ".mmpp": ("MMPP", "fit_mmpp2_to_moments"),
        ".truncation": ("StateSpace", "build_generator"),
        ".uniformization": ("UNIFORMIZATION_MARGIN",),
    },
)
