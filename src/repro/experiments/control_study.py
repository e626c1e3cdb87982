"""Sections 6–7 — the broadband-control design study.

Not a numbered figure, but the paper's stated purpose for HAP: admission
control and bandwidth allocation.  This experiment exercises the
:mod:`repro.control` pipeline end to end:

1. the misengineering gap — bandwidth sized by the Poisson rule versus by
   HAP's Solution 2, for the same delay target (the paper's warning:
   Poisson sizing underprovisions, and the penalty explodes with load);
2. an admissible-call region for a two-application-type HAP, its Hui-style
   linear approximation, and the resulting admission lookup table;
3. a CL-overlay design on a small ATM topology.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control.admission_table import (
    build_admission_table,
    linear_region_approximation,
)
from repro.control.bandwidth import bandwidth_for_delay_target
from repro.control.overlay import OverlayDesign, design_cl_overlay
from repro.core.params import ApplicationType, HAPParameters, MessageType
from repro.core.solution2 import solve_solution2
from repro.experiments.configs import base_parameters

__all__ = [
    "BandwidthGapPoint",
    "run_admission_study",
    "run_bandwidth_gap",
    "run_overlay_design",
]


@dataclass(frozen=True)
class BandwidthGapPoint:
    """Poisson-sized versus HAP-sized bandwidth at one delay target."""

    delay_target: float
    bandwidth_poisson: float
    bandwidth_hap: float
    delay_if_poisson_sized: float

    @property
    def underprovision_factor(self) -> float:
        """How much extra bandwidth HAP sizing demands."""
        return self.bandwidth_hap / self.bandwidth_poisson

    def describe(self) -> str:
        """One row of the misengineering table."""
        return (
            f"target T={self.delay_target:g}: Poisson mu={self.bandwidth_poisson:.2f} "
            f"HAP mu={self.bandwidth_hap:.2f} "
            f"(x{self.underprovision_factor:.2f}); Poisson-sized link actually "
            f"delivers T={self.delay_if_poisson_sized:.4g}"
        )


def run_bandwidth_gap(
    delay_targets: tuple[float, ...] = (0.3, 0.2, 0.15, 0.12),
) -> list[BandwidthGapPoint]:
    """Size the base workload's link by both rules at several targets."""
    params = base_parameters()
    lam = params.mean_message_rate
    points = []
    for target in delay_targets:
        poisson_mu = lam + 1.0 / target  # M/M/1: T = 1/(mu - lambda)
        hap_mu = bandwidth_for_delay_target(params, target)
        actual = solve_solution2(params, poisson_mu).mean_delay
        points.append(
            BandwidthGapPoint(
                delay_target=target,
                bandwidth_poisson=poisson_mu,
                bandwidth_hap=hap_mu,
                delay_if_poisson_sized=actual,
            )
        )
    return points


def two_type_hap() -> HAPParameters:
    """A 2-application-type HAP (interactive + file transfer) for the region."""
    interactive = ApplicationType(
        arrival_rate=0.01,
        departure_rate=0.01,
        messages=(MessageType(arrival_rate=0.1, service_rate=20.0, name="query"),),
        name="interactive",
    )
    transfer = ApplicationType(
        arrival_rate=0.005,
        departure_rate=0.01,
        messages=(MessageType(arrival_rate=0.3, service_rate=20.0, name="block"),),
        name="file-transfer",
    )
    return HAPParameters(
        user_arrival_rate=0.0055,
        user_departure_rate=0.001,
        applications=(interactive, transfer),
        name="two-type",
    )


def run_admission_study(
    delay_target: float = 0.12, max_population: int = 60
) -> tuple:
    """Admissible region, its linear approximation, and the lookup table.

    Returns ``(table, (N1, N2))`` — the staircase table and the Hui-style
    axis intercepts for table-free admission.
    """
    params = two_type_hap()
    table = build_admission_table(
        params, delay_target=delay_target, max_population=max_population
    )
    intercepts = linear_region_approximation(list(table.boundary))
    return table, intercepts


def run_overlay_design(delay_target: float = 0.2) -> OverlayDesign:
    """Size a CL overlay on a 5-node ATM mesh carrying three HAP demands."""
    import networkx as nx

    topology = nx.Graph()
    topology.add_edges_from(
        [
            ("lan-a", "switch-1"),
            ("lan-b", "switch-1"),
            ("switch-1", "switch-2"),
            ("switch-2", "lan-c"),
            ("switch-2", "lan-d"),
        ]
    )
    demand_hap = base_parameters()
    demands = {
        "a-to-c": ("lan-a", "lan-c", demand_hap),
        "b-to-c": ("lan-b", "lan-c", demand_hap),
        "a-to-d": ("lan-a", "lan-d", demand_hap),
    }
    return design_cl_overlay(topology, demands, delay_target=delay_target)
