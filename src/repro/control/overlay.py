"""Connectionless (CL) overlay design on an ATM substrate (Section 7).

The paper closes with the B-ISDN design problem it motivates: given the
physical ATM topology and HAP descriptions of the CL traffic between LAN/MAN
attachment points, design the CL overlay — which virtual paths to set up and
how much bandwidth to give each — subject to a delay requirement
(CCITT I.211/I.327 framing).

This module is a working small-scale version of that study:

1. each traffic demand (a HAP per source–destination pair) is routed on the
   shortest physical path (networkx);
2. demands sharing a link are superposed — their HAPs merge by concatenating
   application types, which is exact for independent HAPs with a common user
   population model (the library verifies rate additivity in tests);
3. each link's bandwidth is sized with
   :func:`repro.control.bandwidth.bandwidth_for_delay_target` on the merged
   HAP, and the Poisson-sized alternative is reported for contrast — the
   paper's point being that Poisson sizing *underprovisions*.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.control.bandwidth import bandwidth_for_delay_target
from repro.core.params import HAPParameters

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["OverlayDesign", "design_cl_overlay", "merge_haps"]


def merge_haps(haps: list[HAPParameters], name: str = "merged") -> HAPParameters:
    """Superpose independent HAPs sharing one user-population model.

    All inputs must agree on the user-level rates (they describe the same
    user community reaching different servers); the merged HAP carries the
    union of their application types, so its ``lambda-bar`` is the sum of
    the components' (Equation 4 is linear in the application types).
    """
    if not haps:
        raise ValueError("nothing to merge")
    first = haps[0]
    for hap in haps[1:]:
        if (
            hap.user_arrival_rate != first.user_arrival_rate
            or hap.user_departure_rate != first.user_departure_rate
        ):
            raise ValueError(
                "merge_haps needs a common user population across components"
            )
    applications = tuple(app for hap in haps for app in hap.applications)
    return replace(first, applications=applications, name=name)


@dataclass(frozen=True)
class OverlayDesign:
    """The designed CL overlay.

    Attributes
    ----------
    routes:
        Demand id -> list of nodes along the chosen physical path.
    link_bandwidth:
        (u, v) -> bandwidth allocated with the HAP rule.
    link_bandwidth_poisson:
        The same links sized by the M/M/1 rule — systematically smaller,
        which is the paper's warning.
    total_bandwidth:
        Sum of HAP-sized link allocations.
    """

    routes: dict[str, list]
    link_bandwidth: dict[tuple, float]
    link_bandwidth_poisson: dict[tuple, float]
    total_bandwidth: float

    def describe(self) -> str:
        """Per-link allocation report."""
        lines = []
        for link, bandwidth in sorted(self.link_bandwidth.items()):
            poisson = self.link_bandwidth_poisson[link]
            lines.append(
                f"link {link}: HAP={bandwidth:.3f} Poisson={poisson:.3f} "
                f"(+{100 * (bandwidth / poisson - 1):.1f}%)"
            )
        lines.append(f"total HAP bandwidth: {self.total_bandwidth:.3f}")
        return "\n".join(lines)


def design_cl_overlay(
    topology: nx.Graph,
    demands: dict[str, tuple],
    delay_target: float,
) -> OverlayDesign:
    """Design the CL overlay for ``demands`` on ``topology``.

    Parameters
    ----------
    topology:
        Physical graph; edges may carry a ``weight`` for routing.
    demands:
        Demand id -> ``(source, destination, HAPParameters)``.
    delay_target:
        Per-link mean-delay requirement for the CL service.

    Raises
    ------
    networkx.NetworkXNoPath
        When a demand cannot be routed.
    """
    import networkx as nx

    routes: dict[str, list] = {}
    per_link: dict[tuple, list[HAPParameters]] = {}
    for demand_id, (source, destination, hap) in demands.items():
        path = nx.shortest_path(topology, source, destination, weight="weight")
        routes[demand_id] = path
        for u, v in zip(path[:-1], path[1:]):
            link = (u, v) if (u, v) in per_link or (v, u) not in per_link else (v, u)
            per_link.setdefault(link, []).append(hap)

    link_bandwidth: dict[tuple, float] = {}
    link_bandwidth_poisson: dict[tuple, float] = {}
    for link, haps in per_link.items():
        merged = merge_haps(haps, name=f"link-{link}")
        link_bandwidth[link] = bandwidth_for_delay_target(merged, delay_target)
        # M/M/1 sizing: T = 1 / (mu - lambda) <= target.
        link_bandwidth_poisson[link] = (
            merged.mean_message_rate + 1.0 / delay_target
        )
    return OverlayDesign(
        routes=routes,
        link_bandwidth=link_bandwidth,
        link_bandwidth_poisson=link_bandwidth_poisson,
        total_bandwidth=sum(link_bandwidth.values()),
    )
