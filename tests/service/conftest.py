"""Shared fixtures: one small decision surface reused across service tests.

The surface build runs dozens of Solution-2 solves; building it once
per session (module-scoped fixtures would still rebuild per file) keeps the
service suite in seconds.
"""

from __future__ import annotations

import pytest

from repro.core.params import HAPParameters
from repro.service.surfaces import DecisionSurfaces, build_decision_surfaces


def _small_params() -> HAPParameters:
    return HAPParameters.symmetric(
        user_arrival_rate=0.05,
        user_departure_rate=0.05,
        app_arrival_rate=0.05,
        app_departure_rate=0.05,
        message_arrival_rate=0.4,
        message_service_rate=3.0,
        num_app_types=2,
        num_message_types=1,
        name="small",
    )


@pytest.fixture(scope="session")
def surface_params() -> HAPParameters:
    """The 2-type HAP the session surface is built for."""
    return _small_params()


@pytest.fixture(scope="session")
def surfaces(surface_params) -> DecisionSurfaces:
    """A small but non-trivial decision surface (3 targets x 9 columns)."""
    return build_decision_surfaces(
        surface_params,
        (0.6, 0.9, 1.4),
        max_population=8,
        max_workers=1,
    )
