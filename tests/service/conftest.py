"""Shared fixtures: one small decision surface reused across service tests.

The surface build runs dozens of Solution-2 solves; building it once
per session (module-scoped fixtures would still rebuild per file) keeps the
service suite in seconds.  ``MALFORMED_ARTIFACTS`` lists the broken
artifacts the surface loader, the CLI and the fleet's reload must refuse.
"""

from __future__ import annotations

import json
import math

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


#: Schema-tagged artifacts every loader must refuse with a ``ValueError``:
#: case -> (field, replacement or ``None`` to delete it, expected message).
MALFORMED_ARTIFACTS = {
    "unordered-targets": ("delay_targets", [0.9, 0.6, 1.4], "strictly increasing"),
    "nan-target": ("delay_targets", [0.6, math.nan, 1.4], "finite"),
    "negative-target": ("delay_targets", [-0.6, 0.9, 1.4], "positive"),
    "1-d-max_n2": ("max_n2", [2.0, 1.0, 0.0], "2-D grid"),
    "missing-params": ("params", None, "malformed: KeyError"),
    "scalar-bandwidth": ("bandwidth", 1.0, "malformed: TypeError"),
    "negative-service-rate": ("service_rate", -3.0, "service rate must be"),
    "zero-service-rate": ("service_rate", 0.0, "service rate must be"),
    "nan-service-rate": ("service_rate", math.nan, "service rate must be"),
}


def malformed_artifact(artifact: str, case: str) -> str:
    """``artifact`` (JSON text) with one field broken as ``case`` says."""
    field, replacement, _ = MALFORMED_ARTIFACTS[case]
    document = json.loads(artifact)
    if replacement is None:
        del document[field]
    else:
        document[field] = replacement
    return json.dumps(document)


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
