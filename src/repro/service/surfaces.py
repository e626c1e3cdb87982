"""Precomputed admission-decision surfaces and their versioned artifact.

The offline half of the serving story.  A :class:`DecisionSurfaces` holds,
over a grid of delay targets ``d_0 < d_1 < ... < d_{D-1}``:

* ``max_n2[i, k]`` — the admissible-region staircase at target ``d_i``: the
  largest type-2 population admissible beside ``n_1 = k`` connections of
  type 1 (``-1`` where nothing is admissible), computed by
  :func:`repro.control.admission_table.admissible_region`;
* ``bandwidth[i]`` — the minimum service rate meeting target ``d_i`` for
  the *unpinned* workload, from
  :func:`repro.control.bandwidth.bandwidth_for_delay_target`.

Rows are independent, so the build fans out one task per delay target over
:func:`repro.runtime.analytic.run_analytic_sweep` — the same pool, failure
capture, and determinism contract as every analytic figure sweep.

Conservative interpolation contract
-----------------------------------
Both stored quantities are monotone in the grid axes: ``max_n2`` is
non-decreasing in the delay target and non-increasing in ``n_1``;
``bandwidth`` is non-increasing in the delay target.  Off-grid queries are
therefore answered from the *conservative corner* of the enclosing cell —
the boundary row at the **largest grid target <= the queried target** and
the column at **ceil(n_1)**; the bandwidth at the **largest grid target <=
the queried target**.  By monotonicity the corner value can only *tighten*
a decision relative to the true surface (admit fewer connections, allocate
more bandwidth), never loosen it.  The bilinear (surface) / linear
(bandwidth) interpolation across the cell is also computed and reported as
``estimate`` — useful for capacity planning — but the admit/allocate
decision always uses the corner bound.  ``tests/service`` proves the
contract by property test: every interpolated admit is re-admitted by a
direct Solution-2 solve at the queried point.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from repro.control.admission_table import admissible_region
from repro.control.bandwidth import bandwidth_for_delay_target
from repro.core.params import ApplicationType, HAPParameters, MessageType

__all__ = [
    "DecisionSurfaces",
    "SURFACE_SCHEMA",
    "SurfaceBound",
    "build_decision_surfaces",
    "load_surfaces",
    "save_surfaces",
    "two_type_params",
]

#: Artifact schema identifier; bump on incompatible layout changes.
SURFACE_SCHEMA = "repro-admission-surface/1"

#: Relative tolerance for "this query sits exactly on a grid target".
_GRID_RTOL = 1e-9


def _params_to_dict(params: HAPParameters) -> dict:
    """JSON-safe description of a parameter set (for the artifact)."""
    return {
        "user_arrival_rate": params.user_arrival_rate,
        "user_departure_rate": params.user_departure_rate,
        "name": params.name,
        "applications": [
            {
                "arrival_rate": app.arrival_rate,
                "departure_rate": app.departure_rate,
                "name": app.name,
                "messages": [
                    {
                        "arrival_rate": msg.arrival_rate,
                        "service_rate": msg.service_rate,
                        "name": msg.name,
                    }
                    for msg in app.messages
                ],
            }
            for app in params.applications
        ],
    }


def _params_from_dict(document: dict) -> HAPParameters:
    """Rebuild a :class:`HAPParameters` from :func:`_params_to_dict`."""
    return HAPParameters(
        user_arrival_rate=float(document["user_arrival_rate"]),
        user_departure_rate=float(document["user_departure_rate"]),
        name=str(document.get("name", "")),
        applications=tuple(
            ApplicationType(
                arrival_rate=float(app["arrival_rate"]),
                departure_rate=float(app["departure_rate"]),
                name=str(app.get("name", "")),
                messages=tuple(
                    MessageType(
                        arrival_rate=float(msg["arrival_rate"]),
                        service_rate=float(msg["service_rate"]),
                        name=str(msg.get("name", "")),
                    )
                    for msg in app["messages"]
                ),
            )
            for app in document["applications"]
        ),
    )


@dataclass(frozen=True)
class SurfaceBound:
    """One off-hot-path surface answer: the bound actually used + context.

    Attributes
    ----------
    max_n2:
        Conservative-corner bound on the type-2 population (``-1`` when the
        corner admits nothing).
    estimate:
        Bilinear interpolation of the boundary across the enclosing cell —
        planning information only, never the decision.
    exact:
        Whether the query sat exactly on a grid point (tier "surface"
        rather than "interpolated").
    """

    max_n2: float
    estimate: float
    exact: bool


@dataclass(frozen=True)
class DecisionSurfaces:
    """Precomputed admission/bandwidth surfaces over a delay-target grid.

    Attributes
    ----------
    params:
        The 2-application-type HAP the surfaces were computed for.
    service_rate:
        The queue service rate the delay targets are measured against.
    delay_targets:
        Strictly increasing grid of delay targets (the surface rows).
    max_n2:
        ``(D, K)`` staircase boundary; ``max_n2[i, k]`` is the largest
        admissible ``n_2`` beside ``n_1 = k`` under target
        ``delay_targets[i]``, ``-1`` where nothing is admissible.
    bandwidth:
        ``(D,)`` minimum service rate meeting each delay target.
    """

    params: HAPParameters
    service_rate: float
    delay_targets: np.ndarray
    max_n2: np.ndarray
    bandwidth: np.ndarray

    # ------------------------------------------------------------------
    # Shape helpers
    # ------------------------------------------------------------------
    @property
    def max_population(self) -> int:
        """Largest ``n_1`` the surface covers (columns are 0..max)."""
        return self.max_n2.shape[1] - 1

    @property
    def grid_points(self) -> int:
        """Total stored boundary entries (rows x columns)."""
        return int(self.max_n2.size)

    def covers(self, n1: float, delay_target: float) -> bool:
        """Whether ``(n1, delay_target)`` lies inside the surface hull.

        Queries outside the hull are *misses* — the service answers them
        with a live solve (or a conservative deny when solving fails).
        """
        targets, rows, _ = self._grid
        return bool(
            0.0 <= n1 <= len(rows[0]) - 1
            and targets[0] <= delay_target <= targets[-1]
        )

    def tightened(self, by: float = 1.0) -> "DecisionSurfaces":
        """A strictly more conservative copy: every boundary lowered ``by``.

        ``max_n2`` drops by ``by`` (floored at ``-1``, "admit nothing");
        the bandwidth rows are kept as-is — only the admission boundary
        tightens.  The primary use is hot-reload
        drills and emergency throttling: an operator can publish a
        tightened generation fleet-wide without rebuilding surfaces, and
        because the new boundary is everywhere at or below the old one the
        swap can only under-admit, never over-admit.
        """
        if by < 0:
            raise ValueError("by must be non-negative")
        return DecisionSurfaces(
            params=self.params,
            service_rate=self.service_rate,
            delay_targets=self.delay_targets,
            max_n2=np.maximum(self.max_n2 - float(by), -1.0),
            bandwidth=self.bandwidth,
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @cached_property
    def _grid(self) -> tuple[list[float], list[list[float]], list[float]]:
        """The grids as Python lists: targets, ``max_n2`` rows, bandwidth.

        Built on first lookup, once per instance (a hot reload's surfaces
        and each shard's decoded artifact build their own).  The lookups
        read these rather than the arrays: the same float64 values and the
        same arithmetic, without numpy's per-scalar call overhead.
        """
        return tuple(
            np.asarray(grid, dtype=float).tolist()
            for grid in (self.delay_targets, self.max_n2, self.bandwidth)
        )

    def grid_bound(self, n1: float, delay_target: float) -> float | None:
        """Exact-grid boundary value, or ``None`` when the query is off-grid."""
        if not self.covers(n1, delay_target) or n1 != math.floor(n1):
            return None
        targets, rows, _ = self._grid
        # Inside the hull, so the first target >= the query exists.
        row = bisect_left(targets, delay_target)
        if not math.isclose(targets[row], delay_target, rel_tol=_GRID_RTOL):
            return None
        return rows[row][int(n1)]

    def interpolated_bound(
        self, n1: float, delay_target: float
    ) -> SurfaceBound | None:
        """Conservative bound + bilinear estimate for an in-hull query.

        Returns ``None`` outside the hull (a true miss).  See the module
        docstring for the conservative-corner contract.
        """
        if not self.covers(n1, delay_target):
            return None
        targets, rows, _ = self._grid
        # Row index of the largest grid target <= the query (conservative:
        # a tighter target admits no more than the queried one).
        row_lo = bisect_right(targets, delay_target) - 1
        row_hi = min(row_lo + 1, len(targets) - 1)
        col_lo = math.floor(n1)
        col_hi = min(math.ceil(n1), len(rows[0]) - 1)
        exact = (
            math.isclose(targets[row_lo], delay_target, rel_tol=_GRID_RTOL)
            and col_lo == col_hi
        )
        lo, hi = rows[row_lo], rows[row_hi]
        # Bilinear estimate across the enclosing cell (reporting only).
        if row_hi == row_lo:
            theta_d = 0.0
        else:
            span = targets[row_hi] - targets[row_lo]
            theta_d = (delay_target - targets[row_lo]) / span
        theta_n = n1 - col_lo if col_hi != col_lo else 0.0
        estimate = (1 - theta_d) * (
            (1 - theta_n) * lo[col_lo] + theta_n * lo[col_hi]
        ) + theta_d * ((1 - theta_n) * hi[col_lo] + theta_n * hi[col_hi])
        # Conservative corner: tightest target row, largest n1 column.
        return SurfaceBound(max_n2=lo[col_hi], estimate=estimate, exact=exact)

    def bandwidth_bound(
        self, delay_target: float
    ) -> tuple[float, float, bool] | None:
        """``(conservative bandwidth, interpolated estimate, exact)``.

        Conservative means *never under-provision*: the allocation answered
        is the one computed for the largest grid target <= the query, which
        by monotonicity is at least the true requirement.  The estimate
        interpolates toward the next target, except on an exact row, which
        answers its bound.  ``None`` when the target lies outside the grid
        (a miss).
        """
        targets, _, bandwidth = self._grid
        if not targets[0] <= delay_target <= targets[-1]:
            return None
        row_lo = bisect_right(targets, delay_target) - 1
        row_hi = min(row_lo + 1, len(targets) - 1)
        exact = math.isclose(targets[row_lo], delay_target, rel_tol=_GRID_RTOL)
        bound = bandwidth[row_lo]
        if row_hi == row_lo or exact:
            # Interpolating an exact row beside an inf (unsizable) one
            # would answer (1 - 0) * inf + 0 * inf = nan.
            estimate = bound
        else:
            span = targets[row_hi] - targets[row_lo]
            theta = (delay_target - targets[row_lo]) / span
            estimate = (1 - theta) * bound + theta * bandwidth[row_hi]
        return bound, estimate, exact

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self, indent: int | None = None) -> str:
        """Serialize to the versioned boot artifact (``repro-admission-surface/1``)."""
        document = {
            "schema": SURFACE_SCHEMA,
            "service_rate": self.service_rate,
            "params": _params_to_dict(self.params),
            "delay_targets": [float(d) for d in self.delay_targets],
            "max_n2": self.max_n2.astype(float).tolist(),
            "bandwidth": [
                None if math.isinf(b) else float(b) for b in self.bandwidth
            ],
        }
        return json.dumps(document, indent=indent)

    @classmethod
    def from_json(cls, text: str | bytes) -> "DecisionSurfaces":
        """Load a :meth:`to_json` artifact, refusing stale schemas.

        Raises
        ------
        ValueError
            On invalid JSON, a missing/unknown ``schema`` field, or a
            schema-tagged document whose fields are missing or misshapen —
            a service must never boot on a surface laid out for a
            different code version (a misread boundary silently admits bad
            traffic).
        """
        try:
            document = json.loads(text)
        except ValueError as error:
            raise ValueError(f"surface artifact is not valid JSON: {error}")
        schema = document.get("schema") if isinstance(document, dict) else None
        if schema != SURFACE_SCHEMA:
            raise ValueError(
                f"unsupported surface schema {schema!r} (expected "
                f"{SURFACE_SCHEMA}); rebuild with `cli build-surfaces`"
            )
        try:
            surfaces = cls(
                params=_params_from_dict(document["params"]),
                service_rate=float(document["service_rate"]),
                delay_targets=np.asarray(document["delay_targets"], dtype=float),
                max_n2=np.asarray(document["max_n2"], dtype=float),
                bandwidth=np.asarray(
                    [
                        math.inf if value is None else float(value)
                        for value in document["bandwidth"]
                    ]
                ),
            )
        except (KeyError, IndexError, TypeError) as error:
            raise ValueError(
                f"surface artifact is malformed: {type(error).__name__}: {error}"
            ) from error
        surfaces._validate()
        return surfaces

    def _validate(self) -> None:
        _check_service_rate(self.service_rate)
        targets = self.delay_targets
        if targets.ndim != 1 or len(targets) < 1:
            raise ValueError("surface needs at least one delay target")
        if not (
            np.all(np.isfinite(targets))
            and targets[0] > 0
            and np.all(np.diff(targets) > 0)
        ):
            raise ValueError(
                "delay targets must be finite, positive and strictly increasing"
            )
        if self.max_n2.ndim != 2 or len(self.max_n2) != len(targets):
            raise ValueError(
                "max_n2 must be a 2-D grid with one row per delay target"
            )
        if self.bandwidth.shape != (len(targets),):
            raise ValueError("bandwidth must carry one value per target")

    def describe(self) -> str:
        """One-paragraph summary for CLI output and logs."""
        return (
            f"decision surfaces: {len(self.delay_targets)} delay target(s) "
            f"x {self.max_population + 1} populations "
            f"({self.grid_points} boundary entries), targets "
            f"[{self.delay_targets[0]:g}, {self.delay_targets[-1]:g}] s, "
            f"service rate {self.service_rate:g}"
        )


def _check_service_rate(service_rate: float) -> None:
    """Refuse a rate no queue runs at: non-finite or not positive."""
    if not 0.0 < service_rate < math.inf:
        raise ValueError(
            f"service rate must be positive and finite (got {service_rate})"
        )


def _surface_row(
    params: HAPParameters,
    service_rate: float,
    max_population: int,
    delay_target: float,
) -> tuple[np.ndarray, float]:
    """One fan-out task: the staircase row + bandwidth for one target."""
    row = np.full(max_population + 1, -1.0)
    try:
        boundary = admissible_region(
            params, delay_target, service_rate, max_population
        )
    except ValueError:
        boundary = []
    for n1, n2 in boundary:
        row[n1] = float(n2)
    try:
        bandwidth = bandwidth_for_delay_target(params, delay_target)
    except (ValueError, ArithmeticError):
        bandwidth = math.inf
    return row, bandwidth


def two_type_params(params: HAPParameters) -> HAPParameters:
    """``params`` cut to its first two application types.

    The admissible region, and so every decision surface, is 2-D; a wider
    HAP is served through its first two application types rather than
    rejected.
    """
    if params.num_app_types == 2:
        return params
    return replace(params, applications=params.applications[:2])


def build_decision_surfaces(
    params: HAPParameters,
    delay_targets,
    max_population: int = 40,
    service_rate: float | None = None,
    max_workers: int | None = None,
) -> DecisionSurfaces:
    """Compute the decision surfaces, one fan-out task per delay target.

    Parameters
    ----------
    params:
        A 2-application-type HAP (the admissible region is 2-D, matching
        the paper's Section-7 study).
    delay_targets:
        The grid of delay targets; sorted and deduplicated here.
    max_population:
        Largest ``n_1`` (and ``n_2`` search bound) the surface covers.
    service_rate:
        Queue service rate; defaults to the common ``mu''``.
    max_workers:
        Pool width for the row fan-out (1 = in-process, which also keeps
        the memoized probe cache warm across rows).
    """
    if params.num_app_types != 2:
        raise ValueError(
            "decision surfaces need exactly 2 application types "
            f"(got {params.num_app_types}); the admissible region is 2-D"
        )
    if max_population < 1:
        raise ValueError("max_population must be at least 1")
    targets = np.unique(np.asarray(list(delay_targets), dtype=float))
    if len(targets) == 0:
        raise ValueError("need at least one delay target")
    if np.any(targets <= 0):
        raise ValueError("delay targets must be positive")
    if service_rate is None:
        service_rate = params.common_service_rate()
    _check_service_rate(service_rate)

    from repro.runtime.analytic import run_analytic_sweep

    tasks = [
        (
            f"delay-target={target:g}",
            partial(_surface_row, params, service_rate, max_population, target),
        )
        for target in targets
    ]
    rows = run_analytic_sweep(tasks, max_workers=max_workers)
    return DecisionSurfaces(
        params=params,
        service_rate=float(service_rate),
        delay_targets=targets,
        max_n2=np.vstack([row for row, _ in rows]),
        bandwidth=np.asarray([bandwidth for _, bandwidth in rows]),
    )


def save_surfaces(surfaces: DecisionSurfaces, path: str | Path) -> Path:
    """Write the artifact to ``path`` (pretty-printed JSON)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(surfaces.to_json(indent=2) + "\n")
    return path


def load_surfaces(path: str | Path) -> DecisionSurfaces:
    """Load the JSON artifact at ``path``, refusing stale or malformed ones."""
    return DecisionSurfaces.from_json(Path(path).read_bytes())
