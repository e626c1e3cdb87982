"""Tests for repro.service.surfaces: build, lookups, contract, artifact."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.admission_table import (
    _delay_for_population_mix,
    probe_stats,
)
from repro.service.surfaces import (
    _GRID_RTOL,
    SURFACE_SCHEMA,
    DecisionSurfaces,
    build_decision_surfaces,
    load_surfaces,
    save_surfaces,
)
from tests.service.conftest import MALFORMED_ARTIFACTS, malformed_artifact


def _hex_leaves(value):
    """Every float in a nested list/tuple as ``float.hex`` (exact bits)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_hex_leaves(item) for item in value]
    return value


class TestBuild:
    def test_shapes_and_grid(self, surfaces):
        assert surfaces.delay_targets.shape == (3,)
        assert surfaces.max_n2.shape == (3, 9)
        assert surfaces.bandwidth.shape == (3,)
        assert surfaces.max_population == 8
        assert surfaces.grid_points == 27

    def test_monotone_in_delay_target(self, surfaces):
        """Looser targets admit at least as much — the contract's backbone."""
        assert np.all(np.diff(surfaces.max_n2, axis=0) >= 0)
        assert np.all(np.diff(surfaces.bandwidth) <= 0)

    def test_monotone_in_n1(self, surfaces):
        """More type-1 connections never admit more type-2 alongside."""
        assert np.all(np.diff(surfaces.max_n2, axis=1) <= 0)

    def test_rows_match_direct_admissible_region(self, surfaces, surface_params):
        from repro.control.admission_table import admissible_region

        boundary = dict(
            admissible_region(surface_params, 0.9, max_population=8)
        )
        row = surfaces.max_n2[1]
        for n1 in range(9):
            assert row[n1] == float(boundary.get(n1, -1))

    def test_rejects_bad_inputs(self, surface_params):
        with pytest.raises(ValueError, match="2 application types"):
            from dataclasses import replace

            one_type = replace(
                surface_params, applications=surface_params.applications[:1]
            )
            build_decision_surfaces(one_type, (0.6,))
        with pytest.raises(ValueError, match="at least one delay target"):
            build_decision_surfaces(surface_params, ())
        with pytest.raises(ValueError, match="positive"):
            build_decision_surfaces(surface_params, (-0.5,))
        for rate in (-3.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="service rate must be"):
                build_decision_surfaces(
                    surface_params, (0.6,), service_rate=rate
                )

    def test_rebuild_is_all_cache_hits(self, surfaces, surface_params):
        """The memoized probes make a repeat build solve-free (satellite 1)."""
        before = probe_stats()
        rebuilt = build_decision_surfaces(
            surface_params, (0.6, 0.9, 1.4), max_population=8, max_workers=1
        )
        after = probe_stats()
        assert after.solves == before.solves
        assert after.probes > before.probes
        assert np.array_equal(rebuilt.max_n2, surfaces.max_n2)


class TestLookups:
    def test_grid_bound_on_grid(self, surfaces):
        assert surfaces.grid_bound(0.0, 0.6) == surfaces.max_n2[0, 0]
        assert surfaces.grid_bound(3.0, 1.4) == surfaces.max_n2[2, 3]

    def test_grid_bound_off_grid_is_none(self, surfaces):
        assert surfaces.grid_bound(2.5, 0.6) is None
        assert surfaces.grid_bound(2.0, 0.75) is None
        assert surfaces.grid_bound(2.0, 5.0) is None

    def test_interpolated_bound_is_conservative_corner(self, surfaces):
        bound = surfaces.interpolated_bound(2.3, 1.0)
        # Corner: row of largest target <= 1.0 (0.9), column ceil(2.3) = 3.
        assert bound is not None
        assert bound.max_n2 == surfaces.max_n2[1, 3]
        assert not bound.exact

    def test_interpolated_estimate_between_corners(self, surfaces):
        bound = surfaces.interpolated_bound(2.5, 1.1)
        corners = surfaces.max_n2[1:3, 2:4]
        assert corners.min() <= bound.estimate <= corners.max()

    def test_outside_hull_is_none(self, surfaces):
        assert surfaces.interpolated_bound(2.0, 0.1) is None
        assert surfaces.interpolated_bound(2.0, 99.0) is None
        assert surfaces.interpolated_bound(99.0, 0.9) is None

    def test_bandwidth_bound_never_under_provisions(self, surfaces):
        bound, estimate, exact = surfaces.bandwidth_bound(1.0)
        assert not exact
        assert bound == surfaces.bandwidth[1]
        assert bound >= estimate  # bandwidth falls with looser targets
        assert surfaces.bandwidth_bound(99.0) is None

    def test_bandwidth_bound_exact_on_grid(self, surfaces):
        bound, estimate, exact = surfaces.bandwidth_bound(0.9)
        assert exact
        assert bound == estimate == surfaces.bandwidth[1]

    def test_bandwidth_bound_beside_unsizable_rows(self, surfaces):
        # The tighter targets cannot be sized (inf bandwidth): an exact
        # row answers its own bound, never (1 - 0) * inf + 0 * inf = nan.
        beside_inf = DecisionSurfaces(
            params=surfaces.params,
            service_rate=surfaces.service_rate,
            delay_targets=np.array([0.6, 0.9, 1.2]),
            max_n2=surfaces.max_n2,
            bandwidth=np.array([math.inf, math.inf, 2.5]),
        )
        assert beside_inf.bandwidth_bound(0.6) == (math.inf, math.inf, True)
        assert beside_inf.bandwidth_bound(0.9) == (math.inf, math.inf, True)
        assert beside_inf.bandwidth_bound(1.0) == (math.inf, math.inf, False)
        assert beside_inf.bandwidth_bound(1.2) == (2.5, 2.5, True)


class TestConservativeContract:
    """The acceptance property: interpolated admits re-admit under a solve."""

    @settings(max_examples=30, deadline=None)
    @given(
        n1=st.floats(min_value=0.0, max_value=8.0),
        theta=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_interpolated_admit_confirmed_by_direct_solve(self, n1, theta):
        surfaces = _CONTRACT_SURFACES
        params = _CONTRACT_PARAMS
        lo, hi = float(surfaces.delay_targets[0]), float(
            surfaces.delay_targets[-1]
        )
        delay_target = lo + theta * (hi - lo)
        bound = surfaces.interpolated_bound(n1, delay_target)
        assert bound is not None
        if bound.max_n2 < 0:
            return  # corner admits nothing; nothing to confirm
        # The largest n2 the interpolated tier would admit...
        n2 = float(math.floor(bound.max_n2))
        # ...must be admitted by a direct Solution-2 solve at the exact
        # queried (n1, n2, delay_target) point.
        delay = _delay_for_population_mix(
            params, (float(n1), n2), surfaces.service_rate
        )
        assert delay <= delay_target * (1.0 + 1e-9)


# Hypothesis forbids function-scoped fixtures inside @given; the contract
# surface is built once at import instead (cheap: probes hit the LRU).
_CONTRACT_PARAMS = None
_CONTRACT_SURFACES = None


def _build_contract_surface():
    global _CONTRACT_PARAMS, _CONTRACT_SURFACES
    from tests.service.conftest import _small_params

    if _CONTRACT_SURFACES is None:
        _CONTRACT_PARAMS = _small_params()
        _CONTRACT_SURFACES = build_decision_surfaces(
            _CONTRACT_PARAMS, (0.6, 0.9, 1.4), max_population=8, max_workers=1
        )


_build_contract_surface()


class TestArtifact:
    def test_round_trip(self, surfaces, tmp_path):
        path = save_surfaces(surfaces, tmp_path / "surfaces.json")
        loaded = load_surfaces(path)
        assert np.array_equal(loaded.delay_targets, surfaces.delay_targets)
        assert np.array_equal(loaded.max_n2, surfaces.max_n2)
        assert np.array_equal(loaded.bandwidth, surfaces.bandwidth)
        assert loaded.service_rate == surfaces.service_rate
        assert loaded.params == surfaces.params

    def test_round_trip_is_bit_identical(self, surfaces):
        """Shards decode the supervisor's ``to_json`` text, so a fleet
        answers exactly as one process only if every float64 survives."""
        twin = dataclasses.replace(
            surfaces.tightened(by=3.0),
            bandwidth=np.concatenate(([math.inf], surfaces.bandwidth[1:])),
        )
        assert np.any(twin.max_n2 == -1.0)
        loaded = DecisionSurfaces.from_json(twin.to_json())
        for grid in ("delay_targets", "max_n2", "bandwidth"):
            assert _hex_leaves(getattr(loaded, grid).tolist()) == _hex_leaves(
                getattr(twin, grid).tolist()
            )
        assert loaded.service_rate.hex() == twin.service_rate.hex()
        assert _hex_leaves(dataclasses.astuple(loaded.params)) == _hex_leaves(
            dataclasses.astuple(twin.params)
        )

    def test_round_trip_preserves_infinite_bandwidth(self, surfaces):
        crippled = dataclasses.replace(
            surfaces,
            bandwidth=np.array([math.inf] * len(surfaces.delay_targets)),
        )
        loaded = DecisionSurfaces.from_json(crippled.to_json())
        assert np.all(np.isinf(loaded.bandwidth))

    def test_stale_schema_refused(self, surfaces):
        document = json.loads(surfaces.to_json())
        document["schema"] = "repro-admission-surface/0"
        with pytest.raises(ValueError, match="unsupported surface schema"):
            DecisionSurfaces.from_json(json.dumps(document))

    def test_missing_schema_refused(self):
        with pytest.raises(ValueError, match="unsupported surface schema"):
            DecisionSurfaces.from_json('{"delay_targets": [0.5]}')

    def test_invalid_json_refused(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            DecisionSurfaces.from_json("not json at all")

    @pytest.mark.parametrize("case", MALFORMED_ARTIFACTS)
    def test_corrupt_grid_refused(self, surfaces, case):
        broken = malformed_artifact(surfaces.to_json(), case)
        with pytest.raises(ValueError, match=MALFORMED_ARTIFACTS[case][2]):
            DecisionSurfaces.from_json(broken)
        assert SURFACE_SCHEMA.startswith("repro-admission-surface/")


def _array_covers(surfaces, n1, delay_target):
    return bool(
        0.0 <= n1 <= surfaces.max_n2.shape[1] - 1
        and surfaces.delay_targets[0] <= delay_target <= surfaces.delay_targets[-1]
    )


def _array_grid_bound(surfaces, n1, delay_target):
    """The lookups written over the numpy arrays, one scalar index at a
    time: the reference the list-backed lookups must match bit for bit."""
    if not _array_covers(surfaces, n1, delay_target):
        return None
    if n1 != math.floor(n1):
        return None
    row = int(np.searchsorted(surfaces.delay_targets, delay_target))
    row = min(row, len(surfaces.delay_targets) - 1)
    if not math.isclose(
        float(surfaces.delay_targets[row]), delay_target, rel_tol=_GRID_RTOL
    ):
        return None
    return float(surfaces.max_n2[row, int(n1)])


def _array_interpolated_bound(surfaces, n1, delay_target):
    if not _array_covers(surfaces, n1, delay_target):
        return None
    targets = surfaces.delay_targets
    row_lo = int(np.searchsorted(targets, delay_target, side="right")) - 1
    row_hi = min(row_lo + 1, len(targets) - 1)
    col_lo = int(math.floor(n1))
    col_hi = min(int(math.ceil(n1)), surfaces.max_population)
    row_is_exact = math.isclose(
        float(targets[row_lo]), delay_target, rel_tol=_GRID_RTOL
    )
    exact = row_is_exact and col_lo == col_hi
    bound = float(surfaces.max_n2[row_lo, col_hi])
    if row_hi == row_lo:
        theta_d = 0.0
    else:
        span = float(targets[row_hi] - targets[row_lo])
        theta_d = (delay_target - float(targets[row_lo])) / span
    theta_n = n1 - col_lo if col_hi != col_lo else 0.0
    corners = surfaces.max_n2[
        np.ix_((row_lo, row_hi), (col_lo, col_hi))
    ].astype(float)
    estimate = float(
        (1 - theta_d) * ((1 - theta_n) * corners[0, 0] + theta_n * corners[0, 1])
        + theta_d * ((1 - theta_n) * corners[1, 0] + theta_n * corners[1, 1])
    )
    return bound, estimate, exact


def _array_bandwidth_bound(surfaces, delay_target):
    targets = surfaces.delay_targets
    if not targets[0] <= delay_target <= targets[-1]:
        return None
    row_lo = int(np.searchsorted(targets, delay_target, side="right")) - 1
    row_hi = min(row_lo + 1, len(targets) - 1)
    exact = math.isclose(
        float(targets[row_lo]), delay_target, rel_tol=_GRID_RTOL
    )
    bound = float(surfaces.bandwidth[row_lo])
    if row_hi == row_lo or exact:
        estimate = bound
    else:
        span = float(targets[row_hi] - targets[row_lo])
        theta = (delay_target - float(targets[row_lo])) / span
        with np.errstate(invalid="ignore"):  # 0 * inf beside an inf row
            estimate = float(
                (1 - theta) * surfaces.bandwidth[row_lo]
                + theta * surfaces.bandwidth[row_hi]
            )
    return bound, estimate, exact


def _hex(values):
    """``float.hex`` of every float in a lookup answer (``None`` kept)."""
    if values is None:
        return None
    if isinstance(values, float):
        return values.hex()
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


#: The session surface, the same grid with one target (``row_hi ==
#: row_lo`` everywhere), and one whose tighter rows cannot be sized
#: (``inf`` bandwidth).
_REFERENCE_SURFACES = (
    _CONTRACT_SURFACES,
    DecisionSurfaces(
        params=_CONTRACT_SURFACES.params,
        service_rate=_CONTRACT_SURFACES.service_rate,
        delay_targets=_CONTRACT_SURFACES.delay_targets[1:2],
        max_n2=_CONTRACT_SURFACES.max_n2[1:2],
        bandwidth=_CONTRACT_SURFACES.bandwidth[1:2],
    ),
    DecisionSurfaces(
        params=_CONTRACT_SURFACES.params,
        service_rate=_CONTRACT_SURFACES.service_rate,
        delay_targets=_CONTRACT_SURFACES.delay_targets,
        max_n2=_CONTRACT_SURFACES.max_n2,
        bandwidth=np.array([math.inf, math.inf, 2.5]),
    ),
)


@st.composite
def _lookup_query(draw, surfaces):
    """One ``(n1, delay_target)`` of a kind the lookups branch on."""
    targets = surfaces.delay_targets.tolist()
    top = surfaces.max_population
    target = draw(st.sampled_from(targets))
    n1 = float(draw(st.integers(0, top)))
    kind = draw(
        st.sampled_from(
            ("grid", "near", "between", "cell", "last", "outside")
        )
    )
    if kind == "grid":
        return n1, target
    if kind == "near":  # within _GRID_RTOL above or below a target
        scale = draw(st.floats(-2 * _GRID_RTOL, 2 * _GRID_RTOL))
        return n1, target * (1.0 + scale)
    between = draw(st.floats(targets[0], targets[-1]))
    if kind == "between":
        return n1, between
    if kind == "cell":  # fractional n1 inside any cell
        return draw(st.floats(0.0, top)), between
    if kind == "last":  # fractional n1 in the last column
        return draw(st.floats(top - 1.0, top)), between
    return (
        draw(st.floats(-2.0, top + 2.0)),
        draw(st.floats(targets[0] / 2.0, targets[-1] * 2.0)),
    )


class TestLookupsMatchArrayReference:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_bit_identical_to_array_lookups(self, data):
        surfaces = data.draw(st.sampled_from(_REFERENCE_SURFACES))
        n1, delay_target = data.draw(_lookup_query(surfaces))
        assert _hex(surfaces.grid_bound(n1, delay_target)) == _hex(
            _array_grid_bound(surfaces, n1, delay_target)
        )
        interpolated = surfaces.interpolated_bound(n1, delay_target)
        assert _hex(
            None
            if interpolated is None
            else (interpolated.max_n2, interpolated.estimate, interpolated.exact)
        ) == _hex(_array_interpolated_bound(surfaces, n1, delay_target))
        assert _hex(surfaces.bandwidth_bound(delay_target)) == _hex(
            _array_bandwidth_bound(surfaces, delay_target)
        )
