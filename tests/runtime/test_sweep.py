"""Tests for repro.runtime.sweep."""

from __future__ import annotations

import time

import pytest

from repro.runtime.sweep import SweepPoint, sweep


def _record(tag: str, seed: int) -> tuple[str, int]:
    """Picklable task that just reports which (point, seed) ran."""
    return (tag, seed)


def _crash_on_odd(seed: int) -> int:
    """Task that fails on odd seeds."""
    if seed % 2 == 1:
        raise RuntimeError(f"odd seed {seed}")
    return seed


def _slow(seed: int) -> int:
    """Slow task for budget tests."""
    time.sleep(0.05)
    return seed


class TestGridShape:
    def test_every_point_gets_every_replication(self):
        result = sweep(
            [("a", lambda s: _record("a", s)), ("b", lambda s: _record("b", s))],
            num_replications=3,
            base_seed=100,
            seed_stride=1000,
        )
        assert result.labels() == ("a", "b")
        assert result["a"].results == (
            ("a", 100),
            ("a", 101),
            ("a", 102),
        )
        assert result["b"].results == (
            ("b", 1100),
            ("b", 1101),
            ("b", 1102),
        )

    def test_point_overrides_seed_and_replications(self):
        result = sweep(
            [
                SweepPoint("pinned", lambda s: s, base_seed=7, num_replications=2),
                SweepPoint("default", lambda s: s),
            ],
            num_replications=1,
            base_seed=0,
        )
        assert result["pinned"].results == (7, 8)
        assert result["default"].results == (1000,)

    def test_unknown_label_raises(self):
        result = sweep([("only", lambda s: s)], num_replications=1)
        with pytest.raises(KeyError):
            result["missing"]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            sweep([("x", lambda s: s), ("x", lambda s: s)])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            sweep([])

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError, match="at least one replication"):
            sweep([("a", lambda s: s)], num_replications=0)


class TestDeterminismAcrossWorkers:
    def test_parallel_sweep_matches_serial(self):
        points = [
            SweepPoint("a", lambda s: _record("a", s)),
            SweepPoint("b", lambda s: _record("b", s)),
        ]
        picklable = [
            SweepPoint("a", _crash_on_odd, base_seed=0, num_replications=4),
        ]
        serial = sweep(picklable, max_workers=1)
        parallel = sweep(picklable, max_workers=4)
        assert serial["a"].results == parallel["a"].results
        assert serial["a"].seeds == parallel["a"].seeds
        assert [f.seed for f in serial.failures] == [
            f.seed for f in parallel.failures
        ]
        # Unpicklable grids degrade to the serial path with equal results,
        # warning because parallelism was explicitly requested.
        with pytest.warns(RuntimeWarning, match="not picklable"):
            fallback = sweep(points, num_replications=2, max_workers=4)
        assert fallback.max_workers == 1


class TestFailureIsolation:
    def test_failures_confined_to_their_replication(self):
        result = sweep(
            [SweepPoint("mixed", _crash_on_odd, base_seed=0)],
            num_replications=4,
        )
        campaign = result["mixed"]
        assert campaign.results == (0, 2)
        assert [f.seed for f in campaign.failures] == [1, 3]
        assert [f.index for f in campaign.failures] == [1, 3]
        with pytest.raises(Exception, match="odd seed"):
            result.raise_if_failed()


class TestBudget:
    def test_budget_thins_points_evenly(self):
        result = sweep(
            [
                SweepPoint("left", _slow, base_seed=0),
                SweepPoint("right", _slow, base_seed=50),
            ],
            num_replications=4,
            max_workers=1,
            chunk_size=2,
            wall_clock_budget=0.01,
        )
        # Round-robin dispatch: the one chunk that ran covered both points.
        assert result.skipped > 0
        completed = [p.campaign.completed for p in result.points]
        assert max(completed) - min(completed) <= 1

    def test_describe_reports_each_point(self):
        result = sweep(
            [("a", _crash_on_odd)], num_replications=2, base_seed=0
        )
        text = result.describe()
        assert "a" in text
        assert "sweep total" in text
        assert result.events_processed == 0  # plain ints carry no events


def _with_events(seed: int):
    """Task whose result carries an event count (for throughput tests)."""
    from types import SimpleNamespace

    return SimpleNamespace(events_processed=50 + seed)


class TestPerPointTiming:
    """Per-point campaigns time off busy_time; wall_clock is the sweep's."""

    def test_per_point_campaign_is_a_sweep_campaign_result(self):
        from repro.runtime import SweepCampaignResult

        result = sweep([("a", _crash_on_odd)], num_replications=2, max_workers=1)
        assert isinstance(result["a"], SweepCampaignResult)

    def test_per_point_wall_clock_is_the_sweep_total(self):
        import warnings

        result = sweep([("a", _crash_on_odd)], num_replications=1, max_workers=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert result["a"].wall_clock == result.wall_clock

    def test_sweep_total_wall_clock_stays_clean(self):
        import warnings

        result = sweep([("a", _crash_on_odd)], num_replications=1, max_workers=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert result.wall_clock >= 0.0

    def test_describe_and_throughput_read_busy_time(self):
        import math
        import warnings

        result = sweep(
            [("a", _with_events), ("b", _with_events)],
            num_replications=2,
            max_workers=1,
        )
        campaign = result["a"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            text = campaign.describe()
            rate = campaign.events_per_second
        assert "s busy" in text
        assert "s wall" not in text  # per-point lines carry no wall-clock
        assert math.isfinite(rate) and rate > 0.0
        assert rate == campaign.events_processed / campaign.busy_time


class TestZeroTimeThroughput:
    """Regression: zero-time campaigns report 0.0 events/s, never NaN."""

    def test_per_point_zero_busy_time_is_zero_rate(self):
        from repro.runtime import SweepCampaignResult

        campaign = SweepCampaignResult(
            results=(),
            seeds=(),
            failures=(),
            skipped_seeds=(),
            wall_clock=0.0,
            busy_time=0.0,
            max_workers=1,
        )
        assert campaign.events_per_second == 0.0
        assert "0 events/s" in campaign.describe()

    def test_sweep_zero_wall_clock_is_zero_rate(self):
        from repro.runtime.sweep import SweepResult

        result = SweepResult(points=(), wall_clock=0.0, max_workers=1)
        assert result.events_per_second == 0.0
