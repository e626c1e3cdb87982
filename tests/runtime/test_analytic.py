"""Tests for repro.runtime.analytic — analytic sweeps over the pool."""

from __future__ import annotations

from functools import partial

import pytest

from repro.runtime.analytic import run_analytic_sweep
from repro.runtime.executor import ReplicationError


def _square(x: float) -> float:
    return x * x


def _boom() -> float:
    raise RuntimeError("analytic task exploded")


class TestRunAnalyticSweep:
    def test_results_in_input_order(self):
        tasks = [(f"x={x}", partial(_square, x)) for x in (3.0, 1.0, 2.0)]
        assert run_analytic_sweep(tasks, max_workers=1) == [9.0, 1.0, 4.0]

    def test_failure_raises_with_traceback(self):
        with pytest.raises(ReplicationError, match="exploded"):
            run_analytic_sweep([("bad", _boom)], max_workers=1)

    def test_empty_task_list(self):
        assert run_analytic_sweep([], max_workers=1) == []
