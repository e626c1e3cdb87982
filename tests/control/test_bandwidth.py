"""Tests for repro.control.bandwidth."""

from __future__ import annotations

import math

import pytest

import repro.control.bandwidth as bandwidth_module
import repro.core.solution0 as solution0_module
from repro.control.bandwidth import (
    _delay_at_service_rate,
    bandwidth_for_delay_target,
    bandwidth_for_wait_percentile,
)
from repro.core.interarrival import InterarrivalDistribution
from repro.core.solution2 import solve_solution2


class TestDelayTarget:
    def test_result_meets_target(self, small_hap):
        target = 0.8
        mu = bandwidth_for_delay_target(small_hap, target)
        assert solve_solution2(small_hap, mu).mean_delay <= target * 1.001

    def test_result_is_minimal(self, small_hap):
        target = 0.8
        mu = bandwidth_for_delay_target(small_hap, target)
        assert solve_solution2(small_hap, mu * 0.97).mean_delay > target

    def test_tighter_target_needs_more_bandwidth(self, small_hap):
        loose = bandwidth_for_delay_target(small_hap, 1.0)
        tight = bandwidth_for_delay_target(small_hap, 0.4)
        assert tight > loose

    def test_exceeds_poisson_sizing(self, small_hap):
        """The paper's misengineering warning: HAP needs more than M/M/1 says."""
        target = 0.8
        poisson_mu = small_hap.mean_message_rate + 1.0 / target
        hap_mu = bandwidth_for_delay_target(small_hap, target)
        assert hap_mu > poisson_mu

    def test_rejects_nonpositive_target(self, small_hap):
        with pytest.raises(ValueError):
            bandwidth_for_delay_target(small_hap, 0.0)


def _bisected_bandwidth(params, delay_target, tol=1e-6):
    """Solution-2 sizing by bisection on ``mu``: the reference the closed
    form must match to within ``tol``."""

    def delay(service_rate):
        if params.mean_message_rate >= service_rate:
            return math.inf
        try:
            return solve_solution2(params, service_rate).mean_delay
        except (ValueError, ArithmeticError):
            return math.inf

    low = max(params.mean_message_rate, 1.0 / delay_target)
    high = max(2.0 * low, low + 1.0)
    while delay(high) > delay_target:
        high *= 2.0
    while (high - low) / high > tol:
        mid = 0.5 * (low + high)
        if delay(mid) <= delay_target:
            high = mid
        else:
            low = mid
    return high


#: Targets whose designs on ``small_hap`` run from 4% load (``mu`` near
#: ``1 / target``) to 47%.
CLOSED_FORM_TARGETS = [0.05, 0.2, 0.6, 0.9, 1.4, 4.2]


class TestClosedFormSizing:
    """Solution-2 sizing solves ``sigma = A*(1 / target)`` instead of
    bisecting ``mu``: the answer is one-sided and within ``tol``."""

    @pytest.mark.parametrize("target", CLOSED_FORM_TARGETS)
    def test_within_tol_of_bisection(self, small_hap, target):
        mu = bandwidth_for_delay_target(small_hap, target)
        assert abs(mu / _bisected_bandwidth(small_hap, target) - 1.0) <= 1e-6

    @pytest.mark.parametrize("target", CLOSED_FORM_TARGETS)
    def test_meets_target_without_slack(self, small_hap, target):
        mu = bandwidth_for_delay_target(small_hap, target)
        assert solve_solution2(small_hap, mu).mean_delay <= target

    @pytest.mark.parametrize("target", CLOSED_FORM_TARGETS)
    def test_misses_target_two_tol_below(self, small_hap, target):
        mu = bandwidth_for_delay_target(small_hap, target)
        assert solve_solution2(small_hap, mu * (1.0 - 2e-6)).mean_delay > target

    @pytest.mark.parametrize(
        "multiple",
        [1e9, 10.0**14.5, 1e20, math.inf],
        ids=["1e9", "1e14.5", "1e20", "inf"],
    )
    def test_loose_target_sizes_just_above_stability_edge(
        self, small_hap, multiple
    ):
        """Where ``A*(1 / T)`` rounds near or to 1, ``1 / (T (1 - A*(1 / T)))``
        loses its digits (1.7 % high at 10^14.5 E[T]) or divides by zero
        (from 1e17 E[T]); the ccdf transform keeps the answer just above
        the stability edge ``1 / E[T]``, which any target this loose
        allows."""
        mean = InterarrivalDistribution(small_hap).mean()
        target = multiple * mean
        mu = bandwidth_for_delay_target(small_hap, target)
        assert 1.0 / mean < mu <= (1.0 + 2e-6) / mean
        assert solve_solution2(small_hap, mu).mean_delay <= target

    def test_one_transform_value_and_no_sigma_solve(self, small_hap, monkeypatch):
        calls = []
        ccdf_laplace = InterarrivalDistribution.ccdf_laplace

        def counted(self, s):
            calls.append(s)
            return ccdf_laplace(self, s)

        monkeypatch.setattr(InterarrivalDistribution, "ccdf_laplace", counted)
        monkeypatch.setattr(bandwidth_module, "solve_solution2", None)
        bandwidth_for_delay_target(small_hap, 0.8)
        assert calls == [1.0 / 0.8]


class TestDelayProbeEdgeCases:
    def test_unstable_load_probes_as_infinite_delay(self, small_hap):
        """At or below the offered load the queue diverges: probe reads inf."""
        lam = small_hap.mean_message_rate
        assert _delay_at_service_rate(small_hap, lam, "solution0", {}) == math.inf
        assert (
            _delay_at_service_rate(small_hap, lam * 0.5, "solution0", {})
            == math.inf
        )

    def test_solver_failure_probes_as_infinite_delay(
        self, small_hap, monkeypatch
    ):
        """A solver blow-up reads as "target not met", not a crash."""

        def explode(*_args, **_kwargs):
            raise ArithmeticError("synthetic solver failure")

        monkeypatch.setattr(solution0_module, "solve_solution0", explode)
        assert (
            _delay_at_service_rate(small_hap, 100.0, "solution0", {})
            == math.inf
        )

    def test_unknown_solver_raises_not_masks(self, small_hap):
        """A typo'd solver name must be a ValueError, not a fake bracket failure."""
        with pytest.raises(ValueError, match="unknown solver"):
            bandwidth_for_delay_target(small_hap, 0.8, solver="solution3")

    def test_bracket_failure_raises_arithmetic_error(
        self, small_hap, monkeypatch
    ):
        """When no finite mu ever meets the target, the sizing must say so."""
        monkeypatch.setattr(
            InterarrivalDistribution, "ccdf_laplace", lambda _self, _s: math.nan
        )
        with pytest.raises(ArithmeticError, match="no finite bandwidth"):
            bandwidth_for_delay_target(small_hap, 0.8)

    def test_exact_bracket_failure_raises_arithmetic_error(
        self, small_hap, monkeypatch
    ):
        """Solution-0 sizing still bisects, and gives up at its rate cap."""

        def always_fails(*_args, **_kwargs):
            raise ValueError("synthetic: no solve converges")

        monkeypatch.setattr(solution0_module, "solve_solution0", always_fails)
        with pytest.raises(ArithmeticError, match="no finite bandwidth"):
            bandwidth_for_delay_target(small_hap, 0.8, solver="solution0")

    def test_percentile_bracket_failure_raises_arithmetic_error(
        self, small_hap, monkeypatch
    ):
        def always_fails(*_args, **_kwargs):
            raise ValueError("synthetic: no solve converges")

        monkeypatch.setattr(bandwidth_module, "solve_solution2", always_fails)
        with pytest.raises(ArithmeticError, match="no finite bandwidth"):
            bandwidth_for_wait_percentile(small_hap, 0.5, quantile=0.9)

    def test_result_exceeds_both_lower_bounds(self, small_hap):
        """The sized mu clears stability AND the one-service-time floor."""
        target = 0.8
        mu = bandwidth_for_delay_target(small_hap, target)
        assert mu > small_hap.mean_message_rate
        assert mu > 1.0 / target


class TestWaitPercentile:
    def test_result_meets_percentile(self, small_hap):
        mu = bandwidth_for_wait_percentile(small_hap, wait_limit=0.5, quantile=0.9)
        solution = solve_solution2(small_hap, mu)
        assert float(solution.gm1.waiting_time_cdf(0.5)) >= 0.9 - 1e-6

    def test_higher_quantile_needs_more_bandwidth(self, small_hap):
        mu90 = bandwidth_for_wait_percentile(small_hap, 0.5, quantile=0.9)
        mu99 = bandwidth_for_wait_percentile(small_hap, 0.5, quantile=0.99)
        assert mu99 > mu90

    def test_validates_inputs(self, small_hap):
        with pytest.raises(ValueError):
            bandwidth_for_wait_percentile(small_hap, 0.0)
        with pytest.raises(ValueError):
            bandwidth_for_wait_percentile(small_hap, 0.5, quantile=1.0)
