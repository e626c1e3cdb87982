"""Cross-validation of Solutions 0, 1, 2 — the paper's Section 3/4 claims."""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.admission_table import pinned_population_params
from repro.core.interarrival import InterarrivalDistribution
from repro.core.solution0 import solve_solution0
from repro.core.solution1 import solve_solution1
from repro.core.solution2 import condition_report, solve_solution2
from repro.experiments.configs import base_parameters
from repro.queueing.mm1 import solve_mm1


class TestSolution0Backends:
    """All routes to the exact chain must agree."""

    def test_direct_equals_power(self, small_hap):
        bounds, z_max = (6, 12), 80
        direct = solve_solution0(
            small_hap, backend="direct", modulating_bounds=bounds, z_max=z_max
        )
        power = solve_solution0(
            small_hap, backend="power", modulating_bounds=bounds, z_max=z_max
        )
        assert direct.mean_delay == pytest.approx(power.mean_delay, rel=1e-6)
        assert direct.sigma == pytest.approx(power.sigma, rel=1e-6)

    def test_direct_converges_to_qbd(self, small_hap):
        qbd = solve_solution0(small_hap, backend="qbd", modulating_bounds=(9, 18))
        direct = solve_solution0(
            small_hap, backend="direct", modulating_bounds=(9, 18), z_max=600
        )
        assert direct.mean_delay == pytest.approx(qbd.mean_delay, rel=5e-3)

    def test_unknown_backend_rejected(self, small_hap):
        with pytest.raises(ValueError, match="backend"):
            solve_solution0(small_hap, backend="magic")

    def test_power_iteration_survives_periodic_uniformization(self):
        """Regression: with a zero-margin uniformization rate, a chain whose
        states share the same exit rate gets a zero self-loop everywhere and
        the uniformized DTMC can be periodic — power iteration then
        oscillates forever instead of converging (a symmetric 2-state
        generator is the textbook case; this bipartite 3-state one also has
        a non-uniform fixed point, so the oscillation is visible from the
        uniform start).  The 1.05 safety margin restores aperiodicity
        without moving the fixed point."""
        import scipy.sparse as sp

        from repro.core.solution0 import _stationary_power

        generator = sp.csr_matrix(
            np.array(
                [
                    [-1.0, 1.0, 0.0],
                    [0.5, -1.0, 0.5],
                    [0.0, 1.0, -1.0],
                ]
            )
        )
        pi = _stationary_power(generator, tol=1e-12, max_sweeps=100_000)
        assert pi == pytest.approx(np.array([0.25, 0.5, 0.25]), abs=1e-9)

    def test_power_symmetric_two_state_converges(self):
        """The issue's canonical shape: both exit rates equal — at zero
        margin the uniformized chain is a pure swap."""
        import scipy.sparse as sp

        from repro.core.solution0 import _stationary_power

        generator = sp.csr_matrix(np.array([[-2.0, 2.0], [2.0, -2.0]]))
        pi = _stationary_power(generator, tol=1e-12, max_sweeps=10_000)
        assert pi == pytest.approx(np.array([0.5, 0.5]), abs=1e-9)

    def test_boundary_mass_reported(self, small_hap):
        tight = solve_solution0(
            small_hap, backend="direct", modulating_bounds=(6, 12), z_max=30
        )
        assert tight.boundary_mass > 0
        assert tight.backend == "direct"

    def test_qbd_pmf_sums_to_one(self, small_hap):
        qbd = solve_solution0(
            small_hap, backend="qbd", modulating_bounds=(9, 18), z_max=3000
        )
        assert qbd.queue_length_pmf.sum() == pytest.approx(1.0, abs=1e-5)

    def test_littles_law_internal_consistency(self, small_hap):
        result = solve_solution0(small_hap, backend="qbd")
        assert result.mean_delay * result.effective_arrival_rate == pytest.approx(
            result.mean_queue_length, rel=1e-9
        )


class TestHAPvsPoisson:
    """The central qualitative claim: HAP queues worse than Poisson."""

    def test_exact_delay_exceeds_mm1(self, small_hap):
        exact = solve_solution0(small_hap, backend="qbd")
        mm1 = solve_mm1(
            small_hap.mean_message_rate, small_hap.common_service_rate()
        )
        assert exact.mean_delay > 1.5 * mm1.mean_delay

    def test_approximations_exceed_mm1_too(self, small_hap):
        mm1 = solve_mm1(
            small_hap.mean_message_rate, small_hap.common_service_rate()
        )
        assert solve_solution1(small_hap).mean_delay > mm1.mean_delay
        assert solve_solution2(small_hap).mean_delay > mm1.mean_delay


class TestApproximationQuality:
    """Section 4.1: Solutions 1 and 2 track each other and undershoot exact."""

    def test_solutions_1_and_2_agree_closely_under_separation(
        self, separated_hap
    ):
        # The paper: "Solution 1 and 2 are almost the same, with less than
        # 1% difference" when condition 1b (time-scale separation) holds.
        sol1 = solve_solution1(separated_hap)
        sol2 = solve_solution2(separated_hap)
        assert sol1.mean_delay == pytest.approx(sol2.mean_delay, rel=0.02)

    def test_solutions_1_and_2_disagree_without_separation(self, small_hap):
        # small_hap churns users as fast as applications, violating 1b;
        # the conditional-Poisson step of Solution 2 then visibly errs.
        sol1 = solve_solution1(small_hap)
        sol2 = solve_solution2(small_hap)
        gap = abs(sol1.mean_delay - sol2.mean_delay) / sol2.mean_delay
        assert gap > 0.05

    def test_approximations_are_optimistic_at_load(self, small_hap):
        # Losing interarrival correlation underestimates delay.
        exact = solve_solution0(small_hap, backend="qbd")
        assert solve_solution2(small_hap).mean_delay < exact.mean_delay

    def test_light_load_shrinks_the_gap(self, small_hap):
        heavy_mu = small_hap.common_service_rate()
        light = small_hap.with_service_rate(heavy_mu * 8)
        exact = solve_solution0(light, backend="qbd")
        sol2 = solve_solution2(light)
        heavy_exact = solve_solution0(small_hap, backend="qbd")
        heavy_sol2 = solve_solution2(small_hap)
        light_gap = abs(sol2.mean_delay - exact.mean_delay) / exact.mean_delay
        heavy_gap = (
            abs(heavy_sol2.mean_delay - heavy_exact.mean_delay)
            / heavy_exact.mean_delay
        )
        assert light_gap < heavy_gap
        assert light_gap < 0.05  # the paper's "within 5 %" regime


class TestSolution1:
    def test_mixture_is_probability(self, small_hap):
        result = solve_solution1(small_hap)
        assert result.weights.sum() == pytest.approx(1.0)
        assert np.all(result.rates > 0)

    def test_density_integrates_to_one(self, small_hap):
        from scipy.integrate import quad

        result = solve_solution1(small_hap)
        total, _ = quad(
            lambda t: float(result.interarrival_density(t)[0]), 0, 200, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_general_route_matches_collapsed(self, small_hap):
        collapsed = solve_solution1(small_hap, collapse_symmetric=True)
        general = solve_solution1(small_hap, collapse_symmetric=False)
        assert collapsed.mean_delay == pytest.approx(
            general.mean_delay, rel=1e-3
        )

    def test_asymmetric_hap_supported(self, asymmetric_hap):
        result = solve_solution1(asymmetric_hap)
        assert result.mean_delay > 0
        assert 0 < result.sigma < 1

    def test_paper_sigma_method(self, small_hap):
        brent = solve_solution1(small_hap, method="brent")
        paper = solve_solution1(small_hap, method="paper")
        assert brent.sigma == pytest.approx(paper.sigma, abs=1e-7)


class TestSolution2:
    def test_interarrival_mixture_agreement_with_solution1(self, separated_hap):
        """Under separation, Solutions 1 and 2 give the same density."""
        sol1 = solve_solution1(separated_hap)
        sol2 = solve_solution2(separated_hap)
        ts = np.linspace(0.01, 3.0, 30)
        density1 = sol1.interarrival_density(ts)
        density2 = sol2.interarrival.density(ts)
        np.testing.assert_allclose(density1, density2, rtol=0.08)

    def test_waiting_time_cdf_range(self, small_hap):
        sol2 = solve_solution2(small_hap)
        values = sol2.waiting_time_cdf(np.linspace(0, 10, 20))
        assert np.all((0 <= values) & (values <= 1))
        assert np.all(np.diff(values) >= 0)

    def test_sigma_in_unit_interval(self, small_hap):
        assert 0 < solve_solution2(small_hap).sigma < 1

    def test_explicit_service_rate_overrides(self, small_hap):
        faster = solve_solution2(small_hap, service_rate=10.0)
        slower = solve_solution2(small_hap, service_rate=3.0)
        assert faster.mean_delay < slower.mean_delay

    def test_unstable_load_rejected(self, small_hap):
        with pytest.raises(ValueError, match="unstable"):
            solve_solution2(small_hap, service_rate=small_hap.mean_message_rate)

    def test_no_sigma_root_names_the_interarrival_condition(self):
        """A pinned admission-mix point with lambda-bar = 0.300 < mu = 0.40
        whose interarrival distribution has 1/E[T] = 0.5006 > mu: the walk
        finds no interior root, and the message must not blame the mean
        arrival rate, which is below mu."""
        mix = pinned_population_params(base_parameters(), (0.5, 0.5))
        assert mix.mean_message_rate < 0.40
        assert 1.0 / InterarrivalDistribution(mix).mean() > 0.40
        with pytest.raises(ValueError, match=r"mu \* E\[T\] <= 1") as info:
            solve_solution2(mix, 0.40)
        assert "mean arrival rate >=" not in str(info.value)


class TestConditionReport:
    def test_utilization_field(self, small_hap):
        report = condition_report(small_hap)
        assert report.utilization == pytest.approx(
            small_hap.mean_message_rate / small_hap.common_service_rate()
        )

    def test_high_load_flags_unsatisfied(self, small_hap):
        report = condition_report(
            small_hap, service_rate=small_hap.mean_message_rate * 1.05
        )
        assert not report.satisfied


class TestQBDWarmStart:
    """Solution 0's sweep warm-start contract."""

    def test_qbd_exposes_rate_matrix(self, small_hap):
        qbd = solve_solution0(small_hap, backend="qbd", modulating_bounds=(6, 12))
        assert qbd.rate_matrix is not None
        assert qbd.rate_matrix.shape == (7 * 13, 7 * 13)

    def test_truncated_backends_do_not(self, small_hap):
        direct = solve_solution0(
            small_hap, backend="direct", modulating_bounds=(6, 12), z_max=80
        )
        assert direct.rate_matrix is None

    def test_warm_start_reproduces_cold_answer(self, small_hap):
        bounds = (6, 12)
        cold = solve_solution0(small_hap, backend="qbd", modulating_bounds=bounds)
        scaled = small_hap.scaled("application", "both", 1.1)
        warm = solve_solution0(
            scaled,
            backend="qbd",
            modulating_bounds=bounds,
            qbd_initial_rate_matrix=cold.rate_matrix,
        )
        reference = solve_solution0(
            scaled, backend="qbd", modulating_bounds=bounds
        )
        assert warm.mean_delay == pytest.approx(reference.mean_delay, rel=1e-9)
        assert warm.sigma == pytest.approx(reference.sigma, rel=1e-9)
