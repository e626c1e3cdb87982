"""Tests for repro.markov.matrix_geometric."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from repro.markov.matrix_geometric import (
    _rate_from_g,
    _solve_g_cyclic_reduction,
    solve_mmpp_m1,
)
from repro.markov.mmpp import MMPP
from repro.queueing.mm1 import solve_mm1


def poisson_mmpp(rate: float) -> MMPP:
    return MMPP(np.zeros((1, 1)), np.array([rate]))


def bursty_mmpp() -> MMPP:
    generator = np.array([[-0.2, 0.2], [0.3, -0.3]])
    return MMPP(generator, np.array([0.5, 4.0]))


class TestAgainstMM1:
    """With one phase, MMPP/M/1 must equal M/M/1 exactly."""

    @pytest.mark.parametrize("lam,mu", [(2.0, 5.0), (0.5, 1.0), (8.25, 20.0)])
    def test_mean_delay(self, lam, mu):
        solution = solve_mmpp_m1(poisson_mmpp(lam), mu)
        assert solution.mean_delay() == pytest.approx(
            solve_mm1(lam, mu).mean_delay, rel=1e-8
        )

    def test_queue_length_distribution_geometric(self):
        lam, mu = 2.0, 5.0
        solution = solve_mmpp_m1(poisson_mmpp(lam), mu)
        pmf = solution.level_distribution(10)
        expected = solve_mm1(lam, mu).queue_length_pmf(10)
        np.testing.assert_allclose(pmf, expected, atol=1e-10)

    def test_probability_empty(self):
        solution = solve_mmpp_m1(poisson_mmpp(2.0), 5.0)
        assert solution.probability_empty() == pytest.approx(0.6, rel=1e-8)


class TestBurstyInput:
    def test_utilization(self):
        mmpp = bursty_mmpp()
        solution = solve_mmpp_m1(mmpp, 5.0)
        assert solution.utilization == pytest.approx(mmpp.mean_rate() / 5.0)

    def test_delay_exceeds_equivalent_mm1(self):
        mmpp = bursty_mmpp()
        solution = solve_mmpp_m1(mmpp, 5.0)
        mm1 = solve_mm1(mmpp.mean_rate(), 5.0)
        assert solution.mean_delay() > mm1.mean_delay

    def test_level_distribution_sums_to_one(self):
        solution = solve_mmpp_m1(bursty_mmpp(), 5.0)
        assert solution.level_distribution(4000).sum() == pytest.approx(
            1.0, abs=1e-6
        )

    def test_methods_agree(self):
        mmpp = bursty_mmpp()
        lr = solve_mmpp_m1(mmpp, 5.0, method="lr")
        fp = solve_mmpp_m1(mmpp, 5.0, method="fixed-point")
        assert lr.mean_delay() == pytest.approx(fp.mean_delay(), rel=1e-8)
        np.testing.assert_allclose(lr.rate_matrix, fp.rate_matrix, atol=1e-8)

    def test_rate_matrix_satisfies_quadratic(self):
        mmpp = bursty_mmpp()
        mu = 5.0
        solution = solve_mmpp_m1(mmpp, mu)
        r = solution.rate_matrix
        a0 = mmpp.d1()
        a1 = mmpp.d0() - mu * np.eye(2)
        a2 = mu * np.eye(2)
        residual = a0 + r @ a1 + r @ r @ a2
        np.testing.assert_allclose(residual, 0.0, atol=1e-9)

    def test_spectral_radius_below_one(self):
        solution = solve_mmpp_m1(bursty_mmpp(), 5.0)
        radius = max(abs(np.linalg.eigvals(solution.rate_matrix)))
        assert radius < 1.0

    def test_boundary_balance(self):
        # pi_0 (D0 + R * mu I) = 0.
        mmpp = bursty_mmpp()
        mu = 5.0
        solution = solve_mmpp_m1(mmpp, mu)
        residual = solution.boundary @ (
            mmpp.d0() + solution.rate_matrix * mu
        )
        np.testing.assert_allclose(residual, 0.0, atol=1e-9)


class TestValidation:
    def test_rejects_unstable(self):
        with pytest.raises(ValueError, match="unstable"):
            solve_mmpp_m1(poisson_mmpp(5.0), 4.0)

    def test_rejects_bad_service_rate(self):
        with pytest.raises(ValueError):
            solve_mmpp_m1(poisson_mmpp(1.0), 0.0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown"):
            solve_mmpp_m1(poisson_mmpp(1.0), 2.0, method="nope")


class TestHeavyLoad:
    def test_near_saturation_still_converges(self):
        solution = solve_mmpp_m1(poisson_mmpp(4.9), 5.0)
        assert solution.mean_delay() == pytest.approx(
            solve_mm1(4.9, 5.0).mean_delay, rel=1e-6
        )


class TestWarmStart:
    def test_warm_start_matches_cold_solve(self):
        mmpp = bursty_mmpp()
        cold = solve_mmpp_m1(mmpp, 5.0)
        warm = solve_mmpp_m1(
            mmpp, 5.0, initial_rate_matrix=cold.rate_matrix
        )
        np.testing.assert_allclose(
            warm.rate_matrix, cold.rate_matrix, atol=1e-10
        )
        assert warm.mean_delay() == pytest.approx(
            cold.mean_delay(), rel=1e-10
        )

    def test_warm_start_from_neighbour_point(self):
        # The sweep contract: the converged R of a nearby parameter point
        # is a valid initial guess and must not change the answer.
        generator = np.array([[-0.2, 0.2], [0.3, -0.3]])
        slow = MMPP(generator, np.array([0.5, 4.0]))
        fast = MMPP(generator, np.array([0.55, 4.4]))
        neighbour = solve_mmpp_m1(slow, 5.0).rate_matrix
        warm = solve_mmpp_m1(fast, 5.0, initial_rate_matrix=neighbour)
        cold = solve_mmpp_m1(fast, 5.0)
        assert warm.mean_delay() == pytest.approx(
            cold.mean_delay(), rel=1e-9
        )

    def test_bad_guess_falls_back_to_cold_solve(self):
        # A hopeless initial matrix must not poison the result: the
        # refinement bails on its iteration budget and the cold cyclic
        # reduction solve takes over.
        mmpp = bursty_mmpp()
        cold = solve_mmpp_m1(mmpp, 5.0)
        warm = solve_mmpp_m1(
            mmpp, 5.0, initial_rate_matrix=np.full((2, 2), 0.9)
        )
        assert warm.mean_delay() == pytest.approx(
            cold.mean_delay(), rel=1e-9
        )

    def test_wrong_shape_guess_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            solve_mmpp_m1(
                bursty_mmpp(), 5.0, initial_rate_matrix=np.zeros((3, 3))
            )


def random_mmpp(n: int, seed: int) -> MMPP:
    rng = np.random.default_rng(seed)
    generator = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    np.fill_diagonal(generator, 0.0)
    generator -= np.diag(generator.sum(axis=1))
    return MMPP(generator, 3.0 * rng.random(n))


class TestSolveFreeSteps:
    """R from G without a solve, and the level pmf stepped in blocks."""

    def test_rate_from_g_matches_lu_form(self):
        mmpp = random_mmpp(12, 3)
        mu = mmpp.mean_rate() / 0.8
        a0 = mmpp.d1()
        a1 = mmpp.d0() - mu * np.eye(12)
        a2 = mu * np.eye(12)
        g = _solve_g_cyclic_reduction(a0, a1, a2, 1e-12, 100)
        lu_form = lu_solve(lu_factor(-(a1 + a0 @ g).T), a0.T).T
        np.testing.assert_allclose(
            _rate_from_g(a0, a2, g), lu_form, rtol=1e-10, atol=1e-14
        )

    @pytest.mark.parametrize("max_level", [0, 1, 400])
    @pytest.mark.parametrize("load", [0.3, 0.9])
    def test_level_distribution_matches_stepwise_loop(self, max_level, load):
        mmpp = random_mmpp(12, 5)
        solution = solve_mmpp_m1(mmpp, mmpp.mean_rate() / load)
        expected, vec = [], solution.boundary
        for _ in range(max_level + 1):
            expected.append(vec.sum())
            vec = vec @ solution.rate_matrix
        np.testing.assert_allclose(
            solution.level_distribution(max_level), expected, rtol=1e-12
        )
