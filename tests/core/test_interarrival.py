"""Tests for repro.core.interarrival — the Solution-2 closed forms."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad

from repro.core.interarrival import (
    InterarrivalDistribution,
    density_intersections,
    poisson_interarrival_density,
)
from repro.experiments.configs import base_parameters, fig9_parameters


@pytest.fixture(scope="module")
def base_dist() -> InterarrivalDistribution:
    return InterarrivalDistribution(base_parameters())


@pytest.fixture(scope="module")
def fig9_dist() -> InterarrivalDistribution:
    return InterarrivalDistribution(fig9_parameters())


class TestBoundaryValues:
    def test_ccdf_starts_at_one(self, base_dist):
        assert float(base_dist.ccdf(0.0)[0]) == pytest.approx(1.0)

    def test_ccdf_vanishes_at_infinity(self, base_dist):
        assert float(base_dist.ccdf(100.0)[0]) < 1e-10

    def test_cdf_complements_ccdf(self, base_dist):
        ts = np.array([0.05, 0.2, 1.0])
        np.testing.assert_allclose(
            base_dist.cdf(ts) + base_dist.ccdf(ts), 1.0
        )

    def test_density_at_zero_closed_form(self, base_dist):
        # a(0) = m lambda'' (1 + c + u c) with c = l lambda'/mu'.
        assert base_dist.density_at_zero() == pytest.approx(
            0.3 * (1.0 + 5.0 + 5.5 * 5.0)
        )
        assert float(base_dist.density(0.0)[0]) == pytest.approx(
            base_dist.density_at_zero()
        )

    def test_density_vanishes_at_infinity(self, base_dist):
        assert float(base_dist.density(200.0)[0]) < 1e-12


class TestCalculusConsistency:
    def test_density_is_minus_ccdf_derivative(self, base_dist):
        for t in (0.01, 0.1, 0.4, 1.5, 4.0):
            h = 1e-6
            finite_difference = (
                float(base_dist.ccdf(t - h)[0]) - float(base_dist.ccdf(t + h)[0])
            ) / (2 * h)
            assert float(base_dist.density(t)[0]) == pytest.approx(
                finite_difference, rel=1e-5
            )

    def test_density_integrates_to_one(self, base_dist):
        total = sum(
            quad(lambda t: float(base_dist.density(t)[0]), a, b, limit=200)[0]
            for a, b in [(0, 0.5), (0.5, 5.0), (5.0, 400.0)]
        )
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_mean_matches_palm_identity(self, base_dist):
        # mean = (1 - P(rate = 0)) / lambda-bar, via direct integration.
        integral = sum(
            quad(lambda t: float(base_dist.ccdf(t)[0]), a, b, limit=200)[0]
            for a, b in [(0, 0.5), (0.5, 5.0), (5.0, 400.0)]
        )
        assert integral == pytest.approx(base_dist.mean(), rel=1e-7)

    def test_probability_zero_rate_closed_form(self, base_dist):
        # P(R=0) = exp(-u (1 - exp(-sum a_i))).
        expected = np.exp(-5.5 * (1.0 - np.exp(-5.0)))
        assert base_dist.probability_zero_rate() == pytest.approx(expected)


class TestPaperFigure9:
    """The quantitative Figure-9 claims."""

    def test_lambda_bar_is_7_5(self, fig9_dist):
        assert fig9_dist.params.mean_message_rate == pytest.approx(7.5)

    def test_density_at_zero_near_9_28(self, fig9_dist):
        # Paper prints 9.28; the closed form gives exactly 9.30.
        assert fig9_dist.density_at_zero() == pytest.approx(9.3, abs=0.01)

    def test_two_intersections_near_paper_values(self, fig9_dist):
        crossings = density_intersections(fig9_dist)
        assert len(crossings) == 2
        assert crossings[0] == pytest.approx(0.077, abs=0.005)
        assert crossings[1] == pytest.approx(0.53, abs=0.01)

    def test_hap_beats_poisson_at_short_and_long_gaps(self, fig9_dist):
        rate = 7.5
        short, long_ = 0.01, 1.0
        assert float(fig9_dist.density(short)[0]) > rate * np.exp(-rate * short)
        assert float(fig9_dist.density(long_)[0]) > rate * np.exp(-rate * long_)

    def test_poisson_wins_in_the_middle(self, fig9_dist):
        mid = 0.25
        assert float(fig9_dist.density(mid)[0]) < 7.5 * np.exp(-7.5 * mid)


class TestMomentsAndTransform:
    def test_scv_above_one(self, base_dist):
        assert base_dist.scv() > 1.5

    def test_laplace_at_zero(self, base_dist):
        assert base_dist.laplace(0.0) == 1.0

    def test_laplace_monotone_decreasing(self, base_dist):
        values = [base_dist.laplace(s) for s in (0.5, 2.0, 10.0, 40.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_laplace_matches_mixture_bound(self, base_dist):
        # A*(s) >= exponential transform at the same mean is NOT generally
        # true, but A*(s) must stay within (0, 1) for s > 0.
        for s in (0.1, 1.0, 25.0):
            assert 0.0 < base_dist.laplace(s) < 1.0

    def test_laplace_rejects_negative(self, base_dist):
        with pytest.raises(ValueError):
            base_dist.laplace(-1.0)

    def test_ccdf_laplace_is_the_transform_gap(self, base_dist):
        """``∫ Abar(t) e^{-st} dt = (1 - A*(s)) / s``, tending to ``E[T]``."""
        for s in (0.1, 1.0, 25.0):
            assert base_dist.ccdf_laplace(s) == pytest.approx(
                (1.0 - base_dist.laplace(s)) / s, rel=1e-12
            )
        assert base_dist.ccdf_laplace(0.0) == base_dist.mean()
        assert base_dist.ccdf_laplace(1e-15) == pytest.approx(
            base_dist.mean(), rel=1e-9
        )


class TestHelpers:
    def test_poisson_density_shape(self):
        ts = np.array([0.0, 0.1])
        np.testing.assert_allclose(
            poisson_interarrival_density(2.0, ts),
            [2.0, 2.0 * np.exp(-0.2)],
        )

    def test_poisson_density_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            poisson_interarrival_density(0.0, np.array([0.1]))

    def test_asymmetric_hap_supported(self, asymmetric_hap):
        dist = InterarrivalDistribution(asymmetric_hap)
        assert float(dist.ccdf(0.0)[0]) == pytest.approx(1.0)
        total = sum(
            quad(lambda t: float(dist.density(t)[0]), a, b, limit=200)[0]
            for a, b in [(0, 1.0), (1.0, 20.0), (20.0, 300.0)]
        )
        assert total == pytest.approx(1.0, abs=1e-6)
