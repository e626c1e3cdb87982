"""Tests for repro.queueing.gm1 (the σ-algorithm)."""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from repro.core.interarrival import InterarrivalDistribution
from repro.queueing.gm1 import (
    _BRENT_MAXITER,
    _BRENT_RTOL,
    _sigma_brent,
    brentq,
    sigma_fixed_point_paper,
    solve_gm1,
)
from repro.queueing.mm1 import solve_mm1


def exponential_laplace(rate: float):
    """A*(s) for exponential interarrivals — makes G/M/1 reduce to M/M/1."""

    def laplace(s: float) -> float:
        return rate / (rate + s)

    return laplace


def erlang2_laplace(rate: float):
    """Erlang-2 interarrivals (each stage at 2*rate so the mean is 1/rate)."""

    def laplace(s: float) -> float:
        stage = 2.0 * rate
        return (stage / (stage + s)) ** 2

    return laplace


class TestAgainstMM1:
    @pytest.mark.parametrize("lam,mu", [(2.0, 5.0), (8.25, 20.0), (0.9, 1.0)])
    def test_sigma_equals_rho(self, lam, mu):
        solution = solve_gm1(exponential_laplace(lam), mu, lam)
        assert solution.sigma == pytest.approx(lam / mu, rel=1e-7)

    def test_delay_matches_mm1(self):
        solution = solve_gm1(exponential_laplace(2.0), 5.0, 2.0)
        assert solution.mean_delay == pytest.approx(
            solve_mm1(2.0, 5.0).mean_delay, rel=1e-7
        )

    def test_paper_method_matches_brent(self):
        brent = solve_gm1(exponential_laplace(2.0), 5.0, 2.0, method="brent")
        paper = solve_gm1(exponential_laplace(2.0), 5.0, 2.0, method="paper")
        assert brent.sigma == pytest.approx(paper.sigma, abs=1e-8)


class TestErlangInput:
    """Erlang arrivals are *smoother* than Poisson: less wait, smaller sigma."""

    def test_sigma_below_rho(self):
        solution = solve_gm1(erlang2_laplace(2.0), 5.0, 2.0)
        assert solution.sigma < 2.0 / 5.0

    def test_delay_below_mm1(self):
        solution = solve_gm1(erlang2_laplace(2.0), 5.0, 2.0)
        assert solution.mean_delay < solve_mm1(2.0, 5.0).mean_delay


class TestDerivedQuantities:
    def test_waiting_time_cdf_endpoints(self):
        solution = solve_gm1(exponential_laplace(2.0), 5.0, 2.0)
        assert float(solution.waiting_time_cdf(0.0)) == pytest.approx(
            1.0 - solution.sigma
        )
        assert float(solution.waiting_time_cdf(100.0)) == pytest.approx(1.0)

    def test_waiting_time_cdf_monotone(self):
        solution = solve_gm1(exponential_laplace(2.0), 5.0, 2.0)
        ys = np.linspace(0, 3, 50)
        values = solution.waiting_time_cdf(ys)
        assert np.all(np.diff(values) >= 0)

    def test_delay_percentile_inverts_cdf(self):
        solution = solve_gm1(exponential_laplace(2.0), 5.0, 2.0)
        y = solution.delay_percentile(0.9)
        # System time of G/M/1 is Exp(mu (1 - sigma)).
        rate = 5.0 * (1.0 - solution.sigma)
        assert 1.0 - np.exp(-rate * y) == pytest.approx(0.9)

    def test_delay_percentile_validates(self):
        solution = solve_gm1(exponential_laplace(2.0), 5.0, 2.0)
        with pytest.raises(ValueError):
            solution.delay_percentile(1.5)

    def test_mean_wait_plus_service_is_delay(self):
        solution = solve_gm1(exponential_laplace(2.0), 5.0, 2.0)
        assert solution.mean_waiting_time + 0.2 == pytest.approx(
            solution.mean_delay
        )

    def test_littles_law(self):
        solution = solve_gm1(exponential_laplace(2.0), 5.0, 2.0)
        assert solution.mean_queue_length == pytest.approx(
            2.0 * solution.mean_delay
        )


class TestValidation:
    def test_rejects_unstable(self):
        with pytest.raises(ValueError, match="unstable"):
            solve_gm1(exponential_laplace(5.0), 5.0, 5.0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown"):
            solve_gm1(exponential_laplace(1.0), 5.0, 1.0, method="secant")

    def test_paper_iteration_validates_initial(self):
        with pytest.raises(ValueError):
            sigma_fixed_point_paper(exponential_laplace(1.0), 5.0, initial=1.5)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            solve_gm1(exponential_laplace(1.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            solve_gm1(exponential_laplace(1.0), 5.0, -1.0)


class TestPaperIterationConvergence:
    """The paper's Step 1-3 averaging loop converges from any start."""

    @pytest.mark.parametrize("initial", [0.01, 0.3, 0.7, 0.99])
    def test_converges_from_any_interior_start(self, initial):
        sigma = sigma_fixed_point_paper(
            exponential_laplace(2.0), 5.0, initial=initial
        )
        assert sigma == pytest.approx(0.4, abs=1e-6)


def _traced_outcome(solver, f, xa, xb, **kwargs):
    """``(outcome, points)``: the root's hex or the error, and every ``x``
    the solver evaluated, in order."""
    points = []

    def traced(x):
        points.append(float(x).hex())
        return f(x)

    try:
        outcome = ("root", float(solver(traced, xa, xb, **kwargs)).hex())
    except (ValueError, RuntimeError) as error:
        outcome = (type(error).__name__, str(error))
    return outcome, points


class TestBrentPort:
    """``brentq`` is scipy's ``brentq.c``: the same iterates, root and errors."""

    @pytest.mark.parametrize("xtol", [2e-12, 1e-10, 1e-6])
    @settings(max_examples=300, deadline=None)
    @given(
        root=st.floats(-10.0, 10.0),
        linear=st.floats(0.0, 10.0),
        cubic=st.floats(-5.0, 5.0),
        wiggle=st.floats(-2.0, 2.0),
        exponent=st.floats(-300.0, 300.0),
        below=st.floats(0.0, 20.0),
        above=st.floats(0.0, 20.0),
        reverse=st.booleans(),
    )
    def test_matches_scipy(
        self, xtol, root, linear, cubic, wiggle, exponent, below, above, reverse
    ):
        scale = 10.0**exponent

        def f(x: float) -> float:
            u = x - root
            return scale * (linear * u + cubic * u**3 + wiggle * math.sin(7.0 * u))

        xa, xb = root - below, root + above
        if reverse:
            xa, xb = xb, xa
        assert _traced_outcome(brentq, f, xa, xb, xtol=xtol) == _traced_outcome(
            scipy_brentq, f, xa, xb, xtol=xtol
        )

    def test_defaults_are_scipys(self):
        theirs = inspect.signature(scipy_brentq).parameters
        assert (
            inspect.signature(brentq).parameters["xtol"].default
            == theirs["xtol"].default
        )
        assert _BRENT_RTOL == theirs["rtol"].default == 4 * np.finfo(float).eps
        assert _BRENT_MAXITER == theirs["maxiter"].default == 100

    @pytest.mark.parametrize("xtol", [0.0, -1e-12])
    def test_rejects_nonpositive_xtol(self, xtol):
        with pytest.raises(ValueError, match="xtol too small"):
            brentq(lambda x: x - 1.0, 0.0, 2.0, xtol=xtol)

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="is NaN"):
            brentq(lambda x: x - 1.0 if x < 1.5 else math.nan, 0.0, 2.0)

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="must have different signs"):
            brentq(lambda x: x * x + 1.0, 0.0, 2.0)

    def test_exhausted_iterations_raise(self):
        """A step never evaluates to 0, and halving [-1e300, 1e300] down to
        ``xtol`` takes about 1 000 steps."""

        def step(x: float) -> float:
            return 1.0 if x > 0 else -1.0

        with pytest.raises(RuntimeError, match="Failed to converge after 100"):
            brentq(step, -1e300, 1e300)
        assert _traced_outcome(brentq, step, -1e300, 1e300) == _traced_outcome(
            scipy_brentq, step, -1e300, 1e300
        )

    def test_hap_sigma_matches_scipy(self, small_hap):
        laplace = InterarrivalDistribution(small_hap).laplace
        service_rate = 3.0

        def residual(s: float) -> float:
            return laplace(service_rate * (1.0 - s)) - s

        sigma = _sigma_brent(laplace, service_rate, tol=1e-10)
        # The bracket _sigma_brent walks to: double the gap to 1 until the
        # residual turns negative.
        probe = 1.0 - 1e-9
        while residual(probe) > 0:
            probe = 1.0 - 2.0 * (1.0 - probe)
        expected = scipy_brentq(residual, 1e-12, probe, xtol=1e-10)
        assert sigma.hex() == expected.hex()
