"""Tests for evenly spaced grids: GridPropagator and the MMPP dispatch.

Under the dense backend an evenly spaced grid steps through one
``expm(M h)`` instead of an eigendecomposition.  These tests pin the
stepped values to per-point ``expm`` anchors at 1e-10 on the paper's
Figure-9/10 chains, check that every other grid still reaches the kernels,
and check that an evenly spaced grid builds no :class:`SpectralKernel`.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as la

from repro.core.mmpp_mapping import symmetric_hap_to_mmpp
from repro.experiments.configs import base_parameters, fig9_parameters
from repro.markov.mmpp import MMPP
from repro.markov.spectral import (
    GridPropagator,
    KrylovKernel,
    SpectralKernel,
    power_bilinear,
    uniform_step,
)

FIGURE_PARAMS = [fig9_parameters(), base_parameters()]
FIGURE_IDS = ["fig9", "base"]


def _figure_mmpp(params) -> MMPP:
    """A fresh MMPP (no cached evaluators) on a Figure-9/10-family chain."""
    mapped = symmetric_hap_to_mmpp(params, x_max=7, y_max=28).mmpp
    return MMPP(mapped.generator, mapped.rates)


def _expm_rows(matrix, left, times):
    """``left @ expm(M t)`` for every ``t``, one ``expm`` per point."""
    return np.array([left @ la.expm(matrix * t) for t in times])


class TestUniformStep:
    def test_linspace_grids(self):
        assert uniform_step(np.linspace(0.0, 1.0, 3)) == pytest.approx(0.5)
        assert uniform_step(np.linspace(2.0, 3.0, 101)) == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "times",
        [
            [0.0, 1.0],
            [0.0, 2.0, 1.0],
            [0.0, 1.0, 3.0],
            [1.0, 1.0, 1.0],
            [2.0, 1.0, 0.0],
            [[0.0, 1.0, 2.0]],
        ],
        ids=["two-points", "unsorted", "uneven", "constant", "decreasing", "2-d"],
    )
    def test_other_grids_are_none(self, times):
        assert uniform_step(np.asarray(times)) is None


class TestPowerBilinear:
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 17, 100])
    def test_matches_stepwise_powers(self, count):
        rng = np.random.default_rng(count)
        matrix = rng.random((6, 6)) / 6.0
        left, right = rng.random(6), rng.random(6)
        expected, row = [], left
        for _ in range(count):
            expected.append(row @ right)
            row = row @ matrix
        np.testing.assert_allclose(
            power_bilinear(left, matrix, right, count), expected, rtol=1e-12
        )


class TestAgainstExpmAnchors:
    @pytest.mark.parametrize("params", FIGURE_PARAMS, ids=FIGURE_IDS)
    @pytest.mark.parametrize("start", [0.0, 0.05], ids=["t0=0", "t0>0"])
    @pytest.mark.parametrize("count", [3, 4, 17, 256])
    def test_density_and_cdf(self, params, start, count):
        mmpp = _figure_mmpp(params)
        grid = np.linspace(start, start + 0.7, count)
        rows = _expm_rows(mmpp.d0(), mmpp.palm_state_distribution(), grid)
        np.testing.assert_allclose(
            mmpp.exact_interarrival_density(grid), rows @ mmpp.rates, atol=1e-10
        )
        np.testing.assert_allclose(
            mmpp.exact_interarrival_cdf(grid), 1.0 - rows.sum(axis=1), atol=1e-10
        )

    @pytest.mark.parametrize("params", FIGURE_PARAMS, ids=FIGURE_IDS)
    @pytest.mark.parametrize("start", [0.0, 3.0], ids=["t0=0", "t0>0"])
    @pytest.mark.parametrize("count", [3, 17])
    def test_rate_autocovariance(self, params, start, count):
        mmpp = _figure_mmpp(params)
        lags = np.linspace(start, start + 200.0, count)
        pi = mmpp.stationary_distribution()
        generator = np.asarray(mmpp.generator.todense())
        expected = _expm_rows(generator, pi * mmpp.rates, lags) @ mmpp.rates
        np.testing.assert_allclose(
            mmpp.rate_autocovariance(lags),
            expected - mmpp.mean_rate() ** 2,
            atol=1e-10,
        )

    def test_propagator_reuses_its_step(self):
        mmpp = _figure_mmpp(fig9_parameters())
        propagator = GridPropagator(mmpp.d0())
        phi = mmpp.palm_state_distribution()
        grid = np.linspace(0.0, 0.7, 50)
        first = propagator.bilinear(phi, mmpp.rates, grid)
        again = propagator.bilinear(phi, mmpp.rates, grid)
        np.testing.assert_array_equal(first, again)
        shorter = propagator.bilinear(phi, mmpp.rates, grid[:10])
        np.testing.assert_allclose(shorter, first[:10], rtol=1e-13)

    def test_propagator_rejects_scattered_times(self):
        propagator = GridPropagator(np.array([[-1.0, 1.0], [0.5, -0.5]]))
        with pytest.raises(ValueError, match="evenly spaced"):
            propagator.bilinear(np.ones(2), np.ones(2), np.array([0.0, 0.1, 0.5]))


class TestDispatch:
    def test_even_grids_build_no_spectral_kernel(self, monkeypatch):
        mmpp = _figure_mmpp(fig9_parameters())

        def refuse(self, *args, **kwargs):
            raise AssertionError("an evenly spaced grid built a SpectralKernel")

        monkeypatch.setattr(SpectralKernel, "__init__", refuse)
        grid = np.linspace(0.0, 0.7, 64)
        assert mmpp.exact_interarrival_density(grid)[0] > 0.0
        assert mmpp.exact_interarrival_cdf(grid)[-1] > 0.0
        assert mmpp.rate_autocovariance(np.linspace(0.0, 50.0, 9))[0] > 0.0
        assert mmpp.index_of_dispersion(10.0) > 1.0

    @pytest.mark.parametrize(
        "grid",
        [
            np.array([0.0, 0.35]),
            np.array([0.7, 0.0, 0.35]),
            np.array([0.0, 0.1, 0.35, 0.7]),
        ],
        ids=["two-points", "unsorted", "uneven"],
    )
    def test_other_grids_reach_the_kernel(self, monkeypatch, grid):
        mmpp = _figure_mmpp(fig9_parameters())

        def refuse(self, *args, **kwargs):
            raise AssertionError("the propagator answered a scattered grid")

        monkeypatch.setattr(GridPropagator, "bilinear", refuse)
        np.testing.assert_allclose(
            mmpp.exact_interarrival_density(grid),
            mmpp.exact_interarrival_density(grid, method="expm"),
            atol=1e-10,
        )
        assert isinstance(mmpp.d0_kernel("dense"), SpectralKernel)

    def test_krylov_backend_keeps_its_kernel(self, monkeypatch):
        mmpp = _figure_mmpp(fig9_parameters())

        def refuse(self, *args, **kwargs):
            raise AssertionError("the propagator answered the krylov backend")

        monkeypatch.setattr(GridPropagator, "bilinear", refuse)
        grid = np.linspace(0.0, 0.7, 17)
        np.testing.assert_allclose(
            mmpp.exact_interarrival_density(grid, backend="krylov"),
            mmpp.exact_interarrival_density(grid, method="expm"),
            atol=1e-10,
        )
        assert isinstance(mmpp.d0_kernel("krylov"), KrylovKernel)
