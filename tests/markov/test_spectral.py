"""Tests for repro.markov.spectral and the MMPP analytic-kernel layer.

The spectral kernels replace one-``expm``-per-grid-point loops with a
single decomposition; every legacy path is kept as ``method="expm"`` /
``method="legacy"``, and these tests pin the two to each other at 1e-10
on the paper's Figure-9/10 parameter sets plus random truncated HAPs.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse as sp

from repro.core.mmpp_mapping import hap_to_mmpp, symmetric_hap_to_mmpp
from repro.core.params import ApplicationType, HAPParameters, MessageType
from repro.experiments.configs import base_parameters, fig9_parameters
from repro.markov.spectral import (
    AUTO_DENSE_LIMIT,
    GridPropagator,
    KrylovKernel,
    SpectralKernel,
    UniformizedKernel,
    resolve_backend,
)


def _expm_bilinear(matrix, left, right, times):
    return np.array(
        [float(left @ la.expm(matrix * t) @ right) for t in times]
    )


def _figure_mmpp(params: HAPParameters):
    """A Figure-9/10-family chain small enough for dense expm anchors."""
    return symmetric_hap_to_mmpp(params, x_max=7, y_max=28).mmpp


FIGURE_PARAMS = [fig9_parameters(), base_parameters()]
FIGURE_IDS = ["fig9", "base"]


class TestSpectralKernel:
    def test_matches_expm_on_random_matrix(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(8, 8))
        matrix -= np.diag(np.abs(matrix).sum(axis=1))
        kernel = SpectralKernel(matrix)
        assert kernel.method == "eig"
        left = rng.random(8)
        right = rng.random(8)
        times = np.linspace(0.0, 3.0, 17)
        np.testing.assert_allclose(
            kernel.bilinear(left, right, times),
            _expm_bilinear(matrix, left, right, times),
            atol=1e-10,
        )

    def test_defective_matrix_falls_back_to_schur(self):
        # A Jordan block is defective: no eigenvector basis exists, so the
        # eig path cannot pass its reconstruction check.
        matrix = np.array([[-1.0, 1.0], [0.0, -1.0]])
        kernel = SpectralKernel(matrix)
        assert kernel.method == "schur"
        left = np.array([0.3, 0.7])
        right = np.array([1.0, 2.0])
        times = np.linspace(0.0, 4.0, 9)
        np.testing.assert_allclose(
            kernel.bilinear(left, right, times),
            _expm_bilinear(matrix, left, right, times),
            atol=1e-12,
        )

    def test_time_zero_recovers_inner_product(self):
        matrix = np.array([[-0.2, 0.2], [0.3, -0.3]])
        kernel = SpectralKernel(matrix)
        value = kernel.bilinear(
            np.array([0.5, 0.5]), np.array([1.0, 3.0]), np.array([0.0])
        )
        assert value[0] == pytest.approx(2.0, abs=1e-13)


class TestUniformizedKernel:
    def test_matches_expm_on_generator(self):
        generator = np.array(
            [[-0.5, 0.3, 0.2], [0.1, -0.4, 0.3], [0.2, 0.2, -0.4]]
        )
        kernel = UniformizedKernel(generator)
        left = np.array([0.2, 0.5, 0.3])
        right = np.array([1.0, 4.0, 9.0])
        times = np.linspace(0.0, 10.0, 21)
        np.testing.assert_allclose(
            kernel.bilinear(left, right, times),
            _expm_bilinear(generator, left, right, times),
            atol=1e-10,
        )

    def test_matches_spectral_on_paper_chain(self):
        mmpp = _figure_mmpp(fig9_parameters())
        generator = np.asarray(mmpp.generator.todense())
        uniformized = UniformizedKernel(mmpp.generator)
        spectral = SpectralKernel(generator)
        pi = mmpp.stationary_distribution()
        times = np.linspace(0.0, 50.0, 11)
        np.testing.assert_allclose(
            uniformized.bilinear(pi, mmpp.rates, times),
            spectral.bilinear(pi, mmpp.rates, times),
            atol=1e-9,
        )


class TestKrylovKernel:
    @staticmethod
    def _random_generator(n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        matrix = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        np.fill_diagonal(matrix, 0.0)
        matrix -= np.diag(matrix.sum(axis=1))
        return matrix

    def test_matches_expm_on_uniform_grid(self):
        matrix = self._random_generator(12, 7)
        kernel = KrylovKernel(sp.csr_matrix(matrix))
        assert kernel.method == "krylov"
        rng = np.random.default_rng(11)
        left, right = rng.random(12), rng.random(12)
        times = np.linspace(0.0, 5.0, 33)
        np.testing.assert_allclose(
            kernel.bilinear(left, right, times),
            _expm_bilinear(matrix, left, right, times),
            atol=1e-10,
        )

    def test_matches_expm_on_non_uniform_grid(self):
        matrix = self._random_generator(10, 3)
        kernel = KrylovKernel(sp.csr_matrix(matrix))
        rng = np.random.default_rng(4)
        left, right = rng.random(10), rng.random(10)
        times = np.concatenate([[0.0], np.geomspace(1e-3, 8.0, 15)])
        np.testing.assert_allclose(
            kernel.bilinear(left, right, times),
            _expm_bilinear(matrix, left, right, times),
            atol=1e-10,
        )

    def test_unsorted_and_duplicate_times(self):
        matrix = self._random_generator(8, 9)
        kernel = KrylovKernel(sp.csr_matrix(matrix))
        rng = np.random.default_rng(2)
        left, right = rng.random(8), rng.random(8)
        times = np.array([2.0, 0.0, 1.0, 2.0, 0.5, 1.0])
        np.testing.assert_allclose(
            kernel.bilinear(left, right, times),
            _expm_bilinear(matrix, left, right, times),
            atol=1e-10,
        )

    def test_time_zero_recovers_inner_product(self):
        matrix = sp.csr_matrix(np.array([[-0.2, 0.2], [0.3, -0.3]]))
        kernel = KrylovKernel(matrix)
        value = kernel.bilinear(
            np.array([0.5, 0.5]), np.array([1.0, 3.0]), np.array([0.0])
        )
        assert value[0] == pytest.approx(2.0, abs=1e-13)

    def test_rejects_negative_times(self):
        kernel = KrylovKernel(
            sp.csr_matrix(np.array([[-1.0, 1.0], [2.0, -2.0]]))
        )
        with pytest.raises(ValueError, match="non-negative"):
            kernel.bilinear(
                np.ones(2), np.ones(2), np.array([0.5, -0.1])
            )

    def test_accepts_dense_input(self):
        matrix = self._random_generator(6, 5)
        dense_fed = KrylovKernel(matrix)
        sparse_fed = KrylovKernel(sp.csr_matrix(matrix))
        rng = np.random.default_rng(8)
        left, right = rng.random(6), rng.random(6)
        times = np.linspace(0.0, 2.0, 9)
        np.testing.assert_allclose(
            dense_fed.bilinear(left, right, times),
            sparse_fed.bilinear(left, right, times),
            atol=1e-13,
        )

    def test_matches_spectral_on_paper_chain(self):
        mmpp = _figure_mmpp(fig9_parameters())
        krylov = KrylovKernel(mmpp.generator)
        spectral = SpectralKernel(np.asarray(mmpp.generator.todense()))
        pi = mmpp.stationary_distribution()
        times = np.linspace(0.0, 50.0, 11)
        np.testing.assert_allclose(
            krylov.bilinear(pi, mmpp.rates, times),
            spectral.bilinear(pi, mmpp.rates, times),
            atol=1e-9,
        )


class TestBackendRegistry:
    def test_explicit_choice_passes_through(self):
        assert resolve_backend("dense", num_states=10**6) == "dense"
        assert resolve_backend("krylov", num_states=2) == "krylov"

    def test_auto_switches_on_state_count(self):
        assert resolve_backend("auto", num_states=AUTO_DENSE_LIMIT) == "dense"
        assert (
            resolve_backend("auto", num_states=AUTO_DENSE_LIMIT + 1)
            == "krylov"
        )

    def test_auto_with_unknown_size_stays_dense(self):
        assert resolve_backend("auto", num_states=None) == "dense"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown analytic backend"):
            resolve_backend("pade")


class TestDenseKrylovEquivalence:
    """The PR-4 contract: above the auto threshold, the Krylov backend
    reproduces the dense spectral answers to 1e-9 on every analytic
    quantity.  (The full ~2.2k-state headline chain is locked the same way
    in ``benchmarks/test_bench_scale.py``; this chain clears the threshold
    while keeping the dense anchor tier-1-affordable.)"""

    @staticmethod
    def _large_mmpp():
        mapped = symmetric_hap_to_mmpp(base_parameters(), x_max=7, y_max=99)
        assert mapped.mmpp.num_states > AUTO_DENSE_LIMIT
        return mapped.mmpp

    def test_auto_resolves_to_krylov_above_threshold(self):
        mmpp = self._large_mmpp()
        assert isinstance(mmpp.d0_kernel(), KrylovKernel)
        assert isinstance(mmpp.d0_kernel("dense"), SpectralKernel)
        small = _figure_mmpp(fig9_parameters())
        assert isinstance(small.d0_kernel(), SpectralKernel)

    def test_kernels_cached_per_backend(self):
        mmpp = self._large_mmpp()
        assert mmpp.d0_kernel("krylov") is mmpp.d0_kernel("krylov")
        assert mmpp.d0_kernel("krylov") is not mmpp.d0_kernel("dense")

    def test_interarrival_density(self):
        mmpp = self._large_mmpp()
        grid = np.linspace(0.0, 0.7, 41)
        np.testing.assert_allclose(
            mmpp.exact_interarrival_density(grid, backend="krylov"),
            mmpp.exact_interarrival_density(grid, backend="dense"),
            atol=1e-9,
        )

    def test_interarrival_cdf(self):
        mmpp = self._large_mmpp()
        grid = np.linspace(0.0, 0.7, 41)
        np.testing.assert_allclose(
            mmpp.exact_interarrival_cdf(grid, backend="krylov"),
            mmpp.exact_interarrival_cdf(grid, backend="dense"),
            atol=1e-9,
        )

    def test_rate_autocovariance(self):
        mmpp = self._large_mmpp()
        lags = np.linspace(0.0, 200.0, 17)
        np.testing.assert_allclose(
            mmpp.rate_autocovariance(lags, backend="krylov"),
            mmpp.rate_autocovariance(lags, backend="dense"),
            atol=1e-9,
        )

    def test_index_of_dispersion(self):
        mmpp = self._large_mmpp()
        krylov = mmpp.index_of_dispersion(
            100.0, quad_points=64, backend="krylov"
        )
        dense = mmpp.index_of_dispersion(
            100.0, quad_points=64, backend="dense"
        )
        assert krylov == pytest.approx(dense, rel=1e-9)


class TestSpectralVsExpmEquivalence:
    """The tentpole contract: spectral grids == legacy expm loops, 1e-10."""

    @pytest.mark.parametrize("params", FIGURE_PARAMS, ids=FIGURE_IDS)
    def test_interarrival_density(self, params):
        mmpp = _figure_mmpp(params)
        grid = np.linspace(0.0, 0.7, 29)
        np.testing.assert_allclose(
            mmpp.exact_interarrival_density(grid, method="spectral"),
            mmpp.exact_interarrival_density(grid, method="expm"),
            atol=1e-10,
        )

    @pytest.mark.parametrize("params", FIGURE_PARAMS, ids=FIGURE_IDS)
    def test_interarrival_cdf(self, params):
        mmpp = _figure_mmpp(params)
        grid = np.linspace(0.0, 0.7, 29)
        np.testing.assert_allclose(
            mmpp.exact_interarrival_cdf(grid, method="spectral"),
            mmpp.exact_interarrival_cdf(grid, method="expm"),
            atol=1e-10,
        )

    @pytest.mark.parametrize("params", FIGURE_PARAMS, ids=FIGURE_IDS)
    def test_rate_autocovariance(self, params):
        mmpp = _figure_mmpp(params)
        lags = np.linspace(0.0, 200.0, 9)
        np.testing.assert_allclose(
            mmpp.rate_autocovariance(lags, method="spectral"),
            mmpp.rate_autocovariance(lags, method="legacy"),
            atol=1e-10,
        )

    @pytest.mark.parametrize("params", FIGURE_PARAMS, ids=FIGURE_IDS)
    def test_index_of_dispersion(self, params):
        mmpp = _figure_mmpp(params)
        spectral = mmpp.index_of_dispersion(100.0, quad_points=64)
        legacy = mmpp.index_of_dispersion(
            100.0, quad_points=64, method="legacy"
        )
        # IDC sits near 50 at this horizon, so the 1e-10 bar is relative.
        assert spectral == pytest.approx(legacy, rel=1e-10)

    def test_unknown_method_rejected(self):
        mmpp = _figure_mmpp(fig9_parameters())
        with pytest.raises(ValueError, match="unknown"):
            mmpp.exact_interarrival_density(np.array([0.1]), method="pade")
        with pytest.raises(ValueError, match="unknown"):
            mmpp.rate_autocovariance(np.array([1.0]), method="pade")


class TestGridArguments:
    """A call answers the same on either side of ``AUTO_DENSE_LIMIT``:
    negative times are an error under both backends (the dense propagator
    would otherwise step backwards through ``expm(M h)``)."""

    @pytest.mark.parametrize("backend", ["dense", "krylov"])
    @pytest.mark.parametrize(
        "quantity",
        [
            "exact_interarrival_density",
            "exact_interarrival_cdf",
            "rate_autocovariance",
        ],
    )
    def test_negative_times_rejected(self, quantity, backend):
        mmpp = _figure_mmpp(fig9_parameters())
        with pytest.raises(ValueError, match="must be non-negative"):
            getattr(mmpp, quantity)(np.array([-0.1, 0.0, 0.1]), backend=backend)

    @pytest.mark.parametrize(
        "kernel", [SpectralKernel, GridPropagator, KrylovKernel, UniformizedKernel]
    )
    def test_every_kernel_rejects_negative_times(self, kernel):
        # An evenly spaced grid, so the propagator cannot refuse it for its
        # spacing instead.
        generator = np.array([[-1.0, 1.0], [2.0, -2.0]])
        with pytest.raises(ValueError, match="^times must be non-negative$"):
            kernel(generator).bilinear(
                np.ones(2), np.ones(2), np.array([-0.2, -0.1, 0.0])
            )

    @pytest.mark.parametrize("quad_points", [0, 1])
    def test_index_of_dispersion_needs_two_nodes(self, quad_points):
        # One node integrates to zero: IDC 1.0, the Poisson value, for any chain.
        mmpp = _figure_mmpp(fig9_parameters())
        with pytest.raises(ValueError, match="quad_points must be at least 2"):
            mmpp.index_of_dispersion(10.0, quad_points=quad_points)


# --------------------------------------------------------------------------
# Property test: the spectral density is a density, on random truncated HAPs
# --------------------------------------------------------------------------

_rates = st.floats(min_value=0.05, max_value=0.5)


@st.composite
def random_truncated_haps(draw) -> HAPParameters:
    num_apps = draw(st.integers(min_value=1, max_value=2))
    applications = tuple(
        ApplicationType(
            arrival_rate=draw(_rates),
            departure_rate=draw(_rates),
            messages=(
                MessageType(arrival_rate=draw(_rates), service_rate=10.0),
            ),
        )
        for _ in range(num_apps)
    )
    return HAPParameters(
        user_arrival_rate=draw(_rates),
        user_departure_rate=draw(_rates),
        applications=applications,
        name="prop",
    )


@settings(max_examples=12, deadline=None)
@given(params=random_truncated_haps())
def test_spectral_density_is_a_density(params):
    bounds = (3,) + (3,) * params.num_app_types
    mmpp = hap_to_mmpp(params, bounds=bounds).mmpp
    # Horizon from D0's slowest decay mode so the integral captures the tail.
    decay = -float(np.real(np.linalg.eigvals(mmpp.d0())).max())
    assert decay > 0
    horizon = min(40.0 / decay, 1e6)
    # Composite grid: the service modes decay orders of magnitude faster
    # than the slowest D0 mode that sets the horizon, so a purely linear
    # grid under-resolves the initial boundary layer and the trapezoid
    # integral overshoots.  Log-spaced points near zero fix the quadrature
    # without touching the density itself.
    grid = np.unique(
        np.concatenate(
            [
                [0.0],
                np.geomspace(horizon * 1e-8, horizon, 3000),
                np.linspace(0.0, horizon, 2001),
            ]
        )
    )
    density = mmpp.exact_interarrival_density(grid, method="spectral")
    assert np.all(density >= -1e-10)
    integral = float(np.trapezoid(density, grid))
    assert integral == pytest.approx(1.0, abs=5e-3)
    # And the CDF agrees with the integral's running view at the endpoint.
    cdf = mmpp.exact_interarrival_cdf(np.array([horizon]), method="spectral")
    assert cdf[0] == pytest.approx(1.0, abs=1e-3)
