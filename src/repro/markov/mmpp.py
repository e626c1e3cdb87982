"""Markov-modulated Poisson processes.

An MMPP is a doubly-stochastic Poisson process whose rate is a function of
the state of a background CTMC.  We store it as the generator ``Q`` of the
modulating chain plus the per-state arrival-rate vector ``rates``; the
equivalent Neuts representation is ``D1 = diag(rates)``, ``D0 = Q - D1``.

The paper's central structural result (Section 3.1) is that HAP *is* an
``(l + 1)``-dimension infinite-state MMPP whose transitions only connect
neighbouring states; :mod:`repro.core.mmpp_mapping` constructs instances of
this class from HAP parameter sets.  This module also implements the 2-state
moment-matched MMPP (Heffes–Lucantoni style), the "conventional MMPP"
baseline that the paper argues is insufficient for computer traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.markov.ctmc import CTMC
from repro.markov.spectral import (
    GridPropagator,
    KrylovKernel,
    SpectralKernel,
    UniformizedKernel,
    resolve_backend,
    uniform_step,
)

__all__ = ["MMPP", "fit_mmpp2_to_moments"]


def _grid(values, name: str) -> np.ndarray:
    """``values`` as a 1-D float array; negative entries raise ``ValueError``."""
    grid = np.atleast_1d(np.asarray(values, dtype=float))
    if np.any(grid < 0.0):
        raise ValueError(f"{name} must be non-negative")
    return grid


@dataclass
class MMPP:
    """An MMPP given by its modulating generator and per-state rates.

    Parameters
    ----------
    generator:
        Generator matrix of the modulating CTMC (dense or sparse).
    rates:
        Arrival rate in each modulating state (non-negative vector).
    """

    generator: object
    rates: np.ndarray
    _chain: CTMC = field(init=False, repr=False)
    _kernels: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.rates = np.asarray(self.rates, dtype=float)
        self._chain = CTMC(self.generator)
        if self.rates.shape != (self._chain.num_states,):
            raise ValueError("rates must have one entry per modulating state")
        if np.any(self.rates < 0):
            raise ValueError("arrival rates must be non-negative")

    # ------------------------------------------------------------------
    # Representations
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of modulating states."""
        return self._chain.num_states

    @property
    def chain(self) -> CTMC:
        """The modulating CTMC."""
        return self._chain

    def d0(self) -> np.ndarray:
        """Neuts' ``D0 = Q - diag(rates)`` (dense)."""
        q = self.generator
        dense = np.asarray(q.todense() if sp.issparse(q) else q, dtype=float)
        return dense - np.diag(self.rates)

    def d0_sparse(self) -> sp.csr_matrix:
        """Neuts' ``D0 = Q - diag(rates)`` in CSR form, no dense round-trip.

        The sparse analytic backend and the QBD block assembly consume this
        directly; on a truncated HAP chain ``D0`` has ``O(n)`` non-zeros
        (nearest-neighbour transitions plus the diagonal), so the dense
        ``n x n`` form in :meth:`d0` is pure waste above a few hundred
        states.
        """
        q = self.generator
        q = q.tocsr() if sp.issparse(q) else sp.csr_matrix(
            np.asarray(q, dtype=float)
        )
        return (q - sp.diags(self.rates, format="csr")).tocsr()

    def d1(self) -> np.ndarray:
        """Neuts' ``D1 = diag(rates)`` (dense)."""
        return np.diag(self.rates)

    def d1_sparse(self) -> sp.csr_matrix:
        """Neuts' ``D1 = diag(rates)`` in CSR form."""
        return sp.diags(self.rates, format="csr").tocsr()

    def d0_kernel(self, backend: str = "auto"):
        """Grid-evaluation kernel for ``expm(D0 t)`` forms.

        Built once per resolved backend and cached on the instance (the
        mapping cache in :mod:`repro.core.mmpp_mapping` shares MMPP
        instances, so a chain factorized under one backend is not penalized
        when another backend is requested later).  ``backend="auto"``
        resolves by chain size (see
        :func:`repro.markov.spectral.resolve_backend`): a dense
        :class:`~repro.markov.spectral.SpectralKernel` for modest phase
        counts, the action-based
        :class:`~repro.markov.spectral.KrylovKernel` for large ones.
        """
        resolved = resolve_backend(backend, self.num_states)
        key = ("d0", resolved)
        if key not in self._kernels:
            if resolved == "krylov":
                self._kernels[key] = KrylovKernel(self.d0_sparse())
            else:
                self._kernels[key] = SpectralKernel(self.d0())
        return self._kernels[key]

    def generator_kernel(self, backend: str = "auto"):
        """Grid-evaluation kernel for ``expm(Q t)`` forms.

        Same backend contract and per-backend caching as
        :meth:`d0_kernel`.  On the dense path a *generator* always has the
        uniformized power series as a fast, unconditionally stable
        evaluator, so when the eigendecomposition fails its residual check
        (lattice generators routinely have near-defective eigenvector
        bases) the fallback is :class:`UniformizedKernel` — per-grid-point
        Schur ``expm`` would reintroduce exactly the per-point cost this
        layer removes.  The krylov path needs no such fallback: the
        truncated-Taylor action is unconditionally stable.
        """
        resolved = resolve_backend(backend, self.num_states)
        key = ("generator", resolved)
        if key not in self._kernels:
            if resolved == "krylov":
                q = self.generator
                q = q.tocsr() if sp.issparse(q) else sp.csr_matrix(
                    np.asarray(q, dtype=float)
                )
                self._kernels[key] = KrylovKernel(q)
            else:
                q = self.generator
                dense = np.asarray(
                    q.todense() if sp.issparse(q) else q, dtype=float
                )
                spectral = SpectralKernel(dense)
                if spectral.method == "eig":
                    self._kernels[key] = spectral
                else:
                    self._kernels[key] = UniformizedKernel(self.generator)
        return self._kernels[key]

    def _bilinear(
        self, matrix: str, left, right, times: np.ndarray, backend: str
    ) -> np.ndarray:
        """``left @ expm(M t) @ right`` over ``times`` for ``M = D0`` or ``Q``.

        ``matrix`` is ``"d0"`` or ``"generator"``.  Under the resolved
        ``dense`` backend an evenly spaced grid (see
        :func:`~repro.markov.spectral.uniform_step`) steps through one
        cached :class:`~repro.markov.spectral.GridPropagator` per matrix and
        builds no kernel; any other grid, and the ``krylov`` backend, go to
        :meth:`d0_kernel` or :meth:`generator_kernel`.
        """
        resolved = resolve_backend(backend, self.num_states)
        if resolved == "dense" and uniform_step(times) is not None:
            key = (matrix, "propagator")
            if key not in self._kernels:
                self._kernels[key] = GridPropagator(
                    self.d0() if matrix == "d0" else self.generator
                )
            evaluator = self._kernels[key]
        elif matrix == "d0":
            evaluator = self.d0_kernel(resolved)
        else:
            evaluator = self.generator_kernel(resolved)
        return evaluator.bilinear(left, right, times)

    # ------------------------------------------------------------------
    # First- and second-order statistics
    # ------------------------------------------------------------------
    def stationary_distribution(self) -> np.ndarray:
        """Stationary distribution of the modulating chain."""
        return self._chain.stationary_distribution()

    def mean_rate(self) -> float:
        """Long-run arrival rate ``sum_s pi_s r_s``."""
        return float(self.stationary_distribution() @ self.rates)

    def rate_variance(self) -> float:
        """Stationary variance of the modulating rate."""
        pi = self.stationary_distribution()
        mean = float(pi @ self.rates)
        return float(pi @ (self.rates - mean) ** 2)

    def palm_state_distribution(self) -> np.ndarray:
        """Probability that an *arrival* finds the chain in each state.

        This is the rate-weighted stationary distribution — exactly the
        weighting the paper applies in Equation 3 when it expresses the
        message interarrival time as a mixture over modulating states.
        """
        pi = self.stationary_distribution()
        weights = pi * self.rates
        total = weights.sum()
        if total <= 0:
            raise ArithmeticError("MMPP has zero mean rate; no arrivals")
        return weights / total

    def interarrival_mixture(self) -> tuple[np.ndarray, np.ndarray]:
        """The paper's Solution-1 interarrival approximation.

        Returns ``(weights, rates)`` of a hyper-exponential mixture: an
        arrival is generated in state ``s`` with probability ``weights[s]``
        and the next interarrival is then approximated as Exp(``rates[s]``).
        States with zero rate carry zero weight and are dropped.
        """
        palm = self.palm_state_distribution()
        active = self.rates > 0
        weights = palm[active]
        return weights / weights.sum(), self.rates[active]

    def interarrival_density(self, t: np.ndarray) -> np.ndarray:
        """Solution-1 approximate interarrival density ``a(t)``."""
        weights, rates = self.interarrival_mixture()
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return (weights * rates * np.exp(-np.outer(t, rates))).sum(axis=1)

    def interarrival_laplace(self, s: float) -> float:
        """Laplace transform ``A*(s)`` of the Solution-1 mixture."""
        weights, rates = self.interarrival_mixture()
        return float(np.sum(weights * rates / (rates + s)))

    def exact_interarrival_moments(self, order: int = 2) -> list[float]:
        """Exact stationary-interval interarrival moments via ``D0``.

        For a stationary MMPP the interarrival time of the arrival-stationary
        (Palm) process has ``E[T^k] = k! * phi (-D0)^{-k} 1`` where ``phi``
        is the post-arrival phase distribution ``pi D1 / (pi D1 1)``.
        """
        if order < 1:
            raise ValueError("order must be >= 1")
        pi = self.stationary_distribution()
        weights = pi * self.rates
        phi = weights / weights.sum()
        ones = np.ones(self.num_states)
        # vec <- vec (-D0)^{-1} is a transposed solve; factor (-D0)^T once.
        # Sparse chains get a sparse LU — the dense factorization is O(n^3)
        # time / O(n^2) memory and is exactly the ceiling the sparse backend
        # removes.
        if sp.issparse(self.generator):
            import scipy.sparse.linalg as spla

            lu = spla.splu((-self.d0_sparse().T).tocsc())
            solve = lu.solve
        else:
            from scipy.linalg import lu_factor, lu_solve

            lu_neg_d0t = lu_factor(-self.d0().T)
            solve = lambda vec: lu_solve(lu_neg_d0t, vec)  # noqa: E731
        moments = []
        vec = phi.copy()
        factorial = 1.0
        for k in range(1, order + 1):
            vec = solve(vec)
            factorial *= k
            moments.append(float(factorial * (vec @ ones)))
        return moments

    def interarrival_scv(self) -> float:
        """Squared coefficient of variation of the exact interarrival time."""
        m1, m2 = self.exact_interarrival_moments(order=2)
        return m2 / m1**2 - 1.0

    def exact_interarrival_density(
        self, t: np.ndarray, method: str = "spectral", backend: str = "auto"
    ) -> np.ndarray:
        """Exact stationary-interval interarrival density.

        ``f(t) = phi exp(D0 t) D1 1`` with ``phi`` the post-arrival phase
        distribution — the quantity the paper's Solutions 1/2 *approximate*
        with a state mixture.  The difference between this and
        :meth:`interarrival_density` is precisely the within-interval phase
        drift those solutions ignore; tests quantify it.

        ``method="spectral"`` (default) evaluates the whole grid at once
        under the requested analytic ``backend`` (``auto`` picks by chain
        size): under ``dense`` an evenly spaced grid steps through one
        cached ``expm(D0 h)`` (a
        :class:`~repro.markov.spectral.GridPropagator`), and any other grid
        uses the cached :meth:`d0_kernel` factorization, as does every
        ``krylov`` grid.  ``method="expm"`` is the legacy
        one-``expm``-per-point path, kept as the equivalence anchor.
        Negative times raise :class:`ValueError` under every method and
        backend.
        """
        t = _grid(t, "times")
        phi = self.palm_state_distribution()
        rate_vector = self.rates  # D1 @ 1 = rates
        if method == "spectral":
            return self._bilinear("d0", phi, rate_vector, t, backend)
        if method != "expm":
            raise ValueError(f"unknown interarrival method {method!r}")
        from scipy.linalg import expm

        d0 = self.d0()
        values = np.empty(t.shape)
        for k, time in enumerate(t):
            values[k] = float(phi @ expm(d0 * time) @ rate_vector)
        return values

    def exact_interarrival_cdf(
        self, t: np.ndarray, method: str = "spectral", backend: str = "auto"
    ) -> np.ndarray:
        """Exact stationary-interval interarrival distribution ``A(t)``.

        ``A(t) = 1 - phi exp(D0 t) 1`` — the survival function is the
        probability no arrival has fired by ``t`` given the post-arrival
        phase mix ``phi``.  Same ``method``/``backend`` contract as
        :meth:`exact_interarrival_density`, negative times included.
        """
        t = _grid(t, "times")
        phi = self.palm_state_distribution()
        ones = np.ones(self.num_states)
        if method == "spectral":
            return 1.0 - self._bilinear("d0", phi, ones, t, backend)
        if method != "expm":
            raise ValueError(f"unknown interarrival method {method!r}")
        from scipy.linalg import expm

        d0 = self.d0()
        values = np.empty(t.shape)
        for k, time in enumerate(t):
            values[k] = float(phi @ expm(d0 * time) @ ones)
        return 1.0 - values

    def interarrival_autocorrelation(self, lag: int = 1) -> float:
        """Exact lag-``k`` autocorrelation of successive interarrival times.

        For a MAP with ``P = (-D0)^{-1} D1`` (the phase transition over one
        interval) and ``m(phase) = E[T | phase]``:

            E[T_0 T_k] = phi M P^{k-1} M 1,   M = (-D0)^{-1}

        This is the correlation the paper identifies as the source of the
        Solution-1/2 error — Poisson and renewal inputs have 0 at all lags.
        """
        if lag < 1:
            raise ValueError("lag must be >= 1")
        d0 = self.d0()
        inv = np.linalg.inv(-d0)
        transition = inv @ self.d1()
        pi = self.stationary_distribution()
        weights = pi * self.rates
        phi = weights / weights.sum()
        ones = np.ones(self.num_states)
        m1 = float(phi @ inv @ ones)
        m2 = 2.0 * float(phi @ inv @ inv @ ones)
        variance = m2 - m1**2
        if variance <= 0:
            return 0.0
        step = np.linalg.matrix_power(transition, lag - 1)
        joint = float(phi @ inv @ transition @ step @ inv @ ones)
        return (joint - m1**2) / variance

    def rate_autocovariance(
        self, lags: np.ndarray, method: str = "spectral", backend: str = "auto"
    ) -> np.ndarray:
        """Autocovariance ``Cov(r(0), r(u))`` of the modulating rate.

        ``c(u) = (pi * r) exp(Q u) r - lambda-bar^2`` — a bilinear form in
        the modulating generator's exponential.  ``method="spectral"``
        (default) evaluates the whole lag grid under the requested analytic
        ``backend``: evenly spaced lags under ``dense`` step through one
        cached ``expm(Q h)``, other lags and the ``krylov`` backend use the
        cached :meth:`generator_kernel`.  ``method="legacy"`` is the
        previous one-transient-solve-per-lag path, kept as the equivalence
        anchor.  Negative lags raise :class:`ValueError`.
        """
        lags = _grid(lags, "lags")
        pi = self.stationary_distribution()
        mean = float(pi @ self.rates)
        weighted = pi * self.rates
        if method == "spectral":
            forward = self._bilinear(
                "generator", weighted, self.rates, lags, backend
            )
            return forward - mean**2
        if method != "legacy":
            raise ValueError(f"unknown autocovariance method {method!r}")
        covariances = np.empty(lags.shape)
        for k, lag in enumerate(lags):
            forward = self._chain.transient_distribution(weighted, lag)
            covariances[k] = float(forward @ self.rates) - mean**2
        return covariances

    def index_of_dispersion(
        self,
        t: float,
        quad_points: int = 256,
        method: str = "spectral",
        backend: str = "auto",
    ) -> float:
        """Index of dispersion for counts ``IDC(t) = Var N(t) / E N(t)``.

        Uses ``Var N(t) = mean_rate * t + 2 ∫_0^t (t - u) c(u) du`` where
        ``c`` is the rate autocovariance, evaluated by trapezoidal quadrature
        (the evenly spaced quadrature grid costs one
        :meth:`rate_autocovariance` evaluation under the default
        ``method="spectral"``).  A Poisson process has IDC ≡ 1;
        HAP's IDC grows far above 1, which is the count-domain face of its
        burstiness.  ``quad_points`` must be at least 2: one node would
        integrate to zero and report the Poisson value for any chain.
        """
        if t <= 0:
            raise ValueError("t must be positive")
        if quad_points < 2:
            raise ValueError("quad_points must be at least 2")
        us = np.linspace(0.0, t, quad_points)
        covariance = self.rate_autocovariance(us, method=method, backend=backend)
        integrand = (t - us) * covariance
        mean_count = self.mean_rate() * t
        variance = mean_count + 2.0 * np.trapezoid(integrand, us)
        return variance / mean_count

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def superpose(self, other: "MMPP") -> "MMPP":
        """Superposition of two independent MMPPs (Kronecker construction).

        The modulating chain of the superposition is the independent product
        chain; its rate in a product state is the sum of component rates.
        """
        q1 = self.generator
        q2 = other.generator
        q1 = q1 if sp.issparse(q1) else sp.csr_matrix(np.asarray(q1, dtype=float))
        q2 = q2 if sp.issparse(q2) else sp.csr_matrix(np.asarray(q2, dtype=float))
        identity1 = sp.eye(self.num_states, format="csr")
        identity2 = sp.eye(other.num_states, format="csr")
        generator = sp.kron(q1, identity2) + sp.kron(identity1, q2)
        rates = (
            np.kron(self.rates, np.ones(other.num_states))
            + np.kron(np.ones(self.num_states), other.rates)
        )
        return MMPP(generator.tocsr(), rates)


def fit_mmpp2_to_moments(
    mean_rate: float,
    rate_variance: float,
    decay_rate: float,
) -> MMPP:
    """Fit a symmetric 2-state MMPP to rate mean, variance, and decay.

    This is the classical "conventional MMPP" reduction (in the spirit of
    Heffes–Lucantoni): choose two states with rates ``mean ± sqrt(variance)``
    and symmetric switching at ``decay_rate / 2`` so the rate autocovariance
    is ``variance * exp(-decay_rate * u)``.  The paper's point is that this
    collapse of the hierarchy loses the multi-time-scale structure; we
    implement it as the baseline it argues against.

    Raises
    ------
    ValueError
        If the variance is too large for non-negative rates
        (``sqrt(variance) > mean``), which itself is a sign the source is
        burstier than any 2-state MMPP with these moments can be.
    """
    if mean_rate <= 0 or rate_variance < 0 or decay_rate <= 0:
        raise ValueError("need mean_rate > 0, rate_variance >= 0, decay_rate > 0")
    spread = float(np.sqrt(rate_variance))
    if spread > mean_rate:
        raise ValueError(
            f"rate stddev {spread:g} exceeds mean {mean_rate:g}; "
            "a non-negative 2-state fit does not exist"
        )
    switch = decay_rate / 2.0
    generator = np.array([[-switch, switch], [switch, -switch]])
    rates = np.array([mean_rate - spread, mean_rate + spread])
    return MMPP(generator, rates)
