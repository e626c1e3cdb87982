"""Analytic kernels: grid evaluation of ``left @ expm(M t) @ right``.

Every exact second-order quantity of an MMPP — interarrival density
``a(t) = phi exp(D0 t) D1 1``, interarrival distribution ``A(t)``, the rate
autocovariance ``c(u) = w exp(Q u) r - lambda-bar^2`` and the IDC quadrature
built on it — is a *bilinear form in a matrix exponential* evaluated over a
dense time grid.  The legacy code paid one ``scipy.linalg.expm`` (or one
uniformized power series) per grid point; the MMPP-kernel literature
(Asanjarani & Nazarathy; Asanjarani, Hautphenne & Nazarathy) computes these
curves from a single factorization instead.  This module packages that idea
as three reusable kernels and one grid propagator:

:class:`SpectralKernel`
    One-shot eigendecomposition ``M = V diag(w) V^{-1}``.  The bilinear form
    collapses to ``sum_j (left V)_j (V^{-1} right)_j exp(w_j t)`` — one
    ``len(grid) x n`` ``exp`` and one matrix–vector product for the *whole*
    grid.  Defective or ill-conditioned matrices (eigenvector reconstruction
    residual above ``max_residual``) automatically fall back to a real Schur
    form: ``expm`` of the quasi-triangular factor per point, which is slower
    but unconditionally stable.  The chosen path is exposed as ``method``.

:class:`UniformizedKernel`
    For (sparse) *generator* matrices: the uniformized power series with the
    Poisson weights applied per grid point but the vector recurrence
    ``c_k = left P^k right`` shared across the grid — ``max(rate * t)``
    matvecs total instead of ``rate * t`` matvecs *per grid point*.  Exactly
    the same series as :meth:`repro.markov.ctmc.CTMC.transient_distribution`
    truncated at the same tail mass, so results agree to the series
    tolerance.

:class:`KrylovKernel`
    The *action-based sparse backend*: never materializes a dense ``n x n``
    matrix.  It propagates the single vector ``v(t) = exp(M^T t) left^T``
    across the time grid with :func:`scipy.sparse.linalg.expm_multiply`
    (Al-Mohy–Higham scaling-and-Taylor, error near machine precision) and
    dots each propagated vector with ``right``.  Memory is ``O(nnz + n)``
    plus a bounded grid-chunk buffer, so truncation boxes far past the dense
    eigendecomposition ceiling (~30k states and beyond) stay cheap.  Uniform
    grids use ``expm_multiply``'s interval mode in memory-bounded chunks;
    non-uniform grids step point to point.

:class:`GridPropagator`
    Evenly spaced grids only (:func:`uniform_step`): one dense
    ``P = expm(M h)``, and the rows ``left @ P^k`` advanced in
    ``sqrt(K)``-row blocks with one product by ``P^B`` per block
    (:func:`power_bilinear`, which also steps the QBD level pmf
    ``pi_0 R^k 1``).  ``P`` and ``P^B`` are flushed of entries below
    :data:`_PROPAGATOR_FLUSH` of their largest: a lattice chain's
    propagator holds many subnormal entries, and every product with them
    runs one to two orders of magnitude slower.

Backend selection
-----------------
Consumers pick a kernel family per call through the *backend* argument:

* ``"dense"``  — :class:`SpectralKernel` (O(n^3) factorization, n^2 memory).
* ``"krylov"`` — :class:`KrylovKernel` (sparse actions only).
* ``"auto"``   — the default: dense up to :data:`AUTO_DENSE_LIMIT` states,
  krylov above.

Which evaluator answers is decided by input, not by an option:
:func:`resolve_backend` maps ``auto`` to a family by state count, and
:class:`repro.markov.mmpp.MMPP` sends an evenly spaced grid of at least
three points under a resolved ``dense`` backend to a :class:`GridPropagator`
(one ``expm`` replaces the eigendecomposition) and builds no kernel for it;
scattered or shorter grids, and every ``krylov`` grid, go to the kernels.
There is no process-wide default: a caller that needs one family (the
dense-vs-Krylov locks, the scale ladder) names it on the call.

All kernels are cheap enough to build eagerly, but consumers cache them
(:class:`repro.markov.mmpp.MMPP` stores one per matrix *and backend*, plus
one propagator per matrix, and the mapping cache in
:mod:`repro.core.mmpp_mapping` shares the MMPP instances), so each truncated
HAP chain is factorized at most once per process and backend.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "AUTO_DENSE_LIMIT",
    "GridPropagator",
    "KrylovKernel",
    "SpectralKernel",
    "UniformizedKernel",
    "power_bilinear",
    "resolve_backend",
    "uniform_step",
]

#: Valid analytic-backend names.
BACKENDS = ("dense", "krylov", "auto")

#: ``backend="auto"`` uses the dense spectral kernel up to this many states
#: and the action-based Krylov kernel above it.  The dense eigendecomposition
#: is O(n^3) time / O(n^2) memory, the Krylov sweep is O(nnz * ||M|| t_max)
#: time / O(nnz + n) memory; this crossover keeps small chains on the
#: (cheaper per grid point) dense path.
AUTO_DENSE_LIMIT = 600


def resolve_backend(backend: str = "auto", num_states: int | None = None) -> str:
    """Map a requested backend to a concrete kernel family.

    ``auto`` resolves by state count: dense up to :data:`AUTO_DENSE_LIMIT`,
    krylov above (and dense when the size is unknown).
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown analytic backend {backend!r}; choose from {BACKENDS}"
        )
    if backend == "auto":
        if num_states is not None and num_states > AUTO_DENSE_LIMIT:
            return "krylov"
        return "dense"
    return backend


#: Relative eigenvector-reconstruction residual above which the
#: eigendecomposition is considered untrustworthy (defective/ill-conditioned
#: matrix) and the Schur fallback takes over.
_DEFAULT_MAX_RESIDUAL = 1e-9

#: Poisson tail control for :class:`UniformizedKernel` — matches the margin
#: used by the legacy per-point uniformization in :mod:`repro.markov.ctmc`.
_POISSON_TAIL_SIGMAS = 10.0
_POISSON_TAIL_MARGIN = 50.0


def _as_dense(matrix) -> np.ndarray:
    if sp.issparse(matrix):
        return np.asarray(matrix.todense(), dtype=float)
    return np.asarray(matrix, dtype=float)


def _grid_times(times) -> np.ndarray:
    """``times`` as a 1-D float array; every kernel refuses negative times."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("times must be non-negative")
    return times


class SpectralKernel:
    """Evaluate ``left @ expm(M t) @ right`` over time grids from one factorization.

    Factorization is a declarative degradation chain
    (:class:`~repro.runtime.resilience.DegradationChain`, name
    ``"spectral-kernel"``) with three rungs, most-preferred first:

    ``eig``
        One-shot diagonalization; rejected
        (:class:`~repro.runtime.resilience.RungRejected`) when the
        reconstruction residual exceeds ``max_residual`` — defective or
        ill-conditioned matrices are not trusted.
    ``schur``
        Real Schur form; ``expm`` of the quasi-triangular factor per grid
        point — slower but unconditionally stable.
    ``uniformized``
        :class:`UniformizedKernel` power series; applicable to Metzler
        matrices (generators and sub-generators such as an MMPP's ``D0``),
        the last resort when even the Schur factorization fails.

    Parameters
    ----------
    matrix:
        Square real matrix ``M`` (dense or sparse; densified internally).
    max_residual:
        Relative tolerance on ``|V diag(w) V^{-1} - M|`` deciding whether
        the eigendecomposition is accurate enough.

    Attributes
    ----------
    method:
        The answering rung: ``"eig"``, ``"schur"`` or ``"uniformized"``.
    diagnostics:
        The chain's :class:`~repro.runtime.resilience.SolveDiagnostics` —
        which rung answered and what failed above it.
    """

    def __init__(self, matrix, max_residual: float = _DEFAULT_MAX_RESIDUAL):
        from repro.runtime.resilience import DegradationChain, RungRejected

        m = _as_dense(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        self.matrix = m
        self._eigenvalues: np.ndarray | None = None
        self._vectors: np.ndarray | None = None
        self._vectors_inv: np.ndarray | None = None
        self._schur: tuple[np.ndarray, np.ndarray] | None = None
        self._uniformized: UniformizedKernel | None = None
        scale = max(1.0, float(np.abs(m).max()))

        def factor_eig():
            try:
                # Near-defective matrices make inverting V ill-conditioned;
                # the residual check decides, so the warning is just noise.
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", la.LinAlgWarning)
                    w, v = la.eig(m)
                    v_inv = la.inv(v)
                residual = float(np.abs((v * w[None, :]) @ v_inv - m).max())
            except la.LinAlgError as exc:
                raise RungRejected(f"eigendecomposition failed: {exc}") from exc
            if residual > max_residual * scale:
                raise RungRejected(
                    f"reconstruction residual {residual:.3g} exceeds "
                    f"{max_residual:g} * scale (defective or "
                    "ill-conditioned matrix)"
                )
            return ("eig", (w, v, v_inv))

        def factor_schur():
            return ("schur", la.schur(m, output="real"))

        def factor_uniformized():
            off_diagonal = m - np.diag(np.diag(m))
            if off_diagonal.min() < 0.0:
                raise RungRejected(
                    "matrix is not Metzler; the uniformized power series "
                    "does not apply"
                )
            return ("uniformized", UniformizedKernel(m))

        chain = DegradationChain(
            "spectral-kernel",
            [
                ("eig", factor_eig),
                ("schur", factor_schur),
                ("uniformized", factor_uniformized),
            ],
        )
        (method, payload), self.diagnostics = chain.run()
        self.method = method
        if method == "eig":
            self._eigenvalues, self._vectors, self._vectors_inv = payload
        elif method == "schur":
            self._schur = payload
        else:
            self._uniformized = payload

    @property
    def num_states(self) -> int:
        """Dimension of the matrix."""
        return self.matrix.shape[0]

    def bilinear(self, left: np.ndarray, right: np.ndarray, times: np.ndarray) -> np.ndarray:
        """``left @ expm(M t) @ right`` for every ``t`` in ``times``."""
        left = np.asarray(left, dtype=float)
        right = np.asarray(right, dtype=float)
        times = _grid_times(times)
        if self.method == "eig":
            coefficients = (left @ self._vectors) * (self._vectors_inv @ right)
            values = np.exp(np.multiply.outer(times, self._eigenvalues)) @ coefficients
            return np.ascontiguousarray(values.real)
        if self.method == "uniformized":
            return self._uniformized.bilinear(left, right, times)
        t, z = self._schur
        left_t = left @ z
        right_t = z.T @ right
        values = np.empty(times.shape)
        for k, time in enumerate(times):
            values[k] = float(left_t @ la.expm(t * time) @ right_t)
        return values


#: Relative tolerance for detecting a uniformly spaced time grid, which is
#: eligible for :class:`GridPropagator` and ``expm_multiply``'s (faster)
#: interval mode.
_UNIFORM_GRID_RTOL = 1e-9

#: :class:`GridPropagator` zeroes every entry of ``expm(M h)`` and of its
#: block power below this fraction of the matrix's largest entry.  Entries
#: of a lattice chain's propagator decay geometrically with lattice
#: distance, so many land in the subnormal range, where each multiply runs
#: one to two orders of magnitude slower: on the 2 226-state headline chain
#: at ``h = 0.7/999``, ``expm(D0 h)`` held 130 690 subnormal entries and one
#: product with it took 10.6 s on one CPU, against 0.32 s once they were
#: zeroed.  The cut moves a result by at most 1e-30 of the propagator's
#: scale.
_PROPAGATOR_FLUSH = 1e-30


def uniform_step(times) -> float | None:
    """Spacing of an increasing, evenly spaced grid; ``None`` for any other.

    A grid qualifies when it is one-dimensional with at least three points,
    strictly increasing, and every gap equals the first to
    :data:`_UNIFORM_GRID_RTOL`.  The answer is the mean gap
    ``(t[-1] - t[0]) / (len(t) - 1)``.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 3:
        return None
    diffs = np.diff(times)
    if not (diffs > 0.0).all() or not np.allclose(
        diffs,
        diffs[0],
        rtol=_UNIFORM_GRID_RTOL,
        atol=_UNIFORM_GRID_RTOL * max(1.0, float(times[-1])),
    ):
        return None
    return float(times[-1] - times[0]) / (times.size - 1)


def _flushed(matrix: np.ndarray) -> np.ndarray:
    """Zero ``matrix``'s entries below :data:`_PROPAGATOR_FLUSH` of its largest, in place."""
    magnitude = np.abs(matrix)
    matrix[magnitude < _PROPAGATOR_FLUSH * magnitude.max()] = 0.0
    return matrix


def _squarings(count: int) -> int:
    """``log2`` of the block size :func:`power_bilinear` uses for ``count`` steps.

    Blocks are the largest power of two not above ``ceil(sqrt(count))``, so
    the block power takes only squarings.
    """
    return (math.isqrt(count - 1) + 1).bit_length() - 1


def _flushed_power(matrix: np.ndarray, squarings: int) -> np.ndarray:
    """``matrix^(2^squarings)``, each square flushed (:func:`_flushed`)."""
    for _ in range(squarings):
        matrix = _flushed(matrix @ matrix)
    return matrix


def power_bilinear(
    left: np.ndarray,
    power: np.ndarray,
    right: np.ndarray,
    count: int,
    jump: np.ndarray | None = None,
) -> np.ndarray:
    """``left @ power^k @ right`` for ``k = 0, ..., count - 1``.

    Rows advance in blocks of ``B ~ sqrt(count)`` (a power of two): the
    first block takes ``B - 1`` vector-matrix steps, and each later block
    is the one before times ``power^B`` — one matrix product per block, so
    the work runs in BLAS rather than in ``count`` interpreted steps.
    ``jump`` is ``power^B`` when the caller has it; otherwise it is
    computed here by ``log2 B`` flushed squarings
    (:data:`_PROPAGATOR_FLUSH`).  Memory is one block of rows.
    """
    values = np.empty(count)
    if count < 1:
        return values
    squarings = _squarings(count)
    if jump is None:
        jump = _flushed_power(power, squarings)
    block = 1 << squarings
    rows = np.empty((block, len(left)))
    rows[0] = left
    for k in range(1, block):
        rows[k] = rows[k - 1] @ power
    values[:block] = rows @ right
    for start in range(block, count, block):
        rows = rows @ jump
        stop = min(start + block, count)
        values[start:stop] = rows[: stop - start] @ right
    return values


class GridPropagator:
    """Evaluate ``left @ expm(M t) @ right`` on evenly spaced grids by stepping.

    On ``t_k = t_0 + k h`` the rows ``v_k = left @ expm(M t_k)`` obey
    ``v_{k+1} = v_k P`` with ``P = expm(M h)``, so the whole grid is
    :func:`power_bilinear` from ``v_0``: one ``expm`` (two when
    ``t_0 > 0``), about ``log2 sqrt(K)`` squarings for the block power and
    ``sqrt(K)`` block products, where an eigendecomposition costs several
    ``expm``.  ``P`` and its block power are real and flushed of
    subnormal-range entries (:data:`_PROPAGATOR_FLUSH`); only the last
    step's pair is kept, so the density and distribution of one grid share
    it.

    The grid must satisfy :func:`uniform_step`.  Scattered times would need
    one ``expm`` per distinct gap; they are the eigendecomposition's regime
    (:class:`SpectralKernel`).
    """

    def __init__(self, matrix):
        m = _as_dense(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        self.matrix = m
        self._powers: tuple | None = None  # (step, P, squarings, P^B)

    def _step_powers(self, step: float, count: int) -> tuple[np.ndarray, np.ndarray]:
        """``(P, P^B)`` for ``P = expm(M step)`` and a ``count``-point grid."""
        squarings = _squarings(count)
        powers = self._powers
        if powers is None or powers[0] != step:
            powers = (step, _flushed(la.expm(self.matrix * step)), -1, None)
        if powers[2] != squarings:
            jump = _flushed_power(powers[1], squarings)
            powers = (step, powers[1], squarings, jump)
        self._powers = powers
        return powers[1], powers[3]

    def bilinear(self, left: np.ndarray, right: np.ndarray, times: np.ndarray) -> np.ndarray:
        """``left @ expm(M t) @ right`` for every ``t`` of an evenly spaced grid."""
        left = np.asarray(left, dtype=float)
        right = np.asarray(right, dtype=float)
        times = _grid_times(times)
        step = uniform_step(times)
        if step is None:
            raise ValueError(
                "GridPropagator needs an increasing, evenly spaced grid of "
                "at least 3 points"
            )
        power, jump = self._step_powers(step, times.size)
        if times[0] != 0.0:
            left = left @ _flushed(la.expm(self.matrix * float(times[0])))
        return power_bilinear(left, power, right, times.size, jump)


#: Target size (bytes) of the grid-point buffer a single
#: :func:`scipy.sparse.linalg.expm_multiply` interval call is allowed to
#: materialize inside :class:`KrylovKernel`.  Interval mode returns a
#: ``(num_points, n)`` dense array, so an unchunked 2000-point sweep of a
#: 30k-state chain would allocate ~0.5 GB; chunking bounds that at ~64 MB
#: while keeping the per-call overhead (one-norm estimation, parameter
#: selection) amortized over hundreds of grid points.
_KRYLOV_CHUNK_BYTES = 64 << 20

class KrylovKernel:
    """Action-based evaluation of ``left @ expm(M t) @ right`` on time grids.

    Stores only ``M^T`` in CSR form and propagates the single row vector
    ``v(t) = left @ expm(M t)`` forward through the *sorted* grid with
    :func:`scipy.sparse.linalg.expm_multiply`, dotting each propagated
    vector with ``right``.  Nothing dense of size ``n x n`` is ever formed:
    memory is ``O(nnz + n)`` plus a chunk buffer bounded by
    :data:`_KRYLOV_CHUNK_BYTES`, which is what lets truncation boxes far
    past the dense-eig ceiling (8k, 30k states, ...) run on the analytic
    path at all.

    Uniformly spaced grids use ``expm_multiply``'s interval mode (one
    scaling-parameter selection per chunk, shared across all points in the
    chunk); arbitrary grids fall back to point-to-point stepping, which is
    still one *relative* step per point — never a restart from ``t = 0`` —
    so cost scales with ``max(times)``, not with ``sum(times)``.

    Accuracy is the Al-Mohy–Higham truncated-Taylor bound, i.e. near
    machine precision; the dense-vs-krylov equivalence tests lock the two
    backends to 1e-9 on the paper's headline chain.
    """

    method = "krylov"

    def __init__(self, matrix):
        m = matrix.tocsr() if sp.issparse(matrix) else sp.csr_matrix(
            np.asarray(matrix, dtype=float)
        )
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        self.matrix = m.astype(float)
        # left @ expm(M t) == (expm(M^T t) @ left^T)^T, and expm_multiply
        # acts on column vectors, so the propagator is M^T.
        self._transpose = self.matrix.T.tocsr()

    @property
    def num_states(self) -> int:
        """Dimension of the matrix."""
        return self.matrix.shape[0]

    def _chunk_points(self) -> int:
        per_point = 8 * self.matrix.shape[0]
        return max(8, _KRYLOV_CHUNK_BYTES // per_point)

    def _step(self, vector: np.ndarray, dt: float) -> np.ndarray:
        """Advance ``vector`` by ``dt`` (one relative expm_multiply hop)."""
        if dt == 0.0:
            return vector
        hop = spla.expm_multiply(
            self._transpose, vector, start=0.0, stop=dt, num=2, endpoint=True
        )
        return np.asarray(hop[-1], dtype=float)

    def bilinear(self, left: np.ndarray, right: np.ndarray, times: np.ndarray) -> np.ndarray:
        """``left @ expm(M t) @ right`` for every ``t`` in ``times``."""
        left = np.asarray(left, dtype=float)
        right = np.asarray(right, dtype=float)
        times = _grid_times(times)
        values = np.empty(times.shape)
        if times.size == 0:
            return values
        order = np.argsort(times, kind="stable")
        sorted_times = times[order]
        sorted_values = np.empty(sorted_times.shape)

        vector = left  # v(tau); tau starts at 0
        tau = 0.0
        if uniform_step(sorted_times) is not None:
            chunk = self._chunk_points()
            start = 0
            while start < sorted_times.size:
                stop = min(start + chunk, sorted_times.size)
                relative = sorted_times[start:stop] - tau
                if stop - start == 1:
                    vector = self._step(vector, float(relative[0]))
                    sorted_values[start] = float(vector @ right)
                else:
                    block = spla.expm_multiply(
                        self._transpose,
                        vector,
                        start=float(relative[0]),
                        stop=float(relative[-1]),
                        num=stop - start,
                        endpoint=True,
                    )
                    block = np.asarray(block, dtype=float)
                    sorted_values[start:stop] = block @ right
                    vector = block[-1]
                tau = float(sorted_times[stop - 1])
                start = stop
        else:
            for k, time in enumerate(sorted_times):
                vector = self._step(vector, float(time) - tau)
                tau = float(time)
                sorted_values[k] = float(vector @ right)

        values[order] = sorted_values
        return values


class UniformizedKernel:
    """Grid evaluation of ``left @ expm(Q t) @ right`` for a generator ``Q``.

    Shares the power-series coefficients ``c_k = left P^k right`` (with
    ``P = I + Q / rate`` the uniformized DTMC) across the whole grid and
    applies the Poisson weights per point over each point's own effective
    window, so the matvec count is set by the *largest* time requested, not
    by the grid size.  Intended for sparse modulating generators whose dense
    eigendecomposition would not pay off.
    """

    def __init__(self, generator, tol: float = 1e-12):
        self.generator = generator
        self.tol = tol
        diagonal = np.asarray(generator.diagonal(), dtype=float)
        self.rate = float(-min(diagonal.min(), 0.0))
        n = generator.shape[0]
        if self.rate > 0.0:
            q = generator.tocsr() if sp.issparse(generator) else np.asarray(generator, dtype=float)
            if sp.issparse(q):
                self.transition = sp.eye(n, format="csr") + q / self.rate
            else:
                self.transition = np.eye(n) + q / self.rate
        else:
            self.transition = None

    def bilinear(self, left: np.ndarray, right: np.ndarray, times: np.ndarray) -> np.ndarray:
        """``left @ expm(Q t) @ right`` for every ``t`` in ``times``."""
        left = np.asarray(left, dtype=float)
        right = np.asarray(right, dtype=float)
        times = _grid_times(times)
        static = float(left @ right)
        if self.rate == 0.0 or times.size == 0:
            return np.full(times.shape, static)
        mean_max = self.rate * float(times.max())
        if mean_max == 0.0:
            return np.full(times.shape, static)
        max_terms = int(
            mean_max
            + _POISSON_TAIL_SIGMAS * np.sqrt(mean_max)
            + _POISSON_TAIL_MARGIN
        )
        coefficients = np.empty(max_terms + 1)
        term = left
        coefficients[0] = static
        for k in range(1, max_terms + 1):
            term = term @ self.transition
            coefficients[k] = float(term @ right)
        from scipy.special import gammaln

        values = np.empty(times.shape)
        for i, time in enumerate(times):
            mean = self.rate * time
            if mean == 0.0:
                values[i] = static
                continue
            half_window = _POISSON_TAIL_SIGMAS * np.sqrt(mean) + _POISSON_TAIL_MARGIN
            lo = max(0, int(mean - half_window))
            hi = min(max_terms, int(mean + half_window))
            ks = np.arange(lo, hi + 1)
            log_weights = -mean + ks * np.log(mean) - gammaln(ks + 1.0)
            weights = np.exp(log_weights)
            values[i] = float(weights @ coefficients[lo : hi + 1])
        return values
