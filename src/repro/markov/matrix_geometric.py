"""Matrix-geometric (Neuts) solution of the MMPP/M/1 queue.

Feeding an MMPP into a single exponential server yields a quasi-birth-death
process: the *level* is the number of customers ``z`` and the *phase* is the
modulating state.  Neuts' matrix-geometric method — the paper's reference
[15] — expresses the stationary distribution as ``pi_z = pi_0 R^z`` where the
rate matrix ``R`` is the minimal non-negative solution of

    A0 + R A1 + R^2 A2 = 0

with ``A0 = D1`` (arrival, level up), ``A1 = D0 - mu I`` (phase changes,
level >= 1), ``A2 = mu I`` (service, level down).

This gives an independent route to HAP/M/1 mean delay used to cross-validate
the paper's Solution 0 iteration in the test suite, and it is *much* faster
than brute-force iteration over the three-dimensional chain.

Solver notes
------------
Three ``R`` solvers are provided, all agreeing to tolerance:

* ``"cr"`` (default) — cyclic reduction for ``G`` followed by the
  conversion ``R = A0 G / mu`` (the standard ``R = A0 (-(A1 + A0 G))^{-1}``
  with ``A2 = mu I``, no solve).  Every linear system is solved
  through one LU factorization per step (``lu_factor``/``lu_solve``; no
  ``np.linalg.inv`` in the hot path), right-hand sides are stacked so each
  step does one 2n-column triangular solve, and the first step exploits the
  MMPP/M/1 block structure (``A0`` diagonal, ``A2 = mu I``) so it costs one
  factorization instead of four matrix products.  This is the fastest path
  at the paper's headline phase-space sizes.
* ``"lr"`` — Latouche–Ramaswami logarithmic reduction (the previous
  default), kept as an independent quadratically-convergent cross-check.
* ``"fixed-point"`` — the simple monotone iteration, linear convergence.

The boundary vector is obtained by a square LU solve (replace one column of
the singular boundary block with the normalization vector ``(I - R)^{-1} 1``)
instead of a least-squares solve, and the queue moments use LU-backed vector
solves instead of forming ``(I - R)^{-1}`` explicitly.

Warm starts: sweeps that solve a ladder of nearby queues (service-rate or
load sweeps, fig 11/12/19/20 style) can pass ``initial_rate_matrix`` — the
previous sweep point's ``R``.  The solver then runs a *budgeted* fixed-point
refinement from that guess and falls back to the full cyclic-reduction solve
when the refinement does not contract to tolerance within the budget.  The
refinement's linear contraction rate is ``sp(R) sp(G)``, which approaches 1
for the near-critical headline queues, so the warm start mainly pays off on
lightly-loaded sweep points; the fallback keeps the result exact either way.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve

from repro.markov.mmpp import MMPP
from repro.markov.spectral import power_bilinear

__all__ = ["QBDSolution", "solve_mmpp_m1"]

#: Iteration budget for the warm-start fixed-point refinement before the
#: solver gives up and falls back to a cold cyclic-reduction solve.
_WARM_START_BUDGET = 40

#: The R matrix of an MMPP/M/1 QBD is dense regardless of how sparse the
#: blocks are, so the solve is O(n^3) per reduction step and O(n^2) memory
#: in the phase count no matter what.  Above this many phases that cost is
#: almost certainly an accident (an untrimmed truncation box); the solver
#: warns and points at the mass-based trimming knobs rather than silently
#: grinding.
_QBD_PHASE_WARN_LIMIT = 4000


@dataclass(frozen=True)
class QBDSolution:
    """Stationary solution of an MMPP/M/1 quasi-birth-death queue.

    Attributes
    ----------
    rate_matrix:
        Neuts' ``R`` matrix.
    boundary:
        ``pi_0``, the stationary probability vector of level 0 by phase.
    mean_rate:
        Mean arrival rate of the input MMPP.
    service_rate:
        The exponential server's rate ``mu``.
    diagnostics:
        :class:`~repro.runtime.resilience.SolveDiagnostics` of the ``R``
        solve — whether the warm start answered or the cold solve had to
        (``None`` for solutions built before the chain existed, e.g. by
        old pickles).
    """

    rate_matrix: np.ndarray
    boundary: np.ndarray
    mean_rate: float
    service_rate: float
    diagnostics: object = None

    @property
    def utilization(self) -> float:
        """Offered load ``mean_rate / service_rate``."""
        return self.mean_rate / self.service_rate

    def level_distribution(self, max_level: int) -> np.ndarray:
        """Marginal queue-length probabilities ``P(z = k)`` for ``k <= max_level``.

        ``P(z = k) = pi_0 R^k 1``, stepped in blocks of levels by
        :func:`repro.markov.spectral.power_bilinear`.
        """
        return power_bilinear(
            self.boundary,
            self.rate_matrix,
            np.ones(self.boundary.size),
            max_level + 1,
        )

    def mean_queue_length(self) -> float:
        """``E[z] = pi_0 R (I - R)^{-2} 1`` (customers in system).

        Evaluated as two LU-backed vector solves against ``I - R`` — never
        forming the inverse, which costs three times the factorization.
        """
        n = self.rate_matrix.shape[0]
        lu_ir = lu_factor(np.eye(n) - self.rate_matrix)
        vec = lu_solve(lu_ir, lu_solve(lu_ir, np.ones(n)))
        return float(self.boundary @ (self.rate_matrix @ vec))

    def mean_delay(self) -> float:
        """Mean time in system via Little's law."""
        return self.mean_queue_length() / self.mean_rate

    def probability_empty(self) -> float:
        """Stationary probability that the system is empty."""
        return float(self.boundary.sum())


def _solve_rate_matrix_fixed_point(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    max_iterations: int,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Fixed-point iteration ``R <- -(A0 + R^2 A2) A1^{-1}``.

    Monotone from ``R = 0``; linear convergence, so only suitable for small
    phase spaces, warm-start refinement, or as a cross-check of the doubling
    paths.  ``A1`` is LU-factored once and reused every sweep.
    """
    lu_a1t = lu_factor(a1.T)
    rate = np.zeros_like(a0) if initial is None else initial.copy()
    for _ in range(max_iterations):
        # R A1 = -(A0 + R^2 A2)  =>  A1^T R^T = -(A0 + R^2 A2)^T.
        updated = lu_solve(lu_a1t, -(a0 + rate @ rate @ a2).T).T
        delta = float(np.abs(updated - rate).max())
        rate = updated
        if delta < tol:
            return rate
    raise ArithmeticError(
        f"R iteration did not converge within {max_iterations} steps "
        f"(last delta {delta:g}); is the queue stable?"
    )


def _solve_rate_matrix_lr(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    max_iterations: int,
) -> np.ndarray:
    """Latouche–Ramaswami logarithmic reduction.

    Computes ``G`` (first-passage-down probabilities, the minimal solution
    of ``A2 + A1 G + A0 G^2 = 0``) with quadratic convergence, then converts
    to ``R`` (:func:`_rate_from_g`).  Each step squares the effective
    horizon, so ~30 iterations suffice where the fixed point needs tens of
    thousands.
    """
    n = a0.shape[0]
    identity = np.eye(n)
    neg_a1_inv = np.linalg.inv(-a1)
    down = neg_a1_inv @ a2
    up = neg_a1_inv @ a0
    g = down.copy()
    t = up.copy()
    for _ in range(max_iterations):
        u = up @ down + down @ up
        m = np.linalg.inv(identity - u)
        up = m @ up @ up
        down = m @ down @ down
        g += t @ down
        t = t @ up
        if float(np.abs(t).max()) < tol:
            break
    else:
        raise ArithmeticError("logarithmic reduction did not converge")
    return _rate_from_g(a0, a2, g)


def _solve_g_cyclic_reduction(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    max_iterations: int,
) -> np.ndarray:
    """Cyclic reduction for ``G`` (minimal solution of A2 + A1 G + A0 G^2 = 0).

    Classical Bini–Meini recurrence with the level-up block ``B1``, local
    block ``B0``, level-down block ``Bm1`` and the "hat" block accumulating
    the level-0 Schur complement:

        V   = B0^{-1} [Bm1  B1]          (one LU, one stacked solve)
        hat -= B1 Vm1
        B0  -= B1 Vm1 + Bm1 V1
        Bm1  = -Bm1 Vm1
        B1   = -B1 V1
        G    = -hat^{-1} A2              (after B1 -> 0, quadratically)

    The first step is special-cased: for MMPP/M/1, ``B1 = A0`` is diagonal
    and ``Bm1 = A2 = mu I``, so ``Vm1``/``V1`` are row/column scalings of a
    single explicit inverse and every update is O(n^2) — the step costs one
    factorization instead of four n^3 products.
    """
    n = a0.shape[0]
    scale = max(1.0, float(np.abs(a0).max()))
    b1 = a0.copy()
    b0 = a1.copy()
    bm1 = a2.copy()
    hat = a1.copy()

    diag_up = np.diagonal(a0).copy()
    mu = float(a2[0, 0])
    first_step_structured = (
        np.count_nonzero(a0 - np.diag(diag_up)) == 0
        and np.allclose(a2, mu * np.eye(n))
    )
    if first_step_structured and float(np.abs(b1).max()) >= tol * scale:
        b0_inv = np.linalg.inv(b0)
        vm1 = mu * b0_inv
        v1 = b0_inv * diag_up[None, :]
        correction = diag_up[:, None] * vm1
        hat -= correction
        b0 -= correction + mu * v1
        bm1 = -mu * vm1
        b1 = -(diag_up[:, None] * v1)

    for _ in range(max_iterations):
        if float(np.abs(b1).max()) < tol * scale:
            break
        lu_b0 = lu_factor(b0)
        stacked = lu_solve(lu_b0, np.hstack([bm1, b1]))
        vm1, v1 = stacked[:, :n], stacked[:, n:]
        up_products = b1 @ stacked
        down_products = bm1 @ stacked
        hat -= up_products[:, :n]
        b0 -= up_products[:, :n] + down_products[:, n:]
        bm1 = -down_products[:, :n]
        b1 = -up_products[:, n:]
    else:
        raise ArithmeticError("cyclic reduction did not converge")
    return lu_solve(lu_factor(hat), -a2)


def _rate_from_g(a0: np.ndarray, a2: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Convert ``G`` to ``R = A0 (-(A1 + A0 G))^{-1}`` without a solve.

    ``G`` solves ``(A1 + A0 G) G = -A2``; with ``A2 = mu I`` that makes
    ``-(A1 + A0 G) = mu G^{-1}``, so ``R = A0 G / mu``, and the diagonal
    ``A0 = D1`` of an MMPP/M/1 queue turns it into a row scaling of ``G``.
    """
    return (np.diagonal(a0) / a2[0, 0])[:, None] * g


def _solve_rate_matrix(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    max_iterations: int,
    method: str = "cr",
) -> np.ndarray:
    if method == "cr":
        g = _solve_g_cyclic_reduction(a0, a1, a2, tol, min(max_iterations, 100))
        return _rate_from_g(a0, a2, g)
    if method == "lr":
        return _solve_rate_matrix_lr(a0, a1, a2, tol, min(max_iterations, 200))
    if method == "fixed-point":
        return _solve_rate_matrix_fixed_point(a0, a1, a2, tol, max_iterations)
    raise ValueError(f"unknown R-matrix method {method!r}")


def _refine_rate_matrix(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    initial: np.ndarray,
) -> np.ndarray | None:
    """Budgeted warm-start refinement; ``None`` when it fails to contract.

    Runs the fixed-point sweep from ``initial`` for at most
    :data:`_WARM_START_BUDGET` iterations.  The sweep contracts linearly at
    roughly ``sp(R) sp(G)``, so a guess from a nearby sweep point converges
    in a handful of sweeps on lightly-loaded points and stalls near
    criticality.  After a few sweeps the observed contraction factor is
    extrapolated; when the projected iteration count exceeds the budget the
    refinement bails out immediately so a stalled warm start costs a small
    fraction of the cold solve it falls back to.
    """
    lu_a1t = lu_factor(a1.T)
    rate = initial.copy()
    previous_delta = None
    for sweep in range(_WARM_START_BUDGET):
        updated = lu_solve(lu_a1t, -(a0 + rate @ rate @ a2).T).T
        delta = float(np.abs(updated - rate).max())
        rate = updated
        if delta < tol:
            return rate
        if not np.isfinite(delta):
            return None
        if previous_delta is not None and sweep >= 4:
            contraction = delta / max(previous_delta, 1e-300)
            if contraction >= 1.0:
                return None
            remaining = np.log(tol / delta) / np.log(contraction)
            if sweep + remaining > _WARM_START_BUDGET:
                return None
        previous_delta = delta
    return None


def solve_mmpp_m1(
    mmpp: MMPP,
    service_rate: float,
    tol: float = 1e-12,
    max_iterations: int = 200_000,
    method: str = "cr",
    initial_rate_matrix: np.ndarray | None = None,
) -> QBDSolution:
    """Solve the MMPP/M/1 queue by the matrix-geometric method.

    Parameters
    ----------
    mmpp:
        Input arrival process (finite modulating chain — truncate first for
        HAP via :mod:`repro.core.mmpp_mapping`).
    service_rate:
        Rate ``mu`` of the exponential server.
    tol, max_iterations:
        Convergence controls for the ``R`` solve.
    method:
        ``"cr"`` (default, cyclic reduction — quadratic convergence, LU
        throughout), ``"lr"`` (logarithmic reduction) or ``"fixed-point"``
        (the simple monotone iteration).
    initial_rate_matrix:
        Optional warm start (e.g. the previous point of a service-rate
        sweep).  A budgeted fixed-point refinement runs from this guess and
        the solver falls back to a cold ``method`` solve when the
        refinement does not reach ``tol`` — the warm start can only change
        the wall-clock, never the answer beyond tolerance.

    Notes
    -----
    The ``R`` solve runs as a declarative degradation chain
    (:class:`~repro.runtime.resilience.DegradationChain`, name
    ``"qbd-rate-matrix"``): the ``warm-start`` rung (present only when
    ``initial_rate_matrix`` is given) abdicates when the budgeted
    refinement fails to contract, and the cold ``method`` rung (``"cr"``
    by default) backs it up.  Which rung answered is recorded in the
    returned solution's ``diagnostics``.

    Raises
    ------
    ValueError
        If the queue is not stable (``mean rate >= service rate``).
    """
    if service_rate <= 0:
        raise ValueError("service rate must be positive")
    mean_rate = mmpp.mean_rate()
    if mean_rate >= service_rate:
        raise ValueError(
            f"unstable queue: mean arrival rate {mean_rate:g} >= "
            f"service rate {service_rate:g}"
        )
    n = mmpp.num_states
    if n > _QBD_PHASE_WARN_LIMIT:
        warnings.warn(
            f"QBD solve over {n} phases: R is dense, so this is O(n^3) per "
            "reduction step regardless of block sparsity — consider a "
            "tighter phase_mass_tol / truncation box",
            RuntimeWarning,
            stacklevel=2,
        )
    identity = np.eye(n)
    # Assemble the blocks sparsely and cross the dense boundary exactly once
    # (the R solvers are dense by nature — R itself has no sparsity): for a
    # sparse modulating chain this avoids the two intermediate n x n dense
    # arrays mmpp.d0() would allocate.
    if sp.issparse(mmpp.generator):
        d0 = np.asarray(mmpp.d0_sparse().toarray(), dtype=float)
    else:
        d0 = mmpp.d0()
    a1 = d0 - service_rate * identity
    a0 = mmpp.d1()
    a2 = service_rate * identity
    if method not in ("cr", "lr", "fixed-point"):
        raise ValueError(f"unknown R-matrix method {method!r}")
    from repro.runtime.resilience import DegradationChain, RungRejected

    rungs = []
    if initial_rate_matrix is not None:
        if initial_rate_matrix.shape != a0.shape:
            raise ValueError(
                "initial_rate_matrix shape "
                f"{initial_rate_matrix.shape} does not match the "
                f"{a0.shape} phase space"
            )

        def refine_warm_start():
            refined = _refine_rate_matrix(a0, a1, a2, tol, initial_rate_matrix)
            if refined is None:
                raise RungRejected(
                    "warm-start refinement did not contract to tolerance "
                    f"within its {_WARM_START_BUDGET}-sweep budget"
                )
            return refined

        rungs.append(("warm-start", refine_warm_start))
    rungs.append(
        (method, lambda: _solve_rate_matrix(a0, a1, a2, tol, max_iterations, method))
    )
    rate_matrix, diagnostics = DegradationChain("qbd-rate-matrix", rungs).run()

    # Boundary: pi_0 (B00 + R A2) = 0, normalized by pi_0 (I - R)^{-1} 1 = 1,
    # where B00 = D0 (no service completes at level 0).  The singular n x n
    # block has rank n - 1, so replacing one column with the normalization
    # vector w = (I - R)^{-1} 1 gives a square non-singular system
    # pi_0 B' = e_last solved by one LU factorization (no least squares).
    lu_ir = lu_factor(identity - rate_matrix)
    w = lu_solve(lu_ir, np.ones(n))
    boundary_block = d0 + service_rate * rate_matrix
    system = boundary_block.copy()
    system[:, n - 1] = w
    rhs = np.zeros(n)
    rhs[n - 1] = 1.0
    boundary = lu_solve(lu_factor(system.T), rhs)
    boundary = np.maximum(boundary, 0.0)
    # Renormalize exactly after clipping tiny negatives.
    boundary /= float(boundary @ w)
    return QBDSolution(
        rate_matrix=rate_matrix,
        boundary=boundary,
        mean_rate=mean_rate,
        service_rate=service_rate,
        diagnostics=diagnostics,
    )
