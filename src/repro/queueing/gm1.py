"""The G/M/1 queue and the paper's σ-algorithm.

Solutions 1 and 2 of the paper reduce HAP/M/1 to a G/M/1 queue: the message
interarrival time is expressed as a distribution ``a(t)`` (losing the
correlation between successive intervals — the approximation the paper
quantifies in Section 4.1), and the queue is then solved through the unique
root ``sigma`` in (0, 1) of

    A*(mu - mu * sigma) = sigma

where ``A*`` is the Laplace transform of the interarrival density.  From
``sigma``:

* mean delay       ``T = 1 / (mu (1 - sigma))``
* waiting-time CDF ``W(y) = 1 - sigma * exp(-mu (1 - sigma) y)``
* probability an arrival finds the server busy is ``sigma`` itself.

The paper solves the root with a damped averaging iteration (its
"σ-algorithm", Section 3.2.2); we provide that iteration verbatim for
fidelity plus a bracketed Brent solve used as the production path.  The
Brent solver, :func:`brentq`, is a port of scipy's, kept here so that no
σ solve imports ``scipy.optimize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["GM1Solution", "brentq", "sigma_fixed_point_paper", "solve_gm1"]

#: Laplace transform of the interarrival density, ``s -> A*(s)``.
LaplaceFn = Callable[[float], float]


@dataclass(frozen=True)
class GM1Solution:
    """Stationary quantities of a G/M/1 queue derived from ``sigma``.

    Attributes
    ----------
    sigma:
        Root of ``A*(mu (1 - sigma)) = sigma``; also the probability that an
        arriving customer finds the server busy.
    service_rate:
        Exponential service rate ``mu``.
    arrival_rate:
        Mean arrival rate ``1 / E[T]`` (supplied by the caller; needed for
        Little's-law quantities).
    """

    sigma: float
    service_rate: float
    arrival_rate: float

    @property
    def mean_delay(self) -> float:
        """Mean time in system ``1 / (mu (1 - sigma))``."""
        return 1.0 / (self.service_rate * (1.0 - self.sigma))

    @property
    def mean_waiting_time(self) -> float:
        """Mean time in queue ``sigma / (mu (1 - sigma))``."""
        return self.sigma / (self.service_rate * (1.0 - self.sigma))

    @property
    def mean_queue_length(self) -> float:
        """Mean number in system via Little's law."""
        return self.arrival_rate * self.mean_delay

    @property
    def utilization(self) -> float:
        """Offered load ``lambda / mu`` (time-stationary busy fraction)."""
        return self.arrival_rate / self.service_rate

    def waiting_time_cdf(self, y: np.ndarray) -> np.ndarray:
        """``W(y) = 1 - sigma exp(-mu (1 - sigma) y)`` for ``y >= 0``."""
        y = np.asarray(y, dtype=float)
        return 1.0 - self.sigma * np.exp(
            -self.service_rate * (1.0 - self.sigma) * y
        )

    def delay_percentile(self, q: float) -> float:
        """Inverse of the *system-time* CDF (exponential with rate
        ``mu (1 - sigma)`` for G/M/1)."""
        if not 0 < q < 1:
            raise ValueError("quantile must be in (0, 1)")
        return -np.log(1.0 - q) / (self.service_rate * (1.0 - self.sigma))


def sigma_fixed_point_paper(
    laplace: LaplaceFn,
    service_rate: float,
    initial: float = 0.5,
    tol: float = 1e-10,
    max_iterations: int = 10_000,
) -> float:
    """The paper's σ-algorithm: damped averaging to the fixed point.

    Step 1 picks any starting value in (0, 1); Step 2 evaluates
    ``A*(mu - mu sigma)``; Step 3 averages it with the current iterate.  The
    paper argues convergence from the monotonicity of ``A*`` along the ray.

    Raises
    ------
    ArithmeticError
        When the iteration fails to converge (e.g. an unstable queue, where
        the only root in [0, 1] is ``sigma = 1``).
    """
    sigma = float(initial)
    if not 0.0 < sigma < 1.0:
        raise ValueError("initial sigma must be in (0, 1)")
    for _ in range(max_iterations):
        image = laplace(service_rate * (1.0 - sigma))
        if abs(image - sigma) < tol:
            return sigma
        sigma = 0.5 * (image + sigma)
    raise ArithmeticError(
        f"sigma-algorithm did not converge within {max_iterations} iterations "
        f"(last iterate {sigma:g})"
    )


#: ``scipy.optimize.brentq``'s default relative ``x`` tolerance and
#: iteration cap.
_BRENT_RTOL = 4 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


def brentq(
    f: Callable[[float], float], xa: float, xb: float, xtol: float = 2e-12
) -> float:
    """Root of ``f`` in the bracket ``[xa, xb]`` by Brent's method.

    A line-for-line port of scipy's ``brentq.c`` (Charles Harris) with
    ``scipy.optimize.brentq``'s defaults and errors, so every iterate, and
    so the root, is the float scipy returns.  It stops once the bracket is
    narrower than ``xtol + 4 eps |x|``.

    Raises
    ------
    ValueError
        For ``xtol <= 0``, a NaN function value, or ``f(xa)`` and ``f(xb)``
        of the same sign.
    RuntimeError
        When 100 iterations do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (
                        dblk * dpre * (fblk - fpre)
                    )
            except ZeroDivisionError:
                # C's quotient is inf or nan here, which fails the test
                # below and bisects.
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(
        f"Failed to converge after {_BRENT_MAXITER} iterations."
    )


def _sigma_brent(laplace: LaplaceFn, service_rate: float, tol: float) -> float:
    """Bracketed Brent solve of ``A*(mu(1 - s)) - s = 0`` on (0, 1).

    ``s = 1`` is always a root; a second root lies strictly inside (0, 1)
    exactly when ``mu * E[T] > 1``, with ``E[T]`` the mean of the
    interarrival distribution ``A``.  We bracket away from 1 by walking
    left until the residual changes sign.
    """

    def residual(s: float) -> float:
        return laplace(service_rate * (1.0 - s)) - s

    left = 1e-12
    if residual(left) < 0:
        # A*(mu) < 0 is impossible for a genuine transform; treat as no root.
        raise ArithmeticError("Laplace transform evaluated negative near s=0")
    right = 1.0 - 1e-9
    # For a stable queue the residual is negative somewhere left of 1.
    probe = right
    while residual(probe) > 0:
        probe = 1.0 - 2.0 * (1.0 - probe)
        if probe <= left:
            raise ValueError(
                "no interior sigma root: mu * E[T] <= 1, where E[T] is the "
                "mean interarrival time of the distribution (its rate "
                "1/E[T] can reach mu even when the mean arrival rate is "
                "below mu)"
            )
    return brentq(residual, left, probe, xtol=tol)


def solve_gm1(
    laplace: LaplaceFn,
    service_rate: float,
    arrival_rate: float,
    method: str = "brent",
    tol: float = 1e-10,
) -> GM1Solution:
    """Solve a G/M/1 queue given the interarrival Laplace transform.

    Parameters
    ----------
    laplace:
        ``A*(s)``, the Laplace transform of the interarrival density.
    service_rate:
        Exponential service rate ``mu``.
    arrival_rate:
        Mean arrival rate (``1 / E[T]``), used for Little's-law outputs.
    method:
        ``"brent"`` (default, bracketed root) or ``"paper"`` (the averaging
        σ-algorithm exactly as published).
    """
    if service_rate <= 0 or arrival_rate <= 0:
        raise ValueError("rates must be positive")
    if arrival_rate >= service_rate:
        raise ValueError(
            f"unstable G/M/1: arrival rate {arrival_rate:g} >= "
            f"service rate {service_rate:g}"
        )
    if method == "paper":
        sigma = sigma_fixed_point_paper(laplace, service_rate, tol=tol)
    elif method == "brent":
        sigma = _sigma_brent(laplace, service_rate, tol=tol)
    else:
        raise ValueError(f"unknown method {method!r}; use 'brent' or 'paper'")
    return GM1Solution(
        sigma=sigma, service_rate=service_rate, arrival_rate=arrival_rate
    )
