"""Numerical Laplace transforms of interarrival distributions.

Solution 2's σ-algorithm needs ``A*(s) = ∫ a(t) e^{-st} dt`` for the
closed-form but non-elementary HAP interarrival density.  Integrating the
*density* directly is delicate because ``a(t)`` has a spike at zero (HAP's
short intra-burst gaps); integrating the complementary CDF through

    A*(s) = 1 - s * ∫_0^∞ Abar(t) e^{-st} dt

is much better conditioned, so that is the default path.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["laplace_of_density", "laplace_of_interarrival_from_ccdf"]


def laplace_of_density(
    density: Callable[[float], float],
    s: float,
    upper: float = np.inf,
    **quad_kwargs,
) -> float:
    """``∫_0^upper density(t) e^{-st} dt`` by adaptive quadrature.

    Parameters
    ----------
    density:
        Scalar density function of ``t``.
    s:
        Transform variable (must be non-negative for a proper transform).
    upper:
        Upper integration limit; infinite by default.
    """
    from scipy.integrate import quad

    if s < 0:
        raise ValueError("transform variable must be non-negative")

    def integrand(t: float) -> float:
        return density(t) * np.exp(-s * t)

    value, _ = quad(integrand, 0.0, upper, limit=200, **quad_kwargs)
    return float(value)


def laplace_of_interarrival_from_ccdf(
    ccdf: Callable[[float], float],
    s: float,
    upper: float = np.inf,
    **quad_kwargs,
) -> float:
    """``A*(s)`` of a non-negative random variable from its ccdf.

    Uses ``E[e^{-sT}] = 1 - s ∫ P(T > t) e^{-st} dt``, which avoids
    integrating the spiked density.  For ``s = 0`` the transform is exactly 1.
    """
    from scipy.integrate import quad

    if s < 0:
        raise ValueError("transform variable must be non-negative")
    if s == 0:
        return 1.0

    def integrand(t: float) -> float:
        return ccdf(t) * np.exp(-s * t)

    value, _ = quad(integrand, 0.0, upper, limit=200, **quad_kwargs)
    return float(1.0 - s * value)
