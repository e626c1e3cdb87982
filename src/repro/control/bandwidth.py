"""Bandwidth allocation: the smallest server meeting a performance target.

Section 6's headline implication: because HAP delay explodes with
utilization far faster than Poisson's, *under*-allocating bandwidth is
catastrophically worse than the Poisson model predicts, and "allocating
appropriate bandwidth is much more effective than allocating more buffer
space".  These helpers invert Solution 2: given the workload, find the
minimum ``mu''`` meeting a mean-delay or waiting-time-percentile target.

Solution 2 is a G/M/1 queue, whose mean delay ``T = 1 / (mu (1 - sigma))``
pins ``mu (1 - sigma)`` at ``1 / T``; the root equation
``sigma = A*(mu (1 - sigma))`` then gives ``sigma = A*(1 / T)`` at the
target without a search, so a delay target is sized in closed form,
``mu = 1 / (T (1 - A*(1 / T))) = 1 / ∫ Abar(t) exp(-t / T) dt``, from one
transform value.  The percentile target and exact (Solution-0) sizing are
inverted by bisection on ``mu``.
"""

from __future__ import annotations

from repro.core.interarrival import InterarrivalDistribution
from repro.core.params import HAPParameters
from repro.core.solution2 import solve_solution2

__all__ = ["bandwidth_for_delay_target", "bandwidth_for_wait_percentile"]


def _delay_at_service_rate(
    params: HAPParameters,
    service_rate: float,
    solver: str,
    solver_kwargs: dict,
) -> float:
    """Mean delay of one bisection probe; ``inf`` when unstable or failed."""
    if solver != "solution0":
        # Validated outside the try: a typo'd solver name must surface as
        # a ValueError, not masquerade as an unmeetable delay target.
        raise ValueError(f"unknown solver {solver!r}")
    if params.mean_message_rate >= service_rate:
        return float("inf")
    try:
        from repro.core.solution0 import solve_solution0

        return solve_solution0(
            params, service_rate, backend="qbd", **solver_kwargs
        ).mean_delay
    except (ValueError, ArithmeticError):
        return float("inf")


def bandwidth_for_delay_target(
    params: HAPParameters,
    delay_target: float,
    tol: float = 1e-6,
    solver: str = "solution2",
    **solver_kwargs,
) -> float:
    """Minimum service rate with HAP/M/1 mean delay <= target.

    The result is always above both ``lambda-bar`` (stability) and
    ``1 / delay_target`` (one service must fit in the target), and at most
    a relative ``tol`` above the smallest rate meeting the target.

    Parameters
    ----------
    solver:
        ``"solution2"`` (default) sizes in closed form from one transform
        value (see the module docstring) and returns that rate times
        ``1 + tol``, so the answer meets the target despite rounding.  It
        is reliable when the resulting design lands under ~30 %
        utilization — the paper's recommended control-plane regime.  For
        aggressive targets whose design lands at high utilization,
        Solution 2 is badly optimistic (it drops interarrival
        correlation); pass ``"solution0"`` to size with the exact chain
        instead, by bisection on ``mu''`` to relative width ``tol``
        (seconds-to-minutes per probe; ``modulating_bounds=...`` is
        forwarded).
    """
    if delay_target <= 0:
        raise ValueError("delay target must be positive")
    if solver == "solution2":
        # At T = delay_target the G/M/1 root is sigma = A*(1 / T), and delay
        # falls as mu grows, so 1 / (T (1 - sigma)) is the smallest rate
        # meeting the target.  T (1 - A*(1 / T)) is the transform of the
        # interarrival ccdf at 1 / T, taken directly so that a loose target
        # (sigma near 1) loses nothing to cancellation.
        span = InterarrivalDistribution(params).ccdf_laplace(1.0 / delay_target)
        if not span > 0.0:
            raise ArithmeticError("no finite bandwidth meets the delay target")
        return (1.0 + tol) / span
    lam = params.mean_message_rate
    low = max(lam, 1.0 / delay_target)
    high = max(2.0 * low, low + 1.0)
    while (
        _delay_at_service_rate(params, high, solver, solver_kwargs)
        > delay_target
    ):
        high *= 2.0
        if high > 1e9 * max(lam, 1.0):
            raise ArithmeticError("no finite bandwidth meets the delay target")
    while (high - low) / high > tol:
        mid = 0.5 * (low + high)
        if (
            _delay_at_service_rate(params, mid, solver, solver_kwargs)
            <= delay_target
        ):
            high = mid
        else:
            low = mid
    return high


def bandwidth_for_wait_percentile(
    params: HAPParameters,
    wait_limit: float,
    quantile: float = 0.95,
    tol: float = 1e-6,
) -> float:
    """Minimum service rate with ``P(wait <= wait_limit) >= quantile``.

    Uses the G/M/1 waiting-time distribution
    ``W(y) = 1 - sigma exp(-mu (1 - sigma) y)`` from Solution 2 — the form
    the paper derives in Section 3.2.2 — inverted by bisection on ``mu``.
    """
    if wait_limit <= 0:
        raise ValueError("wait limit must be positive")
    if not 0 < quantile < 1:
        raise ValueError("quantile must be in (0, 1)")

    def meets_target(service_rate: float) -> bool:
        if params.mean_message_rate >= service_rate:
            return False
        try:
            solution = solve_solution2(params, service_rate)
        except (ValueError, ArithmeticError):
            return False
        return float(solution.gm1.waiting_time_cdf(wait_limit)) >= quantile

    low = params.mean_message_rate
    high = max(2.0 * low, low + 1.0)
    while not meets_target(high):
        high *= 2.0
        if high > 1e9 * max(low, 1.0):
            raise ArithmeticError("no finite bandwidth meets the wait target")
    while (high - low) / high > tol:
        mid = 0.5 * (low + high)
        if meets_target(mid):
            high = mid
        else:
            low = mid
    return high
