"""Closed-form HAP message interarrival distribution (Equations 7–11).

Solution 2 of the paper conditions on the user count ``x`` (Poisson with
mean ``u = lambda / mu``) and then on the per-type application counts
(Poisson with mean ``x * lambda_i / mu_i`` given ``x``), both justified by
M/M/∞ modelling under time-scale separation.  Weighting states by their
message rate (the Palm / "seen by an arrival" weighting of Equation 3) and
summing the resulting Poisson mixtures in closed form yields, with

    u        = lambda / mu
    a_i      = lambda_i / mu_i
    Lambda_i = sum_j lambda_ij
    S(t)     = sum_i a_i (1 - exp(-Lambda_i t))
    F(t)     = sum_i a_i Lambda_i exp(-Lambda_i t)        (= S'(t))
    N(t)     = sum_i a_i Lambda_i^2 exp(-Lambda_i t)      (paper's Eq 11)

the complementary CDF of the interarrival time

    Abar(t) = (F(t) / F(0)) * L(t) * exp(-u (1 - L(t))),   L(t) = exp(-S(t))

and, differentiating (the paper's Equation 10 with its L/M/N factors;
``M`` here is ``F``),

    a(t) = (L(t) * exp(-u(1 - L(t))) / F(0))
           * (N(t) + F(t)^2 + u * L(t) * F(t)^2).

Useful exact identities (all verified by the test suite):

* ``Abar(0) = 1`` and ``Abar -> 0`` as ``t -> inf``;
* ``∫ a = 1`` and ``∫ t a(t) dt = (1 - P(R=0)) / lambda-bar`` — zero-rate
  states generate no arrivals, so they are absent from the Palm mixture;
* ``a(0) = N(0)/F(0) + (1 + u) F(0)`` — larger than ``lambda-bar``
  whenever the hierarchy is non-degenerate, the analytic face of Figure 9's
  "HAP has more short interarrivals than Poisson".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import HAPParameters
from repro.queueing.gm1 import brentq

__all__ = [
    "InterarrivalDistribution",
    "density_intersections",
    "poisson_interarrival_density",
]


@dataclass(frozen=True)
class InterarrivalDistribution:
    """Closed-form HAP interarrival distribution for a parameter set.

    Construct via ``InterarrivalDistribution(params)``; all methods accept
    scalars or arrays and are vectorized.
    """

    params: HAPParameters

    # ------------------------------------------------------------------
    # Ingredient functions
    # ------------------------------------------------------------------
    @property
    def _u(self) -> float:
        return self.params.mean_users

    def _per_type(self) -> tuple[np.ndarray, np.ndarray]:
        """Vectors ``(a_i, Lambda_i)`` over application types."""
        apps = self.params.applications
        a = np.array([app.offered_instances for app in apps])
        big_lambda = np.array([app.total_message_rate for app in apps])
        return a, big_lambda

    def s_function(self, t: np.ndarray) -> np.ndarray:
        """``S(t) = sum_i a_i (1 - exp(-Lambda_i t))``."""
        a, lam = self._per_type()
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return (a * (1.0 - np.exp(-np.outer(t, lam)))).sum(axis=1)

    def f_function(self, t: np.ndarray) -> np.ndarray:
        """``F(t) = sum_i a_i Lambda_i exp(-Lambda_i t)`` (paper's M)."""
        a, lam = self._per_type()
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return (a * lam * np.exp(-np.outer(t, lam))).sum(axis=1)

    def n_function(self, t: np.ndarray) -> np.ndarray:
        """``N(t) = sum_i a_i Lambda_i^2 exp(-Lambda_i t)`` (Equation 11)."""
        a, lam = self._per_type()
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return (a * lam**2 * np.exp(-np.outer(t, lam))).sum(axis=1)

    # ------------------------------------------------------------------
    # Distribution functions
    # ------------------------------------------------------------------
    def ccdf(self, t: np.ndarray) -> np.ndarray:
        """Complementary CDF ``Abar(t) = P(T > t)``."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        ell = np.exp(-self.s_function(t))
        f0 = self.f_function(np.zeros(1))[0]
        return (
            (self.f_function(t) / f0)
            * ell
            * np.exp(-self._u * (1.0 - ell))
        )

    def cdf(self, t: np.ndarray) -> np.ndarray:
        """CDF ``A(t)`` (the paper's Equation 7 family)."""
        return 1.0 - self.ccdf(t)

    def density(self, t: np.ndarray) -> np.ndarray:
        """Density ``a(t)`` (Equation 10)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        ell = np.exp(-self.s_function(t))
        f = self.f_function(t)
        n = self.n_function(t)
        f0 = self.f_function(np.zeros(1))[0]
        prefactor = ell * np.exp(-self._u * (1.0 - ell)) / f0
        return prefactor * (n + f**2 + self._u * ell * f**2)

    def density_at_zero(self) -> float:
        """``a(0)`` in closed form — compare against ``lambda-bar``."""
        a, lam = self._per_type()
        f0 = float((a * lam).sum())
        n0 = float((a * lam**2).sum())
        return n0 / f0 + (1.0 + self._u) * f0

    def probability_zero_rate(self) -> float:
        """Stationary probability that no application is live (rate zero).

        ``P(R = 0) = exp(-u (1 - exp(-sum_i a_i)))`` — such states generate
        no arrivals and therefore carry no weight in the Palm mixture.
        """
        a, _ = self._per_type()
        return float(np.exp(-self._u * (1.0 - np.exp(-a.sum()))))

    def mean(self) -> float:
        """Mean of the mixture: ``(1 - P(R = 0)) / lambda-bar``.

        Zero-rate states carry no Palm weight, so the mixture mean sits a
        hair below ``1 / lambda-bar``; for the paper's parameters the gap is
        under half a percent.
        """
        return (
            1.0 - self.probability_zero_rate()
        ) / self.params.mean_message_rate

    def second_moment(self, upper: float | None = None) -> float:
        """``E[T^2] = 2 ∫ t Abar(t) dt`` by piecewise adaptive quadrature."""
        if upper is None:
            upper = self._integration_horizon()
        value = _piecewise_quad(
            lambda t: t * float(self.ccdf(t)[0]), self._breakpoints(upper)
        )
        return 2.0 * value

    def scv(self) -> float:
        """Squared coefficient of variation of the interarrival time.

        Exponential interarrivals (Poisson traffic) have SCV 1; HAP's is
        substantially larger — one of the paper's burstiness signatures.
        """
        m1 = self.mean()
        return self.second_moment() / m1**2 - 1.0

    def _integration_horizon(self) -> float:
        """Upper limit covering the interarrival tail.

        The tail of ``Abar`` decays like ``exp(-min_i Lambda_i * t)`` (the
        slowest single-application message stream), so a few hundred of
        those time constants captures everything to double precision.
        """
        _, lam = self._per_type()
        return 120.0 / float(lam.min())

    def _breakpoints(self, upper: float) -> list[float]:
        """Quadrature breakpoints spanning the short- and long-gap scales.

        Geometric spacing from a fifth of the mean gap out to ``upper`` so
        that both the short intra-burst spike and the slow inter-burst tail
        are resolved even when the per-type rates span orders of magnitude.
        """
        anchors = [0.0]
        point = 0.2 * self.mean()
        if not point > 0.0:  # degenerate mixture: mean underflowed to zero
            return [0.0, upper]
        while point < upper:
            anchors.append(point)
            point *= 4.0
        return anchors + [upper]

    def laplace(self, s: float) -> float:
        """``A*(s) = 1 - s ∫ Abar(t) e^{-st} dt`` (well conditioned).

        Evaluated with vectorized Gauss–Legendre panels over the natural
        breakpoints — the integrand is smooth, so fixed-order panels match
        adaptive quadrature to ~1e-12 at a fraction of the cost (this sits
        inside the σ root-finder, so it is the hot path of Solution 2).
        """
        if s == 0:
            return 1.0
        return float(1.0 - s * self.ccdf_laplace(s))

    def ccdf_laplace(self, s: float) -> float:
        """``∫ Abar(t) e^{-st} dt``: ``(1 - A*(s)) / s``, and ``E[T]`` at 0.

        Taken directly, it keeps full precision where ``1 - A*(s)`` cancels
        (``s E[T]`` small).
        """
        if s < 0:
            raise ValueError("transform variable must be non-negative")
        if s == 0:
            return self.mean()
        upper = min(self._integration_horizon(), 80.0 / s + 10.0 * self.mean())
        return _panel_gauss(
            lambda ts: self.ccdf(ts) * np.exp(-s * ts),
            self._breakpoints(upper),
        )


#: Gauss–Legendre nodes/weights on [-1, 1], shared by all panels.
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _panel_gauss(fn, breakpoints: list[float], subpanels: int = 4) -> float:
    """Vectorized fixed-order Gauss–Legendre over breakpoint panels.

    Each breakpoint interval is split into ``subpanels`` equal panels of a
    64-point rule.  All panel abscissae are assembled into a single array so
    ``fn`` (which must accept an array) is evaluated exactly once for the
    whole quadrature; the weighted panel sums are then one matrix–vector
    product.
    """
    edges = np.concatenate(
        [
            np.linspace(left, right, subpanels + 1)[:-1]
            for left, right in zip(breakpoints[:-1], breakpoints[1:])
        ]
        + [[breakpoints[-1]]]
    )
    halves = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    abscissae = mids[:, None] + halves[:, None] * _GAUSS_NODES[None, :]
    values = np.asarray(fn(abscissae.ravel())).reshape(abscissae.shape)
    return float(halves @ (values @ _GAUSS_WEIGHTS))


def _piecewise_quad(fn, breakpoints: list[float]) -> float:
    """Sum of adaptive quadratures over consecutive breakpoint intervals."""
    from scipy.integrate import quad

    total = 0.0
    for left, right in zip(breakpoints[:-1], breakpoints[1:]):
        value, _ = quad(fn, left, right, limit=200)
        total += value
    return total


def poisson_interarrival_density(rate: float, t: np.ndarray) -> np.ndarray:
    """Exponential density of the load-equivalent Poisson process (Figure 9)."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return rate * np.exp(-rate * t)


def density_intersections(
    dist: InterarrivalDistribution,
    search_upper: float = 2.0,
    grid_points: int = 4000,
) -> list[float]:
    """Crossing points of HAP's ``a(t)`` with its load-equivalent exponential.

    The paper reports two intersections (≈0.077 and ≈0.53 for the Figure 9
    parameters): HAP has more very short gaps (intra-burst) and more very
    long gaps (between bursts), the exponential wins in the middle.
    """
    rate = dist.params.mean_message_rate

    def difference(t: float) -> float:
        return float(dist.density(t)[0]) - rate * np.exp(-rate * t)

    grid = np.linspace(1e-9, search_upper, grid_points)
    # Whole-grid bracketing in one vectorized evaluation; brentq then
    # polishes each sign change with the scalar callable.
    values = dist.density(grid) - rate * np.exp(-rate * grid)
    crossings = []
    for left, right, f_left, f_right in zip(
        grid[:-1], grid[1:], values[:-1], values[1:]
    ):
        if f_left == 0.0:
            crossings.append(float(left))
        elif f_left * f_right < 0:
            crossings.append(brentq(difference, left, right))
    return crossings
