"""Seeded random substreams and service/interarrival distributions.

Reproducibility discipline: every stochastic component of a simulation draws
from its own named substream, spawned from one master seed via numpy's
``SeedSequence``.  Adding a new component therefore never perturbs the draws
of existing ones — essential when comparing HAP against Poisson "on the same
randomness" and when hunting rare events like the paper's Figure-15 peak
busy period.

The distribution classes are deliberately tiny: a ``sample(rng)`` method, a
``mean()`` and a ``rate`` where meaningful.  The paper's analysis is all
exponential, but the simulator accepts any of these (e.g. Pareto message
sizes for the heavy-tail extension study).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Deterministic",
    "Erlang",
    "Exponential",
    "ExponentialBatcher",
    "Hyperexponential",
    "Pareto",
    "RandomStreams",
]


class RandomStreams:
    """A family of independent named random generators from one seed.

    Examples
    --------
    >>> streams = RandomStreams(seed=7)
    >>> rng = streams.get("user-arrivals")
    >>> rng2 = streams.get("user-arrivals")  # same object back
    >>> rng is rng2
    True
    """

    def __init__(self, seed: int | np.random.SeedSequence = 0):
        self._seed_sequence = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """The generator for ``name``, created deterministically on first use.

        The substream seed is derived from the master seed and the *name*
        (not creation order), so components can be instantiated in any order
        without changing anyone's draws.
        """
        if name not in self._streams:
            # Derive entropy from the name so ordering doesn't matter.
            name_entropy = np.frombuffer(
                name.encode("utf-8").ljust(4, b"\0"), dtype=np.uint8
            ).astype(np.uint32)
            child = np.random.SeedSequence(
                entropy=self._seed_sequence.entropy,
                spawn_key=tuple(int(v) for v in name_entropy),
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]


class ExponentialBatcher:
    """Unit-exponential variates drawn in numpy blocks.

    The block-draw substrate of the sequential columnar engine
    (:mod:`repro.sim.columnar`): a block of ``standard_exponential``
    variates is drawn at once and served as an array (:meth:`draw_block`)
    or one plain Python float at a time (:meth:`draw`), scaled by the
    requested mean.

    Determinism contract (the columnar engine's, not the event heap's):

    * **seed-stable** — the same seed always yields the same variate
      sequence, because draws come from one generator in one fixed order;
    * **worker-count-stable** — each replication owns its generator, so the
      process-pool fan-out cannot interleave blocks across seeds;
    * **not bit-identical to per-call draws** — the block boundary changes
      the underlying bit-stream consumption, so individual variates differ
      from ``Generator.exponential`` calls (the heap sources' draws) even
      at the same seed.  Distributions are identical
      (``exponential(scale)`` is ``scale * standard_exponential()``).

    Means are validated *at draw time*: a nonpositive, NaN, or infinite
    mean raises immediately instead of emitting inf/NaN interarrivals.  The
    heap sources are guarded downstream by
    :meth:`repro.sim.engine.Simulator.schedule`, but block-drawn variates
    bypass the event heap entirely (the columnar engine never schedules),
    so the batcher is the last line of defence.
    """

    __slots__ = ("_rng", "_block_size", "_block", "_index")

    def __init__(self, rng: np.random.Generator, block_size: int = 4096):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self._rng = rng
        self._block_size = block_size
        self._block: list[float] = []
        self._index = 0

    @staticmethod
    def _validate_mean(mean: float) -> None:
        # ``not (0 < mean < inf)`` is False for NaN too — one comparison
        # chain covers nonpositive, NaN, and infinite means on the hot path.
        if not 0.0 < mean < math.inf:
            raise ValueError(
                f"exponential mean must be positive and finite (got {mean})"
            )

    def draw(self, mean: float) -> float:
        """One exponential variate with the given ``mean`` (``1/rate``)."""
        self._validate_mean(mean)
        i = self._index
        block = self._block
        if i >= len(block):
            # tolist() hands back Python floats: indexing a list is much
            # cheaper than extracting numpy scalars in the event loop.
            block = self._block = self._rng.standard_exponential(
                self._block_size
            ).tolist()
            i = 0
        self._index = i + 1
        return block[i] * mean

    def draw_block(self, count: int, mean: float) -> np.ndarray:
        """``count`` exponential variates with the given ``mean``, as an array.

        Consumes the same underlying bit-stream as ``count`` calls to
        :meth:`draw` would (any partially-served block is used up first), so
        mixing scalar and block draws stays seed-deterministic.
        """
        self._validate_mean(mean)
        if count < 0:
            raise ValueError("count must be non-negative")
        remaining = len(self._block) - self._index
        if remaining >= count:
            i = self._index
            self._index = i + count
            return np.asarray(self._block[i : i + count], dtype=float) * mean
        head = np.asarray(self._block[self._index :], dtype=float)
        self._block = []
        self._index = 0
        tail = self._rng.standard_exponential(count - len(head))
        return np.concatenate([head, tail]) * mean


@dataclass(frozen=True)
class Exponential:
    """Exponential distribution with the given ``rate`` (mean ``1/rate``)."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one value."""
        return float(rng.exponential(1.0 / self.rate))

    def mean(self) -> float:
        """``1 / rate``."""
        return 1.0 / self.rate


@dataclass(frozen=True)
class Deterministic:
    """A constant — used for fixed packetization/response processing times."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("value must be non-negative")

    def sample(self, rng: np.random.Generator) -> float:
        """Always the constant."""
        return self.value

    def mean(self) -> float:
        """The constant itself."""
        return self.value


@dataclass(frozen=True)
class Erlang:
    """Erlang(``shape``, ``rate``) — sum of ``shape`` exponentials."""

    shape: int
    rate: float

    def __post_init__(self) -> None:
        if self.shape < 1:
            raise ValueError("shape must be a positive integer")
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one value."""
        return float(rng.gamma(self.shape, 1.0 / self.rate))

    def mean(self) -> float:
        """``shape / rate``."""
        return self.shape / self.rate


@dataclass(frozen=True)
class Hyperexponential:
    """Mixture of exponentials — higher variability than exponential.

    Parameters
    ----------
    probabilities:
        Branch probabilities (must sum to 1).
    rates:
        Rate of each exponential branch.
    """

    probabilities: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.probabilities) != len(self.rates) or not self.rates:
            raise ValueError("need matching, non-empty probabilities and rates")
        if abs(sum(self.probabilities) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
        if any(p < 0 for p in self.probabilities) or any(
            r <= 0 for r in self.rates
        ):
            raise ValueError("probabilities must be >= 0 and rates > 0")

    def sample(self, rng: np.random.Generator) -> float:
        """Pick a branch, then draw exponentially."""
        branch = rng.choice(len(self.rates), p=self.probabilities)
        return float(rng.exponential(1.0 / self.rates[branch]))

    def mean(self) -> float:
        """``sum_k p_k / r_k``."""
        return sum(p / r for p, r in zip(self.probabilities, self.rates))


@dataclass(frozen=True)
class Pareto:
    """Pareto(``shape``, ``scale``) on ``[scale, inf)`` — heavy tails.

    Used by the heavy-tail extension experiments (what happens to HAP's
    congestion picture when application lifetimes are not exponential —
    a nod to the self-similar-traffic literature that followed the paper).
    """

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("shape and scale must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one value (support ``[scale, inf)``)."""
        return float(self.scale * (1.0 + rng.pareto(self.shape)))

    def mean(self) -> float:
        """``shape * scale / (shape - 1)``; infinite for shape <= 1."""
        if self.shape <= 1.0:
            return float("inf")
        return self.shape * self.scale / (self.shape - 1.0)
