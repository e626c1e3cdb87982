"""Truncated multi-dimensional state spaces and sparse generator assembly.

HAP's modulating chain lives on ``(x, y_1, ..., y_l)`` — the numbers of user
and per-type application instances — which is infinite in every coordinate.
All algorithmic solutions truncate it.  The paper (Section 3.2.1) justifies
simply zeroing transitions into out-of-bound states: because the chain is
continuous-time there are no self-loops, so dropping an out-of-bound
transition just removes that rate from the diagonal balance.

:class:`StateSpace` enumerates the box ``0..bounds[0] x ... x 0..bounds[d-1]``
with a dense index, and :func:`build_generator` assembles a sparse generator
from a per-state transition enumeration function.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import numpy as np
import scipy.sparse as sp

__all__ = ["StateSpace", "TrimmedStateSpace", "build_generator"]

#: A transition function maps a state tuple to ``(successor, rate)`` pairs.
TransitionFn = Callable[[tuple[int, ...]], Iterable[tuple[tuple[int, ...], float]]]


class StateSpace:
    """A box-truncated integer lattice with mixed-radix indexing.

    Parameters
    ----------
    bounds:
        Inclusive upper bound per coordinate; the space is the product of
        ``range(bounds[k] + 1)``.

    Examples
    --------
    >>> space = StateSpace((2, 1))
    >>> space.size
    6
    >>> space.index((2, 1))
    5
    >>> space.state(5)
    (2, 1)
    """

    def __init__(self, bounds: tuple[int, ...] | list[int]):
        bounds = tuple(int(b) for b in bounds)
        if not bounds:
            raise ValueError("need at least one dimension")
        if any(b < 0 for b in bounds):
            raise ValueError("bounds must be non-negative")
        self.bounds = bounds
        # Mixed-radix place values as plain ints, last coordinate varying
        # fastest: index() and contains() run once per transition in
        # build_generator, where a numpy call per state costs more than
        # the arithmetic.
        places = [1]
        for bound in reversed(bounds[1:]):
            places.append(places[-1] * (bound + 1))
        self._places = tuple(reversed(places))
        self.size = self._places[0] * (bounds[0] + 1)

    @property
    def ndim(self) -> int:
        """Number of coordinates."""
        return len(self.bounds)

    def contains(self, state: tuple[int, ...]) -> bool:
        """True when every coordinate of ``state`` lies inside the box."""
        if len(state) != len(self.bounds):
            return False
        for coord, bound in zip(state, self.bounds):
            if not 0 <= coord <= bound:
                return False
        return True

    def index(self, state: tuple[int, ...]) -> int:
        """Dense index of ``state`` (mixed-radix encoding)."""
        if not self.contains(state):
            raise KeyError(f"state {state} outside bounds {self.bounds}")
        index = 0
        for coord, place in zip(state, self._places):
            index += coord * place
        return int(index)

    def state(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`index`."""
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside 0..{self.size - 1}")
        coords = []
        remainder = int(index)
        for place in self._places:
            coord, remainder = divmod(remainder, place)
            coords.append(coord)
        return tuple(coords)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for index in range(self.size):
            yield self.state(index)

    def __len__(self) -> int:
        return self.size

    def coordinate_arrays(self) -> list[np.ndarray]:
        """Per-coordinate value arrays aligned with the dense index.

        ``coordinate_arrays()[k][i]`` is coordinate ``k`` of ``state(i)``;
        useful for vectorizing per-state rate functions.
        """
        grids = np.meshgrid(
            *[np.arange(b + 1) for b in self.bounds], indexing="ij"
        )
        return [grid.ravel() for grid in grids]


class TrimmedStateSpace:
    """A mass-selected subset of a box :class:`StateSpace`, densely reindexed.

    The paper truncates to a rectangle, but the stationary mass of the
    modulating chain lives on a diagonal band of it — corner states carry
    probabilities far below floating-point noise yet cost the same cubic
    work in every matrix solve.  ``TrimmedStateSpace`` keeps an explicit
    subset of the parent box (chosen by stationary mass in
    :mod:`repro.core.mmpp_mapping`) while preserving the :class:`StateSpace`
    interface (``bounds``, ``size``, ``index``/``state``, iteration,
    ``coordinate_arrays``), so every consumer — boundary-mass checks, rate
    vectors, QBD phase bookkeeping — works unchanged on the smaller space.

    Parameters
    ----------
    parent:
        The enclosing box.
    keep:
        Sorted dense parent indices of the retained states.
    """

    def __init__(self, parent: StateSpace, keep: np.ndarray):
        keep = np.asarray(keep, dtype=np.int64)
        if keep.ndim != 1 or keep.size == 0:
            raise ValueError("keep must be a non-empty 1-D index array")
        if np.any(keep[1:] <= keep[:-1]):
            raise ValueError("keep indices must be strictly increasing")
        if keep[0] < 0 or keep[-1] >= parent.size:
            raise ValueError("keep indices outside the parent space")
        self.parent = parent
        self.bounds = parent.bounds
        self.size = int(keep.size)
        self._keep = keep
        self._coords = [c[keep] for c in parent.coordinate_arrays()]
        self._parent_to_self = {int(p): i for i, p in enumerate(keep)}

    @property
    def ndim(self) -> int:
        """Number of coordinates."""
        return self.parent.ndim

    def contains(self, state: tuple[int, ...]) -> bool:
        """True when ``state`` is inside the box *and* was retained."""
        return (
            self.parent.contains(state)
            and self.parent.index(state) in self._parent_to_self
        )

    def index(self, state: tuple[int, ...]) -> int:
        """Dense index of ``state`` within the trimmed space."""
        if not self.parent.contains(state):
            raise KeyError(f"state {state} outside bounds {self.bounds}")
        parent_index = self.parent.index(state)
        try:
            return self._parent_to_self[parent_index]
        except KeyError:
            raise KeyError(f"state {state} was trimmed away") from None

    def state(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`index`."""
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside 0..{self.size - 1}")
        return self.parent.state(int(self._keep[index]))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for index in range(self.size):
            yield self.state(index)

    def __len__(self) -> int:
        return self.size

    def coordinate_arrays(self) -> list[np.ndarray]:
        """Per-coordinate value arrays aligned with the trimmed dense index."""
        return [c.copy() for c in self._coords]


def build_generator(
    space: StateSpace,
    transitions: TransitionFn,
    clip_out_of_bounds: bool = True,
) -> sp.csr_matrix:
    """Assemble the sparse generator for ``space`` from a transition function.

    Parameters
    ----------
    space:
        The truncated state space.
    transitions:
        Called once per state; yields ``(successor_state, rate)`` pairs.
        Rates must be non-negative; zero rates are skipped.
    clip_out_of_bounds:
        When true (the paper's convention) transitions leaving the box are
        dropped, which also removes their rate from the diagonal — i.e. the
        boundary reflects.  When false such transitions raise ``KeyError``.

    Returns
    -------
    A CSR float64 generator matrix with zero row sums and sorted indices.
    This matrix is the head of the sparse pipeline: it flows untouched
    through :mod:`repro.core.mmpp_mapping` into :class:`repro.markov.mmpp.MMPP`
    and :class:`repro.markov.ctmc.CTMC`, which keep it CSR on every analytic
    path (stationary solves, kernels, QBD block assembly) — no consumer
    densifies it.
    """
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for source_index, state in enumerate(space):
        outflow = 0.0
        for successor, rate in transitions(state):
            if rate < 0:
                raise ValueError(f"negative rate {rate} from state {state}")
            if rate == 0.0:
                continue
            if not space.contains(successor):
                if clip_out_of_bounds:
                    continue
                raise KeyError(
                    f"transition {state} -> {successor} leaves the state space"
                )
            rows.append(source_index)
            cols.append(space.index(successor))
            vals.append(rate)
            outflow += rate
        if outflow > 0.0:
            rows.append(source_index)
            cols.append(source_index)
            vals.append(-outflow)
    generator = sp.coo_matrix(
        (np.asarray(vals, dtype=float), (rows, cols)),
        shape=(space.size, space.size),
    )
    csr = generator.tocsr()
    csr.sort_indices()
    return csr
