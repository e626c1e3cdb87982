"""Shared pieces of the workloads: the measurement record, percentiles, and
the reference computation that end-to-end times are normalized by.

On a shared host the whole machine slows down and speeds up by half or
more over tens of seconds, so one run's raw times say as much about the
neighbours as about the program.  Each run therefore also times
:func:`reference_seconds`, a fixed computation that calls no program code,
between its operations; end-to-end times are scaled by
``REFERENCE_NOMINAL_S / (reference time nearby)``, which reads them as
they would be on a host where the reference takes its nominal time.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

__all__ = ["Measurement", "percentile", "reference_seconds", "REFERENCE_NOMINAL_S"]

#: Size of the reference computation: a sort and scan over this many
#: floats, then this many interpreted dictionary updates.
REFERENCE_ARRAY = 300_000
REFERENCE_LOOP = 60_000
#: About what the reference takes on a 2-vCPU x86-64 virtual machine
#: with quiet neighbours (CPython 3.11, numpy 2.4); only the unit of the
#: normalized times depends on it.
REFERENCE_NOMINAL_S = 0.014


def reference_seconds() -> float:
    """Wall seconds of the fixed reference computation (no program code)."""
    started = perf_counter()
    values = np.random.default_rng(20_260_101).random(REFERENCE_ARRAY)
    ordered = np.sort(values)
    np.cumsum(ordered[::-1])
    table = {}
    total = 0
    for index in range(REFERENCE_LOOP):
        table[index & 511] = total
        total += (index * 31) % 7
    return perf_counter() - started


@dataclass
class Measurement:
    """What one workload's timed loop produced.

    Attributes
    ----------
    started, elapsed:
        ``perf_counter`` reading when the timed loop began, and its length
        without the reference timings.
    latencies, units:
        Per completed operation: seconds it took and the work units it did
        (simulated events, sweep points, decisions).
    attempted, failed:
        Operations started, and those that raised or answered wrongly.
    problems:
        One line per failed correctness check (empty when all passed).
    reference:
        Seconds of each reference computation timed between operations.
        They cut the loop into segments: segment ``k`` runs between
        reference timings ``k - 1`` and ``k``.
    segments, segment_of:
        Wall seconds of each segment, and the segment of each operation.
    """

    started: float = field(default_factory=perf_counter)
    elapsed: float = 0.0
    latencies: list[float] = field(default_factory=list)
    units: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)
    segments: list[float] = field(default_factory=list)
    segment_of: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._segment_started = self.started

    def record(self, latency: float, units: float = 1) -> None:
        """One completed operation."""
        self.latencies.append(latency)
        self.units.append(units)
        self.segment_of.append(len(self.reference))

    def calibrate(self) -> None:
        """Close the segment and time the reference computation once."""
        self.segments.append(perf_counter() - self._segment_started)
        self.reference.append(reference_seconds())
        self._segment_started = perf_counter()

    def stop(self) -> None:
        """Close the timed loop."""
        self.segments.append(perf_counter() - self._segment_started)
        self.elapsed = sum(self.segments)

    def check(self, ok: bool, message: str) -> None:
        """Record ``message`` as a problem unless ``ok``."""
        if not ok:
            self.problems.append(message)

    @property
    def slowdown(self) -> float:
        """How much slower than nominal the host ran the reference (median)."""
        if not self.reference:
            return 1.0
        return statistics.median(self.reference) / REFERENCE_NOMINAL_S

    def normalized(self) -> tuple[list[float], float]:
        """Latencies and ``elapsed`` as on a host running at nominal speed.

        Each segment is scaled by the median of the reference timings
        nearest it, two before and two after: the host's speed drifts over
        seconds, so the nearest timings track it better than the run's
        median does.
        """
        slowdowns = []
        for segment in range(len(self.segments)):
            nearby = self.reference[max(0, segment - 2) : segment + 2]
            slowdowns.append(
                statistics.median(nearby) / REFERENCE_NOMINAL_S if nearby else 1.0
            )
        latencies = [
            latency / slowdowns[segment]
            for latency, segment in zip(self.latencies, self.segment_of)
        ]
        elapsed = sum(seconds / slow for seconds, slow in zip(self.segments, slowdowns))
        return latencies, elapsed


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-quantile (``0 <= q <= 1``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])
