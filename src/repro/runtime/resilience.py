"""Fault tolerance for long campaigns: retries, checkpoints, degradation.

The figure pipelines are multi-hour fan-outs (dozens of load points times
replications), and the paper's own results depend on all of them finishing.
Three failure modes threaten that, and this module owns the answer to each:

**Transient job failures** (a worker OOM-killed by the OS, a flaky solve) —
:class:`RetryPolicy`: per-job wall-clock timeouts and seed-preserving
retries with exponential backoff and *deterministic* jitter (derived from
``(seed, attempt)``, never from global randomness, so retry schedules are
reproducible), bounded by a campaign-level retry budget.

**Process death mid-campaign** (the whole interpreter, not one worker) —
:class:`CheckpointJournal`: a crash-safe JSONL journal with one record per
completed unit (replication seed or grid point), written with a single
atomic ``O_APPEND`` write and an fsync.  Resuming splices
the journaled results back by key, so an interrupted campaign restarts from
the last completed unit and its final statistics are bit-identical to an
uninterrupted run (payloads are pickled, not re-derived).

**Numerically hostile corners** (an ill-conditioned eigenproblem, a
singular stationary system, a stalled fixed point) —
:class:`DegradationChain`: a declarative ordered ladder of solver rungs.
Each rung either answers or raises; the chain records every attempt in a
:class:`SolveDiagnostics` that travels with the result, replacing the
ad-hoc scattered fallbacks the solver stack grew previously.  Chains check
:func:`repro.runtime.chaos.raise_if_poisoned` before each rung, which is
what lets the fault-injection suite prove every ladder position is
reachable and correct.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import random
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.runtime import chaos

__all__ = [
    "CheckpointJournal",
    "CheckpointRecord",
    "DegradationChain",
    "DegradationError",
    "RetryPolicy",
    "RungAttempt",
    "RungRejected",
    "SolveDiagnostics",
]

#: Journal line schema identifier; bump on incompatible record changes.
CHECKPOINT_SCHEMA = "repro-checkpoint/1"


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Timeout and retry knobs for one campaign.

    Attributes
    ----------
    max_attempts:
        Total attempts per job (1 = no retries).  Retries re-run the *same
        seed*, so a retried replication contributes exactly the result it
        would have produced fault-free.
    timeout:
        Per-job wall-clock seconds, measured from when the job is observed
        running (queue time does not count).  Enforced only on the process
        -pool path — a hung in-process job cannot be interrupted — by
        killing the worker and respawning the pool.  ``None`` disables.
    backoff_base, backoff_factor, backoff_max:
        Retry ``k`` (1-based) waits ``min(backoff_max, backoff_base *
        backoff_factor**(k - 1))`` seconds, plus jitter.
    jitter:
        Fractional jitter on the backoff delay, drawn deterministically
        from ``(seed, attempt)`` — two runs of the same campaign produce
        identical retry schedules.
    retry_budget:
        Campaign-wide cap on total retries across all jobs (``None`` =
        unlimited).  A pool crash charges every in-flight job one attempt,
        so the budget is what bounds worst-case work under repeated faults.
    """

    max_attempts: int = 1
    timeout: float | None = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    jitter: float = 0.25
    retry_budget: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError("retry_budget must be non-negative (or None)")

    @property
    def retries_enabled(self) -> bool:
        """Whether this policy ever re-dispatches a failed job."""
        return self.max_attempts > 1 and (
            self.retry_budget is None or self.retry_budget > 0
        )

    def backoff_delay(self, seed: int, attempt: int) -> float:
        """Deterministic backoff before re-running ``seed``'s ``attempt``.

        ``attempt`` is the attempt about to run (2 for the first retry).
        The jitter is drawn from a PRNG seeded by ``(seed, attempt)``, so
        the schedule depends only on the campaign's seed list — never on
        wall-clock or scheduling races.
        """
        if attempt < 2:
            return 0.0
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 2),
        )
        if self.jitter > 0.0:
            u = random.Random(f"repro-backoff:{seed}:{attempt}").random()
            delay *= 1.0 + self.jitter * u
        return delay


# ----------------------------------------------------------------------
# Crash-safe checkpoint journal
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckpointRecord:
    """One journaled completed unit (a replication seed or grid point)."""

    key: str
    index: int
    seed: int
    attempts: int
    elapsed: float
    value: object


class CheckpointJournal:
    """Crash-safe JSONL journal of completed campaign units.

    One line per completed unit::

        {"schema": "repro-checkpoint/1", "status": "ok",
         "key": "mu=17:seed=1011", "index": 3, "seed": 1011,
         "attempts": 1, "elapsed": 2.13, "payload": "<base64 pickle>"}

    Appends are a single ``os.write`` to an ``O_APPEND`` descriptor — a
    record is either fully on disk or absent, never torn across writers —
    and every record is fsynced, so a power cut costs at most the unit in
    flight.  Payloads are pickled and base64-wrapped, which is what
    makes resumed statistics *bit-identical*: the stored result object is
    spliced back, not recomputed.

    Failed units are journaled too (``status: "failed"``, no payload) for
    post-mortems, but :meth:`load` ignores them — a failed unit is re-run
    on resume.  A ``status: "config"`` line (see :meth:`record_config`)
    fingerprints the campaign configuration so a resume cannot silently
    mix determinism domains.  A truncated final line (crash mid-write) is
    tolerated and skipped; corruption anywhere else raises, because
    silently dropping a completed unit would change resumed statistics.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fd: int | None = None

    def _descriptor(self) -> int:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
            )
        return self._fd

    def record(
        self,
        key: str,
        index: int,
        seed: int,
        value: object,
        elapsed: float,
        attempts: int = 1,
    ) -> None:
        """Append one completed unit (atomic single write + fsync)."""
        payload = base64.b64encode(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        self._append(
            {
                "schema": CHECKPOINT_SCHEMA,
                "status": "ok",
                "key": key,
                "index": index,
                "seed": seed,
                "attempts": attempts,
                "elapsed": elapsed,
                "payload": payload,
            }
        )

    def record_failure(
        self, key: str, index: int, seed: int, error: str, attempts: int = 1
    ) -> None:
        """Append a failed unit for post-mortems (ignored by :meth:`load`)."""
        self._append(
            {
                "schema": CHECKPOINT_SCHEMA,
                "status": "failed",
                "key": key,
                "index": index,
                "seed": seed,
                "attempts": attempts,
                "error": error,
            }
        )

    def record_config(self, config: dict) -> None:
        """Append the campaign's configuration fingerprint.

        Journal keys are bare ``seed=N`` strings, so nothing in a payload
        says *how* a seed was run.  Resuming a heap campaign's journal in a
        columnar campaign would splice rows from two determinism domains
        into one "bit-identical" result.  The fingerprint (JSON-scalar
        values only: rng_mode, engine, horizon, base_seed, …) lets
        :meth:`ensure_config` refuse such a resume up front.  The CLI
        stamps ``rng_mode: "legacy"`` on every campaign, so a journal from
        a campaign run under the removed ``rng_mode="batched"`` draws
        refuses to resume too.
        """
        self._append(
            {
                "schema": CHECKPOINT_SCHEMA,
                "status": "config",
                "config": dict(config),
            }
        )

    def load_config(self) -> dict | None:
        """The journaled configuration fingerprint (last one wins), if any.

        Tolerates journals written before fingerprints existed (returns
        ``None``) — :meth:`load` likewise skips ``status: "config"`` lines,
        so old and new journals interoperate in both directions.
        """
        if not self.path.exists():
            return None
        config: dict | None = None
        lines = self.path.read_bytes().split(b"\n")
        for position, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if position >= len(lines) - 2:
                    continue  # torn final record, as in load()
                raise ValueError(
                    f"corrupt checkpoint record at {self.path}:{position + 1}"
                ) from None
            if record.get("status") == "config":
                config = record.get("config")
        return config

    def ensure_config(self, config: dict, resume: bool) -> None:
        """Record ``config`` on a fresh journal; verify it on a resumed one.

        Raises ``ValueError`` naming every mismatched key when a resume
        would mix determinism domains (e.g. a heap journal resumed by a
        columnar campaign).  A resumed journal without a fingerprint (pre-
        fingerprint campaigns) is accepted as-is and stamped for next time.
        """
        recorded = self.load_config() if resume else None
        if recorded is not None:
            mismatches = {
                key: (recorded.get(key), value)
                for key, value in config.items()
                if key in recorded and recorded[key] != value
            }
            if mismatches:
                details = ", ".join(
                    f"{key}: journal has {old!r}, campaign wants {new!r}"
                    for key, (old, new) in sorted(mismatches.items())
                )
                raise ValueError(
                    f"checkpoint journal {self.path} was written by an "
                    f"incompatible campaign ({details}); resuming would mix "
                    "determinism domains — rerun with the journaled "
                    "configuration or start a fresh checkpoint"
                )
            return
        self.record_config(config)

    def _append(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":")) + "\n"
        fd = self._descriptor()
        os.write(fd, line.encode("utf-8"))
        os.fsync(fd)

    def load(self) -> dict[str, CheckpointRecord]:
        """Completed units by key (later records win on duplicate keys)."""
        completed: dict[str, CheckpointRecord] = {}
        if not self.path.exists():
            return completed
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        for position, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if position >= len(lines) - 2:
                    # Torn final record from a crash mid-append: the unit
                    # simply re-runs on resume.
                    continue
                raise ValueError(
                    f"corrupt checkpoint record at {self.path}:{position + 1}"
                ) from None
            if record.get("schema") != CHECKPOINT_SCHEMA:
                raise ValueError(
                    f"unexpected checkpoint schema {record.get('schema')!r} "
                    f"in {self.path} (expected {CHECKPOINT_SCHEMA})"
                )
            if record.get("status") != "ok":
                continue
            completed[record["key"]] = CheckpointRecord(
                key=record["key"],
                index=int(record["index"]),
                seed=int(record["seed"]),
                attempts=int(record.get("attempts", 1)),
                elapsed=float(record.get("elapsed", 0.0)),
                value=pickle.loads(base64.b64decode(record["payload"])),
            )
        return completed

    def close(self) -> None:
        """Close the append descriptor (reopened lazily on the next write)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> CheckpointJournal:
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def as_journal(
    checkpoint: str | Path | CheckpointJournal | None,
) -> CheckpointJournal | None:
    """Coerce a checkpoint argument (path or journal) to a journal."""
    if checkpoint is None or isinstance(checkpoint, CheckpointJournal):
        return checkpoint
    return CheckpointJournal(checkpoint)


# ----------------------------------------------------------------------
# Declarative solver degradation
# ----------------------------------------------------------------------
class RungRejected(RuntimeError):
    """Raised by a rung that ran but does not trust its own answer.

    (e.g. an eigendecomposition whose reconstruction residual is too
    large, or an iteration that failed to contract within its budget).
    Semantically distinct from an unexpected exception, but both send the
    chain to the next rung.
    """


@dataclass(frozen=True)
class RungAttempt:
    """One rung's outcome while a chain was descending its ladder."""

    rung: str
    ok: bool
    error: str | None
    elapsed: float


@dataclass(frozen=True)
class SolveDiagnostics:
    """Which rung of a degradation chain answered, and what failed above it.

    Attached to solver results (spectral kernels, CTMC stationary solves,
    QBD solutions) so a sweep over a numerically hostile grid records
    *which* solver actually produced each number.
    """

    chain: str
    rung: str
    attempts: tuple[RungAttempt, ...]

    @property
    def fallback_depth(self) -> int:
        """How many rungs failed before the answering one (0 = first rung)."""
        return len(self.attempts) - 1

    @property
    def degraded(self) -> bool:
        """Whether anything above the answering rung failed."""
        return self.fallback_depth > 0

    def describe(self) -> str:
        """One line per attempted rung, winner last."""
        lines = [f"{self.chain}: answered by {self.rung!r}"]
        for attempt in self.attempts:
            status = "ok" if attempt.ok else f"failed ({attempt.error})"
            lines.append(f"  {attempt.rung:<14} {status} [{attempt.elapsed:.3g} s]")
        return "\n".join(lines)


class DegradationError(RuntimeError):
    """Every rung of a degradation chain failed."""

    def __init__(self, chain: str, attempts: Sequence[RungAttempt]):
        self.chain = chain
        self.attempts = tuple(attempts)
        lines = [f"all {len(self.attempts)} rung(s) of chain {chain!r} failed:"]
        for attempt in self.attempts:
            lines.append(f"  {attempt.rung}: {attempt.error}")
        super().__init__("\n".join(lines))


class DegradationChain:
    """A declarative ordered ladder of solver rungs.

    Parameters
    ----------
    name:
        Chain identity; appears in diagnostics and in chaos poison keys
        (``"<name>:<rung>"``).
    rungs:
        ``(rung_name, callable)`` pairs, most-preferred first.  A rung
        answers by returning; it abdicates by raising (``RungRejected``
        for "ran but untrusted", anything else for a genuine error).

    :meth:`run` walks the ladder, consults the chaos registry before each
    rung (so fault-injection tests can force any ladder position), and
    returns ``(value, SolveDiagnostics)``.  Exhausting the ladder raises
    :class:`DegradationError` carrying every rung's failure.
    """

    def __init__(self, name: str, rungs: Sequence[tuple[str, Callable[[], object]]]):
        if not rungs:
            raise ValueError("degradation chain needs at least one rung")
        names = [rung_name for rung_name, _ in rungs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rung names: {names}")
        self.name = name
        self.rungs = tuple(rungs)

    def run(self) -> tuple[object, SolveDiagnostics]:
        """Walk the ladder; return the first answer with its diagnostics."""
        attempts: list[RungAttempt] = []
        for rung_name, fn in self.rungs:
            started = time.perf_counter()
            try:
                chaos.raise_if_poisoned(self.name, rung_name)
                value = fn()
            except Exception as exc:  # noqa: BLE001 — each rung may fail its own way
                attempts.append(
                    RungAttempt(
                        rung=rung_name,
                        ok=False,
                        error=repr(exc),
                        elapsed=time.perf_counter() - started,
                    )
                )
                continue
            attempts.append(
                RungAttempt(
                    rung=rung_name,
                    ok=True,
                    error=None,
                    elapsed=time.perf_counter() - started,
                )
            )
            return value, SolveDiagnostics(
                chain=self.name, rung=rung_name, attempts=tuple(attempts)
            )
        raise DegradationError(self.name, attempts)
