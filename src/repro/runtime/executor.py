"""The process-pool replication executor.

Execution model
---------------
A *campaign* is ``run_one(seed)`` evaluated over a deterministic seed list.
:func:`derive_seeds` reproduces the legacy serial loop's seeds
(``base_seed + k``), jobs are dispatched to a
:class:`concurrent.futures.ProcessPoolExecutor` in chunks, and outcomes are
re-assembled in replication order — so for the same seeds a parallel
campaign returns *bit-identical* statistics to the serial one (each
replication builds its own :class:`~repro.sim.random_streams.RandomStreams`
from its seed; nothing is shared across replications).

Failure semantics
-----------------
A replication that raises is captured as a :class:`ReplicationFailure`
(seed, error, full traceback) and excluded from the statistics; it never
kills the campaign.  That contract now extends past in-job exceptions to
the runtime itself:

* A **worker killed by the OS** (OOM, segfault, ``os._exit``) breaks the
  whole process pool; the executor respawns the pool, and the jobs that
  were in flight are either retried (seed-preserving, when a
  :class:`~repro.runtime.resilience.RetryPolicy` allows) or recorded as
  ``"worker died"`` failures — the campaign continues either way.
* A **hung job** is bounded by the policy's per-job wall-clock ``timeout``
  (pool path only; an in-process job cannot be interrupted): the worker is
  killed, the pool respawned, the job retried or recorded as a timeout
  failure, and in-flight bystanders are re-dispatched free of charge.
* **Retries** re-run the *same seed* after a deterministic exponential
  backoff, bounded per job by ``max_attempts`` and campaign-wide by
  ``retry_budget`` — so a retried replication contributes exactly the
  result a fault-free run would have, and final statistics stay
  bit-identical.
* A :class:`~repro.runtime.resilience.CheckpointJournal` (``journal=`` /
  ``resume=``) records every completed unit; resuming splices journaled
  results back by key, restarting an interrupted campaign from the last
  completed seed.

Callers that want the legacy fail-fast behaviour call
:meth:`CampaignResult.raise_if_failed`.

Fallbacks
---------
``max_workers=1`` runs in-process with the exact same bookkeeping (minus
timeouts), and an unpicklable ``run_one`` (e.g. a test lambda) degrades to
the serial path instead of crashing inside the pool — the results are
identical either way, only the wall-clock differs.  When parallelism was
*explicitly* requested (``max_workers > 1``) the downgrade emits a
:class:`RuntimeWarning` so slow campaigns stay diagnosable.
"""

from __future__ import annotations

import math
import os
import pickle
import time
import traceback
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.runtime import chaos
from repro.runtime.resilience import CheckpointJournal, RetryPolicy, as_journal
from repro.sim.replication import ReplicationSummary

__all__ = [
    "CampaignResult",
    "ParallelReplicator",
    "ReplicationError",
    "ReplicationFailure",
    "default_worker_count",
    "derive_seeds",
]

#: Scalar statistics summarized by default — the legacy ``replicate`` set.
SUMMARY_FIELDS = ("mean_delay", "sigma", "utilization", "mean_queue_length")

#: Poll ceiling (seconds) for the dispatch loop when it cannot block
#: indefinitely (a per-job timeout to enforce or a backoff to wake for).
_POLL_SECONDS = 0.05


def default_worker_count(limit: int | None = None) -> int:
    """Worker count for ``max_workers=None``: the usable CPU count.

    ``limit`` caps the answer (e.g. the number of jobs — spawning more
    workers than jobs only burns fork time).
    """
    count = os.cpu_count() or 1
    if limit is not None:
        count = min(count, max(1, limit))
    return max(1, count)


def derive_seeds(num_replications: int, base_seed: int = 0) -> tuple[int, ...]:
    """The campaign's seed list: ``base_seed + k`` for each replication.

    This is exactly how the legacy serial ``replicate`` derived seeds, and
    it is the anchor of the determinism guarantee: parallel and serial
    campaigns evaluate the *same* seed list, and results are keyed by
    replication index, so summaries match bit for bit.
    """
    if num_replications < 1:
        raise ValueError("need at least one replication")
    return tuple(base_seed + k for k in range(num_replications))


@dataclass(frozen=True)
class ReplicationFailure:
    """One replication that raised instead of returning a result.

    Attributes
    ----------
    index:
        Replication index within the campaign (0-based).
    seed:
        The seed the failed replication ran with.
    error:
        ``repr`` of the exception (or a runtime verdict such as
        ``"worker died"`` / a timeout message).
    traceback:
        The worker-side formatted traceback, for post-mortems across the
        process boundary.
    attempts:
        How many times the job ran (``> 1`` when retries were spent on it).
    """

    index: int
    seed: int
    error: str
    traceback: str
    attempts: int = 1


class ReplicationError(RuntimeError):
    """Raised by :meth:`CampaignResult.raise_if_failed` when any seed died."""

    def __init__(self, failures: Sequence[ReplicationFailure]):
        self.failures = tuple(failures)
        lines = [f"{len(self.failures)} replication(s) failed:"]
        for failure in self.failures:
            lines.append(f"  seed {failure.seed}: {failure.error}")
            lines.append(failure.traceback.rstrip())
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class CampaignResult:
    """Everything a replication campaign produced.

    Attributes
    ----------
    results:
        Successful per-replication results, ordered by replication index
        (*not* completion order — that is what keeps parallel runs
        bit-identical to serial ones).
    seeds:
        Seed of each successful result, aligned with ``results``.
    failures:
        Captured :class:`ReplicationFailure` records, ordered by index.
    skipped_seeds:
        Seeds never dispatched because the wall-clock budget ran out.
    wall_clock:
        Campaign wall-clock seconds (dispatch to last collected result).
    busy_time:
        Summed per-replication execution seconds — across workers this
        exceeds ``wall_clock`` when parallelism is paying off.  Includes
        the journaled execution seconds of resumed units.
    max_workers:
        Worker processes used (1 = in-process serial path).
    retried_seeds:
        Seeds that needed more than one attempt (fault recovery at work).
    resumed:
        Units spliced in from a checkpoint journal instead of re-run.
    """

    results: tuple
    seeds: tuple[int, ...]
    failures: tuple[ReplicationFailure, ...]
    skipped_seeds: tuple[int, ...]
    wall_clock: float
    busy_time: float
    max_workers: int
    retried_seeds: tuple[int, ...] = ()
    resumed: int = 0

    @property
    def completed(self) -> int:
        """Number of replications that returned a result."""
        return len(self.results)

    @property
    def requested(self) -> int:
        """Replications asked for (completed + failed + skipped)."""
        return len(self.results) + len(self.failures) + len(self.skipped_seeds)

    @property
    def events_processed(self) -> int:
        """Simulator events fired across all successful replications."""
        return int(
            sum(getattr(result, "events_processed", 0) for result in self.results)
        )

    @property
    def events_per_second(self) -> float:
        """Aggregate simulation throughput: events / campaign wall-clock.

        0.0 when the campaign consumed no wall-clock time (every unit
        failed instantly, or everything was spliced from a checkpoint) —
        a measured "no throughput", never a division error or NaN that
        poisons downstream aggregation.
        """
        if self.wall_clock <= 0.0:
            return 0.0
        return self.events_processed / self.wall_clock

    def raise_if_failed(self) -> None:
        """Re-raise captured failures as one :class:`ReplicationError`."""
        if self.failures:
            raise ReplicationError(self.failures)

    def summaries(
        self, fields: Sequence[str] = SUMMARY_FIELDS
    ) -> dict[str, ReplicationSummary]:
        """Across-replication summaries of the named scalar attributes."""
        return {
            name: ReplicationSummary(
                tuple(float(getattr(result, name)) for result in self.results)
            )
            for name in fields
        }

    def describe(self) -> str:
        """One line of progress/timing stats for logs and benchmarks."""
        rate = self.events_per_second
        rate_text = f"{rate:,.0f} events/s" if not math.isnan(rate) else "n/a"
        parts = [
            f"{self.completed}/{self.requested} replications",
            f"{self.max_workers} worker(s)",
            f"{self.wall_clock:.2f} s wall",
            f"{self.busy_time:.2f} s busy",
            rate_text,
        ]
        if self.failures:
            parts.append(f"{len(self.failures)} failed")
        if self.skipped_seeds:
            parts.append(f"{len(self.skipped_seeds)} skipped (budget)")
        if self.retried_seeds:
            parts.append(f"{len(self.retried_seeds)} retried")
        if self.resumed:
            parts.append(f"{self.resumed} resumed (checkpoint)")
        return ", ".join(parts)


@dataclass(frozen=True)
class _Job:
    """One unit of dispatch: run ``task(seed)`` as replication ``index``.

    ``key`` identifies the unit in a checkpoint journal; empty means
    ``"seed=<seed>"`` (unique within one campaign because seeds are).
    """

    index: int
    seed: int
    task: Callable
    key: str = ""


def _job_key(job: _Job) -> str:
    return job.key or f"seed={job.seed}"


@dataclass(frozen=True)
class _Outcome:
    """What came back for one job (crosses the process boundary, so it
    carries strings rather than exception objects)."""

    index: int
    seed: int
    value: object
    error: str | None
    traceback: str | None
    elapsed: float
    attempts: int = 1
    from_checkpoint: bool = False


def _execute_job(job: _Job, attempt: int = 1) -> _Outcome:
    """Worker-side wrapper: run one job, capturing any exception.

    Publishes the ``(seed, attempt)`` context to :mod:`repro.runtime.chaos`
    first, which is what makes injected faults (and anything else keyed by
    attempt) deterministic.
    """
    started = time.perf_counter()
    chaos.set_context(job.seed, attempt)
    try:
        value = job.task(job.seed)
    except Exception as exc:  # noqa: BLE001 — failures must not kill the pool
        return _Outcome(
            index=job.index,
            seed=job.seed,
            value=None,
            error=repr(exc),
            traceback=traceback.format_exc(),
            elapsed=time.perf_counter() - started,
            attempts=attempt,
        )
    finally:
        chaos.set_context(None, 1)
    return _Outcome(
        index=job.index,
        seed=job.seed,
        value=value,
        error=None,
        traceback=None,
        elapsed=time.perf_counter() - started,
        attempts=attempt,
    )


def _is_picklable(value) -> bool:
    """Whether ``value`` can cross a process boundary."""
    try:
        pickle.dumps(value)
    except Exception:  # noqa: BLE001 — any pickling error means "no"
        return False
    return True


def _chunked(jobs: Sequence[_Job], size: int):
    """Yield ``jobs`` in dispatch chunks of ``size``."""
    for start in range(0, len(jobs), size):
        yield jobs[start : start + size]


@dataclass
class _Flight:
    """Parent-side bookkeeping for one in-flight pool job."""

    job: _Job
    attempt: int
    running_since: float | None = None


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers and reap it (used for hung/broken pools)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 — already-dead workers are fine
            pass
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:  # noqa: BLE001 — a broken pool may object; it is gone either way
        pass


def _splice_checkpointed(
    jobs: list[_Job], journal: CheckpointJournal | None, resume: bool
) -> tuple[list[_Outcome], list[_Job]]:
    """Split ``jobs`` into journaled outcomes and still-to-run jobs."""
    if journal is None or not resume:
        return [], jobs
    completed = journal.load()
    restored: list[_Outcome] = []
    remaining: list[_Job] = []
    for job in jobs:
        record = completed.get(_job_key(job))
        if record is None:
            remaining.append(job)
            continue
        restored.append(
            _Outcome(
                index=job.index,
                seed=job.seed,
                value=record.value,
                error=None,
                traceback=None,
                elapsed=record.elapsed,
                attempts=record.attempts,
                from_checkpoint=True,
            )
        )
    return restored, remaining


def run_jobs(
    jobs: Sequence[_Job],
    max_workers: int | None = None,
    chunk_size: int | None = None,
    wall_clock_budget: float | None = None,
    policy: RetryPolicy | None = None,
    journal: CheckpointJournal | str | None = None,
    resume: bool = False,
) -> tuple[list[_Outcome], list[_Job], float, int]:
    """Run jobs over a process pool (or in-process) with chunked dispatch.

    The engine behind both :class:`ParallelReplicator` and
    :func:`~repro.runtime.sweep.sweep`.  Returns ``(outcomes, skipped,
    wall_clock, workers_used)`` where ``skipped`` are jobs never dispatched
    because ``wall_clock_budget`` (seconds) was exhausted.

    The pool is kept saturated: enough chunks are submitted up front to
    keep roughly two jobs per worker in flight, results are collected as
    they complete, and further chunks are submitted as slots free up — so
    even a campaign of ``n <= workers`` jobs fans out fully.  The budget is
    checked before each chunk submission; a dispatched job always runs to
    completion, so a budget never truncates an individual replication.

    ``policy`` (a :class:`~repro.runtime.resilience.RetryPolicy`) adds
    per-job timeouts and seed-preserving retries; ``journal``/``resume``
    add crash-safe checkpointing — see the module docstring for the
    failure-semantics contract.  Retries are charged work: once dispatched
    they run even after the wall-clock budget expires (the budget governs
    *new* chunk dispatch only).
    """
    jobs = list(jobs)
    if not jobs:
        return [], [], 0.0, 1
    policy = policy if policy is not None else RetryPolicy()
    journal = as_journal(journal)

    started = time.perf_counter()
    outcomes, remaining = _splice_checkpointed(jobs, journal, resume)
    if not remaining:
        return outcomes, [], time.perf_counter() - started, 1

    workers = (
        default_worker_count(limit=len(remaining))
        if max_workers is None
        else max(1, int(max_workers))
    )
    if workers > 1 and not all(_is_picklable(job) for job in remaining):
        if max_workers is not None:
            warnings.warn(
                f"max_workers={max_workers} requested but the task is not "
                "picklable; running serially in-process (results are "
                "identical, only slower)",
                RuntimeWarning,
                stacklevel=3,
            )
        workers = 1  # unpicklable task: degrade to the identical serial path
    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(remaining) / max(1, 2 * workers)))
    chunk_size = max(1, int(chunk_size))

    skipped: list[_Job] = []
    retry_budget_left = policy.retry_budget  # None = unlimited

    def over_budget() -> bool:
        return (
            wall_clock_budget is not None
            and time.perf_counter() - started >= wall_clock_budget
        )

    def can_retry(attempts_used: int) -> bool:
        if attempts_used >= policy.max_attempts:
            return False
        return retry_budget_left is None or retry_budget_left > 0

    def charge_retry() -> None:
        nonlocal retry_budget_left
        if retry_budget_left is not None:
            retry_budget_left -= 1

    def finalize(outcome: _Outcome, job: _Job) -> None:
        outcomes.append(outcome)
        if journal is not None:
            if outcome.error is None:
                journal.record(
                    key=_job_key(job),
                    index=job.index,
                    seed=job.seed,
                    value=outcome.value,
                    elapsed=outcome.elapsed,
                    attempts=outcome.attempts,
                )
            else:
                journal.record_failure(
                    key=_job_key(job),
                    index=job.index,
                    seed=job.seed,
                    error=outcome.error,
                    attempts=outcome.attempts,
                )

    if workers == 1:
        for chunk in _chunked(remaining, chunk_size):
            if over_budget():
                skipped.extend(chunk)
                continue
            for job in chunk:
                attempt = 1
                while True:
                    outcome = _execute_job(job, attempt)
                    if outcome.error is None or not can_retry(attempt):
                        finalize(outcome, job)
                        break
                    charge_retry()
                    attempt += 1
                    pause = policy.backoff_delay(job.seed, attempt)
                    if pause > 0.0:
                        time.sleep(pause)
        return outcomes, skipped, time.perf_counter() - started, workers

    chunks = list(_chunked(remaining, chunk_size))
    position = 0
    retry_queue: list[tuple[float, _Job, int]] = []  # (not_before, job, attempt)
    in_flight: dict = {}  # future -> _Flight
    pool = ProcessPoolExecutor(max_workers=workers)

    def respawn() -> None:
        nonlocal pool
        _kill_pool(pool)
        pool = ProcessPoolExecutor(max_workers=workers)

    def submit(job: _Job, attempt: int) -> None:
        try:
            future = pool.submit(_execute_job, job, attempt)
        except BrokenProcessPool:
            respawn()
            future = pool.submit(_execute_job, job, attempt)
        in_flight[future] = _Flight(job=job, attempt=attempt)

    def queue_retry(job: _Job, attempts_used: int, charged: bool) -> None:
        # ``charged`` retries consumed an attempt (real failures); free
        # requeues (innocent bystanders of a pool kill) re-run unchanged.
        next_attempt = attempts_used + 1 if charged else attempts_used
        if charged:
            charge_retry()
        not_before = started_retry = time.perf_counter()
        if charged:
            not_before = started_retry + policy.backoff_delay(
                job.seed, next_attempt
            )
        retry_queue.append((not_before, job, next_attempt))

    def worker_death(flight: _Flight) -> None:
        if policy.retries_enabled and can_retry(flight.attempt):
            queue_retry(flight.job, flight.attempt, charged=True)
            return
        finalize(
            _Outcome(
                index=flight.job.index,
                seed=flight.job.seed,
                value=None,
                error="worker died (process pool crashed mid-job)",
                traceback=(
                    "worker process terminated without returning a result "
                    "(BrokenProcessPool); no worker-side traceback exists\n"
                ),
                elapsed=0.0,
                attempts=flight.attempt,
            ),
            flight.job,
        )

    def top_up() -> None:
        # Keep ~2 jobs per worker in flight: no worker idles at a chunk
        # boundary, while later chunks stay unsubmitted (and therefore
        # skippable) when the budget runs out.  Due retries dispatch first:
        # they are already-charged work and immune to the budget.
        nonlocal position
        now = time.perf_counter()
        waiting: list[tuple[float, _Job, int]] = []
        for not_before, job, attempt in retry_queue:
            if not_before <= now and len(in_flight) < 2 * workers:
                submit(job, attempt)
            else:
                waiting.append((not_before, job, attempt))
        retry_queue[:] = waiting
        while position < len(chunks) and len(in_flight) < 2 * workers:
            if over_budget():
                break
            for job in chunks[position]:
                submit(job, 1)
            position += 1

    try:
        top_up()
        while in_flight or retry_queue:
            if not in_flight:
                # Only backoff timers left: sleep to the earliest and retry.
                pause = min(entry[0] for entry in retry_queue) - time.perf_counter()
                if pause > 0.0:
                    time.sleep(pause)
                top_up()
                continue
            poll = None
            if policy.timeout is not None:
                poll = min(_POLL_SECONDS, policy.timeout / 4.0)
            elif retry_queue:
                poll = _POLL_SECONDS
            done, _ = wait(in_flight, timeout=poll, return_when=FIRST_COMPLETED)

            pool_broken = False
            casualties: list[_Flight] = []
            for future in done:
                flight = in_flight.pop(future)
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    casualties.append(flight)
                    continue
                except Exception as exc:  # noqa: BLE001 — parent-side dispatch error
                    outcome = _Outcome(
                        index=flight.job.index,
                        seed=flight.job.seed,
                        value=None,
                        error=repr(exc),
                        traceback=traceback.format_exc(),
                        elapsed=0.0,
                        attempts=flight.attempt,
                    )
                if outcome.error is not None and can_retry(flight.attempt):
                    queue_retry(flight.job, flight.attempt, charged=True)
                else:
                    finalize(outcome, flight.job)

            if pool_broken:
                # Every other in-flight future is doomed with the pool; a
                # crashed worker costs the affected jobs one attempt each,
                # never the campaign.
                casualties.extend(in_flight.values())
                in_flight.clear()
                respawn()
                for flight in casualties:
                    worker_death(flight)

            if policy.timeout is not None and in_flight:
                now = time.perf_counter()
                for future, flight in in_flight.items():
                    if flight.running_since is None and future.running():
                        flight.running_since = now
                overdue = [
                    future
                    for future, flight in in_flight.items()
                    if flight.running_since is not None
                    and now - flight.running_since >= policy.timeout
                ]
                if overdue:
                    # A hung worker cannot be interrupted per-job: kill the
                    # pool, respawn, charge the overdue jobs, and re-dispatch
                    # the innocent bystanders free of charge.
                    victims = [in_flight[future] for future in overdue]
                    bystanders = [
                        flight
                        for future, flight in in_flight.items()
                        if future not in set(overdue)
                    ]
                    in_flight.clear()
                    respawn()
                    for flight in victims:
                        if can_retry(flight.attempt):
                            queue_retry(flight.job, flight.attempt, charged=True)
                        else:
                            finalize(
                                _Outcome(
                                    index=flight.job.index,
                                    seed=flight.job.seed,
                                    value=None,
                                    error=(
                                        "TimeoutError: job exceeded the "
                                        f"{policy.timeout:g} s wall-clock "
                                        "timeout"
                                    ),
                                    traceback=(
                                        "job killed after exceeding its "
                                        "per-job timeout; no worker-side "
                                        "traceback exists\n"
                                    ),
                                    elapsed=policy.timeout,
                                    attempts=flight.attempt,
                                ),
                                flight.job,
                            )
                    for flight in bystanders:
                        queue_retry(flight.job, flight.attempt, charged=False)
            top_up()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)

    for late_chunk in chunks[position:]:
        skipped.extend(late_chunk)
    return outcomes, skipped, time.perf_counter() - started, workers


def _campaign_result(
    outcomes: list[_Outcome],
    skipped: list[_Job],
    wall_clock: float,
    workers: int,
    result_of: Callable[[_Outcome], object] = lambda outcome: outcome.value,
) -> CampaignResult:
    """Fold :func:`run_jobs` output into a :class:`CampaignResult`.

    Outcomes are re-assembled in replication order; ``result_of`` maps a
    successful outcome to the record ``results`` holds.
    """
    outcomes = sorted(outcomes, key=lambda outcome: outcome.index)
    successes = [o for o in outcomes if o.error is None]
    failures = tuple(
        ReplicationFailure(
            index=o.index,
            seed=o.seed,
            error=o.error,
            traceback=o.traceback,
            attempts=o.attempts,
        )
        for o in outcomes
        if o.error is not None
    )
    return CampaignResult(
        results=tuple(result_of(o) for o in successes),
        seeds=tuple(o.seed for o in successes),
        failures=failures,
        skipped_seeds=tuple(job.seed for job in skipped),
        wall_clock=wall_clock,
        busy_time=sum(o.elapsed for o in outcomes),
        max_workers=workers,
        retried_seeds=tuple(
            sorted({o.seed for o in outcomes if o.attempts > 1})
        ),
        resumed=sum(1 for o in outcomes if o.from_checkpoint),
    )


class ParallelReplicator:
    """Fan ``run_one(seed)`` out over worker processes, deterministically.

    Parameters
    ----------
    max_workers:
        Worker processes; ``None`` uses the machine's CPU count (capped at
        the number of jobs), ``1`` forces the in-process serial path.
    chunk_size:
        Jobs dispatched per chunk; ``None`` picks ``ceil(n / 2·workers)``.
        Smaller chunks give a wall-clock budget finer granularity at
        slightly higher dispatch overhead.
    policy:
        Optional :class:`~repro.runtime.resilience.RetryPolicy` adding
        per-job timeouts and seed-preserving retries.
    checkpoint:
        Optional journal path (or
        :class:`~repro.runtime.resilience.CheckpointJournal`) recording
        every completed replication.
    resume:
        With ``checkpoint``, splice already-journaled replications back in
        instead of re-running them — final statistics are bit-identical to
        an uninterrupted run.
    engine:
        ``"heap"`` (default) ships each replication's pickled
        :class:`~repro.sim.replication.SimulationResult` back through the
        pool.  ``"columnar"`` and ``"columnar-batched"`` are two names for
        one path: ``run_one(seed)`` returns a columnar result
        (:mod:`repro.sim.columnar`), and each worker sends back only its
        row of scalars
        (:func:`~repro.runtime.columnar.run_columnar_campaign`) — same
        seeds, per-seed failure, retry and checkpoint semantics, and
        ``CampaignResult`` contract, with compact per-replication records.

    Examples
    --------
    ``ParallelReplicator(max_workers=4).run(task, 8, base_seed=3)`` runs
    seeds 3..10 and returns summaries bit-identical to
    ``ParallelReplicator(max_workers=1).run(task, 8, base_seed=3)``.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        chunk_size: int | None = None,
        policy: RetryPolicy | None = None,
        checkpoint: CheckpointJournal | str | None = None,
        resume: bool = False,
        engine: str = "heap",
    ):
        if engine not in ("heap", "columnar", "columnar-batched"):
            raise ValueError(
                "engine must be 'heap', 'columnar', or 'columnar-batched' "
                f"(got {engine!r})"
            )
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.policy = policy
        self.checkpoint = checkpoint
        self.resume = resume
        self.engine = engine

    def run(
        self,
        run_one: Callable,
        num_replications: int,
        base_seed: int = 0,
        wall_clock_budget: float | None = None,
    ) -> CampaignResult:
        """Run the campaign and collect a :class:`CampaignResult`.

        ``run_one`` must be picklable (a module-level function or a
        :func:`functools.partial` over one) for the pool to be used;
        otherwise the campaign runs serially with identical results and a
        :class:`RuntimeWarning` is emitted when ``max_workers > 1`` was
        explicitly requested.
        """
        if self.engine != "heap":
            # Imported lazily: runtime.columnar imports this module.
            from repro.runtime.columnar import run_columnar_campaign

            return run_columnar_campaign(
                run_one,
                num_replications,
                base_seed=base_seed,
                max_workers=self.max_workers,
                chunk_size=self.chunk_size,
                wall_clock_budget=wall_clock_budget,
                policy=self.policy,
                checkpoint=self.checkpoint,
                resume=self.resume,
            )
        seeds = derive_seeds(num_replications, base_seed)
        jobs = [
            _Job(index=k, seed=seed, task=run_one) for k, seed in enumerate(seeds)
        ]
        outcomes, skipped, wall_clock, workers = run_jobs(
            jobs,
            max_workers=self.max_workers,
            chunk_size=self.chunk_size,
            wall_clock_budget=wall_clock_budget,
            policy=self.policy,
            journal=self.checkpoint,
            resume=self.resume,
        )
        return _campaign_result(outcomes, skipped, wall_clock, workers)
