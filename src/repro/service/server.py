"""The asyncio admission-control service: three tiers, conservative by design.

Answer path for an ``admit(n1, n2, delay_target)`` query:

1. **surface** — the query sits exactly on the precomputed grid: one list
   lookup, synchronous on the event loop (microseconds).
2. **interpolated** — the query lies inside the grid hull but off-grid: the
   conservative-corner bound (see :mod:`repro.service.surfaces`), still
   synchronous.  The bilinear estimate rides along for planning.  The
   batch verb answers each of its rows through these same two lookups.
3. **solve** — a true miss (outside the hull): a live solve dispatched to a
   reusable worker pool via ``run_in_executor`` under ``asyncio.wait_for``,
   so the event loop never blocks and no request outlives its deadline.
   The solve itself is a :class:`~repro.runtime.resilience.DegradationChain`
   (``admission-solve``) with one rung, the Solution-2 closed form: the
   paper's control-plane solver, milliseconds per miss.  (An exact QBD
   solve of a pinned mix takes seconds to minutes and, for an asymmetric
   mix, gigabytes — past any live deadline.)  A solve that times out,
   fails, or hits a poisoned rung (:mod:`repro.runtime.chaos`) degrades to
   tier **degraded**: a conservative *deny* (bandwidth queries answer
   ``inf`` — "do not commit").  The service may under-admit under faults;
   it never over-admits and never hangs.

Overload is a first-class operating mode, not an accident.  The only queue
that can grow without bound is the live-solve path (tiers 1/2 answer
synchronously in microseconds), so :class:`OverloadPolicy` bounds exactly
that: when ``max_inflight`` requests are already parked on the solver, or a
request's propagated deadline (``deadline_ms`` on the wire) cannot be met,
the service answers an immediate structured conservative deny with tier
**shed** instead of queueing.  Shedding trades an answer the client cannot
use (late) for one it can (an instant deny) — the service stays within its
latency contract under arbitrary miss pressure.  The TCP front end adds
per-connection read limits (an oversized request line answers a JSON error
and resyncs rather than killing the handler) and a max-connections cap.

The TCP front end (:func:`start_server`) speaks newline-delimited JSON —
one request object per line, one response object per line — the simplest
protocol a 1993-style ATM interface shim or a modern sidecar can speak.
Non-finite numbers (an unstable mix's solved delay, a link that cannot be
sized) go out as ``null``, so a strict RFC 8259 parser reads every line.
It returns an :class:`AdmissionServer`, which proxies the asyncio server
surface and adds :meth:`AdmissionServer.drain`: stop accepting, let every
busy handler finish its current answer, then close — the building block
for the sharded fleet's graceful SIGTERM drain and rolling restarts.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import count

import numpy as np

from repro.control.admission_table import _delay_for_population_mix
from repro.control.bandwidth import bandwidth_for_delay_target
from repro.runtime import chaos
from repro.runtime.resilience import DegradationChain, DegradationError
from repro.service.surfaces import DecisionSurfaces

__all__ = [
    "AdmissionServer",
    "AdmissionService",
    "BandwidthAnswer",
    "BatchDecision",
    "Decision",
    "MAX_BATCH_ROWS",
    "OverloadPolicy",
    "start_server",
]

#: Degradation-chain identity for the miss path; its one rung is
#: ``solution2``, so the chaos poison key is ``"admission-solve:solution2"``.
SOLVE_CHAIN = "admission-solve"

#: Largest row count one ``admit_batch`` request may carry — bounds the
#: memory a single protocol line can pin on the event loop.
MAX_BATCH_ROWS = 65_536


@dataclass(frozen=True)
class OverloadPolicy:
    """Explicit bounds the serving path enforces instead of best effort.

    Attributes
    ----------
    max_inflight:
        Most requests allowed to be simultaneously parked on the live-solve
        path (the only queue in the service that can grow — surface and
        interpolated answers are synchronous).  A request that would need a
        solve while the queue is full answers an immediate ``tier="shed"``
        conservative deny.  ``None`` leaves the queue unbounded.
    max_connections:
        Most concurrent client connections the front end will serve.  A
        connection beyond the cap is answered one structured error line and
        closed (counted under ``rejected``).  ``None`` = uncapped.
    max_line_bytes:
        Per-connection request-line byte cap.  An oversized frame answers a
        JSON error and the reader resyncs at the next newline instead of
        tearing the connection down (asyncio's own ``readline`` limit kills
        the handler with no reply).  The default fits a full
        ``MAX_BATCH_ROWS`` batch line with room to spare.
    """

    max_inflight: int | None = None
    max_connections: int | None = None
    max_line_bytes: int = 1 << 22

    def __post_init__(self) -> None:
        """Validate that every configured bound is positive."""
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1 (or None)")
        if self.max_connections is not None and self.max_connections < 1:
            raise ValueError("max_connections must be at least 1 (or None)")
        if self.max_line_bytes < 2:
            raise ValueError("max_line_bytes must fit at least one byte + newline")


@dataclass(frozen=True)
class Decision:
    """One admit/deny answer with its provenance.

    Attributes
    ----------
    admit:
        The decision.  Under degradation or shedding this is always
        ``False``.
    tier:
        ``"surface"`` | ``"interpolated"`` | ``"solve"`` | ``"degraded"``
        | ``"shed"``.
    max_n2:
        The boundary value the decision compared against (``None`` on the
        solve/degraded/shed tiers, which probe the queried point directly).
    estimate:
        Bilinear boundary estimate on the interpolated tier — planning
        data, never the decision; the solved mean delay on the solve tier
        (``inf`` for an unstable mix, sent as JSON ``null``).
    latency_s:
        Service-side decision latency in seconds.
    detail:
        Human-readable context (degradation reason, solver rung, ...).
    generation:
        The surface generation that answered (bumped by hot reloads); every
        row of a batch and every field of one answer comes from exactly
        this generation.
    """

    admit: bool
    tier: str
    max_n2: float | None
    estimate: float | None
    latency_s: float
    detail: str = ""
    generation: int = 0


@dataclass(frozen=True)
class BatchDecision:
    """One ``admit_batch`` answer: per-row arrays plus the batch latency.

    Row ``i`` carries exactly what the per-query :class:`Decision` for the
    same ``(n1, n2, delay_target)`` would — same tier, same admit bit,
    same bound — the batch verb is a transport, not a different decision
    procedure (locked by a differential test in ``tests/service``).  The
    whole batch answers from one surface ``generation``: the surfaces are
    captured once at entry and threaded through the miss solves, so a hot
    reload mid-batch never mixes generations within one answer.
    """

    admit: list[bool]
    tier: list[str]
    max_n2: list[float | None]
    estimate: list[float | None]
    latency_s: float
    generation: int = 0

    @property
    def rows(self) -> int:
        """Number of queries answered by the batch."""
        return len(self.admit)


@dataclass(frozen=True)
class BandwidthAnswer:
    """One bandwidth-for-delay-target answer.

    ``bandwidth`` is ``inf`` on the degraded and shed tiers: a service that
    cannot size a link refuses to commit capacity rather than
    under-provisioning.
    """

    bandwidth: float
    estimate: float | None
    tier: str
    latency_s: float
    detail: str = ""
    generation: int = 0


def _chaos_pause(request_index: int) -> None:
    """Honour the active chaos plan at the top of a solve (a hung solve).

    Sets the plan's context to this request index and sleeps the delay the
    plan injects for it, if any.
    """
    plan = chaos.active_plan()
    if plan is not None:
        chaos.set_context(request_index, 1)
        pause = plan.delay_for(request_index, 1)
        if pause > 0.0:
            time.sleep(pause)


def _solve_admit_miss(
    surfaces: DecisionSurfaces, n1: float, n2: float, request_index: int
):
    """Worker-pool body for a tier-3 admit: returns (delay, diagnostics).

    Runs in a pool thread, never on the event loop.  Chaos faults are
    honoured here: the active plan's injected delay for this request index
    is slept (a hung solve), and the degradation chain consults the
    poisoned-rung registry before each rung.
    """
    _chaos_pause(request_index)

    def solution2_rung() -> float:
        return _delay_for_population_mix(
            surfaces.params, (float(n1), float(n2)), surfaces.service_rate
        )

    return DegradationChain(SOLVE_CHAIN, [("solution2", solution2_rung)]).run()


def _solve_bandwidth_miss(
    surfaces: DecisionSurfaces, delay_target: float, request_index: int
):
    """Worker-pool body for a tier-3 bandwidth query."""
    _chaos_pause(request_index)

    def solution2_rung() -> float:
        return bandwidth_for_delay_target(surfaces.params, delay_target)

    return DegradationChain(SOLVE_CHAIN, [("solution2", solution2_rung)]).run()


def _lookup(surfaces: DecisionSurfaces, n1: float, delay_target: float):
    """Tiers 1 and 2: ``(tier, max_n2, estimate, detail)``, ``None`` on a miss.

    The exact grid point first, then the conservative corner — synchronous
    list reads that scalar admits and every batch row share.
    """
    bound = surfaces.grid_bound(n1, delay_target)
    if bound is not None:
        return "surface", bound, None, ""
    corner = surfaces.interpolated_bound(n1, delay_target)
    if corner is None:
        return None
    return (
        "interpolated",
        corner.max_n2,
        corner.estimate,
        "conservative corner bound",
    )


class AdmissionService:
    """Answers admit/deny and bandwidth queries against decision surfaces.

    Parameters
    ----------
    surfaces:
        The precomputed :class:`~repro.service.surfaces.DecisionSurfaces`
        (typically loaded from the boot artifact).
    solve_timeout:
        Deadline in seconds for a tier-3 live solve; an overdue solve
        degrades to a conservative deny.  The deadline bounds the *answer*,
        not the worker thread (a stuck thread keeps its pool slot until it
        returns — size ``solver_workers`` accordingly).
    solver_workers:
        Width of the reusable solve pool (threads; a solve's quadrature
        runs in numpy, which releases the GIL in its kernels, and no solve
        imports scipy).
    counters_mirror:
        Optional sink receiving every counter increment as
        ``mirror.add(name, k)`` — how a sharded worker publishes its
        per-tier counters into the fleet's shared-memory block without
        the hot path ever taking a cross-process lock.
    overload:
        The :class:`OverloadPolicy` in force; the default leaves every
        bound off except the request-line byte cap.
    """

    def __init__(
        self,
        surfaces: DecisionSurfaces,
        solve_timeout: float = 10.0,
        solver_workers: int = 1,
        counters_mirror=None,
        overload: OverloadPolicy | None = None,
    ):
        if solve_timeout <= 0:
            raise ValueError("solve_timeout must be positive")
        if solver_workers < 1:
            raise ValueError("solver_workers must be at least 1")
        self.surfaces = surfaces
        #: Surface generation the service is answering from; hot reloads
        #: bump it via :meth:`set_surfaces` and every answer reports it.
        self.generation = 0
        self.solve_timeout = float(solve_timeout)
        self.overload = overload if overload is not None else OverloadPolicy()
        self._pool = ThreadPoolExecutor(
            max_workers=solver_workers, thread_name_prefix="repro-solve"
        )
        self._request_index = count()
        self._mirror = counters_mirror
        #: Requests currently parked on the live-solve path — the bounded
        #: in-flight admission queue that :class:`OverloadPolicy` sheds on.
        self._solves_inflight = 0
        #: Fleet-wide counter view (set by the sharded worker); ``None``
        #: on a single-process service, where ``stats`` answers locally.
        self.fleet = None
        self.counters: dict[str, int] = {
            "surface": 0,
            "interpolated": 0,
            "solve": 0,
            "degraded": 0,
            "shed": 0,
            "rejected": 0,
            "denied": 0,
            "admitted": 0,
        }

    # ------------------------------------------------------------------
    # Decision paths
    # ------------------------------------------------------------------
    def _count(self, name: str, k: int = 1) -> None:
        self.counters[name] += k
        if self._mirror is not None:
            self._mirror.add(name, k)

    def _finish(self, decision: Decision) -> Decision:
        self._count(decision.tier)
        self._count("admitted" if decision.admit else "denied")
        return decision

    def set_surfaces(self, surfaces: DecisionSurfaces, generation: int) -> None:
        """Atomically swap in a new surface generation (hot reload).

        Runs synchronously on the event loop (no await points), and every
        decision method captures ``(surfaces, generation)`` once at entry,
        so no in-flight answer ever mixes generations.
        """
        self.surfaces = surfaces
        self.generation = int(generation)

    @staticmethod
    def _validate_admit_query(n1: float, n2: float, delay_target: float) -> None:
        for label, value in (("n1", n1), ("n2", n2)):
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{label} must be finite and non-negative")
        if not math.isfinite(delay_target) or delay_target <= 0:
            raise ValueError("delay_target must be finite and positive")

    def _shed_reason(self, deadline_s: float | None, started: float) -> str:
        """Why a solve-path request must shed right now ("" = proceed)."""
        limit = self.overload.max_inflight
        if limit is not None and self._solves_inflight >= limit:
            return (
                f"live-solve queue full ({self._solves_inflight} in flight, "
                f"max_inflight={limit}); conservative deny"
            )
        if deadline_s is not None:
            remaining = deadline_s - (time.perf_counter() - started)
            if remaining <= 0.0:
                return (
                    f"deadline ({deadline_s * 1e3:g}ms) exhausted before the "
                    "solve could start; conservative deny"
                )
        return ""

    def _solve_budget(self, deadline_s: float | None, started: float) -> float:
        """Remaining wall budget for a solve under the request deadline."""
        if deadline_s is None:
            return self.solve_timeout
        return min(
            self.solve_timeout, deadline_s - (time.perf_counter() - started)
        )

    async def admit(
        self,
        n1: float,
        n2: float,
        delay_target: float,
        deadline_s: float | None = None,
    ) -> Decision:
        """Admit or deny the mix ``(n1, n2)`` under ``delay_target``.

        ``deadline_s`` is the client-propagated answer deadline measured
        from now; it only governs the live-solve path (surface and
        interpolated answers cost microseconds and are always returned).
        A solve that cannot fit the remaining budget sheds conservatively.
        """
        started = time.perf_counter()
        self._validate_admit_query(n1, n2, delay_target)
        return await self._admit_with(
            self.surfaces,
            self.generation,
            float(n1),
            float(n2),
            float(delay_target),
            deadline_s,
            started,
        )

    async def _admit_with(
        self,
        surfaces: DecisionSurfaces,
        generation: int,
        n1: float,
        n2: float,
        delay_target: float,
        deadline_s: float | None,
        started: float,
    ) -> Decision:
        """The admit path against an explicit surface generation.

        ``admit`` and ``admit_batch`` capture ``(surfaces, generation)``
        exactly once and delegate here, so answers stay single-generation
        even when a hot reload lands while a miss solve is in flight.
        """
        answer = _lookup(surfaces, n1, delay_target)
        if answer is not None:
            tier, max_n2, estimate, detail = answer
            admit = n2 <= max_n2
        else:
            tier, estimate, detail = await self._live_solve(
                _solve_admit_miss,
                (surfaces, n1, n2),
                deadline_s,
                started,
                "conservative deny",
            )
            max_n2 = None
            admit = estimate is not None and estimate <= delay_target
        return self._finish(
            Decision(
                admit=admit,
                tier=tier,
                max_n2=max_n2,
                estimate=estimate,
                latency_s=time.perf_counter() - started,
                detail=detail,
                generation=generation,
            )
        )

    async def _live_solve(
        self,
        body,
        args: tuple,
        deadline_s: float | None,
        started: float,
        refusal: str,
    ) -> tuple[str, float | None, str]:
        """Tier 3: run ``body(*args, request_index)`` on the solve pool.

        Returns ``(tier, value, detail)``: ``"solve"`` with the body's
        answer, or ``"shed"``/``"degraded"`` with ``None``, which the caller
        answers conservatively; ``refusal`` names that answer in a degraded
        ``detail``.  The request index is taken only once the shed check
        passes, one per solve, because chaos plans key on it.
        """
        shed = self._shed_reason(deadline_s, started)
        if shed:
            return "shed", None, shed
        index = next(self._request_index)
        loop = asyncio.get_running_loop()
        self._solves_inflight += 1
        try:
            value, diagnostics = await asyncio.wait_for(
                loop.run_in_executor(self._pool, body, *args, index),
                timeout=self._solve_budget(deadline_s, started),
            )
        except asyncio.TimeoutError:
            return (
                "degraded",
                None,
                f"solve exceeded {self.solve_timeout:g}s deadline; {refusal}",
            )
        except (DegradationError, Exception) as error:  # noqa: BLE001
            return "degraded", None, f"solve failed ({error!r}); {refusal}"
        finally:
            self._solves_inflight -= 1
        return "solve", value, f"live solve answered by rung {diagnostics.rung!r}"

    async def admit_batch(
        self, n1, n2, delay_target, deadline_s: float | None = None
    ) -> BatchDecision:
        """Answer many admit queries in one call, each row as ``admit`` would.

        Every row is validated before any is answered.  Surface and
        interpolated rows answer through the same lookups as a single
        query, with their counters added once per counter name for the
        whole batch; only true misses reach the solver pool (concurrently,
        via the per-query admit path so deadlines, degradation, shedding,
        and chaos faults behave exactly as they do for single queries).
        The surfaces are captured once at entry: every row answers from the
        same generation.
        """
        started = time.perf_counter()
        surfaces = self.surfaces
        generation = self.generation
        n1 = np.asarray(n1, dtype=float)
        n2 = np.asarray(n2, dtype=float)
        delay_target = np.asarray(delay_target, dtype=float)
        if not (n1.ndim == n2.ndim == delay_target.ndim == 1):
            raise ValueError("batch queries must be 1-D arrays")
        if not (n1.shape == n2.shape == delay_target.shape):
            raise ValueError("n1, n2, delay_target must have equal lengths")
        rows = int(n1.shape[0])
        if rows > MAX_BATCH_ROWS:
            raise ValueError(
                f"batch carries {rows} rows; the protocol limit is "
                f"{MAX_BATCH_ROWS}"
            )
        for label, values in (("n1", n1), ("n2", n2)):
            if not bool(np.all(np.isfinite(values) & (values >= 0))):
                raise ValueError(f"{label} must be finite and non-negative")
        if not bool(np.all(np.isfinite(delay_target) & (delay_target > 0))):
            raise ValueError("delay_target must be finite and positive")

        queries = list(zip(n1.tolist(), n2.tolist(), delay_target.tolist()))
        admit: list[bool] = [False] * rows
        tier: list[str] = [""] * rows
        max_n2: list[float | None] = [None] * rows
        estimate: list[float | None] = [None] * rows
        misses: list[int] = []
        for row, (row_n1, row_n2, row_delay) in enumerate(queries):
            answer = _lookup(surfaces, row_n1, row_delay)
            if answer is None:
                misses.append(row)
                continue
            tier[row], max_n2[row], estimate[row], _ = answer
            admit[row] = row_n2 <= max_n2[row]
        # One counter write per name for the whole batch: a shard mirrors
        # every write into the fleet's shared counter row.
        admitted = admit.count(True)
        for name, k in (
            ("surface", tier.count("surface")),
            ("interpolated", tier.count("interpolated")),
            ("admitted", admitted),
            ("denied", rows - len(misses) - admitted),
        ):
            if k:
                self._count(name, k)

        if misses:
            decisions = await asyncio.gather(
                *(
                    self._admit_with(
                        surfaces,
                        generation,
                        *queries[row],
                        deadline_s,
                        started,
                    )
                    for row in misses
                )
            )
            for row, decision in zip(misses, decisions):
                admit[row] = decision.admit
                tier[row] = decision.tier
                max_n2[row] = decision.max_n2
                estimate[row] = decision.estimate

        return BatchDecision(
            admit=admit,
            tier=tier,
            max_n2=max_n2,
            estimate=estimate,
            latency_s=time.perf_counter() - started,
            generation=generation,
        )

    async def bandwidth(
        self, delay_target: float, deadline_s: float | None = None
    ) -> BandwidthAnswer:
        """Minimum bandwidth meeting ``delay_target`` (``inf`` = refused)."""
        started = time.perf_counter()
        surfaces = self.surfaces
        generation = self.generation
        if not math.isfinite(delay_target) or delay_target <= 0:
            raise ValueError("delay_target must be finite and positive")
        delay_target = float(delay_target)

        answer = surfaces.bandwidth_bound(delay_target)
        if answer is not None:
            bandwidth, estimate, exact = answer
            tier = "surface" if exact else "interpolated"
            detail = ""
        else:
            tier, estimate, detail = await self._live_solve(
                _solve_bandwidth_miss,
                (surfaces, delay_target),
                deadline_s,
                started,
                "refusing to size the link",
            )
            bandwidth = math.inf if estimate is None else estimate
        self._count(tier)
        return BandwidthAnswer(
            bandwidth=bandwidth,
            estimate=estimate,
            tier=tier,
            latency_s=time.perf_counter() - started,
            detail=detail,
            generation=generation,
        )

    def stats(self) -> dict[str, int]:
        """A snapshot of the per-tier and admit/deny counters."""
        return dict(self.counters)

    def close(self) -> None:
        """Shut the solve pool down (pending solves are abandoned)."""
        self._pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "AdmissionService":
        """Context-manager entry (returns the service)."""
        return self

    def __exit__(self, *_exc) -> None:
        """Context-manager exit: close the solve pool."""
        self.close()


# ----------------------------------------------------------------------
# TCP front end (newline-delimited JSON)
# ----------------------------------------------------------------------
class _LineTooLong(Exception):
    """An incoming request frame exceeded the per-line byte cap."""

    def __init__(self, limit: int):
        super().__init__(
            f"request line exceeds the {limit}-byte limit; frame discarded"
        )
        self.limit = limit


class _LineReader:
    """Newline framing over ``StreamReader.read`` with an explicit byte cap.

    asyncio's own ``readline()`` raises on overrun *and clears its buffer*,
    so the stream can never resync to the next frame — the connection dies
    with no reply.  This reader raises :class:`_LineTooLong` exactly once
    per oversized frame, discards through the frame's terminating newline,
    and keeps the connection usable for the next request.
    """

    _CHUNK = 1 << 16

    def __init__(self, reader: asyncio.StreamReader, limit: int):
        self._reader = reader
        self._limit = int(limit)
        self._buffer = bytearray()
        self._discarding = False

    async def readline(self) -> bytes:
        """The next newline-terminated frame (``b""`` at EOF).

        Raises :class:`_LineTooLong` when a frame exceeds the cap; calling
        again resumes at the frame after the oversized one.
        """
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[: newline + 1])
                del self._buffer[: newline + 1]
                if self._discarding:
                    # Tail of a frame already reported oversized: drop it
                    # silently and parse the next frame.
                    self._discarding = False
                    continue
                if len(line) > self._limit:
                    raise _LineTooLong(self._limit)
                return line
            if self._discarding:
                self._buffer.clear()
            elif len(self._buffer) > self._limit:
                self._discarding = True
                self._buffer.clear()
                raise _LineTooLong(self._limit)
            chunk = await self._reader.read(self._CHUNK)
            if not chunk:
                return b""
            self._buffer.extend(chunk)


class _Connection:
    """Drain bookkeeping for one live client connection.

    ``busy`` is flipped around request processing with *no await points*
    between a frame becoming available and the flag being set — so a drain
    pass observing ``busy=False`` knows the handler is parked waiting for
    bytes and can close the connection without losing an answer.
    """

    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.busy = False


class AdmissionServer:
    """The bound TCP front end plus its overload and drain machinery.

    Wraps the underlying :class:`asyncio.Server` and proxies its surface
    (``sockets``, ``close``, ``wait_closed``, ``serve_forever``, async
    context manager) so existing call sites keep working, while owning the
    connection registry that overload capping and :meth:`drain` need.
    """

    def __init__(self, service: AdmissionService):
        self.service = service
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()

    async def _start(self, host: str, port: int, reuse_port: bool) -> None:
        """Bind the listening socket and start accepting."""
        self._server = await asyncio.start_server(
            self._handle, host=host, port=port, reuse_port=reuse_port or None
        )

    # -- asyncio.Server proxy ------------------------------------------
    @property
    def sockets(self):
        """The listening sockets (``sockets[0].getsockname()`` = address)."""
        return self._server.sockets

    def is_serving(self) -> bool:
        """Whether the server is currently accepting connections."""
        return self._server.is_serving()

    def close(self) -> None:
        """Stop accepting new connections (in-flight handlers continue)."""
        self._server.close()

    async def wait_closed(self) -> None:
        """Wait until the listening socket is fully closed."""
        await self._server.wait_closed()

    async def serve_forever(self) -> None:
        """Accept connections until cancelled or :meth:`close` is called."""
        await self._server.serve_forever()

    async def __aenter__(self) -> "AdmissionServer":
        """Async-context entry (returns the server)."""
        return self

    async def __aexit__(self, *_exc) -> None:
        """Async-context exit: close and wait for the listener."""
        self.close()
        await self.wait_closed()

    # -- overload / drain ----------------------------------------------
    @property
    def connections(self) -> int:
        """Number of currently-open client connections."""
        return len(self._connections)

    async def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: refuse new work, finish all in-flight work.

        Stops accepting, immediately closes idle connections (their
        handlers are parked waiting for bytes — no answer is pending), and
        waits up to ``timeout`` seconds for every busy handler to write its
        current answer and notice the drain.  Returns ``True`` when every
        connection closed cleanly within the budget; on timeout the
        stragglers are force-closed and ``False`` is returned.
        """
        self._draining = True
        self._server.close()
        for conn in list(self._connections):
            if not conn.busy:
                conn.writer.close()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            clean = True
        except asyncio.TimeoutError:
            clean = False
            for conn in list(self._connections):
                conn.writer.close()
        await self._server.wait_closed()
        return clean

    async def _refuse(self, writer: asyncio.StreamWriter, error: str) -> None:
        """Answer one structured error line and close the connection."""
        try:
            writer.write(
                json.dumps({"ok": False, "error": error, "shed": True}).encode()
                + b"\n"
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: a request line in, a response line out."""
        service = self.service
        policy = service.overload
        if self._draining:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            return
        cap = policy.max_connections
        if cap is not None and len(self._connections) >= cap:
            service._count("rejected")
            await self._refuse(
                writer, f"connection limit ({cap}) reached; retry later"
            )
            return
        conn = _Connection(writer)
        self._connections.add(conn)
        self._idle.clear()
        lines = _LineReader(reader, policy.max_line_bytes)
        try:
            while True:
                try:
                    line = await lines.readline()
                except _LineTooLong as error:
                    response = {"ok": False, "error": str(error)}
                else:
                    if not line:
                        break
                    conn.busy = True
                    try:
                        request = json.loads(line)
                        if not isinstance(request, dict):
                            raise ValueError("request must be a JSON object")
                        response = await _handle_request(service, request)
                    except Exception as error:  # noqa: BLE001 — protocol errors answer, not kill
                        response = {"ok": False, "error": str(error)}
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
                conn.busy = False
                if self._draining:
                    break
        except (ConnectionError, OSError):
            # The peer vanished mid-read or mid-write (or a drain closed an
            # idle connection under us); nothing left to answer.
            pass
        finally:
            self._connections.discard(conn)
            if not self._connections:
                self._idle.set()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Server shutdown cancels handlers mid-close; the connection
                # is going away either way, so end the task cleanly.
                pass


def _finite(value: float | None) -> float | None:
    """``value``, or ``None`` (JSON ``null``) when it is not a finite number."""
    return value if value is None or math.isfinite(value) else None


def _decision_payload(decision: Decision) -> dict:
    return {
        "ok": True,
        "admit": decision.admit,
        "tier": decision.tier,
        "max_n2": decision.max_n2,
        "estimate": _finite(decision.estimate),
        "latency_us": round(decision.latency_s * 1e6, 1),
        "detail": decision.detail,
        "gen": decision.generation,
    }


def _bandwidth_payload(answer: BandwidthAnswer) -> dict:
    return {
        "ok": True,
        "bandwidth": _finite(answer.bandwidth),
        "estimate": _finite(answer.estimate),
        "tier": answer.tier,
        "latency_us": round(answer.latency_s * 1e6, 1),
        "detail": answer.detail,
        "gen": answer.generation,
    }


def _batch_payload(batch: BatchDecision) -> dict:
    return {
        "ok": True,
        "rows": batch.rows,
        "admit": batch.admit,
        "tier": batch.tier,
        "max_n2": batch.max_n2,
        "estimate": [_finite(value) for value in batch.estimate],
        "latency_us": round(batch.latency_s * 1e6, 1),
        "gen": batch.generation,
    }


def _stats_payload(service: AdmissionService, request: dict) -> dict:
    """Local counters, or the fleet-wide sum when asked for (and sharded)."""
    if request.get("scope") == "fleet" and service.fleet is not None:
        return {
            "ok": True,
            "stats": service.fleet.totals(),
            "scope": "fleet",
            "shards": service.fleet.shards,
            "per_shard": service.fleet.per_shard(),
            "gen": service.generation,
        }
    return {
        "ok": True,
        "stats": service.stats(),
        "scope": "shard",
        "shards": 1,
        "gen": service.generation,
    }


def _deadline_seconds(request: dict) -> float | None:
    """The request's propagated deadline in seconds, if it carries one."""
    deadline_ms = request.get("deadline_ms")
    if deadline_ms is None:
        return None
    deadline_ms = float(deadline_ms)
    if not math.isfinite(deadline_ms):
        raise ValueError("deadline_ms must be finite")
    return deadline_ms / 1e3


async def _handle_request(service: AdmissionService, request: dict) -> dict:
    op = request.get("op")
    if op == "admit":
        decision = await service.admit(
            float(request["n1"]),
            float(request["n2"]),
            float(request["delay_target"]),
            deadline_s=_deadline_seconds(request),
        )
        return _decision_payload(decision)
    if op == "admit_batch":
        batch = await service.admit_batch(
            request["n1"],
            request["n2"],
            request["delay_target"],
            deadline_s=_deadline_seconds(request),
        )
        return _batch_payload(batch)
    if op == "bandwidth":
        answer = await service.bandwidth(
            float(request["delay_target"]), deadline_s=_deadline_seconds(request)
        )
        return _bandwidth_payload(answer)
    if op == "stats":
        return _stats_payload(service, request)
    if op == "ping":
        return {"ok": True, "pong": True}
    raise ValueError(f"unknown op {op!r}")


async def start_server(
    service: AdmissionService,
    host: str = "127.0.0.1",
    port: int = 0,
    reuse_port: bool = False,
) -> AdmissionServer:
    """Bind the TCP front end; ``port=0`` picks an ephemeral port.

    ``reuse_port=True`` binds with ``SO_REUSEPORT`` so several processes
    can listen on the same address and let the kernel load-balance
    accepted connections across them — the sharded fleet's front end
    (:mod:`repro.service.sharded`).

    Returns an :class:`AdmissionServer` already accepting connections; the
    bound address is ``server.sockets[0].getsockname()`` and graceful
    shutdown is :meth:`AdmissionServer.drain`.
    """
    server = AdmissionServer(service)
    await server._start(host, port, reuse_port)
    return server
