"""Multi-core admission serving: an SO_REUSEPORT fleet of shard processes.

The single-process :class:`~repro.service.server.AdmissionService` is
GIL-capped: one event loop answers every cached lookup, so decisions/sec
plateaus no matter how many cores the host has.  This module scales the
same service horizontally with three pieces:

* **SO_REUSEPORT accept sharding** — every shard process binds its *own*
  listening socket on the *same* ``(host, port)`` with ``SO_REUSEPORT``;
  the kernel hashes incoming connections across the listening sockets, so
  no userspace proxy or accept lock sits on the hot path.  The supervisor
  holds the port with a bound-but-never-listening placeholder socket
  (non-listening sockets receive no connections), which both reserves an
  ephemeral ``port=0`` pick and keeps the address stable while shards die
  and respawn around it.

* **One surface artifact** — the supervisor hands every shard the
  versioned JSON artifact text (:meth:`DecisionSurfaces.to_json`), and the
  shard decodes it with :meth:`DecisionSurfaces.from_json`: the same
  decoder and stale-schema refusal that
  :func:`~repro.service.surfaces.load_surfaces` applies to a file, at boot,
  respawn, restart and hot reload alike.

* **Shared fleet counters** — per-tier counters live in one int64
  shared-memory table, one row per shard (single writer per row, no
  locks).  Any shard can answer ``{"op": "stats", "scope": "fleet"}`` by
  summing rows, so aggregate observability does not require asking every
  shard.

The supervisor monitors its workers and respawns crashed shards using the
campaign :class:`~repro.runtime.resilience.RetryPolicy` machinery — the
same deterministic backoff schedule, attempt cap, and fleet-wide retry
budget that bound worst-case work under repeated faults in campaign runs.
While a shard is down the survivors keep answering (the kernel only
balances across *live* listening sockets); the conservative-deny
contract is per-process and therefore unaffected by fleet membership.

Shards die gracefully as well as violently.  Each shard installs a
SIGTERM handler that drains its server — stop accepting, answer every
in-flight request, then exit 0 — and the monitor treats exit code 0 as
intentional (no respawn), so :meth:`ShardFleet.drain_shard` /
:meth:`ShardFleet.rolling_restart` can cycle the fleet one shard at a
time without ever losing an accepted request or all capacity at once.
A per-shard control pipe carries hot surface reloads: the supervisor
sends the new artifact text, every shard decodes it (schema-refused on
mismatch, exactly like a file) and flips its service atomically between
requests, and the supervisor adopts the new generation only once every
shard has acked.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import secrets
import signal
import socket
import threading
import time
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.runtime import chaos
from repro.runtime.resilience import RetryPolicy
from repro.service.server import AdmissionService, OverloadPolicy, start_server
from repro.service.surfaces import DecisionSurfaces

__all__ = [
    "COUNTER_FIELDS",
    "FleetCounters",
    "ShardConfig",
    "ShardFleet",
]

#: Counter table columns, in storage order (must cover every key the
#: service increments — :attr:`AdmissionService.counters`).
COUNTER_FIELDS = (
    "surface",
    "interpolated",
    "solve",
    "degraded",
    "denied",
    "admitted",
    "shed",
    "rejected",
)

_FIELD_INDEX = {name: column for column, name in enumerate(COUNTER_FIELDS)}

#: Default respawn schedule for crashed shards: a few fast retries with
#: the campaign backoff curve, budgeted fleet-wide so a crash-looping
#: shard cannot spin the supervisor forever.
DEFAULT_RESPAWN_POLICY = RetryPolicy(
    max_attempts=5,
    backoff_base=0.05,
    backoff_factor=2.0,
    backoff_max=2.0,
    jitter=0.0,
    retry_budget=16,
)


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach without registering in the resource tracker (3.13+).

    The publishing supervisor owns unlinking; a shard that also
    registered the segment would race it at interpreter exit and spew
    spurious resource-tracker warnings.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover — Python < 3.13
        return shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# Shared fleet counters
# ----------------------------------------------------------------------
class _CounterMirror:
    """Single-writer counter sink for one shard's row of the fleet table."""

    def __init__(self, row: np.ndarray):
        self._row = row

    def add(self, name: str, k: int = 1) -> None:
        column = _FIELD_INDEX.get(name)
        if column is not None:
            self._row[column] += k


class _FleetView:
    """Read side of the counter table, exposed as ``service.fleet``."""

    def __init__(self, table: np.ndarray, shard_index: int):
        self._table = table
        self.shard_index = shard_index

    @property
    def shards(self) -> int:
        return int(self._table.shape[0])

    def totals(self) -> dict[str, int]:
        """Fleet-wide per-tier counters (sum over shard rows)."""
        sums = self._table.sum(axis=0)
        return {name: int(sums[i]) for i, name in enumerate(COUNTER_FIELDS)}

    def per_shard(self) -> list[dict[str, int]]:
        """One counter dict per shard row, in shard order."""
        return [
            {name: int(row[i]) for i, name in enumerate(COUNTER_FIELDS)}
            for row in self._table
        ]


class FleetCounters:
    """The shards x counters int64 table in shared memory.

    Each shard writes only its own row (no cross-process locks on the
    decision path); readers may observe a row mid-increment, which skews
    a snapshot by at most the in-flight requests — fine for stats.
    """

    def __init__(self, shm: shared_memory.SharedMemory, shards: int, owner: bool):
        self._shm = shm
        self.shards = shards
        self._owner = owner
        self.table = np.ndarray(
            (shards, len(COUNTER_FIELDS)), dtype=np.int64, buffer=shm.buf
        )
        if owner:
            self.table[:] = 0

    @classmethod
    def publish(cls, shards: int) -> "FleetCounters":
        shm = shared_memory.SharedMemory(
            create=True,
            size=shards * len(COUNTER_FIELDS) * 8,
            name=f"repro-fleet-{secrets.token_hex(4)}",
        )
        return cls(shm, shards, owner=True)

    @classmethod
    def attach(cls, name: str, shards: int) -> "FleetCounters":
        return cls(_attach(name), shards, owner=False)

    @property
    def name(self) -> str:
        """The shared-memory block name shards attach by."""
        return self._shm.name

    def mirror(self, shard_index: int) -> _CounterMirror:
        """The single-writer increment handle for one shard's row."""
        return _CounterMirror(self.table[shard_index])

    def view(self, shard_index: int) -> _FleetView:
        """A read-only aggregation view anchored at one shard."""
        return _FleetView(self.table, shard_index)

    def totals(self) -> dict[str, int]:
        """Counter totals summed across every shard's row."""
        return self.view(0).totals()

    def close(self) -> None:
        """Release the mapping; the publishing owner also unlinks it."""
        self.table = None
        try:
            self._shm.close()
            if self._owner:
                self._shm.unlink()
        except (FileNotFoundError, BufferError):  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Shard worker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardConfig:
    """Everything a spawned shard needs, picklable for the spawn context.

    ``artifact`` is the surfaces' JSON artifact text and ``generation`` the
    reload generation it belongs to (0 is the boot artifact).  ``control``
    is the shard's end of a duplex :func:`multiprocessing.Pipe`
    (connections pickle across ``spawn`` via fd passing); the supervisor
    sends hot-reload messages down it and reads the acks back.
    """

    shard_index: int
    shards: int
    host: str
    port: int
    artifact: str
    generation: int
    counters_name: str
    solve_timeout: float = 10.0
    solver_workers: int = 1
    chaos_plan: object | None = None
    overload: OverloadPolicy | None = None
    control: object | None = None
    drain_grace: float = 30.0


def _handle_control(service: AdmissionService, control, message) -> None:
    """Service one supervisor control message inside the shard.

    ``("reload", artifact, generation)`` decodes the new artifact text
    (refusing a stale schema or a malformed grid exactly like boot does)
    and flips the service atomically between requests; the ack —
    ``("ok", generation)`` or ``("error", reason)`` — goes back up the
    pipe.
    """
    kind = message[0]
    if kind == "reload":
        _, artifact, generation = message
        try:
            surfaces = DecisionSurfaces.from_json(artifact)
        except ValueError as error:
            control.send(("error", str(error)))
            return
        service.set_surfaces(surfaces, generation)
        control.send(("ok", generation))
    else:
        control.send(("error", f"unknown control verb {kind!r}"))


async def _shard_serve(
    service: AdmissionService, config: ShardConfig, ready
) -> None:
    """One shard's serve loop: accept until SIGTERM, then drain and exit.

    SIGTERM (what :meth:`ShardFleet.drain_shard` and ``process.terminate``
    send) triggers :meth:`~repro.service.server.AdmissionServer.drain`:
    the listener closes, every in-flight request is answered, then the
    loop exits cleanly — the process leaves with exit code 0, which the
    fleet monitor reads as "intentional, do not respawn".  The control
    pipe (hot reloads) is serviced on the event loop via ``add_reader``.
    """
    server = await start_server(
        service, host=config.host, port=config.port, reuse_port=True
    )
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    async def drain_and_exit() -> None:
        await server.drain(config.drain_grace)
        stop.set()

    def on_sigterm() -> None:
        asyncio.ensure_future(drain_and_exit())

    loop.add_signal_handler(signal.SIGTERM, on_sigterm)

    control = config.control

    def on_control() -> None:
        try:
            while control.poll():
                _handle_control(service, control, control.recv())
        except (EOFError, OSError):
            # The supervisor closed its end (respawn or shutdown).
            loop.remove_reader(control.fileno())

    if control is not None:
        loop.add_reader(control.fileno(), on_control)
    # Signal readiness only once the SIGTERM handler is installed: the
    # supervisor may legitimately drain a shard the instant it reports
    # ready, and a SIGTERM landing before the handler exists would kill
    # the process on the default disposition (exit -15, read as a crash).
    ready.set()
    try:
        await stop.wait()
    finally:
        if control is not None:
            try:
                loop.remove_reader(control.fileno())
            except (OSError, ValueError):  # pragma: no cover — fd already gone
                pass
        loop.remove_signal_handler(signal.SIGTERM)
        server.close()
        await server.wait_closed()


def _shard_main(config: ShardConfig, ready) -> None:
    """Entry point of one shard process (module-level for spawn pickling)."""
    if config.chaos_plan is not None:
        chaos.activate(config.chaos_plan)
    surfaces = DecisionSurfaces.from_json(config.artifact)
    counters = FleetCounters.attach(config.counters_name, config.shards)
    service = AdmissionService(
        surfaces,
        solve_timeout=config.solve_timeout,
        solver_workers=config.solver_workers,
        counters_mirror=counters.mirror(config.shard_index),
        overload=config.overload,
    )
    service.generation = config.generation
    service.fleet = counters.view(config.shard_index)
    try:
        asyncio.run(_shard_serve(service, config, ready))
    except KeyboardInterrupt:  # pragma: no cover — operator ^C
        pass
    finally:
        service.close()


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
@dataclass
class _ShardSlot:
    process: multiprocessing.process.BaseProcess
    ready: object
    control: object | None = None
    attempts: int = 1
    respawns: int = 0
    #: Intentionally down or being cycled — the monitor must not respawn.
    parked: bool = False


class ShardFleet:
    """Supervisor for ``shards`` SO_REUSEPORT worker processes.

    Use as a context manager::

        with ShardFleet(surfaces, shards=4) as fleet:
            host, port = fleet.address
            ...  # point any number of clients at (host, port)

    The supervisor thread respawns crashed shards on the
    :class:`~repro.runtime.resilience.RetryPolicy` backoff schedule
    (deterministic per ``(shard_index, attempt)``); when a shard exhausts
    its attempts or the fleet-wide retry budget runs dry it stays down
    and the survivors carry the traffic.
    """

    def __init__(
        self,
        surfaces: DecisionSurfaces,
        shards: int,
        host: str = "127.0.0.1",
        port: int = 0,
        solve_timeout: float = 10.0,
        solver_workers: int = 1,
        chaos_plan=None,
        respawn_policy: RetryPolicy = DEFAULT_RESPAWN_POLICY,
        overload: OverloadPolicy | None = None,
        drain_grace: float = 30.0,
    ):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if drain_grace <= 0:
            raise ValueError("drain_grace must be positive")
        if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover — linux CI
            raise OSError("SO_REUSEPORT is not available on this platform")
        self.shards = shards
        self.host = host
        self._requested_port = port
        self.solve_timeout = float(solve_timeout)
        self.solver_workers = int(solver_workers)
        self.chaos_plan = chaos_plan
        self.respawn_policy = respawn_policy
        self.overload = overload
        self.drain_grace = float(drain_grace)
        #: The artifact text every shard boots from and its generation,
        #: always replaced together so a respawn racing a reload boots one
        #: generation's grids under that same generation's number.
        self._artifact: tuple[str, int] = (surfaces.to_json(), 0)
        self.counters: FleetCounters | None = None
        self._reservation: socket.socket | None = None
        self._slots: list[_ShardSlot] = []
        self._ctx = multiprocessing.get_context("spawn")
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self._retries_spent = 0
        self.port: int | None = None

    # -- lifecycle -----------------------------------------------------
    def _reserve_port(self) -> int:
        """Bind (never listen) a SO_REUSEPORT socket to hold the address."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.host, self._requested_port))
        self._reservation = sock
        return sock.getsockname()[1]

    def _config(self, shard_index: int, control) -> ShardConfig:
        artifact, generation = self._artifact
        return ShardConfig(
            shard_index=shard_index,
            shards=self.shards,
            host=self.host,
            port=self.port,
            artifact=artifact,
            generation=generation,
            counters_name=self.counters.name,
            solve_timeout=self.solve_timeout,
            solver_workers=self.solver_workers,
            chaos_plan=self.chaos_plan,
            overload=self.overload,
            control=control,
            drain_grace=self.drain_grace,
        )

    def _spawn(self, shard_index: int) -> tuple:
        ready = self._ctx.Event()
        parent_end, child_end = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_main,
            args=(self._config(shard_index, child_end), ready),
            name=f"repro-shard-{shard_index}",
            daemon=True,
        )
        process.start()
        child_end.close()  # the shard holds the only live copy now
        return process, ready, parent_end

    def start(self, ready_timeout: float = 30.0) -> "ShardFleet":
        """Publish the counters, spawn every shard, wait until all listen."""
        if self._slots:
            raise RuntimeError("fleet already started")
        self.port = self._reserve_port()
        self.counters = FleetCounters.publish(self.shards)
        try:
            for index in range(self.shards):
                process, ready, control = self._spawn(index)
                self._slots.append(
                    _ShardSlot(process=process, ready=ready, control=control)
                )
            deadline = time.monotonic() + ready_timeout
            for index, slot in enumerate(self._slots):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not slot.ready.wait(remaining):
                    raise TimeoutError(
                        f"shard {index} did not start listening within "
                        f"{ready_timeout:g}s"
                    )
        except BaseException:
            self.stop()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-fleet-monitor", daemon=True
        )
        self._monitor.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The fleet's shared listening address."""
        if self.port is None:
            raise RuntimeError("fleet is not started")
        return self.host, self.port

    def pids(self) -> list[int | None]:
        """Live shard PIDs in shard order (``None`` for a dead slot)."""
        return [
            slot.process.pid if slot.process.is_alive() else None
            for slot in self._slots
        ]

    def alive(self) -> int:
        """How many shards are currently listening-or-starting."""
        return sum(1 for slot in self._slots if slot.process.is_alive())

    # -- fault handling ------------------------------------------------
    def kill_shard(self, shard_index: int) -> int:
        """SIGKILL one shard (chaos harness hook); returns the old pid."""
        process = self._slots[shard_index].process
        pid = process.pid
        if pid is not None and process.is_alive():
            os.kill(pid, signal.SIGKILL)
            process.join(timeout=10.0)
        return pid

    def _monitor_loop(self) -> None:
        policy = self.respawn_policy
        while not self._stop.wait(0.05):
            for index, slot in enumerate(self._slots):
                if slot.parked or slot.process.is_alive() or self._stop.is_set():
                    continue
                if slot.process.exitcode == 0:
                    # A clean exit is a graceful drain, not a crash: the
                    # shard answered everything it accepted and left on
                    # purpose.  Park the slot; restart_shard() revives it.
                    slot.parked = True
                    continue
                next_attempt = slot.attempts + 1
                if next_attempt > policy.max_attempts:
                    continue  # shard exhausted its attempts; stays down
                if (
                    policy.retry_budget is not None
                    and self._retries_spent >= policy.retry_budget
                ):
                    continue  # fleet-wide budget dry
                delay = policy.backoff_delay(index, next_attempt)
                if delay > 0.0 and self._stop.wait(delay):
                    return
                if self._stop.is_set():
                    return
                slot.process.join(timeout=0.1)
                if slot.control is not None:
                    slot.control.close()
                process, ready, control = self._spawn(index)
                slot.process = process
                slot.ready = ready
                slot.control = control
                slot.attempts = next_attempt
                slot.respawns += 1
                self._retries_spent += 1

    def respawns(self) -> int:
        """Total successful respawn dispatches since start."""
        return sum(slot.respawns for slot in self._slots)

    # -- graceful drain / rolling restart ------------------------------
    def drain_shard(self, shard_index: int, timeout: float = 30.0) -> bool:
        """Gracefully drain one shard: SIGTERM, wait for its clean exit.

        The shard stops accepting, answers every request it had in flight,
        and exits 0; the slot is parked so the monitor never respawns it
        (use :meth:`restart_shard` to revive it).  Survivor shards keep
        answering throughout — the kernel only balances connections across
        live listeners.  Returns ``True`` when the shard exited cleanly
        within ``timeout``.
        """
        slot = self._slots[shard_index]
        slot.parked = True
        process = slot.process
        if process.is_alive():
            process.terminate()  # SIGTERM → in-shard drain handler
            process.join(timeout)
        return (not process.is_alive()) and process.exitcode == 0

    def restart_shard(self, shard_index: int, ready_timeout: float = 30.0) -> None:
        """Spawn a fresh process into a parked/dead slot; wait until it listens.

        The replacement boots from the *current* artifact and generation (a
        drain + restart after a hot reload comes back on the new surfaces) and
        its attempt counter resets — a deliberate restart is not a crash.
        """
        slot = self._slots[shard_index]
        if slot.process.is_alive():
            raise RuntimeError(
                f"shard {shard_index} is still running; drain it first"
            )
        if slot.control is not None:
            slot.control.close()
        process, ready, control = self._spawn(shard_index)
        slot.process = process
        slot.ready = ready
        slot.control = control
        slot.attempts = 1
        if not ready.wait(ready_timeout):
            raise TimeoutError(
                f"restarted shard {shard_index} did not start listening "
                f"within {ready_timeout:g}s"
            )
        slot.parked = False

    def rolling_restart(
        self, drain_timeout: float = 30.0, ready_timeout: float = 30.0
    ) -> int:
        """Drain and replace every shard, one at a time.

        At most one shard is down at any moment, so an ``shards >= 2``
        fleet keeps answering throughout — the availability property the
        chaos drain scenario and the rolling-restart bench assert.
        Returns the number of shards cycled; raises on the first shard
        that fails to drain cleanly or to come back listening.
        """
        cycled = 0
        for index in range(self.shards):
            if not self.drain_shard(index, timeout=drain_timeout):
                raise RuntimeError(
                    f"shard {index} did not drain cleanly within "
                    f"{drain_timeout:g}s; aborting rolling restart"
                )
            self.restart_shard(index, ready_timeout=ready_timeout)
            cycled += 1
        return cycled

    # -- hot surface reload --------------------------------------------
    def reload_surfaces(
        self, surfaces: DecisionSurfaces, timeout: float = 30.0
    ) -> int:
        """Send a new surface generation to every shard and flip the fleet.

        Every live shard decodes the new artifact text (schema-refused on
        a mismatch and malformed-refused on a broken grid, exactly like
        boot) and swaps its service atomically between requests; once
        *all* shards ack, the supervisor adopts the artifact, so later
        respawns and restarts boot on it.  On any refusal or timeout the
        fleet stays on the old generation (decoding is deterministic, so a
        refusal is unanimous — no shard flips).  Returns the new
        generation number.
        """
        artifact, generation = surfaces.to_json(), self.generation + 1
        self._broadcast_reload(artifact, generation, timeout)
        self._artifact = (artifact, generation)
        return generation

    def _broadcast_reload(
        self, artifact: str, generation: int, timeout: float
    ) -> None:
        """Send one reload to every live shard and collect every ack."""
        deadline = time.monotonic() + timeout
        live = [
            (index, slot)
            for index, slot in enumerate(self._slots)
            if slot.process.is_alive() and slot.control is not None
        ]
        for _, slot in live:
            slot.control.send(("reload", artifact, generation))
        refusals = []
        for index, slot in live:
            remaining = max(deadline - time.monotonic(), 0.0)
            if not slot.control.poll(remaining):
                raise TimeoutError(
                    f"shard {index} did not ack the surface reload within "
                    f"{timeout:g}s"
                )
            answer = slot.control.recv()
            if answer[0] != "ok" or answer[1] != generation:
                refusals.append(f"shard {index}: {answer[1]}")
        if refusals:
            raise RuntimeError("surface reload refused: " + "; ".join(refusals))

    @property
    def generation(self) -> int:
        """The surface generation the fleet is currently serving."""
        return self._artifact[1]

    def stop(self) -> None:
        """Terminate every shard and release all shared state."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
            self._monitor = None
        for slot in self._slots:
            if slot.process.is_alive():
                slot.process.terminate()
        for slot in self._slots:
            slot.process.join(timeout=10.0)
            if slot.process.is_alive():  # pragma: no cover — stuck worker
                slot.process.kill()
                slot.process.join(timeout=5.0)
            if slot.control is not None:
                slot.control.close()
        self._slots = []
        if self.counters is not None:
            self.counters.close()
            self.counters = None
        if self._reservation is not None:
            self._reservation.close()
            self._reservation = None

    def __enter__(self) -> "ShardFleet":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
