"""Traffic sources for the simulator.

The star is :class:`HAPSource`, a faithful event-driven implementation of the
paper's hierarchy: user instances arrive and depart; while present they
invoke application instances (which outlive them); while alive an application
emits messages.  The other sources are the baselines the paper (or its cited
literature) compares against:

* :class:`PoissonSource` — the classical model every figure is plotted
  against.
* :class:`MMPPSource` — an arbitrary finite MMPP (used both for the
  "conventional 2-state MMPP" baseline and to cross-check the HAP-to-MMPP
  mapping by simulation).
* :class:`OnOffSource` — an interrupted Poisson process; the paper notes the
  on–off model is a 2-level HAP with one message type.
* :class:`PacketTrainSource` — Jain & Routhier's packet-train model
  (reference [13]).
* :class:`ClientServerHAPSource` — HAP-CS with request/response chains.

Every source takes an ``emit`` callback (wired to
:meth:`repro.sim.server.FCFSQueue.arrive` by the drivers) so sources and
queues compose freely.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.client_server import ClientServerHAPParameters
from repro.core.params import HAPParameters
from repro.markov.ctmc import sample_embedded_jump
from repro.markov.mmpp import MMPP
from repro.sim.engine import Event, Simulator
from repro.sim.monitors import TimeWeightedValue, TraceRecorder
from repro.sim.server import Message

__all__ = [
    "ClientServerHAPSource",
    "HAPSource",
    "MMPPSource",
    "OnOffSource",
    "PacketTrainSource",
    "PoissonSource",
]

EmitFn = Callable[[Message], None]


class PoissonSource:
    """Poisson arrivals at a fixed rate."""

    def __init__(
        self,
        sim: Simulator,
        rate: float,
        rng: np.random.Generator,
        emit: EmitFn,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.rate = rate
        self.rng = rng
        self.emit = emit
        self.messages_emitted = 0
        self._mean_gap = 1.0 / rate
        self._draw = rng.exponential  # mean -> Python float variate
        self._arrive_action = self._arrive  # bind once, reuse every event

    def start(self) -> None:
        """Schedule the first arrival."""
        self.sim.schedule(self._draw(self._mean_gap), self._arrive_action)

    def _arrive(self, sim: Simulator) -> None:
        self.messages_emitted += 1
        self.emit(Message(sim.now))
        sim.schedule(self._draw(self._mean_gap), self._arrive_action)


class _UserInstance:
    """One live user: departure callback + pending invocation slots.

    The instance *is* the departure event's action (``__call__``), and
    ``pending[i]`` holds the single in-flight invocation event for
    application type ``i`` — at most one exists per (user, type) at any
    moment, so fixed slots replace the legacy grow-and-prune event list.
    """

    __slots__ = ("source", "alive", "pending")

    def __init__(self, source: "HAPSource", num_app_types: int) -> None:
        self.source = source
        self.alive = True
        self.pending: list[Event | None] = [None] * num_app_types

    def __call__(self, sim: Simulator) -> None:
        """Depart: cancel pending invocations, decrement the population."""
        self.alive = False
        for event in self.pending:
            if event is not None:
                event.cancel()
        source = self.source
        source._set_users(source.users_present - 1)


class _Invocation:
    """Reusable action for one (user, application-type) invocation stream.

    Created once when the user arrives and rescheduled by reference — the
    legacy code allocated a fresh closure per invocation.
    """

    __slots__ = ("source", "user", "app_index", "mean_gap")

    def __init__(
        self,
        source: "HAPSource",
        user: _UserInstance,
        app_index: int,
        mean_gap: float,
    ) -> None:
        self.source = source
        self.user = user
        self.app_index = app_index
        self.mean_gap = mean_gap

    def __call__(self, sim: Simulator) -> None:
        user = self.user
        if not user.alive:
            return
        source = self.source
        app_index = self.app_index
        source._create_app_instance(app_index)
        user.pending[app_index] = source.sim.schedule(
            source._draw(self.mean_gap), self
        )


class _AppInstance:
    """One live application instance: departure callback + emission slots."""

    __slots__ = ("source", "alive", "app_type", "pending")

    def __init__(
        self, source: "HAPSource", app_type: int, num_message_types: int
    ) -> None:
        self.source = source
        self.alive = True
        self.app_type = app_type
        self.pending: list[Event | None] = [None] * num_message_types

    def __call__(self, sim: Simulator) -> None:
        """Depart: cancel pending emissions, decrement the population."""
        self.alive = False
        for event in self.pending:
            if event is not None:
                event.cancel()
        source = self.source
        source.apps_alive_by_type[self.app_type] -= 1
        source._set_apps(source.apps_alive - 1)


class _Emission:
    """Reusable action for one (application instance, message-type) stream."""

    __slots__ = ("source", "instance", "message_type", "mean_gap")

    def __init__(
        self,
        source: "HAPSource",
        instance: _AppInstance,
        message_type: int,
        mean_gap: float,
    ) -> None:
        self.source = source
        self.instance = instance
        self.message_type = message_type
        self.mean_gap = mean_gap

    def __call__(self, sim: Simulator) -> None:
        instance = self.instance
        if not instance.alive:
            return
        source = self.source
        message_type = self.message_type
        source.messages_emitted += 1
        source.emit(Message(sim.now, instance.app_type, message_type))
        instance.pending[message_type] = source.sim.schedule(
            source._draw(self.mean_gap), self
        )


class HAPSource:
    """The full 3-level HAP hierarchy as an event-driven source.

    Parameters
    ----------
    sim:
        The event loop.
    params:
        HAP description (general shape — symmetric not required).
    rng:
        Random generator (one stream drives the whole hierarchy; use
        distinct :class:`~repro.sim.random_streams.RandomStreams` names for
        source vs. server draws).
    emit:
        Called with each generated :class:`~repro.sim.server.Message`.
    track_populations:
        Record time-weighted user/application population statistics.
    trace_stride:
        When positive, also keep (time, population) traces for the user and
        application levels — Figures 16 and 17.

    user_lifetime, app_lifetime:
        Optional distribution overrides (objects with ``sample(rng)``) for
        user and application lifetimes.  The paper's analysis is all
        exponential; these hooks enable the heavy-tail ablation study
        (e.g. Pareto application lifetimes at the same mean), the door the
        self-similar-traffic literature later walked through.  Arrival
        *rates* stay exponential so Equation 4's mean rate still applies
        (rate x mean lifetime is what enters the load).

    Notes
    -----
    Faithful to the paper's semantics: a user's departure cancels its
    *pending invocations* but not its running applications ("a user has
    departed but the application this user invoked may be still active").

    Hot-path layout (PR 2): every recurring callback is a reusable
    ``__slots__`` callable (:class:`_Invocation`, :class:`_Emission`, the
    instance records themselves for departures) instead of a per-event
    closure, and all ``1/rate`` means are precomputed once.  The draw order
    and schedule order are exactly the pre-rewrite ones — the golden-trace
    test locks this.
    """

    def __init__(
        self,
        sim: Simulator,
        params: HAPParameters,
        rng: np.random.Generator,
        emit: EmitFn,
        track_populations: bool = True,
        trace_stride: int = 0,
        user_lifetime=None,
        app_lifetime=None,
    ):
        self.sim = sim
        self.params = params
        self.rng = rng
        self.emit = emit
        self.user_lifetime = user_lifetime
        self.app_lifetime = app_lifetime
        self.users_present = 0
        self.apps_alive = 0
        self.apps_alive_by_type = [0] * params.num_app_types
        self.messages_emitted = 0
        self.user_population = (
            TimeWeightedValue(0.0) if track_populations else None
        )
        self.app_population = (
            TimeWeightedValue(0.0) if track_populations else None
        )
        self.user_trace = TraceRecorder(trace_stride) if trace_stride else None
        self.app_trace = TraceRecorder(trace_stride) if trace_stride else None
        # One Generator.exponential call (mean -> Python float) per draw:
        # the stream tests/sim/test_golden_trace.py locks.
        self._draw = rng.exponential
        # Per-level mean-gap (1/rate) tables, computed once.
        self._user_arrival_mean = 1.0 / params.user_arrival_rate
        self._user_lifetime_mean = 1.0 / params.user_departure_rate
        self._invocation_means = tuple(
            1.0 / app.arrival_rate for app in params.applications
        )
        self._app_lifetime_means = tuple(
            1.0 / app.departure_rate for app in params.applications
        )
        self._emission_means = tuple(
            tuple(1.0 / msg.arrival_rate for msg in app.messages)
            for app in params.applications
        )
        self._message_counts = tuple(
            len(app.messages) for app in params.applications
        )
        self._user_arrives_action = self._user_arrives  # bind once

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first user arrival."""
        self.sim.schedule(
            self._draw(self._user_arrival_mean), self._user_arrives_action
        )

    def prepopulate(self) -> None:
        """Start from the stationary populations instead of an empty node.

        Draws ``x ~ Poisson(lambda/mu)`` users with residual lifetimes and,
        for each application type, ``Poisson(x-bar * lambda_i/mu_i)`` live
        instances — a standard warm-start that shortens the warmup the
        paper's simulations needed.
        """
        users = self.rng.poisson(self.params.mean_users)
        for _ in range(users):
            self._create_user()
        for index, app in enumerate(self.params.applications):
            instances = self.rng.poisson(
                self.params.mean_users * app.offered_instances
            )
            for _ in range(instances):
                self._create_app_instance(index)

    # ------------------------------------------------------------------
    # User level
    # ------------------------------------------------------------------
    def _user_arrives(self, sim: Simulator) -> None:
        self._create_user()
        sim.schedule(
            self._draw(self._user_arrival_mean), self._user_arrives_action
        )

    def _create_user(self) -> None:
        user = _UserInstance(self, len(self._invocation_means))
        self._set_users(self.users_present + 1)
        if self.user_lifetime is not None:
            lifetime = float(self.user_lifetime.sample(self.rng))
        else:
            lifetime = self._draw(self._user_lifetime_mean)
        sim = self.sim
        draw = self._draw
        sim.schedule(lifetime, user)
        pending = user.pending
        for index, mean_gap in enumerate(self._invocation_means):
            invocation = _Invocation(self, user, index, mean_gap)
            pending[index] = sim.schedule(draw(mean_gap), invocation)

    # ------------------------------------------------------------------
    # Application level
    # ------------------------------------------------------------------
    def _create_app_instance(self, app_index: int) -> None:
        instance = _AppInstance(self, app_index, self._message_counts[app_index])
        self._set_apps(self.apps_alive + 1)
        self.apps_alive_by_type[app_index] += 1
        if self.app_lifetime is not None:
            lifetime = float(self.app_lifetime.sample(self.rng))
        else:
            lifetime = self._draw(self._app_lifetime_means[app_index])
        sim = self.sim
        draw = self._draw
        sim.schedule(lifetime, instance)
        pending = instance.pending
        for msg_index, mean_gap in enumerate(self._emission_means[app_index]):
            emission = _Emission(self, instance, msg_index, mean_gap)
            pending[msg_index] = sim.schedule(draw(mean_gap), emission)

    # ------------------------------------------------------------------
    # Population tracking
    # ------------------------------------------------------------------
    def _set_users(self, count: int) -> None:
        self.users_present = count
        if self.user_population is not None:
            self.user_population.update(self.sim.now, float(count))
        if self.user_trace is not None:
            self.user_trace.record(self.sim.now, float(count))

    def _set_apps(self, count: int) -> None:
        self.apps_alive = count
        if self.app_population is not None:
            self.app_population.update(self.sim.now, float(count))
        if self.app_trace is not None:
            self.app_trace.record(self.sim.now, float(count))

    def finalize(self) -> None:
        """Close population accumulators at the current clock."""
        if self.user_population is not None:
            self.user_population.finalize(self.sim.now)
        if self.app_population is not None:
            self.app_population.finalize(self.sim.now)


class MMPPSource:
    """Arrivals from an arbitrary finite MMPP.

    Simulated by the exponential-race construction: in modulating state
    ``s`` the next event is the minimum of an ``Exp(r_s)`` arrival and an
    ``Exp(-Q_ss)`` state change.
    """

    def __init__(
        self,
        sim: Simulator,
        mmpp: MMPP,
        rng: np.random.Generator,
        emit: EmitFn,
        initial_state: int | None = None,
    ):
        self.sim = sim
        self.mmpp = mmpp
        self.rng = rng
        self.emit = emit
        self.messages_emitted = 0
        self._jump_probs = mmpp.chain.embedded_transition_matrix()
        self._hold_rates = mmpp.chain.holding_rates()
        if initial_state is None:
            pi = mmpp.stationary_distribution()
            initial_state = int(rng.choice(mmpp.num_states, p=pi))
        self.state = initial_state
        self._pending: Event | None = None

    def start(self) -> None:
        """Schedule the first event in the current state."""
        self._schedule_next()

    def _schedule_next(self) -> None:
        rate = self._hold_rates[self.state] + self.mmpp.rates[self.state]
        if rate <= 0:
            return  # absorbing, silent state: nothing ever happens
        delay = float(self.rng.exponential(1.0 / rate))
        self._pending = self.sim.schedule(delay, self._fire)

    def _fire(self, sim: Simulator) -> None:
        arrival_rate = self.mmpp.rates[self.state]
        hold_rate = self._hold_rates[self.state]
        total = arrival_rate + hold_rate
        if self.rng.random() < arrival_rate / total:
            self.messages_emitted += 1
            self.emit(Message(arrival_time=sim.now))
        else:
            self.state = sample_embedded_jump(
                self._jump_probs, self.state, self.rng
            )
        self._schedule_next()


class OnOffSource:
    """An interrupted Poisson process (a single on–off source).

    While ON, arrivals are Poisson(``peak_rate``); ON periods last
    Exp(``off_rate``)... i.e. the source turns OFF at ``off_rate`` and back
    ON at ``on_rate``.  The paper observes this is a 2-level HAP with a
    single message type; it is also exactly a 2-state MMPP, and
    :meth:`to_mmpp` hands back that representation for analysis.
    """

    def __init__(
        self,
        sim: Simulator,
        on_rate: float,
        off_rate: float,
        peak_rate: float,
        rng: np.random.Generator,
        emit: EmitFn,
        start_on: bool | None = None,
    ):
        if min(on_rate, off_rate, peak_rate) <= 0:
            raise ValueError("all rates must be positive")
        self.sim = sim
        self.on_rate = on_rate
        self.off_rate = off_rate
        self.peak_rate = peak_rate
        self.rng = rng
        self.emit = emit
        self.messages_emitted = 0
        if start_on is None:
            start_on = rng.random() < on_rate / (on_rate + off_rate)
        self.is_on = bool(start_on)

    def mean_rate(self) -> float:
        """``peak_rate * on_fraction``."""
        return self.peak_rate * self.on_rate / (self.on_rate + self.off_rate)

    def to_mmpp(self) -> MMPP:
        """The equivalent 2-state MMPP (state 0 = OFF, state 1 = ON)."""
        generator = np.array(
            [[-self.on_rate, self.on_rate], [self.off_rate, -self.off_rate]]
        )
        return MMPP(generator, np.array([0.0, self.peak_rate]))

    def start(self) -> None:
        """Schedule the first event."""
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self.is_on:
            rate = self.off_rate + self.peak_rate
        else:
            rate = self.on_rate
        self.sim.schedule(float(self.rng.exponential(1.0 / rate)), self._fire)

    def _fire(self, sim: Simulator) -> None:
        if not self.is_on:
            self.is_on = True
        elif self.rng.random() < self.peak_rate / (self.peak_rate + self.off_rate):
            self.messages_emitted += 1
            self.emit(Message(arrival_time=sim.now))
        else:
            self.is_on = False
        self._schedule_next()


class PacketTrainSource:
    """Jain & Routhier's packet-train model (the paper's reference [13]).

    Trains (bursts) arrive Poisson(``train_rate``); each train carries a
    geometric number of cars (mean ``mean_train_length``) separated by
    exponential inter-car gaps (mean ``1 / car_rate``).
    """

    def __init__(
        self,
        sim: Simulator,
        train_rate: float,
        mean_train_length: float,
        car_rate: float,
        rng: np.random.Generator,
        emit: EmitFn,
    ):
        if train_rate <= 0 or car_rate <= 0:
            raise ValueError("rates must be positive")
        if mean_train_length < 1:
            raise ValueError("a train has at least one car on average")
        self.sim = sim
        self.train_rate = train_rate
        self.mean_train_length = mean_train_length
        self.car_rate = car_rate
        self.rng = rng
        self.emit = emit
        self.messages_emitted = 0

    def mean_rate(self) -> float:
        """``train_rate * mean_train_length``."""
        return self.train_rate * self.mean_train_length

    def start(self) -> None:
        """Schedule the first train."""
        self.sim.schedule(
            float(self.rng.exponential(1.0 / self.train_rate)), self._train_arrives
        )

    def _train_arrives(self, sim: Simulator) -> None:
        # Geometric number of cars with mean L: success prob 1/L, support >= 1.
        cars = int(self.rng.geometric(1.0 / self.mean_train_length))
        self._emit_car(sim, remaining=cars)
        sim.schedule(
            float(self.rng.exponential(1.0 / self.train_rate)), self._train_arrives
        )

    def _emit_car(self, sim: Simulator, remaining: int) -> None:
        self.messages_emitted += 1
        self.emit(Message(arrival_time=sim.now))
        if remaining > 1:
            sim.schedule(
                float(self.rng.exponential(1.0 / self.car_rate)),
                lambda s: self._emit_car(s, remaining - 1),
            )


class ClientServerHAPSource:
    """HAP-CS: the hierarchy emits requests; served messages trigger chains.

    Wire :meth:`handle_departure` to the queue's ``on_departure`` hook.  A
    served *request* of type (i, j) triggers, with probability ``p^q_ij``, a
    *response* arriving ``round_trip_delay`` later; a served response
    triggers the next request with probability ``p^r_ij``.

    Requests carry ``kind="request"`` and responses ``kind="response"``, and
    their service times are drawn from the type's respective rates (the
    queue's own service distribution is bypassed via ``Message.service_time``
    — see :class:`ClientServerQueueAdapter` note below).
    """

    def __init__(
        self,
        sim: Simulator,
        params: ClientServerHAPParameters,
        rng: np.random.Generator,
        emit: EmitFn,
        track_populations: bool = True,
    ):
        self.sim = sim
        self.params = params
        self.rng = rng
        self.emit = emit
        self.requests_emitted = 0
        self.responses_emitted = 0
        # Reuse the plain HAP hierarchy for spontaneous request generation.
        hap_equivalent = self._spontaneous_hap()
        self.hierarchy = HAPSource(
            sim,
            hap_equivalent,
            rng,
            self._emit_spontaneous_request,
            track_populations=track_populations,
        )

    def _spontaneous_hap(self) -> HAPParameters:
        from repro.core.params import ApplicationType, MessageType

        apps = tuple(
            ApplicationType(
                arrival_rate=app.arrival_rate,
                departure_rate=app.departure_rate,
                messages=tuple(
                    MessageType(
                        arrival_rate=msg.arrival_rate,
                        service_rate=msg.request_service_rate,
                        name=msg.name,
                    )
                    for msg in app.messages
                ),
                name=app.name,
            )
            for app in self.params.applications
        )
        return HAPParameters(
            user_arrival_rate=self.params.user_arrival_rate,
            user_departure_rate=self.params.user_departure_rate,
            applications=apps,
            name=f"{self.params.name or 'hap-cs'}-spontaneous",
        )

    def start(self) -> None:
        """Start the underlying hierarchy."""
        self.hierarchy.start()

    def prepopulate(self) -> None:
        """Warm-start the hierarchy populations."""
        self.hierarchy.prepopulate()

    def _message_params(self, message: Message):
        app = self.params.applications[message.app_type]
        return app.messages[message.message_type]

    def _emit_spontaneous_request(self, message: Message) -> None:
        message.kind = "request"
        self.requests_emitted += 1
        self.emit(message)

    def handle_departure(self, sim: Simulator, message: Message) -> None:
        """Queue departure hook: continue the request/response chain."""
        if message.kind not in ("request", "response"):
            return
        msg_params = self._message_params(message)
        if message.kind == "request":
            if self.rng.random() < msg_params.p_response:
                self._schedule_followup(message, "response")
        else:
            if self.rng.random() < msg_params.p_next_request:
                self._schedule_followup(message, "request")

    def _schedule_followup(self, parent: Message, kind: str) -> None:
        app_type, message_type = parent.app_type, parent.message_type

        def arrive(sim: Simulator) -> None:
            message = Message(
                arrival_time=sim.now,
                app_type=app_type,
                message_type=message_type,
                kind=kind,
            )
            if kind == "request":
                self.requests_emitted += 1
            else:
                self.responses_emitted += 1
            self.emit(message)

        self.sim.schedule(self.params.round_trip_delay, arrive)
