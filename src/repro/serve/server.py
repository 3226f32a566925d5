"""The serving simulator: MiniDB behind a session pool under load.

:class:`ServingSimulation` drives one :class:`~repro.db.engine.Engine`
through a traffic generator on the deterministic event loop:

- arrivals pass the :class:`~repro.serve.breaker.CircuitBreaker` (fail
  fast when the engine is known-broken), then the
  :class:`~repro.serve.admission.AdmissionController` (bounded run
  queue, shedding policy);
- a pool of ``workers`` session slots executes admitted requests; the
  engine runs on its *own* virtual clock, and the measured service
  demand (including per-request retries and backoff) is what occupies
  the slot in simulation time;
- per-request deadlines cancel requests still queued when they expire;
  requests that complete after their deadline count as ``late``, not
  good;
- injected faults (:mod:`repro.faults`) fire inside the engine exactly
  as in single-session campaigns, scoped per session via
  :meth:`~repro.faults.FaultInjector.scoped` so a fault plan can target
  a subset of the traffic.

The simulation stops at the traffic horizon: work still queued or in
flight is recorded as ``unfinished`` rather than silently measured
past the declared window — which is what makes the throughput-vs-load
curve honest about saturation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.db.engine import Engine
from repro.db.parser import normalize_sql
from repro.errors import FaultError, RetryExhaustedError, ServeError
from repro.faults import FaultInjector
from repro.measurement.clocks import VirtualClock
from repro.measurement.retry import RetryPolicy, execute_with_retry
from repro.measurement.stats import Percentiles, percentiles
from repro.obs import emit_event, maybe_span
from repro.serve.admission import (
    ADMITTED,
    DEGRADED,
    AdmissionConfig,
    AdmissionController,
)
from repro.serve.breaker import (
    BreakerConfig,
    BreakerTransition,
    CircuitBreaker,
)
from repro.serve.loop import EventLoop
from repro.serve.traffic import ClosedLoopTraffic, OpenLoopTraffic

#: Request outcomes.  "Good" service is exactly the ``ok`` status:
#: a complete, fresh result delivered within the deadline.
STATUS_OK = "ok"                 # completed in time
STATUS_LATE = "late"             # completed after the deadline
STATUS_DEGRADED = "degraded"     # answered stale from the result cache
STATUS_REJECTED = "rejected"     # turned away at admission
STATUS_SHED = "shed"             # evicted from the queue (shed-oldest)
STATUS_EXPIRED = "expired"       # deadline fired while still queued
STATUS_FAILED = "failed"         # engine error survived the retries
STATUS_BREAKER = "breaker-open"  # failed fast by the open breaker
STATUS_UNFINISHED = "unfinished"  # still queued/running at the horizon

ALL_STATUSES = (STATUS_OK, STATUS_LATE, STATUS_DEGRADED,
                STATUS_REJECTED, STATUS_SHED, STATUS_EXPIRED,
                STATUS_FAILED, STATUS_BREAKER, STATUS_UNFINISHED)


@dataclass(frozen=True)
class ServeConfig:
    """How the server defends itself (or declines to).

    ``deadline_s`` doubles as the goodput SLO: a response slower than
    it is ``late`` even when nothing cancelled the request.
    ``cancel_expired`` additionally cancels requests whose deadline
    expires while they are still queued — protection, because the slot
    they would have burned goes to a request that can still make it.
    """

    workers: int = 2
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    breaker: Optional[BreakerConfig] = field(
        default_factory=BreakerConfig)
    deadline_s: Optional[float] = 0.5
    cancel_expired: bool = True
    retry: Optional[RetryPolicy] = None
    #: Simulated cost of answering a degraded request from the result
    #: cache (a lookup plus shipping a stale result).
    degraded_cost_s: float = 0.0002

    def __post_init__(self):
        if self.workers < 1:
            raise ServeError(
                f"session pool needs >= 1 worker, got {self.workers}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServeError(
                f"deadline must be positive, got {self.deadline_s}")
        if self.degraded_cost_s < 0:
            raise ServeError(
                f"degraded response cost must be >= 0, got "
                f"{self.degraded_cost_s}")
        if self.cancel_expired and self.deadline_s is None:
            raise ServeError(
                "cancel_expired needs a deadline_s to cancel against")

    @classmethod
    def unprotected(cls, workers: int = 2,
                    deadline_s: Optional[float] = 0.5,
                    **overrides: Any) -> "ServeConfig":
        """The control condition: unbounded queue, no breaker, no
        cancellation — the deadline stays as a measurement SLO."""
        base: Dict[str, Any] = dict(
            workers=workers,
            admission=AdmissionConfig(policy="none", queue_limit=0),
            breaker=None, deadline_s=deadline_s, cancel_expired=False)
        base.update(overrides)
        return cls(**base)

    def describe(self) -> str:
        parts = [f"{self.workers} worker session(s)",
                 self.admission.describe()]
        parts.append("no breaker" if self.breaker is None
                     else self.breaker.describe())
        if self.deadline_s is not None:
            cancel = " (queued requests cancelled at expiry)" \
                if self.cancel_expired else ""
            parts.append(f"deadline {self.deadline_s * 1000:g}ms"
                         f"{cancel}")
        if self.retry is not None:
            parts.append(f"per-request retry: {self.retry.describe()}")
        return "; ".join(parts)


@dataclass
class _Request:
    """Mutable per-request state while the simulation runs."""

    rid: int
    session: str
    sql: str
    arrival_s: float
    deadline_s: Optional[float]        # absolute
    status: str = "pending"
    response_s: Optional[float] = None
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    attempts: int = 0
    error: str = ""


@dataclass(frozen=True)
class RequestRecord:
    """One request's immutable outcome, for the report."""

    rid: int
    session: str
    arrival_s: float
    status: str
    latency_s: Optional[float]
    queue_wait_s: float
    service_s: float
    attempts: int
    error: str = ""


@dataclass(frozen=True)
class ServeReport:
    """Everything one serving run produced.

    ``throughput_per_s`` counts full executions delivered inside the
    horizon (on time or late); ``goodput_per_s`` only the on-time ones
    — the number an operator actually gets paid for.
    """

    name: str
    traffic: str
    config: str
    duration_s: float
    offered: int
    counts: Mapping[str, int]
    throughput_per_s: float
    goodput_per_s: float
    latency: Optional[Percentiles]
    queue_wait: Optional[Percentiles]
    breaker_transitions: Tuple[BreakerTransition, ...]
    faults_injected: int
    peak_queue_depth: int
    records: Tuple[RequestRecord, ...]

    @property
    def offered_rate_per_s(self) -> float:
        return self.offered / self.duration_s if self.duration_s else 0.0

    @property
    def n_good(self) -> int:
        return self.counts.get(STATUS_OK, 0)

    def verdict(self) -> str:
        """Survival classification of this cell.

        - ``idle`` — no traffic arrived;
        - ``healthy`` — >= 95% of offered requests got good service;
        - ``degraded`` — >= 50% good, or >= 75% answered at all
          (including stale/degraded responses);
        - ``overloaded`` — anything worse.
        """
        if self.offered == 0:
            return "idle"
        good = self.n_good / self.offered
        answered = (self.n_good
                    + self.counts.get(STATUS_LATE, 0)
                    + self.counts.get(STATUS_DEGRADED, 0)) \
            / self.offered
        if good >= 0.95:
            return "healthy"
        if good >= 0.5 or answered >= 0.75:
            return "degraded"
        return "overloaded"

    def format(self) -> str:
        lines = [
            f"serving run {self.name!r}: {self.traffic}",
            f"  config: {self.config}",
            f"  offered {self.offered} requests "
            f"({self.offered_rate_per_s:.1f}/s) over "
            f"{self.duration_s:g}s -> throughput "
            f"{self.throughput_per_s:.1f}/s, goodput "
            f"{self.goodput_per_s:.1f}/s, verdict {self.verdict()}",
        ]
        observed = [(status, self.counts[status])
                    for status in ALL_STATUSES
                    if self.counts.get(status)]
        if observed:
            lines.append("  outcomes: " + ", ".join(
                f"{status}={count}" for status, count in observed))
        if self.latency is not None:
            lines.append("  latency " + self.latency.format(
                unit="ms", scale=1000.0))
        if self.queue_wait is not None:
            lines.append("  queue wait " + self.queue_wait.format(
                unit="ms", scale=1000.0))
        if self.faults_injected:
            lines.append(f"  faults injected: {self.faults_injected}")
        if self.breaker_transitions:
            lines.append("  breaker: " + "; ".join(
                t.format() for t in self.breaker_transitions))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able summary (aggregate only, no per-request rows)."""
        return {
            "name": self.name,
            "traffic": self.traffic,
            "config": self.config,
            "duration_s": self.duration_s,
            "offered": self.offered,
            "offered_rate_per_s": self.offered_rate_per_s,
            "counts": {status: self.counts.get(status, 0)
                       for status in ALL_STATUSES},
            "throughput_per_s": self.throughput_per_s,
            "goodput_per_s": self.goodput_per_s,
            "latency": None if self.latency is None
            else self.latency.to_dict(),
            "queue_wait": None if self.queue_wait is None
            else self.queue_wait.to_dict(),
            "breaker_transitions": [
                [t.at_s, t.from_state, t.to_state, t.reason]
                for t in self.breaker_transitions],
            "faults_injected": self.faults_injected,
            "peak_queue_depth": self.peak_queue_depth,
            "verdict": self.verdict(),
        }


class ServingSimulation:
    """One seeded serving run of an engine under traffic (module doc).

    Parameters
    ----------
    engine:
        The MiniDB instance under test.  Must carry its *own*
        :class:`~repro.measurement.clocks.VirtualClock` (service demand
        is measured as that clock's delta per request); the simulation
        timeline is the event loop's separate clock.
    sqls:
        The query mix; request *i* issues ``sqls[i % len(sqls)]``.
    traffic:
        An :class:`~repro.serve.traffic.OpenLoopTraffic` or
        :class:`~repro.serve.traffic.ClosedLoopTraffic`.
    config:
        The :class:`ServeConfig` protection envelope.
    faults:
        Optional :class:`~repro.faults.FaultInjector`; must be the same
        injector the engine was built with (the simulation only adds
        per-session scoping around executions).
    """

    def __init__(self, engine: Engine, sqls: List[str],
                 traffic: "OpenLoopTraffic | ClosedLoopTraffic",
                 config: Optional[ServeConfig] = None,
                 faults: Optional[FaultInjector] = None,
                 name: str = "serve"):
        if not sqls:
            raise ServeError("the serving mix needs at least one query")
        self.engine = engine
        self.sqls = list(sqls)
        self.traffic = traffic
        self.config = config if config is not None else ServeConfig()
        self.faults = faults
        self.name = name
        self.loop = EventLoop()
        if engine.clock is self.loop.clock:
            raise ServeError(
                "the engine must keep a private clock; the simulation "
                "timeline belongs to the event loop")
        self.admission = AdmissionController(self.config.admission)
        self.breaker = None if self.config.breaker is None \
            else CircuitBreaker(self.config.breaker)
        self._requests: List[_Request] = []
        self._busy = 0
        self._cache: Dict[Any, bool] = {}
        self._on_response: Optional[Callable[[_Request], None]] = None
        self._faults_before = 0
        self._ran = False

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> ServeReport:
        """Simulate the full horizon and summarise it."""
        if self._ran:
            raise ServeError(
                "a ServingSimulation is single-use; build a fresh one "
                "for every run")
        self._ran = True
        self._faults_before = self.faults.n_injected \
            if self.faults is not None else 0
        if isinstance(self.traffic, OpenLoopTraffic):
            for when, session in self.traffic.arrivals():
                self.loop.at(when,
                             self._make_arrival(when, session))
        else:
            self._start_closed_loop()
        self.loop.run(until=self.traffic.duration_s)
        self._close_out()
        return self._report()

    def _make_arrival(self, when: float,
                      session: str) -> Callable[[], None]:
        return lambda: self._arrive(session)

    def _start_closed_loop(self) -> None:
        traffic = self.traffic
        assert isinstance(traffic, ClosedLoopTraffic)
        rngs = traffic.client_rngs()

        def schedule_next(client: int) -> None:
            think = traffic.think_seconds(client, rngs[client])
            when = self.loop.now + think
            if when >= traffic.duration_s:
                return
            session = f"c{client}"

            def fire() -> None:
                request = self._arrive(session)
                if request.response_s is not None:
                    # Immediate response (rejected/degraded/breaker):
                    # the client thinks and comes back.
                    schedule_next(client)
                else:
                    self._client_waiters[request.rid] = client
            self.loop.at(when, fire)

        self._client_waiters: Dict[int, int] = {}
        self._schedule_next_for = schedule_next
        for client in range(traffic.n_clients):
            schedule_next(client)

    # -- request lifecycle -------------------------------------------------

    def _arrive(self, session: str) -> _Request:
        now = self.loop.now
        request = _Request(
            rid=len(self._requests), session=session,
            sql=self.sqls[len(self._requests) % len(self.sqls)],
            arrival_s=now,
            deadline_s=None if self.config.deadline_s is None
            else now + self.config.deadline_s)
        self._requests.append(request)
        emit_event("serve.arrival", rid=request.rid, session=session)
        if self.breaker is not None and not self.breaker.allow(now):
            self._respond(request, STATUS_BREAKER)
            return request
        request.status = "queued"
        cacheable = normalize_sql(request.sql) in self._cache
        outcome, evicted = self.admission.admit(request,
                                                cacheable=cacheable)
        if outcome == DEGRADED:
            self._respond_degraded(request)
            return request
        if outcome != ADMITTED:
            self._respond(request, STATUS_REJECTED)
            return request
        if evicted is not None:
            shed = evicted
            assert isinstance(shed, _Request)
            self._respond(shed, STATUS_SHED)
        if request.deadline_s is not None and self.config.cancel_expired:
            self.loop.at(request.deadline_s,
                         lambda: self._expire(request))
        self._dispatch()
        return request

    def _respond_degraded(self, request: _Request) -> None:
        cost = self.config.degraded_cost_s

        def deliver() -> None:
            self._respond(request, STATUS_DEGRADED)
        if cost > 0:
            self.loop.after(cost, deliver)
        else:
            deliver()

    def _expire(self, request: _Request) -> None:
        """Deadline fired; cancel the request if it is still queued."""
        if request.status != "queued":
            return
        if self.admission.remove(request):
            self._respond(request, STATUS_EXPIRED)

    def _dispatch(self) -> None:
        """Hand queued requests to free session slots."""
        while self._busy < self.config.workers:
            request = self.admission.pop_next()
            if request is None:
                return
            assert isinstance(request, _Request)
            self._start_service(request)

    def _start_service(self, request: _Request) -> None:
        now = self.loop.now
        self._busy += 1
        request.status = "executing"
        request.queue_wait_s = now - request.arrival_s
        ok, service_s, attempts, error = self._execute(request)
        request.service_s = service_s
        request.attempts = attempts
        request.error = error

        def complete() -> None:
            self._busy -= 1
            latency = self.loop.now - request.arrival_s
            if ok:
                if self.breaker is not None:
                    self.breaker.record_success(latency, self.loop.now)
                self._cache[normalize_sql(request.sql)] = True
                on_time = (request.deadline_s is None
                           or self.loop.now <= request.deadline_s)
                self._respond(request,
                              STATUS_OK if on_time else STATUS_LATE)
            else:
                if self.breaker is not None:
                    self.breaker.record_failure(self.loop.now)
                self._respond(request, STATUS_FAILED)
            self._dispatch()
        self.loop.after(service_s, complete)

    def _execute(self, request: _Request
                 ) -> Tuple[bool, float, int, str]:
        """Run the query on the engine; returns
        ``(ok, service_seconds, attempts, error)``.

        The engine's own clock measures the service demand, including
        any per-request retries and their simulated backoff.
        """
        engine_clock = self.engine.clock
        before = engine_clock.now

        def once() -> None:
            self.engine.execute(request.sql)

        with maybe_span("serve.request", "serve", rid=request.rid,
                        session=request.session,
                        queue_wait_ms=request.queue_wait_s * 1000.0
                        ) as span:
            attempts = 1
            ok = True
            error = ""
            try:
                if self.faults is not None:
                    with self.faults.scoped(request.session):
                        if self.config.retry is not None:
                            __, attempts = execute_with_retry(
                                once, self.config.retry,
                                clock=engine_clock,
                                label=f"req{request.rid}")
                        else:
                            once()
                elif self.config.retry is not None:
                    __, attempts = execute_with_retry(
                        once, self.config.retry, clock=engine_clock,
                        label=f"req{request.rid}")
                else:
                    once()
            except RetryExhaustedError as exc:
                ok = False
                attempts = exc.attempts
                error = type(exc.last_error).__name__ \
                    if exc.last_error is not None else "RetryExhausted"
            except FaultError as exc:
                ok = False
                error = type(exc).__name__
            service_s = engine_clock.now - before
            if isinstance(engine_clock, VirtualClock) and service_s <= 0:
                # A fault can fire before any simulated work is
                # charged; a zero-length service would stall the slot
                # accounting, so charge a minimal dispatch cost.
                service_s = 1e-6
            if span is not None:
                span.set(execute_ms=service_s * 1000.0, ok=ok,
                         attempts=attempts, error=error)
        return ok, service_s, attempts, error

    def _respond(self, request: _Request, status: str) -> None:
        request.status = status
        request.response_s = self.loop.now
        emit_event("serve.response", rid=request.rid, status=status,
                   latency_ms=(request.response_s - request.arrival_s)
                   * 1000.0)
        if isinstance(self.traffic, ClosedLoopTraffic):
            client = self._client_waiters.pop(request.rid, None)
            if client is not None:
                self._schedule_next_for(client)

    def _close_out(self) -> None:
        """Mark everything still pending at the horizon."""
        for request in self._requests:
            if request.response_s is None:
                request.status = STATUS_UNFINISHED

    # -- summary -----------------------------------------------------------

    def _report(self) -> ServeReport:
        duration = self.traffic.duration_s
        counts: Dict[str, int] = {}
        latencies: List[float] = []
        waits: List[float] = []
        records: List[RequestRecord] = []
        for request in self._requests:
            counts[request.status] = counts.get(request.status, 0) + 1
            latency = None if request.response_s is None \
                else request.response_s - request.arrival_s
            if request.status in (STATUS_OK, STATUS_LATE):
                latencies.append(latency if latency is not None
                                 else 0.0)
                waits.append(request.queue_wait_s)
            records.append(RequestRecord(
                rid=request.rid, session=request.session,
                arrival_s=request.arrival_s, status=request.status,
                latency_s=latency, queue_wait_s=request.queue_wait_s,
                service_s=request.service_s,
                attempts=request.attempts, error=request.error))
        served = counts.get(STATUS_OK, 0) + counts.get(STATUS_LATE, 0)
        good = counts.get(STATUS_OK, 0)
        faults_fired = 0 if self.faults is None \
            else self.faults.n_injected - self._faults_before
        return ServeReport(
            name=self.name,
            traffic=self.traffic.describe(),
            config=self.config.describe(),
            duration_s=duration,
            offered=len(self._requests),
            counts=counts,
            throughput_per_s=served / duration,
            goodput_per_s=good / duration,
            latency=percentiles(latencies) if latencies else None,
            queue_wait=percentiles(waits) if waits else None,
            breaker_transitions=()
            if self.breaker is None
            else tuple(self.breaker.transitions),
            faults_injected=faults_fired,
            peak_queue_depth=self.admission.peak_depth,
            records=tuple(records))
