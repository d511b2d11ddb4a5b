"""The discrete-event simulation engine.

:class:`Simulator` owns the clock and the event queue.  Components (network,
processes, mechanisms) schedule callbacks through :meth:`Simulator.schedule`
and never advance time themselves.  The engine runs until one of:

* the event queue drains (normal completion, or a deadlock if a completion
  condition was registered and is not met),
* an explicit :meth:`Simulator.stop`,
* a safety limit (event count / simulated time) is exceeded.

The engine is deliberately minimal — all message-passing semantics live in
:mod:`repro.simcore.network`, all process semantics in
:mod:`repro.simcore.process`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from .errors import SimulationDeadlock, SimulationLimitExceeded
from .events import Event, EventQueue, PRIORITY_NORMAL
from .rng import RngHub
from .trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .schedule import ScheduleController


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for all named RNG streams (see :class:`~repro.simcore.rng.RngHub`).
    max_events:
        Safety cap on the number of events executed; exceeded ⇒
        :class:`SimulationLimitExceeded`.  Protects against protocol
        livelocks during development.
    max_time:
        Safety cap on simulated time (seconds).
    trace:
        Optional :class:`TraceRecorder`; when provided, every executed event
        is recorded (useful for the Figure-1 style timelines).
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        max_events: int = 50_000_000,
        max_time: float = float("inf"),
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.now: float = 0.0
        self.queue = EventQueue()
        self.rng = RngHub(seed)
        self.max_events = int(max_events)
        self.max_time = float(max_time)
        self.trace = trace
        #: Optional schedule controller (repro.simcore.schedule): when
        #: installed, every pop routes through it so a model checker can
        #: pick among co-enabled events.  None keeps the uncontrolled
        #: hot path untouched.
        self.controller: Optional["ScheduleController"] = None
        self.events_executed = 0
        self._stopped = False
        self._stop_reason: Optional[str] = None
        #: Callbacks invoked when the queue drains; if any returns True the
        #: drain is considered expected (no deadlock is raised).
        self._drain_ok_checks: List[Callable[[], bool]] = []
        #: Callables returning a human-readable state dump for deadlock errors.
        self._state_dumpers: List[Callable[[], str]] = []

    # ------------------------------------------------------------------ API

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r} for event {label!r}")
        return self.queue.push(self.now + delay, callback, priority=priority, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at an absolute simulated time ≥ now."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self.queue.push(time, callback, priority=priority, label=label)

    def cancel(self, event: Event) -> None:
        self.queue.cancel(event)

    def stop(self, reason: str = "stopped") -> None:
        """Halt the run after the current event finishes executing."""
        self._stopped = True
        self._stop_reason = reason

    @property
    def stop_reason(self) -> Optional[str]:
        return self._stop_reason

    def on_drain_check(self, check: Callable[[], bool]) -> None:
        """Register a predicate consulted when the queue drains.

        If *all* registered predicates return True (or none are registered)
        the drain is treated as normal termination; otherwise the engine
        raises :class:`SimulationDeadlock` with the registered state dumps.
        """
        self._drain_ok_checks.append(check)

    def add_state_dumper(self, dumper: Callable[[], str]) -> None:
        self._state_dumpers.append(dumper)

    # ------------------------------------------------------------------ run

    def run(self, until: Optional[float] = None) -> str:
        """Execute events until completion; returns the stop reason.

        ``until`` optionally bounds the run at an absolute simulated time
        (events strictly after it remain queued).
        """
        self._stopped = False
        self._stop_reason = None
        horizon = self.max_time if until is None else min(until, self.max_time)
        # Hot loop: this executes tens of millions of times per full-scale
        # run, so everything touched per event is bound to a local — and the
        # trace branch compares against a local None instead of two attribute
        # loads when no recorder is attached.
        pop = self.queue.pop if self.controller is None else self.controller.pop
        trace = self.trace
        max_events = self.max_events
        executed = self.events_executed
        try:
            while not self._stopped:
                ev = pop()
                if ev is None:
                    if self._drain_ok_checks and not all(c() for c in self._drain_ok_checks):
                        raise SimulationDeadlock(self._deadlock_message())
                    self._stop_reason = "drained"
                    break
                t = ev.time
                if t > horizon:
                    # Re-insert the *same* Event object so a handle held by a
                    # caller still cancels the re-queued event; a later run()
                    # then resumes exactly where this one paused.
                    self.queue.reinsert(ev)
                    self.now = horizon
                    if until is not None and t <= self.max_time:
                        self._stop_reason = "horizon"
                        break
                    raise SimulationLimitExceeded(
                        f"simulated time limit {self.max_time}s exceeded "
                        f"(next event at t={t:.6f}, {ev.label!r})"
                    )
                assert t >= self.now, "event queue returned an event in the past"
                self.now = t
                executed += 1
                if executed > max_events:
                    raise SimulationLimitExceeded(
                        f"event limit {self.max_events} exceeded at t={t:.6f}"
                        + self._deadlock_message()
                    )
                if trace is not None and ev.label:
                    trace.record(t, "event", ev.label)
                ev.callback()
        finally:
            self.events_executed = executed
        return self._stop_reason or "stopped"

    # ------------------------------------------------------------- internals

    def _deadlock_message(self) -> str:
        parts = [f"event queue drained at t={self.now:.6f} with outstanding work"]
        for dump in self._state_dumpers:
            try:
                parts.append(dump())
            except Exception as exc:  # pragma: no cover - diagnostics only
                parts.append(f"<state dump failed: {exc!r}>")
        return "\n".join(parts)
