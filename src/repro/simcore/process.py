"""Simulated process model — the paper's Algorithm 1.

A process of the considered application loops over::

    while global termination not detected:
        if a STATE-information message is ready:   receive and treat it
        elif another (DATA) message is ready:      receive and treat it
        else:                                      process a new local ready task

with the crucial property (paper §1) that *a process cannot treat a message
and compute simultaneously*: once a task starts, messages queue up until it
completes.  This is what makes demand-driven snapshots expensive — a long task
on any process stalls everyone waiting for its state.

The **threaded variant** (paper §4.5) adds a communication thread that polls
the STATE channel every ``poll_period`` (the paper uses 50 µs): STATE messages
are then treated *during* computation (their small handling cost extends the
task, modelling the shared CPU), and a mechanism may *pause* the computing
thread for the duration of a snapshot (the paper grabs the MPI lock) and
resume it afterwards.

Subclasses (the solver process, protocol test fixtures) override
:meth:`handle_state`, :meth:`handle_data`, :meth:`next_task`,
:meth:`can_start_task` and :meth:`can_receive_data`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Optional

from collections import deque

from .errors import ProtocolError
from .events import Event, PRIORITY_LOW
from .network import Channel, Envelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator
    from .monitor import RunMonitor
    from .network import Network
    from .trace import TraceRecorder


@dataclass
class Work:
    """A unit of computation: ``duration`` seconds of uninterruptible work.

    ``on_start`` runs when the task begins (allocate memory, update loads);
    ``on_complete`` when it ends (free memory, send results, update loads).
    Both may send messages / charge CPU time; those costs are accounted as
    part of the activity.
    """

    duration: float
    label: str = ""
    on_start: Optional[Callable[[], None]] = None
    on_complete: Optional[Callable[[], None]] = None


@dataclass
class _RunningTask:
    work: Work
    completion_event: Optional[Event]
    completion_time: float
    paused: bool = False
    remaining: float = 0.0
    pause_count: int = 0
    total_paused: float = 0.0
    paused_at: float = 0.0


class SimProcess:
    """One process of the distributed asynchronous system."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        rank: int,
        *,
        threaded: bool = False,
        poll_period: float = 50e-6,
    ) -> None:
        self.sim = sim
        self.network = network
        self.rank = rank
        self.threaded = bool(threaded)
        self.poll_period = float(poll_period)
        self.mailbox_state: Deque[Envelope] = deque()
        self.mailbox_data: Deque[Envelope] = deque()
        self.halted = False
        self.crashed = False
        #: True between a crash-with-restart and its restart: DATA deliveries
        #: are buffered (reliable-MPI retransmission model) instead of lost.
        self._crash_restart_pending = False
        self._crash_buffer: Deque[Envelope] = deque()
        #: >1 stretches the duration of tasks *starting* while it is set
        #: (fault-injection slowdown windows); exactly 1.0 on healthy runs.
        self.speed_factor = 1.0
        self._busy_until = 0.0
        self._in_activity = False
        self._pending_charge = 0.0
        self._current: Optional[_RunningTask] = None
        self._dispatch_event: Optional[Event] = None
        self._dispatch_label = f"dispatch:P{rank}"
        self._poll_event: Optional[Event] = None
        #: Optional passive observer (see :mod:`repro.simcore.monitor`);
        #: notified of message treatments and execution-context windows.
        #: Compose additional observers via :meth:`add_monitor`.
        self.monitor: Optional["RunMonitor"] = None
        #: Fast-path alias: ``self.monitor`` when it wants the
        #: enter/leave-context hooks, else None — so metrics-only runs
        #: never call the no-op defaults per treatment.
        self._ctx_monitor: Optional["RunMonitor"] = None
        # Monitor treat-sampling state (see RunMonitor.treat_stride): the
        # stride is cached in add_monitor; non-sampled treats pay only the
        # countdown below.
        self._treat_stride = 1
        self._treat_left = 1
        # --- statistics -------------------------------------------------
        self.stats_msgs_treated = 0
        #: Per-channel treated counts, maintained kernel-side (metrics on
        #: or off, like MessageStats) so the telemetry monitor can sync
        #: them at flush time instead of counting per event.
        self.treated_state = 0
        self.treated_data = 0
        self.stats_tasks_run = 0
        self.stats_busy_time = 0.0
        self.stats_idle_since = 0.0
        network.register(self)

    # ------------------------------------------------------------ overrides

    def handle_state(self, env: Envelope) -> None:
        """Treat a STATE-channel message (override)."""
        raise NotImplementedError

    def handle_data(self, env: Envelope) -> None:
        """Treat a DATA-channel message (override)."""
        raise NotImplementedError

    def next_task(self) -> Optional[Work]:
        """Return the next local ready task, or None (override)."""
        return None

    def can_start_task(self) -> bool:
        """Whether a new task may start now (mechanisms veto during snapshots)."""
        return True

    def can_receive_data(self) -> bool:
        """Whether DATA messages may be treated now.

        While blocked inside a snapshot, the paper's processes loop on
        state-information receptions only, so the solver returns False there.
        """
        return True

    def on_idle(self) -> None:
        """Hook called when the process goes idle (no messages, no tasks)."""

    # ------------------------------------------------------------- monitors

    def add_monitor(self, monitor: "RunMonitor") -> None:
        """Compose a passive observer with any already-installed one."""
        from .monitor import compose_monitors

        self.monitor = compose_monitors(self.monitor, monitor)
        self._ctx_monitor = (
            self.monitor if self.monitor.wants_context() else None
        )
        self._treat_stride = self.monitor.treat_stride

    # -------------------------------------------------------------- queries

    @property
    def computing(self) -> bool:
        """True while a task is running (and not paused)."""
        return self._current is not None and not self._current.paused

    @property
    def task_paused(self) -> bool:
        return self._current is not None and self._current.paused

    @property
    def cpu_free_at(self) -> float:
        return self._busy_until

    def pending_messages(self, channel: Optional[Channel] = None) -> int:
        if channel is Channel.STATE:
            return len(self.mailbox_state)
        if channel is Channel.DATA:
            return len(self.mailbox_data)
        return len(self.mailbox_state) + len(self.mailbox_data)

    # ----------------------------------------------------------- CPU charge

    def charge(self, dt: float) -> None:
        """Charge ``dt`` seconds of CPU to this process.

        Inside an activity (message handling, task start/completion hooks)
        the charge extends that activity; otherwise it occupies the CPU
        immediately.
        """
        if dt < 0:
            raise ValueError("negative charge")
        if self._in_activity:
            self._pending_charge += dt
        elif self._current is not None and not self._current.paused:
            # Charged during computation (threaded poll): extend the task.
            self._extend_running_task(dt)
        else:
            self._busy_until = max(self._busy_until, self.sim.now) + dt
            self.stats_busy_time += dt
            self._schedule_dispatch(self._busy_until)

    def _take_pending(self) -> float:
        dt = self._pending_charge
        self._pending_charge = 0.0
        return dt

    # ------------------------------------------------------------- delivery

    def deliver(self, env: Envelope) -> None:
        """Called by the network when a message reaches this process."""
        if self.halted:
            if (
                self._crash_restart_pending
                and env.channel is Channel.DATA
            ):
                # Down but restarting: the numerical payload travels over
                # reliable MPI, which retransmits until the rank is back.
                # STATE messages are genuinely lost (the resilience layer
                # repairs views via gap NACKs / syncs / the rejoin).
                self._crash_buffer.append(env)
            return
        current = self._current
        if env.channel is Channel.STATE:
            self.mailbox_state.append(env)
            if self.threaded and current is not None and not current.paused:
                self._schedule_poll()
                return
        else:
            self.mailbox_data.append(env)
        if current is not None and not current.paused:
            return  # computing: dispatch resumes at task completion
        now = self.sim.now
        busy_until = self._busy_until
        self._schedule_dispatch(busy_until if busy_until > now else now)

    def notify_work(self) -> None:
        """Public wake-up: local work became available or a block lifted."""
        self._wake()

    def _wake(self) -> None:
        if self.halted:
            return
        if self._current is not None and not self._current.paused:
            return  # computing: dispatch resumes at task completion
        when = max(self.sim.now, self._busy_until)
        self._schedule_dispatch(when)

    def _schedule_dispatch(self, when: float) -> None:
        if self.halted:
            return
        pending = self._dispatch_event
        if pending is not None and not pending.cancelled:
            # keep the earliest scheduled dispatch
            if pending.time <= when:
                return
            self.sim.cancel(pending)
        self._dispatch_event = self.sim.schedule_at(
            when, self._dispatch, label=self._dispatch_label
        )

    # ------------------------------------------------------------- dispatch

    def _cpu_free(self) -> bool:
        if self.sim.now < self._busy_until:
            return False
        if self._current is not None and not self._current.paused:
            return False
        return True

    def _dispatch(self) -> None:
        self._dispatch_event = None
        if self.halted:
            return
        if self._current is not None and not self._current.paused:
            return  # computing: the completion path re-dispatches
        if self.sim.now < self._busy_until:
            # Woken early (e.g. an unblock during a handler whose cost was
            # charged after the wake): retry when the CPU frees.
            self._schedule_dispatch(self._busy_until)
            return
        if self.mailbox_state:
            self._treat(self.mailbox_state.popleft())
            return
        if self.mailbox_data and self.can_receive_data() and not self.task_paused:
            self._treat(self.mailbox_data.popleft())
            return
        if self.can_start_task() and self._current is None:
            # Task selection may take a dynamic decision (request_view /
            # record_decision), i.e. run mechanism code on this process's
            # behalf — give monitors the execution-context window.
            mon = self._ctx_monitor
            if mon is not None:
                mon.enter_context(self.rank)
            try:
                work = self.next_task()
            finally:
                if mon is not None:
                    mon.leave_context(self.rank)
            if work is not None:
                self._begin_task(work)
                return
        self.on_idle()

    def _treat(self, env: Envelope) -> None:
        """Treat one message: run its handler, charge its CPU cost."""
        self.stats_msgs_treated += 1
        mon = self.monitor
        if mon is not None:
            self._treat_left -= 1
            if self._treat_left <= 0:
                self._treat_left = self._treat_stride
                mon.on_treat(self.rank, env)
        ctx = self._ctx_monitor
        if ctx is not None:
            ctx.enter_context(self.rank)
        self._in_activity = True
        try:
            if env.channel is Channel.STATE:
                self.treated_state += 1
                self.handle_state(env)
            else:
                self.treated_data += 1
                self.handle_data(env)
        finally:
            self._in_activity = False
            if ctx is not None:
                ctx.leave_context(self.rank)
        cost = self.network.config.recv_cost(env.size) + self._pending_charge
        self._pending_charge = 0.0
        trace = self.sim.trace
        if trace is not None:
            self._record_treat_span(trace, env, cost)
        self.stats_busy_time += cost
        self._busy_until = max(self._busy_until, self.sim.now) + cost
        self._schedule_dispatch(self._busy_until)

    def _record_treat_span(
        self, trace: "TraceRecorder", env: Envelope, cost: float
    ) -> None:
        """Trace the treatment of ``env`` as a duration span.

        The end is stamped ``cost`` in the future (the CPU time the treatment
        occupies); ``to_chrome_trace`` re-sorts, so the out-of-order append is
        fine.
        """
        name = f"treat:{env.payload.type_name}"
        trace.begin_span(self.sim.now, name, who=self.rank)
        trace.end_span(self.sim.now + cost, name, who=self.rank)

    # ---------------------------------------------------------------- tasks

    def _begin_task(self, work: Work) -> None:
        mon = self._ctx_monitor
        if mon is not None:
            mon.enter_context(self.rank)
        self._in_activity = True
        try:
            if work.on_start is not None:
                work.on_start()
        finally:
            self._in_activity = False
            if mon is not None:
                mon.leave_context(self.rank)
        setup = self._take_pending()
        duration = work.duration
        if self.speed_factor != 1.0:
            duration = work.duration * self.speed_factor
        start = self.sim.now + setup
        completion = start + duration
        self.stats_tasks_run += 1
        self.stats_busy_time += setup + duration
        self._busy_until = completion
        task = _RunningTask(work, None, completion)
        task.completion_event = self.sim.schedule_at(
            completion,
            self._task_complete,
            priority=PRIORITY_LOW,
            label=f"task-done:P{self.rank}:{work.label}",
        )
        self._current = task

    def _task_complete(self) -> None:
        task = self._current
        if task is None:  # pragma: no cover - defensive
            return
        self._current = None
        mon = self._ctx_monitor
        if mon is not None:
            mon.enter_context(self.rank)
        self._in_activity = True
        try:
            if task.work.on_complete is not None:
                task.work.on_complete()
        finally:
            self._in_activity = False
            if mon is not None:
                mon.leave_context(self.rank)
        cost = self._take_pending()
        self.stats_busy_time += cost
        self._busy_until = max(self._busy_until, self.sim.now) + cost
        self._schedule_dispatch(self._busy_until)

    def _extend_running_task(self, dt: float) -> None:
        task = self._current
        assert task is not None and not task.paused
        assert task.completion_event is not None
        self.sim.cancel(task.completion_event)
        task.completion_time += dt
        self.stats_busy_time += dt
        self._busy_until = task.completion_time
        task.completion_event = self.sim.schedule_at(
            task.completion_time,
            self._task_complete,
            priority=PRIORITY_LOW,
            label=f"task-done:P{self.rank}:{task.work.label}",
        )

    # --------------------------------------------------------- pause/resume

    def pause_task(self) -> bool:
        """Pause the running task (threaded snapshot blocking).

        Returns True if a task was actually paused.  The CPU becomes free for
        message treatment while paused.  Re-entrant: nested pauses require
        matching resumes.
        """
        task = self._current
        if task is None:
            return False
        task.pause_count += 1
        if task.paused:
            return True
        if task.completion_event is not None:
            self.sim.cancel(task.completion_event)
            task.completion_event = None
        task.remaining = max(0.0, task.completion_time - self.sim.now)
        task.paused = True
        task.paused_at = self.sim.now
        self.stats_busy_time -= task.remaining  # will be re-added on resume
        self._busy_until = self.sim.now
        self._wake()
        return True

    def resume_task(self) -> None:
        """Resume a paused task once all pauses are released."""
        task = self._current
        if task is None:
            return
        if not task.paused:
            raise ProtocolError(f"P{self.rank}: resume_task without pause")
        task.pause_count -= 1
        if task.pause_count > 0:
            return
        task.paused = False
        task.total_paused += self.sim.now - task.paused_at
        start = max(self.sim.now, self._busy_until)
        task.completion_time = start + task.remaining
        self.stats_busy_time += task.remaining
        self._busy_until = task.completion_time
        task.completion_event = self.sim.schedule_at(
            task.completion_time,
            self._task_complete,
            priority=PRIORITY_LOW,
            label=f"task-done:P{self.rank}:{task.work.label}",
        )

    # ------------------------------------------------------- threaded polls

    def _schedule_poll(self) -> None:
        if self._poll_event is not None and not self._poll_event.cancelled:
            return
        # The comm thread wakes at multiples of poll_period; model the
        # expected delay by rounding up to the next period boundary.
        period = self.poll_period
        k = math.floor(self.sim.now / period) + 1
        self._poll_event = self.sim.schedule_at(
            k * period, self._thread_poll, label=f"poll:P{self.rank}"
        )

    def _thread_poll(self) -> None:
        self._poll_event = None
        if self.halted:
            return
        if not (self.threaded and self.computing):
            # Task ended (or was paused) before the poll fired: the main
            # dispatch path owns the mailbox again.
            self._wake()
            return
        # Treat all queued STATE messages "in the background".
        while self.mailbox_state and self.computing:
            env = self.mailbox_state.popleft()
            self.stats_msgs_treated += 1
            self.treated_state += 1
            mon = self.monitor
            if mon is not None:
                self._treat_left -= 1
                if self._treat_left <= 0:
                    self._treat_left = self._treat_stride
                    mon.on_treat(self.rank, env)
            ctx = self._ctx_monitor
            if ctx is not None:
                ctx.enter_context(self.rank)
            self._in_activity = True
            try:
                self.handle_state(env)
            finally:
                self._in_activity = False
                if ctx is not None:
                    ctx.leave_context(self.rank)
            cost = self.network.config.recv_cost(env.size) + self._take_pending()
            trace = self.sim.trace
            if trace is not None:
                self._record_treat_span(trace, env, cost)
            if self.computing:
                self._extend_running_task(cost)
            else:
                # Handler paused the task; charge cost as free-CPU time.
                self.stats_busy_time += cost
                self._busy_until = max(self._busy_until, self.sim.now) + cost
        if self.mailbox_state and self.computing:  # pragma: no cover
            self._schedule_poll()
        if not self.computing:
            self._wake()

    # ------------------------------------------------------------- lifetime

    def halt(self) -> None:
        """Stop this process: cancel pending activity, ignore deliveries."""
        self.halted = True
        if self._dispatch_event is not None:
            self.sim.cancel(self._dispatch_event)
            self._dispatch_event = None
        if self._poll_event is not None:
            self.sim.cancel(self._poll_event)
            self._poll_event = None
        if self._current is not None and self._current.completion_event is not None:
            self.sim.cancel(self._current.completion_event)
            self._current = None

    def crash(self, *, restart_pending: bool = False) -> None:
        """Fail-stop crash (fault injection).

        Queued messages are discarded and later deliveries are ignored; the
        running task (if any) never completes.  Distinct from :meth:`halt`
        only in intent — ``crashed`` lets protocols and tests distinguish an
        injected failure from a normal shutdown.

        With ``restart_pending`` (crash-with-restart, see
        :class:`repro.faults.CrashFault`) queued and later DATA messages are
        buffered for the restart instead of dropped, and the aborted running
        task is handed to :meth:`on_crash` so subclasses can re-queue it.
        """
        self.crashed = True
        self._crash_restart_pending = restart_pending
        aborted: Optional[Work] = None
        task = self._current
        if task is not None:
            aborted = task.work
            if not task.paused:
                # Refund the un-elapsed portion (mirrors pause_task): the
                # work was pre-charged in full at _begin_task but will be
                # re-run from scratch after the restart.
                remaining = max(0.0, task.completion_time - self.sim.now)
                self.stats_busy_time -= remaining
        if restart_pending:
            self._crash_buffer.extend(self.mailbox_data)
        self.mailbox_state.clear()
        self.mailbox_data.clear()
        self.halt()
        self._current = None
        self._busy_until = min(self._busy_until, self.sim.now)
        if restart_pending:
            self.on_crash(aborted)
        # A crashed process must not keep protocol timers alive (periodic
        # broadcasts, resilience retransmissions) — it is silent until the
        # restart (if any).
        mech = getattr(self, "mechanism", None)
        if mech is not None:
            mech.shutdown()

    def on_crash(self, aborted: Optional[Work]) -> None:
        """Hook: a crash-with-restart aborted ``aborted`` (None if idle).

        Subclasses re-queue the task so the restart re-runs it from scratch
        (its ``on_start`` effects are durable — see the solver process).
        """

    def restart(self) -> None:
        """Reboot after a crash-with-restart from the durable checkpoint.

        Solver and mechanism state survive (continuous local checkpoint
        model); the volatile losses are the mailbox contents, the running
        task's progress, and armed timers.  Buffered DATA messages are
        re-enqueued in arrival order — crucially *before* any task restarts,
        because the mailbox is drained ahead of ``next_task`` — and the
        mechanism re-announces itself through the rejoin handshake.
        """
        if not self.crashed or not self._crash_restart_pending:
            raise ProtocolError(
                f"P{self.rank}: restart of a process that is not pending one"
            )
        self.crashed = False
        self.halted = False
        self._crash_restart_pending = False
        self.mailbox_data.extend(self._crash_buffer)
        self._crash_buffer.clear()
        mech = getattr(self, "mechanism", None)
        if mech is not None and hasattr(mech, "on_restart"):
            mech.on_restart()
        self.on_restart()
        self._wake()

    def on_restart(self) -> None:
        """Hook: the process just rebooted (subclasses re-queue local work)."""

    # ----------------------------------------------------------- diagnostics

    def debug_state(self) -> str:
        cur = self._current
        return (
            f"P{self.rank}: state_mbox={len(self.mailbox_state)} "
            f"data_mbox={len(self.mailbox_data)} busy_until={self._busy_until:.6f} "
            f"task={(cur.work.label + (' [paused]' if cur.paused else '')) if cur else '-'} "
            f"can_start={self.can_start_task()}"
        )
