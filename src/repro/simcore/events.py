"""Event primitives for the discrete-event simulation kernel.

The kernel is a binary-heap event-list simulator: callbacks scheduled at
simulated timestamps, executed in nondecreasing time order.  Ties are broken
deterministically by ``(priority, sequence number)`` so that two runs with the
same seed produce byte-identical traces — determinism is a design requirement
(the paper's platform was nondeterministic; reproducibility of *our*
experiments must not be).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

#: Priority given to events that must run before ordinary events at the same
#: timestamp (e.g. message deliveries before process wake-ups).
PRIORITY_HIGH = 0
#: Default priority for ordinary events.
PRIORITY_NORMAL = 10
#: Priority for bookkeeping events that should run after everything else at a
#: given timestamp (e.g. statistics sampling).
PRIORITY_LOW = 20


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, priority, seq)``.  ``seq`` is a global
    monotone counter allocated by the :class:`EventQueue`, guaranteeing a
    deterministic total order even among simultaneous same-priority events.

    This is the hottest object in the simulator (tens of millions per full
    run), so it is a ``__slots__`` class.  The queue does not compare
    events: its heap holds ``(time, priority, seq, event)`` tuples, which
    sift with C-level tuple comparisons (``seq`` is unique, so the event
    itself is never compared).  The event stays the caller's handle for
    :meth:`cancel`.  ``__lt__`` orders events the same way for the
    schedule controller (:mod:`repro.simcore.schedule`), which picks among
    co-enabled events outside the heap.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "cancelled", "label", "counted",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        cancelled: bool = False,
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        #: Cancelled events stay in the heap but are skipped on pop.
        self.cancelled = cancelled
        #: Free-form label used by traces and deadlock dumps.
        self.label = label
        #: True while this event contributes to its queue's live count;
        #: maintained by the queue so that cancelling an already-popped
        #: event (or cancelling twice, by any route) never corrupts ``len``.
        self.counted = False

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"Event(time={self.time!r}, priority={self.priority!r}, "
                f"seq={self.seq!r}, cancelled={self.cancelled!r}, "
                f"label={self.label!r})")

    def cancel(self) -> None:
        """Mark the event so the queue skips it; O(1)."""
        self.cancelled = True


class EventQueue:
    """Binary-heap event queue with lazy deletion and deterministic ties.

    Heap entries are ``(time, priority, seq, event)`` tuples; an entry's key
    is fixed when it is pushed, so an event's ``time`` may only change while
    it is out of the heap (see :meth:`take`).
    """

    __slots__ = ("_heap", "_counter", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time != time:  # NaN guard
            raise ValueError("event time is NaN")
        seq = next(self._counter)
        ev = Event(time, priority, seq, callback, False, label)
        ev.counted = True
        heapq.heappush(self._heap, (time, priority, seq, ev))
        self._live += 1
        return ev

    def reinsert(self, event: Event) -> Event:
        """Put a previously popped event back, *as the same object*.

        Used by the engine's horizon pause: callers holding the original
        :class:`Event` handle (e.g. for :meth:`cancel`) must keep control of
        the re-queued copy, so no new object may be created.  The event keeps
        its original ``seq`` and therefore its deterministic slot in the
        total order.
        """
        if event.cancelled:
            raise ValueError("cannot reinsert a cancelled event")
        if not event.counted:
            event.counted = True
            self._live += 1
        heapq.heappush(
            self._heap, (event.time, event.priority, event.seq, event)
        )
        return event

    def pop(self) -> Optional[Event]:
        """Return the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            ev = heappop(heap)[3]
            if ev.cancelled:
                # Events cancelled through Event.cancel() (bypassing the
                # queue) are still counted; settle the books lazily here.
                if ev.counted:
                    ev.counted = False
                    self._live -= 1
                continue
            ev.counted = False
            self._live -= 1
            return ev
        return None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event without removing it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            ev = heapq.heappop(heap)[3]
            if ev.counted:
                ev.counted = False
                self._live -= 1
        return heap[0][0] if heap else None

    def take(self, event: Event) -> Event:
        """Eagerly remove a specific live event from the queue.

        Unlike :meth:`cancel` (lazy deletion), the event is physically
        removed from the heap, so the caller may mutate ``event.time``
        afterwards without corrupting the heap invariant — this is what the
        schedule controller relies on to *time-warp* a chosen event up to
        the current clock.  O(n): only used by the (cold) controlled path.
        """
        if event.cancelled or not event.counted:
            raise ValueError(f"cannot take a dead event: {event!r}")
        heap = self._heap
        for i, entry in enumerate(heap):
            if entry[3] is event:
                del heap[i]
                break
        else:
            raise ValueError(f"event is not queued: {event!r}")
        heapq.heapify(heap)
        event.counted = False
        self._live -= 1
        return event

    def live_events(self) -> "list[Event]":
        """All live (non-cancelled, still-queued) events, unordered.

        Used by the schedule controller to enumerate co-enabled choices;
        never called on the uncontrolled hot path.
        """
        return [
            entry[3] for entry in self._heap
            if entry[3].counted and not entry[3].cancelled
        ]

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (idempotent).

        Safe on events in any state: live in the heap, already popped, or
        already cancelled — the live count is adjusted exactly once, and only
        for events the queue still counts.
        """
        if not event.cancelled:
            event.cancelled = True
            if event.counted:
                event.counted = False
                self._live -= 1

    def clear(self) -> None:
        for entry in self._heap:
            entry[3].counted = False
        self._heap.clear()
        self._live = 0
