"""Message-passing network model.

The paper's platform is an IBM SP where processes communicate with MPI over a
"very high bandwidth / low latency" network, and *state-information* messages
travel on a dedicated channel that the application polls with priority
(paper §1, Algorithm 1).  This module models exactly that:

* two logical channels per ordered process pair — :data:`Channel.STATE` and
  :data:`Channel.DATA` — each independently FIFO;
* message cost = ``latency + size / bandwidth`` from send to delivery;
* the sender is charged a per-message ``send_overhead`` of its own time
  (an MPI point-to-point broadcast loop costs the sender one send per
  destination — there is no hardware multicast);
* the receiver is charged ``recv_overhead + size * recv_per_byte`` when it
  *treats* the message (charged by the process model, not here).

Message accounting (``Table 6`` of the paper) is done here: every send is
counted by payload type and by channel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING, ClassVar, Dict, Iterable, List, Optional, Tuple

from .errors import ChannelError
from .events import PRIORITY_HIGH

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector
    from .engine import Simulator
    from .monitor import RunMonitor
    from .process import SimProcess


class Channel(IntEnum):
    """Logical channels; STATE has treatment priority on the receiver."""

    STATE = 0
    DATA = 1


@dataclass
class Payload:
    """Base class for everything that travels in a message.

    Subclasses set :attr:`TYPE` (used for accounting) and may override
    :meth:`nbytes` to model their wire size.  The default size models a small
    control message.
    """

    TYPE: ClassVar[str] = "payload"

    def nbytes(self) -> int:
        return 64

    @property
    def type_name(self) -> str:
        return type(self).TYPE


@dataclass(slots=True)
class Envelope:
    """A payload in flight (or delivered): full routing metadata.

    Handlers must treat an envelope as read-only.  It is a plain slotted
    class rather than a frozen dataclass because a frozen ``__init__``
    costs eight ``object.__setattr__`` calls per message; derive a changed
    copy with :func:`dataclasses.replace` instead of assigning a field.
    """

    src: int
    dst: int
    channel: Channel
    payload: Payload
    size: int
    send_time: float
    deliver_time: float
    seq: int


@dataclass(frozen=True)
class NetworkConfig:
    """Timing parameters of the interconnect.

    Defaults model the paper's "very high bandwidth / low latency" SP switch;
    ``high_latency()`` models the WAN-ish setting the paper speculates about
    in §4.5 (where the increments mechanism's message volume should hurt).
    """

    latency: float = 5e-6  # seconds, one-way
    bandwidth: float = 500e6  # bytes/second
    send_overhead: float = 1e-6  # sender CPU time per message
    recv_overhead: float = 1e-6  # receiver CPU time per message treated
    recv_per_byte: float = 1e-9  # receiver CPU time per byte treated

    @staticmethod
    def fast() -> "NetworkConfig":
        return NetworkConfig()

    @staticmethod
    def high_latency() -> "NetworkConfig":
        return NetworkConfig(latency=2e-3, bandwidth=10e6, send_overhead=5e-6)

    @staticmethod
    def low_bandwidth() -> "NetworkConfig":
        """Message-volume-bound network: moderate latency but a high
        per-message CPU cost and little bandwidth — the regime in which the
        paper expects the increments mechanism's traffic to hurt (§4.5)."""
        return NetworkConfig(
            latency=1e-4,
            bandwidth=5e6,
            send_overhead=4e-5,
            recv_overhead=4e-5,
        )

    def transfer_time(self, size: int) -> float:
        return self.latency + size / self.bandwidth

    def recv_cost(self, size: int) -> float:
        return self.recv_overhead + size * self.recv_per_byte


@dataclass
class MessageStats:
    """Counters regenerating Table 6 (and sanity metrics beyond it).

    The per-send hot path maintains only the **joint** ``(channel, type)``
    counters — one tuple-keyed update each for counts and bytes, instead of
    three string-keyed updates plus two enum ``.name`` lookups.  The Table-6
    marginals (:attr:`by_type`, :attr:`by_channel`, :attr:`bytes_by_type`)
    are derived on demand.  The joint view is also exactly what the
    telemetry monitor (:mod:`repro.obs.monitor`) folds into the metrics
    registry at flush time, so metrics-on runs pay nothing extra per send
    for message accounting.
    """

    sent_total: int = 0
    sent_bytes: int = 0
    #: Joint send counts keyed by ``(Channel, payload type name)``.
    by_channel_type: "Counter[Tuple[Channel, str]]" = field(
        default_factory=Counter
    )
    #: Joint payload-byte counts, same key.
    bytes_by_channel_type: "Counter[Tuple[Channel, str]]" = field(
        default_factory=Counter
    )

    def count(self, env: Envelope) -> None:
        self.sent_total += 1
        self.sent_bytes += env.size
        key = (env.channel, env.payload.type_name)
        self.by_channel_type[key] += 1
        self.bytes_by_channel_type[key] += env.size

    @property
    def by_type(self) -> "Counter[str]":
        """Send counts by payload type (marginal of the joint counter)."""
        out: "Counter[str]" = Counter()
        for (_ch, tname), n in self.by_channel_type.items():
            out[tname] += n
        return out

    @property
    def by_channel(self) -> "Counter[str]":
        """Send counts by channel name (marginal of the joint counter)."""
        out: "Counter[str]" = Counter()
        for (ch, _tname), n in self.by_channel_type.items():
            out[ch.name] += n
        return out

    @property
    def bytes_by_type(self) -> "Counter[str]":
        """Payload bytes by type (marginal of the joint byte counter)."""
        out: "Counter[str]" = Counter()
        for (_ch, tname), n in self.bytes_by_channel_type.items():
            out[tname] += n
        return out

    def state_message_count(self) -> int:
        """Number of messages on the state channel — the paper's Table 6 metric."""
        return sum(
            n
            for (ch, _tname), n in self.by_channel_type.items()
            if ch is Channel.STATE
        )


class Network:
    """Point-to-point FIFO network connecting the registered processes."""

    def __init__(
        self,
        sim: "Simulator",
        nprocs: int,
        config: Optional[NetworkConfig] = None,
    ) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.sim = sim
        self.nprocs = nprocs
        self.config = config or NetworkConfig()
        self.stats = MessageStats()
        self._procs: List[Optional["SimProcess"]] = [None] * nprocs
        # FIFO enforcement: last scheduled delivery time per (src, dst, channel).
        self._link_clock: Dict[Tuple[int, int, Channel], float] = {}
        self._seq = 0
        #: Optional fault injector (repro.faults); None keeps the delivery
        #: path exactly as reliable/FIFO as the paper assumes.
        self._injector: Optional["FaultInjector"] = None
        #: Optional passive observer (repro.analysis.sanitizer); never
        #: affects delivery, timing or accounting.
        self._monitor: Optional["RunMonitor"] = None
        #: Fast-path alias: the monitor iff it overrides ``on_send``.  The
        #: telemetry monitor doesn't (it reads ``stats`` at flush time), so
        #: metrics-only runs pay nothing per send here.
        self._send_monitor: Optional["RunMonitor"] = None

    # --------------------------------------------------------------- wiring

    def install_injector(self, injector: "FaultInjector") -> None:
        """Route every subsequent delivery through a fault injector."""
        if self._injector is not None:
            raise ChannelError("a fault injector is already installed")
        self._injector = injector

    def install_monitor(self, monitor: "RunMonitor") -> None:
        """Observe every subsequent send with ``monitor`` (passive only).

        Raises when a monitor is already installed — callers that must
        coexist with others use :meth:`add_monitor` instead.
        """
        if self._monitor is not None:
            raise ChannelError("a monitor is already installed")
        self._monitor = monitor
        self._send_monitor = monitor if monitor.wants_send() else None

    def add_monitor(self, monitor: "RunMonitor") -> None:
        """Compose ``monitor`` with any already-installed one (fan-out,
        notification order = installation order)."""
        from .monitor import compose_monitors

        self._monitor = compose_monitors(self._monitor, monitor)
        self._send_monitor = (
            self._monitor if self._monitor.wants_send() else None
        )

    @property
    def monitor(self) -> Optional["RunMonitor"]:
        return self._monitor

    @property
    def injector(self) -> Optional["FaultInjector"]:
        return self._injector

    def register(self, proc: "SimProcess") -> None:
        rank = proc.rank
        if not (0 <= rank < self.nprocs):
            raise ChannelError(f"rank {rank} out of range 0..{self.nprocs - 1}")
        if self._procs[rank] is not None:
            raise ChannelError(f"rank {rank} registered twice")
        self._procs[rank] = proc

    def proc(self, rank: int) -> "SimProcess":
        p = self._procs[rank]
        if p is None:
            raise ChannelError(f"no process registered at rank {rank}")
        return p

    @property
    def ranks(self) -> range:
        return range(self.nprocs)

    # --------------------------------------------------------------- sending

    def send(
        self,
        src: int,
        dst: int,
        channel: Channel,
        payload: Payload,
        *,
        size: Optional[int] = None,
        charge_sender: bool = True,
    ) -> Envelope:
        """Asynchronously send ``payload`` from ``src`` to ``dst``.

        The sender is charged ``send_overhead`` of local time (unless
        ``charge_sender`` is False, used by engine-internal injections).
        Delivery respects per-link FIFO ordering.
        """
        if src == dst:
            raise ChannelError(f"self-send from rank {src}")
        if not (0 <= dst < self.nprocs):
            raise ChannelError(f"destination rank {dst} out of range")
        # Hot path (one call per message): everything is bound to a local
        # and each step happens once.
        sim = self.sim
        config = self.config
        procs = self._procs
        link_clock = self._link_clock
        nbytes = payload.nbytes() if size is None else int(size)
        now = sim.now
        if charge_sender:
            sender = procs[src]
            if sender is None:
                raise ChannelError(f"no process registered at rank {src}")
            sender.charge(config.send_overhead)
        arrive = now + config.transfer_time(nbytes)
        key = (src, dst, channel)
        clock = link_clock.get(key)
        if clock is not None and clock > arrive:
            arrive = clock
        link_clock[key] = arrive
        self._seq += 1
        env = Envelope(src, dst, channel, payload, nbytes, now, arrive, self._seq)
        self.stats.count(env)
        mon = self._send_monitor
        if mon is not None:
            mon.on_send(env)
        receiver = procs[dst]
        if receiver is None:
            raise ChannelError(f"no process registered at rank {dst}")
        label = f"deliver:{payload.type_name}:{src}->{dst}"
        controller = sim.controller
        if self._injector is not None:
            # The injector decides when (and whether, and how many times)
            # this envelope reaches the receiver.
            for when in self._injector.deliveries(env):
                ev = sim.schedule_at(
                    when,
                    lambda e=env: receiver.deliver(e),
                    priority=PRIORITY_HIGH,
                    label=label,
                )
                if controller is not None:
                    controller.note_delivery(ev, env)
            return env
        # arrive >= now always holds, so the delivery skips schedule_at's
        # past-time check and goes straight onto the queue.
        ev = sim.queue.push(
            arrive,
            lambda: receiver.deliver(env),
            priority=PRIORITY_HIGH,
            label=label,
        )
        if controller is not None:
            controller.note_delivery(ev, env)
        return env

    def broadcast(
        self,
        src: int,
        channel: Channel,
        payload: Payload,
        *,
        size: Optional[int] = None,
        exclude: Iterable[int] = (),
    ) -> int:
        """Send ``payload`` from ``src`` to every other rank; returns #sends.

        Models an MPI point-to-point broadcast loop: the sender pays one send
        overhead per destination and each link gets its own copy.  The
        payload is sized once; each copy still goes through :meth:`send`.
        """
        skip = set(exclude)
        skip.add(src)
        nbytes = payload.nbytes() if size is None else int(size)
        send = self.send
        nsent = 0
        for dst in range(self.nprocs):
            if dst in skip:
                continue
            send(src, dst, channel, payload, size=nbytes)
            nsent += 1
        return nsent
