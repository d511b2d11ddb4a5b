"""Common interface of the load-information exchange mechanisms.

A :class:`Mechanism` instance lives inside each simulated process and is the
only component that reads or writes state-information messages.  The solver
process interacts with it through five upcalls:

* :meth:`Mechanism.on_local_change` — my true load just varied by ``delta``;
* :meth:`Mechanism.request_view` — I need a view of everyone's load to take a
  dynamic scheduling decision (slave selection); the view is produced
  synchronously by maintained-view mechanisms and asynchronously (after a
  distributed snapshot) by the demand-driven one;
* :meth:`Mechanism.record_decision` — here is the decision I took (per-slave
  load shares), publish it as your protocol requires;
* :meth:`Mechanism.decision_complete` — the work messages are sent, finish
  your protocol (snapshot finalization);
* :meth:`Mechanism.declare_no_more_master` — I will never select slaves again
  (§2.3 message-count optimization).

and one downcall contract: the process asks :meth:`Mechanism.blocks_tasks`
before starting any task, which is how snapshots freeze computation.

Message dispatch is **declarative and closed**: every mechanism lists its
handlers in a class-level :data:`HANDLERS` table mapping payload classes to
method names.  Tables are merged over the MRO at class-creation time, so the
protocol-exhaustiveness checker (:mod:`repro.analysis.protocol`) can read
them statically, and a payload type absent from every table raises
:class:`~repro.simcore.errors.UnknownMessageError` instead of being silently
dropped — a dropped state message would skew the receiver's view (and the
paper's Tables 4-7) without ever crashing.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from ..simcore.errors import ProtocolError, UnknownMessageError
from ..simcore.network import Channel, Envelope, Payload
from .detector import FailureDetector
from .messages import (
    Heartbeat,
    NoMoreMaster,
    RejoinRequest,
    ResyncRequest,
    Sequenced,
    StateSync,
    SuspectNotice,
)
from .view import Load, LoadView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.sanitizer import CausalitySanitizer
    from ..backends.api import Clock, ProcessLike, TimerHandle, Transport
    from ..obs.registry import Histogram, MetricsRegistry
    from ..topology import Topology

ViewCallback = Callable[[LoadView], None]


@dataclass
class MechanismConfig:
    """Tuning knobs shared by all mechanisms.

    ``threshold`` is the per-metric significant-variation threshold of
    Algorithms 2 and 3; the paper recommends choosing it "of the same order
    as the granularity of the tasks appearing in the slave selections"
    (§2.3).  The solver driver computes it from the assembly tree.
    """

    threshold: Load = field(default_factory=lambda: Load(1.0, 1.0))
    no_more_master: bool = True
    threaded: bool = False
    #: Snapshot leader-election criterion: "rank" (the paper's choice),
    #: "reverse_rank", or "scrambled" (a deterministic pseudo-random
    #: priority).  The paper's conclusion flags this as an open design
    #: question; the ablation bench sweeps it.
    leader_criterion: str = "rank"
    #: Group size of the partial-snapshot extension (0 = mechanism default).
    snapshot_group_size: int = 0
    #: Broadcast period of the time-driven mechanism (0 = mechanism default).
    periodic_period: float = 0.0
    #: Resilience layer (off = paper-faithful reliable-network protocols).
    #: When on, state messages carry per-link sequence numbers; receivers
    #: discard duplicates, detect gaps and request resynchronization, and
    #: the snapshot protocol retransmits and suspects crashed participants.
    resilience: bool = False
    #: Snapshot retransmission / blocked-liveness timer period (seconds).
    retry_timeout: float = 1e-3
    #: Grace delay between detecting a sequence gap and NACKing it (lets
    #: reordered-but-not-lost messages arrive first).
    nack_delay: float = 2e-4
    #: Consecutive unanswered retries after which a silent peer is suspected
    #: to have fail-stopped (snapshot failure detection).
    dead_after: int = 25
    #: Maintained-view mechanisms broadcast an absolute state sync every
    #: this-many updates under resilience, bounding view staleness caused by
    #: lost reservation (third-party) broadcasts.
    refresh_every: int = 8
    #: Neighbor-graph kind for the bounded-fanout family ("" = each
    #: mechanism's default; see :func:`repro.topology.build_topology`).
    topology: str = ""
    #: Topology connectivity knob (ring links per side, kreg degree, tree
    #: arity; 0 = the kind's default).
    topology_degree: int = 0
    #: Seed for randomized topology kinds (the driver passes the run seed).
    topology_seed: int = 0
    #: Gossip: number of targets per round (0 = mechanism default).
    gossip_fanout: int = 0
    #: Gossip round period, seconds (0 = mechanism default).
    gossip_period: float = 0.0
    #: Neighborhood: maximum relay distance in hops (0 = default).
    neighbor_horizon: int = 0
    #: Neighborhood: per-hop blend factor for relayed estimates (0 = default).
    neighbor_decay: float = 0.0
    #: Heartbeat-based failure detection + rejoin handshake (recovery layer).
    #: Off = PR-1 semantics: only protocol-level suspicion (snapshot retries,
    #: abandoned gaps) and no unsolicited liveness traffic.
    failure_detection: bool = False
    #: Failure-detector heartbeat period, seconds.  Each rank's beat phase
    #: gets a deterministic seeded jitter so beats do not synchronize.
    heartbeat_period: float = 5e-4
    #: Silence span after which the failure detector suspects a peer.
    suspect_timeout: float = 2e-3


class SnapshotStats:
    """Global snapshot instrumentation shared by all processes of a run.

    Regenerates the §4.5 narrative numbers: total wall-clock time during
    which at least one snapshot was active, the number of snapshots, and the
    maximum number of simultaneously initiated snapshots.
    """

    def __init__(self, sim: "Clock") -> None:
        self._sim = sim
        self._active: Set[int] = set()
        self._union_started_at = 0.0
        self.union_time = 0.0
        self.total_snapshots = 0
        self.max_concurrent = 0
        self.per_snapshot_durations: List[float] = []
        self._initiated_at: Dict[int, float] = {}
        #: Optional telemetry registry (set by the driver with metrics on):
        #: round durations feed the ``snapshot_round_seconds`` histogram.
        self.metrics: Optional["MetricsRegistry"] = None
        #: Preresolved histogram handle (resolved once on first use).
        self._round_hist: Optional["Histogram"] = None

    def initiation_started(self, rank: int) -> None:
        if not self._active:
            self._union_started_at = self._sim.now
        self._active.add(rank)
        self._initiated_at[rank] = self._sim.now
        self.total_snapshots += 1
        self.max_concurrent = max(self.max_concurrent, len(self._active))
        if self._sim.trace is not None:
            self._sim.trace.begin_span(self._sim.now, "snapshot-round", who=rank)

    def initiation_finished(self, rank: int) -> None:
        if rank not in self._active:  # pragma: no cover - defensive
            return
        self._active.discard(rank)
        duration = self._sim.now - self._initiated_at.pop(rank)
        self.per_snapshot_durations.append(duration)
        if not self._active:
            self.union_time += self._sim.now - self._union_started_at
        if self._sim.trace is not None:
            self._sim.trace.end_span(self._sim.now, "snapshot-round", who=rank)
        if self.metrics is not None:
            hist = self._round_hist
            if hist is None:
                hist = self._resolve_round_hist()
            hist.observe(duration)

    def _resolve_round_hist(self) -> "Histogram":
        """Setup path: registry lookups are allowed here, not per event."""
        assert self.metrics is not None
        self._round_hist = h = self.metrics.histogram(
            "snapshot_round_seconds",
            help="Wall span of one snapshot round, initiation to decision",
        )
        return h

    @property
    def concurrent_now(self) -> int:
        return len(self._active)


@dataclass
class MechanismShared:
    """Per-run state shared by the mechanism instances of all processes."""

    snapshot_stats: Optional[SnapshotStats] = None
    #: Global truth view used by the oracle baseline (created on bind).
    oracle_view: Optional["LoadView"] = None
    #: Optional causality sanitizer (repro.analysis); mechanisms call its
    #: hooks when set.  Pure observer: never affects protocol behaviour.
    sanitizer: Optional["CausalitySanitizer"] = None
    #: Optional telemetry registry (repro.obs); mechanisms label broadcast
    #: causes and protocol latencies on it.  Pure observer as well.
    metrics: Optional["MetricsRegistry"] = None
    #: Preresolved instrument handles keyed by call site (shared across all
    #: ranks of the run): per-event telemetry paths probe this dict instead
    #: of doing a registry lookup, and miss exactly once per key (see
    #: ``Mechanism._resolve_metric_slot``).
    metric_slots: Dict[str, Any] = field(default_factory=dict)
    #: Neighbor graphs of the bounded-fanout family keyed by
    #: ``(kind, nprocs, degree, seed)``.  A topology is an immutable, pure
    #: function of that key, so the first rank to bind builds it and every
    #: other rank of the run shares the same object (``Mechanism._run_topology``).
    topologies: Dict[Tuple[str, int, int, int], "Topology"] = field(
        default_factory=dict
    )


class _RxState:
    """Per-sender reception state of the resilience layer."""

    __slots__ = ("seen", "max_seq", "floor", "nack_event", "nack_tries")

    def __init__(self) -> None:
        self.seen: Set[int] = set()
        self.max_seq = 0
        #: Sequence numbers ≤ floor are subsumed by a received StateSync:
        #: late arrivals below it are stale and missing ones are resolved.
        self.floor = 0
        self.nack_event: Optional["TimerHandle"] = None
        self.nack_tries = 0

    def missing(self) -> bool:
        return len(self.seen) < self.max_seq - self.floor


class Mechanism(ABC):
    """Base class; see module docstring for the protocol."""

    #: Registry name ("naive", "increments", "snapshot").
    name: str = "?"
    #: True for mechanisms that keep an always-available view.
    maintains_view: bool = True
    #: Whether the resilience layer NACKs sequence gaps with a resync
    #: request.  Demand-driven mechanisms (snapshot) turn this off: their
    #: request/answer traffic has its own timeout-based retransmission.
    gap_nack: bool = True
    #: Whether the mechanism participates in the recovery layer (heartbeats,
    #: rejoin announcements).  The oracle turns this off: it exchanges no
    #: messages by contract, and its shared truth view needs no repair.
    participates_in_recovery: ClassVar[bool] = True
    #: Declarative message dispatch: payload class → handler method name.
    #: Subclasses declare only their *own* handlers; tables are merged over
    #: the MRO into ``_DISPATCH`` at class-creation time.
    HANDLERS: ClassVar[Mapping[Type[Payload], str]] = {
        NoMoreMaster: "_on_no_more_master",
        ResyncRequest: "_on_resync_request",
        StateSync: "_on_state_sync",
        Heartbeat: "_on_heartbeat",
        RejoinRequest: "_on_rejoin_request",
        SuspectNotice: "_on_suspect_notice",
    }
    #: Merged dispatch table (computed; do not declare directly).
    _DISPATCH: ClassVar[Dict[Type[Payload], str]] = dict(HANDLERS)

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        merged: Dict[Type[Payload], str] = {}
        for klass in reversed(cls.__mro__):
            own = klass.__dict__.get("HANDLERS")
            if own:
                merged.update(own)
        for payload_cls, method in merged.items():
            if not callable(getattr(cls, method, None)):
                raise TypeError(
                    f"{cls.__name__}.HANDLERS maps {payload_cls.__name__} to "
                    f"missing handler {method!r}"
                )
        cls._DISPATCH = merged

    def __init__(self, config: Optional[MechanismConfig] = None) -> None:
        self.config = config or MechanismConfig()
        self.proc: Optional["ProcessLike"] = None
        self.sim: Optional["Clock"] = None
        self.network: Optional["Transport"] = None
        self.rank: int = -1
        self.nprocs: int = 0
        self.view: LoadView = LoadView(0)
        self._my_load = Load.ZERO
        #: Ranks that declared No_more_master: stop sending them load info.
        self._dont_send_to: Set[int] = set()
        self._announced_no_more_master = False
        self.shared = MechanismShared()
        # resilience layer (inert unless config.resilience)
        self._tx_seq: Dict[int, int] = {}
        self._rx: Dict[int, _RxState] = {}
        self._updates_since_refresh = 0
        # recovery layer (inert unless config.failure_detection / restarts)
        self.detector: Optional[FailureDetector] = None
        self._suspected: Set[int] = set()
        #: Every rank ever suspected here (rejoin clears ``_suspected`` but
        #: not this — false-positive accounting needs the full history).
        self._ever_suspected: Set[int] = set()
        #: Suspects already reminded to rejoin this suspicion episode.
        self._notice_sent: Set[int] = set()
        self._incarnation = 0
        self._peer_incarnation: Dict[int, int] = {}
        # statistics
        self.decisions = 0
        self.updates_sent = 0
        #: Resilience-layer event counters (duplicates dropped, stale
        #: discards, NACKs sent, syncs sent/received, retransmissions...).
        self.resilience_stats: "Counter[str]" = Counter()

    # -------------------------------------------------------------- binding

    def bind(self, proc: "ProcessLike", shared: Optional[MechanismShared] = None) -> None:
        """Attach to the owning simulated process (called once by the driver)."""
        self.proc = proc
        self.sim = proc.sim
        self.network = proc.network
        self.rank = proc.rank
        self.nprocs = proc.network.nprocs
        self.view = LoadView(self.nprocs)
        if shared is not None:
            self.shared = shared
        if self.config.failure_detection and self.participates_in_recovery:
            self.detector = FailureDetector(self)

    def _run_topology(
        self, default_kind: str, build: Callable[..., "Topology"]
    ) -> "Topology":
        """Setup path: this run's neighbor graph for my config.

        Built once per run by ``build`` (the calling module's
        ``build_topology``) and shared through ``MechanismShared``.
        """
        cfg = self.config
        key = (cfg.topology or default_kind, self.nprocs,
               cfg.topology_degree, cfg.topology_seed)
        topo = self.shared.topologies.get(key)
        if topo is None:
            kind, nprocs, degree, seed = key
            topo = build(kind, nprocs, degree=degree, seed=seed)
            self.shared.topologies[key] = topo
        return topo

    def initialize_view(self, loads: Sequence[Load]) -> None:
        """Seed the view with the statically known initial loads.

        The static mapping (subtree costs, factor placement) is computed by
        every process identically before the factorization starts, so the
        initial loads are known globally without any message (paper §4.2.2:
        "each processor has as initial load the cost of all its subtrees").
        """
        for r, load in enumerate(loads):
            self.view.set(r, load)
        self._my_load = self.view.get(self.rank)
        self._after_initialize()

    def _after_initialize(self) -> None:
        """Hook for subclasses needing extra initialization state."""

    # ---------------------------------------------------------------- state

    @property
    def my_load(self) -> Load:
        """This mechanism's broadcast-consistent estimate of the local load.

        Includes reservations received via ``Master_To_All`` /
        ``master_to_slave`` that correspond to work not yet physically
        arrived.
        """
        return self._my_load

    def _set_my_load(self, load: Load) -> None:
        self._my_load = load
        self.view.set(self.rank, load)

    # ------------------------------------------------------------- solver API

    @abstractmethod
    def on_local_change(self, delta: Load, *, slave_task: bool = False) -> None:
        """The true local load varied by ``delta``.

        ``slave_task=True`` marks variations caused by work received from a
        master (Algorithm 3 skips *positive* such variations because the
        master already published them in its reservation message).
        """

    @abstractmethod
    def request_view(self, callback: ViewCallback) -> None:
        """Obtain a load view for a dynamic decision; ``callback`` receives it."""

    def record_decision(self, assignments: Dict[int, Load]) -> None:
        """Publish a just-taken slave selection (rank → assigned share)."""
        self.decisions += 1

    def decision_complete(self) -> None:
        """The decision's work messages are sent; finish the protocol."""

    def decision_candidates(self) -> Optional[List[int]]:
        """Ranks eligible as slaves for the pending decision, or None for
        "all other ranks" (restricted by the partial-snapshot extension).

        While peers are suspected crashed, the base implementation restricts
        decisions to the survivors so no fresh work lands on a corpse.  If
        *every* peer is suspected (a detector meltdown — e.g. timeouts far
        below the dispatch latency) the restriction is dropped: assigning to
        a possibly-dead rank is recoverable via reclaim, an empty slave set
        is not.
        """
        if self._suspected:
            live = self._live_peers()
            if live:
                return live
        return None

    def _live_peers(self) -> List[int]:
        """All other ranks not currently suspected crashed."""
        return [
            r
            for r in range(self.nprocs)
            if r != self.rank and r not in self._suspected
        ]

    def current_view(self) -> LoadView:
        """The view the solver should consult for *task selection*.

        Maintained mechanisms return their live view; the oracle returns
        the global truth; demand-driven mechanisms return whatever they
        last learned (stale between snapshots — the task-selection
        strategies know to distrust it via ``maintains_view``).
        """
        return self.view

    def shutdown(self) -> None:
        """Cancel any self-scheduled activity (called when the run ends)."""
        for st in self._rx.values():
            if st.nack_event is not None:
                assert self.sim is not None
                self.sim.cancel(st.nack_event)
                st.nack_event = None
        if self.detector is not None:
            self.detector.shutdown()

    def declare_no_more_master(self) -> None:
        """Broadcast ``No_more_master`` (§2.3) if the optimization is on."""
        if not self.config.no_more_master or self._announced_no_more_master:
            return
        self._announced_no_more_master = True
        self._note_broadcast("no_more_master")
        self._broadcast_state(NoMoreMaster(), respect_silence=False)

    # --------------------------------------------------------- message side

    def handle_message(self, env: Envelope) -> bool:
        """Treat a STATE-channel message; returns True if it was consumed.

        This is the single entry point (the process model calls it).  It
        unwraps the resilience layer (sequence check: duplicates and stale
        messages are consumed silently), then dispatches through the merged
        :data:`HANDLERS` table.  A payload type with no registered handler
        raises :class:`UnknownMessageError` — dispatch is closed by design.
        """
        payload = env.payload
        if self.detector is not None:
            self.detector.heard_from(env.src)
        if isinstance(payload, Sequenced):
            if not self._accept_sequenced(env.src, payload.seq):
                return True
            env = dataclasses.replace(env, payload=payload.inner)
            payload = env.payload
        if env.src in self._suspected and not isinstance(
            payload, (RejoinRequest, Heartbeat)
        ):
            # A suspected peer spoke without formally rejoining.  Its message
            # is still dispatched (protocol liveness: e.g. an End_snp must
            # unblock us even from a suspect), but it is *not* silently
            # trusted again: suspicion clears only through the rejoin
            # handshake.  Remind it once per suspicion episode.
            if env.src not in self._notice_sent:
                self._notice_sent.add(env.src)
                self.resilience_stats["suspect_notices_sent"] += 1
                self._send_raw(env.src, SuspectNotice())
        self._pre_dispatch(env)
        method = self._DISPATCH.get(type(payload))
        if method is None:
            raise UnknownMessageError(self.rank, payload.type_name)
        handler: Callable[[Envelope], None] = getattr(self, method)
        handler(env)
        return True

    def _pre_dispatch(self, env: Envelope) -> None:
        """Hook run on every (unwrapped) message before its handler
        (the snapshot mechanism resurrects suspected-dead senders here)."""

    def blocks_tasks(self) -> bool:
        """Whether the process must refrain from starting tasks right now."""
        return False

    # ------------------------------------------------------ common handlers

    def _on_no_more_master(self, env: Envelope) -> None:
        self._dont_send_to.add(env.src)

    def _on_resync_request(self, env: Envelope) -> None:
        self.resilience_stats["resync_requests_received"] += 1
        self._send_sync(env.src)

    def _on_state_sync(self, env: Envelope) -> None:
        payload = env.payload
        assert isinstance(payload, StateSync)
        self.resilience_stats["syncs_received"] += 1
        st = self._rx_state(env.src)
        if payload.upto > st.floor:
            st.floor = payload.upto
            st.seen = {s for s in st.seen if s > st.floor}
        if st.nack_event is not None and not st.missing():
            assert self.sim is not None
            self.sim.cancel(st.nack_event)
            st.nack_event = None
        self._apply_state_sync(env.src, payload.load)

    # ------------------------------------------------------- recovery layer

    @property
    def suspected_peers(self) -> Set[int]:
        """Ranks currently suspected crashed (read-only for the solver)."""
        return set(self._suspected)

    @property
    def ever_suspected_peers(self) -> Set[int]:
        """Ranks suspected at any point of the run (rejoins don't erase)."""
        return set(self._ever_suspected)

    def suspect_peer(self, rank: int) -> None:
        """Mark ``rank`` as suspected crashed.

        Called by the failure detector on silence, and by protocol-level
        suspicion (snapshot retry exhaustion).  Fires the mechanism repair
        hook and the owning process' reclaim hook; suspicion clears only
        through the rejoin handshake (:meth:`_on_rejoin_request`).
        """
        if rank == self.rank or rank in self._suspected:
            return
        self._suspected.add(rank)
        self._ever_suspected.add(rank)
        self._notice_sent.discard(rank)
        self.resilience_stats["suspected_peers"] += 1
        if self.sim is not None and self.sim.trace is not None:
            self.sim.trace.record(
                self.sim.now, "recovery", f"suspect:P{rank}", who=self.rank
            )
        self.on_peer_suspected(rank)
        proc_hook = getattr(self.proc, "on_peer_suspected", None)
        if proc_hook is not None:
            proc_hook(rank)

    def on_peer_suspected(self, rank: int) -> None:
        """Mechanism hook: repair protocol structures around a dead peer."""

    def on_peer_rejoined(self, rank: int) -> None:
        """Mechanism hook: a formerly suspected peer formally rejoined."""

    def announce_rejoin(self) -> None:
        """Broadcast the rejoin handshake (fresh incarnation, current load).

        Sent by a restarting rank from :meth:`on_restart`, and by a
        falsely-suspected live rank when a peer's :class:`SuspectNotice`
        arrives.  Deliberately ignores ``No_more_master`` silence — this is
        membership traffic, not load information.
        """
        if not self.participates_in_recovery:
            return
        self._incarnation += 1
        self.resilience_stats["rejoins_sent"] += 1
        payload = RejoinRequest(incarnation=self._incarnation, load=self._my_load)
        for dst in range(self.nprocs):
            if dst != self.rank:
                self._send_raw(dst, payload)

    def on_restart(self) -> None:
        """Crash-with-restart hook (called by the process' ``restart``).

        The mechanism state itself is the durable checkpoint (it survived
        the crash object-identically); what was lost are armed timers and
        the peers' trust.  Subclasses re-arm their timers after calling
        ``super().on_restart()``.
        """
        if self.detector is not None:
            self.detector.restart()
        self.announce_rejoin()

    def _on_heartbeat(self, env: Envelope) -> None:
        """Liveness only: the arrival already refreshed the detector."""

    def _on_suspect_notice(self, env: Envelope) -> None:
        # A peer suspects *me* — a false positive (I was slow, not dead) or
        # a missed restart announcement.  Re-announce so it trusts me again.
        self.resilience_stats["suspect_notices_received"] += 1
        self.announce_rejoin()

    def _on_rejoin_request(self, env: Envelope) -> None:
        payload = env.payload
        assert isinstance(payload, RejoinRequest)
        if self._peer_incarnation.get(env.src, 0) >= payload.incarnation:
            self.resilience_stats["rejoins_duplicate"] += 1
            return
        self._peer_incarnation[env.src] = payload.incarnation
        self.resilience_stats["rejoins_received"] += 1
        was_suspected = env.src in self._suspected
        self._suspected.discard(env.src)
        self._notice_sent.discard(env.src)
        if self.detector is not None:
            self.detector.heard_from(env.src)
        # The carried load is the peer's authoritative checkpoint: install
        # it over whatever stale entry survived the suspicion window.
        if self.maintains_view:
            self.view.set(env.src, payload.load)
        if was_suspected:
            if self.sim is not None and self.sim.trace is not None:
                self.sim.trace.record(
                    self.sim.now, "recovery", f"rejoin:P{env.src}", who=self.rank
                )
            self.on_peer_rejoined(env.src)
            proc_hook = getattr(self.proc, "on_peer_rejoined", None)
            if proc_hook is not None:
                proc_hook(env.src)
        if self.config.resilience:
            # Re-anchor the rejoiner's view of *us* too.
            self._send_sync(env.src)

    # ----------------------------------------------------- resilience layer

    def _rx_state(self, src: int) -> _RxState:
        st = self._rx.get(src)
        if st is None:
            st = self._rx[src] = _RxState()
        return st

    def _accept_sequenced(self, src: int, seq: int) -> bool:
        """Sequence check: False for duplicates / messages a sync subsumed."""
        st = self._rx_state(src)
        if seq in st.seen:
            self.resilience_stats["duplicates_dropped"] += 1
            return False
        if seq <= st.floor:
            self.resilience_stats["stale_dropped"] += 1
            return False
        st.seen.add(seq)
        if seq > st.max_seq:
            st.max_seq = seq
        if self.gap_nack and st.missing() and st.nack_event is None:
            assert self.sim is not None
            st.nack_tries = 0
            st.nack_event = self.sim.schedule(
                self.config.nack_delay,
                lambda: self._check_gap(src),
                label=f"nack-check:P{self.rank}<-P{src}",
            )
        return True

    def _check_gap(self, src: int) -> None:
        """NACK timer: if the gap persists, request a resync (with retries;
        a peer silent for ``dead_after`` tries is presumed fail-stopped)."""
        st = self._rx_state(src)
        st.nack_event = None
        if not st.missing():
            return
        st.nack_tries += 1
        if st.nack_tries > self.config.dead_after:
            # Give up: accept the view entry as permanently stale rather
            # than NACK a crashed peer forever (liveness over freshness).
            st.floor = st.max_seq
            self.resilience_stats["gaps_abandoned"] += 1
            return
        self.resilience_stats["nacks_sent"] += 1
        self._send_state(src, ResyncRequest())
        assert self.sim is not None
        st.nack_event = self.sim.schedule(
            self.config.retry_timeout,
            lambda: self._check_gap(src),
            label=f"nack-check:P{self.rank}<-P{src}",
        )

    def _send_sync(self, dst: int) -> None:
        self.resilience_stats["syncs_sent"] += 1
        upto = self._tx_seq.get(dst, 0)
        self._send_state(dst, StateSync(load=self._my_load, upto=upto))

    def _apply_state_sync(self, src: int, load: Load) -> None:
        """Fold a peer's absolute state into the view (override as needed)."""
        self.view.set(src, load)

    def _maybe_refresh(self) -> None:
        """Under resilience, periodically re-anchor peers with absolute
        syncs so lost broadcasts cause bounded (not cumulative) staleness."""
        if not self.config.resilience or self.config.refresh_every <= 0:
            return
        self._updates_since_refresh += 1
        if self._updates_since_refresh < self.config.refresh_every:
            return
        self._updates_since_refresh = 0
        self._note_broadcast("refresh")
        for dst in range(self.nprocs):
            if dst != self.rank and dst not in self._dont_send_to:
                self._send_sync(dst)

    # ------------------------------------------------------------- telemetry

    def _resolve_metric_slot(
        self,
        key: str,
        kind: str,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> Any:
        """Setup path: resolve one instrument into the run-shared slot cache.

        Per-event telemetry paths (``_note_*``) probe ``shared.metric_slots``
        and land here exactly once per key, so the registry's name/label
        resolution never runs per event (enforced by lint rule RPA005).
        """
        metrics = self.shared.metrics
        assert metrics is not None
        if kind == "counter":
            inst: Any = metrics.counter(name, labels, help=help)
        elif kind == "histogram":
            inst = metrics.histogram(name, labels, help=help)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unsupported slot kind {kind!r}")
        self.shared.metric_slots[key] = inst
        return inst

    def _note_broadcast(self, cause: str) -> None:
        """Count a state broadcast under its ``cause`` label (telemetry).

        Causes: ``threshold`` (significant local variation), ``reservation``
        (Master_To_All / master_to_slave), ``timer`` (periodic tick),
        ``snapshot_start`` / ``snapshot_end``, ``no_more_master``,
        ``refresh`` (resilience re-anchoring).  No-op with metrics off.
        """
        if self.shared.metrics is not None:
            key = "bcast:" + cause
            c = self.shared.metric_slots.get(key)
            if c is None:
                c = self._resolve_metric_slot(
                    key, "counter", "state_broadcasts_total",
                    {"cause": cause},
                    help="State broadcasts, by triggering cause",
                )
            c.inc()

    def _note_reservation_lag(self, send_time: float) -> None:
        """Observe how stale a just-treated reservation is (telemetry)."""
        if self.shared.metrics is not None:
            assert self.sim is not None
            h = self.shared.metric_slots.get("reservation_lag")
            if h is None:
                h = self._resolve_metric_slot(
                    "reservation_lag", "histogram", "reservation_lag_seconds",
                    help="Send-to-treatment staleness of reservations",
                )
            h.observe(max(0.0, self.sim.now - send_time))

    # ---------------------------------------------------------------- helpers

    def _send_raw(self, dst: int, payload: Payload) -> None:
        """Send outside the resilience envelope.

        Liveness and membership traffic (heartbeats, rejoin handshake) must
        not participate in sequence-gap accounting: a heartbeat lost on a
        quiet link would otherwise manufacture a permanent gap.
        """
        assert self.network is not None
        self.network.send(self.rank, dst, Channel.STATE, payload)

    def _send_state(self, dst: int, payload: Payload) -> None:
        assert self.network is not None
        if self.config.resilience:
            seq = self._tx_seq.get(dst, 0) + 1
            self._tx_seq[dst] = seq
            payload = Sequenced(seq=seq, inner=payload)
        self.network.send(self.rank, dst, Channel.STATE, payload)

    def _broadcast_state(self, payload: Payload, *, respect_silence: bool = True) -> int:
        assert self.network is not None
        if self.config.resilience:
            # Per-destination sequence numbers force a point-to-point loop
            # (same message count and sender cost as Network.broadcast).
            exclude: Set[int] = self._dont_send_to if respect_silence else set()
            nsent = 0
            for dst in range(self.nprocs):
                if dst == self.rank or dst in exclude:
                    continue
                self._send_state(dst, payload)
                nsent += 1
            return nsent
        return self.network.broadcast(
            self.rank,
            Channel.STATE,
            payload,
            exclude=self._dont_send_to if respect_silence else (),
        )

    def _require_bound(self) -> None:
        if self.proc is None:
            raise ProtocolError(f"{type(self).__name__} used before bind()")

    # ------------------------------------------------------------ diagnostics

    def debug_state(self) -> str:
        return (
            f"{self.name}@P{self.rank}: my_load=(w={self._my_load.workload:.3g},"
            f"m={self._my_load.memory:.3g}) decisions={self.decisions}"
        )
