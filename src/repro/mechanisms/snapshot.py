"""Demand-driven snapshot mechanism — §3 of the paper ("Exact Algorithm").

Each dynamic decision is preceded by a distributed snapshot à la
Chandy-Lamport [4], coupled with a distributed leader election (by process
rank) that **sequentializes concurrent snapshots**: the decision taken by the
leader is observed (through ``master_to_slave`` reservations and the
re-gathered states) by every later snapshot.

Message types (all on the STATE channel):

* ``start_snp(req)`` — broadcast by an initiator; carries a request id so
  answers from aborted rounds can be discarded;
* ``snp(req, state)`` — a process's full state, sent to the initiator it
  currently believes is the leader;
* ``end_snp`` — broadcast by an initiator once its decision is published;
* ``master_to_slave(delta)`` — reservation sent to each selected slave so a
  subsequent snapshot observes the decision.

Protocol walk-through (matching the paper's pseudo-code):

* An initiator broadcasts ``start_snp`` and waits for N−1 matching ``snp``
  answers.  While waiting it treats messages but starts no task.
* A process receiving ``start_snp`` answers the *smallest-rank* initiator it
  knows about and **delays** its answer to any other initiator until an
  ``end_snp`` makes that initiator the new leader.
* An initiator that learns of a smaller-rank initiator aborts its round,
  answers the leader, and re-broadcasts ``start_snp`` with a fresh request id
  once it becomes the leader itself (its stale answers are discarded thanks
  to the request id).
* After its decision, an initiator broadcasts ``end_snp``; if other
  snapshots are still active it remains blocked until they all complete
  (the sequentialization cost measured in Table 5).

Deviations from the paper's pseudo-code, chosen for liveness/coherence and
flagged here explicitly:

* The pseudo-code's gather loop and blocking receives are expressed as an
  event-driven state machine (the simulator's processes are callbacks, not
  threads); the message exchanges are identical.
* Between gather completion and ``end_snp`` the initiator is in a DECIDING
  phase during which any incoming ``start_snp`` is delayed even if it comes
  from a smaller rank — the paper would answer it with a state that misses
  the decision in progress.  In this simulator the window is zero-length
  (the decision is taken synchronously), so the guard is defensive only.
* In the **threaded variant** (paper §4.5) the handler pauses the local
  computation thread while any snapshot is active and resumes it afterwards,
  exactly like the paper's lock-based implementation.
"""

from __future__ import annotations

import enum
from typing import (
    TYPE_CHECKING,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Type,
)

from ..simcore.errors import ProtocolError
from ..simcore.network import Envelope, Payload
from .base import Mechanism, MechanismConfig, MechanismShared, ViewCallback
from .messages import EndSnp, MasterToSlave, ReservationAck, Snp, StartSnp
from .view import Load, LoadView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.api import ProcessLike, TimerHandle


class _Phase(enum.Enum):
    IDLE = "idle"
    GATHERING = "gathering"
    DECIDING = "deciding"


class SnapshotMechanism(Mechanism):
    """Distributed snapshot + leader election (paper §3).

    With ``config.resilience`` on, the protocol additionally survives lossy
    and duplicating channels and fail-stopped participants:

    * a gathering initiator retransmits ``start_snp`` (same request id) to
      the members whose answer is missing every ``retry_timeout``; after
      ``dead_after`` silent retries those members are *suspected crashed*
      and excluded from the gather (and from ``decision_candidates``);
    * a process blocked on a leader re-sends its ``snp`` answer on the same
      period; a leader silent for ``dead_after`` retries is suspected
      crashed and treated as if its ``end_snp`` had arrived (the remaining
      active initiators re-elect a leader as usual);
    * an idle former initiator answers a stale ``snp`` with ``end_snp`` so
      a peer whose ``end_snp`` was lost eventually unblocks;
    * ``master_to_slave`` reservations carry a token and are retransmitted
      until the selected slave acknowledges them (duplicates are discarded
      by token), keeping reservation accounting exact under loss;
    * a message from a suspected-crashed rank does **not** resurrect it:
      the sender is reminded (once) to re-announce through the base
      rejoin handshake, and only the handshake clears the suspicion.

    Duplicate ``start_snp`` / ``snp`` / ``end_snp`` handling is idempotent
    (request ids, the collected-answers dict, the active flags), so
    retransmissions and network duplicates are always safe.
    """

    name = "snapshot"
    maintains_view = False
    #: Demand-driven traffic has its own retransmission; the maintained-view
    #: gap-NACK machinery would only add noise.
    gap_nack = False

    HANDLERS: ClassVar[Mapping[Type[Payload], str]] = {
        StartSnp: "_on_start_snp_msg",
        Snp: "_on_snp_msg",
        EndSnp: "_on_end_snp_msg",
        MasterToSlave: "_on_master_to_slave",
        ReservationAck: "_on_reservation_ack",
    }

    def __init__(self, config: Optional[MechanismConfig] = None) -> None:
        super().__init__(config)
        self._phase = _Phase.IDLE
        self._initiating = False  # a view request is pending (initiate→finalize)
        self._during_snp = False  # currently gathering as (believed) leader
        self._snapshot = False  # an active snapshot led by someone else
        self._leader: Optional[int] = None
        self._nb_snp = 0  # number of OTHER processes with an active snapshot
        self._req: List[int] = []
        self._snp_active: List[bool] = []
        self._delayed: List[bool] = []
        self._nb_msgs = 0
        self._collected: Dict[int, Load] = {}
        self._pending_callback: Optional[ViewCallback] = None
        #: Member ranks of my current snapshot; None = all processes.
        self._group: Optional[List[int]] = None
        self._paused_proc = False
        self._stats_open = False
        self._gather_started_at = 0.0
        # --- resilience state (inert when config.resilience is off) -------
        self._presumed_dead: Set[int] = set()
        self._retry_event: Optional["TimerHandle"] = None
        self._retry_tries = 0
        self._blocked_event: Optional["TimerHandle"] = None
        self._blocked_tries = 0
        self._mts_token = 0
        #: un-acked reservations: token -> (slave rank, payload)
        self._mts_pending: Dict[int, Tuple[int, MasterToSlave]] = {}
        self._mts_event: Optional["TimerHandle"] = None
        self._mts_tries = 0
        #: reservation tokens already applied, per master (duplicate guard)
        self._mts_applied: Set[Tuple[int, int]] = set()
        # instrumentation
        self.rounds_started = 0
        self.answers_sent = 0
        self.stale_answers_ignored = 0

    def bind(
        self, proc: "ProcessLike", shared: Optional[MechanismShared] = None
    ) -> None:
        super().bind(proc, shared)
        n = self.nprocs
        self._req = [0] * n
        self._snp_active = [False] * n
        self._delayed = [False] * n

    # ----------------------------------------------------------- solver API

    def on_local_change(self, delta: Load, *, slave_task: bool = False) -> None:
        """Track the local state; never broadcast (demand-driven scheme).

        Positive slave-task variations were accounted at ``master_to_slave``
        reception (reservation), like in the increments mechanism.
        """
        self._require_bound()
        if slave_task and delta.workload >= 0 and delta.memory >= 0:
            return
        self._set_my_load(self._my_load + delta)

    def request_view(self, callback: ViewCallback) -> None:
        """Initiate a snapshot; ``callback`` fires once N−1 states arrived."""
        self._require_bound()
        if self._pending_callback is not None:
            raise ProtocolError(f"P{self.rank}: overlapping snapshot requests")
        if self._snapshot or self._during_snp:
            raise ProtocolError(
                f"P{self.rank}: request_view while a snapshot is active "
                "(the solver must not take decisions while blocked)"
            )
        self._pending_callback = callback
        self._initiating = True
        self._group = self._choose_group()
        if self.shared.snapshot_stats is not None:
            self.shared.snapshot_stats.initiation_started(self.rank)
            self._stats_open = True
        self._start_gather()

    def _choose_group(self) -> Optional[List[int]]:
        """Members of this snapshot (None = everyone; see the partial
        subclass for the paper's perspectives extension)."""
        return None

    def decision_candidates(self) -> Optional[List[int]]:
        """Ranks the solver may select as slaves for the pending decision
        (None = all other ranks)."""
        return None

    def record_decision(self, assignments: Dict[int, Load]) -> None:
        """Send a ``master_to_slave`` reservation to each selected slave."""
        super().record_decision(assignments)
        if self._phase is not _Phase.DECIDING:
            raise ProtocolError(
                f"P{self.rank}: record_decision outside a completed snapshot"
            )
        for rank, share in assignments.items():
            if rank == self.rank:
                raise ProtocolError("a master cannot select itself as slave")
            if self.config.resilience:
                # Token + retransmit-until-ack keeps reservation accounting
                # exact under loss; duplicates are discarded by token.
                self._mts_token += 1
                payload = MasterToSlave(
                    delta=share, token=self._mts_token, decision=self.decisions
                )
                self._mts_pending[self._mts_token] = (rank, payload)
            else:
                payload = MasterToSlave(delta=share, decision=self.decisions)
            self._send_state(rank, payload)
            self.view.add(rank, share)
        if self._mts_pending and self._mts_event is None:
            self._mts_tries = 0
            self._arm_mts()

    def decision_complete(self) -> None:
        """Finalize the snapshot (paper: broadcast ``end_snp``, then wait)."""
        if self._phase is not _Phase.DECIDING:
            raise ProtocolError(f"P{self.rank}: decision_complete without decision")
        self._note_broadcast("snapshot_end")
        self._broadcast_to_group(EndSnp())
        self._group = None
        self._during_snp = False
        self._initiating = False
        self._phase = _Phase.IDLE
        self._leader = None
        if self._nb_snp != 0:
            # Other snapshots are active: stay blocked, answer the new leader.
            self._snapshot = True
            self._leader = self._elect_active()
            if self._leader is not None and self._delayed[self._leader]:
                self._answer(self._leader)
                self._delayed[self._leader] = False
        else:
            self._snapshot = False
        self._sync_block_state()

    def blocks_tasks(self) -> bool:
        return self._initiating or self._snapshot

    # ------------------------------------------------------------ internals

    def _priority(self, rank: int) -> Tuple[int, ...]:
        """Election priority of a rank (lower wins); deterministic and
        identical on every process, as the protocol requires."""
        crit = self.config.leader_criterion
        if crit == "rank":
            return (rank,)
        if crit == "reverse_rank":
            return (-rank,)
        if crit == "scrambled":
            # deterministic pseudo-random permutation of the ranks
            import zlib

            return (zlib.crc32(rank.to_bytes(4, "little")), rank)
        raise ProtocolError(f"unknown leader criterion {crit!r}")

    def _elect(self, a: int, b: Optional[int]) -> int:
        """Leader election (paper §3: smallest rank, by default)."""
        if b is None:
            return a
        return a if self._priority(a) <= self._priority(b) else b

    def _elect_active(self) -> Optional[int]:
        cands = [
            j
            for j in range(self.nprocs)
            if self._snp_active[j] and j not in self._presumed_dead
        ]
        return min(cands, key=self._priority) if cands else None

    def _answer(self, dst: int) -> None:
        self.answers_sent += 1
        self._send_state(dst, Snp(req=self._req[dst], load=self._my_load))
        # After the send: my cut point includes emitting the answer, so the
        # answer itself does not cross the cut it defines.
        sanitizer = self.shared.sanitizer
        if sanitizer is not None:
            sanitizer.snapshot_answer(self.rank, dst, self._req[dst])

    def _start_gather(self) -> None:
        self.rounds_started += 1
        self._during_snp = True
        self._snapshot = False
        self._snp_active[self.rank] = True
        self._leader = self.rank
        self._phase = _Phase.GATHERING
        self._req[self.rank] += 1
        self._nb_msgs = 0
        self._collected = {}
        assert self.sim is not None
        self._gather_started_at = self.sim.now
        self._note_broadcast("snapshot_start")
        self._broadcast_to_group(StartSnp(req=self._req[self.rank]))
        if self.config.resilience:
            self._arm_retry()
        self._check_gather_done()

    def _broadcast_to_group(self, payload: Payload) -> None:
        """Send to every snapshot member (all ranks when group is None)."""
        if self._group is None:
            self._broadcast_state(payload, respect_silence=False)
        else:
            for dst in self._group:
                if dst != self.rank:
                    self._send_state(dst, payload)

    def _gather_target(self) -> int:
        """Answers the leader waits for: live members other than itself."""
        dead = self._presumed_dead
        if self._group is None:
            return self.nprocs - 1 - len(dead - {self.rank})
        return sum(1 for r in self._group if r != self.rank and r not in dead)

    def _check_gather_done(self) -> None:
        if self._phase is not _Phase.GATHERING:
            return
        if self._nb_msgs < self._gather_target():
            return
        # Gather complete: I am the unique leader; commit to the decision.
        self._stop_retry()
        self._phase = _Phase.DECIDING
        if self.shared.metrics is not None:
            assert self.sim is not None
            h = self.shared.metric_slots.get("snapshot_gather")
            if h is None:
                h = self._resolve_metric_slot(
                    "snapshot_gather", "histogram", "snapshot_gather_seconds",
                    help="Leader wait from gather start to decision",
                )
            h.observe(self.sim.now - self._gather_started_at)
        self._snp_active[self.rank] = False  # paper, initiate loop line 18
        view = LoadView(self.nprocs)
        for r, load in self._collected.items():
            view.set(r, load)
        view.set(self.rank, self._my_load)
        sanitizer = self.shared.sanitizer
        if sanitizer is not None:
            sanitizer.gather_complete(
                self.rank, self._req[self.rank], sorted(self._collected)
            )
        callback = self._pending_callback
        self._pending_callback = None
        if callback is None:  # pragma: no cover - defensive
            raise ProtocolError(f"P{self.rank}: gather completed with no requester")
        callback(view)
        if self._phase is _Phase.DECIDING:
            raise ProtocolError(
                f"P{self.rank}: the decision callback must call "
                "decision_complete() before returning"
            )

    # --------------------------------------------------------- message side

    def _on_start_snp_msg(self, env: Envelope) -> None:
        payload = env.payload
        assert isinstance(payload, StartSnp)
        self._on_start_snp(env.src, payload.req)

    def _on_snp_msg(self, env: Envelope) -> None:
        payload = env.payload
        assert isinstance(payload, Snp)
        self._on_snp(env.src, payload.req, payload.load)

    def _on_end_snp_msg(self, env: Envelope) -> None:
        assert isinstance(env.payload, EndSnp)
        self._on_end_snp(env.src)

    def _on_master_to_slave(self, env: Envelope) -> None:
        payload = env.payload
        assert isinstance(payload, MasterToSlave)
        self._note_reservation_lag(env.send_time)
        if payload.token:
            self._send_state(env.src, ReservationAck(token=payload.token))
            key = (env.src, payload.token)
            if key in self._mts_applied:
                # Retransmitted reservation already accounted: ack only.
                self.resilience_stats["reservations_deduped"] += 1
                return
            self._mts_applied.add(key)
        sanitizer = self.shared.sanitizer
        if sanitizer is not None:
            sanitizer.reservation_applied(self.rank, env.src, payload.decision)
        self._set_my_load(self._my_load + payload.delta)

    def _on_reservation_ack(self, env: Envelope) -> None:
        payload = env.payload
        assert isinstance(payload, ReservationAck)
        self._mts_pending.pop(payload.token, None)
        if not self._mts_pending and self._mts_event is not None:
            self._cancel_timer(self._mts_event)
            self._mts_event = None

    def _on_start_snp(self, src: int, req: int) -> None:
        self._req[src] = req
        if not self._snp_active[src]:
            self._nb_snp += 1
            self._snp_active[src] = True
        if self._phase is _Phase.DECIDING:
            # Committed to my own decision (zero-length window in this
            # simulator, defensive): delay everyone until my end_snp.
            self._delayed[src] = True
            return
        new_leader = self._elect(src, self._leader)
        if self._during_snp:
            if new_leader == self.rank:
                # I remain the leader: src waits for my end_snp.
                self._delayed[src] = True
                self._sync_block_state()
                return
            # I lost the election: abort my round, answer the leader; my
            # initiate loop will re-broadcast once I become the leader.
            self._stop_retry()
            self._leader = new_leader
            self._during_snp = False
            self._phase = _Phase.IDLE
            self._snapshot = True
            self._answer(self._leader)
            self._sync_block_state()
            return
        if not self._snapshot:
            self._snapshot = True
            self._leader = src  # paper line 13: first snapshot I hear about
            self._answer(src)
        else:
            self._leader = new_leader
            if self._leader != src or self._delayed[src]:
                self._delayed[src] = True
            else:
                self._answer(src)
        self._sync_block_state()

    def _on_snp(self, src: int, req: int, load: Load) -> None:
        if self._phase is _Phase.GATHERING and req == self._req[self.rank]:
            if src not in self._collected:
                self._nb_msgs += 1
            self._collected[src] = load
            self._check_gather_done()
        else:
            self.stale_answers_ignored += 1
            if (
                self.config.resilience
                and self._phase is _Phase.IDLE
                and not self._snp_active[self.rank]
            ):
                # The sender still believes I lead an active snapshot, so my
                # end_snp must have been lost: repeat it to unblock the sender.
                self.resilience_stats["end_snp_replies"] += 1
                self._send_state(src, EndSnp())

    def _on_end_snp(self, src: int) -> None:
        if self._snp_active[src]:
            self._snp_active[src] = False
            self._nb_snp -= 1
        self._leader = None
        if self._nb_snp == 0:
            if self._initiating and not self._during_snp:
                # My aborted round restarts now that the system is clear.
                self._start_gather()
            else:
                if self._during_snp:
                    # Resilient duplicate/suspicion path: I am mid-gather and
                    # remain the (only) leader.
                    self._leader = self.rank
                self._snapshot = False
                self._sync_block_state()
            return
        # Other snapshots remain: elect the next leader (possibly me).
        leader = self._elect_active()
        if leader is None:
            # Every remaining active snapshot belongs to a suspected-dead
            # rank: retire them too (recursion bottoms out at nb_snp == 0).
            nxt = next(j for j in range(self.nprocs) if self._snp_active[j])
            self._on_end_snp(nxt)
            return
        self._leader = leader
        if leader == self.rank:
            if self._during_snp:
                # Already gathering (duplicate end_snp or a suspected-dead
                # participant was retired mid-gather): keep leading.
                return
            if not self._initiating:  # pragma: no cover - defensive
                raise ProtocolError(
                    f"P{self.rank}: elected leader without a pending initiation"
                )
            self._start_gather()
            return
        if leader is not None and self._delayed[leader]:
            self._answer(leader)
            self._delayed[leader] = False
        self._sync_block_state()

    # ------------------------------------------------- blocking / threading

    def _sync_block_state(self) -> None:
        """Align the process's compute state with the snapshot state.

        Threaded variant: pause the running task while any snapshot is
        active (the paper's comm thread holds the MPI lock); resume when all
        snapshots completed.  Non-threaded processes are never computing when
        a handler runs, so only the wake-up path applies.
        """
        assert self.proc is not None
        if self.config.resilience:
            blocked_on_other = (
                self._snapshot
                and not self._during_snp
                and self._leader is not None
                and self._leader != self.rank
            )
            if blocked_on_other and self._blocked_event is None:
                self._blocked_tries = 0
                self._arm_blocked()
        if self.blocks_tasks():
            if not self._paused_proc and self.proc.computing:
                if self.proc.pause_task():
                    self._paused_proc = True
        else:
            if self._stats_open and self.shared.snapshot_stats is not None:
                self.shared.snapshot_stats.initiation_finished(self.rank)
                self._stats_open = False
            if self._paused_proc:
                self._paused_proc = False
                self.proc.resume_task()
            self.proc.notify_work()

    # ------------------------------------------------- resilience (timers)

    def _cancel_timer(self, ev: Optional["TimerHandle"]) -> None:
        if ev is not None and self.sim is not None:
            self.sim.cancel(ev)

    def _arm_retry(self) -> None:
        self._cancel_timer(self._retry_event)
        self._retry_tries = 0
        assert self.sim is not None
        self._retry_event = self.sim.schedule(
            self.config.retry_timeout,
            self._retry_gather,
            label=f"snp-retry:P{self.rank}",
        )

    def _stop_retry(self) -> None:
        if self._retry_event is not None:
            self._cancel_timer(self._retry_event)
            self._retry_event = None

    def _retry_gather(self) -> None:
        """Gather watchdog: retransmit ``start_snp`` to silent members, and
        suspect them crashed after ``dead_after`` silent retries."""
        self._retry_event = None
        if self._phase is not _Phase.GATHERING:
            return
        members = (
            self._group if self._group is not None else range(self.nprocs)
        )
        missing = [
            r
            for r in members
            if r != self.rank
            and r not in self._collected
            and r not in self._presumed_dead
        ]
        if not missing:
            self._check_gather_done()
            return
        self._retry_tries += 1
        if self._retry_tries > self.config.dead_after:
            for r in missing:
                self._suspect_dead(r)
            self._check_gather_done()
            return
        req = self._req[self.rank]
        for r in missing:
            self.resilience_stats["start_snp_retransmissions"] += 1
            self._send_state(r, StartSnp(req=req))
        assert self.sim is not None
        self._retry_event = self.sim.schedule(
            self.config.retry_timeout,
            self._retry_gather,
            label=f"snp-retry:P{self.rank}",
        )

    def _arm_blocked(self) -> None:
        assert self.sim is not None
        self._blocked_event = self.sim.schedule(
            self.config.retry_timeout,
            self._blocked_tick,
            label=f"snp-blocked:P{self.rank}",
        )

    def _blocked_tick(self) -> None:
        """Blocked-participant watchdog: re-answer the believed leader (its
        collected-answers dict makes that idempotent) and suspect it crashed
        after ``dead_after`` silent retries."""
        self._blocked_event = None
        if not self._snapshot or self._during_snp:
            return
        leader = self._leader
        if leader is None or leader == self.rank:
            return
        self._blocked_tries += 1
        if self._blocked_tries > self.config.dead_after:
            self._suspect_dead(leader)
            return
        if self._delayed[leader]:
            # A lost end_snp can leave the promoted leader un-answered even
            # though we deliberately delayed it; answer now for liveness.
            self._delayed[leader] = False
        self.resilience_stats["answer_retransmissions"] += 1
        self._answer(leader)
        self._arm_blocked()

    def _arm_mts(self) -> None:
        assert self.sim is not None
        self._mts_event = self.sim.schedule(
            self.config.retry_timeout,
            self._mts_tick,
            label=f"snp-mts:P{self.rank}",
        )

    def _mts_tick(self) -> None:
        """Reservation watchdog: retransmit un-acked ``master_to_slave``."""
        self._mts_event = None
        if not self._mts_pending:
            return
        self._mts_tries += 1
        if self._mts_tries > self.config.dead_after:
            self.resilience_stats["reservations_abandoned"] += len(
                self._mts_pending
            )
            self._mts_pending.clear()
            return
        for _token, (rank, payload) in list(self._mts_pending.items()):
            if rank in self._presumed_dead:
                continue
            self.resilience_stats["mts_retransmissions"] += 1
            self._send_state(rank, payload)
        self._arm_mts()

    def _suspect_dead(self, rank: int) -> None:
        """Suspect ``rank`` fail-stopped (protocol-level detection).

        Routed through the base recovery layer so the owning process'
        task-reclaim hook fires too; the snapshot-specific exclusion happens
        in :meth:`on_peer_suspected`.  Only the rejoin handshake clears it.
        """
        self.suspect_peer(rank)

    def on_peer_suspected(self, rank: int) -> None:
        """Exclude ``rank`` from gathers and leader elections, and treat its
        active snapshot (if any) as ended."""
        if rank in self._presumed_dead:
            return
        self._presumed_dead.add(rank)
        self.resilience_stats["suspected_dead"] += 1
        if self.sim is not None and self.sim.trace is not None:
            self.sim.trace.record(
                self.sim.now,
                "fault",
                f"suspect-dead:P{rank}",
                who=self.rank,
            )
        if self._snp_active[rank]:
            self._on_end_snp(rank)

    def on_peer_rejoined(self, rank: int) -> None:
        """Re-admit a formally rejoined rank.

        If a gather is in flight the rank becomes a member again; the retry
        watchdog retransmits ``start_snp`` to it, so its state re-enters the
        collection without any special-casing here.
        """
        self._presumed_dead.discard(rank)

    def on_restart(self) -> None:
        """Crash-with-restart: reset the protocol state machine to IDLE.

        The crash aborted any round in flight — peers blocked on us re-elect
        through their watchdogs and our stale answers are discarded by
        request id.  Un-acked reservations are dropped (their timers died
        with the crash); the request-id counters are durable, so the next
        round's ids stay fresh.  The base class then announces the rejoin.
        """
        if self._stats_open and self.shared.snapshot_stats is not None:
            self.shared.snapshot_stats.initiation_finished(self.rank)
            self._stats_open = False
        self._phase = _Phase.IDLE
        self._initiating = False
        self._during_snp = False
        self._snapshot = False
        self._leader = None
        self._nb_snp = 0
        self._snp_active = [False] * self.nprocs
        self._delayed = [False] * self.nprocs
        self._nb_msgs = 0
        self._collected = {}
        self._pending_callback = None
        self._group = None
        self._paused_proc = False
        # The crash's shutdown() cancelled these; drop the dead handles.
        self._retry_event = None
        self._blocked_event = None
        self._mts_event = None
        self._mts_pending.clear()
        super().on_restart()

    def shutdown(self) -> None:
        super().shutdown()
        for ev in (self._retry_event, self._blocked_event, self._mts_event):
            self._cancel_timer(ev)
        self._retry_event = None
        self._blocked_event = None
        self._mts_event = None

    # ------------------------------------------------------------ diagnostics

    def debug_state(self) -> str:
        return (
            super().debug_state()
            + f" phase={self._phase.value} initiating={self._initiating} "
            f"snapshot={self._snapshot} nb_snp={self._nb_snp} "
            f"leader={self._leader} nb_msgs={self._nb_msgs} "
            f"active={[i for i in range(self.nprocs) if self._snp_active[i]]}"
        )
