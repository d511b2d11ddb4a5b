"""Gossip (epidemic) load exchange — bounded-fanout randomized push.

Extension mechanism (not in the paper), modeled on Charm++'s
``DistributedLB``: instead of broadcasting to all P-1 peers on every
significant variation, each process batches *rumors* — versioned absolute
load entries — and pushes them to a small random subset of targets every
``gossip_period`` seconds.  Receivers merge entries with a higher version
than their own copy and re-forward the news once in their next round, so an
update spreads epidemically at a total cost of ~O(P·fanout) messages instead
of O(P²) broadcast traffic.

Properties worth noting:

* versions are bumped only by an entry's owner, so merges are idempotent and
  order-insensitive: duplicated, reordered or *lost* messages never corrupt
  the view, they only delay it (no request/reply machinery to deadlock —
  the mechanism survives lossy networks even without the resilience layer);
* there is no reservation concept: like the naive mechanism, decisions are
  only visible once their effects materialize (masters do patch their *own*
  view optimistically so they stop piling work on the same slave);
* the §2.3 ``No_more_master`` broadcast is suppressed: it would cost O(P²)
  messages — the very thing this family exists to avoid — and every rank is
  needed as a relay regardless of whether it ever selects slaves.

Targets are drawn from the configured :mod:`repro.topology` graph
(default: ``complete``, i.e. uniformly among all peers, as DistributedLB
does) through the simulator's named RNG streams, so runs remain bit-for-bit
deterministic per seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Dict, Mapping, Optional, Set, Tuple, Type

from ..simcore.network import Envelope, Payload
from ..topology import Topology, build_topology
from .base import Mechanism, MechanismConfig, ViewCallback
from .messages import GossipLoad
from .registry import register_mechanism
from .view import Load

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.api import ProcessLike, TimerHandle
    from .base import MechanismShared


class GossipMechanism(Mechanism):
    """Push versioned load rumors to ``fanout`` random targets per round."""

    name = "gossip"
    maintains_view = True
    #: Lost rumors are repaired by epidemic redundancy, not NACK/resync.
    gap_nack = False

    DEFAULT_TOPOLOGY = "complete"
    DEFAULT_FANOUT = 2
    DEFAULT_PERIOD = 5e-4

    HANDLERS: ClassVar[Mapping[Type[Payload], str]] = {
        GossipLoad: "_on_gossip_load",
    }

    def __init__(self, config: Optional[MechanismConfig] = None) -> None:
        super().__init__(config)
        self._accum = Load.ZERO
        self._versions: Dict[int, int] = {}
        self._updated_at: Dict[int, float] = {}
        #: Entries learned since my last round, to be re-forwarded once.
        self._dirty: Set[int] = set()
        self._timer: Optional["TimerHandle"] = None
        self._topo: Optional[Topology] = None
        self.rounds_sent = 0

    @property
    def fanout(self) -> int:
        f = self.config.gossip_fanout
        return f if f > 0 else self.DEFAULT_FANOUT

    @property
    def period(self) -> float:
        p = self.config.gossip_period
        return p if p > 0 else self.DEFAULT_PERIOD

    def bind(
        self, proc: "ProcessLike", shared: Optional["MechanismShared"] = None
    ) -> None:
        super().bind(proc, shared)
        self._topo = self._run_topology(self.DEFAULT_TOPOLOGY, build_topology)

    def _after_initialize(self) -> None:
        for r in range(self.nprocs):
            self._versions[r] = 0
            self._updated_at[r] = self.sim.now if self.sim is not None else 0.0
        self._arm_timer()

    # ----------------------------------------------------------- solver API

    def on_local_change(self, delta: Load, *, slave_task: bool = False) -> None:
        """Accumulate every variation; bump my version past the threshold.

        No reservation broadcasts exist, so slave-task variations are
        published like any other (their effect becomes gossip-visible when
        the work physically arrives).
        """
        self._require_bound()
        self._set_my_load(self._my_load + delta)
        self._accum = self._accum + delta
        if self._accum.abs_exceeds(self.config.threshold):
            self._stamp_self()
            self._accum = Load.ZERO

    def _stamp_self(self) -> None:
        assert self.sim is not None
        self._versions[self.rank] += 1
        self._updated_at[self.rank] = self.sim.now
        self._dirty.add(self.rank)

    def request_view(self, callback: ViewCallback) -> None:
        self._require_bound()
        self._note_staleness()
        callback(self.view.copy())

    def record_decision(self, assignments: Dict[int, Load]) -> None:
        """Patch my own view optimistically; no broadcast.

        The entries keep their version, so the slaves' next (authoritative)
        rumors overwrite the optimistic estimates.
        """
        super().record_decision(assignments)
        for rank, share in assignments.items():
            if rank != self.rank:
                self.view.add(rank, share)

    def declare_no_more_master(self) -> None:
        # Deliberately silent: the broadcast would cost P-1 messages per
        # rank (O(P²) total) and gossip needs every rank as a relay anyway.
        self._announced_no_more_master = True

    def shutdown(self) -> None:
        super().shutdown()
        if self._timer is not None and self.sim is not None:
            self.sim.cancel(self._timer)
            self._timer = None

    def on_restart(self) -> None:
        """Crash-with-restart: re-arm the round timer (it died with the
        crash) and re-version my own entry so the authoritative value
        spreads epidemically on top of the rejoin announcement."""
        self._timer = None
        self._stamp_self()
        self._arm_timer()
        super().on_restart()

    # -------------------------------------------------------------- rounds

    def _arm_timer(self) -> None:
        assert self.sim is not None
        self._timer = self.sim.schedule(
            self.period, self._round, label=f"gossip:P{self.rank}"
        )

    def _round(self) -> None:
        self._timer = None
        if self._dirty:
            self._push_rumors()
        self._arm_timer()

    def _push_rumors(self) -> None:
        assert self.sim is not None and self._topo is not None
        pool = [
            r
            for r in self._topo.neighbors(self.rank)
            if r not in self._suspected
        ]
        if not pool:
            # Topology repair fallback: every graph neighbor is suspected
            # crashed — gossip to any live rank so the epidemic keeps
            # flowing instead of partitioning around the corpses.
            pool = self._live_peers()
        if pool:
            entries: Dict[int, Tuple[int, Load]] = {
                r: (self._versions[r], self.view.get(r))
                for r in sorted(self._dirty)
            }
            rng = self.sim.rng.stream(f"gossip:P{self.rank}")
            n = min(self.fanout, len(pool))
            targets = rng.choice(len(pool), size=n, replace=False)
            self._note_round(n)
            for i in sorted(int(t) for t in targets):
                self._send_state(pool[i], GossipLoad(entries=dict(entries)))
            self.updates_sent += 1
            self.rounds_sent += 1
        self._dirty.clear()

    # --------------------------------------------------------- message side

    def _on_gossip_load(self, env: Envelope) -> None:
        payload = env.payload
        assert isinstance(payload, GossipLoad)
        assert self.sim is not None
        for rank in sorted(payload.entries):
            if rank == self.rank:
                continue  # I am the authority on my own entry.
            version, load = payload.entries[rank]
            if version > self._versions[rank]:
                self._versions[rank] = version
                self._updated_at[rank] = self.sim.now
                self.view.set(rank, load)
                self._dirty.add(rank)

    def _apply_state_sync(self, src: int, load: Load) -> None:
        # Absolute resync: install without touching the version counter —
        # the owner's next versioned rumor stays strictly newer.
        assert self.sim is not None
        self.view.set(src, load)
        self._updated_at[src] = self.sim.now

    # ------------------------------------------------------------ telemetry

    def _note_round(self, nsent: int) -> None:
        if self.shared.metrics is None:
            return
        slots = self.shared.metric_slots
        rounds = slots.get("gossip_rounds")
        if rounds is None:
            rounds = self._resolve_metric_slot(
                "gossip_rounds", "counter", "gossip_rounds_total",
                help="Gossip rounds fired across all ranks",
            )
        rounds.inc()
        key = "fanout:" + self.name
        fanout = slots.get(key)
        if fanout is None:
            fanout = self._resolve_metric_slot(
                key, "counter", "fanout_messages_total",
                {"mechanism": self.name},
                help="Bounded-fanout state messages, by mechanism",
            )
        fanout.inc(nsent)

    def _note_staleness(self) -> None:
        if self.shared.metrics is None or self.sim is None or self.nprocs <= 1:
            return
        now = self.sim.now
        total = sum(
            now - self._updated_at[r]
            for r in range(self.nprocs)
            if r != self.rank
        )
        key = "staleness:" + self.name
        h = self.shared.metric_slots.get(key)
        if h is None:
            h = self._resolve_metric_slot(
                key, "histogram", "view_staleness_seconds",
                {"mechanism": self.name},
                help="Mean age of remote view entries at round time",
            )
        h.observe(total / (self.nprocs - 1))


register_mechanism(GossipMechanism)
