"""Neighborhood load exchange — topology-aware, hop-decayed estimates.

Extension mechanism (not in the paper), modeled on Charm++'s
``DistNeighborsLB``: each rank exchanges load only with its neighbors in a
fixed :mod:`repro.topology` graph.  On a significant variation it sends its
absolute load (``hops = 0``) to every neighbor; receivers install those
entries *exactly* and relay the message outward, incrementing the hop
counter, up to ``neighbor_horizon`` hops.  Relayed copies are **blended**
into the view with a per-hop decay factor — ranks keep exact views of their
neighborhood and increasingly distrusted estimates beyond it.  Per-origin
version numbers make each relay wave traverse every rank at most once, so a
single update costs ~O(P) messages on a bounded-degree graph instead of the
all-to-all mechanisms' P-1 broadcast fan-out per *sender* (O(P²) total).

Dynamic decisions follow ``DistNeighborsLB``'s locality rule: slaves are
selected *among the neighbors only* (:meth:`decision_candidates`), which is
exactly where the view is exact.  Reservations reuse the snapshot scheme's
point-to-point ``master_to_slave`` message; a reserved-load ledger lets the
slave skip the double-counted arrival later while self-healing if the
reservation itself was lost on a faulty network.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Dict, List, Mapping, Optional, Type

from ..simcore.network import Envelope, Payload
from ..topology import Topology, build_topology
from .base import Mechanism, MechanismConfig, ViewCallback
from .messages import MasterToSlave, NeighborLoad
from .registry import register_mechanism
from .view import Load

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.api import ProcessLike
    from .base import MechanismShared


class NeighborhoodMechanism(Mechanism):
    """Exact neighbor views, decayed estimates beyond (DistNeighborsLB style)."""

    name = "neighborhood"
    maintains_view = True

    DEFAULT_TOPOLOGY = "ring"
    DEFAULT_HORIZON = 2
    DEFAULT_DECAY = 0.5

    HANDLERS: ClassVar[Mapping[Type[Payload], str]] = {
        NeighborLoad: "_on_neighbor_load",
        MasterToSlave: "_on_master_to_slave",
    }

    def __init__(self, config: Optional[MechanismConfig] = None) -> None:
        super().__init__(config)
        self._accum = Load.ZERO
        self._version = 0
        #: Highest version seen per origin (relay-once dedup).
        self._seen_version: Dict[int, int] = {}
        self._updated_at: Dict[int, float] = {}
        #: Load reserved for me by masters but not yet physically arrived.
        self._reserved = Load.ZERO
        self._topo: Optional[Topology] = None

    @property
    def horizon(self) -> int:
        h = self.config.neighbor_horizon
        return h if h > 0 else self.DEFAULT_HORIZON

    @property
    def decay(self) -> float:
        d = self.config.neighbor_decay
        return d if d > 0 else self.DEFAULT_DECAY

    def bind(
        self, proc: "ProcessLike", shared: Optional["MechanismShared"] = None
    ) -> None:
        super().bind(proc, shared)
        self._topo = self._run_topology(self.DEFAULT_TOPOLOGY, build_topology)

    def _after_initialize(self) -> None:
        now = self.sim.now if self.sim is not None else 0.0
        for r in range(self.nprocs):
            self._seen_version[r] = 0
            self._updated_at[r] = now

    # ----------------------------------------------------------- solver API

    def on_local_change(self, delta: Load, *, slave_task: bool = False) -> None:
        self._require_bound()
        if slave_task and delta.workload >= 0 and delta.memory >= 0:
            # The master reserved this work via master_to_slave; consume the
            # ledger instead of double-counting the arrival.  Any excess
            # (reservation lost on a faulty network) is accounted normally —
            # the ledger self-heals.
            take_w = min(delta.workload, self._reserved.workload)
            take_m = min(delta.memory, self._reserved.memory)
            self._reserved = Load(
                self._reserved.workload - take_w, self._reserved.memory - take_m
            )
            delta = Load(delta.workload - take_w, delta.memory - take_m)
            if delta.is_zero():
                return
        self._bump(delta)

    def _bump(self, delta: Load) -> None:
        """Apply a publishable local variation; notify neighbors past the
        threshold."""
        self._set_my_load(self._my_load + delta)
        self._accum = self._accum + delta
        if self._accum.abs_exceeds(self.config.threshold):
            self._publish()
            self._accum = Load.ZERO

    def _live_neighbors(self) -> List[int]:
        """Graph neighbors not currently suspected crashed.

        Topology repair: when *every* neighbor is suspected, fall back to
        all live ranks — a rank whose whole neighborhood died must not end
        up mute and blind on a partitioned ring.
        """
        assert self._topo is not None
        live = [
            r
            for r in self._topo.neighbors(self.rank)
            if r not in self._suspected
        ]
        return live if live else self._live_peers()

    def _publish(self) -> None:
        assert self._topo is not None
        self._version += 1
        targets = self._live_neighbors()
        self._note_broadcast("threshold")
        self._note_fanout(len(targets))
        for dst in targets:
            self._send_state(
                dst,
                NeighborLoad(
                    origin=self.rank, load=self._my_load,
                    version=self._version, hops=0,
                ),
            )
        self.updates_sent += 1
        self._maybe_refresh()

    def request_view(self, callback: ViewCallback) -> None:
        self._require_bound()
        self._note_staleness()
        callback(self.view.copy())

    def decision_candidates(self) -> Optional[List[int]]:
        """Select slaves among the live neighbors — where the view is exact
        (with the dead-neighborhood fallback of :meth:`_live_neighbors`)."""
        assert self._topo is not None
        if self._suspected:
            return self._live_neighbors()
        return list(self._topo.neighbors(self.rank))

    def record_decision(self, assignments: Dict[int, Load]) -> None:
        """Reserve each share with a point-to-point ``master_to_slave``."""
        super().record_decision(assignments)
        self._require_bound()
        self._note_broadcast("reservation")
        for rank, share in assignments.items():
            if rank == self.rank:
                continue
            self._send_state(
                rank, MasterToSlave(delta=share, decision=self.decisions)
            )
            self.view.add(rank, share)

    def declare_no_more_master(self) -> None:
        # Suppressed for the same reason as gossip: the broadcast is O(P²)
        # in aggregate and neighbors are needed as relays regardless.
        self._announced_no_more_master = True

    def on_restart(self) -> None:
        """Crash-with-restart: republish my checkpointed load to the (live)
        neighborhood so relay waves re-propagate it past one hop; the base
        rejoin broadcast re-anchors the direct entries everywhere."""
        self._accum = Load.ZERO
        self._publish()
        super().on_restart()

    # ------------------------------------------------------ resilience hooks

    def _maybe_refresh(self) -> None:
        """Bounded-fanout variant of the base refresh: sync neighbors only."""
        if not self.config.resilience or self.config.refresh_every <= 0:
            return
        self._updates_since_refresh += 1
        if self._updates_since_refresh < self.config.refresh_every:
            return
        self._updates_since_refresh = 0
        assert self._topo is not None
        self._note_broadcast("refresh")
        for dst in self._live_neighbors():
            self._send_sync(dst)

    def _apply_state_sync(self, src: int, load: Load) -> None:
        assert self.sim is not None
        self.view.set(src, load)
        self._updated_at[src] = self.sim.now

    # --------------------------------------------------------- message side

    def _on_neighbor_load(self, env: Envelope) -> None:
        payload = env.payload
        assert isinstance(payload, NeighborLoad)
        assert self.sim is not None and self._topo is not None
        origin = payload.origin
        if origin == self.rank:
            return
        if payload.version <= self._seen_version[origin]:
            return  # stale or already-relayed wave
        self._seen_version[origin] = payload.version
        self._updated_at[origin] = self.sim.now
        if payload.hops == 0:
            # Straight from a neighbor: exact.
            self.view.set(origin, payload.load)
        else:
            # Relayed estimate: blend with per-hop decay.
            alpha = self.decay ** payload.hops
            current = self.view.get(origin)
            self.view.set(origin, current + (payload.load - current) * alpha)
        next_hops = payload.hops + 1
        if next_hops > self.horizon:
            return
        relays = [
            dst
            for dst in self._topo.neighbors(self.rank)
            if dst != env.src and dst != origin and dst not in self._suspected
        ]
        self._note_fanout(len(relays))
        for dst in relays:
            self._send_state(
                dst,
                NeighborLoad(
                    origin=origin, load=payload.load,
                    version=payload.version, hops=next_hops,
                ),
            )

    def _on_master_to_slave(self, env: Envelope) -> None:
        payload = env.payload
        assert isinstance(payload, MasterToSlave)
        self._note_reservation_lag(env.send_time)
        sanitizer = self.shared.sanitizer
        if sanitizer is not None:
            sanitizer.reservation_applied(self.rank, env.src, payload.decision)
        self._reserved = self._reserved + payload.delta
        self._set_my_load(self._my_load + payload.delta)

    # ------------------------------------------------------------ telemetry

    def _note_fanout(self, nsent: int) -> None:
        if nsent <= 0 or self.shared.metrics is None:
            return
        key = "fanout:" + self.name
        c = self.shared.metric_slots.get(key)
        if c is None:
            c = self._resolve_metric_slot(
                key, "counter", "fanout_messages_total",
                {"mechanism": self.name},
                help="Bounded-fanout state messages, by mechanism",
            )
        c.inc(nsent)

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


register_mechanism(NeighborhoodMechanism)
