"""Hierarchical load exchange — delta reduction up a tree, summaries down.

Extension mechanism (not in the paper): state information flows along a
reduction tree derived from the configured :mod:`repro.topology` graph
(:meth:`~repro.topology.Topology.aggregation_tree`, default: a 4-ary tree).

* **Up:** when a rank's accumulated variation exceeds the threshold it sends
  a ``tree_delta`` (origin → ∆load) to its tree parent; relays fold the
  entries into their own view opportunistically and forward the batch until
  it reaches the root, which maintains the authoritative global table.  One
  update costs *depth* ≈ log P messages instead of a P-1 broadcast.
* **Down:** the root periodically broadcasts a ``tree_summary`` carrying the
  absolute entries that changed since the last summary; every rank installs
  them and forwards the message to its tree children (P-1 messages per
  summary, amortizing any number of updates).

Like the naive and periodic mechanisms there is no reservation concept, so
the Figure-1 incoherence applies between summaries (masters patch their own
view optimistically); the summary period bounds the staleness instead.  The
§2.3 ``No_more_master`` broadcast is suppressed — O(P²) aggregate cost, and
interior ranks must keep relaying regardless.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
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

from ..simcore.network import Envelope, Payload
from ..topology import Topology, build_topology
from .base import Mechanism, MechanismConfig, ViewCallback
from .messages import TreeDelta, TreeSummary
from .registry import register_mechanism
from .view import Load

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.api import ProcessLike, TimerHandle
    from .base import MechanismShared

#: The aggregation root (rank 0, like the paper's snapshot leader order).
ROOT = 0


class TreeAggMechanism(Mechanism):
    """Reduce load deltas to a root; broadcast compact summaries down."""

    name = "tree_agg"
    maintains_view = True

    DEFAULT_TOPOLOGY = "tree"
    DEFAULT_PERIOD = 5e-4

    HANDLERS: ClassVar[Mapping[Type[Payload], str]] = {
        TreeDelta: "_on_tree_delta",
        TreeSummary: "_on_tree_summary",
    }

    def __init__(self, config: Optional[MechanismConfig] = None) -> None:
        super().__init__(config)
        self._accum = Load.ZERO
        self._parent = -1
        self._children: Tuple[int, ...] = ()
        self._parents: Sequence[int] = ()
        self._children_all: Sequence[Tuple[int, ...]] = ()
        #: Root only: ranks whose entries changed since the last summary.
        self._summary_dirty: Set[int] = set()
        self._updated_at: Dict[int, float] = {}
        self._timer: Optional["TimerHandle"] = None
        self._topo: Optional[Topology] = None
        self.summaries_sent = 0

    @property
    def period(self) -> float:
        p = self.config.gossip_period
        return p if p > 0 else self.DEFAULT_PERIOD

    def bind(
        self, proc: "ProcessLike", shared: Optional["MechanismShared"] = None
    ) -> None:
        super().bind(proc, shared)
        self._topo = self._run_topology(self.DEFAULT_TOPOLOGY, build_topology)
        parents, children = self._topo.aggregation_tree(ROOT)
        # Full static tree kept for crash repair: _eff_parent/_eff_children
        # walk it around suspected ranks.
        self._parents: Sequence[int] = parents
        self._children_all: Sequence[Tuple[int, ...]] = children
        self._parent = parents[self.rank]
        self._children = children[self.rank]

    def _after_initialize(self) -> None:
        now = self.sim.now if self.sim is not None else 0.0
        for r in range(self.nprocs):
            self._updated_at[r] = now
        if self.rank == ROOT:
            self._arm_timer()

    # ----------------------------------------------------------- solver API

    def on_local_change(self, delta: Load, *, slave_task: bool = False) -> None:
        """Accumulate every variation; flush to the parent past the threshold.

        No reservations exist, so slave-task variations are accounted when
        the work physically arrives (naive-mechanism semantics).
        """
        self._require_bound()
        self._set_my_load(self._my_load + delta)
        self._accum = self._accum + delta
        if self._accum.abs_exceeds(self.config.threshold):
            self._flush()
            self._accum = Load.ZERO

    # ---------------------------------------------------------- tree repair

    def _eff_parent(self) -> int:
        """Effective parent: the nearest live ancestor in the static tree
        (walks past suspected ranks; −1 means every ancestor is dead)."""
        p = self._parent
        while p >= 0 and p in self._suspected:
            p = self._parents[p]
        return p

    def _eff_children(self) -> List[int]:
        """Effective children: the static ones, with each suspected child
        recursively replaced by *its* children — orphaned subtrees re-parent
        onto their grandparent."""
        out: List[int] = []
        stack = list(self._children)
        while stack:
            c = stack.pop()
            if c in self._suspected:
                stack.extend(self._children_all[c])
            else:
                out.append(c)
        return sorted(out)

    def _acting_root(self) -> bool:
        """Whether this rank owns the summary timer right now: the static
        root, or a rank whose whole ancestor chain is suspected crashed."""
        return self.rank == ROOT or self._eff_parent() < 0

    def on_peer_suspected(self, rank: int) -> None:
        # Structures repair lazily through _eff_parent/_eff_children; the
        # only eager action is summary-root promotion when my entire
        # ancestor chain just died.
        if self._acting_root() and self._timer is None:
            self._arm_timer()

    def on_peer_rejoined(self, rank: int) -> None:
        # Demotion: a live ancestor means the real root's timer owns the
        # summaries again (a stray armed timer would also stop itself at
        # the next _tick, this just stops it sooner).
        if self.rank != ROOT and not self._acting_root() and self._timer is not None:
            assert self.sim is not None
            self.sim.cancel(self._timer)
            self._timer = None

    def on_restart(self) -> None:
        """Crash-with-restart: re-arm the summary timer if I own it (the
        crash cancelled it); the base rejoin broadcast re-anchors my entry
        in every peer's view."""
        self._timer = None
        if self._acting_root():
            self._arm_timer()
        super().on_restart()

    def _flush(self) -> None:
        if self._acting_root():
            self._summary_dirty.add(self.rank)
            if self.rank != ROOT and self._timer is None:
                # Promoted acting root: the static root's initialize-time
                # arming never happened here.  (ROOT itself must not re-arm:
                # after shutdown() that would leak an immortal timer.)
                self._arm_timer()
            return
        self._note_broadcast("threshold")
        self._note_fanout(1)
        self._send_state(
            self._eff_parent(), TreeDelta(deltas={self.rank: self._accum})
        )
        self.updates_sent += 1
        self._maybe_refresh()

    def request_view(self, callback: ViewCallback) -> None:
        self._require_bound()
        self._note_staleness()
        callback(self.view.copy())

    def record_decision(self, assignments: Dict[int, Load]) -> None:
        """Patch my own view optimistically; the next summaries correct it."""
        super().record_decision(assignments)
        acting = self._acting_root()
        for rank, share in assignments.items():
            if rank != self.rank:
                self.view.add(rank, share)
                if acting:
                    self._summary_dirty.add(rank)

    def declare_no_more_master(self) -> None:
        # Suppressed: O(P²) aggregate cost, and interior tree ranks must
        # keep relaying deltas and summaries regardless.
        self._announced_no_more_master = True

    def shutdown(self) -> None:
        super().shutdown()
        if self._timer is not None and self.sim is not None:
            self.sim.cancel(self._timer)
            self._timer = None

    # ----------------------------------------------------------- summaries

    def _arm_timer(self) -> None:
        assert self.sim is not None
        self._timer = self.sim.schedule(
            self.period, self._tick, label=f"tree-agg:P{self.rank}"
        )

    def _tick(self) -> None:
        self._timer = None
        if not self._acting_root():
            # Demoted between ticks (an ancestor rejoined): the real root's
            # timer owns summaries again, stop self-rescheduling.
            return
        children = self._eff_children()
        if self._summary_dirty and children:
            loads = {
                r: self.view.get(r) for r in sorted(self._summary_dirty)
            }
            self._note_broadcast("timer")
            self._note_fanout(len(children))
            for dst in children:
                self._send_state(dst, TreeSummary(loads=dict(loads)))
            self.summaries_sent += 1
            self._summary_dirty.clear()
        self._arm_timer()

    # ------------------------------------------------------ resilience hooks

    def _maybe_refresh(self) -> None:
        """Bounded variant of the base refresh: sync tree relatives only."""
        if not self.config.resilience or self.config.refresh_every <= 0:
            return
        self._updates_since_refresh += 1
        if self._updates_since_refresh < self.config.refresh_every:
            return
        self._updates_since_refresh = 0
        self._note_broadcast("refresh")
        parent = self._eff_parent()
        if parent >= 0:
            self._send_sync(parent)
        for dst in self._eff_children():
            self._send_sync(dst)

    def _apply_state_sync(self, src: int, load: Load) -> None:
        assert self.sim is not None
        self.view.set(src, load)
        self._updated_at[src] = self.sim.now
        if self._acting_root():
            self._summary_dirty.add(src)

    # --------------------------------------------------------- message side

    def _on_tree_delta(self, env: Envelope) -> None:
        payload = env.payload
        assert isinstance(payload, TreeDelta)
        assert self.sim is not None
        acting = self._acting_root()
        for origin in sorted(payload.deltas):
            if origin == self.rank:
                continue
            self.view.add(origin, payload.deltas[origin])
            self._updated_at[origin] = self.sim.now
            if acting:
                self._summary_dirty.add(origin)
        if not acting:
            self._note_fanout(1)
            self._send_state(
                self._eff_parent(), TreeDelta(deltas=dict(payload.deltas))
            )
        elif self.rank != ROOT and self._timer is None:
            self._arm_timer()

    def _on_tree_summary(self, env: Envelope) -> None:
        payload = env.payload
        assert isinstance(payload, TreeSummary)
        assert self.sim is not None
        for rank in sorted(payload.loads):
            if rank == self.rank:
                continue  # my own entry stays locally authoritative
            self.view.set(rank, payload.loads[rank])
            self._updated_at[rank] = self.sim.now
        children = self._eff_children()
        if children:
            self._note_fanout(len(children))
            for dst in children:
                self._send_state(dst, TreeSummary(loads=dict(payload.loads)))

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


register_mechanism(TreeAggMechanism)
