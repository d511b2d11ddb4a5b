"""Tests for repro.topology: seeded neighbor-graph construction."""

import importlib

import pytest

from repro import run_factorization
from repro.matrices import generators as gen
from repro.solver import driver
from repro.symbolic import analyze_matrix
from repro.topology import (
    Topology,
    build_topology,
    complete,
    hypercube,
    k_regular_random,
    ring,
    tree,
)
from repro.topology.graph import TOPOLOGY_KINDS


def assert_valid(topo, nprocs):
    assert topo.nprocs == nprocs
    for r in range(nprocs):
        for n in topo.neighbors(r):
            assert 0 <= n < nprocs and n != r
            assert r in topo.neighbors(n)  # symmetry
    if nprocs > 1:
        # connectivity: everyone reachable from rank 0
        assert all(topo.distance(0, r) >= 0 for r in range(nprocs))


class TestConstructors:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 8, 17, 64])
    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_valid_and_connected(self, kind, nprocs):
        assert_valid(build_topology(kind, nprocs), nprocs)

    def test_ring_neighbors(self):
        t = ring(8, 1)
        assert t.neighbors(0) == (1, 7)
        assert t.neighbors(3) == (2, 4)

    def test_ring_two_per_side(self):
        t = ring(8, 2)
        assert t.neighbors(0) == (1, 2, 6, 7)

    def test_hypercube_power_of_two(self):
        t = hypercube(8)
        assert t.neighbors(0) == (1, 2, 4)
        assert t.neighbors(5) == (1, 4, 7)
        assert t.diameter == 3

    def test_hypercube_non_power_of_two_connected(self):
        for n in (3, 5, 6, 7, 12, 100):
            assert_valid(hypercube(n), n)

    def test_tree_parents(self):
        t = tree(7, 2)
        assert t.neighbors(0) == (1, 2)
        assert t.neighbors(1) == (0, 3, 4)
        assert t.neighbors(6) == (2,)

    def test_complete_everyone_adjacent(self):
        t = complete(5)
        assert all(t.degree(r) == 4 for r in range(5))
        assert t.diameter == 1

    def test_kreg_degree_near_target(self):
        t = k_regular_random(32, 4, seed=1)
        assert t.max_degree <= 4
        # ring backbone guarantees at least degree 2
        assert all(t.degree(r) >= 2 for r in range(32))

    def test_kreg_small_world_falls_back_to_complete(self):
        t = k_regular_random(4, 4, seed=0)
        assert all(t.degree(r) == 3 for r in range(4))


class TestDeterminism:
    def test_kreg_same_seed_same_graph(self):
        a = k_regular_random(24, 4, seed=7)
        b = k_regular_random(24, 4, seed=7)
        assert a.edges == b.edges

    def test_kreg_different_seed_different_graph(self):
        a = k_regular_random(24, 4, seed=7)
        b = k_regular_random(24, 4, seed=8)
        assert a.edges != b.edges

    def test_aggregation_tree_deterministic(self):
        a = build_topology("hypercube", 16).aggregation_tree()
        b = build_topology("hypercube", 16).aggregation_tree()
        assert a == b


class TestQueries:
    def test_distance_ring(self):
        t = ring(10, 1)
        assert t.distance(0, 5) == 5
        assert t.distance(0, 9) == 1
        assert t.distance(3, 3) == 0

    def test_aggregation_tree_spans(self):
        for kind in TOPOLOGY_KINDS:
            topo = build_topology(kind, 13)
            parents, children = topo.aggregation_tree(0)
            assert parents[0] == -1
            assert sorted(r for cs in children for r in cs) == list(range(1, 13))
            for r in range(1, 13):
                assert r in children[parents[r]]
                # tree edges are graph edges
                assert parents[r] in topo.neighbors(r)

    def test_aggregation_tree_of_tree_kind_is_construction_tree(self):
        topo = build_topology("tree", 9, degree=2)
        parents, _ = topo.aggregation_tree(0)
        assert list(parents) == [-1, 0, 0, 1, 1, 2, 2, 3, 3]

    def test_edges_listed_once(self):
        t = ring(6, 1)
        assert t.edges == [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]


class TestValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            Topology("bad", [[1], []])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            Topology("bad", [[0, 1], [0]])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="not connected"):
            Topology("bad", [[1], [0], [3], [2]])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            build_topology("moebius", 8)

    def test_bad_nprocs_rejected(self):
        with pytest.raises(ValueError, match="nprocs"):
            build_topology("ring", 0)


class TestOneTopologyPerRun:
    """Every rank of a run shares one graph, built once through the
    mechanism module's own ``build_topology``."""

    @pytest.fixture(scope="class")
    def tree(self):
        return analyze_matrix(gen.grid_laplacian((8, 8, 2)), name="topogrid")

    @staticmethod
    def _run(tree, mechanism, monkeypatch):
        module = importlib.import_module(f"repro.mechanisms.{mechanism}")
        builds = []
        original = module.build_topology

        def counting(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        mechs = []
        create = driver.create_mechanism

        def recording(*args, **kwargs):
            mechs.append(create(*args, **kwargs))
            return mechs[-1]

        monkeypatch.setattr(module, "build_topology", counting)
        monkeypatch.setattr(driver, "create_mechanism", recording)
        run_factorization(tree, 8, mechanism=mechanism)
        monkeypatch.undo()
        return mechs, builds

    @pytest.mark.parametrize("mechanism", ["gossip", "neighborhood", "tree_agg"])
    def test_one_build_shared_by_every_rank(self, tree, mechanism, monkeypatch):
        mechs, builds = self._run(tree, mechanism, monkeypatch)
        assert len(mechs) == 8
        assert len(builds) == 1
        assert all(m._topo is mechs[0]._topo for m in mechs)
        assert mechs[0]._topo.nprocs == 8

    @pytest.mark.parametrize("mechanism", ["gossip", "neighborhood", "tree_agg"])
    def test_separate_runs_do_not_share(self, tree, mechanism, monkeypatch):
        first, _ = self._run(tree, mechanism, monkeypatch)
        second, builds = self._run(tree, mechanism, monkeypatch)
        assert len(builds) == 1
        assert first[0]._topo is not second[0]._topo
        assert first[0]._topo.edges == second[0]._topo.edges
