import hashlib
import importlib
import json
import random
import types

import pytest

from conftest import random_connected, random_tree
from kdom import Graph, cycle, fuzz, random_connected_graph
from kdom.fuzz import CHECKS, _non_bridges

fuzz_module = importlib.import_module("kdom.fuzz")  # the package re-exports fuzz() over it

# the factors of trial 1 of fuzz(seed=3, trials=2, n_range=(6, 8), k_set=(2,))
LEFT_FACTOR = "4 5\n0 1\n0 2\n0 3\n1 3\n2 3\n"
RIGHT_FACTOR = "5 10\n0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"


def _building_every_draw(rng, n, p):
    """``random_connected_graph`` as it was when every G(n, p) draw was built
    as a ``Graph`` and asked whether it is connected; the reference for the
    draws the union-find now rejects."""
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(1000):
        g = fuzz_module.Graph(n, [e for e in all_pairs if rng.random() < p])
        if g.is_connected():
            return g
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for e in all_pairs:
        if e not in edges and rng.random() < p:
            edges.add(e)
    return fuzz_module.Graph(n, edges)


class TestRandomConnectedGraph:
    def test_same_graphs_and_draws_as_building_every_draw(self):
        params = random.Random(71)
        new, old = random.Random(72), random.Random(72)
        # the last two reach the spanning-tree fallback
        calls = [(params.randint(1, 14), params.uniform(0.0, 0.5)) for _ in range(197)]
        for n, p in [*calls, (0, 0.5), (12, 0.0), (14, 0.005)]:
            g = random_connected_graph(new, n, p)
            assert g == _building_every_draw(old, n, p), (n, p)
            assert new.getstate() == old.getstate()

    def test_one_graph_build_per_call(self, monkeypatch):
        builds = []
        build = fuzz_module.Graph
        monkeypatch.setattr(fuzz_module, "Graph", lambda *a: builds.append(a) or build(*a))
        g = random_connected_graph(random.Random(5), 12, 0.12)
        assert len(builds) == 1
        builds.clear()
        assert _building_every_draw(random.Random(5), 12, 0.12) == g
        assert len(builds) == 17  # 16 draws rejected before it, each built
        builds.clear()
        random_connected_graph(random.Random(5), 12, 0.0)  # every draw rejected: the fallback
        assert len(builds) == 1

    def test_always_connected(self):
        rng = random.Random(1)
        for p in (0.05, 0.3, 0.9):
            for _ in range(10):
                g = random_connected_graph(rng, rng.randint(2, 10), p)
                assert max(g.bfs_distances(0)) < g.n

    def test_low_p_falls_back_to_tree(self):
        rng = random.Random(2)
        g = random_connected_graph(rng, 12, 0.0)
        assert g.m == 11  # spanning tree, no extras at p=0


class TestNonBridges:
    def test_matches_rebuild_per_edge(self):
        # reference: an edge is deletable when the graph stays connected without it
        rng = random.Random(21)
        graphs = [random_tree(rng, rng.randint(1, 20)) for _ in range(40)]
        graphs += [cycle(n) for n in range(3, 23)]
        graphs += [random_connected(rng, rng.randint(2, 20), rng.uniform(0.0, 0.5)) for _ in range(200)]
        for g in graphs:
            deletable = [e for e in sorted(g.edges) if Graph(g.n, g.edges - {e}).is_connected()]
            assert _non_bridges(g) == deletable
        assert all(_non_bridges(g) == [] for g in graphs[:40])
        assert all(_non_bridges(g) == sorted(g.edges) for g in graphs[40:60])


class TestFuzz:
    def test_clean_and_accounted(self):
        report = fuzz(seed=5, trials=10, n_range=(4, 10), k_set=(1, 2))
        assert report.failures == []
        for counters in report.checks_run.values():
            assert counters["pass"] + counters["fail"] + counters["skip"] == 20
        assert set(report.checks_run) == set(CHECKS)

    def test_reproducible(self):
        a = fuzz(seed=123, trials=8, n_range=(4, 9), k_set=(1,))
        b = fuzz(seed=123, trials=8, n_range=(4, 9), k_set=(1,))
        assert a.to_dict() == b.to_dict()

    def test_report_bytes_pinned(self):
        # SHA-256 of the report as first produced; any change to the draw
        # order, the checks or the metrics they read shows up here
        report = fuzz(seed=123, trials=40, n_range=(4, 14), k_set=(1, 2))
        digest = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True, indent=2).encode()).hexdigest()
        assert digest == "a9b15b10890d23ccbcfcaf1f08b247aebe469d4a6277d19d343ce15575ba684b"

    def test_seed_changes_output(self):
        a = fuzz(seed=1, trials=5, n_range=(4, 9), k_set=(1,))
        b = fuzz(seed=2, trials=5, n_range=(4, 9), k_set=(1,))
        assert a.to_dict() != b.to_dict()

    def test_parameter_validation(self):
        for n_range in ((0, 5), (6, 5)):
            with pytest.raises(ValueError, match="bad n_range"):
                fuzz(seed=0, trials=1, n_range=n_range)
        with pytest.raises(ValueError):
            fuzz(seed=1, trials=1, n_range=(4, 99))
        with pytest.raises(ValueError):
            fuzz(seed=1, trials=1, p_range=(0.9, 0.1))
        with pytest.raises(ValueError):
            fuzz(seed=1, trials=1, k_set=(0,))
        with pytest.raises(ValueError):
            fuzz(seed=1, trials=-1)

    def test_skip_reasons_counted(self):
        report = fuzz(seed=7, trials=15, n_range=(4, 10), k_set=(1,))
        skips = sum(c["skip"] for c in report.checks_run.values())
        assert skips == sum(report.skipped.values())

    def test_budget_exhausted_skips(self):
        # with no node budget every solve whose root stays open stops there:
        # the spanning tree's embedded solve and the product's, never a check
        report = fuzz(seed=3, trials=30, budget_nodes=0)
        assert report.failures == []
        assert report.skipped["budget_exhausted"] == 25
        runs = report.checks_run
        assert runs["spanning_tree_preserves_gamma"]["skip"] == 5
        assert runs["projection_dominates_factors"]["skip"] == 10
        assert runs["product_lower_bound"]["skip"] == 10 + report.skipped["disconnected_product"]
        for counters in runs.values():
            assert counters["pass"] + counters["fail"] + counters["skip"] == 60
        assert fuzz(seed=3, trials=30, budget_nodes=0).to_dict() == report.to_dict()
        assert fuzz(seed=3, trials=30).skipped["budget_exhausted"] == 0


class TestFailureEntries:
    """A failed product check records the left factor as its graph."""

    def run(self):
        return fuzz(seed=3, trials=2, n_range=(6, 8), k_set=(2,))

    def test_projection_failure(self, monkeypatch):
        monkeypatch.setattr(fuzz_module, "is_k_dominating", lambda g, s, k: False)
        report = self.run()
        assert report.checks_run["projection_dominates_factors"]["fail"] == 2
        assert report.failures[-1] == {
            "check": "projection_dominates_factors",
            "trial": 1,
            "k": 2,
            "graph": LEFT_FACTOR,
            "right_factor": RIGHT_FACTOR,
        }

    def test_product_bound_failure(self, monkeypatch):
        import kdom.solver

        def zero(g, k, **budget):
            # a Certificate's value is its set size, so a stand-in reports 0
            return types.SimpleNamespace(**vars(kdom.solver.gamma_k_exact(g, k, **budget)), value=0)

        monkeypatch.setattr(fuzz_module, "gamma_k_exact", zero)
        report = self.run()
        assert report.checks_run["product_lower_bound"]["fail"] == 1
        assert report.failures == [
            {
                "check": "product_lower_bound",
                "trial": 1,
                "k": 2,
                "graph": LEFT_FACTOR,
                "right_factor": RIGHT_FACTOR,
                "gamma_product": 0,
                "bound": 1,
            }
        ]
