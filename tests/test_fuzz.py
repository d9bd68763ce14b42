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


class TestRandomConnectedGraph:
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
