import random

import pytest

from kdom import fuzz, random_connected_graph
from kdom.fuzz import CHECKS


class TestRandomConnectedGraph:
    def test_always_connected(self):
        rng = random.Random(1)
        for p in (0.05, 0.3, 0.9):
            for _ in range(10):
                g = random_connected_graph(rng, rng.randint(2, 10), p)
                assert max(g.bfs_distances(0)) < g.n

    def test_low_p_falls_back_to_tree(self):
        rng = random.Random(2)
        g = random_connected_graph(rng, 12, 0.0, max_attempts=3)
        assert g.m == 11  # spanning tree, no extras at p=0


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
        assert a.to_json() == b.to_json()

    def test_seed_changes_output(self):
        a = fuzz(seed=1, trials=5, n_range=(4, 9), k_set=(1,))
        b = fuzz(seed=2, trials=5, n_range=(4, 9), k_set=(1,))
        assert a.to_json() != b.to_json()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            fuzz(seed=1, trials=1, n_range=(4, 99))
        with pytest.raises(ValueError):
            fuzz(seed=1, trials=1, p_range=(0.9, 0.1))
        with pytest.raises(ValueError):
            fuzz(seed=1, trials=1, k_set=(0,))

    def test_skip_reasons_counted(self):
        report = fuzz(seed=7, trials=15, n_range=(4, 10), k_set=(1,))
        skips = sum(c["skip"] for c in report.checks_run.values())
        assert skips == sum(report.skipped.values())
