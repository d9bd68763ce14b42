import hashlib
import json
import math
import random
import tracemalloc

import pytest

from conftest import complete, open_root, random_connected
from kdom import (
    DisconnectedInput,
    Graph,
    InfiniteDiameter,
    InfiniteRadius,
    bounds_report,
    cycle,
    from_edge_list,
    gamma_k_exact,
    gamma_k_oracle,
    lb_diameter,
    lb_girth,
    lb_radius,
    path,
    product_bound_check,
    ub_henning_lichiardopol,
    ub_meir_moon,
    ub_tian_xu,
)

INF = math.inf


class TestLowerBoundFormulas:
    def test_diameter_examples(self):
        assert lb_diameter(4, 1) == 2
        assert lb_diameter(0, 3) == 1

    def test_diameter_tight_values(self):
        for k in (1, 2, 3):
            for ell in (1, 2, 3, 4):
                assert lb_diameter(ell * (2 * k + 1) - 1, k) == ell

    def test_radius_examples(self):
        assert lb_radius(3, 1) == 2
        assert lb_radius(0, 1) == 0  # raw formula; reports lift it to 1

    def test_radius_tight_values(self):
        for k in (1, 2, 3):
            for ell in (1, 2):
                assert lb_radius(ell * (2 * k + 1), k) == 2 * ell

    def test_girth_examples(self):
        assert lb_girth(7, 1) == 3
        assert lb_girth(3, 5) == 1  # trivial once the window covers the cycle
        assert lb_girth(12, 2) == 3
        assert gamma_k_oracle(cycle(12), 2).value == 3

    def test_girth_inapplicable_when_acyclic(self):
        assert lb_girth(INF, 1) == 1

    def test_infinite_inputs(self):
        with pytest.raises(InfiniteDiameter):
            lb_diameter(INF, 1)
        with pytest.raises(InfiniteRadius):
            lb_radius(INF, 1)

    @pytest.mark.parametrize(
        "bound, value, message",
        [(lb_diameter, -1, "diameter must be >= 0"), (lb_radius, -1, "radius must be >= 0"),
         (lb_girth, 2, "girth must be >= 3 or infinite")],
    )
    def test_impossible_metric_rejected(self, bound, value, message):
        with pytest.raises(ValueError, match=message):
            bound(value, 1)


class TestUpperBoundFormulas:
    def test_meir_moon(self):
        assert ub_meir_moon(9, 2) == 3
        assert ub_meir_moon(2, 2) is None  # needs n >= k+1

    def test_tian_xu(self):
        assert ub_tian_xu(10, 3, 1) == 7
        assert ub_tian_xu(1, 0, 2) is None

    def test_henning_lichiardopol(self):
        assert ub_henning_lichiardopol(12, 2, 4, 2) == 3
        assert ub_henning_lichiardopol(12, 2, 4, 1) is None  # needs k >= 2
        assert ub_henning_lichiardopol(12, 1, 4, 2) is None  # needs min degree >= 2
        assert ub_henning_lichiardopol(3, 2, 4, 3) is None  # needs n >= maxdeg+k-1

    def test_upper_bounds_hold_on_random_graphs(self):
        rng = random.Random(35)
        for _ in range(25):
            g = random_connected(rng, rng.randint(2, 12), rng.random())
            for k in (1, 2):
                gamma = gamma_k_oracle(g, k).value
                for ub in (
                    ub_meir_moon(g.n, k),
                    ub_tian_xu(g.n, g.max_degree(), k),
                    ub_henning_lichiardopol(g.n, g.min_degree(), g.max_degree(), k),
                ):
                    if ub is not None:
                        assert gamma <= ub


class TestBoundsReport:
    def test_c12_k2(self):
        r = bounds_report(cycle(12), 2)
        assert r.lb_girth == 3
        assert r.lb_diameter == 2
        assert r.exact.value == 3
        assert r.verdict == "Consistent"

    def test_p9_k1(self):
        r = bounds_report(path(9), 1)
        assert r.lb_diameter == 3
        assert r.ub_meir_moon == 4
        assert r.exact.value == 3
        assert r.verdict == "Consistent"

    def test_single_vertex(self):
        r = bounds_report(Graph(1, []), 1)
        assert r.lb_diameter == r.lb_radius == r.lb_girth == r.lb_packing == 1
        assert r.exact.value == 1
        assert r.verdict == "Consistent"

    def test_raw_values_kept(self):
        r = bounds_report(cycle(12), 2)
        assert r.raw_lb_diameter == pytest.approx(7 / 5)
        assert r.raw_lb_radius == pytest.approx(12 / 5)
        assert r.raw_lb_girth == pytest.approx(12 / 5)

    def test_disconnected_graph(self):
        r = bounds_report(from_edge_list(4, [(0, 1), (2, 3)]), 1)
        assert r.lb_diameter is None and r.lb_radius is None
        assert r.exact.value == 2 and r.exact.components == 2
        assert r.verdict == "Consistent"

    def test_exact_unavailable_on_tiny_budget(self):
        assert gamma_k_exact(open_root(), 1).nodes_explored > 0  # the root stays open
        r = bounds_report(open_root(), 1, budget_nodes=0)
        assert r.exact.status == "UpperBoundOnly"
        assert r.verdict == "ExactUnavailable"

    def test_sandwich_on_random_graphs(self):
        rng = random.Random(37)
        for _ in range(25):
            g = random_connected(rng, rng.randint(1, 12), rng.random())
            for k in (1, 2, 3):
                r = bounds_report(g, k)
                assert r.verdict == "Consistent"
                assert r.best_lower <= r.exact.value <= r.best_upper

    def test_to_dict_json_safe(self):
        r = bounds_report(path(4), 1)
        json.dumps(r.to_dict())

    def test_one_component_sweep_for_every_k(self, monkeypatch):
        # connectivity is a cached graph fact: one sweep serves the packing
        # bound and the exact solve of every k, and no BFS runs beyond metrics()
        import kdom.graph

        sweeps, bfs = [], []
        sweep, distances = kdom.graph._components, Graph.bfs_distances
        monkeypatch.setattr(kdom.graph, "_components", lambda g: sweeps.append(g) or sweep(g))
        monkeypatch.setattr(Graph, "bfs_distances", lambda g, *s: bfs.append(s) or distances(g, *s))
        g = path(800)
        reports = [bounds_report(g, k) for k in (1, 2, 3)]
        assert len(sweeps) == 1
        report_bfs = len(bfs)
        path(800).metrics()
        assert report_bfs == len(bfs) - report_bfs  # as many as metrics() alone runs
        # the reports, certificates included, as first produced
        text = json.dumps([r.to_dict() for r in reports], sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "6db792b7c9fd13d449c308a0c8f409c7cc26d70ce3127daf0cc0b0d0ba430708"

    def test_degree_extremes_unchanged(self):
        rng = random.Random(31)
        graphs = [Graph(0, []), Graph(1, []), from_edge_list(6, [(0, 1), (2, 3), (3, 4)]), path(7),
                  *(random_connected(rng, n, 0.12) for n in (8, 20, 40))]
        expected = [(g.min_degree(), g.max_degree()) for g in graphs for _ in (1, 2)]
        reports = [bounds_report(g, k) for g in graphs for k in (1, 2)]
        assert [(r.min_degree, r.max_degree) for r in reports] == expected
        # the reports as produced when the degrees were scanned five times,
        # re-pinned when the fractional root bound closed the 40-vertex
        # graph's k = 2 root (nodes_explored 10 -> 0, lower_bound_used 1 -> 2)
        text = json.dumps([r.to_dict() for r in reports], sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "b61a9fd6830a67a1404731b2e69d8f9b476eb1c21879dd66ce91d442e20afa19"

    def test_one_greedy_cover_per_component(self, monkeypatch):
        # the exact solve's incumbent is the reported greedy bound, not a rerun
        import kdom.solver

        calls = []
        greedy = kdom.solver._greedy_cover
        monkeypatch.setattr(kdom.solver, "_greedy_cover", lambda *a: calls.append(a) or greedy(*a))
        g = path(800)
        reports = [bounds_report(g, k) for k in (1, 2, 3)]
        assert len(calls) == 3
        assert all(r.ub_greedy == r.exact.upper_bound_used for r in reports)

    @staticmethod
    def _report_peak(g):
        tracemalloc.start()
        try:
            bounds_report(g, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_report_memory_on_long_path(self):
        # a path closes at its root, so the solver builds no local bitsets
        # (about n^2/16 bytes per table): what remains, the k-ball table and
        # the root's vertex sets, is linear in n
        assert self._report_peak(path(10000)) < 20 * 2**20

    @pytest.mark.parametrize("make", [path, cycle])
    def test_report_memory_grows_linearly(self, make):
        # the graphs are built outside the traced region; with the local
        # bitsets the peak grew about 3.7x per doubling of n, so about 14x here
        small, large = make(20000), make(80000)
        assert self._report_peak(large) < 8 * self._report_peak(small)


class TestProductBoundCheck:
    def test_triangles(self):
        r = product_bound_check(complete(3), complete(3), 1)
        assert (r.gamma_left, r.gamma_right) == (1, 1)
        assert r.product_connected
        assert r.gamma_product == 3  # frozen: independent enumeration on C3xC3
        assert r.lower_bound == 1 and r.satisfied

    def test_path_times_triangle(self):
        r = product_bound_check(path(4), cycle(3), 1)
        assert r.lower_bound == 2 + 1 - 1
        assert r.gamma_product == 4  # frozen: independent enumeration on the 12-vertex product
        assert r.satisfied

    def test_disconnected_product_is_recorded_not_asserted(self):
        r = product_bound_check(path(2), path(2), 1)
        assert not r.product_connected
        assert r.product_components == 2
        assert r.gamma_product == 2  # per-component sum
        assert r.satisfied is None

    def test_disconnected_factor_rejected(self):
        with pytest.raises(DisconnectedInput):
            product_bound_check(from_edge_list(4, [(0, 1), (2, 3)]), path(2), 1)

    def test_connectivity_check_skips_metrics(self):
        g, h = path(4), cycle(3)
        product_bound_check(g, h, 1)
        assert g._metrics is None and h._metrics is None

    def test_bound_holds_on_random_connected_products(self):
        rng = random.Random(39)
        found = 0
        while found < 10:
            a = random_connected(rng, rng.randint(2, 5), rng.random())
            b = random_connected(rng, rng.randint(2, 5), rng.random())
            r = product_bound_check(a, b, rng.randint(1, 2))
            if r.product_connected:
                found += 1
                assert r.satisfied
