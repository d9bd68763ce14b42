import math
import random
import tracemalloc

import pytest

from conftest import complete, petersen, random_connected, random_graph, random_tree
from kdom import (
    INF,
    Graph,
    IndexOutOfRange,
    SimplenessViolation,
    cycle,
    from_edge_list,
    iter_bits,
    path,
)


class TestFromEdgeList:
    def test_path_3(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert g.adj == ((1,), (0, 2), (1,))

    def test_cycle_4_all_degree_2(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert all(g.degree(v) == 2 for v in range(4))

    def test_strict_rejects_duplicates_and_loops(self):
        with pytest.raises(SimplenessViolation):
            from_edge_list(3, [(0, 1), (1, 0), (2, 2)], strict=True)
        with pytest.raises(SimplenessViolation):
            from_edge_list(3, [(2, 2)], strict=True)

    def test_lenient_drops_with_warning(self):
        with pytest.warns(UserWarning, match="1 self-loop.*1 duplicate"):
            g = from_edge_list(3, [(0, 1), (1, 0), (2, 2)])
        assert g.m == 1

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(IndexOutOfRange):
            from_edge_list(3, [(-1, 0)])

    def test_adjacency_views_agree(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 12), rng.random())
            for v in range(g.n):
                assert tuple(iter_bits(g.adj_bits[v])) == g.adj[v]
            assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m

    def test_equality_and_hash(self):
        a = from_edge_list(3, [(0, 1), (1, 2)])
        b = from_edge_list(3, [(2, 1), (1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != from_edge_list(3, [(0, 1)])


class TestBfsDistances:
    def test_path_from_end(self):
        assert path(5).bfs_distances(0) == [0, 1, 2, 3, 4]

    def test_cycle_symmetry(self):
        assert cycle(6).bfs_distances(0) == [0, 1, 2, 3, 2, 1]

    def test_disconnected_sentinel(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        assert g.bfs_distances(0) == [0, 1, 4, 4]

    def test_rejects_bad_vertex(self):
        with pytest.raises(IndexOutOfRange):
            path(3).bfs_distances(3)

    def test_symmetric_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 11), rng.random())
            rows = [g.bfs_distances(v) for v in range(g.n)]
            for u in range(g.n):
                for v in range(g.n):
                    assert rows[u][v] == rows[v][u]

    def test_several_sources_give_nearest(self):
        rng = random.Random(6)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 11), rng.random())
            sources = rng.sample(range(g.n), rng.randint(1, g.n))
            rows = [g.bfs_distances(s) for s in sources]
            assert g.bfs_distances(*sources) == [min(col) for col in zip(*rows)]


class TestClosedKNeighborhood:
    def test_k0_is_self(self):
        g = cycle(5)
        for v in range(5):
            assert g.closed_k_neighborhood(v, 0) == 1 << v

    def test_cycle_window(self):
        assert set(iter_bits(cycle(6).closed_k_neighborhood(0, 2))) == {0, 1, 2, 4, 5}

    def test_path_center_covers_all(self):
        assert path(5).closed_k_neighborhood(2, 2) == (1 << 5) - 1

    def test_matches_distance_rows(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            for v in range(g.n):
                row = g.bfs_distances(v)
                for k in range(g.n + 1):
                    # the sentinel n means unreachable, never "within k"
                    want = sum(1 << u for u in range(g.n) if row[u] <= min(k, g.n - 1))
                    assert g.closed_k_neighborhood(v, k) == want
                    assert g.balls(k)[v] == want
            for k in range(g.n + 1):
                assert g.balls(k) is g.balls(k)


class TestMetrics:
    def test_path_7(self):
        m = path(7).metrics()
        assert (m.diameter, m.radius, m.girth) == (6, 3, INF)
        assert m.connected

    def test_cycle_5(self):
        m = cycle(5).metrics()
        assert (m.diameter, m.radius, m.girth) == (2, 2, 5)

    def test_petersen(self):
        # frozen: brute-force all-pairs BFS and exhaustive cycle scan
        m = petersen().metrics()
        assert (m.diameter, m.radius, m.girth) == (2, 2, 5)

    def test_disconnected(self):
        m = from_edge_list(4, [(0, 1), (2, 3)]).metrics()
        assert not m.connected
        assert math.isinf(m.diameter) and math.isinf(m.radius)
        assert all(math.isinf(e) for e in m.ecc)

    def test_connected_iff_no_sentinel(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 11), rng.random())
            rows = [g.bfs_distances(v) for v in range(g.n)]
            has_sentinel = any(d >= g.n for row in rows for d in row)
            assert g.metrics().connected == (not has_sentinel)

    def test_radius_diameter_sandwich(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_connected(rng, rng.randint(2, 12), rng.random())
            m = g.metrics()
            assert m.radius <= m.diameter <= 2 * m.radius

    def test_triangle_inequality(self):
        rng = random.Random(31)
        for _ in range(8):
            g = random_connected(rng, rng.randint(2, 9), rng.random())
            d = [g.bfs_distances(v) for v in range(g.n)]
            for a in range(g.n):
                assert d[a][a] == 0
                for b in range(g.n):
                    for c in range(g.n):
                        assert d[a][c] <= d[a][b] + d[b][c]

    def test_memory_linear_in_n(self):
        # no n x n distance matrix is stored: at n = 400 one would take ~2 MB
        g = path(400)
        tracemalloc.start()
        try:
            g.metrics()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    def test_single_vertex_and_empty(self):
        m1 = Graph(1, []).metrics()
        assert (m1.diameter, m1.radius, m1.connected) == (0, 0, True)
        m0 = Graph(0, []).metrics()
        assert m0.connected and math.isinf(m0.girth)


class TestShortestCycle:
    def test_tree_has_none(self):
        rng = random.Random(3)
        for _ in range(10):
            assert random_tree(rng, rng.randint(1, 12)).shortest_cycle() is None

    def test_cycle_4(self):
        cyc = cycle(4).shortest_cycle()
        assert cyc is not None and sorted(cyc) == [0, 1, 2, 3]

    def test_k4_triangle(self):
        # frozen: exhaustive cycle scan of K4 gives girth 3
        cyc = complete(4).shortest_cycle()
        assert len(cyc) == 3

    def test_length_equals_girth_and_is_valid(self):
        rng = random.Random(17)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 12), rng.random())
            cyc = g.shortest_cycle()
            m = g.metrics()
            if cyc is None:
                assert math.isinf(m.girth)
                continue
            assert len(cyc) == m.girth
            assert len(set(cyc)) == len(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert g.has_edge(a, b)

    def test_cycle_distances_match_graph_distances(self):
        # on a shortest cycle, hop distance along the cycle equals graph distance
        rng = random.Random(29)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 12), rng.random())
            cyc = g.shortest_cycle()
            if cyc is None:
                continue
            dist = [g.bfs_distances(v) for v in range(g.n)]
            glen = len(cyc)
            for i in range(glen):
                for j in range(glen):
                    on_cycle = min(abs(i - j), glen - abs(i - j))
                    assert dist[cyc[i]][cyc[j]] == on_cycle

    def test_deterministic(self):
        rng = random.Random(41)
        for _ in range(10):
            g = random_graph(rng, rng.randint(3, 10), rng.random())
            rebuilt = Graph(g.n, g.edges)
            assert g.shortest_cycle() == rebuilt.shortest_cycle()
