import math
import random
import tracemalloc
from collections import deque

import pytest

from conftest import complete, petersen, random_connected, random_graph, random_tree
from kdom import (
    INF,
    Graph,
    IndexOutOfRange,
    SimplenessViolation,
    clique_expanded_path,
    cycle,
    from_edge_list,
    path,
)


def grid(rows: int, cols: int) -> Graph:
    return Graph(
        rows * cols,
        [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)],
    )


def all_roots_shortest_cycle(g: Graph):
    """Reference: a full BFS from every root, keeping the smallest
    (length, root, u, w) over all non-tree edges (u, w), stopping after the
    root that finds a triangle; the cycle is read off that root's BFS tree."""
    n = g.n
    best = None
    best_parent = None
    for root in range(n):
        if best is not None and best[0] == 3:
            break
        dist = [n] * n
        parent = [-1] * n
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if dist[w] == n:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = (dist[u] + dist[w] + 1, root, u, w)
                    if best is None or cand < best:
                        best, best_parent = cand, parent
    if best is None:
        return None

    def chain(v):
        out = [v]
        while best_parent[out[-1]] != -1:
            out.append(best_parent[out[-1]])
        return out

    _, _, u, w = best
    return tuple(list(reversed(chain(u))) + chain(w)[:-1])


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
                assert g.adj[v] == tuple(sorted(u for e in g.edges if v in e for u in e if u != v))
            assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m

    def test_build_memory_linear_in_n(self):
        # no per-vertex structure may grow with n: one n-bit int per vertex
        # would make the 4x longer path cost about 16x the memory
        peaks = []
        for n in (5000, 20000):
            tracemalloc.start()
            try:
                path(n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] < 6 * peaks[0]

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
        assert cycle(6).closed_k_neighborhood(0, 2) == 0b110111  # {0, 1, 2, 4, 5}

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

    @pytest.mark.parametrize("g", [path(1000), clique_expanded_path(300, 3)], ids=repr)
    def test_few_bfs_on_path_like_graphs(self, g, monkeypatch):
        # bound propagation settles these in a handful of sweeps, not n
        calls = []
        bfs = Graph.bfs_distances

        def counted(self, *sources):
            calls.append(sources)
            return bfs(self, *sources)

        monkeypatch.setattr(Graph, "bfs_distances", counted)
        g.metrics()
        assert len(calls) <= 12

    def test_components_ordered_and_cached(self):
        g = from_edge_list(6, [(3, 4), (0, 2), (4, 5)])
        assert g.components() == ((0, 2), (1,), (3, 4, 5))
        assert g.components() is g.components()
        assert not g.is_connected()
        assert Graph(0, []).components() == () and Graph(0, []).is_connected()

    def test_components_memory_linear_in_n(self):
        # one n-bit mask per isolated vertex would take about n^2/16 bytes
        g = Graph(40000, [])
        tracemalloc.start()
        try:
            g.components()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_is_connected_matches_metrics(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 12), rng.random() * 0.5)
            assert g.is_connected() == Graph(g.n, g.edges).metrics().connected


class TestMetricsAgainstNetworkx:
    """Eccentricities, diameter, radius and girth against networkx at n ~ 1000."""

    @staticmethod
    def to_networkx(nx, g: Graph):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        return h

    @pytest.mark.parametrize(
        "g",
        [
            random_connected(random.Random(5), 1000, 0.002),
            grid(30, 30),
            random_tree(random.Random(6), 1000),
            cycle(999),
            clique_expanded_path(300, 3),
            petersen(),
        ],
        ids=["random-sparse-1000", "grid-30x30", "tree-1000", "cycle-999", "clique-path-300-3", "petersen"],
    )
    def test_connected(self, g):
        nx = pytest.importorskip("networkx")
        h = self.to_networkx(nx, g)
        ecc = nx.eccentricity(h)
        m = g.metrics()
        assert m.connected
        assert m.ecc == tuple(ecc[v] for v in range(g.n))
        assert m.diameter == max(ecc.values())
        assert m.radius == min(ecc.values())
        assert m.girth == nx.girth(h)

    def test_disconnected(self):
        nx = pytest.importorskip("networkx")
        g = Graph(1000, [e for e in random_connected(random.Random(8), 1000, 0.002).edges if 500 not in e])
        h = self.to_networkx(nx, g)
        m = g.metrics()
        assert not nx.is_connected(h) and not m.connected
        assert all(math.isinf(e) for e in m.ecc) and len(m.ecc) == g.n


class TestTraversalsAgainstNetworkx:
    """Components and k-balls against networkx beyond the sizes enumerated above."""

    @pytest.mark.parametrize(
        "g",
        [random_graph(random.Random(12), 1000, 0.0015), path(2000)],
        ids=["random-sparse-1000", "path-2000"],
    )
    def test_components_and_balls(self, g):
        nx = pytest.importorskip("networkx")
        h = TestMetricsAgainstNetworkx.to_networkx(nx, g)
        comps = sorted(nx.connected_components(h), key=min)
        assert g.components() == tuple(tuple(sorted(c)) for c in comps)
        for k in (1, 2, 3):
            balls = g.balls(k)
            for v in range(g.n):
                near = nx.single_source_shortest_path_length(h, v, cutoff=k)
                assert balls[v] == sum(1 << u for u in near)


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

    def test_matches_all_roots_reference(self):
        rng = random.Random(43)
        for i in range(600):
            n = rng.randint(1, 30)
            p = (0.02, 0.06, 0.12, 0.25, 0.5, 0.9)[i % 6]
            g = random_graph(rng, n, p)
            ref = all_roots_shortest_cycle(g)
            assert g.shortest_cycle() == ref
            assert g.metrics().girth == (INF if ref is None else len(ref))

    def test_deterministic(self):
        rng = random.Random(41)
        for _ in range(10):
            g = random_graph(rng, rng.randint(3, 10), rng.random())
            rebuilt = Graph(g.n, g.edges)
            assert g.shortest_cycle() == rebuilt.shortest_cycle()
