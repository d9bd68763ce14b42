import math
import random
import tracemalloc
from collections import deque

import pytest

from conftest import complete, petersen, random_connected, random_graph, random_tree, relabelled_path
from kdom import (
    INF,
    Graph,
    IndexOutOfRange,
    SimplenessViolation,
    clique_expanded_path,
    cycle,
    direct_product,
    from_edge_list,
    path,
)
from kdom.graph import _eccentricities


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

    @pytest.mark.parametrize("n, pairs, error, message", [
        # -1 used to wrap to vertex 2, one way only: has_edge(2, 0) but not (0, 2)
        (3, [(0, -1), (0, 1)], IndexOutOfRange, r"vertex -1 not in \[0, 3\)"),
        (3, [(0, 3)], IndexOutOfRange, r"edge \(0,3\) uses a vertex outside \[0, 3\)"),
        (2, [(1, 1)], SimplenessViolation, "self-loop at vertex 1"),  # was kept in adj[1] with m == 0
        (-3, [], ValueError, "vertex count must be >= 0"),  # was built, then written as "-3 0"
    ], ids=["negative", "too-large", "loop", "negative-n"])
    def test_constructor_rejects_bad_endpoints_and_loops(self, n, pairs, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            Graph(n, pairs)

    def test_from_edge_list_checks_first(self):
        # its own messages, before the constructor sees the pairs
        with pytest.raises(IndexOutOfRange, match=r"^edge \(0,-1\) uses a vertex outside \[0, 3\)$"):
            from_edge_list(3, [(0, -1), (0, 1)])
        with pytest.raises(SimplenessViolation, match=r"^self-loop at vertex 1$"):
            from_edge_list(2, [(1, 1)], strict=True)

    def test_adjacency_views_agree(self):
        rng = random.Random(11)
        for _ in range(20):
            n, p = rng.randint(1, 12), rng.random()
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            g = Graph(n, pairs)
            for v in range(g.n):
                assert g.adj[v] == tuple(sorted(u for e in pairs if v in e for u in e if u != v))
            assert g.edges == frozenset(pairs) and g.m == len(pairs)
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

    def test_edges_stored_once(self):
        # only the adjacency tuples stay: a frozenset of edge tuples beside
        # them kept about 184 bytes per edge here, the tuples alone about 41
        tracemalloc.start()
        try:
            g = clique_expanded_path(2000, 3)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 80 * g.m

    def test_equality_and_hash(self):
        a = from_edge_list(3, [(0, 1), (1, 2)])
        b = from_edge_list(3, [(2, 1), (1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != from_edge_list(3, [(0, 1)])
        assert a != from_edge_list(4, [(0, 1), (1, 2)])
        repeated = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert repeated.m == 1 and repeated == Graph(3, [(0, 1)])
        assert path(3) != 3 and Graph.__eq__(path(3), 3) is NotImplemented


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
            assert g.closed_k_neighborhood(v, 0) == (v,)

    def test_cycle_window(self):
        assert cycle(6).closed_k_neighborhood(0, 2) == (0, 1, 2, 4, 5)

    def test_path_center_covers_all(self):
        assert path(5).closed_k_neighborhood(2, 2) == (0, 1, 2, 3, 4)

    def test_matches_distance_rows(self):
        # ascending requests grow each table past the 1-table from the cached
        # one below it; the 0- and 1-tables and descending and single
        # requests run a BFS per ball (k = 1 reads adj)
        rng = random.Random(23)
        graphs = [Graph(0, [])] + [random_graph(rng, rng.randint(1, 10), rng.random()) for _ in range(25)]
        assert sum(g.n == 1 for g in graphs) >= 2
        assert sum(not g.is_connected() for g in graphs) >= 5
        for g in graphs:
            rows = [g.bfs_distances(v) for v in range(g.n)]
            ks = range(g.n + 2)
            # the sentinel n means unreachable, never "within k"
            want = [tuple(tuple(u for u in range(g.n) if row[u] <= min(k, g.n - 1)) for row in rows) for k in ks]
            for order in (ks, reversed(ks)):
                h = Graph(g.n, g.edges)
                for k in order:
                    assert h.balls(k) == want[k]
                    assert h.balls(k) is h.balls(k)
            for k in ks:
                h = Graph(g.n, g.edges)
                assert tuple(h.closed_k_neighborhood(v, k) for v in range(h.n)) == want[k]

    def test_no_lower_table_cached_to_grow_from(self):
        g = path(12)
        g.balls(3)
        assert list(g._balls) == [3]

    def test_negative_k_rejected_before_the_cache(self):
        for g in (Graph(0, []), path(3)):
            with pytest.raises(ValueError):
                g.balls(-1)
            assert not g._balls
        with pytest.raises(ValueError, match="k must be >= 0"):
            path(5).closed_k_neighborhood(0, -1)

    def test_ball_table_memory_without_lower_tables(self):
        # the table itself is 10.9 MB; caching the 29 tables below it would
        # take hundreds
        g = path(20000)
        tracemalloc.start()
        try:
            g.balls(30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10.9 * 2**20

    def test_ball_table_memory_on_edgeless_graph(self):
        # one vertex tuple per vertex: an n-bit int per vertex peaked at 26 MB
        g = Graph(20000, [])
        tracemalloc.start()
        try:
            g.balls(1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_ball_table_memory_on_long_path(self):
        # O(sum of ball sizes) for all three tables: as bitsets they took 78 MB
        g = path(20000)
        tracemalloc.start()
        try:
            for k in (1, 2, 3):
                g.balls(k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


def ball_graphs() -> list[Graph]:
    rng = random.Random(31)
    return (
        [random_graph(rng, rng.randint(1, 14), rng.random()) for _ in range(24)]
        + [clique_expanded_path(b, d) for b, d in ((3, 1), (4, 2), (6, 3), (9, 4))]
        + [complete(n) for n in (1, 2, 5, 8)]
        + [direct_product(petersen(), complete(3)), direct_product(cycle(5), path(4)),
           direct_product(complete(4), complete(4))]
        # leaves 1 and 2 of hub 0, then 0-3-4: equal 2-balls, unequal 1-balls
        + [Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])]
        # balls that are runs of consecutive labels, but not across the cycle's wrap-around
        + [path(13), cycle(11)]
        # no ball of 2 to n - 2 vertices is a run
        + [relabelled_path(13, 5)]
        # the path 0-2-4-1-3-5: its 0-balls are runs that do not abut, as (1,)
        # and (4,) around centre 4, but its 1-table is read off adj
        + [Graph(6, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 5)])]
    )


class TestGrownBallTables:
    @pytest.mark.parametrize("g", ball_graphs(), ids=repr)
    def test_tables_match_cold_bfs(self, g):
        # asked for in ascending k, so every table past the 1-table grows from the one below
        rows = [g.bfs_distances(v) for v in range(g.n)]
        for k in range(5):
            reach = min(k, g.n - 1)  # the sentinel n means unreachable
            assert g.balls(k) == tuple(tuple(u for u, d in enumerate(row) if d <= reach) for row in rows)

    @pytest.mark.parametrize("g", ball_graphs(), ids=repr)
    def test_equal_lower_balls_share_one_tuple(self, g):
        # sharing reaches back one centre in label order, and never joins unequal lower balls
        for k in range(2, 5):
            lower, table = g.balls(k - 1), g.balls(k)
            for v in range(1, g.n):
                assert (table[v] is table[v - 1]) == (lower[v] == lower[v - 1])
            for v in range(g.n):
                for w in range(g.n):
                    if lower[v] != lower[w]:
                        assert table[v] is not table[w]

    @pytest.mark.parametrize("g", ball_graphs(), ids=repr)
    def test_grown_tuples_are_new(self, g):
        # a grown ball is never the tuple of a lower ball, also where one
        # neighbour's run covers it or it equals the centre's own lower ball
        for k in range(1, 5):
            lower, table = g.balls(k - 1), g.balls(k)
            assert not {id(ball) for ball in lower} & {id(ball) for ball in table}

    def test_one_table_after_zero_table_shares_twins(self):
        # a 1-table is read off adj even where the 0-table is cached, so
        # consecutive true twins share one tuple
        g = clique_expanded_path(200, 3)
        g.balls(0)
        assert len({id(ball) for ball in g.balls(1)}) == 200

    def test_clique_cells_share_their_balls(self):
        g = clique_expanded_path(6, 3)  # ends 0 and 13, cells {1,2,3} ... {10,11,12}
        for k in (1, 2, 3):  # the first table is built ball by ball, the others grown
            table = g.balls(k)
            assert len({id(ball) for ball in table}) == 6
            assert all(table[c] is table[c + 1] is table[c + 2] for c in range(1, 13, 3))
        # 596 vertices in 198 cells and two ends: 596 tuples when each was built apart
        assert len({id(ball) for ball in clique_expanded_path(200, 3).balls(1)}) == 200

    @pytest.mark.parametrize("g", ball_graphs(), ids=repr)
    def test_first_table_shares_where_consecutive_balls_are_equal(self, g):
        for k in range(5):
            table = Graph(g.n, g.edges).balls(k)  # a first request, built ball by ball
            for v in range(1, g.n):
                assert (table[v] is table[v - 1]) == (table[v] == table[v - 1])
            assert len({id(ball) for ball in table}) == sum(v == 0 or table[v] != table[v - 1] for v in range(g.n))

    def test_false_twins_share_from_k_3(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        assert g.balls(1)[1] != g.balls(1)[2]
        assert g.balls(2)[1] is not g.balls(2)[2]
        assert g.balls(3)[1] is g.balls(3)[2]


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

    @pytest.mark.parametrize("b, d, sweeps", [(200, 3, 4), (300, 4, 4)])
    def test_twins_of_a_source_need_no_sweep(self, b, d, sweeps, monkeypatch):
        # a true twin of a BFS source has its eccentricity, so a source's
        # cell mates are settled with it (10 and 13 sweeps when each cell
        # was swept vertex by vertex)
        calls = []
        bfs = Graph.bfs_distances
        monkeypatch.setattr(Graph, "bfs_distances", lambda self, *s: calls.append(s) or bfs(self, *s))
        clique_expanded_path(b, d).metrics()
        assert len(calls) == sweeps

    def test_cycle_needs_only_the_connectivity_bfs(self, monkeypatch):
        bfs = Graph.bfs_distances
        for n in range(3, 41):
            g = cycle(n)
            expected = [max(bfs(g, v)) for v in range(n)]
            calls = []

            def counted(self, *sources):
                calls.append(sources)
                return bfs(self, *sources)

            monkeypatch.setattr(Graph, "bfs_distances", counted)
            m = g.metrics()
            monkeypatch.setattr(Graph, "bfs_distances", bfs)
            assert list(m.ecc) == expected
            assert (m.diameter, m.radius) == (max(expected), min(expected))
            assert len(calls) == 1

    def test_disjoint_triangles_stay_disconnected(self):
        # 2-regular but not a cycle: no finite eccentricity
        m = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).metrics()
        assert not m.connected and m.girth == 3
        assert math.isinf(m.diameter) and math.isinf(m.radius)
        assert all(math.isinf(e) for e in m.ecc)

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


def complete_multipartite(*sizes: int) -> Graph:
    """Parts of the given sizes, labelled part by part; a vertex is adjacent
    to every vertex outside its part, so each part is a class of false twins
    and a part of one vertex holds a vertex adjacent to all."""
    part = [p for p, size in enumerate(sizes) for _ in range(size)]
    return Graph(len(part), [(u, v) for u in range(len(part)) for v in range(u + 1, len(part)) if part[u] != part[v]])


def with_copies(g: Graph, rng: random.Random, copies: int) -> Graph:
    """``g`` with ``copies`` vertices added, each a copy of a random vertex
    of ``g``: by turns a true twin (joined to it) and a false twin."""
    edges = set(g.edges)
    adj = [set(nbrs) for nbrs in g.adj]
    for new in range(g.n, g.n + copies):
        v = rng.randrange(g.n)
        nbrs = adj[v] | ({v} if new % 2 else set())
        adj.append(nbrs)
        for u in nbrs:
            adj[u].add(new)
            edges.add((u, new))
    return Graph(g.n + copies, edges)


def twin_graphs() -> list[Graph]:
    rng = random.Random(83)
    return (
        [complete(n) for n in (2, 4, 5, 9)]
        + [clique_expanded_path(b, d) for d in (2, 3, 4) for b in (3, 4, 7, 12)]
        + [complete_multipartite(*sizes) for sizes in ((1, 3), (2, 2), (1, 1, 4), (3, 3, 3), (2, 5, 1, 4))]
        + [with_copies(random_connected(rng, n, p), rng, c)
           for n, p, c in ((6, 0.3, 3), (10, 0.2, 6), (15, 0.1, 10), (20, 0.4, 12), (30, 0.05, 20))]
    )


class TestEccentricitiesWithTwins:
    """Settling a source's true twins with it against all-pairs BFS."""

    @pytest.mark.parametrize("g", twin_graphs(), ids=repr)
    def test_matches_all_pairs(self, g):
        assert g.is_connected()
        expected = [max(g.bfs_distances(v)) for v in range(g.n)]
        assert _eccentricities(g, g.bfs_distances(0)) == expected
        assert list(g.metrics().ecc) == expected

    def test_copies_hold_true_and_false_twins(self):
        graphs = twin_graphs()[-5:]
        closed = [[frozenset((v, *g.adj[v])) for v in range(g.n)] for g in graphs]
        assert all(len(set(c)) < len(c) for c in closed)  # true twins
        assert all(len({frozenset(a) for a in g.adj}) < g.n for g in graphs)  # false twins


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
                assert balls[v] == tuple(sorted(near))


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
