import math
import random

import pytest

from conftest import complete, open_root, petersen, random_connected, random_tree
from kdom import (
    BudgetExceeded,
    DisconnectedInput,
    EmptyFactor,
    Graph,
    IndexOutOfRange,
    InvalidOrder,
    PreconditionViolated,
    TooLarge,
    clique_expanded_path,
    cycle,
    cycle_outsider_witness,
    direct_product,
    from_edge_list,
    gamma_k_exact,
    gamma_k_oracle,
    is_k_dominating,
    path,
    preserving_spanning_tree,
    project,
)
import kdom.io
from kdom.io import MAX_EDGES, MAX_VERTICES


def cycle_witness_gadget(k: int, rotation: int = 0, pendant: int = 0):
    """Cycle of length 2k+2 plus an attached path of the same length between
    two antipodal cycle vertices; the path vertex next to the cycle
    k-dominates exactly 2k cycle vertices.

    Returns (graph, cycle_list, v). ``rotation`` relabels where the path
    attaches; ``pendant`` hangs extra tree vertices off the path's far end.
    """
    g_len = 2 * k + 2
    half = k + 1
    a, b = rotation % g_len, (rotation + half) % g_len
    edges = [(i, (i + 1) % g_len) for i in range(g_len)]
    inner = list(range(g_len, g_len + half - 1))
    chain = [a] + inner + [b]
    edges += list(zip(chain, chain[1:]))
    nxt = g_len + half - 1
    tail = inner[-1]
    for _ in range(pendant):
        edges.append((tail, nxt))
        tail = nxt
        nxt += 1
    return Graph(nxt, edges), list(range(g_len)), inner[0]


class TestGenerators:
    def test_path_2_single_edge(self):
        g = path(2)
        assert g.n == 2 and g.edges == {(0, 1)}

    def test_cycle_3_triangle(self):
        assert cycle(3).metrics().girth == 3

    def test_path_7_diameter(self):
        assert path(7).metrics().diameter == 6

    def test_invalid_orders(self):
        with pytest.raises(InvalidOrder):
            path(0)
        with pytest.raises(InvalidOrder):
            cycle(2)

    @pytest.mark.parametrize("family", [path, cycle])
    def test_vertex_cap(self, family):
        with pytest.raises(InvalidOrder, match="above the cap"):
            family(MAX_VERTICES + 1)


class TestCliqueExpandedPath:
    def test_delta_1_recovers_path(self):
        for n_base in (3, 5, 8):
            assert clique_expanded_path(n_base, 1) == path(n_base)

    def test_counts_6_2(self):
        g = clique_expanded_path(6, 2)
        assert g.n == 10
        assert g.metrics().diameter == 5
        assert g.min_degree() == 2

    def test_meets_diameter_bound_with_equality(self):
        # frozen: independent enumeration gives gamma_1 = 2 = (diam+1)/3
        g = clique_expanded_path(6, 2)
        assert gamma_k_oracle(g, 1).value == 2

    def test_shape_invariants(self):
        for n_base in (4, 5, 7):
            for delta in (1, 2, 3):
                g = clique_expanded_path(n_base, delta)
                assert g.n == 2 + (n_base - 2) * delta
                assert g.metrics().diameter == n_base - 1
                assert g.min_degree() >= delta

    def test_invalid(self):
        with pytest.raises(InvalidOrder):
            clique_expanded_path(2, 1)
        with pytest.raises(InvalidOrder):
            clique_expanded_path(4, 0)

    def test_vertex_cap(self):
        # 2 + (3 - 2) * (MAX_VERTICES - 1) = MAX_VERTICES + 1 vertices
        with pytest.raises(InvalidOrder, match="above the cap"):
            clique_expanded_path(3, MAX_VERTICES - 1)

    def test_edge_cap(self, monkeypatch):
        # d = isqrt(2 * MAX_EDGES) + 1 gives d(d - 1)/2 + 2d > MAX_EDGES edges
        # on 2 + d vertices
        with pytest.raises(InvalidOrder, match="edges is above the cap"):
            clique_expanded_path(3, math.isqrt(2 * MAX_EDGES) + 1)
        # the count checked is the count built
        for n_base, delta in ((3, 1), (3, 4), (6, 2), (7, 5)):
            m = clique_expanded_path(n_base, delta).m
            monkeypatch.setattr(kdom.io, "MAX_EDGES", m)
            clique_expanded_path(n_base, delta)
            monkeypatch.setattr(kdom.io, "MAX_EDGES", m - 1)
            with pytest.raises(InvalidOrder, match="edges is above the cap"):
                clique_expanded_path(n_base, delta)
            monkeypatch.undo()


class TestDirectProduct:
    def test_k2_k2_is_disconnected_matching(self):
        g = direct_product(path(2), path(2))
        assert g.n == 4 and g.edges == {(0, 3), (1, 2)}
        assert not g.metrics().connected

    def test_c3_c3(self):
        # frozen: BFS check shows the product is connected and 4-regular
        g = direct_product(cycle(3), cycle(3))
        assert g.n == 9
        assert {g.degree(v) for v in range(9)} == {4}
        assert g.metrics().connected

    def test_p2_p3_counts(self):
        g = direct_product(path(2), path(3))
        assert (g.n, g.m) == (6, 4)

    def test_edge_count_is_twice_product(self):
        rng = random.Random(19)
        for _ in range(10):
            a = random_connected(rng, rng.randint(2, 6), rng.random())
            b = random_connected(rng, rng.randint(2, 6), rng.random())
            assert direct_product(a, b).m == 2 * a.m * b.m

    def test_empty_factor(self):
        with pytest.raises(EmptyFactor):
            direct_product(Graph(0, []), path(2))

    def test_vertex_cap(self):
        side = math.isqrt(MAX_VERTICES) + 1  # side * side >= MAX_VERTICES + 1
        with pytest.raises(TooLarge, match="above the cap"):
            direct_product(Graph(side, []), Graph(side, []))

    def test_edge_cap(self, monkeypatch):
        k50 = complete(50)  # 2500 product vertices, 2 * 1225^2 product edges
        assert 2 * k50.m**2 > MAX_EDGES
        with pytest.raises(TooLarge, match="edges is above the cap"):
            direct_product(k50, k50)
        a, b = petersen(), cycle(5)
        monkeypatch.setattr(kdom.io, "MAX_EDGES", 2 * a.m * b.m)
        assert direct_product(a, b).m == 2 * a.m * b.m
        monkeypatch.setattr(kdom.io, "MAX_EDGES", 2 * a.m * b.m - 1)
        with pytest.raises(TooLarge, match="edges is above the cap"):
            direct_product(a, b)

    def test_commutes_up_to_coordinate_swap(self):
        rng = random.Random(21)
        for _ in range(10):
            a = random_connected(rng, rng.randint(2, 5), rng.random())
            b = random_connected(rng, rng.randint(2, 5), rng.random())
            ab = direct_product(a, b)
            ba = direct_product(b, a)
            # relabel (g,h) -> (h,g): flat g*nb+h maps to h*na+g
            swap = lambda f: (f % b.n) * a.n + f // b.n
            relabeled = {tuple(sorted((swap(u), swap(v)))) for u, v in ab.edges}
            assert relabeled == ba.edges


class TestProjection:
    def test_empty(self):
        assert project([], "left", 3) == set()

    def test_example(self):
        verts = [0, 7]  # (0, 0) and (2, 1) with h_order 3
        assert project(verts, "left", 3) == {0, 2}
        assert project(verts, "right", 3) == {0, 1}

    def test_collapse(self):
        verts = range(4)  # (0, h) for every h with h_order 4
        assert project(verts, "left", 4) == {0}

    def test_matches_divmod(self):
        # flat index f of G x H stands for (f // n(H), f % n(H))
        for g, h in ((path(3), path(4)), (path(5), path(2))):
            for f in range(direct_product(g, h).n):
                left, right = divmod(f, h.n)
                assert project([f], "left", h.n) == {left}
                assert project([f], "right", h.n) == {right}

    def test_negative_index_rejected(self):
        with pytest.raises(IndexOutOfRange):
            project([-1], "left", 3)

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
            project([0], "middle", 3)

    @pytest.mark.parametrize("vertices, h_order", [([1], 0), ([1, 5], -3)])
    def test_order_below_one_rejected(self, vertices, h_order):
        with pytest.raises(InvalidOrder, match="h_order must be >= 1"):
            project(vertices, "left", h_order)


class TestPreservingSpanningTree:
    def test_connectivity_check_skips_metrics(self):
        g = cycle(9)
        preserving_spanning_tree(g, 1)
        assert g._metrics is None

    def test_c6_becomes_path(self):
        res = preserving_spanning_tree(cycle(6), 1)
        degs = sorted(res.tree.degree(v) for v in range(6))
        assert degs == [1, 1, 2, 2, 2, 2]  # a 6-path
        assert gamma_k_oracle(res.tree, 1).value == 2 == res.certificate.value

    def test_tree_input_is_identity(self):
        rng = random.Random(25)
        for _ in range(10):
            t = random_tree(rng, rng.randint(1, 12))
            res = preserving_spanning_tree(t, rng.randint(1, 3))
            assert res.tree == t

    def test_petersen(self):
        res = preserving_spanning_tree(petersen(), 1)
        assert gamma_k_oracle(res.tree, 1).value == 3

    def test_structure_and_preservation(self):
        rng = random.Random(27)
        for _ in range(20):
            g = random_connected(rng, rng.randint(2, 12), rng.random())
            k = rng.randint(1, 2)
            res = preserving_spanning_tree(g, k)
            assert res.tree.n == g.n and res.tree.m == g.n - 1
            assert res.tree.edges <= g.edges
            assert res.tree.metrics().connected
            assert len(res.connectors) == len(res.dominating_set) - 1
            g_dist = [g.bfs_distances(v) for v in range(g.n)]
            t_dist = [res.tree.bfs_distances(v) for v in range(g.n)]
            s = res.dominating_set
            for v in range(g.n):
                root = s[res.partition[v]]
                d_to_set = min(g_dist[v][x] for x in s)
                assert t_dist[v][root] == g_dist[v][root] == d_to_set <= k
            assert gamma_k_oracle(res.tree, k).value == res.certificate.value

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedInput):
            preserving_spanning_tree(from_edge_list(4, [(0, 1), (2, 3)]), 1)

    def test_budget_propagates(self):
        assert gamma_k_exact(open_root(), 1).nodes_explored > 0  # the root stays open
        with pytest.raises(BudgetExceeded):
            preserving_spanning_tree(open_root(), 1, budget_nodes=0)

    def test_empty_graph_gets_empty_tree(self):
        for k in (1, 3):
            res = preserving_spanning_tree(Graph(0, []), k)
            assert res.tree == Graph(0, [])
            assert res.dominating_set == res.partition == res.connectors == ()
            assert res.certificate.value == 0 and res.certificate.status == "Exact"


class TestCycleOutsiderWitness:
    def test_c4_apex(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 2)])
        wit = cycle_outsider_witness(g, [0, 1, 2, 3], 4, 1)
        assert (wit.u, wit.w) == (0, 2)
        assert wit.path_u == (4, 0) and wit.path_w == (4, 2)

    def test_c6_chain(self):
        g = from_edge_list(
            8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (6, 0), (7, 6), (7, 3)]
        )
        wit = cycle_outsider_witness(g, [0, 1, 2, 3, 4, 5], 6, 2)
        assert wit.u == 0
        assert wit.w not in wit.path_u and wit.u not in wit.path_w

    def test_pendant_dominates_too_little(self):
        g = from_edge_list(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (6, 0)])
        with pytest.raises(PreconditionViolated):
            cycle_outsider_witness(g, [0, 1, 2, 3, 4, 5], 6, 1)

    def test_rejects_non_shortest_cycle(self):
        g = complete(4)
        with pytest.raises(PreconditionViolated):
            cycle_outsider_witness(g, [0, 1, 2, 3], 0, 1)  # girth is 3

    def test_rejects_vertex_on_cycle(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 2)])
        with pytest.raises(PreconditionViolated):
            cycle_outsider_witness(g, [0, 1, 2, 3], 1, 1)

    def test_gadget_family(self):
        for k in (1, 2, 3):
            for rotation in range(2 * k + 2):
                for pendant in (0, 1):
                    g, cyc, v = cycle_witness_gadget(k, rotation, pendant)
                    assert g.metrics().girth == len(cyc)  # gadget keeps the cycle shortest
                    dist_v = g.bfs_distances(v)
                    assert sum(1 for c in cyc if dist_v[c] <= k) >= 2 * k
                    wit = cycle_outsider_witness(g, cyc, v, k)
                    assert dist_v[wit.u] <= k and dist_v[wit.w] <= k
                    assert wit.w not in wit.path_u and wit.u not in wit.path_w
                    _assert_shortest_path(g, dist_v, wit.path_u)
                    _assert_shortest_path(g, dist_v, wit.path_w)

    def test_girth_read_without_metrics(self, monkeypatch):
        # the witness needs only the girth, never the eccentricity sweeps
        expected = cycle_outsider_witness(*cycle_witness_gadget(3, rotation=2, pendant=1), 3)

        def no_metrics(self):
            raise AssertionError("metrics() called")

        monkeypatch.setattr(Graph, "metrics", no_metrics)
        assert cycle_outsider_witness(*cycle_witness_gadget(3, rotation=2, pendant=1), 3) == expected
        with pytest.raises(PreconditionViolated, match="girth is 3"):
            cycle_outsider_witness(complete(4), [0, 1, 2, 3], 0, 1)

    def test_adjacent_refinement(self):
        # apex over C4 2-dominates the whole cycle
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 2)])
        wit = cycle_outsider_witness(g, [0, 1, 2, 3], 4, 2, adjacent=True)
        pos = {c: i for i, c in enumerate([0, 1, 2, 3])}
        gap = abs(pos[wit.u] - pos[wit.w])
        assert min(gap, 4 - gap) == 1
        assert wit.w not in wit.path_u and wit.u not in wit.path_w

    # one input per branch of the adjacent refinement; n1 < n2 are the cycle
    # neighbours of w, the lowest vertex of the cycle farthest from v
    @pytest.mark.parametrize("n, edges, v, k, expected, branch", [
        (7, [(0, 1), (0, 2), (0, 5), (0, 6), (2, 3), (2, 5), (2, 6), (3, 6), (4, 5), (5, 6)], 6, 1, (2, 0),
         "n1 as far"),
        (9, [(0, 3), (0, 5), (1, 2), (1, 5), (1, 7), (2, 3), (3, 4), (3, 6), (5, 6), (6, 8)], 2, 2, (5, 0),
         "n2 as far"),
        (9, [(0, 1), (0, 6), (0, 8), (1, 4), (1, 5), (2, 5), (3, 4), (3, 6), (3, 8), (5, 6), (5, 7), (5, 8)], 5, 2,
         (6, 0), "n1 off the path to w"),
    ], ids=["n1-as-far", "n2-as-far", "n1-off-path"])
    def test_adjacent_pair_branches(self, n, edges, v, k, expected, branch):
        g = from_edge_list(n, edges)
        cyc = g.shortest_cycle()
        wit = cycle_outsider_witness(g, cyc, v, k, adjacent=True)
        assert (wit.u, wit.w) == expected
        dist_v = g.bfs_distances(v)
        i = cyc.index(wit.w)
        n1, n2 = sorted((cyc[i - 1], cyc[(i + 1) % len(cyc)]))
        far = dist_v[wit.w]
        taken = ("n1 as far" if dist_v[n1] == far else "n2 as far" if dist_v[n2] == far
                 else "n1 off the path to w" if n1 not in wit.path_w else "n2")
        assert taken == branch
        _assert_shortest_path(g, dist_v, wit.path_u)
        _assert_shortest_path(g, dist_v, wit.path_w)

    @pytest.mark.parametrize("cyc, message", [
        ([0, 1], "cycle must list at least 3 distinct vertices"),
        ([0, 1, 0], "cycle must list at least 3 distinct vertices"),
        ([0, 2, 1, 3], "consecutive cycle vertices 0,2 are not adjacent"),
    ], ids=["short", "repeat", "gap"])
    def test_rejects_what_is_not_a_cycle(self, cyc, message):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 2)])
        with pytest.raises(PreconditionViolated, match=f"^{message}$"):
            cycle_outsider_witness(g, cyc, 4, 1)

    def test_adjacent_requires_full_domination(self):
        g = from_edge_list(
            8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (6, 0), (7, 6), (7, 3)]
        )
        with pytest.raises(PreconditionViolated):
            cycle_outsider_witness(g, [0, 1, 2, 3, 4, 5], 6, 2, adjacent=True)


def _assert_shortest_path(g, dist_v, p):
    assert len(p) == dist_v[p[-1]] + 1
    for a, b in zip(p, p[1:]):
        assert g.has_edge(a, b)


class TestProjectionsDominate:
    def test_projections_dominate_factors(self):
        rng = random.Random(33)
        for _ in range(15):
            a = random_connected(rng, rng.randint(2, 5), rng.random())
            b = random_connected(rng, rng.randint(2, 5), rng.random())
            k = rng.randint(1, 2)
            prod = direct_product(a, b)
            cert = gamma_k_oracle(prod, k) if prod.n <= 16 else None
            if cert is None:
                continue
            assert is_k_dominating(a, project(cert.vertices, "left", b.n), k)
            assert is_k_dominating(b, project(cert.vertices, "right", b.n), k)
