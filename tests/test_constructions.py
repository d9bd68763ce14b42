import random

import pytest

from conftest import complete, petersen, random_connected, random_tree
from kdom import (
    BudgetExceeded,
    DisconnectedInput,
    EmptyFactor,
    Graph,
    InvalidOrder,
    PreconditionViolated,
    ProductVertex,
    clique_expanded_path,
    cycle,
    cycle_outsider_witness,
    direct_product,
    flat_index,
    from_edge_list,
    gamma_k_oracle,
    is_k_dominating,
    path,
    preserving_spanning_tree,
    product_vertex,
    project,
)


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
        verts = [flat_index(0, 0, 3), flat_index(2, 1, 3)]
        assert project(verts, "left", 3) == {0, 2}
        assert project(verts, "right", 3) == {0, 1}

    def test_collapse(self):
        verts = [flat_index(0, h, 4) for h in range(4)]
        assert project(verts, "left", 4) == {0}

    def test_accepts_product_vertices(self):
        pv = product_vertex(7, 3)
        assert pv == ProductVertex(2, 1, 7)
        assert project([pv], "right", 3) == {1}

    def test_flat_round_trip(self):
        for g in range(4):
            for h in range(5):
                assert product_vertex(flat_index(g, h, 5), 5) == ProductVertex(g, h, g * 5 + h)


class TestPreservingSpanningTree:
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
        with pytest.raises(BudgetExceeded):
            preserving_spanning_tree(cycle(4), 1, budget_nodes=0)


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

    def test_adjacent_refinement(self):
        # apex over C4 2-dominates the whole cycle
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 2)])
        wit = cycle_outsider_witness(g, [0, 1, 2, 3], 4, 2, adjacent=True)
        pos = {c: i for i, c in enumerate([0, 1, 2, 3])}
        gap = abs(pos[wit.u] - pos[wit.w])
        assert min(gap, 4 - gap) == 1
        assert wit.w not in wit.path_u and wit.u not in wit.path_w

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
