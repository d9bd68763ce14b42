import random

import pytest

from conftest import complete, petersen, random_connected, random_tree, star
from kdom import (
    DisconnectedInput,
    Graph,
    IndexOutOfRange,
    InvalidOrder,
    TooLarge,
    clique_expanded_path,
    cycle,
    direct_product,
    from_edge_list,
    gamma_k_exact,
    gamma_k_oracle,
    gamma_path_cycle,
    is_k_dominating,
    packing_lower,
    path,
)
from kdom.solver import ORACLE_MAX_N


class TestIsKDominating:
    def test_cycle_pair(self):
        assert is_k_dominating(cycle(6), {0, 3}, 1)

    def test_path_center(self):
        assert is_k_dominating(path(5), {2}, 2)

    def test_path_end_too_far(self):
        assert not is_k_dominating(path(5), {0}, 2)

    def test_disconnected_needs_vertex_per_component(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        assert not is_k_dominating(g, {0}, 3)
        # k >= n: the unreachable sentinel n must still count as too far
        assert not is_k_dominating(g, {0}, 4)
        assert not is_k_dominating(g, {0}, 10**6)
        assert is_k_dominating(g, {0, 2}, 1)

    def test_empty_set_fails_nonempty_graph(self):
        assert not is_k_dominating(path(3), set(), 1)

    def test_bad_vertex(self):
        with pytest.raises(IndexOutOfRange):
            is_k_dominating(path(3), {5}, 1)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            is_k_dominating(path(3), {0}, 0)


class TestOracle:
    def test_clique(self):
        assert gamma_k_oracle(complete(4), 1).value == 1

    def test_cycle_7(self):
        assert gamma_k_oracle(cycle(7), 1).value == 3

    def test_petersen(self):
        # frozen: independent exhaustive enumeration gives 3
        cert = gamma_k_oracle(petersen(), 1)
        assert cert.value == 3
        assert is_k_dominating(petersen(), cert.vertices, 1)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            gamma_k_oracle(path(17), 1)

    def test_cap_is_oracle_constant(self):
        assert gamma_k_oracle(complete(ORACLE_MAX_N), 1).value == 1
        with pytest.raises(TooLarge):
            gamma_k_oracle(complete(ORACLE_MAX_N + 1), 1)

    def test_isolated_vertex_with_huge_k(self):
        # k beyond n must not let the unreachable sentinel count as covered
        g = from_edge_list(3, [(1, 2)])
        for solve in (gamma_k_oracle, gamma_k_exact):
            cert = solve(g, 4)
            assert cert.value == 2
            assert is_k_dominating(g, cert.vertices, 4)

    def test_lexicographically_first_set(self):
        # C6: {0,3} is the first 2-set that 1-dominates
        assert gamma_k_oracle(cycle(6), 1).vertices == (0, 3)

    def test_status_and_soundness(self):
        rng = random.Random(2)
        for _ in range(15):
            g = random_connected(rng, rng.randint(1, 9), rng.random())
            cert = gamma_k_oracle(g, rng.randint(1, 3))
            assert cert.status == "Exact"
            assert list(cert.vertices) == sorted(set(cert.vertices))
            assert cert.value == len(cert.vertices)
            assert is_k_dominating(g, cert.vertices, cert.k)
            assert cert.lower_bound_used <= cert.value


class TestGreedyUpper:
    """With no nodes to search, ``gamma_k_exact`` returns the greedy cover,
    whose size is ``upper_bound_used``."""

    def test_path_center(self):
        cert = gamma_k_exact(path(5), 2, budget_nodes=0)
        assert cert.upper_bound_used == 1 and cert.vertices == (2,)
        assert cert.status == "Exact"  # value 1 matches the trivial bound

    def test_cycle_10(self):
        # frozen: independent enumeration gives gamma_2(C10) = 2
        assert gamma_k_exact(cycle(10), 2, budget_nodes=0).upper_bound_used == 2

    def test_star_center(self):
        cert = gamma_k_exact(star(9), 1, budget_nodes=0)
        assert cert.upper_bound_used == 1 and cert.vertices == (0,)

    def test_never_below_optimum(self):
        rng = random.Random(4)
        for _ in range(20):
            g = random_connected(rng, rng.randint(1, 10), rng.random())
            k = rng.randint(1, 3)
            cert = gamma_k_exact(g, k, budget_nodes=0)
            assert is_k_dominating(g, cert.vertices, k)
            assert cert.upper_bound_used == cert.value >= gamma_k_oracle(g, k).value


class TestPackingLower:
    def test_short_path(self):
        assert packing_lower(path(5), 2) == 1

    def test_path_10(self):
        # greedy from index 0 picks {0,3,6,9}
        assert packing_lower(path(10), 1) == 4

    def test_cycle_6(self):
        assert packing_lower(cycle(6), 1) == 2

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedInput):
            packing_lower(from_edge_list(4, [(0, 1), (2, 3)]), 1)

    def test_connectivity_check_skips_metrics(self):
        g = random_connected(random.Random(4), 60, 0.05)
        packing_lower(g, 2)
        assert g._metrics is None

    def test_matches_distance_row_packing(self):
        # reference: the pairwise-distance greedy, independent of k-balls
        rng = random.Random(8)
        for _ in range(30):
            g = random_connected(rng, rng.randint(1, 25), rng.uniform(0.02, 0.4))
            rows = [g.bfs_distances(v) for v in range(g.n)]
            for k in (1, 2, 3):
                chosen = []
                for v in range(g.n):
                    if all(rows[v][u] >= 2 * k + 1 for u in chosen):
                        chosen.append(v)
                assert packing_lower(g, k) == len(chosen)

    def test_sandwich(self):
        rng = random.Random(6)
        for _ in range(25):
            g = random_connected(rng, rng.randint(1, 10), rng.random())
            k = rng.randint(1, 3)
            gamma = gamma_k_oracle(g, k).value
            assert packing_lower(g, k) <= gamma <= gamma_k_exact(g, k).upper_bound_used


class TestGammaPathCycle:
    def test_examples(self):
        assert gamma_path_cycle(9, 1, "path") == 3
        assert gamma_path_cycle(10, 2, "cycle") == 2
        assert gamma_path_cycle(1, 5, "path") == 1

    def test_invalid_orders(self):
        with pytest.raises(InvalidOrder):
            gamma_path_cycle(0, 1, "path")
        with pytest.raises(InvalidOrder):
            gamma_path_cycle(2, 1, "cycle")
        with pytest.raises(ValueError):
            gamma_path_cycle(5, 1, "clique")


class TestGammaKExact:
    def test_tight_paths(self):
        for k in (1, 2, 3):
            for ell in (1, 2, 3, 4, 5):
                n = ell * (2 * k + 1)
                cert = gamma_k_exact(path(n), k)
                assert cert.value == ell and cert.status == "Exact"
                assert is_k_dominating(path(n), cert.vertices, k)

    def test_cycle_11(self):
        assert gamma_k_exact(cycle(11), 2).value == 3

    def test_petersen_k2(self):
        # radius 2, so one vertex 2-dominates everything
        assert gamma_k_exact(petersen(), 2).value == 1

    def test_matches_oracle(self):
        rng = random.Random(8)
        for _ in range(30):
            g = random_connected(rng, rng.randint(1, 12), rng.random())
            k = rng.randint(1, 3)
            cert = gamma_k_exact(g, k)
            assert cert.status == "Exact"
            assert list(cert.vertices) == sorted(set(cert.vertices))
            assert cert.value == len(cert.vertices)
            assert cert.value == gamma_k_oracle(g, k).value
            assert is_k_dominating(g, cert.vertices, k)

    def test_deterministic_certificate(self):
        rng = random.Random(10)
        for _ in range(10):
            g = random_connected(rng, rng.randint(2, 11), rng.random())
            a = gamma_k_exact(g, 1)
            b = gamma_k_exact(Graph(g.n, g.edges), 1)
            assert (a.value, a.vertices) == (b.value, b.vertices)

    def test_disconnected_sums_components(self):
        g = from_edge_list(9, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8)])
        cert = gamma_k_exact(g, 1)
        assert cert.components == 3
        assert cert.value == 1 + 1 + 2
        assert is_k_dominating(g, cert.vertices, 1)

    def test_disconnected_certificate_golden(self):
        g = from_edge_list(9, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8)])
        assert gamma_k_exact(g, 1).to_dict() == {
            "k": 1, "gamma_k": 4, "set": [1, 3, 6, 7], "status": "Exact", "lower_bound_used": 4,
            "nodes_explored": 0, "method": "BranchAndBound", "components": 3,
        }

    def test_empty_graph(self):
        cert = gamma_k_exact(Graph(0, []), 1)
        assert cert.value == 0 and cert.status == "Exact"
        assert cert.vertices == ()

    def test_budget_exhaustion_keeps_valid_incumbent(self):
        # C4 with k=1 launches a real search (greedy 2 > root bound 1)
        cert = gamma_k_exact(cycle(4), 1, budget_nodes=0)
        assert cert.status == "UpperBoundOnly"
        assert is_k_dominating(cycle(4), cert.vertices, 1)
        assert cert.value >= gamma_k_oracle(cycle(4), 1).value

    def test_budget_stop_in_first_component_marks_whole_certificate(self):
        # the first component needs 2552 nodes; the path 60-61-62 closes at its root
        first = _sparse(5, 60)
        g = Graph(63, [*first.edges, (60, 61), (61, 62)])
        cert = gamma_k_exact(g, 1, budget_nodes=100)
        assert cert.components == 2
        assert cert.status == "UpperBoundOnly"
        assert cert.nodes_explored == 100
        assert is_k_dominating(g, cert.vertices, 1)

    def test_components_after_a_stop_get_no_nodes(self):
        # C4 on 60..63 needs 3 nodes of its own, but the first component
        # already spent the budget, so C4 keeps its greedy pair
        first = _sparse(5, 60)
        g = Graph(64, [*first.edges, (60, 61), (61, 62), (62, 63), (63, 60)])
        cert = gamma_k_exact(g, 1, budget_nodes=100)
        assert cert.status == "UpperBoundOnly" and cert.nodes_explored == 100
        assert sum(v >= 60 for v in cert.vertices) == 2
        assert is_k_dominating(g, cert.vertices, 1)

    def test_negative_budget_acts_like_zero(self):
        for g in (cycle(4), _sparse(5, 60), from_edge_list(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])):
            assert gamma_k_exact(g, 1, budget_nodes=-5) == gamma_k_exact(g, 1, budget_nodes=0)

    def test_time_budget_stops_within_2048_nodes(self):
        g = _sparse(5, 60)  # needs 2552 nodes
        cert = gamma_k_exact(g, 1, budget_seconds=0)
        assert cert.status == "UpperBoundOnly" and cert.nodes_explored < 2048
        assert is_k_dominating(g, cert.vertices, 1)

    def test_disconnected_ample_budget_is_exact_sum(self):
        first = _sparse(5, 60)
        parts = [first, cycle(7), path(10), Graph(1, [])]
        edges, offset = [], 0
        for part in parts:
            edges.extend((u + offset, v + offset) for u, v in part.edges)
            offset += part.n
        cert = gamma_k_exact(Graph(offset, edges), 1)
        assert cert.status == "Exact" and cert.components == 4
        assert cert.value == sum(gamma_k_exact(part, 1).value for part in parts) == 14 + 3 + 4 + 1

    def test_monotone_in_k(self):
        rng = random.Random(12)
        for _ in range(15):
            g = random_connected(rng, rng.randint(1, 11), rng.random())
            values = [gamma_k_exact(g, k).value for k in (1, 2, 3, 4)]
            assert values == sorted(values, reverse=True)

    def test_value_one_iff_radius_at_most_k(self):
        rng = random.Random(14)
        for _ in range(20):
            g = random_connected(rng, rng.randint(1, 11), rng.random())
            for k in (1, 2, 3):
                gamma = gamma_k_exact(g, k).value
                assert (gamma == 1) == (g.metrics().radius <= k)

    def test_closed_form_agreement(self):
        for n in range(1, 17):
            for k in (1, 2, 3):
                assert gamma_k_exact(path(n), k).value == gamma_path_cycle(n, k, "path")
                if n >= 3:
                    assert gamma_k_exact(cycle(n), k).value == gamma_path_cycle(n, k, "cycle")

    def test_spanning_subgraph_monotonicity(self):
        # deleting one edge (keeping it spanning) never lowers gamma_k
        rng = random.Random(16)
        for _ in range(12):
            g = random_connected(rng, rng.randint(3, 9), 0.5)
            k = rng.randint(1, 2)
            base = gamma_k_oracle(g, k).value
            for e in sorted(g.edges):
                sub = Graph(g.n, g.edges - {e})
                assert gamma_k_oracle(sub, k).value >= base

    def test_large_tree_never_raises(self):
        # gamma_1 is about 1100 here: a search as deep as that must still end
        # in a certificate, never an exception
        g = random_tree(random.Random(3), 3000)
        cert = gamma_k_exact(g, 1, budget_nodes=20_000)
        assert cert.status in ("Exact", "UpperBoundOnly")
        assert is_k_dominating(g, cert.vertices, 1)
        assert cert.lower_bound_used <= cert.value <= cert.upper_bound_used
        if cert.status == "Exact":
            assert cert.value == 1121  # agrees with the HiGHS optimum


def _highs_gamma(g: Graph, k: int) -> int:
    """Optimum of the k-ball covering integer program, solved by HiGHS."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    rows, cols = [], []
    for w in range(g.n):
        near = [v for v, d in enumerate(g.bfs_distances(w)) if d <= k]
        rows.extend([w] * len(near))
        cols.extend(near)
    cover = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.n, g.n))
    res = milp(
        c=np.ones(g.n),
        constraints=LinearConstraint(cover, lb=1, ub=np.inf),
        integrality=np.ones(g.n),
        bounds=Bounds(0, 1),
    )
    assert res.status == 0, res.message
    return round(res.fun)


class TestAgainstHighs:
    """Independent exact route beyond the n <= 16 oracle: an integer program."""

    def test_sparse_random_graphs(self):
        pytest.importorskip("scipy")
        rng = random.Random(20)
        for n in (20, 60, 100, 150):
            for k in (1, 2, 3):
                g = random_connected(rng, n, 2.5 / n)
                cert = gamma_k_exact(g, k, budget_nodes=20_000)
                optimum = _highs_gamma(g, k)
                assert is_k_dominating(g, cert.vertices, k)
                if cert.status == "Exact":
                    assert cert.value == optimum, (n, k)
                else:
                    assert cert.value >= optimum, (n, k)


def _sparse(seed: int, n: int) -> Graph:
    return random_connected(random.Random(seed), n, 2.5 / n)


# (id, graph, k, gamma_k, committed ceiling on nodes_explored). The counts are
# deterministic, so the test cannot flake; raising a ceiling needs a stated
# reason in CHANGES.md.
NODE_RATCHET = [
    ("sparse-1-60", lambda: _sparse(1, 60), 1, 14, 785),
    ("sparse-2-90", lambda: _sparse(2, 90), 2, 6, 7316),
    ("sparse-3-120", lambda: _sparse(3, 120), 3, 3, 282),
    ("sparse-5-60", lambda: _sparse(5, 60), 1, 14, 2552),
    ("sparse-8-90", lambda: _sparse(8, 90), 2, 6, 3492),
    ("sparse-11-120", lambda: _sparse(11, 120), 3, 4, 2304),
    ("petersen", petersen, 1, 3, 11),
    ("cycle-25", lambda: cycle(25), 1, 9, 3),
    ("clique-expanded-40-3", lambda: clique_expanded_path(40, 3), 2, 8, 31),
    ("product-c5-p6", lambda: direct_product(cycle(5), path(6)), 1, 8, 87),
]


@pytest.mark.parametrize(
    "build, k, gamma, ceiling", [r[1:] for r in NODE_RATCHET], ids=[r[0] for r in NODE_RATCHET]
)
def test_node_count_ratchet(build, k, gamma, ceiling):
    cert = gamma_k_exact(build(), k)
    assert cert.status == "Exact" and cert.value == gamma
    assert cert.nodes_explored <= ceiling
