import hashlib
import json
import math
import random
import time
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import pytest

from conftest import broom, complete, open_root, petersen, random_connected, random_graph, random_tree, star
from kdom import (
    Certificate,
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
    preserving_spanning_tree,
)
import kdom.dual
import kdom.solver
from kdom.dual import SCALE, escalate, lagrangian, local_search, weigher
from kdom.solver import ORACLE_MAX_N, _greedy_cover, _packing_count, _root_scan


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

    # (set, nodes_explored) at k = 1, 2, 3 for each graph of _pinned_graphs()
    PINNED = [
        [((0, 2, 3), 53), ((2,), 3), ((0,), 1)],
        [((0, 2, 4, 5), 77), ((0, 1, 4, 5), 71), ((0, 1, 4, 5), 71)],
        [((0, 1), 8), ((0,), 1), ((0,), 1)],
        [((0, 2, 3, 5, 6), 186), ((0, 1, 2, 3, 5), 164), ((0, 1, 2, 3, 5), 164)],
        [((0, 3), 9), ((1,), 2), ((0,), 1)],
        [((1, 5, 6, 8, 9), 886), ((0, 1, 5), 70), ((0, 5), 16)],
        [((2, 3, 6), 181), ((1, 2), 24), ((0,), 1)],
        [((0, 1, 3, 6, 8), 602), ((1, 2, 3, 4), 352), ((0, 1, 2, 3), 232)],
        [((0,), 1), ((0,), 1), ((0,), 1)],
        [((0, 2, 3, 4, 6), 292), ((0, 1, 3, 4, 6), 272), ((0, 1, 3, 4, 6), 272)],
        [((0, 2, 5, 6), 215), ((0, 1), 11), ((0,), 1)],
        [((0, 4, 6, 7, 12), 1487), ((3, 12), 55), ((0, 12), 25)],
        [((0,), 1), ((0,), 1), ((0,), 1)],
        [((0, 5, 7, 9), 435), ((0, 3), 15), ((0, 2), 14)],
        [((0,), 1), ((0,), 1), ((0,), 1)],
        [((1, 2, 4), 33), ((0, 2), 8), ((0, 2), 8)],
        [((0,), 1), ((0,), 1), ((0,), 1)],
        [((0, 1, 5, 6, 8), 880), ((1, 2, 4, 8), 475), ((1, 3, 8), 147)],
        [((0, 1), 8), ((0,), 1), ((0,), 1)],
        [((0, 3, 4, 5, 6), 311), ((0, 3, 4, 5), 166), ((0, 3, 4, 5), 166)],
    ]

    @staticmethod
    def _pinned_graphs():
        # even draws connected, odd draws mostly not (10 of the 20)
        rng = random.Random(29)
        for i in range(20):
            if i % 2:
                yield random_graph(rng, rng.randint(6, 13), rng.uniform(0.12, 0.25))
            else:
                yield random_connected(rng, rng.randint(1, 13), rng.uniform(0, 0.15))

    def test_pinned_certificates(self):
        # the full certificates as the oracle gave them when its balls came
        # from one BFS row per vertex
        def pinned(k, vertices, checked):
            return Certificate(k, vertices, "Exact", len(vertices), len(vertices), checked, "Oracle")

        assert [gamma_k_oracle(petersen(), k) for k in (1, 2)] == [
            pinned(1, (0, 2, 6), 67), pinned(2, (0,), 1)
        ]
        assert [gamma_k_oracle(cycle(7), k) for k in (1, 2, 3)] == [
            pinned(1, (0, 1, 4), 31), pinned(2, (0, 2), 9), pinned(3, (0,), 1)
        ]
        graphs = list(self._pinned_graphs())
        assert sum(not g.is_connected() for g in graphs) == 10
        for g, row in zip(graphs, self.PINNED, strict=True):
            for k, (vertices, checked) in enumerate(row, 1):
                assert gamma_k_oracle(g, k) == pinned(k, vertices, checked)

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
    """With no nodes to search, ``gamma_k_exact`` returns its starting cover,
    the smaller of the greedy cover and the search's first descent, whose
    size is ``upper_bound_used``."""

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

    def test_smaller_cover_when_descent_beats_greedy(self):
        # the greedy cover takes 9 vertices here, the first descent 8 = gamma_2
        g = clique_expanded_path(40, 3)
        assert len(_greedy_cover(tuple(range(g.n)), g.balls(2))[0]) == 9
        cert = gamma_k_exact(g, 2, budget_nodes=0)
        assert cert.upper_bound_used == cert.value == 8 and cert.status == "Exact"
        assert is_k_dominating(g, cert.vertices, 2)

    def test_never_above_greedy_cover(self):
        rng = random.Random(24)
        for _ in range(60):
            g = random_connected(rng, rng.randint(1, 40), rng.uniform(0.02, 0.3))
            for k in (1, 2, 3):
                greedy = len(_greedy_cover(tuple(range(g.n)), g.balls(k))[0])
                assert gamma_k_exact(g, k, budget_nodes=0).upper_bound_used <= greedy

    @staticmethod
    def _spy(monkeypatch, name, pick=lambda result: result):
        """Record, as sorted tuples, the vertex lists ``kdom.solver.<name>``
        returns; ``pick`` takes the list out of the result."""
        covers = []
        original = getattr(kdom.solver, name)

        def spy(*args):
            result = original(*args)
            covers.append(tuple(sorted(pick(result))))
            return result

        monkeypatch.setattr(kdom.solver, name, spy)
        return covers

    @staticmethod
    def _descent(state):
        return state[2]  # _root_scan returns (cands, order, descent, options)

    def test_descent_only_where_the_root_stays_open(self, monkeypatch):
        # the path's and Petersen's fractional bounds meet their greedy covers,
        # so no root scan runs there; each copy of open_root() gets one
        descents = self._spy(monkeypatch, "_root_scan", self._descent)
        cert = gamma_k_exact(_disjoint_union(path(7), petersen(), open_root(), open_root()), 1)
        assert cert.value == 3 + 3 + 2 * 3 and cert.status == "Exact" and cert.components == 4
        assert descents == [(17, 19, 23), (25, 27, 31)]
        assert cert.nodes_explored == 2 * gamma_k_exact(open_root(), 1).nodes_explored > 0

    def test_descent_skipped_when_the_root_closes(self, monkeypatch):
        descents = self._spy(monkeypatch, "_root_scan", self._descent)
        for g in (path(30), cycle(31), petersen(), complete(6), star(9)):
            for k in (1, 2, 3):
                cert = gamma_k_exact(g, k)
                assert cert.nodes_explored == 0 and cert.lower_bound_used == cert.value
        assert descents == []

    def test_tie_keeps_greedy_set(self, monkeypatch):
        greedy = self._spy(monkeypatch, "_greedy_cover", lambda result: result[0])
        descents = self._spy(monkeypatch, "_root_scan", self._descent)
        g = random_connected(random.Random(10), 11, 0.25)
        cert = gamma_k_exact(g, 1, budget_nodes=0)
        assert greedy == [(7, 9, 10)] and descents == [(0, 1, 7)]
        assert cert.vertices == (7, 9, 10) and cert.upper_bound_used == 3


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
        # open_root() launches a real search (greedy 3 > root bounds 2)
        g = open_root()
        assert gamma_k_exact(g, 1).nodes_explored > 0
        cert = gamma_k_exact(g, 1, budget_nodes=0)
        assert cert.status == "UpperBoundOnly"
        assert is_k_dominating(g, cert.vertices, 1)
        assert cert.value >= gamma_k_oracle(g, 1).value

    def test_budget_stop_in_first_component_marks_whole_certificate(self):
        # the first component needs 2047 nodes; the path 60-61-62 closes at its root
        first = _sparse(5, 60)
        g = Graph(63, [*first.edges, (60, 61), (61, 62)])
        cert = gamma_k_exact(g, 1, budget_nodes=100)
        assert cert.components == 2
        assert cert.status == "UpperBoundOnly"
        assert cert.nodes_explored == 100
        assert is_k_dominating(g, cert.vertices, 1)

    def test_components_after_a_stop_get_no_nodes(self):
        # open_root() on 60..67 needs nodes of its own, but the first
        # component already spent the budget, so it keeps its greedy cover
        first, second = _sparse(5, 60), open_root()
        assert gamma_k_exact(second, 1).nodes_explored > 0
        g = Graph(68, [*first.edges, *((u + 60, v + 60) for u, v in second.edges)])
        cert = gamma_k_exact(g, 1, budget_nodes=100)
        assert cert.status == "UpperBoundOnly" and cert.nodes_explored == 100
        kept = gamma_k_exact(second, 1, budget_nodes=0).vertices
        assert tuple(v - 60 for v in cert.vertices if v >= 60) == kept
        assert is_k_dominating(g, cert.vertices, 1)

    def test_negative_budget_acts_like_zero(self):
        for g in (open_root(), _sparse(5, 60), from_edge_list(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])):
            assert gamma_k_exact(g, 1, budget_nodes=-5) == gamma_k_exact(g, 1, budget_nodes=0)

    def test_time_budget_stops_within_2048_nodes(self):
        g = _sparse(5, 60)  # needs 2047 nodes and an escalation
        cert = gamma_k_exact(g, 1, budget_seconds=0)
        assert cert.status == "UpperBoundOnly" and cert.nodes_explored < 2048
        assert is_k_dominating(g, cert.vertices, 1)

    def test_time_budget_not_read_at_the_root(self):
        # the first clock check is at node 2047, and the root is no node, so a
        # search of fewer nodes finishes even with no time left
        cert = gamma_k_exact(direct_product(cycle(5), path(6)), 1, budget_seconds=0)
        assert cert.status == "Exact" and cert.value == 8 and cert.nodes_explored == 87

    def test_nan_time_budget_rejected(self):
        # monotonic() > nan is never true, so a NaN budget would switch the limit off
        with pytest.raises(ValueError, match="nan"):
            gamma_k_exact(cycle(5), 1, budget_seconds=float("nan"))
        assert gamma_k_exact(cycle(5), 1, budget_seconds=float("inf")).status == "Exact"

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


def _with_twin(g: Graph, v: int) -> Graph:
    """``g`` plus a vertex adjacent to ``v`` and to all of its neighbours, so
    the two have equal k-balls for every k >= 1."""
    return Graph(g.n + 1, [*g.edges, (v, g.n), *((u, g.n) for u in g.adj[v])])


class TestGreedyCover:
    """``_greedy_cover`` against a reference that recounts every centre's
    uncovered ball vertices at each step."""

    @staticmethod
    def _reference(vertices, balls):
        uncovered = set(vertices)
        chosen = []
        while uncovered:
            c = max(vertices, key=lambda v: (len(uncovered.intersection(balls[v])), -v))
            chosen.append(c)
            uncovered.difference_update(balls[c])
        return chosen

    def test_matches_reference(self):
        rng = random.Random(73)
        graphs = [Graph(1, []), Graph(5, []), complete(5), star(6), petersen()]
        graphs += [make(n) for make in (path, cycle) for n in (3, 4, 7, 20, 61)]
        graphs += [clique_expanded_path(n, delta) for n in (3, 5, 14) for delta in (2, 3)]
        graphs += [broom(levels) for levels in (1, 2, 3, 6, 11)]
        for _ in range(60):
            n = rng.randint(1, 40)
            if rng.random() < 0.5:
                graphs.append(random_connected(rng, n, rng.uniform(0.5, 4.0) / n))
            else:
                graphs.append(random_graph(rng, n, rng.uniform(0.5, 3.0) / n))
        assert sum(not g.is_connected() for g in graphs) > 20
        for g in graphs:
            for k in (1, 2, 3):
                balls = g.balls(k)
                for vertices in g.components():
                    cover = _greedy_cover(vertices, balls)[0]
                    assert cover == self._reference(vertices, balls), (g.edges, k, vertices)

    def test_no_cliff_on_a_broom(self):
        # a broom's k = 1 balls take about 700 sizes, each on few hubs; a scan
        # of every centre at every size took about 25x as long as on the path
        def seconds(g):
            balls = g.balls(1)
            vertices = tuple(range(g.n))
            best = math.inf
            for _ in range(2):
                t0 = time.perf_counter()
                _greedy_cover(vertices, balls)
                best = min(best, time.perf_counter() - t0)
            return best

        g = broom(700)
        assert g.n == 246_050
        assert seconds(g) <= 5 * seconds(path(g.n))


class TestUndominated:
    """The root's candidates, the first field of ``_root_scan``'s record,
    against a reference that compares every pair of balls in a component as
    sets, not only the balls centred in each other."""

    @staticmethod
    def _reference(vertices, balls):
        sets = {v: frozenset(balls[v]) for v in vertices}
        return [v for v in vertices
                if not any(u != v and sets[u] >= sets[v] and (sets[u] != sets[v] or u < v) for u in vertices)]

    def test_matches_reference(self):
        rng = random.Random(61)
        graphs = [Graph(0, []), Graph(1, []), Graph(2, []), complete(5), star(6), path(9), cycle(8), petersen()]
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 16), rng.uniform(0.05, 0.4))
            graphs.append(_with_twin(g, rng.randrange(g.n)) if rng.random() < 0.5 else g)
        assert sum(not g.is_connected() for g in graphs) > 20
        equal = 0
        for g in graphs:
            for k in (0, 1, 2, 3):
                balls = g.balls(k)
                for vertices in g.components():
                    cands = _root_scan(vertices, balls)[0]
                    assert sorted(cands) == self._reference(vertices, balls), (g.edges, k)
                    equal += len({balls[v] for v in vertices}) < len(vertices)
        assert equal > 100  # components with equal balls, where the lowest index stays


class TestFractionalBound:
    """The second field of ``_greedy_cover``: one over the largest k-ball
    holding each vertex, summed and rounded up."""

    @staticmethod
    def _reference(vertices, balls):
        """The bound of one component, summed in Fractions over every ball."""
        return math.ceil(sum(Fraction(1, max(len(balls[u]) for u in vertices if v in balls[u])) for v in vertices))

    def test_matches_fraction_sum_and_stays_below_gamma(self):
        rng = random.Random(67)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.05, 0.5))
            for k in (1, 2, 3):
                balls = g.balls(k)
                total = 0
                for vertices in g.components():
                    bound = _greedy_cover(vertices, balls)[1]
                    assert bound == self._reference(vertices, balls), (g.edges, k)
                    total += bound
                assert total <= gamma_k_oracle(g, k).value

    def test_largest_balls_on_both_sides(self):
        # a centre holding a largest ball of its component takes its own size:
        # all but O(k) centres of the tight families, one or two hubs of a star
        # or a broom at k = 1, and each component's own largest beside another's;
        # on the comb (a spine with one leaf per vertex, two on vertex 60) most
        # spine centres are one vertex short of the largest and hold no largest
        spine = 120
        comb = Graph(2 * spine + 1, [*((v, v + 1) for v in range(spine - 1)),
                                     *((v, spine + v) for v in range(spine)), (60, 2 * spine)])
        graphs = [path(251), cycle(240), clique_expanded_path(120, 2), clique_expanded_path(90, 3),
                  star(30), broom(12), _disjoint_union(star(12), path(200)), comb]
        for g in graphs:
            for k in (1, 2, 3):
                balls = g.balls(k)
                for vertices in g.components():
                    assert _greedy_cover(vertices, balls)[1] == self._reference(vertices, balls), (g.n, k)

    def test_largest_balls_take_no_max(self, monkeypatch):
        # the bound takes a maximum over the ball of every centre not holding a
        # largest ball, and over no other ball
        calls = []
        monkeypatch.setattr(kdom.solver, "max", lambda *a: calls.append(1) or max(*a), raising=False)

        def maxima(g, k):
            calls.clear()
            _greedy_cover(tuple(range(g.n)), g.balls(k))
            return len(calls)

        for k in (1, 2, 3):
            assert maxima(cycle(301), k) == 0
            assert maxima(path(301), k) == 2 * k  # the k vertices nearest each end
        g = broom(40)
        assert maxima(g, 1) == g.n - 2  # all but hubs 0 and 1

    def test_raises_lower_bound_used_over_packing(self):
        # the packing bound of C_n stops at n // (2k + 1), one short of gamma
        for k in (1, 2, 3):
            g = cycle(10 * k + 4)
            assert packing_lower(g, k) == gamma_path_cycle(g.n, k, "cycle") - 1
            cert = gamma_k_exact(g, k)
            assert cert.lower_bound_used == cert.value == gamma_path_cycle(g.n, k, "cycle")

    def test_budget_zero_stops_where_the_root_stays_open(self):
        cert = gamma_k_exact(open_root(), 1, budget_nodes=0)
        assert cert.status == "UpperBoundOnly" and cert.nodes_explored == 0
        assert (cert.lower_bound_used, cert.upper_bound_used) == (2, 3)
        assert gamma_k_exact(open_root(), 1).nodes_explored > 0


class TestRootScan:
    """``_root_scan`` against a reference that works on the candidate sets
    directly: the candidates, the order, the first descent and the candidate
    tuples; and ``_packing_count`` on those tuples against the reference's
    packing count."""

    @staticmethod
    def _reference(vertices, balls):
        """(cands, order, descent, options, steps, count) of one component, on
        sets, ``options`` the candidate tuples in ``order``. A vertex's
        candidates are the members of its ball whose ball no other ball
        contains (of equal balls the lowest index stays). ``steps`` are how
        the search branches the root: the forced candidates (a vertex's only
        one) as one step, else a child per candidate of the vertex with the
        fewest by descending ball size, ties to the lowest."""
        cands = set(TestUndominated._reference(vertices, balls))
        options = {w: {c for c in balls[w] if c in cands} for w in vertices}
        order = sorted(vertices, key=lambda w: (len(options[w]), w))
        covered, descent = set(), []
        for w in order:
            if w not in covered:
                c = max(options[w], key=lambda c: (len(set(balls[c]) - covered), -c))
                descent.append(c)
                covered.update(balls[c])
        packed = []
        for w in order:
            if all(options[w].isdisjoint(options[u]) for u in packed):
                packed.append(w)
        forced = {c for w in vertices if len(options[w]) == 1 for c in options[w]}
        if forced:
            steps = [sorted(forced)]
        else:
            fewest = min(vertices, key=lambda w: (len(options[w]), w))
            steps = [[c] for c in sorted(options[fewest], key=lambda c: (-len(balls[c]), c))]
        return cands, order, descent, [tuple(sorted(options[w])) for w in order], steps, len(packed)

    def test_matches_reference(self):
        rng = random.Random(79)
        graphs = [open_root(), *(broom(levels) for levels in (1, 2, 3, 6, 11))]
        # consecutive true twins, which share one ball tuple in every table
        graphs += [clique_expanded_path(b, d) for b, d in ((4, 2), (5, 3), (7, 4))]
        for _ in range(40):
            n = rng.randint(6, 60)
            graphs.append(random_connected(rng, n, rng.uniform(1.0, 4.0) / n))
            if len(graphs) % 4 == 0:
                graphs.append(_with_twin(graphs[-1], n - 1))
        for _ in range(20):
            graphs.append(random_graph(rng, rng.randint(6, 30), rng.uniform(0.03, 0.15)))
        assert sum(not g.is_connected() for g in graphs) > 10
        kinds = {"forced": 0, "children": 0}
        shared = 0
        for g in graphs:
            for k in (1, 2, 3):
                balls = g.balls(k)
                counts = 0
                for vertices in g.components():
                    state = _root_scan(vertices, balls)
                    shared += sum(balls[v] is balls[u] for u, v in zip(vertices, vertices[1:]))
                    *reference, steps, count = self._reference(vertices, balls)
                    assert state == tuple(reference), (g.edges, k, vertices)
                    assert _packing_count(state[3]) == count, (g.edges, k, vertices)
                    counts += count
                    kinds["forced" if len(steps) == 1 else "children"] += 1
                if g.n <= ORACLE_MAX_N:
                    assert counts <= gamma_k_oracle(g, k).value  # the packing count never exceeds gamma_k
        assert min(kinds.values()) > 40, kinds
        assert shared > 50

    def test_one_options_tuple_per_shared_ball(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kdom.solver, "filter", lambda *a: calls.append(a) or filter(*a), raising=False)
        g = clique_expanded_path(200, 3)  # 596 vertices, 200 distinct 1-balls
        options = _root_scan(tuple(range(g.n)), g.balls(1))[3]
        assert len(calls) == 200  # 596 when each vertex filtered its own ball
        assert len({id(o) for o in options}) == 200

    def test_packing_only_where_the_descent_leaves_the_root_open(self, monkeypatch):
        scans, packings = [], []
        scan, packing = kdom.solver._root_scan, kdom.solver._packing_count
        monkeypatch.setattr(kdom.solver, "_root_scan", lambda *a: scans.append(a) or scan(*a))
        monkeypatch.setattr(kdom.solver, "_packing_count", lambda o: packings.append(o) or packing(o))
        # the first descent meets the fractional bound: the root closes unpacked
        for g, k in ((random_connected(random.Random(62), 30, 2.5 / 30), 2), (_sparse(4, 90), 3)):
            cert = gamma_k_exact(g, k)
            assert cert.lower_bound_used == cert.value == 2 and cert.nodes_explored == 0
        assert len(scans) == 2 and packings == []
        # the packing bound closes the broom's root, and bounds open_root()'s
        cert = gamma_k_exact(broom(12), 1)
        assert cert.lower_bound_used == cert.value == 12 and cert.nodes_explored == 0
        cert = gamma_k_exact(open_root(), 1, budget_nodes=0)
        assert cert.lower_bound_used == 2 and cert.status == "UpperBoundOnly"
        assert len(scans) == len(packings) + 2 == 4


class TestClosesAtTheRoot:
    """The greedy or the first-descent cover meets a root bound (the packing
    or the fractional bound) on the paper's tight families, and wherever a
    cover meets it the search explores no node."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_paths_and_cycles_need_no_budget(self, k):
        # every residue of n mod 2k + 1, at small and larger n
        for n in [*range(3, 3 + 2 * (2 * k + 1)), *range(200, 200 + 2 * k + 1)]:
            for shape, g in (("path", path(n)), ("cycle", cycle(n))):
                cert = gamma_k_exact(g, k, budget_nodes=0)
                assert cert.status == "Exact" and cert.nodes_explored == 0, (shape, n)
                assert cert.lower_bound_used == cert.value == gamma_path_cycle(n, k, shape), (shape, n)

    @pytest.mark.parametrize("n_base, delta", [(251, 2), (377, 2), (501, 2), (168, 3), (250, 3), (334, 3)])
    def test_clique_expanded_paths(self, n_base, delta):
        g = clique_expanded_path(n_base, delta)
        assert 500 <= g.n <= 1000
        for k in (1, 2, 3):
            cert = gamma_k_exact(g, k)
            assert cert.status == "Exact" and cert.nodes_explored == 0
            assert cert.value == gamma_path_cycle(n_base, k, "path")

    @pytest.mark.parametrize("build, k", [(lambda: random_connected(random.Random(62), 30, 2.5 / 30), 2),
                                          (lambda: _sparse(4, 90), 3)], ids=["connected-62-30", "sparse-4-90"])
    def test_descent_that_meets_the_bound_needs_no_node(self, build, k):
        # the first descent beats the greedy cover and meets the fractional
        # bound, so the root closes with no search
        cert = gamma_k_exact(build(), k)
        assert cert.status == "Exact" and cert.nodes_explored == 0
        assert cert.lower_bound_used == cert.upper_bound_used == cert.value == 2

    def test_a_met_bound_always_closes_the_root(self):
        rng = random.Random(71)
        closed = 0
        for _ in range(150):
            n = rng.randint(1, 60)
            if rng.random() < 0.8:
                g = random_connected(rng, n, rng.uniform(1.0, 4.0) / n)
            else:
                g = random_graph(rng, n, rng.uniform(0.02, 0.2))
            for k in (1, 2, 3):
                cert = gamma_k_exact(g, k)
                if cert.lower_bound_used >= cert.upper_bound_used:
                    assert cert.nodes_explored == 0, (g.edges, k)
                    closed += 1
        assert closed > 250

    def test_broom_closes_before_any_bitset(self):
        # the root packing meets the greedy cover on this tree, so no local
        # bitsets (about n^2/16 bytes, 84.5 MB here) are built
        g = broom(200)
        g.balls(1)  # the ball table and the components are not part of the peak
        g.components()
        tracemalloc.start()
        try:
            cert = gamma_k_exact(g, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.status == "Exact" and cert.nodes_explored == 0
        assert cert.value == cert.lower_bound_used == 200
        assert peak < 12 * 2**20

    def test_large_tree_k2_k3(self):
        g = random_tree(random.Random(3), 3000)
        for k in (2, 3):
            cert = gamma_k_exact(g, k)
            assert cert.status == "Exact" and cert.nodes_explored == 0
            assert is_k_dominating(g, cert.vertices, k)


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


def _tree_gamma(g: Graph, k: int) -> int:
    """gamma_k of a tree by the post-order greedy of Slater, "R-domination in
    graphs" (J. ACM 1976): an independent exact route at any size.

    Rooted at 0, each vertex keeps the distance to the farthest undominated
    vertex below it (-1 if none) and to the nearest chosen one. It is taken
    when the first distance reaches k, or at a root still undominated.
    """
    no_chosen = 10**9  # far above any n, so no sum with it ever reaches k
    far = [0] * g.n
    near = [no_chosen] * g.n
    parent = [-1] * g.n
    order = [0]
    for v in order:  # BFS from the root; the list grows as it is read
        for w in g.adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    assert len(order) == g.n == g.m + 1, "not a tree"
    count = 0
    for v in reversed(order):
        if far[v] + near[v] <= k:
            far[v] = -1
        elif far[v] == k:
            far[v], near[v] = -1, 0
            count += 1
        p = parent[v]
        if p >= 0:
            near[p] = min(near[p], near[v] + 1)
            if far[v] >= 0:
                far[p] = max(far[p], far[v] + 1)
    return count + (far[0] >= 0)


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


class TestTreeReference:
    """Slater's tree algorithm against the oracle, the solver and the
    paper's spanning-tree theorem, at sizes far beyond the oracle's."""

    def test_matches_oracle_on_small_trees(self):
        rng = random.Random(28)
        for _ in range(1000):
            g = random_tree(rng, rng.randint(1, 14))
            k = rng.randint(1, 4)
            assert _tree_gamma(g, k) == gamma_k_oracle(g, k).value, (g, k)

    @pytest.mark.parametrize("build, ks", [
        (lambda: random_tree(random.Random(3), 1000), (1, 2, 3)),
        (lambda: broom(50), (1, 2, 3)),
        (lambda: broom(200), (1,)),  # k = 2, 3 take 0.8 and 1.3 s at the root
        (lambda: random_tree(random.Random(3), 10_000), (2,)),
    ], ids=["tree-1000", "broom-50", "broom-200", "tree-10000"])
    def test_matches_exact_on_large_trees(self, build, ks):
        g = build()
        for k in ks:
            cert = gamma_k_exact(g, k)
            assert cert.status == "Exact" and cert.value == _tree_gamma(g, k), k

    @pytest.mark.parametrize("build", [
        lambda: path(5000),
        lambda: cycle(5001),
        lambda: clique_expanded_path(1000, 3),
        lambda: random_connected(random.Random(5), 120, 2.5 / 120),
    ], ids=["path-5000", "cycle-5001", "clique-expanded-1000-3", "sparse-120"])
    def test_spanning_tree_keeps_gamma_at_scale(self, build):
        g = build()
        for k in (1, 2, 3):
            res = preserving_spanning_tree(g, k)
            tree = res.tree
            assert tree.m == g.n - 1 and tree.is_connected() and tree.edges <= g.edges
            assert _tree_gamma(tree, k) == res.certificate.value, k


def _columns(members, cands):
    """The set-cover columns ``dual.escalate`` builds: the ball of each
    candidate, and for each position the indices of the balls holding it."""
    cols = [members[c] for c in cands]
    return cols, [[j for j, col in enumerate(cols) if p in col] for p in range(len(members))]


def _escalation_input(g: Graph, k: int):
    """(balls, candidates, columns, owners, greedy cover) of a connected graph
    in the identity labelling, as the escalation sees them."""
    balls = g.balls(k)
    cands = sorted(_root_scan(tuple(range(g.n)), balls)[0])
    cols, owners = _columns([list(b) for b in balls], cands)
    return balls, cands, cols, owners, _greedy_cover(tuple(range(g.n)), balls)[0]


def _dual(g: Graph, k: int):
    """The escalation's Lagrangian on a connected graph in the identity
    labelling, from the greedy cover: (y, cover, lower, candidates, greedy)."""
    _, cands, cols, owners, greedy = _escalation_input(g, k)
    y, cover, lower = lagrangian(cols, owners, len(greedy))
    return y, cover and [cands[j] for j in cover], lower, cands, len(greedy)


def _no_lagrangian(*args):
    raise AssertionError("the search escalated")


# certificates of solves that end before node 2048, as produced before the
# escalation existed; Petersen's was re-pinned when the fractional root bound
# (3 = gamma_1) closed its root: 11 -> 0 nodes, lower_bound_used 1 -> 3
SHORT_SOLVES = [
    ("sparse-1-60", lambda: _sparse(1, 60), {
        "k": 1, "gamma_k": 14, "set": [0, 7, 8, 9, 13, 18, 21, 22, 29, 31, 35, 40, 46, 47], "status": "Exact",
        "lower_bound_used": 11, "nodes_explored": 765, "method": "BranchAndBound", "components": 1,
    }),
    ("petersen", petersen, {
        "k": 1, "gamma_k": 3, "set": [0, 2, 6], "status": "Exact", "lower_bound_used": 3,
        "nodes_explored": 0, "method": "BranchAndBound", "components": 1,
    }),
    ("product-c5-p6", lambda: direct_product(cycle(5), path(6)), {
        "k": 1, "gamma_k": 8, "set": [1, 4, 7, 10, 14, 15, 18, 23], "status": "Exact", "lower_bound_used": 6,
        "nodes_explored": 87, "method": "BranchAndBound", "components": 1,
    }),
]


# certificates of solves that escalate, pinned so that any change to the
# escalated search shows: (id, graph, k, budget_nodes, to_dict(),
# upper_bound_used)
ESCALATED_SOLVES = [
    ("sparse-9-100", lambda: _sparse(9, 100), 1, 10_000, {
        "k": 1, "gamma_k": 24,
        "set": [1, 2, 5, 6, 7, 11, 14, 21, 24, 26, 27, 34, 45, 47, 51, 53, 57, 63, 68, 69, 71, 77, 85, 87],
        "status": "Exact", "lower_bound_used": 21, "nodes_explored": 2414, "method": "BranchAndBound",
        "components": 1,
    }, 25),
    ("sparse-2-90", lambda: _sparse(2, 90), 2, 10_000, {
        "k": 2, "gamma_k": 6, "set": [0, 10, 11, 14, 35, 57], "status": "Exact", "lower_bound_used": 3,
        "nodes_explored": 4229, "method": "BranchAndBound", "components": 1,
    }, 6),
    # at the escalation Beasley's cover lowers the incumbent 31 -> 30 and the
    # local search from it 30 -> 28, the HiGHS optimum, which the budget
    # stops the search from proving
    ("sparse-44-130", lambda: _sparse(44, 130), 1, 6000, {
        "k": 1, "gamma_k": 28,
        "set": [0, 9, 11, 12, 15, 25, 28, 30, 33, 35, 36, 43, 53, 55, 59, 66, 67, 72, 83, 84, 86, 89, 106, 107,
                112, 115, 124, 127],
        "status": "UpperBoundOnly", "lower_bound_used": 23, "nodes_explored": 6000, "method": "BranchAndBound",
        "components": 1,
    }, 31),
]


class TestEscalation:
    """A search still open at node 2048 escalates once to Lagrangian dual
    weights and a Lagrangian incumbent."""

    def test_dual_weights_fit_every_candidate_ball(self):
        rng = random.Random(41)
        for n in (30, 60, 100):
            for k in (1, 2, 3):
                g = random_connected(rng, n, 2.5 / n)
                y, cover, lower, cands, greedy = _dual(g, k)
                balls = g.balls(k)
                assert all(isinstance(w, int) and w >= 0 for w in y)
                assert all(sum(y[v] for v in balls[c]) <= SCALE for c in cands), (n, k)
                assert sum(y) <= lower
                if cover is not None:
                    assert len(cover) < greedy and is_k_dominating(g, cover, k)

    def test_exact_cover_stops_the_subgradient(self, monkeypatch):
        # P4 at k = 1: Beasley's cover {1, 2} (columns 0 and 1) meets the
        # bound at iteration 4, which proves it optimal, so no later
        # iteration looks for another cover
        calls = []
        original = kdom.dual.lagrangian_cover
        monkeypatch.setattr(kdom.dual, "lagrangian_cover", lambda *a: calls.append(a) or original(*a))
        members = [[0, 1], [0, 1, 2], [1, 2, 3], [2, 3]]
        y, cover, lower = lagrangian(*_columns(members, [1, 2]), 4)
        assert (y, cover, lower) == ([SCALE, 0, 0, SCALE], [0, 1], 2 * SCALE)
        assert all(sum(y[v] for v in members[c]) <= SCALE for c in (1, 2))
        assert len(calls) == 1

    def test_zero_norm_stops_the_subgradient(self):
        # Beasley's cover {2, 3, 4} stays above the bound 2, and by iteration
        # 30 the part of the deflected direction free to move is so small
        # against the part held at zero that the norm rounds to zero
        g = Graph(7, [(0, 1), (0, 2), (0, 5), (1, 4), (1, 5), (2, 3), (3, 5), (4, 6), (5, 6)])
        members = [list(b) for b in g.balls(1)]
        y, cover, lower = lagrangian(*_columns(members, range(7)), 5)  # no ball lies inside another
        assert (y, cover, lower) == ([349526, 0, 8213845, 8213845, 8563371, 0, 8213845], [2, 3, 4], 2 * SCALE)
        assert all(sum(y[v] for v in ball) <= SCALE for ball in members)
        assert is_k_dominating(g, cover, 1) and gamma_k_oracle(g, 1).value == 3

    def test_dual_weight_at_most_highs_optimum(self):
        pytest.importorskip("scipy")
        rng = random.Random(43)
        for n in (40, 90):
            for k in (1, 2):
                g = random_connected(rng, n, 2.5 / n)
                y, _, lower, _, _ = _dual(g, k)
                assert sum(y) <= lower <= _highs_gamma(g, k) * SCALE, (n, k)

    @pytest.mark.parametrize("build, expected", [r[1:] for r in SHORT_SOLVES], ids=[r[0] for r in SHORT_SOLVES])
    def test_short_solves_unchanged(self, monkeypatch, build, expected):
        monkeypatch.setattr(kdom.dual, "lagrangian", _no_lagrangian)
        assert gamma_k_exact(build(), 1).to_dict() == expected

    @pytest.mark.parametrize("build, k, budget, expected, upper", [r[1:] for r in ESCALATED_SOLVES],
                             ids=[r[0] for r in ESCALATED_SOLVES])
    def test_escalated_solves_unchanged(self, monkeypatch, build, k, budget, expected, upper):
        calls = []
        original = kdom.dual.lagrangian
        monkeypatch.setattr(kdom.dual, "lagrangian", lambda *a: calls.append(a) or original(*a))
        cert = gamma_k_exact(build(), k, budget_nodes=budget)
        assert len(calls) == 1
        assert cert.to_dict() == expected and cert.upper_bound_used == upper

    def test_time_budget_stops_before_escalating(self, monkeypatch):
        monkeypatch.setattr(kdom.dual, "lagrangian", _no_lagrangian)
        cert = gamma_k_exact(_sparse(5, 60), 1, budget_seconds=0)
        assert cert.status == "UpperBoundOnly" and cert.nodes_explored < 2048

    def test_once_per_component_and_charged_no_node(self, monkeypatch):
        calls = []
        original = kdom.dual.lagrangian
        monkeypatch.setattr(kdom.dual, "lagrangian", lambda *a: calls.append(a) or original(*a))
        first = _sparse(5, 60)
        g = Graph(120, [*first.edges, *((u + 60, v + 60) for u, v in first.edges)])
        cert = gamma_k_exact(g, 1)
        # each copy escalates at node 2048, where its dual bound closes the search
        assert len(calls) == 2
        assert cert.status == "Exact" and cert.value == 28 and cert.nodes_explored == 2 * 2047
        # the escalation leaves the root bound and the starting cover alone
        alone = gamma_k_exact(first, 1, budget_nodes=0)
        assert cert.lower_bound_used == 2 * alone.lower_bound_used
        assert cert.upper_bound_used == 2 * alone.upper_bound_used

    def test_weigher_sums_the_set_bits(self):
        rng = random.Random(45)
        for m in (0, 1, 8, 9, 16, 256, 257, 300):
            y = [rng.randrange(SCALE + 1) for _ in range(m)]
            weigh = weigher(y)
            for _ in range(20):
                mask = rng.getrandbits(m)
                assert weigh(mask) == sum(w for i, w in enumerate(y) if mask >> i & 1)

    @pytest.mark.parametrize("build", [lambda: _sparse(47, 120), lambda: random_tree(random.Random(5), 600)],
                             ids=["sparse-120", "tree-600"])
    def test_ban_masks_hold_only_dear_candidates(self, build):
        # 114 candidates, each banned alone; 299 in the tree, banned in pairs
        g = build()
        balls = g.balls(1)
        members = [list(b) for b in balls]  # the identity labelling
        cands = sorted(_root_scan(tuple(range(g.n)), balls)[0])
        weigh, _, _, costs, keep = escalate(members, cands, _greedy_cover(tuple(range(g.n)), balls)[0])
        reduced = {c: SCALE - weigh(sum(1 << v for v in members[c])) for c in cands}
        width = -(-len(cands) // 256)
        assert len(costs) <= 256 and len(keep) == len(costs) + 1 and len(set(reduced.values())) > 2
        for slack in {-1, 0, SCALE, *reduced.values(), *(r - 1 for r in reduced.values())}:
            mask = keep[bisect_right(costs, slack)]
            banned = {c for c in cands if not mask >> c & 1}
            assert mask == sum(1 << c for c in cands if c not in banned)
            assert all(reduced[c] > slack for c in banned), slack
            dearer = {c for c in cands if reduced[c] > slack}
            if width == 1:
                assert banned == dearer, slack
            else:
                # only the group whose costs straddle the slack stays allowed
                assert len(dearer - banned) < width, slack

    def test_large_tree_proved_after_escalating(self):
        # 3000 vertices: the work cap keeps the subgradient to a few passes over
        # the balls, and its bound closes the search 128 nodes past node 2048
        g = random_tree(random.Random(3), 3000)
        cert = gamma_k_exact(g, 1, budget_nodes=20_000)
        assert cert.status == "Exact" and cert.value == 1121  # the HiGHS optimum
        assert cert.value == _tree_gamma(g, 1)
        assert cert.nodes_explored <= 2175

    def test_escalated_searches_against_highs(self, monkeypatch):
        # an independent check of every escalated route: bound, bans, incumbent
        pytest.importorskip("scipy")
        calls = []
        original = kdom.dual.lagrangian
        monkeypatch.setattr(kdom.dual, "lagrangian", lambda *a: calls.append(a) or original(*a))
        rng = random.Random(59)
        for n, k in [(90, 1), (95, 1), (100, 1), (105, 1), (110, 1), (115, 1), (120, 1), (125, 1),
                     (90, 2), (100, 2), (110, 2), (120, 2)]:
            g = random_connected(rng, n, 2.5 / n)
            cert = gamma_k_exact(g, k, budget_nodes=10_000)
            optimum = _highs_gamma(g, k)
            assert is_k_dominating(g, cert.vertices, k)
            assert cert.status == "Exact" and cert.value == optimum, (n, k)
        assert len(calls) == 11  # only (100, 2) ends before its escalation, at node 3912

    def test_larger_balls_escalate_later(self, monkeypatch):
        # 150 nodes per vertex of average ball size: about 3400 nodes for these
        # k = 2 balls of about 22.5 vertices, so the clock check at node 4096
        calls = []
        original = kdom.dual.escalate
        monkeypatch.setattr(kdom.dual, "escalate", lambda *a: calls.append(a) or original(*a))
        assert gamma_k_exact(_sparse(8, 90), 2).nodes_explored == 3459 and not calls
        assert gamma_k_exact(_sparse(2, 90), 2).nodes_explored > 4096 and len(calls) == 1


class _Counted(list):
    """A ball list that adds its length to ``reads[0]`` whenever it is
    iterated, to count the entries a local search reads."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __iter__(self):
        self.reads[0] += len(self)
        return super().__iter__()


# (id, graph, k) of the local search's inputs: sparse graphs of 12-150
# vertices, a tree and a clique-expanded path
LOCAL_SEARCH_CASES = [
    *((f"sparse-{n}-k{k}", lambda n=n: random_connected(random.Random(n), n, 2.5 / n), k)
      for n in (12, 16, 30, 60, 100, 150) for k in (1, 2, 3)),
    ("tree-200", lambda: random_tree(random.Random(7), 200), 1),
    ("clique-expanded-40-3", lambda: clique_expanded_path(40, 3), 1),
]


class TestLocalSearch:
    """The escalation's weighted local search, run from the greedy cover
    with the Lagrangian bound, as ``dual.escalate`` runs it."""

    @staticmethod
    def _search(g, k, counted=False):
        """(result, candidates, greedy size, lower, entries read)."""
        _, cands, cols, owners, greedy = _escalation_input(g, k)
        _, _, lower = lagrangian(cols, owners, len(greedy))
        reads = [0]
        if counted:
            cols = [_Counted(col, reads) for col in cols]
            owners = [_Counted(mine, reads) for mine in owners]
        start = [j for j, c in enumerate(cands) if c in greedy]
        return local_search(cols, owners, start, len(greedy), lower), cands, len(greedy), lower, reads[0]

    @pytest.mark.parametrize("build, k", [r[1:] for r in LOCAL_SEARCH_CASES], ids=[r[0] for r in LOCAL_SEARCH_CASES])
    def test_smaller_dominating_and_repeatable(self, build, k):
        g = build()
        found, cands, greedy, lower, _ = self._search(g, k)
        assert found == self._search(g, k)[0]
        if found is not None:
            assert found == sorted(set(found)) and lower <= len(found) * SCALE and len(found) < greedy
            assert is_k_dominating(g, [cands[j] for j in found], k)
            if g.n <= ORACLE_MAX_N:
                assert len(found) >= gamma_k_oracle(g, k).value

    def test_never_below_highs(self):
        pytest.importorskip("scipy")
        improved = 0
        for _, build, k in LOCAL_SEARCH_CASES:
            g = build()
            found = self._search(g, k)[0]
            if found is not None:
                improved += 1
                assert len(found) >= _highs_gamma(g, k), (g.n, k)
        assert improved >= 5

    def test_incumbent_with_non_candidates_is_repaired(self):
        # the tree's leaves are no candidates: the incumbent of every
        # non-candidate plus each candidate no leaf's ball reaches loses
        # them, and leaves 41 vertices uncovered
        g = random_tree(random.Random(1), 60)
        balls, cands, cols, owners, _ = _escalation_input(g, 1)
        non = [v for v in range(g.n) if v not in cands]
        reached = set().union(*(balls[v] for v in non))
        incumbent = non + [c for c in cands if c not in reached]
        assert is_k_dominating(g, incumbent, 1)
        start = [j for j, c in enumerate(cands) if c in incumbent]
        assert g.n - len(set().union(*(cols[j] for j in start))) == 41
        _, _, lower = lagrangian(cols, owners, len(incumbent))
        found = local_search(cols, owners, start, len(incumbent), lower)
        assert len(found) < len(incumbent) and is_k_dominating(g, [cands[j] for j in found], 1)

    @pytest.mark.parametrize("cap", [3000, 8000])
    def test_work_cap(self, monkeypatch, cap):
        g = _sparse(2, 100)
        _, _, cols, owners, _ = _escalation_input(g, 1)
        # the most entries one step reads: two toggles, each reading a ball and
        # its vertices' owners, the owners of the vertex picked, and the owners
        # of every vertex for the weights
        step = 2 * max(len(col) + sum(len(owners[p]) for p in col) for col in cols)
        step += max(map(len, owners)) + sum(map(len, owners))
        monkeypatch.setattr(kdom.dual, "_LS_WORK", 0)
        setup = self._search(g, 1, counted=True)[4]  # the start and its repair, with no step
        monkeypatch.setattr(kdom.dual, "_LS_WORK", cap)
        assert setup < cap <= self._search(g, 1, counted=True)[4] < cap + step

    def test_stops_at_the_bound(self, monkeypatch):
        # once told that its best cover meets the bound, the search ends at
        # the step that records it: one entry less and it ends before
        g = _sparse(2, 100)
        _, cands, cols, owners, greedy = _escalation_input(g, 1)
        _, _, lower = lagrangian(cols, owners, len(greedy))
        start = [j for j, c in enumerate(cands) if c in greedy]
        best = local_search(cols, owners, start, len(greedy), lower)
        assert lower <= (len(best) - 1) * SCALE
        reads = [0]
        counted = [_Counted(col, reads) for col in cols], [_Counted(mine, reads) for mine in owners]
        assert local_search(*counted, start, len(greedy), len(best) * SCALE) == best
        monkeypatch.setattr(kdom.dual, "_LS_WORK", reads[0])
        found = local_search(cols, owners, start, len(greedy), lower)
        assert found is None or len(found) > len(best)


def _sparse(seed: int, n: int) -> Graph:
    return random_connected(random.Random(seed), n, 2.5 / n)


def _disjoint_union(*parts: Graph) -> Graph:
    edges, n = [], 0
    for part in parts:
        edges += [(u + n, v + n) for u, v in part.edges]
        n += part.n
    return Graph(n, edges)


# (id, graph, k, how each component's root search starts) of solves whose
# roots stay open; in each the starting cover is above the optimum, so an
# incumbent the budget stops depends on the root's steps, their order and
# what each later child excludes
OPEN_ROOTS = [
    ("forced-15-40", lambda: _sparse(15, 40), 1, ["forced"]),
    ("forced-3-30", lambda: _sparse(3, 30), 1, ["forced"]),
    ("children-6-30", lambda: _sparse(6, 30), 1, ["children"]),
    ("children-15-40", lambda: _sparse(15, 40), 2, ["children"]),
    # the first component needs 237 nodes, so budget 100 stops there
    ("disconnected", lambda: _disjoint_union(_sparse(9, 30), _sparse(3, 30), open_root()), 1,
     ["children", "forced", "forced"]),
]


def test_search_order_pinned():
    rows = []
    for name, build, k, kinds in OPEN_ROOTS:
        g = build()
        steps = [TestRootScan._reference(vertices, g.balls(k))[4] for vertices in g.components()]
        assert ["forced" if len(s) == 1 else "children" for s in steps] == kinds, name
        for budget in (0, 1, 7, 100, kdom.solver.DEFAULT_BUDGET_NODES):
            cert = gamma_k_exact(g, k, budget_nodes=budget)
            assert cert.lower_bound_used < cert.upper_bound_used
            rows.append([name, budget, cert.to_dict(), cert.upper_bound_used])
    # the certificates as the search produced them when the root was popped
    # from the stack and scanned on its bitsets like every other node
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == "030ef6d4ce07f7342f4562f79b893a0c7c0109638df0f5542af72d070c6bab89"


def test_heavy_search_tree_pinned(monkeypatch):
    # sparse solves that escalate and then run out of budget, where a change to
    # the nodes popped, their order, a cut or an incumbent shows in the result
    calls = []
    original = kdom.dual.lagrangian
    monkeypatch.setattr(kdom.dual, "lagrangian", lambda *a: calls.append(a) or original(*a))
    rng = random.Random(5)
    rows = []
    for n in (100, 115, 130, 150):
        for k in (1, 2, 3):
            g = random_connected(rng, n, 2.5 / n)
            calls.clear()
            cert = gamma_k_exact(g, k, budget_nodes=10_000)
            rows.append([n, k, cert.to_dict(), cert.upper_bound_used, len(calls)])
    escalated_then_stopped = {k for _, k, d, _, e in rows if e and d["nodes_explored"] == 10_000}
    assert {1, 2} <= escalated_then_stopped
    # the certificates as the search produced them once the escalation ran a
    # local search: (130, 2) is proved at 9, and (130, 1) and (150, 2) end one
    # below their earlier incumbents
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == "c03908a7dd2ab074b98cd7fd9341ae749ed7d8cec14202e4332acfa9c9023db9"


# (id, graph, k, gamma_k, committed ceiling on nodes_explored). The counts are
# deterministic, so the test cannot flake; raising a ceiling needs a stated
# reason in CHANGES.md.
NODE_RATCHET = [
    ("sparse-1-60", lambda: _sparse(1, 60), 1, 14, 765),
    ("sparse-2-90", lambda: _sparse(2, 90), 2, 6, 4229),
    ("sparse-3-120", lambda: _sparse(3, 120), 3, 3, 282),
    ("sparse-5-60", lambda: _sparse(5, 60), 1, 14, 2047),
    ("sparse-8-90", lambda: _sparse(8, 90), 2, 6, 3459),
    ("sparse-11-120", lambda: _sparse(11, 120), 3, 4, 2304),
    # UpperBoundOnly at value 25 after 10 000 nodes before the escalation
    ("sparse-9-100", lambda: _sparse(9, 100), 1, 24, 2414),
    # needed 8134 nodes before the escalation and 3190 before its local search
    ("sparse-38-80", lambda: _sparse(38, 80), 1, 18, 2047),
    # 11 and 3 nodes before the fractional root bound
    ("petersen", petersen, 1, 3, 0),
    ("cycle-25", lambda: cycle(25), 1, 9, 0),
    ("clique-expanded-40-3", lambda: clique_expanded_path(40, 3), 2, 8, 0),
    ("product-c5-p6", lambda: direct_product(cycle(5), path(6)), 1, 8, 87),
]


@pytest.mark.parametrize(
    "build, k, gamma, ceiling", [r[1:] for r in NODE_RATCHET], ids=[r[0] for r in NODE_RATCHET]
)
def test_node_count_ratchet(build, k, gamma, ceiling):
    cert = gamma_k_exact(build(), k)
    assert cert.status == "Exact" and cert.value == gamma
    assert cert.nodes_explored <= ceiling
