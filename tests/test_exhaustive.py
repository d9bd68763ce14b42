"""Every connected graph on at most seven vertices, at k = 1, 2, 3.

networkx's graph atlas lists all graphs up to isomorphism on 0-7 vertices;
996 of them are connected and non-empty. On each, the branch-and-bound must
match the enumeration oracle, the paper's diameter, radius and girth bounds
and the packing bound must stay at or below gamma_k and every applicable
upper bound at or above it, the preserving spanning tree must keep gamma_k,
and deleting any edge must not lower it. The product bound and both
projections are checked on every pair of atlas graphs with 2-5 vertices.

The paper's bounds are tight on paths, cycles and clique-expanded paths. On
graphs this small most gamma_k are 1 or 2, so max(1, bound) equals gamma_k
far beyond those families; the census of equalities per bound and k is
pinned, so any change to a bound's value shows.
"""

import math
from collections import Counter

import pytest

from kdom import (
    Graph,
    direct_product,
    gamma_k_exact,
    gamma_k_oracle,
    is_k_dominating,
    lb_diameter,
    lb_girth,
    lb_radius,
    packing_lower,
    preserving_spanning_tree,
    product_bound_check,
    project,
    ub_henning_lichiardopol,
    ub_meir_moon,
    ub_tian_xu,
)
from kdom.solver import ORACLE_MAX_N

nx = pytest.importorskip("networkx")

K = (1, 2, 3)


@pytest.fixture(scope="module")
def atlas():
    """(graph, {k: gamma_k from the oracle}) for every connected atlas graph."""
    graphs = [
        Graph(h.number_of_nodes(), h.edges())
        for h in nx.graph_atlas_g()
        if h.number_of_nodes() and nx.is_connected(h)
    ]
    return [(g, {k: gamma_k_oracle(g, k).value for k in K}) for g in graphs]


def test_atlas_size(atlas):
    assert len(atlas) == 996


def test_exact_matches_oracle(atlas):
    for g, gamma in atlas:
        for k in K:
            cert = gamma_k_exact(g, k)
            assert cert.status == "Exact" and cert.value == gamma[k], (g.edges, k)
            assert cert.lower_bound_used <= gamma[k], (g.edges, k)
            assert is_k_dominating(g, cert.vertices, k)


def test_bounds_hold_and_census(atlas):
    tight = Counter()
    for g, gamma in atlas:
        met = g.metrics()
        for k in K:
            lower = {"diameter": lb_diameter(met.diameter, k), "radius": lb_radius(met.radius, k)}
            if not math.isinf(met.girth):  # the girth bound needs a cycle
                lower["girth"] = lb_girth(met.girth, k)
            for name, lb in lower.items():
                assert lb <= gamma[k], (name, g.edges, k)
                tight[name, k] += max(1, lb) == gamma[k]
            assert packing_lower(g, k) <= gamma[k]
            upper = (
                ub_meir_moon(g.n, k),
                ub_tian_xu(g.n, g.max_degree(), k),
                ub_henning_lichiardopol(g.n, g.min_degree(), g.max_degree(), k),
            )
            assert all(ub is None or ub >= gamma[k] for ub in upper), (g.edges, k)
    assert tight == {
        ("diameter", 1): 704, ("diameter", 2): 990, ("diameter", 3): 996,
        ("radius", 1): 952, ("radius", 2): 996, ("radius", 3): 996,
        ("girth", 1): 255, ("girth", 2): 961, ("girth", 3): 971,
    }


def test_spanning_tree_keeps_gamma(atlas):
    for g, gamma in atlas:
        for k in K:
            tree = preserving_spanning_tree(g, k).tree
            assert tree.m == g.n - 1 and tree.is_connected() and tree.edges <= g.edges
            assert gamma_k_oracle(tree, k).value == gamma[k], (g.edges, k)


def test_edge_deletion_never_lowers_gamma(atlas):
    for g, gamma in atlas:
        for e in g.edges:
            sub = Graph(g.n, g.edges - {e})
            for k in K:
                assert gamma_k_oracle(sub, k).value >= gamma[k], (g.edges, e, k)


def test_product_bound_and_projections(atlas):
    factors = [(g, gamma) for g, gamma in atlas if 2 <= g.n <= 5]
    assert len(factors) == 30
    verdicts = Counter()
    for i, (g, gamma_g) in enumerate(factors):
        for h, gamma_h in factors[i:]:
            prod = direct_product(g, h)
            for k in K:
                r = product_bound_check(g, h, k)
                assert (r.gamma_left, r.gamma_right) == (gamma_g[k], gamma_h[k])
                cert = gamma_k_exact(prod, k)
                assert cert.value == r.gamma_product
                if prod.n <= ORACLE_MAX_N:
                    assert cert.value == gamma_k_oracle(prod, k).value
                # a product walk projects to a walk of the same length on each factor
                assert is_k_dominating(g, project(cert.vertices, "left", h.n), k)
                assert is_k_dominating(h, project(cert.vertices, "right", h.n), k)
                verdicts[r.satisfied, r.gamma_product == r.lower_bound] += 1
    # 465 pairs at three k; a disconnected product is recorded (None), never judged
    assert verdicts == {(True, True): 559, (True, False): 671, (None, False): 165}
