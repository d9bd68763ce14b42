"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every expected value is either a closed form, an independently
computed oracle value, or a cross-check between two independent solvers.
"""

import json
import random
import time

import pytest

from conftest import random_connected
from test_constructions import cycle_witness_gadget

from kdom import (
    Graph,
    clique_expanded_path,
    cycle,
    cycle_outsider_witness,
    direct_product,
    gamma_k_exact,
    gamma_k_oracle,
    is_k_dominating,
    lb_diameter,
    lb_girth,
    lb_radius,
    path,
    preserving_spanning_tree,
    project,
)
from kdom.cli import main


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """200 seeded random connected graphs with n in [4, 14]."""
    rng = random.Random(20240)
    graphs = []
    while len(graphs) < 200:
        n = rng.randint(4, 14)
        p = rng.uniform(0.15, 0.7)
        graphs.append(random_connected(rng, n, p))
    return graphs


def test_criterion_1_closed_form_agreement():
    started = time.monotonic()
    checked = 0
    for k in (1, 2, 3):
        window = 2 * k + 1
        for n in range(1, 17):
            assert gamma_k_oracle(path(n), k).value == -(-n // window)
            checked += 1
        for n in range(3, 17):
            assert gamma_k_oracle(cycle(n), k).value == -(-n // window)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10
    _report(1, True, f"oracle matches ceil(n/(2k+1)) on {checked} path/cycle instances "
                     f"({elapsed:.1f}s)")


def test_criterion_2_solver_equivalence(corpus):
    started = time.monotonic()
    mismatches = 0
    for g in corpus:
        for k in (1, 2, 3):
            exact = gamma_k_exact(g, k)
            oracle = gamma_k_oracle(g, k)
            if exact.status != "Exact" or exact.value != oracle.value:
                mismatches += 1
            assert is_k_dominating(g, exact.vertices, k)
    elapsed = time.monotonic() - started
    assert elapsed < 60
    _report(2, mismatches == 0,
            f"branch-and-bound equals oracle on {len(corpus)} graphs x k in {{1,2,3}} "
            f"({mismatches} mismatches, {elapsed:.1f}s)")


def test_criterion_3_metric_lower_bounds(corpus):
    violations = 0
    cyclic = 0
    for g in corpus:
        met = g.metrics()
        for k in (1, 2, 3):
            gamma = gamma_k_oracle(g, k).value
            if gamma < lb_diameter(met.diameter, k):
                violations += 1
            if gamma < lb_radius(met.radius, k):
                violations += 1
            if met.girth != float("inf"):
                cyclic += 1
                if gamma < lb_girth(met.girth, k):
                    violations += 1
    _report(3, violations == 0,
            f"diameter/radius bounds on {3 * len(corpus)} cases and girth bound on "
            f"{cyclic} cyclic cases: {violations} violations")


def test_criterion_4_tightness():
    failures = []
    for k in (1, 2, 3):
        window = 2 * k + 1
        for ell in (1, 2, 3, 4):
            g = path(ell * window)
            if not (gamma_k_exact(g, k).value == lb_diameter(g.metrics().diameter, k) == ell):
                failures.append(("path", k, ell))
        for ell in (1, 2):
            g = path(2 * ell * window)
            value = gamma_k_exact(g, k).value
            if not (value == lb_radius(g.metrics().radius, k) == 2 * ell):
                failures.append(("path-radius", k, ell))
        for ell in (1, 2, 3):
            g = cycle(ell * window)
            if not (gamma_k_exact(g, k).value == lb_girth(g.metrics().girth, k) == ell):
                failures.append(("cycle", k, ell))
    for k in (1, 2):
        for delta in (1, 2, 3):
            g = clique_expanded_path(2 * (2 * k + 1), delta)
            if not (gamma_k_exact(g, k).value == lb_diameter(g.metrics().diameter, k) == 2):
                failures.append(("clique-expanded", k, delta))
    _report(4, not failures, f"tight families attain their bounds exactly {failures or ''}")


def test_criterion_5_spanning_tree_preserves_gamma():
    rng = random.Random(20245)
    failures = 0
    instances = 0
    while instances < 100:
        g = random_connected(rng, rng.randint(2, 14), rng.uniform(0.15, 0.7))
        instances += 1
        for k in (1, 2):
            res = preserving_spanning_tree(g, k)
            tree = res.tree
            ok = (
                tree.n == g.n
                and tree.m == g.n - 1
                and tree.edges <= g.edges
                and tree.metrics().connected
                and gamma_k_oracle(tree, k).value == gamma_k_oracle(g, k).value
                and all(
                    tree.bfs_distances(v)[res.dominating_set[res.partition[v]]] <= k
                    for v in range(g.n)
                )
            )
            if not ok:
                failures += 1
    _report(5, failures == 0,
            f"spanning tree valid and gamma-preserving on {instances} graphs x k in {{1,2}} "
            f"({failures} failures)")


def test_criterion_6_projection_and_product_bound():
    started = time.monotonic()
    rng = random.Random(20246)
    pairs = 0
    attempts = 0
    failures = 0
    while pairs < 30 and attempts < 500:
        attempts += 1
        a = random_connected(rng, rng.randint(2, 6), rng.uniform(0.3, 0.9))
        b = random_connected(rng, rng.randint(2, 6), rng.uniform(0.3, 0.9))
        prod = direct_product(a, b)
        cert1 = gamma_k_exact(prod, 1)
        if cert1.components != 1:
            continue
        pairs += 1
        for k in (1, 2):
            cert = gamma_k_exact(prod, k) if k != 1 else cert1
            dom_left = project(cert.vertices, "left", b.n)
            dom_right = project(cert.vertices, "right", b.n)
            bound = gamma_k_oracle(a, k).value + gamma_k_oracle(b, k).value - 1
            ok = (
                cert.status == "Exact"
                and is_k_dominating(a, dom_left, k)
                and is_k_dominating(b, dom_right, k)
                and cert.value >= bound
            )
            if not ok:
                failures += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _report(6, pairs >= 30 and failures == 0,
            f"projections dominate factors and product bound holds on {pairs} connected "
            f"products x k in {{1,2}} ({failures} failures, {elapsed:.1f}s)")


def test_criterion_7_cycle_witness():
    instances = 0
    failures = 0
    for k in (1, 2, 3):
        for rotation in range(2 * k + 2):
            for pendant in (0, 1, 2):
                g, cyc, v = cycle_witness_gadget(k, rotation, pendant)
                instances += 1
                dist_v = g.bfs_distances(v)
                wit = cycle_outsider_witness(g, cyc, v, k)
                ok = (
                    dist_v[wit.u] <= k
                    and dist_v[wit.w] <= k
                    and wit.w not in wit.path_u
                    and wit.u not in wit.path_w
                    and len(wit.path_u) == dist_v[wit.u] + 1
                    and len(wit.path_w) == dist_v[wit.w] + 1
                    and all(g.has_edge(x, y) for x, y in zip(wit.path_u, wit.path_u[1:]))
                    and all(g.has_edge(x, y) for x, y in zip(wit.path_w, wit.path_w[1:]))
                )
                if not ok:
                    failures += 1
    assert instances >= 50
    _report(7, failures == 0,
            f"witness pair verified on {instances} cycle-plus-gadget instances "
            f"({failures} failures)")


def test_criterion_8_edge_deletion_monotonicity():
    rng = random.Random(20248)
    samples = 0
    violations = 0
    while samples < 100:
        g = random_connected(rng, rng.randint(3, 12), rng.uniform(0.25, 0.7))
        k = rng.randint(1, 3)
        base = gamma_k_oracle(g, k).value
        for e in sorted(g.edges):
            sub = Graph(g.n, g.edges - {e})
            if max(sub.bfs_distances(0)) >= sub.n:
                continue  # bridge: deleting disconnects
            samples += 1
            if gamma_k_oracle(sub, k).value < base:
                violations += 1
            if samples >= 100:
                break
    _report(8, violations == 0,
            f"gamma never drops when deleting a non-bridge edge ({samples} samples, "
            f"{violations} violations)")


def test_criterion_9_fuzz_determinism(capsys, tmp_path):
    documents = []
    for run in range(3):
        code = main(["fuzz", "--seed", "1234", "--trials", "10", "--n-max", "10", "--k", "1,2"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        doc.pop("timing")
        documents.append(json.dumps(doc, sort_keys=True))
    identical = documents[0] == documents[1] == documents[2]
    _report(9, identical, "three fuzz runs with the same seed agree byte-for-byte "
                          "(timing key excluded)")
