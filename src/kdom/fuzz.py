"""Randomized verification of every library invariant over seeded trials.

Each trial draws one connected graph (rejection-sampled G(n,p) with a random
spanning-tree fallback) and, for every k in the configured set, checks:

* the diameter, radius, and girth lower bounds against the oracle value;
* that the domination-preserving spanning tree is a valid spanning tree and
  keeps the domination number;
* that deleting a non-bridge edge never lowers the domination number;
* on a fresh pair of small connected factors: that both projections of a
  minimum k-dominating set of the direct product dominate the factors, and —
  when the product is connected — the additive product lower bound.

Trial randomness derives from (seed, trial index) only, and trials run one
after another on the calling thread, each writing its dispositions and
failures straight into the report in index order, so the output is
byte-for-byte reproducible. The generator is Python's ``random.Random``
(Mersenne Twister), whose sequences for a fixed integer seed are stable
across platforms and versions. Embedded exact solves are bounded by a node
budget alone: a wall-clock budget would make skip counts depend on machine
load, breaking reproducibility.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bounds import lb_diameter, lb_girth, lb_radius
from .constructions import _join, direct_product, preserving_spanning_tree, project
from .errors import BudgetExceeded
from .graph import Graph
from .io import serialize_edge_list
from .solver import (
    DEFAULT_BUDGET_NODES,
    ORACLE_MAX_N,
    gamma_k_exact,
    gamma_k_oracle,
    is_k_dominating,
)

CHECKS = (
    "diameter_lower_bound",
    "radius_lower_bound",
    "girth_lower_bound",
    "spanning_tree_preserves_gamma",
    "edge_deletion_monotonic",
    "projection_dominates_factors",
    "product_lower_bound",
)
SKIP_REASONS = ("acyclic_graph", "budget_exhausted", "disconnected_product", "no_deletable_edge")

_MASK64 = (1 << 64) - 1


def _trial_seed(seed: int, index: int) -> int:
    """splitmix64 step: independent, reproducible per-trial seeding."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _non_bridges(g: Graph) -> list[tuple[int, int]]:
    """The edges that lie on a cycle, ascending, as ``(lower, higher)`` pairs.

    Deleting one of them keeps every component connected, so on a connected
    graph they are exactly the deletable edges. One iterative low-link DFS:
    the tree edge (p, v) is a bridge when no other edge from v's subtree
    reaches p or a vertex discovered before it.
    """
    order = [-1] * g.n  # discovery index
    low = [0] * g.n
    bridges = set()
    count = 0
    for start in range(g.n):
        if order[start] >= 0:
            continue
        order[start] = low[start] = count
        count += 1
        stack = [(start, -1, iter(g.adj[start]))]
        while stack:
            v, p, nbrs = stack[-1]
            for w in nbrs:
                if order[w] < 0:
                    order[w] = low[w] = count
                    count += 1
                    stack.append((w, v, iter(g.adj[w])))
                    break
                if w != p:
                    low[v] = min(low[v], order[w])
            else:
                stack.pop()
                if p >= 0:
                    low[p] = min(low[p], low[v])
                    if low[v] > order[p]:
                        bridges.add((p, v) if p < v else (v, p))
    return [(u, v) for u, nbrs in enumerate(g.adj) for v in nbrs if u < v and (u, v) not in bridges]


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Connected G(n,p) by rejection over 1000 draws, then a random spanning
    tree plus p-density extra edges so low p still makes progress. A draw is
    tested on its pair list, so a ``Graph`` is built only for the draw that
    is kept."""
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(1000):
        pairs = [e for e in all_pairs if rng.random() < p]
        root = list(range(n))
        if sum(_join(root, u, v) for u, v in pairs) >= n - 1:
            return Graph(n, pairs)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for e in all_pairs:
        if e not in edges and rng.random() < p:
            edges.add(e)
    return Graph(n, edges)


@dataclass
class FuzzReport:
    """Aggregate pass/fail/skip record of all invariant checks.

    Every (trial, k) pair contributes exactly one disposition to each check,
    so per check pass + fail + skip == trials * len(k_set).
    """

    seed: int
    trials: int
    n_range: tuple[int, int]
    p_range: tuple[float, float]
    k_set: tuple[int, ...]
    checks_run: dict = field(
        default_factory=lambda: {c: {"pass": 0, "fail": 0, "skip": 0} for c in CHECKS})
    failures: list = field(default_factory=list)
    skipped: dict = field(default_factory=lambda: dict.fromkeys(SKIP_REASONS, 0))

    def skip(self, check: str, reason: str) -> None:
        """Count one skipped disposition of ``check`` and its reason."""
        self.checks_run[check]["skip"] += 1
        self.skipped[reason] += 1

    def to_dict(self) -> dict:
        return {
            "schema": "kdom/1",
            "seed": self.seed,
            "trials": self.trials,
            "generator_params": {
                "n_range": list(self.n_range),
                "p_range": list(self.p_range),
                "k_set": list(self.k_set),
            },
            "checks_run": self.checks_run,
            "failures": self.failures,
            "skipped": self.skipped,
        }


def fuzz(
    seed: int,
    trials: int,
    n_range: tuple[int, int] = (4, 12),
    p_range: tuple[float, float] = (0.2, 0.6),
    k_set: tuple[int, ...] = (1, 2),
    budget_nodes: int = DEFAULT_BUDGET_NODES,
) -> FuzzReport:
    """Run the whole invariant suite over ``trials`` seeded random graphs."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if n_range[0] < 1 or n_range[0] > n_range[1]:
        raise ValueError(f"bad n_range {n_range}")
    if n_range[1] > ORACLE_MAX_N:
        raise ValueError(f"n_range exceeds the oracle cap {ORACLE_MAX_N}")
    if not 0.0 <= p_range[0] <= p_range[1] <= 1.0:
        raise ValueError(f"bad p_range {p_range}")
    k_set = tuple(sorted(set(k_set)))
    if not k_set or k_set[0] < 1:
        raise ValueError("k_set must hold integers >= 1")

    budget = {"budget_nodes": budget_nodes, "budget_seconds": float("inf")}
    report = FuzzReport(seed, trials, tuple(n_range), tuple(p_range), k_set)
    for index in range(trials):
        _run_trial(report, index, budget)
    return report


def _run_trial(report: FuzzReport, index: int, budget: dict) -> None:
    """Run trial ``index`` of ``report`` and record every disposition in it."""
    rng = random.Random(_trial_seed(report.seed, index))
    n = rng.randint(*report.n_range)
    p = rng.uniform(*report.p_range)
    g = random_connected_graph(rng, n, p)
    met = g.metrics()
    # draws nothing from rng, so computing it up front keeps the draw order
    deletable = _non_bridges(g)

    def judge(check: str, k: int, ok: bool, graph: Graph = g, **extra) -> None:
        """Count a pass or a fail; a failure records ``graph`` and ``extra``,
        any graph among them written as edge-list text."""
        report.checks_run[check]["pass" if ok else "fail"] += 1
        if not ok:
            entry = {"check": check, "trial": index, "k": k, "graph": serialize_edge_list(graph)}
            for key, value in extra.items():
                entry[key] = serialize_edge_list(value) if isinstance(value, Graph) else value
            report.failures.append(entry)

    for k in report.k_set:
        gamma = gamma_k_oracle(g, k).value

        judge("diameter_lower_bound", k, gamma >= lb_diameter(met.diameter, k), gamma=gamma)
        judge("radius_lower_bound", k, gamma >= lb_radius(met.radius, k), gamma=gamma)
        if met.girth == float("inf"):
            report.skip("girth_lower_bound", "acyclic_graph")
        else:
            judge("girth_lower_bound", k, gamma >= lb_girth(met.girth, k), gamma=gamma)

        try:
            res = preserving_spanning_tree(g, k, **budget)
        except BudgetExceeded:
            report.skip("spanning_tree_preserves_gamma", "budget_exhausted")
        else:
            # every vertex stays within k of its own cell's dominator in the tree
            reach = [set(res.tree.closed_k_neighborhood(d, k)) for d in res.dominating_set]
            ok = (
                _spanning_tree_valid(g, res.tree)
                and all(v in reach[c] for v, c in enumerate(res.partition))
                and gamma_k_oracle(res.tree, k).value == gamma
            )
            judge("spanning_tree_preserves_gamma", k, ok, gamma=gamma)

        if not deletable:
            report.skip("edge_deletion_monotonic", "no_deletable_edge")
        else:
            e = deletable[rng.randrange(len(deletable))]
            sub = Graph(g.n, [(u, v) for u, nbrs in enumerate(g.adj) for v in nbrs if u < v and (u, v) != e])
            judge(
                "edge_deletion_monotonic",
                k,
                gamma_k_oracle(sub, k).value >= gamma,
                deleted_edge=list(e),
            )

        left = random_connected_graph(rng, rng.randint(2, 5), rng.uniform(0.4, 0.9))
        right = random_connected_graph(rng, rng.randint(2, 5), rng.uniform(0.4, 0.9))
        prod = direct_product(left, right)
        cert = gamma_k_exact(prod, k, **budget)
        if cert.status != "Exact":
            report.skip("projection_dominates_factors", "budget_exhausted")
            report.skip("product_lower_bound", "budget_exhausted")
            continue
        proj_ok = is_k_dominating(
            left, project(cert.vertices, "left", right.n), k
        ) and is_k_dominating(right, project(cert.vertices, "right", right.n), k)
        judge("projection_dominates_factors", k, proj_ok, left, right_factor=right)
        if cert.components > 1:
            report.skip("product_lower_bound", "disconnected_product")
        else:
            bound = gamma_k_oracle(left, k).value + gamma_k_oracle(right, k).value - 1
            judge("product_lower_bound", k, cert.value >= bound, left,
                  right_factor=right, gamma_product=cert.value, bound=bound)


def _spanning_tree_valid(g: Graph, tree: Graph) -> bool:
    return (
        tree.n == g.n
        and tree.m == g.n - 1
        and all(v in g.adj[u] for u, nbrs in enumerate(tree.adj) for v in nbrs)
        and tree.is_connected()
    )
