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
after another in index order, so the output is byte-for-byte reproducible.
Trials are pure Python and bound by the interpreter lock, so they run on the
calling thread. The generator is Python's ``random.Random``
(Mersenne Twister), whose sequences for a fixed integer seed are stable
across platforms and versions. Embedded exact solves are bounded by a node
budget alone: a wall-clock budget would make skip counts depend on machine
load, breaking reproducibility.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .bounds import lb_diameter, lb_girth, lb_radius
from .constructions import direct_product, preserving_spanning_tree, project
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

_MASK64 = (1 << 64) - 1


def _trial_seed(seed: int, index: int) -> int:
    """splitmix64 step: independent, reproducible per-trial seeding."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _is_connected(g: Graph) -> bool:
    return g.n <= 1 or max(g.bfs_distances(0)) < g.n


def random_connected_graph(rng: random.Random, n: int, p: float, max_attempts: int = 1000) -> Graph:
    """Connected G(n,p) by rejection; falls back to a random spanning tree
    plus p-density extra edges so low p still makes progress."""
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(max_attempts):
        g = Graph(n, [e for e in all_pairs if rng.random() < p])
        if _is_connected(g):
            return g
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
    checks_run: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    skipped: dict = field(default_factory=dict)

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def fuzz(
    seed: int,
    trials: int,
    n_range: tuple[int, int] = (4, 12),
    p_range: tuple[float, float] = (0.2, 0.6),
    k_set: tuple[int, ...] = (1, 2),
    budget_nodes: int = DEFAULT_BUDGET_NODES,
) -> FuzzReport:
    """Run the whole invariant suite over ``trials`` seeded random graphs."""
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
    report.checks_run = {c: {"pass": 0, "fail": 0, "skip": 0} for c in CHECKS}
    report.skipped = {
        "acyclic_graph": 0,
        "budget_exhausted": 0,
        "disconnected_product": 0,
        "no_deletable_edge": 0,
    }

    for index in range(trials):
        dispositions, failures, skips = _run_trial(seed, index, n_range, p_range, k_set, budget)
        for check, disp in dispositions:
            report.checks_run[check][disp] += 1
        report.failures.extend(failures)
        for reason in skips:
            report.skipped[reason] += 1
    return report


def _record(failures: list, check: str, trial: int, k: int, g: Graph, **extra) -> None:
    entry = {"check": check, "trial": trial, "k": k, "graph": serialize_edge_list(g)}
    entry.update(extra)
    failures.append(entry)


def _run_trial(seed, index, n_range, p_range, k_set, budget):
    rng = random.Random(_trial_seed(seed, index))
    n = rng.randint(n_range[0], n_range[1])
    p = rng.uniform(p_range[0], p_range[1])
    g = random_connected_graph(rng, n, p)
    met = g.metrics()
    # draws nothing from rng, so computing it up front keeps the draw order
    deletable = [e for e in sorted(g.edges) if _is_connected(Graph(g.n, g.edges - {e}))]

    dispositions: list[tuple[str, str]] = []
    failures: list[dict] = []
    skips: list[str] = []

    def judge(check: str, k: int, ok: bool, **extra) -> None:
        dispositions.append((check, "pass" if ok else "fail"))
        if not ok:
            _record(failures, check, index, k, g, **extra)

    for k in k_set:
        gamma = gamma_k_oracle(g, k).value

        judge("diameter_lower_bound", k, gamma >= lb_diameter(met.diameter, k), gamma=gamma)
        judge("radius_lower_bound", k, gamma >= lb_radius(met.radius, k), gamma=gamma)
        if met.girth == float("inf"):
            dispositions.append(("girth_lower_bound", "skip"))
            skips.append("acyclic_graph")
        else:
            judge("girth_lower_bound", k, gamma >= lb_girth(met.girth, k), gamma=gamma)

        try:
            res = preserving_spanning_tree(g, k, **budget)
        except BudgetExceeded:
            dispositions.append(("spanning_tree_preserves_gamma", "skip"))
            skips.append("budget_exhausted")
        else:
            ok = (
                _spanning_tree_valid(g, res.tree)
                and all(
                    res.tree.closed_k_neighborhood(res.dominating_set[c], k) >> v & 1
                    for v, c in enumerate(res.partition)
                )
                and gamma_k_oracle(res.tree, k).value == gamma
            )
            judge("spanning_tree_preserves_gamma", k, ok, gamma=gamma)

        if not deletable:
            dispositions.append(("edge_deletion_monotonic", "skip"))
            skips.append("no_deletable_edge")
        else:
            e = deletable[rng.randrange(len(deletable))]
            sub = Graph(g.n, g.edges - {e})
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
            dispositions.append(("projection_dominates_factors", "skip"))
            dispositions.append(("product_lower_bound", "skip"))
            skips.extend(["budget_exhausted", "budget_exhausted"])
            continue
        proj_ok = is_k_dominating(
            left, project(cert.vertices, "left", right.n), k
        ) and is_k_dominating(right, project(cert.vertices, "right", right.n), k)
        dispositions.append(("projection_dominates_factors", "pass" if proj_ok else "fail"))
        if not proj_ok:
            _record(
                failures,
                "projection_dominates_factors",
                index,
                k,
                left,
                right_factor=serialize_edge_list(right),
            )
        if cert.components > 1:
            dispositions.append(("product_lower_bound", "skip"))
            skips.append("disconnected_product")
        else:
            bound = gamma_k_oracle(left, k).value + gamma_k_oracle(right, k).value - 1
            ok = cert.value >= bound
            dispositions.append(("product_lower_bound", "pass" if ok else "fail"))
            if not ok:
                _record(
                    failures,
                    "product_lower_bound",
                    index,
                    k,
                    left,
                    right_factor=serialize_edge_list(right),
                    gamma_product=cert.value,
                    bound=bound,
                )
    return dispositions, failures, skips


def _spanning_tree_valid(g: Graph, tree: Graph) -> bool:
    return (
        tree.n == g.n
        and tree.m == g.n - 1
        and tree.edges <= g.edges
        and _is_connected(tree)
    )
