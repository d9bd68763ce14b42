"""Correctness gate, run on one pass of outputs after the timed loop.

Each check returns a list of problems; an empty list means the output passed.
Certificates are re-verified with the library's ``is_k_dominating`` on a
graph built from the generator's own edge list, and again with the gate's own
k-balls, so a change that breaks ``is_k_dominating`` together with the
solver's choice of set is still caught. On ``gamma-sparse`` the value
is also compared with an integer program solved by HiGHS through
``scipy.optimize.milp`` when SciPy imports; otherwise the instance counts as
unverified.
"""

from __future__ import annotations

from collections import deque

from corpus import Instance, Op

FUZZ_CHECK_NAMES = (
    "diameter_lower_bound",
    "radius_lower_bound",
    "girth_lower_bound",
    "spanning_tree_preserves_gamma",
    "edge_deletion_monotonic",
    "projection_dominates_factors",
    "product_lower_bound",
)


def _balls(inst: Instance, k: int) -> list[list[int]]:
    adj = [[] for _ in range(inst.n)]
    for u, v in inst.edges:
        adj[u].append(v)
        adj[v].append(u)
    balls = []
    for s in range(inst.n):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if dist[u] == k:
                continue
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        balls.append(sorted(dist))
    return balls


def milp_gamma(inst: Instance, k: int) -> int | None:
    """Optimal distance-k domination number by HiGHS, or None without SciPy."""
    try:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import csr_matrix
    except ImportError:
        return None
    rows, cols = [], []
    for v, ball in enumerate(_balls(inst, k)):
        rows.extend([v] * len(ball))
        cols.extend(ball)
    a = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(inst.n, inst.n))
    res = milp(
        c=np.ones(inst.n),
        constraints=LinearConstraint(a, lb=1, ub=np.inf),
        integrality=np.ones(inst.n),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve {inst.name}: {res.message}")
    return int(round(res.fun))


def _certificate(kdom, inst: Instance, cert: dict, k: int) -> list[str]:
    g = kdom.Graph(inst.n, inst.edges)
    chosen = cert["set"]
    problems = []
    if len(set(chosen)) != cert["gamma_k"]:
        problems.append(f"{inst.name} k={k}: set size {len(set(chosen))} != gamma {cert['gamma_k']}")
    if not kdom.is_k_dominating(g, chosen, k):
        problems.append(f"{inst.name} k={k}: certificate does not k-dominate")
    missed = sum(set(chosen).isdisjoint(ball) for ball in _balls(inst, k))
    if missed:
        problems.append(f"{inst.name} k={k}: {missed} vertices have no chosen vertex within k")
    return problems


def check_gamma(kdom, op: Op, doc: dict, best: int | None) -> tuple[list[str], bool]:
    """Problems with one ``kdom gamma`` output given the HiGHS optimum
    ``best`` (None when SciPy is missing), and whether it was cross-checked."""
    (k,) = op.ks
    (cert,) = doc["results"]
    problems = _certificate(kdom, op.instance, cert, k)
    if best is not None:
        if cert["status"] == "Exact" and cert["gamma_k"] != best:
            problems.append(f"{op.instance.name} k={k}: Exact {cert['gamma_k']} != HiGHS {best}")
        if cert["status"] != "Exact" and cert["gamma_k"] < best:
            problems.append(f"{op.instance.name} k={k}: upper bound {cert['gamma_k']} < HiGHS {best}")
    return problems, best is not None


def check_bounds(kdom, op: Op, doc: dict) -> list[str]:
    """Tight families: verdict Consistent and gamma = ceil(n_base / (2k+1))."""
    problems = []
    results = doc["results"]
    if [r["k"] for r in results] != list(op.ks):
        return [f"{op.instance.name}: reported k values {[r['k'] for r in results]}"]
    for r in results:
        k = r["k"]
        want = -(-op.instance.n_base // (2 * k + 1))
        if r["verdict"] != "Consistent":
            problems.append(f"{op.instance.name} k={k}: verdict {r['verdict']}")
        if r["exact"] is None:
            problems.append(f"{op.instance.name} k={k}: no exact certificate")
            continue
        if r["exact"]["gamma_k"] != want:
            problems.append(f"{op.instance.name} k={k}: gamma {r['exact']['gamma_k']} != {want}")
        problems.extend(_certificate(kdom, op.instance, r["exact"], k))
    return problems


def check_fuzz(op: Op, doc: dict) -> list[str]:
    """No failures, and every check saw each (trial, k) pair exactly once."""
    problems = []
    if doc["failures"]:
        problems.append(f"fuzz {op.argv[2]}: {len(doc['failures'])} invariant failures")
    want = op.trials * len(op.ks)
    for name in FUZZ_CHECK_NAMES:
        counts = doc["checks_run"].get(name)
        total = sum(counts.values()) if counts else 0
        if total != want:
            problems.append(f"fuzz {op.argv[2]}: {name} has {total} dispositions, want {want}")
    return problems
