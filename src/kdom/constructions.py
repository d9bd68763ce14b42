"""Graph generators and constructive procedures.

Families: paths, cycles, and clique-expanded paths (paths whose internal
vertices are blown up into cliques, which keep the diameter while raising the
minimum degree — the tight instances for the diameter lower bound). Products:
the direct product, where (g1,h1) ~ (g2,h2) iff g1~g2 and h1~h2, plus
coordinate projections. Procedures: a spanning tree that preserves the
distance-k domination number, and a witness extractor for the two-path
property of vertices that k-dominate a large slice of a shortest cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .errors import (
    BudgetExceeded,
    DisconnectedInput,
    EmptyFactor,
    IndexOutOfRange,
    InvalidOrder,
    PreconditionViolated,
    TooLarge,
)
from .graph import Graph, _scan_shortest_cycle
from .io import _check_size
from .solver import Certificate, _check_k, gamma_k_exact

# -- generators -------------------------------------------------------------


def path(n: int) -> Graph:
    """Path on vertices 0..n-1 in order, n at most ``MAX_VERTICES``."""
    if n < 1:
        raise InvalidOrder("path requires n >= 1")
    _check_size("path", n, n - 1, InvalidOrder)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle on vertices 0..n-1 in order, n at most ``MAX_VERTICES``."""
    if n < 3:
        raise InvalidOrder("cycle requires n >= 3")
    _check_size("cycle", n, n, InvalidOrder)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def clique_expanded_path(n_base: int, delta: int) -> Graph:
    """Path with its internal vertices replaced by cliques of size ``delta``.

    Vertex 0 is the left path endpoint and the last index the right one; the
    i-th internal position becomes a clique of ``delta`` vertices, joined
    completely to the neighboring positions. The result has
    ``2 + (n_base - 2) * delta`` vertices, diameter ``n_base - 1`` and
    minimum degree >= ``delta``; with ``delta = 1`` it is the plain path.
    That order may not exceed ``MAX_VERTICES``, nor the edge count
    ``MAX_EDGES``.
    """
    if n_base < 3:
        raise InvalidOrder("clique-expanded path requires n_base >= 3")
    if delta < 1:
        raise InvalidOrder("clique size delta must be >= 1")
    order = 2 + (n_base - 2) * delta
    # the cliques, the joins between neighbouring cliques, and the two ends
    size = (n_base - 2) * delta * (delta - 1) // 2 + (n_base - 3) * delta * delta + 2 * delta
    _check_size("clique-expanded path", order, size, InvalidOrder)
    cells = [[0]]
    nxt = 1
    for _ in range(n_base - 2):
        cells.append(list(range(nxt, nxt + delta)))
        nxt += delta
    cells.append([nxt])
    edges = []
    for cell in cells[1:-1]:
        edges.extend((cell[i], cell[j]) for i in range(len(cell)) for j in range(i + 1, len(cell)))
    for left, right in zip(cells, cells[1:]):
        edges.extend((u, v) for u in left for v in right)
    return Graph(nxt + 1, edges)


# -- direct products and projections ----------------------------------------


def direct_product(g: Graph, h: Graph) -> Graph:
    """Direct (tensor) product: edges pair up one edge from each factor.

    The product vertex (a, b), with a in G and b in H, has the flattened
    index a*n(H) + b. The result has exactly 2*m(G)*m(H) edges, and can be
    disconnected even when both factors are connected (two bipartite factors
    always split it). An order above ``MAX_VERTICES``, or more edges than
    ``MAX_EDGES``, raises :class:`TooLarge` before any edge is built.
    """
    if g.n == 0 or h.n == 0:
        raise EmptyFactor("direct product requires non-empty factors")
    _check_size("direct product", g.n * h.n, 2 * g.m * h.m, TooLarge)
    edges = []
    for (g1, g2), (h1, h2) in product(g.edges, h.edges):  # reads each edge set once
        edges.append((g1 * h.n + h1, g2 * h.n + h2))
        edges.append((g1 * h.n + h2, g2 * h.n + h1))
    return Graph(g.n * h.n, edges)


def project(vertices: Iterable[int], side: str, h_order: int) -> set[int]:
    """Coordinates on one factor ("left" or "right") of flattened product
    vertices: the flat index f stands for (f // h_order, f % h_order)."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if h_order < 1:
        raise InvalidOrder(f"h_order must be >= 1, got {h_order}")
    out = set()
    for v in vertices:
        if v < 0:
            raise IndexOutOfRange(f"flat index {v} is negative")
        left, right = divmod(v, h_order)
        out.add(left if side == "left" else right)
    return out


# -- domination-preserving spanning tree ------------------------------------


@dataclass(frozen=True)
class SpanningTreeResult:
    """Spanning tree with the same distance-k domination number as the input.

    ``partition[v]`` is the cell index of v, i.e. the position of its assigned
    dominator within ``dominating_set``; ``connectors`` are the cross-cell
    edges that join the per-cell trees into one spanning tree.
    """

    tree: Graph
    dominating_set: tuple[int, ...]
    partition: tuple[int, ...]
    connectors: tuple[tuple[int, int], ...]
    certificate: Certificate


def preserving_spanning_tree(g: Graph, k: int, **budget) -> SpanningTreeResult:
    """Spanning tree T of a connected graph with gamma_k(T) = gamma_k(G).

    Solves for a minimum k-dominating set S, then grows one BFS-style tree
    per dominator: every other vertex attaches to a parent one step closer to
    S, chosen by lowest (cell, index), so each cell stays internally connected
    and every vertex keeps its graph distance to its own dominator (<= k).
    The cell trees are joined by the lexicographically smallest cross-cell
    edges that connect the partition. Dropping edges can only push the
    domination number up, and S still dominates T, so equality holds. The
    empty graph counts as connected and gets the empty tree.
    """
    if not g.is_connected():
        raise DisconnectedInput("spanning tree requires a connected graph")
    cert = gamma_k_exact(g, k, **budget)
    if cert.status != "Exact":
        raise BudgetExceeded("embedded exact solve did not finish within budget")
    dominators = cert.vertices
    n = g.n

    dist_to_s = g.bfs_distances(*dominators)
    label = [-1] * n
    parent = [-1] * n
    for i, v in enumerate(dominators):
        label[v] = i
    for v in sorted(range(n), key=lambda v: (dist_to_s[v], v)):
        if dist_to_s[v] == 0:
            continue
        best = None
        for p in g.adj[v]:
            if dist_to_s[p] == dist_to_s[v] - 1:
                key = (label[p], p)
                if best is None or key < best:
                    best = key
        if best is None:  # impossible: some neighbor is closer to S
            raise AssertionError("no parent found on a shortest path to S")
        label[v] = best[0]
        parent[v] = best[1]

    tree_edges = [(v, parent[v]) for v in range(n) if parent[v] != -1]

    # Kruskal over the cross-cell edges in lexicographic order, which is the
    # order of adj's sorted pairs (u, v) with u < v, joins the cells.
    comp = list(range(len(dominators)))
    connectors = [(u, v) for u, nbrs in enumerate(g.adj) for v in nbrs
                  if u < v and _join(comp, label[u], label[v])]
    if len(dominators) - len(connectors) > 1:  # the empty graph has no cells
        raise AssertionError("cell quotient graph is not connected")

    tree = Graph(n, tree_edges + connectors)
    return SpanningTreeResult(
        tree=tree,
        dominating_set=dominators,
        partition=tuple(label),
        connectors=tuple(connectors),
        certificate=cert,
    )


def _join(root: list[int], u: int, v: int) -> bool:
    """Union-find with path halving: hang the set of ``u`` under the set of
    ``v``, or return False when they are already one set."""
    while root[u] != u:
        root[u] = u = root[root[u]]  # point at the grandparent and step there
    while root[v] != v:
        root[v] = v = root[root[v]]
    root[u] = v
    return u != v


# -- shortest-cycle witness --------------------------------------------------


@dataclass(frozen=True)
class CycleWitness:
    """Two cycle vertices k-dominated by v, with mutually avoiding paths.

    ``path_u`` runs from v to u and never visits w; ``path_w`` runs from v to
    w and never visits u.
    """

    u: int
    w: int
    path_u: tuple[int, ...]
    path_w: tuple[int, ...]


def cycle_outsider_witness(
    g: Graph,
    cycle_vertices: Sequence[int],
    v: int,
    k: int,
    adjacent: bool = False,
) -> CycleWitness:
    """Witness pair for a vertex off a shortest cycle dominating much of it.

    Preconditions: ``cycle_vertices`` is a shortest cycle of ``g`` (its length
    equals the girth), ``v`` lies off the cycle, and v k-dominates at least 2k
    cycle vertices. The returned pair is u = the nearest dominated cycle
    vertex and w = the dominated cycle vertex farthest from u along the
    cycle (ties to the lowest index), together with shortest paths from v
    that provably avoid the opposite endpoint; both properties are re-checked
    on the concrete paths before returning.

    With ``adjacent=True`` the pair is refined to two neighboring cycle
    vertices; that variant requires v to k-dominate the whole cycle.
    """
    _check_k(k)
    g._check_vertex(v)
    cyc = list(cycle_vertices)
    _check_is_cycle(g, cyc)
    girth = _scan_shortest_cycle(g)[0]  # g has a cycle: _check_is_cycle passed
    if len(cyc) != girth:
        raise PreconditionViolated(
            f"given cycle has length {len(cyc)} but the girth is {girth}"
        )
    if v in cyc:
        raise PreconditionViolated(f"vertex {v} lies on the cycle")

    dist_v = g.bfs_distances(v)
    reach = min(k, g.n - 1)  # sentinel-safe when the graph is disconnected
    dominated = [c for c in cyc if dist_v[c] <= reach]
    if len(dominated) < 2 * k:
        raise PreconditionViolated(
            f"v k-dominates only {len(dominated)} cycle vertices, need >= {2 * k}"
        )

    pos = {c: i for i, c in enumerate(cyc)}
    glen = len(cyc)

    def cycle_distance(a: int, b: int) -> int:
        step = abs(pos[a] - pos[b])
        return min(step, glen - step)

    if adjacent:
        if len(dominated) != glen:
            raise PreconditionViolated(
                "adjacent refinement requires v to k-dominate the entire cycle"
            )
        u, w, path_u, path_w = _adjacent_pair(g, cyc, pos, v, dist_v)
    else:
        u = min(cyc, key=lambda c: (dist_v[c], c))
        far = max(cycle_distance(u, c) for c in dominated)
        w = min(c for c in dominated if cycle_distance(u, c) == far)
        path_u = _canonical_shortest_path(g, dist_v, v, u)
        path_w = _canonical_shortest_path(g, dist_v, v, w)

    if dist_v[u] > k or dist_v[w] > k:
        raise AssertionError("witness endpoint is not k-dominated")
    if w in path_u or u in path_w:
        raise AssertionError("witness paths do not avoid the opposite endpoint")
    return CycleWitness(u=u, w=w, path_u=path_u, path_w=path_w)


def _check_is_cycle(g: Graph, cyc: list[int]) -> None:
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        raise PreconditionViolated("cycle must list at least 3 distinct vertices")
    for c in cyc:
        g._check_vertex(c)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        if b not in g.adj[a]:
            raise PreconditionViolated(f"consecutive cycle vertices {a},{b} are not adjacent")


def _canonical_shortest_path(g: Graph, dist_v: list[int], v: int, target: int) -> tuple[int, ...]:
    """The shortest v->target path that always steps to the lowest-index
    predecessor; deterministic given the graph."""
    chain = [target]
    cur = target
    while cur != v:
        cur = min(p for p in g.adj[cur] if dist_v[p] == dist_v[cur] - 1)
        chain.append(cur)
    return tuple(reversed(chain))


def _adjacent_pair(g, cyc, pos, v, dist_v):
    """Refine the witness to two adjacent cycle vertices, following the
    farthest-vertex argument: take w farthest from v; either a cycle neighbor
    of w is equally far (then it serves as u directly), or both neighbors are
    one step closer and at least one of them misses the canonical v->w path."""
    far = max(dist_v[c] for c in cyc)
    w = min(c for c in cyc if dist_v[c] == far)
    n1 = cyc[(pos[w] + 1) % len(cyc)]
    n2 = cyc[(pos[w] - 1) % len(cyc)]
    n1, n2 = min(n1, n2), max(n1, n2)
    path_w = _canonical_shortest_path(g, dist_v, v, w)
    if dist_v[n1] == far:
        u = n1
    elif dist_v[n2] == far:
        u = n2
    elif n1 not in path_w:
        u = n1
    else:
        u = n2
    path_u = _canonical_shortest_path(g, dist_v, v, u)
    return u, w, path_u, path_w
