"""Immutable simple graphs with BFS-based metric computations.

Vertices are the integers 0..n-1. Every graph keeps two synchronized views of
the adjacency relation: sorted neighbor tuples for BFS traversal and one int
bitset per vertex for word-parallel cover operations in the solver. Distances
are plain hop counts; inside a BFS distance row "unreachable" is encoded as
the sentinel value n (strictly larger than any realizable distance), while
reporting-level quantities (diameter, radius, girth, eccentricity) use
``math.inf`` so disconnected and acyclic cases read naturally.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import IndexOutOfRange, SimplenessViolation

INF = math.inf


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "adj_bits", "edges", "_metrics", "_balls")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        """Build a graph from already-clean edges (no loops, no duplicates).

        Most callers should use :func:`from_edge_list`, which validates and
        canonicalizes raw input.
        """
        self.n = n
        edge_set = frozenset((u, v) if u < v else (v, u) for u, v in edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        bits = [0] * n
        for u, v in edge_set:
            adj[u].append(v)
            adj[v].append(u)
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.edges = edge_set
        self.adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self.adj_bits = tuple(bits)
        self._metrics: Metrics | None = None
        self._balls: dict[int, tuple[int, ...]] = {}

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adj[v])

    def min_degree(self) -> int:
        return min((len(a) for a in self.adj), default=0)

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return (min(u, v), max(u, v)) in self.edges

    def full_mask(self) -> int:
        """Bitset containing every vertex."""
        return (1 << self.n) - 1

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexOutOfRange(f"vertex {v} not in [0, {self.n})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- metric operations -------------------------------------------------

    def bfs_distances(self, *sources: int) -> list[int]:
        """Hop distances to the nearest of ``sources``; unreachable vertices
        get the sentinel n."""
        dist = [self.n] * self.n
        for v in sources:
            self._check_vertex(v)
            dist[v] = 0
        queue = deque(sources)
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for w in self.adj[u]:
                if dist[w] > du:
                    dist[w] = du
                    queue.append(w)
        return dist

    def closed_k_neighborhood(self, v: int, k: int) -> int:
        """Bitset of all vertices within distance ``k`` of ``v`` (k >= 0)."""
        self._check_vertex(v)
        if k < 0:
            raise ValueError("k must be >= 0")
        mask = 1 << v
        frontier = [v]
        seen = mask
        for _ in range(min(k, self.n - 1)):
            nxt = []
            for u in frontier:
                new = self.adj_bits[u] & ~seen
                if new:
                    seen |= new
                    nxt.extend(iter_bits(new))
            if not nxt:
                break
            frontier = nxt
        return seen

    def balls(self, k: int) -> tuple[int, ...]:
        """The closed k-neighborhood bitset of every vertex, computed once per
        k and cached; the same tuple is returned on every call."""
        table = self._balls.get(k)
        if table is None:
            table = tuple(self.closed_k_neighborhood(v, k) for v in range(self.n))
            self._balls[k] = table
        return table

    def metrics(self) -> Metrics:
        """Eccentricities, diameter, radius and girth, computed once and cached."""
        if self._metrics is None:
            self._metrics = _compute_metrics(self)
        return self._metrics

    def shortest_cycle(self) -> tuple[int, ...] | None:
        """One shortest cycle as an ordered vertex tuple, or None if acyclic.

        Deterministic: the scan prefers lower BFS roots, then lexicographically
        smaller closing edges, so repeated calls return the same cycle.
        """
        found = _scan_shortest_cycle(self)
        if found is None:
            return None
        _, root, u, w, dist, parent = found
        chain_u = _chain_to_root(u, parent)
        chain_w = _chain_to_root(w, parent)
        on_u = set(chain_u)
        meet = next(x for x in chain_w if x in on_u)
        # Girth minimality forces the chains to meet only at the root; guard anyway.
        if meet != root:
            raise AssertionError("shortest-cycle chains met below the BFS root")
        cycle = list(reversed(chain_u)) + chain_w[:-1]
        if len(set(cycle)) != len(cycle):
            raise AssertionError("reconstructed cycle revisits a vertex")
        return tuple(cycle)


@dataclass(frozen=True)
class Metrics:
    """Cached metric bundle for one graph.

    ``ecc``, ``diameter`` and ``radius`` are ``math.inf`` when the graph is
    disconnected, and ``girth`` is ``math.inf`` when the graph is acyclic.
    Distances themselves are not kept; :meth:`Graph.bfs_distances` gives them.
    """

    ecc: tuple[float, ...]
    diameter: float
    radius: float
    girth: float
    connected: bool


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]], strict: bool = False) -> Graph:
    """Canonical Graph from raw index pairs.

    In strict mode any self-loop or duplicate edge (in either orientation)
    raises :class:`SimplenessViolation`; otherwise they are dropped and a
    single warning reports how many were discarded.
    """
    if n < 0:
        raise ValueError("vertex count must be >= 0")
    seen: set[tuple[int, int]] = set()
    loops = 0
    dupes = 0
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u},{v}) uses a vertex outside [0, {n})")
        if u == v:
            if strict:
                raise SimplenessViolation(f"self-loop at vertex {u}")
            loops += 1
            continue
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            if strict:
                raise SimplenessViolation(f"duplicate edge ({u},{v})")
            dupes += 1
            continue
        seen.add(edge)
    if loops or dupes:
        warnings.warn(
            f"dropped {loops} self-loop(s) and {dupes} duplicate edge(s)",
            stacklevel=2,
        )
    return Graph(n, seen)


def _compute_metrics(g: Graph) -> Metrics:
    n = g.n
    if n == 0:
        return Metrics(ecc=(), diameter=0, radius=0, girth=INF, connected=True)
    ecc: list[float] = []
    for v in range(n):
        far = max(g.bfs_distances(v))
        ecc.append(INF if far >= n else far)  # sentinel: v cannot reach everything
    connected = INF not in ecc
    diameter = max(ecc) if connected else INF
    radius = min(ecc) if connected else INF
    found = _scan_shortest_cycle(g)
    girth: float = INF if found is None else found[0]
    return Metrics(
        ecc=tuple(ecc),
        diameter=diameter,
        radius=radius,
        girth=girth,
        connected=connected,
    )


def _scan_shortest_cycle(g: Graph):
    """Best (length, root, u, w, dist, parent) over per-root BFS scans, or None.

    For each root, a BFS records every non-tree edge (u, w); the candidate
    length dist[u] + dist[w] + 1 never undercuts the true girth, and for some
    root it attains it, so the minimum over all roots is exact. The winning
    root's BFS arrays are retained so the cycle can be reconstructed.
    """
    n = g.n
    best = None  # (length, root, u, w)
    best_arrays = None
    for root in range(n):
        if best is not None and best[0] == 3:
            break  # no cycle can beat a triangle; lower roots already scanned
        dist = [n] * n
        parent = [-1] * n
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for w in g.adj[u]:
                if dist[w] == n:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = (du + dist[w] + 1, root, u, w)
                    if best is None or cand < best:
                        best = cand
                        # each root's arrays are fresh lists, so this
                        # reference stays valid after the root's scan ends
                        best_arrays = (dist, parent)
    if best is None:
        return None
    length, root, u, w = best
    dist, parent = best_arrays
    return length, root, u, w, dist, parent


def _chain_to_root(v: int, parent: list[int]) -> list[int]:
    chain = [v]
    while parent[chain[-1]] != -1:
        chain.append(parent[chain[-1]])
    return chain
