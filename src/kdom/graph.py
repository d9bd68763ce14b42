"""Immutable simple graphs with BFS-based metric computations.

Vertices are the integers 0..n-1. The adjacency relation is kept once, as
sorted neighbor tuples, and every traversal is a BFS over them. Components
and k-balls are sorted vertex tuples too, so the graph holds no bitsets: a
k-ball table costs O(sum of ball sizes), and only the exact solver builds
bitsets, for a component whose root stays open. A 1-ball is read off
``adj``, and a larger ball is the union of the cached (k-1)-balls of its
closed neighbourhood when that table exists, a BFS to depth k otherwise.
Where those (k-1)-balls are runs of consecutive labels, as on a path,
cycle or clique-expanded path labelled along itself, they all hold the
centre, so the union is one run, joined from the two balls that reach
furthest left and right with no set or sort.
A centre shares the previous centre's k-ball tuple where their k-balls are
equal in a first table, and where their (k-1)-balls are in a grown one, so
consecutive true twins (the cells of a clique-expanded path) hold one tuple
in every table, which the solver's root reads once.
Distances are plain hop counts; inside a BFS distance row "unreachable" is
the sentinel value n (strictly larger than any realizable distance), while
reporting-level quantities (diameter, radius, girth, eccentricity) use
``math.inf`` so disconnected and acyclic cases read naturally.

Eccentricities come from a few bounded BFS sweeps rather than one BFS per
vertex (none beyond the connectivity BFS on a cycle, and none from a true
twin of an earlier source), and the girth from a
scan of the 2-core that deletes each root after its BFS; see
:meth:`Graph.metrics`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator

from .errors import IndexOutOfRange, SimplenessViolation

INF = math.inf


def finite(x: float) -> float | None:
    """``x`` as JSON reports it: ``None`` for ``INF``, which JSON cannot hold."""
    return None if x == INF else x


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "m", "adj", "_metrics", "_balls", "_components")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        """Build a graph from loop-free edges; repeats, in either orientation, collapse.

        A negative ``n`` raises ``ValueError``, an endpoint outside [0, n)
        :class:`IndexOutOfRange` and a loop :class:`SimplenessViolation`;
        :func:`kdom.io.from_edge_list` drops loops and repeats from raw pairs,
        or names the first one.
        """
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        self.n = n
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            try:
                adj[u].append(v)
                adj[v].append(u)
            except IndexError:
                raise IndexOutOfRange(f"edge ({u},{v}) uses a vertex outside [0, {n})") from None
        self.adj = tuple(tuple(sorted(set(nbrs))) for nbrs in adj)
        # a negative endpoint indexed adj from the end but heads its partner's tuple
        for u, nbrs in enumerate(self.adj):
            if nbrs and nbrs[0] < 0:
                raise IndexOutOfRange(f"vertex {nbrs[0]} not in [0, {n})")
            if u in nbrs:
                raise SimplenessViolation(f"self-loop at vertex {u}")
        self.m = sum(map(len, self.adj)) // 2
        self._metrics: Metrics | None = None
        self._balls: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._components: tuple[tuple[int, ...], ...] | None = None

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The ``(lower, higher)`` edge pairs, read off ``adj`` in O(m) on each read."""
        return frozenset((u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if u < v)

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
        return v in self.adj[u]

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexOutOfRange(f"vertex {v} not in [0, {self.n})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

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

    def closed_k_neighborhood(self, v: int, k: int) -> tuple[int, ...]:
        """The vertices within distance ``k`` of ``v`` (k >= 0), ascending:
        read off ``adj`` for k = 1, from a BFS to depth k otherwise."""
        self._check_vertex(v)
        if k < 0:
            raise ValueError("k must be >= 0")
        adj = self.adj
        if k == 1:
            return tuple(sorted((v, *adj[v])))
        seen = {v}
        frontier = [v]
        for _ in range(min(k, self.n - 1)):
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            if not nxt:
                break
            frontier = nxt
        return tuple(sorted(seen))

    def balls(self, k: int) -> tuple[tuple[int, ...], ...]:
        """The closed k-neighborhood of every vertex, as ascending vertex
        tuples, computed once per k and cached; the same tuple is returned on
        every call. Memory is O(sum of ball sizes). A table for k >= 2 grows
        from the cached (k-1)-table, where a centre whose (k-1)-ball equals
        the previous centre's shares that k-ball tuple (consecutive true
        twins at k = 2, whole cells of a clique-expanded path), and a union
        of runs of consecutive labels is joined from two of them without a
        set or sort (see :func:`_grown_balls`); otherwise each ball
        comes from :meth:`closed_k_neighborhood`, a ball equal to the
        previous centre's is replaced by that tuple (consecutive true twins
        at k = 1, also after ``balls(0)``), and no lower table is built only
        to grow from."""
        if k < 0:
            raise ValueError("k must be >= 0")
        table = self._balls.get(k)
        if table is not None:
            return table
        prev = self._balls.get(k - 1) if k > 1 else None
        if prev is None:
            table = tuple(_shared(map(self.closed_k_neighborhood, range(self.n), repeat(k))))
        else:
            table = tuple(_grown_balls(prev, self.adj))
        self._balls[k] = table
        return table

    def components(self) -> tuple[tuple[int, ...], ...]:
        """The connected components as sorted vertex tuples, ordered by lowest
        member; computed once and cached."""
        if self._components is None:
            self._components = _components(self)
        return self._components

    def is_connected(self) -> bool:
        """Whether every vertex reaches every other (true for n <= 1)."""
        return len(self.components()) <= 1

    def metrics(self) -> Metrics:
        """Eccentricities, diameter, radius and girth, computed once and cached.

        One BFS decides connectivity; a disconnected graph needs no more, and
        neither does a cycle (connected with every degree 2), whose
        eccentricities are all floor(n/2). Other connected graphs get their
        eccentricities from BFS sweeps whose bounds settle many vertices at
        once (a handful of BFS on paths, grids and clique-expanded paths, up
        to n on other vertex-transitive graphs). The girth comes from BFS scans
        of the 2-core cut at the best length found, each root deleted after
        its scan. Memory is O(n).
        """
        if self._metrics is None:
            self._metrics = _compute_metrics(self)
        return self._metrics

    def shortest_cycle(self) -> tuple[int, ...] | None:
        """One shortest cycle as an ordered vertex tuple, or None if acyclic.

        Deterministic: the cycle runs through the lowest vertex that lies on
        any shortest cycle and is closed by the lexicographically smallest
        non-tree edge (u, w) of a BFS from that vertex, so repeated calls
        return the same cycle. Costs the girth scan plus one BFS.
        """
        found = _scan_shortest_cycle(self)
        if found is None:
            return None
        length, root = found
        n = self.n
        dist = [n] * n
        parent = [-1] * n
        dist[root] = 0
        queue = deque([root])
        closing = (n, n)  # smallest (u, w) closing a cycle of the girth's length
        while queue:
            u = queue.popleft()
            du = dist[u]
            for w in self.adj[u]:
                if dist[w] == n:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u] and du + dist[w] + 1 == length:
                    closing = min(closing, (u, w))
        u, w = closing
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


def _shared(balls: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """Yield each ball, or the previous one's tuple where the two are equal,
    so that consecutive true twins (whole cells of a clique-expanded path at
    k = 1) hold one tuple."""
    last = ()  # no closed ball is empty
    for ball in balls:
        if ball != last:
            last = ball
        yield last


def _grown_balls(
    prev: tuple[tuple[int, ...], ...], adj: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[int, ...]]:
    """Yield each vertex's k-ball, k >= 2, the union of the (k-1)-balls
    ``prev`` of its closed neighbourhood. That is also the closed
    neighbourhood of its own (k-1)-ball, so a centre whose (k-1)-ball equals
    the previous centre's reuses that centre's k-ball tuple.

    Where all these (k-1)-balls are runs of consecutive labels (most balls of
    a graph labelled along a path), the run starting lowest, ``left``, meets
    the one ending highest, ``right``, since every one of them holds the
    centre. Their union is then the run from ``left[0]`` to ``right[-1]``:
    ``left`` joined with the tail of ``right`` past ``left[-1]``, with no
    set or sort. The join is a new tuple, never an alias of a (k-1)-ball;
    where ``left`` covers the union it is copied."""
    last = grown = ()  # no closed ball is empty
    for v, ball in enumerate(prev):
        if ball != last:
            left = right = ball
            lo = ball[0]
            hi = ball[-1]
            run = hi - lo + 1 == len(ball)
            if run:
                for u in adj[v]:
                    b = prev[u]
                    first = b[0]
                    end = b[-1]
                    if end - first + 1 != len(b):
                        run = False
                        break
                    if first < lo:
                        lo = first
                        left = b
                    if end > hi:
                        hi = end
                        right = b
            if run:
                grown = left + right[left[-1] + 1 - right[0]:] if hi > left[-1] else (*left,)
            else:
                seen = set(ball)
                for u in adj[v]:
                    seen.update(prev[u])
                grown = tuple(sorted(seen))
            last = ball
        yield grown


def _compute_metrics(g: Graph) -> Metrics:
    n = g.n
    if n == 0:
        return Metrics(ecc=(), diameter=0, radius=0, girth=INF, connected=True)
    # the connectivity BFS from vertex 0 doubles as the first eccentricity sweep
    first = g.bfs_distances(0)
    connected = max(first) < n  # sentinel: vertex 0 cannot reach everything
    if connected and all(len(a) == 2 for a in g.adj):
        ecc: tuple[float, ...] = (n // 2,) * n  # a connected 2-regular graph is a cycle
        diameter = radius = n // 2
    elif connected:
        ecc = tuple(_eccentricities(g, first))
        diameter, radius = max(ecc), min(ecc)
    else:
        ecc = (INF,) * n
        diameter = radius = INF
    found = _scan_shortest_cycle(g)
    return Metrics(
        ecc=ecc,
        diameter=diameter,
        radius=radius,
        girth=INF if found is None else found[0],
        connected=connected,
    )


def _components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """One BFS per component, each from the lowest vertex not yet reached."""
    adj = g.adj
    seen = [False] * g.n
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        members = [root]
        for u in members:  # the list grows as the BFS reaches new vertices
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    members.append(w)
        comps.append(tuple(sorted(members)))
    return tuple(comps)


def _eccentricities(g: Graph, dist: list[int]) -> list[int]:
    """Exact eccentricities of a connected graph by bound propagation.

    Takes and Kosters, "Computing the eccentricity distribution of large
    graphs" (Algorithms, 2013). ``dist`` is the BFS row of vertex 0. After a
    BFS from s with eccentricity e, every vertex v at distance d has
    max(d, e - d) <= ecc(v) <= e + d; a vertex whose bounds meet is settled,
    and s itself always is. So is every true twin t of s (N[t] = N[s]), at
    e: t lies at distance 1 from s and at s's distance from every other
    vertex, so no sweep is run from a twin of an earlier source. The next
    source alternates between the unsettled vertex with the smallest lower
    bound and the one with the largest upper bound, ties to the lowest
    index. Paths and clique-expanded paths settle after a handful of BFS
    (four on ``clique_expanded_path(300, 4)``); where all eccentricities are
    equal (as on any vertex-transitive graph) each BFS settles only its
    source and its twins, which is why :func:`_compute_metrics` answers
    cycles without calling this.
    """
    n = g.n
    adj = g.adj
    ecc = [0] * n
    lower = [0] * n
    upper = [2 * n] * n
    todo = list(range(n))  # unsettled vertices, ascending
    source = 0
    pick_lower = True
    while True:
        e = max(dist)
        nbrs = adj[source]
        closed = None  # N[source], built once a neighbour of equal degree turns up
        for t in nbrs:
            if len(adj[t]) == len(nbrs):
                if closed is None:
                    closed = {source, *nbrs}
                if closed.issuperset(adj[t]):  # a true twin: N[t] = N[source]
                    lower[t] = upper[t] = e
        kept = []
        for v in todo:
            d = dist[v]
            lo = lower[v]
            if d > lo:
                lo = d
            if e - d > lo:
                lo = e - d
            hi = upper[v]
            if e + d < hi:
                hi = e + d
            if lo == hi:
                ecc[v] = lo
            else:
                lower[v] = lo
                upper[v] = hi
                kept.append(v)
        if not kept:
            return ecc
        todo = kept
        # min and max return the first extreme element, the lowest index
        if pick_lower:
            source = min(todo, key=lower.__getitem__)
        else:
            source = max(todo, key=upper.__getitem__)
        pick_lower = not pick_lower
        dist = g.bfs_distances(source)


def _scan_shortest_cycle(g: Graph) -> tuple[int, int] | None:
    """(girth, r*) with r* the lowest vertex on any shortest cycle, or None.

    Only the 2-core can hold a cycle, so vertices of degree <= 1 are peeled
    off first. Roots are taken in index order, and each root is deleted (and
    the core peeled again) once its BFS is done. A BFS records each non-tree
    edge (u, w) from its lower end (from both on one level); the closed walk
    root..u, w..root holds a cycle, so dist[u] + dist[w] + 1 never undercuts
    the girth. It stops once 2 * depth + 1 reaches the best length so far,
    because no deeper edge can close a shorter cycle. When r*'s turn comes
    every shortest cycle through r* is still intact, since all of its
    vertices are >= r*, so its BFS finds the girth and no lower root did; a
    triangle ends the scan.
    """
    n = g.n
    adj = g.adj
    alive = [True] * n
    degree = [len(a) for a in adj]

    def peel(stack: list[int]) -> None:
        while stack:
            v = stack.pop()
            alive[v] = False
            for w in adj[v]:
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        stack.append(w)

    peel([v for v in range(n) if degree[v] <= 1])
    best = INF
    best_root = -1
    for root in range(n):
        if best == 3:
            break  # no cycle can beat a triangle
        if not alive[root]:
            continue
        dist = {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if 2 * du + 1 >= best:
                break
            for w in adj[u]:
                if not alive[w]:
                    continue
                dw = dist.get(w)
                if dw is None:
                    dist[w] = du + 1
                    queue.append(w)
                elif dw >= du and du + dw + 1 < best:  # a lower w is the parent or met this edge first
                    best = du + dw + 1
                    best_root = root
        peel([root])  # delete root, then whatever it leaves at degree 1
    if best_root < 0:
        return None
    return best, best_root


def _chain_to_root(v: int, parent: list[int]) -> list[int]:
    chain = [v]
    while parent[chain[-1]] != -1:
        chain.append(parent[chain[-1]])
    return chain
