"""Exact and heuristic distance-k domination solvers with certificates.

The distance-k domination number of a graph is the size of a smallest vertex
set S such that every vertex lies within hop distance k of S. Computing it is
NP-hard, so exactness here means exhaustive search: a brute-force enumerator
(`gamma_k_oracle`) for ground truth on tiny graphs, and a branch-and-bound
over the equivalent set-cover formulation (`gamma_k_exact`: dominated
candidates dropped, fewest-candidates branching, a disjoint-candidate packing
bound at every node, an explicit stack and no distance matrix) for everything
at desk scale. Both return a :class:`Certificate` whose set can be re-verified
independently with :func:`is_k_dominating`.

All search is single-threaded and fully deterministic: every tie is broken by
a fixed vertex order, and incumbents are replaced only on strict improvement.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import DisconnectedInput, InvalidOrder, TooLarge
from .graph import Graph

DEFAULT_BUDGET_NODES = 10_000_000
DEFAULT_BUDGET_SECONDS = 30.0
ORACLE_MAX_N = 16


@dataclass(frozen=True)
class Certificate:
    """A k-dominating set together with evidence for its optimality status.

    The set is ``vertices``, ascending and distinct, and ``value`` is its
    size. ``status`` is "Exact" when ``value`` equals the domination number
    and "UpperBoundOnly" when the search stopped at an incumbent. ``components``
    counts the connected components the instance was split into (1 for
    connected inputs). ``upper_bound_used`` is the value the search started
    from; it is left out of :meth:`to_dict`, so the JSON schema is unchanged
    (``kdom bounds`` reports it as ``upper_bounds.greedy``).
    """

    k: int
    vertices: tuple[int, ...]
    status: str
    lower_bound_used: int
    upper_bound_used: int
    nodes_explored: int
    method: str
    components: int = 1

    @property
    def value(self) -> int:
        return len(self.vertices)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "gamma_k": self.value,
            "set": list(self.vertices),
            "status": self.status,
            "lower_bound_used": self.lower_bound_used,
            "nodes_explored": self.nodes_explored,
            "method": self.method,
            "components": self.components,
        }


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def is_k_dominating(g: Graph, candidate: Iterable[int], k: int) -> bool:
    """True iff every vertex of ``g`` is within distance k of ``candidate``.

    Runs one multi-source BFS and never reads the k-balls, so it is an
    independent check usable against sets produced by any of the solvers.
    """
    _check_k(k)
    dist = g.bfs_distances(*sorted(set(candidate)))
    # the cap keeps the unreachable sentinel n above the threshold when k >= n
    return not dist or max(dist) <= min(k, g.n - 1)


def gamma_k_oracle(g: Graph, k: int) -> Certificate:
    """Ground-truth domination number by enumerating sets of growing size.

    Deterministic: returns the lexicographically first minimum set. Refuses
    graphs above ``ORACLE_MAX_N`` vertices; the enumeration is exponential.
    Coverage is derived from plain BFS distance vectors so the oracle shares
    no cover machinery with the branch-and-bound it is used to validate.
    """
    _check_k(k)
    if g.n > ORACLE_MAX_N:
        raise TooLarge(f"oracle capped at n <= {ORACLE_MAX_N}, got n = {g.n}")
    if g.n == 0:
        return Certificate(k, (), "Exact", 0, 0, 0, "Oracle")
    balls = []
    reach = min(k, g.n - 1)  # the sentinel n means unreachable, never within k
    for v in range(g.n):
        row = g.bfs_distances(v)
        balls.append(sum(1 << u for u in range(g.n) if row[u] <= reach))
    full = (1 << g.n) - 1
    checked = 0
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            checked += 1
            covered = 0
            for v in combo:
                covered |= balls[v]
            if covered == full:
                # paranoia: confirm through the BFS-based check as well
                if not is_k_dominating(g, combo, k):
                    raise AssertionError("ball cover disagrees with BFS check")
                return Certificate(k, combo, "Exact", size, size, checked, "Oracle")
    raise AssertionError("V(G) itself must dominate")  # pragma: no cover


def _greedy_cover(balls: tuple[int, ...], vertices: tuple[int, ...]) -> list[int]:
    """Greedy set-cover of one component's ``vertices``: take the largest fresh
    coverage, ties to the lowest index, until all are covered (a ball never
    leaves its component); returns the chosen vertices in the order taken.
    Coverage only shrinks, so stale heap entries are upper bounds (lazy
    greedy)."""
    heap = [(-balls[v].bit_count(), v) for v in vertices]
    heapq.heapify(heap)
    left = len(vertices)
    covered = 0
    chosen = []
    while left:
        stored, v = heapq.heappop(heap)
        gain = (balls[v] & ~covered).bit_count()
        if gain == -stored:
            covered |= balls[v]
            chosen.append(v)
            left -= gain
        elif gain:
            heapq.heappush(heap, (-gain, v))
    return chosen


def packing_lower(g: Graph, k: int) -> int:
    """Size of a greedy set of vertices pairwise at distance >= 2k+1.

    No vertex can k-dominate two members of such a packing, so the size is a
    valid lower bound on the domination number. Two vertices are that far
    apart exactly when their k-balls are disjoint. Connected input required.
    """
    _check_k(k)
    if not g.is_connected():
        raise DisconnectedInput("packing bound requires a connected graph")
    taken = count = 0
    for ball in g.balls(k):
        if not ball & taken:
            taken |= ball
            count += 1
    return count


def gamma_path_cycle(n: int, k: int, shape: str) -> int:
    """Closed-form domination number of a path or cycle: ceil(n / (2k+1))."""
    _check_k(k)
    if shape not in ("path", "cycle"):
        raise ValueError(f"shape must be 'path' or 'cycle', got {shape!r}")
    if shape == "path" and n < 1:
        raise InvalidOrder("path requires n >= 1")
    if shape == "cycle" and n < 3:
        raise InvalidOrder("cycle requires n >= 3")
    return -(-n // (2 * k + 1))


def gamma_k_exact(
    g: Graph,
    k: int,
    budget_nodes: int = DEFAULT_BUDGET_NODES,
    budget_seconds: float = DEFAULT_BUDGET_SECONDS,
) -> Certificate:
    """Branch-and-bound domination number over the k-ball set cover.

    A candidate whose k-ball lies inside another's is dropped (of equal balls
    the lowest index stays). The search branches on the uncovered vertex with
    the fewest candidates left, which by symmetry are the kept members of its
    own k-ball; they are tried by descending fresh coverage, and each later
    sibling excludes the earlier ones. A candidate that is the last one left
    for some vertex is forced, and all forced ones are taken in one step.
    Each node is bounded by a greedy packing of uncovered vertices with
    pairwise disjoint candidate sets, each needing its own dominator; the one
    scan that computes it also picks the branch vertex, and stops once the
    node is cut. ``g.metrics()`` is not called.
    Disconnected inputs are solved per component and summed, with the
    component count recorded in the certificate.

    ``lower_bound_used`` sums the root packing bound of each component, whose
    scan stops at the greedy value, and ``upper_bound_used`` sums those greedy
    values, where the searches start; with ``budget_nodes=0`` the set is the
    greedy cover. ``nodes_explored`` counts the nodes below the root, each
    charged to ``budget_nodes``; a negative budget acts like 0.
    A search stops when it needs node ``budget_nodes + 1`` (so
    ``nodes_explored`` then equals ``budget_nodes``) or, checked once every
    2048 nodes, when ``budget_seconds`` have passed. Every component after
    the one that stopped gets no nodes and keeps its greedy cover. Status is
    "Exact" when no search stopped, otherwise "UpperBoundOnly" with the best
    incumbent found. The empty graph has no components: value 0, "Exact".
    """
    _check_k(k)
    balls = g.balls(k)
    deadline = time.monotonic() + budget_seconds
    comps = g.components()
    chosen: list[int] = []
    lower = upper = nodes = 0
    stopped = False
    for vertices in comps:
        nodes_left = 0 if stopped else budget_nodes - nodes
        picked, used, root_lb, greedy, halted = _solve_component(vertices, balls, nodes_left, deadline)
        chosen += picked
        nodes += used
        lower += root_lb
        upper += greedy
        stopped |= halted
    status = "UpperBoundOnly" if stopped else "Exact"
    return Certificate(k, tuple(sorted(chosen)), status, lower, upper, nodes, "BranchAndBound", len(comps))


def _undominated(vertices: tuple[int, ...], balls: tuple[int, ...]) -> int:
    """Mask of the vertices whose k-ball no other contains (of equal balls the
    lowest index stays); a ball containing ``balls[v]`` is centred in it."""
    keep = 0
    for v in vertices:
        bv = balls[v]
        for u in _iter_bits(bv):
            if bv & balls[u] == bv and u != v and (balls[u] != bv or u < v):
                break
        else:
            keep |= 1 << v
    return keep


def _solve_component(vertices, balls, nodes_left, deadline):
    """Search one component with at most ``nodes_left`` nodes below the root;
    returns (chosen vertices, nodes, root bound, greedy value, whether it
    stopped early).

    Vertices are relabelled 0..m-1 by ascending candidate count, so walking
    the bits of the uncovered mask visits them in the packing order."""
    cands = _undominated(vertices, balls)
    order = sorted(vertices, key=lambda w: ((balls[w] & cands).bit_count(), w))
    pos = {v: p for p, v in enumerate(order)}

    def local(mask: int) -> int:
        return sum(1 << pos[v] for v in _iter_bits(mask))

    ball = [local(balls[v]) for v in order]
    start = local(cands)
    reach = [b & start for b in ball]  # the candidates within distance k
    full = (1 << len(order)) - 1
    picked = _greedy_cover(balls, vertices)
    best_set = sum(1 << pos[v] for v in picked)
    best = greedy = len(picked)
    root_lb = 1
    nodes = 0
    stopped = False
    stack = [(0, start, 0, 0)]  # (covered, allowed candidates, size, chosen)
    while stack:
        covered, allowed, size, chosen = stack.pop()
        if size:
            if nodes >= nodes_left or nodes & 2047 == 2047 and time.monotonic() > deadline:
                stopped = True
                break
            nodes += 1
        if covered == full:
            if size < best:
                best, best_set = size, chosen
            continue
        room = best - size
        if room <= 1:
            continue
        count = packed = branch = forced = 0
        fewest = len(order) + 1
        uncovered = rest = full & ~covered
        while rest:
            low = rest & -rest
            rest ^= low
            a = reach[low.bit_length() - 1] & allowed
            if not a:
                break  # no allowed candidate reaches this vertex
            if not a & packed:
                packed |= a
                count += 1
                if count >= room:
                    break
            c = a.bit_count()
            if c == 1:
                forced |= a
            elif c < fewest:
                fewest, branch = c, a
        else:
            if forced:
                for p in _iter_bits(forced):
                    covered |= ball[p]
                stack.append((covered, allowed, size + forced.bit_count(), chosen | forced))
            else:
                kids = []
                for p in sorted(_iter_bits(branch), key=lambda p: (-(ball[p] & uncovered).bit_count(), order[p])):
                    kids.append((covered | ball[p], allowed, size + 1, chosen | 1 << p))
                    allowed ^= 1 << p
                stack.extend(reversed(kids))
        if not size:
            root_lb = count
    return [order[p] for p in _iter_bits(best_set)], nodes, root_lb, greedy, stopped
