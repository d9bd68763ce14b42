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
from typing import Iterable

from .errors import DisconnectedInput, IndexOutOfRange, InvalidOrder, TooLarge
from .graph import Graph, iter_bits

DEFAULT_BUDGET_NODES = 10_000_000
DEFAULT_BUDGET_SECONDS = 30.0
ORACLE_MAX_N = 16


@dataclass(frozen=True)
class Certificate:
    """A k-dominating set together with evidence for its optimality status.

    ``status`` is "Exact" when ``value`` equals the domination number and
    "UpperBoundOnly" when the search stopped at an incumbent. ``components``
    counts the connected components the instance was split into (1 for
    connected inputs).
    """

    k: int
    mask: int
    value: int
    status: str
    lower_bound_used: int
    nodes_explored: int
    method: str
    components: int = 1

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

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


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def is_k_dominating(g: Graph, candidate: Iterable[int], k: int) -> bool:
    """True iff every vertex of ``g`` is within distance k of ``candidate``.

    Runs one multi-source BFS, so it is an independent check usable against
    sets produced by any of the solvers.
    """
    _check_k(k)
    sources = sorted(set(candidate))
    for v in sources:
        if not 0 <= v < g.n:
            raise IndexOutOfRange(f"vertex {v} not in [0, {g.n})")
    if g.n == 0:
        return True
    if not sources:
        return False
    seen = [False] * g.n
    reached = 0
    frontier = []
    for v in sources:
        seen[v] = True
        reached += 1
        frontier.append(v)
    for _ in range(k):
        if reached == g.n:
            break
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    reached += 1
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return reached == g.n


def gamma_k_oracle(g: Graph, k: int, max_n: int = ORACLE_MAX_N) -> Certificate:
    """Ground-truth domination number by enumerating sets of growing size.

    Deterministic: returns the lexicographically first minimum set. Refuses
    graphs larger than ``max_n`` vertices; the enumeration is exponential.
    Coverage is derived from plain BFS distance vectors so the oracle shares
    no cover machinery with the branch-and-bound it is used to validate.
    """
    _check_k(k)
    if g.n > max_n:
        raise TooLarge(f"oracle capped at n <= {max_n}, got n = {g.n}")
    if g.n == 0:
        return Certificate(k, 0, 0, "Exact", 0, 0, "Oracle")
    balls = []
    reach = min(k, g.n - 1)  # the sentinel n means unreachable, never within k
    for v in range(g.n):
        row = g.bfs_distances(v)
        balls.append(sum(1 << u for u in range(g.n) if row[u] <= reach))
    full = g.full_mask()
    checked = 0
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            checked += 1
            covered = 0
            for v in combo:
                covered |= balls[v]
            if covered == full:
                mask = 0
                for v in combo:
                    mask |= 1 << v
                # paranoia: confirm through the BFS-based check as well
                if not is_k_dominating(g, combo, k):
                    raise AssertionError("ball cover disagrees with BFS check")
                return Certificate(k, mask, size, "Exact", size, checked, "Oracle")
    raise AssertionError("V(G) itself must dominate")  # pragma: no cover


def _greedy_cover(universe: int, balls: tuple[int, ...], vertices: Iterable[int]) -> int:
    """Greedy set-cover over ``vertices``: take the largest fresh coverage,
    ties to the lowest index, until ``universe`` is covered; returns the
    chosen mask. Coverage only shrinks, so stale heap entries are upper
    bounds (lazy greedy)."""
    heap = [(-balls[v].bit_count(), v) for v in vertices]
    heapq.heapify(heap)
    covered = 0
    chosen = 0
    while covered != universe:
        stored, v = heapq.heappop(heap)
        gain = (balls[v] & ~covered).bit_count()
        if gain == -stored:
            covered |= balls[v]
            chosen |= 1 << v
        elif gain:
            heapq.heappush(heap, (-gain, v))
    return chosen


def greedy_upper(g: Graph, k: int) -> Certificate:
    """Largest-fresh-coverage greedy; an upper bound that seeds the exact search."""
    _check_k(k)
    if g.n == 0:
        return Certificate(k, 0, 0, "Exact", 0, 0, "Greedy")
    mask = _greedy_cover(g.full_mask(), g.balls(k), range(g.n))
    value = mask.bit_count()
    # The only bound available for free is the trivial gamma_k >= 1.
    status = "Exact" if value == 1 else "UpperBoundOnly"
    return Certificate(k, mask, value, status, 1, 0, "Greedy")


def packing_lower(g: Graph, k: int) -> int:
    """Size of a greedy set of vertices pairwise at distance >= 2k+1.

    No vertex can k-dominate two members of such a packing, so the size is a
    valid lower bound on the domination number. Two vertices are that far
    apart exactly when their k-balls are disjoint. Connected input required.
    """
    _check_k(k)
    if not g.metrics().connected:
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


class _Budget:
    """Shared node/time budget across the component solves of one call."""

    __slots__ = ("nodes_left", "deadline", "exhausted")

    def __init__(self, nodes: int, seconds: float):
        self.nodes_left = nodes
        self.deadline = time.monotonic() + seconds
        self.exhausted = False

    def tick(self) -> bool:
        """Charge one search node; False once the budget has run out.

        The wall clock is consulted only every 2048 nodes to keep the hot
        loop cheap."""
        if self.exhausted:
            return False
        self.nodes_left -= 1
        if self.nodes_left < 0:
            self.exhausted = True
        elif self.nodes_left & 2047 == 0 and time.monotonic() > self.deadline:
            self.exhausted = True
        return not self.exhausted


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
    scan stops at the greedy value. ``nodes_explored`` counts the nodes below
    the root, each charged to ``budget_nodes``. Status is "Exact" when the
    search completed within budget, otherwise "UpperBoundOnly" with the best
    incumbent found.
    """
    _check_k(k)
    if g.n == 0:
        return Certificate(k, 0, 0, "Exact", 0, 0, "BranchAndBound", components=0)
    balls = g.balls(k)
    budget = _Budget(budget_nodes, budget_seconds)

    comps = _components(g)
    values, masks, exact, nodes, lbs = zip(*(_solve_component(c, balls, budget) for c in comps))
    return Certificate(
        k,
        sum(masks),  # the components are disjoint, so the sum is the union
        sum(values),
        "Exact" if all(exact) else "UpperBoundOnly",
        sum(lbs),
        sum(nodes),
        "BranchAndBound",
        components=len(comps),
    )


def _components(g: Graph) -> list[int]:
    """Vertex bitsets of the connected components, ordered by lowest member."""
    unseen = g.full_mask()
    comps = []
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        comp = 1 << start
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                new = g.adj_bits[u] & ~comp
                if new:
                    comp |= new
                    nxt.extend(iter_bits(new))
            frontier = nxt
        comps.append(comp)
        unseen &= ~comp
    return comps


def _undominated(vertices: list[int], balls: tuple[int, ...]) -> int:
    """Mask of the vertices whose k-ball no other contains (of equal balls the
    lowest index stays); a ball containing ``balls[v]`` is centred in it."""
    keep = 0
    for v in vertices:
        bv = balls[v]
        for u in iter_bits(bv):
            if bv & balls[u] == bv and u != v and (balls[u] != bv or u < v):
                break
        else:
            keep |= 1 << v
    return keep


def _solve_component(universe, balls, budget):
    """Search one component; returns (value, mask, exact, nodes, root bound).

    Vertices are relabelled 0..m-1 by ascending candidate count, so walking
    the bits of the uncovered mask visits them in the packing order."""
    vertices = list(iter_bits(universe))
    cands = _undominated(vertices, balls)
    order = sorted(vertices, key=lambda w: ((balls[w] & cands).bit_count(), w))
    pos = {v: p for p, v in enumerate(order)}

    def local(mask: int) -> int:
        return sum(1 << pos[v] for v in iter_bits(mask))

    ball = [local(balls[v]) for v in order]
    start = local(cands)
    reach = [b & start for b in ball]  # the candidates within distance k
    full = (1 << len(order)) - 1
    best_set = local(_greedy_cover(universe, balls, vertices))
    best = best_set.bit_count()
    root_lb = 1
    nodes = 0
    stack = [(0, start, 0, 0)]  # (covered, allowed candidates, size, chosen)
    while stack:
        covered, allowed, size, chosen = stack.pop()
        if size:
            if not budget.tick():
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
                for p in iter_bits(forced):
                    covered |= ball[p]
                stack.append((covered, allowed, size + forced.bit_count(), chosen | forced))
            else:
                kids = []
                for p in sorted(iter_bits(branch), key=lambda p: (-(ball[p] & uncovered).bit_count(), order[p])):
                    kids.append((covered | ball[p], allowed, size + 1, chosen | 1 << p))
                    allowed ^= 1 << p
                stack.extend(reversed(kids))
        if not size:
            root_lb = count
    mask = sum(1 << order[p] for p in iter_bits(best_set))
    return best, mask, not budget.exhausted, nodes, root_lb
