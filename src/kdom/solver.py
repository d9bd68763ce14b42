"""Exact and heuristic distance-k domination solvers with certificates.

The distance-k domination number of a graph is the size of a smallest vertex
set S such that every vertex lies within hop distance k of S. Computing it is
NP-hard, so exactness here means exhaustive search: a brute-force enumerator
(`gamma_k_oracle`) for ground truth on tiny graphs, and a branch-and-bound
over the equivalent set-cover formulation (`gamma_k_exact`: dominated
candidates dropped, a closed-form fractional bound at the root, fewest-
candidates branching, a disjoint-candidate packing bound at every node, an
explicit stack and no distance matrix) for everything at desk scale. Both
return a :class:`Certificate` whose set :func:`is_k_dominating` re-verifies.

A long search escalates once to a Lagrangian bound; see :func:`gamma_k_exact`.

All search is single-threaded and fully deterministic: every tie is broken by
a fixed vertex order, and incumbents are replaced only on strict improvement.
The dual weights are integers in units of ``SCALE``, so every cut they make
is an integer comparison, and the few floats behind them are computed in a
fixed order with exactly rounded sums.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from bisect import bisect_right
from itertools import combinations, compress
from typing import Iterable, Iterator

from . import dual
from .dual import SCALE
from .errors import DisconnectedInput, InvalidOrder, TooLarge
from .graph import Graph

DEFAULT_BUDGET_NODES = 10_000_000
DEFAULT_BUDGET_SECONDS = 30.0
ORACLE_MAX_N = 16
_ESCALATION_DELAY = 150  # nodes per vertex of average ball size a search explores before escalating


@dataclass(frozen=True)
class Certificate:
    """A k-dominating set together with evidence for its optimality status.

    The set is ``vertices``, ascending and distinct, and ``value`` is its
    size. ``status`` is "Exact" when ``value`` equals the domination number
    and "UpperBoundOnly" when the search stopped at an incumbent. ``components``
    counts the connected components the instance was split into (1 for
    connected inputs). ``lower_bound_used`` is the root lower bound, summed
    over the components: for each, the larger of the disjoint-candidate
    packing count and the closed-form fractional bound. ``upper_bound_used``
    is the size of the starting cover: the greedy set cover or, where the
    fractional bound is below it and the first descent is smaller, that
    descent, which may then close the root (see :func:`gamma_k_exact`). It
    is left out of :meth:`to_dict` (``kdom bounds`` reports it as
    ``upper_bounds.greedy``).
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
    Coverage comes from the oracle's own ball bitsets, grown from ``g.adj``
    (each j-ball is the union of the (j-1)-balls of the closed
    neighbourhood), so the oracle shares no cover machinery with
    :meth:`Graph.balls` or the branch-and-bound it is used to validate.
    """
    _check_k(k)
    if g.n > ORACLE_MAX_N:
        raise TooLarge(f"oracle capped at n <= {ORACLE_MAX_N}, got n = {g.n}")
    if g.n == 0:
        return Certificate(k, (), "Exact", 0, 0, 0, "Oracle")
    adj = g.adj
    balls = [1 << v | sum(1 << u for u in nbrs) for v, nbrs in enumerate(adj)]
    for _ in range(min(k, g.n - 1) - 1):  # no ball grows past distance n - 1
        grown = []
        for ball, nbrs in zip(balls, adj):
            for u in nbrs:
                ball |= balls[u]
            grown.append(ball)
        balls = grown
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


def _greedy_cover(vertices: tuple[int, ...], balls: tuple[tuple[int, ...], ...]) -> tuple[list[int], int]:
    """Greedy set cover of one component (``vertices`` ascending) on the
    k-ball tuples: take the ball with the most vertices not yet covered, ties
    to the lowest centre, until all are covered (Chvátal 1979). Returns
    (cover, bound): the centres in the order taken, and the closed-form
    fractional bound ⌈Σ_v y_v⌉ on the domination number, y_v one over the
    size of the largest k-ball holding v. Every ball weighs at most 1 under
    y, so each dominator covers at most 1 of the total. By symmetry the balls
    holding v are centred in ``balls[v]``, so the bound is read off the gains
    before the cover lowers them, in exact integer arithmetic over the lcm of
    the distinct maxima. A centre whose own ball is a largest of the
    component takes that size with no scan; only the others take the maximum
    over their ball. Reading the bound thus costs O(m) when every centre
    holds a largest ball, and Σ|B| at worst.

    Each centre's gain, its count of uncovered ball vertices, is kept exact:
    covering u lowers by one the gain of every centre in ``balls[u]``, which
    by symmetry are the balls holding u. Gains only fall and none exceeds its
    ball, so at each level L, from the largest ball down, the picks are the
    centres still at gain L in ascending order. They are found by
    ``list.index`` scans: over the live gains while at least half the
    centres have balls of L or more vertices, otherwise over a snapshot of
    just those centres, each hit re-checked against its live gain. The scans
    thus cost at most about 2·Σ|B|, and the updates Σ|B|. A component that
    is not the whole graph is relabelled to positions 0..m-1 first."""
    m = len(vertices)
    if m == len(balls):  # the whole graph: positions are the vertices
        members = balls
    else:
        pos = {v: p for p, v in enumerate(vertices)}
        members = [[pos[u] for u in balls[v]] for v in vertices]
    gains = list(map(len, members))
    ascending = sorted(gains)
    top = ascending[-1]
    tops = [size if size == top else max(map(gains.__getitem__, ball)) for size, ball in zip(gains, members)]
    den = math.lcm(*set(tops))
    bound = -(-sum(map(den.__floordiv__, tops)) // den)
    pivot = ascending[m // 2]  # at least half the balls hold this many vertices
    by_size: dict[int, list[int]] = {}  # the larger balls' centres, by size
    if top > pivot:
        for p in compress(range(m), map(pivot.__lt__, gains)):
            by_size.setdefault(gains[p], []).append(p)
    gains.append(0)  # position m: a sentinel set to each level, so no scan raises
    covered = bytearray(m)
    left = m
    chosen = []
    tall: list[int] | range = []  # ascending positions whose balls hold at least `level` vertices
    for level in range(top, 0, -1):
        if level > pivot:
            tall += by_size.get(level, ())
            tall.sort()  # two ascending runs: a linear merge
            scan = [*map(gains.__getitem__, tall), level]
        else:
            tall, scan = range(m), gains
            gains[m] = level
        i = scan.index(level)
        while i < len(tall):
            c = tall[i]
            if gains[c] == level:  # only a snapshot goes stale
                chosen.append(vertices[c])
                for u in members[c]:
                    if not covered[u]:
                        covered[u] = 1
                        left -= 1
                        for w in members[u]:
                            gains[w] -= 1
                if not left:
                    return chosen, bound
            i = scan.index(level, i + 1)
    raise AssertionError("every vertex lies in its own ball")  # pragma: no cover


def packing_lower(g: Graph, k: int) -> int:
    """Size of a greedy set of vertices pairwise at distance >= 2k+1.

    No vertex can k-dominate two members of such a packing, so the size is a
    valid lower bound on the domination number. Two vertices are that far
    apart exactly when their k-balls are disjoint. Connected input required.
    The greedy takes vertices in index order and keeps the union of the
    balls taken as a set.
    """
    _check_k(k)
    if not g.is_connected():
        raise DisconnectedInput("packing bound requires a connected graph")
    taken: set[int] = set()
    count = 0
    for ball in g.balls(k):
        if taken.isdisjoint(ball):
            taken.update(ball)
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
    node is cut. Disconnected inputs are solved per component and summed,
    with the component count recorded in the certificate.

    A component whose search is still open at a clock check escalates once,
    after that check, if it has explored at least 150 nodes per vertex of
    average ball size (``_ESCALATION_DELAY``): at node 2048 for balls of at
    most about 13.6 vertices on average, later for larger ones, since the
    escalation reads the balls up to 70 times. It adds a Lagrangian dual
    bound (Fisher 1981), Lagrangian incumbents (Beasley 1990) and, unless
    the bound proves the incumbent optimal, a weighted local search from the
    better incumbent (Cai, Su and Sattar 2011) that may replace it. The
    escalation is charged no node and is not interrupted by the clock; a
    search that ends before node 2048 never escalates.

    Each component's root reads only the k-ball tuples. It takes the greedy
    set cover (largest fresh coverage first) and the closed-form fractional
    bound ⌈Σ_v y_v⌉, y_v one over the size of the largest k-ball holding v
    (every ball weighs at most 1 under y). Only if the bound is below that
    cover does one pass (:func:`_root_scan`) pick the candidates and give
    the first descent; the starting cover is the smaller of the greedy set
    and the descent (the greedy set on a tie).
    Only if the bound is below that cover too is the packing bound counted
    (a descent that meets the fractional bound already closes the root, and
    no packing exceeds it then). A root bound that meets the starting cover
    closes the component with no node and no bitset; otherwise the search
    starts at the root, which it branches like any other node.
    Per component, ``lower_bound_used`` sums the larger root bound and
    ``upper_bound_used`` the starting cover's size; an escalation, which only
    cuts nodes and lowers the value, changes neither. With ``budget_nodes=0``
    the set is the starting cover, "Exact" if every component closed at its
    root. ``nodes_explored`` counts the nodes below the root, each charged
    to ``budget_nodes``; a negative budget acts like 0. A search stops when
    it needs node ``budget_nodes + 1`` (so ``nodes_explored`` then equals
    ``budget_nodes``) or, checked once every 2048 nodes, when
    ``budget_seconds`` have passed (``inf`` never stops a search; NaN raises
    ``ValueError``). Every component after the one that stopped gets no
    nodes and keeps its starting cover. Status is "Exact" when no search
    stopped, otherwise "UpperBoundOnly" with the best incumbent found. The
    empty graph has no components: value 0, "Exact".
    """
    _check_k(k)
    if math.isnan(budget_seconds):
        raise ValueError("budget_seconds must be a number or inf, got nan")
    balls = g.balls(k)
    deadline = time.monotonic() + budget_seconds
    comps = g.components()
    chosen: list[int] = []
    lower = upper = nodes = 0
    stopped = False
    for vertices in comps:
        nodes_left = 0 if stopped else budget_nodes - nodes
        picked, used, root_lb, start, halted = _solve_component(vertices, balls, nodes_left, deadline)
        chosen += picked
        nodes += used
        lower += root_lb
        upper += start
        stopped |= halted
    status = "UpperBoundOnly" if stopped else "Exact"
    return Certificate(k, tuple(sorted(chosen)), status, lower, upper, nodes, "BranchAndBound", len(comps))


def _root_scan(vertices, balls):
    """The root's state from one pass over the k-ball tuples: (cands, order,
    descent, options). ``cands`` is the set of candidates, the vertices
    whose k-ball no other contains (of equal balls the lowest index stays); a
    ball containing ``balls[v]`` is centred in it, a shorter ball never
    contains a longer one, balls of equal length contain each other only when
    equal, and a longer ball is tested as a set, built once per centre on
    first use. A vertex holding the very tuple of the vertex before it (a
    true twin in a shared table, see :meth:`Graph.balls`) is dropped with no
    test, since that lower twin's ball equals its own. ``order`` lists the
    vertices by ascending count of candidates in their balls, ties to the
    lower vertex (a stable sort, as ``vertices`` ascend), and ``options``
    their candidate tuples in that order, one tuple per shared ball. In that
    order the first descent, the search's dive with no bounding, gives each
    vertex still uncovered its candidate with the most fresh coverage (ties
    to the lowest); :func:`_packing_count` reads the packing bound off
    ``options`` where the root needs it."""
    as_set: dict[int, frozenset[int]] = {}
    cands = set()
    last = None
    for v in vertices:
        bv = balls[v]
        if bv is last:
            continue  # the previous vertex, lower, has this ball
        last = bv
        size = len(bv)
        for u in bv:
            bu = balls[u]
            if len(bu) > size:
                su = as_set.get(u)
                if su is None:
                    su = as_set[u] = frozenset(bu)
                if su.issuperset(bv):
                    break
            elif u < v and bu == bv:
                break
        else:
            cands.add(v)
    options = []
    last = None
    for v in vertices:
        bv = balls[v]
        if bv is not last:
            last = bv
            opts = tuple(filter(cands.__contains__, bv))
        options.append(opts)
    ranked = sorted(range(len(vertices)), key=[*map(len, options)].__getitem__)
    order = list(map(vertices.__getitem__, ranked))
    options = list(map(options.__getitem__, ranked))
    covered: set[int] = set()
    descent = []
    for w, opts in zip(order, options):
        if w not in covered:
            c = min(opts, key=lambda c: (len(covered.intersection(balls[c])) - len(balls[c]), c))
            covered.update(balls[c])
            descent.append(c)
    return cands, order, descent, options


def _packing_count(options):
    """The root's packing bound (≤ γ_k): how many vertices, taken in the
    root's order with their candidate tuples ``options``, have candidates
    that miss those of every vertex counted before. Each needs a dominator
    of its own."""
    packed: set[int] = set()
    count = 0
    for opts in options:
        if packed.isdisjoint(opts):
            packed.update(opts)
            count += 1
    return count


def _solve_component(vertices, balls, nodes_left, deadline):
    """Search one component with at most ``nodes_left`` nodes below the root;
    returns (chosen vertices, nodes, root bound, starting cover size, whether
    it stopped early). The root reads only the ball tuples (see
    :func:`gamma_k_exact`); only a component whose root stays open is
    relabelled 0..m-1 in ``order``, so walking the bits of the uncovered mask
    follows the packing order, and gets local bitsets, built from the ball
    tuples for this search alone (about m²/16 bytes per table on path-like
    labellings: the ``1 << p`` map and ``ball`` while building, then ``ball``
    alone). The stack starts from the root alone, the one entry with nothing
    chosen, which the loop branches like any other node but does not count.

    Each stack entry is (uncovered, allowed, chosen, size), ``size`` the bit
    count of ``chosen``. At the escalation (:func:`gamma_k_exact` says when),
    ``dual.escalate`` runs a subgradient on the Lagrangian of the component's
    k-ball cover for integer dual weights, summed over a mask by ``weigh``,
    under which no root candidate's ball weighs more than ``SCALE``, so they
    bound every node (each allows only root candidates); its Lagrangian
    covers and its local search from ``best_set`` may replace the
    incumbent. From then on a popped node is cut when
    ``weigh(uncovered)`` is above ``(room - 1) * SCALE`` (``room`` =
    incumbent size - node size), and a candidate is dropped at it (one ``&``
    with a keep mask) when that weight plus its reduced cost is.
    ``prune()`` weighs the open entries and drops those the weights cut, at
    the escalation and at each new incumbent, and clears the stack once the
    Lagrangian bound meets the incumbent. Past the escalation the scan stops
    at the first vertex with two candidates left and branches there, since
    the weights now do the cutting that the rest of the packing scan did."""
    start, root_lb = _greedy_cover(vertices, balls)
    if root_lb < len(start):
        cands, order, descent, options = _root_scan(vertices, balls)
        start = min(start, descent, key=len)  # on a tie the greedy set stays
        if root_lb < len(start):  # a descent that meets the fractional bound closes the root
            root_lb = max(root_lb, _packing_count(options))
    best = upper = len(start)
    if root_lb >= upper:  # the starting cover is optimal
        return start, 0, root_lb, upper, False
    bit = {v: 1 << p for p, v in enumerate(order)}
    ball = [sum(map(bit.__getitem__, balls[v])) for v in order]
    allowed_at_root = sum(map(bit.__getitem__, cands))
    best_set = sum(map(bit.__getitem__, start))
    del bit
    stack = [((1 << len(order)) - 1, allowed_at_root, 0, 0)]  # (uncovered, allowed, chosen, size)
    nodes, stopped = 0, False
    weigh = None  # the dual weigher, once the search has escalated

    def prune():
        """Drop the stack entries whose weight shows they cannot beat ``best``;
        clear the stack if the Lagrangian bound shows no cover can."""
        limit = (best - 1) * SCALE
        if lower > limit:
            stack.clear()  # the incumbent is optimal
        else:
            stack[:] = [e for e in stack if weigh(e[0]) <= limit - e[3] * SCALE]

    while stack:
        uncovered, allowed, chosen, size = stack.pop()
        if nodes & 2047 == 2047 or nodes >= nodes_left:
            if nodes >= nodes_left or time.monotonic() > deadline:
                stopped = True
                break
            if weigh is None and (nodes + 1) * len(ball) >= _ESCALATION_DELAY * sum(map(int.bit_count, ball)):
                weigh, cover, lower, costs, keep = dual.escalate(
                    [list(_iter_bits(b)) for b in ball], list(_iter_bits(allowed_at_root)),
                    list(_iter_bits(best_set)))
                if cover is not None:
                    best, best_set = len(cover), sum(1 << p for p in cover)
                stack.append((uncovered, allowed, chosen, size))  # this node, to be weighed too
                prune()
                continue
        nodes += size > 0  # the root, the only entry with nothing chosen, is not a node
        if not uncovered:
            if size < best:
                best, best_set = size, chosen
                if weigh is not None:
                    prune()
            continue
        room = best - size
        if room <= 1:
            continue
        if weigh is not None:
            slack = (room - 1) * SCALE - weigh(uncovered)
            if slack < 0:
                continue
            # a cover through candidate j needs the uncovered weight + its reduced cost <= (room - 1) * SCALE
            allowed &= keep[bisect_right(costs, slack)]
        count = packed = branch = forced = 0
        fewest = len(order) + 1
        rest = uncovered
        while rest:
            low = rest & -rest
            rest ^= low
            a = ball[low.bit_length() - 1] & allowed  # allowed holds only candidates
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
                if c == 2 and weigh is not None:
                    rest = 0  # escalated: branch on the first pair, the dual weights cut
        else:
            if forced:
                rest = forced
                while rest:
                    low = rest & -rest
                    rest ^= low
                    uncovered &= ~ball[low.bit_length() - 1]
                stack.append((uncovered, allowed, chosen | forced, size + forced.bit_count()))
            else:
                kids = []
                allowed ^= branch
                while branch:
                    low = branch & -branch
                    branch ^= low
                    p = low.bit_length() - 1
                    fresh = ball[p] & uncovered
                    kids.append((fresh.bit_count(), -order[p], fresh, low))
                kids.sort()  # the reverse of the search order, so the first child ends on top
                for _, _, fresh, low in kids:
                    allowed |= low  # each child keeps itself and the siblings searched after it
                    stack.append((uncovered ^ fresh, allowed, chosen | low, size + 1))
    return [order[p] for p in _iter_bits(best_set)], nodes, root_lb, upper, stopped
