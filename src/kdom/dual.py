"""The Lagrangian dual bound and Lagrangian incumbent of an escalated search.

A long branch-and-bound search in :func:`kdom.solver.gamma_k_exact` escalates
once to this module: a subgradient on the Lagrangian of its k-ball set cover
(Fisher, "The Lagrangian relaxation method for solving integer programming
problems", Mgmt. Sci. 1981) gives integer dual weights that bound every node,
and Beasley's heuristic ("A Lagrangian heuristic for set-covering problems",
NRL 1990) gives covers that may replace the incumbent. Everything here works
in the solver's local labels (positions 0..m-1): the solver relabels the
component and hands over each ball as the list of positions in it.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import add, getitem, itemgetter, mul, not_, sub

SCALE = 1 << 24  # the unit of the integer dual weights
_ITERATIONS = 70
_PATIENCE = 10  # non-improving steps before the step size halves
_MIN_STEP = 0.25
_DEFLECTION = 0.5  # share of the last direction kept in the next
_WORK = 100_000  # cap on the ball entries read, over all iterations


def escalate(members, cands, best):
    """The dual data of a search escalating with incumbent size ``best``:
    ``lagrangian`` over the candidate positions ``cands`` of the balls
    ``members``, then their reduced costs. Returns (y, cover, lower, costs,
    dear): ``costs`` ascending, and ``dear[i]`` the union of the candidates
    from the i-th on, so ``dear[bisect_right(costs, slack)]`` holds
    candidates whose reduced costs exceed ``slack``: all of them up to 256
    candidates."""
    y, cover, lower = lagrangian(members, cands, best)
    ranked = sorted((SCALE - sum(map(y.__getitem__, members[c])), c) for c in cands)
    # Past 256 candidates they are banned in at most 256 groups of equal size,
    # each once its least reduced cost exceeds the slack, so the masks take
    # O(m) words, not O(m²).
    width = -(-len(ranked) // 256)
    costs, dear, union = [], [0], 0
    for i in reversed(range(0, len(ranked), width)):
        union |= sum(1 << c for _, c in ranked[i:i + width])
        costs.append(ranked[i][0])
        dear.append(union)
    return y, cover, lower, costs[::-1], dear[::-1]


def weigher(y):
    """A function summing ``y`` over the set bits of a mask of at most
    ``len(y)`` bits: one precomputed sum per byte of the mask, whatever its
    bit count. Each byte's table doubles once per weight of its 8, so the
    last one holds 2^r sums when r weights are left for it."""
    tables = []
    for start in range(0, len(y), 8):
        table = [0]
        for w in y[start:start + 8]:
            table += [t + w for t in table]
        tables.append(table)
    size = len(tables)
    return lambda mask: sum(map(getitem, tables, mask.to_bytes(size, "little")))


def lagrangian(members, cands, best):
    """Subgradient optimisation of the Lagrangian of the k-ball set cover
    (Fisher 1981) in local labels: ``members[p]`` lists the positions in the
    ball of position ``p``, ``cands`` the candidate positions, and ``best``
    is the incumbent's size. Every vertex must lie in the ball of some
    candidate, and every candidate ball must hold at least two vertices (so
    the component is connected and has at least two).

    Returns (y, cover, lower). ``y`` holds integer dual weights in units of
    ``SCALE`` under which every candidate ball weighs at most ``SCALE``, so
    the weight of any vertex set over ``SCALE`` bounds from below the
    candidates needed to cover it. ``cover`` is the smallest Lagrangian
    cover found (Beasley 1990) as positions if it has fewer than ``best``
    members, else None. ``lower`` is the best Lagrangian bound, at least the
    weight of ``y``, in units of ``SCALE``.

    The multipliers start from the greedy dual weights and stay integers;
    the floats of each step are formed element by element and summed with
    ``math.fsum``, so the result is the same on every platform. The loop
    stops when the bound proves the incumbent optimal, when the step has
    halved below ``_MIN_STEP`` without improving it, or after
    ``_ITERATIONS`` iterations; it reads at most about
    ``_WORK`` ball entries, so large components get fewer."""
    m = len(members)
    cols = [members[c] for c in cands]
    owners = [[] for _ in range(m)]  # the indices into cols of each vertex's candidates
    for j, col in enumerate(cols):
        for p in col:
            owners[p].append(j)
    gathers = [itemgetter(*col) for col in cols]
    ones = [1] * m
    u = dual_feasible([0] * m, cols, owners)
    top, top_u = -1, u
    step, stall = 1.0, 0
    direction = [0] * m
    cover = None
    rounds = min(_ITERATIONS, _WORK // (sum(map(len, cols)) + m))
    for it in range(rounds):
        loads = [sum(gather(u)) for gather in gathers]
        over = [j for j, load in enumerate(loads) if load > SCALE]  # negative reduced cost
        bound = sum(u) - sum(loads[j] for j in over) + SCALE * len(over)
        if bound > top:
            top, top_u, stall = bound, u, 0
            if top > (best - 1) * SCALE:
                break  # the incumbent is optimal
        else:
            stall += 1
            if stall == _PATIENCE:
                step, stall = step / 2, 0
                if step < _MIN_STEP:
                    break  # the bound stopped improving
        hits = [0] * m  # how often the candidates of negative reduced cost cover each vertex
        for j in over:
            for p in cols[j]:
                hits[p] += 1
        if it % 5 == 4:
            found = lagrangian_cover(cols, owners, loads, over, hits)
            if len(found) < best:
                best, cover = len(found), [cands[j] for j in found]
        # deflected subgradient (Camerini, Fratta and Maffioli 1975)
        kept = map(mul, direction, repeat(_DEFLECTION))
        direction = list(map(add, map(sub, ones, hits), kept))
        # a multiplier held at zero cannot fall, so that part adds nothing to the norm
        idle = compress(direction, map(not_, u))
        norm = math.fsum(map(mul, direction, direction)) - math.fsum(d * d for d in idle if d < 0)
        if not norm:
            break  # the Lagrangian solution covers every vertex exactly once
        t = step * (best * SCALE - bound) / norm
        u = list(map(add, u, map(round, map(mul, direction, repeat(t)))))
        if min(u) < 0:
            u = [x if x > 0 else 0 for x in u]
    y = dual_feasible(list(top_u), cols, owners)
    return y, cover, max(top, sum(y))


def dual_feasible(y, cols, owners):
    """Make the multipliers ``y`` dual feasible in place and return them: each
    vertex is scaled down by the heaviest ball containing it, so no ball
    weighs more than ``SCALE``, then raised by the least slack of its balls,
    in label order (the greedy dual)."""
    loads = [sum(map(y.__getitem__, col)) for col in cols]
    for p, mine in enumerate(owners):
        worst = max(map(loads.__getitem__, mine))
        if worst > SCALE:
            y[p] = y[p] * SCALE // worst
    loads = [sum(map(y.__getitem__, col)) for col in cols]
    for p, mine in enumerate(owners):
        slack = SCALE - max(map(loads.__getitem__, mine))
        if slack:
            y[p] += slack
            for j in mine:
                loads[j] += slack
    return y


def lagrangian_cover(cols, owners, loads, over, hits):
    """Beasley's Lagrangian heuristic: the candidates of negative reduced cost
    (``over``, with ``hits`` the times each vertex is covered by them), each
    uncovered vertex in label order repaired with its cheapest candidate,
    then redundant members dropped, dearest first; returns indices into
    ``cols``."""
    hits = list(hits)
    chosen = list(over)
    for p, h in enumerate(hits):
        if not h:
            j = max(owners[p], key=loads.__getitem__)
            chosen.append(j)
            for q in cols[j]:
                hits[q] += 1
    kept = set(chosen)
    for j in sorted(chosen, key=loads.__getitem__):
        if min(map(hits.__getitem__, cols[j])) > 1:
            kept.discard(j)
            for q in cols[j]:
                hits[q] -= 1
    return sorted(kept)
