"""The Lagrangian dual bound and the better incumbents of an escalated search.

A long branch-and-bound search in :func:`kdom.solver.gamma_k_exact` escalates
once to this module: a subgradient on the Lagrangian of its k-ball set cover
(Fisher, "The Lagrangian relaxation method for solving integer programming
problems", Mgmt. Sci. 1981) gives integer dual weights that bound every node,
and Beasley's heuristic ("A Lagrangian heuristic for set-covering problems",
NRL 1990) and a weighted local search (Cai, Su and Sattar, Artif. Intell.
2011; Cai, Hou, Wang, Luo and Lin, IJCAI 2020) give covers that may replace
the incumbent. Everything here works in the solver's local labels (positions
0..m-1): the solver relabels the component and hands over each ball as the
list of positions in it.
"""

from __future__ import annotations

import math
import random
from itertools import compress, repeat
from operator import add, getitem, itemgetter, mul, not_, sub

SCALE = 1 << 24  # the unit of the integer dual weights
_ITERATIONS = 70
_PATIENCE = 10  # non-improving steps before the step size halves
_MIN_STEP = 0.25
_DEFLECTION = 0.5  # share of the last direction kept in the next
_WORK = 100_000  # cap on the ball entries read, over all iterations
_LS_WORK = 40_000  # cap on the ball entries the local search reads


def escalate(members, cands, incumbent):
    """The dual data of a search escalating with the cover ``incumbent``:
    ``lagrangian`` over the candidate positions ``cands`` of the balls
    ``members``, then, unless its bound proves the better of Beasley's cover
    and the incumbent optimal, ``local_search`` from it (non-candidates
    left out), then the reduced costs. Returns (weigh, cover, lower, costs,
    keep): ``cover`` is the smallest cover found, as positions, if it beats
    ``incumbent``, else None; ``weigh`` is ``weigher`` of the dual weights,
    ``costs`` the least reduced cost of each ban group, ascending, and
    ``keep[j]`` the union of the first j groups. A mask ANDed with
    ``keep[bisect_right(costs, slack)]`` thus loses only candidates whose
    reduced costs exceed ``slack``: all of them up to 256 candidates."""
    cols = [members[c] for c in cands]
    owners = [[] for _ in members]  # the indices into cols of each vertex's candidates
    for j, col in enumerate(cols):
        for p in col:
            owners[p].append(j)
    y, cover, lower = lagrangian(cols, owners, len(incumbent))
    best = len(cover or incumbent)
    if lower <= (best - 1) * SCALE:  # the bound leaves room for a smaller cover
        held = set(incumbent)
        start = cover or [j for j, c in enumerate(cands) if c in held]
        cover = local_search(cols, owners, start, best, lower) or cover
    if cover is not None:
        cover = [cands[j] for j in cover]
    ranked = sorted((SCALE - sum(map(y.__getitem__, col)), c) for c, col in zip(cands, cols))
    # Past 256 candidates they are banned in at most 256 groups of equal size,
    # each once its least reduced cost exceeds the slack, so the masks take
    # O(m) words, not O(m²).
    width = -(-len(ranked) // 256)
    costs, keep, union = [], [0], 0
    for i in range(0, len(ranked), width):
        union |= sum(1 << c for _, c in ranked[i:i + width])
        costs.append(ranked[i][0])
        keep.append(union)
    return weigher(y), cover, lower, costs, keep


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


def lagrangian(cols, owners, best):
    """Subgradient optimisation of the Lagrangian of the k-ball set cover
    (Fisher 1981) in local labels: ``cols[j]`` lists the positions in the
    ball of the j-th candidate, ``owners[p]`` the ascending indices into
    ``cols`` of the balls holding position ``p``, and ``best`` is the
    incumbent's size. Every vertex must lie in some column, and every column
    must hold at least two vertices (so the component is connected and has
    at least two).

    Returns (y, cover, lower). ``y`` holds integer dual weights in units of
    ``SCALE`` under which every column weighs at most ``SCALE``, so the
    weight of any vertex set over ``SCALE`` bounds from below the candidates
    needed to cover it. ``cover`` is the smallest Lagrangian cover found
    (Beasley 1990) as indices into ``cols`` if it has fewer than ``best``
    members, else None. ``lower`` is the best Lagrangian bound, at least the
    weight of ``y``, in units of ``SCALE``.

    The multipliers start from the greedy dual weights and stay integers;
    the floats of each step are formed element by element and summed with
    ``math.fsum``, so the result is the same on every platform. The loop
    stops when the bound proves the incumbent or a new Lagrangian cover
    optimal, when the step has halved below ``_MIN_STEP`` without improving
    it, or after ``_ITERATIONS`` iterations; it reads at most about
    ``_WORK`` ball entries, so large components get fewer."""
    m = len(owners)
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
                best, cover = len(found), found
                if top > (best - 1) * SCALE:
                    break  # the bound proves the new incumbent optimal
        # deflected subgradient (Camerini, Fratta and Maffioli 1975)
        kept = map(mul, direction, repeat(_DEFLECTION))
        direction = list(map(add, map(sub, ones, hits), kept))
        # a multiplier held at zero cannot fall, so that part adds nothing to the norm
        idle = compress(direction, map(not_, u))
        norm = math.fsum(map(mul, direction, direction)) - math.fsum(d * d for d in idle if d < 0)
        if not norm:
            break  # no multiplier free to move has a direction left, or rounding lost it
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


def local_search(cols, owners, start, best, lower):
    """Ascending indices into ``cols`` of a cover of fewer than ``best``
    columns, found by weighted local search with configuration checking from
    the columns ``start`` (Cai et al. 2011, 2020), or None. Vertices keep a
    cover count and an integer weight, columns one exact score: a member's
    loss (the weight only it covers) or a non-member's gain (the uncovered
    weight it would cover). Vertices ``start`` leaves uncovered get their
    column of most gain. A complete cover is recorded if it is the best so
    far, ending the search if it meets ⌈lower / SCALE⌉; then the member of
    least loss goes. An incomplete one drops that member, adds the column
    of most gain among the allowed owners of an uncovered vertex drawn by
    ``random.Random(0)``, and raises each uncovered weight by 1. Ties go to
    the column changed longest ago; a dropped column is allowed back once a
    vertex of it crosses a count of 0↔1 or 1↔2, the only time a toggle
    reads its owners. The search stops after reading ``_LS_WORK`` entries
    of ``cols`` and ``owners``."""
    count = [0] * len(owners)
    weight = [1] * len(owners)
    score = list(map(len, cols))  # nothing covered yet: each gain is the ball's size
    inside = [False] * len(cols)
    allowed = [True] * len(cols)
    stamp = [0] * len(cols)  # the step of each column's last change
    cover = []
    uncovered = list(range(len(owners)))
    at = list(range(len(owners)))  # each uncovered vertex's index in `uncovered`
    work = step = 0
    target = max(-(-lower // SCALE), 1)  # no cover is smaller

    def toggle(j, on):  # add column j or drop it: its gain becomes an equal loss, or back
        nonlocal work
        s, delta = score[j], 1 if on else -1
        inside[j] = False
        for p in cols[j]:
            count[p] += delta
            others = count[p] - on  # the members besides j that cover p
            if others < 2:  # every owner's gain, or the other member's loss, moves
                w, mine = -delta * weight[p], owners[p]
                for q in mine:
                    allowed[q] = True
                    if not others or inside[q]:
                        score[q] += w
                work += len(mine)
                if not others and on:  # covered now
                    last = uncovered.pop()
                    if last != p:
                        uncovered[at[p]] = last
                        at[last] = at[p]
                elif not others:  # uncovered now
                    at[p] = len(uncovered)
                    uncovered.append(p)
        work += len(cols[j])
        score[j], inside[j], allowed[j], stamp[j] = s, on, on, step
        if on:
            cover.append(j)
        else:
            cover.remove(j)

    for j in start:
        toggle(j, True)
    for p in range(len(owners)):
        if not count[p]:
            work += len(owners[p])
            toggle(max(owners[p], key=score.__getitem__), True)
    rng = random.Random(0)
    found = None
    while work < _LS_WORK:
        step += 1
        complete = not uncovered
        if complete and len(cover) < best:
            best, found = len(cover), sorted(cover)
        if complete and len(cover) <= target:
            break  # the bound proves the cover optimal
        toggle(min(cover, key=lambda j: (score[j], stamp[j])), False)
        if complete:
            continue
        mine = owners[rng.choice(uncovered)]
        work += len(mine)
        toggle(max(mine, key=lambda q: (allowed[q], score[q], -stamp[q])), True)
        for p in uncovered:
            weight[p] += 1
            for q in owners[p]:
                score[q] += 1
            work += len(owners[p])
    return found
