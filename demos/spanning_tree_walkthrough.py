#!/usr/bin/env python3
"""Walk through the domination-preserving spanning tree construction.

Starting from a graph with redundant edges, the procedure solves for a
minimum k-dominating set, partitions the vertices into cells around each
dominator, keeps only shortest-path edges inside each cell, and reconnects
the cells with the smallest cross edges. The resulting tree has the same
distance-k domination number even though it lost every cycle.
"""

import random

from kdom import Graph, gamma_k_oracle, preserving_spanning_tree

rng = random.Random(7)
n = 12
edges = {(rng.randrange(v), v) for v in range(1, n)}
for u in range(n):
    for v in range(u + 1, n):
        if rng.random() < 0.35:
            edges.add((u, v))
g = Graph(n, edges)

for k in (1, 2):
    res = preserving_spanning_tree(g, k)
    print(f"k = {k}")
    print(f"  input: n={g.n}, m={g.m}")
    print(f"  minimum {k}-dominating set: {res.dominating_set}")
    for i, root in enumerate(res.dominating_set):
        cell = [v for v in range(n) if res.partition[v] == i]
        print(f"  cell of dominator {root}: {cell}")
    print(f"  cross-cell connectors: {list(res.connectors)}")
    t_gamma = gamma_k_oracle(res.tree, k).value
    print(f"  tree m={res.tree.m} (dropped {g.m - res.tree.m} edges), "
          f"gamma_{k}: graph={res.certificate.value} tree={t_gamma}")
    dist_g = [g.bfs_distances(v) for v in range(n)]
    dist_t = [res.tree.bfs_distances(v) for v in range(n)]
    preserved = all(
        dist_t[v][res.dominating_set[res.partition[v]]]
        == dist_g[v][res.dominating_set[res.partition[v]]]
        for v in range(n)
    )
    print(f"  distance to own dominator preserved for every vertex: {preserved}")
    print()
