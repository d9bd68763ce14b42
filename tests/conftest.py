"""Shared graph builders for the test suite."""

import os
import random

# scipy's numpy import would otherwise start OpenBLAS worker threads, and
# fuzz() does not fork beside other threads, so its forked-worker tests would
# skip whenever a HiGHS test ran first; set before any test imports numpy
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from kdom import Graph, from_edge_list

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
]


def petersen() -> Graph:
    return from_edge_list(10, PETERSEN_EDGES)


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(n: int) -> Graph:
    """Star with center 0 and n leaves."""
    return Graph(n + 1, [(0, v) for v in range(1, n + 1)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def random_connected(rng: random.Random, n: int, p: float) -> Graph:
    """Random spanning tree plus p-density extras; always connected."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return Graph(n, edges)


def relabelled_path(n: int, step: int) -> Graph:
    """The path on n vertices with position i labelled step * i mod n, for a
    step coprime to n: with 1 < step < n - 1 its balls of 2 to n - 2
    vertices are not runs of consecutive labels, unlike those of a path
    labelled along itself."""
    return Graph(n, [(step * i % n, step * (i + 1) % n) for i in range(n - 1)])


def random_tree(rng: random.Random, n: int) -> Graph:
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def open_root() -> Graph:
    """A connected graph whose exact k = 1 solve needs search: its root
    bounds reach 2 and its greedy cover takes 3 = gamma_1, so with a node
    budget of 0 the solve stops UpperBoundOnly."""
    return random_connected(random.Random(2), 8, 0.3)


def broom(levels: int) -> Graph:
    """Hubs 0..levels-1 joined in a path, hub h carrying levels - h leaves
    (numbered after the hubs, hub by hub): a tree with
    n = levels(levels+1)/2 + levels whose k = 1 balls hold up to levels + 2
    vertices on the hubs, nearly all sizes different, and 2 on the leaves."""
    edges = [(h, h + 1) for h in range(levels - 1)]
    n = levels
    for h in range(levels):
        edges += [(h, leaf) for leaf in range(n, n + levels - h)]
        n += levels - h
    return Graph(n, edges)
