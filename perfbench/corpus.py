"""Seeded inputs for the three benchmark workloads.

The generator is self-contained: it shares no code with the library or its
test helpers, so a change to ``kdom.fuzz.random_connected_graph`` or to the
test fixtures cannot change what the benchmark measures. The library only
ever sees the edge-list files written here (and, for ``fuzz-small``, the
seeds on its command line).

Every draw comes from ``random.Random`` seeded with a string that names the
workload and the seed, so one ``--seed`` gives byte-identical files on every
platform and Python version.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from pathlib import Path

# Node budget for every exact solve. With the time budget left unbounded,
# whether a solve ends Exact depends only on the code and the input.
BUDGET_NODES = 10_000

GAMMA_N_RANGE = (40, 150)
# Instances per k: k = 1 dominates, because sparse k = 1 search is the
# bottleneck the benchmark exists to track.
GAMMA_PER_K = {1: 24, 2: 18, 3: 18}
# Interleaving of the k groups; each prefix of the pass keeps the mix.
GAMMA_K_PATTERN = (1, 2, 1, 3)
GAMMA_EXTRA_DEGREE = 2.5  # extra edges drawn with p = 2.5 / n

BOUNDS_N_RANGE = (500, 1000)
BOUNDS_PER_FAMILY = 8
# Sizes sit on an even grid over the range, each moved by at most this much:
# the cost of an op grows with n squared, so wide jitter would make the
# per-op times depend on the seed more than on the code.
BOUNDS_JITTER = 10
BOUNDS_FAMILIES = ("path", "cycle", "clique-expanded")

FUZZ_CHUNKS = 64
FUZZ_TRIALS = 50
FUZZ_N_RANGE = (4, 14)
FUZZ_K = (1, 2)


@dataclass(frozen=True)
class Instance:
    """One generated graph with what the correctness gate needs to know."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    n_base: int = 0  # backbone length, for the closed form on tight families

    def text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Op:
    """One CLI invocation of the closed loop."""

    argv: tuple[str, ...]
    items: int
    out: Path
    instance: Instance | None = None
    ks: tuple[int, ...] = ()
    trials: int = 0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes, one drawn from each equal slice of [lo, hi]."""
    width = (hi - lo + 1) / count
    return [lo + int((i + rng.random()) * width) for i in range(count)]


def _spread_order(count: int) -> list[int]:
    """Indices 0..count-1 in golden-ratio order, so any prefix covers the
    whole range instead of only its low end."""
    return sorted(range(count), key=lambda i: (i * 0.6180339887498949) % 1.0)


def _prufer_tree(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """Uniform random labelled tree on n >= 2 vertices."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = set()
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.add((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.add((min(u, v), max(u, v)))
    return edges


def sparse_connected(rng: random.Random, n: int) -> tuple[tuple[int, int], ...]:
    """Random spanning tree plus each other pair with p = 2.5 / n."""
    edges = _prufer_tree(rng, n)
    p = GAMMA_EXTRA_DEGREE / n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return tuple(sorted(edges))


def path_edges(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(n - 1))


def cycle_edges(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)))


def clique_expanded_edges(n_base: int, delta: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Path on ``n_base`` positions whose internal positions are K_delta
    cliques joined completely to their neighbours; returns (n, edges)."""
    cells = [[0]]
    nxt = 1
    for _ in range(n_base - 2):
        cells.append(list(range(nxt, nxt + delta)))
        nxt += delta
    cells.append([nxt])
    edges = set()
    for cell in cells:
        edges.update((a, b) for i, a in enumerate(cell) for b in cell[i + 1:])
    for left, right in zip(cells, cells[1:]):
        edges.update((min(a, b), max(a, b)) for a in left for b in right)
    return nxt + 1, tuple(sorted(edges))


def _gamma_sparse(rng: random.Random) -> list[tuple[Instance, int]]:
    groups = {}
    for k, count in GAMMA_PER_K.items():
        sizes = _stratified(rng, *GAMMA_N_RANGE, count)
        groups[k] = [sizes[i] for i in _spread_order(count)]
    picked = []
    cursor = {k: 0 for k in groups}
    while len(picked) < sum(GAMMA_PER_K.values()):
        for k in GAMMA_K_PATTERN:
            if cursor[k] < len(groups[k]):
                picked.append((k, groups[k][cursor[k]]))
                cursor[k] += 1
    out = []
    for i, (k, n) in enumerate(picked):
        inst = Instance(f"g{i:03d}-n{n}-k{k}", n, sparse_connected(rng, n))
        out.append((inst, k))
    return out


def _bounds_tight(rng: random.Random) -> list[Instance]:
    lo, hi = BOUNDS_N_RANGE
    step = (hi - lo) / (BOUNDS_PER_FAMILY - 1)
    per_family = {}
    for family in BOUNDS_FAMILIES:
        sizes = [min(hi, max(lo, round(lo + i * step) + rng.randint(-BOUNDS_JITTER, BOUNDS_JITTER)))
                 for i in range(BOUNDS_PER_FAMILY)]
        per_family[family] = [sizes[i] for i in _spread_order(BOUNDS_PER_FAMILY)]
    # the largest graph sets peak memory, so its order is fixed
    per_family["path"][per_family["path"].index(max(per_family["path"]))] = hi
    out = []
    for i in range(BOUNDS_PER_FAMILY):
        for family in BOUNDS_FAMILIES:
            n = per_family[family][i]
            name = f"b{len(out):03d}-{family}"
            if family == "path":
                out.append(Instance(f"{name}-n{n}", n, path_edges(n), n_base=n))
            elif family == "cycle":
                out.append(Instance(f"{name}-n{n}", n, cycle_edges(n), n_base=n))
            else:
                delta = 2 + i % 2
                n_base = max(3, (n - 2) // delta + 2)
                order, edges = clique_expanded_edges(n_base, delta)
                out.append(Instance(f"{name}-d{delta}-n{order}", order, edges, n_base=n_base))
    return out


def build(workload: str, seed: int, directory: Path) -> list[Op]:
    """Generate the workload's inputs for ``seed`` and write them under
    ``directory``; returns the ops of one pass of the closed loop."""
    rng = _rng(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    budget = ["--budget-nodes", str(BUDGET_NODES)]
    if workload == "gamma-sparse":
        for inst, k in _gamma_sparse(rng):
            src, out = directory / f"{inst.name}.txt", directory / f"{inst.name}.out.json"
            src.write_text(inst.text(), encoding="utf-8")
            argv = ("gamma", "--k", str(k), "--in", str(src), "--out", str(out),
                    *budget, "--budget-seconds", "inf")
            ops.append(Op(argv, 1, out, inst, (k,)))
    elif workload == "bounds-tight":
        ks = (1, 2, 3)
        for inst in _bounds_tight(rng):
            src, out = directory / f"{inst.name}.txt", directory / f"{inst.name}.out.json"
            src.write_text(inst.text(), encoding="utf-8")
            argv = ("bounds", "--k", ",".join(map(str, ks)), "--in", str(src), "--out", str(out),
                    *budget, "--budget-seconds", "inf")
            ops.append(Op(argv, len(ks), out, inst, ks))
    elif workload == "fuzz-small":
        base = rng.randrange(1 << 31)
        for j in range(FUZZ_CHUNKS):
            out = directory / f"f{j:03d}.out.json"
            argv = ("fuzz", "--seed", str(base + j), "--trials", str(FUZZ_TRIALS),
                    "--n-min", str(FUZZ_N_RANGE[0]), "--n-max", str(FUZZ_N_RANGE[1]),
                    "--k", ",".join(map(str, FUZZ_K)), *budget, "--out", str(out))
            ops.append(Op(argv, FUZZ_TRIALS, out, None, FUZZ_K, FUZZ_TRIALS))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
