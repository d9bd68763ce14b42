"""Machine-speed probe used to normalise wall times.

On a shared host the speed of a core can swing by a factor of two over tens
of seconds (frequency changes, a busy sibling hyperthread), which moves every
wall time of a run together. The probe is a fixed piece of pure-Python work
of the same kind the library does (BFS over adjacency lists, big-integer
bitset arithmetic), owned by the benchmark so no library change can alter it.
Timing it between ops and scaling each op by ``NOMINAL_S / probe seconds``
gives the op's wall time at a fixed reference speed: a code change moves the
normalised time, a slow phase of the host does not.
"""

from __future__ import annotations

import random
from time import perf_counter

# The probe's duration at the reference speed. Normalised seconds are raw
# seconds on a machine where one probe takes exactly this long.
NOMINAL_S = 0.002

_RNG = random.Random(20150730)
_ADJ = [[_RNG.randrange(400) for _ in range(4)] for _ in range(400)]
_MASKS = [_RNG.getrandbits(300) for _ in range(200)]


def _work() -> int:
    total = 0
    for source in range(0, 400, 40):
        seen = {source}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for w in _ADJ[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        total += len(seen)
    for a in _MASKS:
        for b in _MASKS[:20]:
            total += (a & ~b).bit_count()
    return total


def probe() -> float:
    """Seconds one run of the fixed reference work takes right now."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from raw to normalised seconds for work timed between two probes."""
    return 2 * NOMINAL_S / (before + after)
