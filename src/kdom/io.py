"""Edge-list text format: parse and canonical serialization.

Format: a header line "n m" with n <= MAX_VERTICES, then exactly m lines
"u v" with 0-based ASCII decimal indices. Lines starting with '#' (and blank
lines) are ignored.
Serialization is canonical — edges sorted with the lower endpoint first — so
parse(serialize(G)) reproduces G exactly and serialized graphs are safe to
embed in golden files and failure reports.
"""

from __future__ import annotations

from .errors import CountMismatch, IndexOutOfRange, ParseError
from .graph import Graph, _from_pairs

MAX_VERTICES = 1_000_000
# generated graphs only: a parsed file's edges are bounded by its own text
MAX_EDGES = 2 * MAX_VERTICES


def parse_edge_list(text: str, strict: bool = True) -> Graph:
    """Graph from edge-list text; errors carry the offending 1-based line.
    A header above ``MAX_VERTICES`` vertices fails before any allocation."""
    n = m = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # int() also takes '_', '+' and non-ASCII digits, which the format does not
        if "_" in line or "+" in line or not line.isascii():
            raise ParseError("fields must be ASCII decimal integers", lineno)
        fields = line.split()
        if n is None:
            if len(fields) != 2:
                raise ParseError("header must be 'n m'", lineno)
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError("header must hold two integers", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("header counts must be non-negative", lineno)
            if n > MAX_VERTICES:
                raise ParseError(
                    f"header declares {n} vertices, above the cap of {MAX_VERTICES}", lineno)
            continue
        if len(fields) != 2:
            raise ParseError("edge line must be 'u v'", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"line {lineno}: edge ({u},{v}) outside [0, {n})")
        pairs.append((u, v))
    if n is None:
        raise ParseError("missing 'n m' header", None)
    if len(pairs) != m:
        raise CountMismatch(f"header declares {m} edges but found {len(pairs)}", None)
    return _from_pairs(n, pairs, strict)


def serialize_edge_list(g: Graph) -> str:
    """Canonical text form of a graph (round-trips through parse_edge_list)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
