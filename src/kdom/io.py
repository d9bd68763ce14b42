"""Edge-list text format: parse and canonical serialization.

Format: a header line "n m" with n <= MAX_VERTICES, then exactly m lines
"u v" with 0-based ASCII decimal indices. Lines starting with '#' (and blank
lines) are ignored.
Serialization is canonical — edges sorted with the lower endpoint first — so
parse(serialize(G)) reproduces G exactly and serialized graphs are safe to
embed in golden files and failure reports.
"""

from __future__ import annotations

import operator
import warnings
from itertools import starmap
from typing import Iterable

from .errors import CountMismatch, IndexOutOfRange, ParseError, SimplenessViolation, TooLarge
from .graph import Graph

MAX_VERTICES = 1_000_000
# generated graphs only: a parsed file's edges are bounded by its own text
MAX_EDGES = 2 * MAX_VERTICES


def _check_size(what: str, order: int, size: int, error: type[Exception]) -> None:
    """Raise ``error`` before building a graph above ``MAX_VERTICES`` or ``MAX_EDGES``."""
    if order > MAX_VERTICES:
        raise error(f"{what} of {order} vertices is above the cap of {MAX_VERTICES}")
    if size > MAX_EDGES:
        raise error(f"{what} of {size} edges is above the cap of {MAX_EDGES}")


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


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]], strict: bool = False) -> Graph:
    """Canonical Graph from raw index pairs, n at most ``MAX_VERTICES``.

    The first pair outside [0, n) raises :class:`IndexOutOfRange`. In strict
    mode the first self-loop or duplicate edge (in either orientation) raises
    :class:`SimplenessViolation`; otherwise they are dropped and a single
    warning reports how many were discarded.
    """
    _check_size("graph", n, 0, TooLarge)
    return _from_pairs(n, list(pairs), strict)


def _from_pairs(n: int, pairs: list[tuple[int, int]], strict: bool) -> Graph:
    """The pair stage of both entry points. ``Graph`` range-checks the pairs
    (only in-range loops are taken out first) and collapses repeats, counted
    against ``Graph.m``. Only when it refused a pair, or strict mode dropped
    one, are the pairs read again in order to raise the first fault."""
    loops = sum(starmap(operator.eq, pairs))
    try:
        g = Graph(n, [(u, v) for u, v in pairs if u != v or not 0 <= u < n] if loops else pairs)
    except IndexOutOfRange:
        g = None
    if g is None or strict and g.m < len(pairs):
        seen = set()
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRange(f"edge ({u},{v}) uses a vertex outside [0, {n})")
            edge = (u, v) if u < v else (v, u)
            if strict and u == v:
                raise SimplenessViolation(f"self-loop at vertex {u}")
            if strict and edge in seen:
                raise SimplenessViolation(f"duplicate edge ({u},{v})")
            seen.add(edge)
        raise AssertionError("Graph refused pairs that read one by one")
    dropped = len(pairs) - g.m
    if dropped:  # stacklevel 3 names the caller of the public reader
        warnings.warn(
            f"dropped {loops} self-loop(s) and {dropped - loops} duplicate edge(s)", stacklevel=3)
    return g


def serialize_edge_list(g: Graph) -> str:
    """Canonical text form of a graph (round-trips through parse_edge_list)."""
    lines = [f"{g.n} {g.m}"]
    # adj holds sorted tuples, so its (u, v) pairs with u < v come in order
    lines.extend(f"{u} {v}" for u, nbrs in enumerate(g.adj) for v in nbrs if u < v)
    return "\n".join(lines) + "\n"
