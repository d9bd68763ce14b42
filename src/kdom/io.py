"""Edge-list text format: parse and canonical serialization.

Format: a header line "n m" with n <= MAX_VERTICES, then exactly m lines
"u v" with 0-based ASCII decimal indices. Lines starting with '#' (and blank
lines) are ignored.
Valid text is read in bulk: one regular expression checks the shape of every
line, ``int`` converts all fields, the header's cap and edge count are checked
before anything the size of n exists, one ``max`` range-checks the endpoints,
and the pairs go to the same pair stage as :func:`from_edge_list`'s.
When a bulk check fails, a line-by-line pass raises the first fault.
Serialization is canonical — edges sorted with the lower endpoint first — so
parse(serialize(G)) reproduces G exactly and serialized graphs are safe to
embed in golden files and failure reports.
"""

from __future__ import annotations

import operator
import re
import warnings
from itertools import starmap
from typing import Iterable, NoReturn

from .errors import CountMismatch, IndexOutOfRange, ParseError, SimplenessViolation, TooLarge
from .graph import Graph

MAX_VERTICES = 1_000_000
# generated graphs only: a parsed file's edges are bounded by its own text
MAX_EDGES = 2 * MAX_VERTICES

# A line break not followed by a well-formed line: blank, a comment, or two
# fields split by the ASCII whitespace a line can hold, with any whitespace
# at its ends (str.strip removes it). A field is ASCII digits, or "-0...",
# the one signed form int() reads as a valid count or endpoint. Searching for
# the first bad line keeps the regex engine's state to one line.
_FIELD = r"(?:-0+|[0-9]+)"
_BAD_LINE = re.compile(rf"\n(?![^\S\n]*(?:#.*|{_FIELD}[ \t\x1f]+{_FIELD})?[^\S\n]*(?:\n|\Z))")
_COMMENT = re.compile(r"^[^\S\n]*#.*", re.MULTILINE)


def parse_edge_list(text: str, strict: bool = True) -> Graph:
    """Graph from edge-list text; errors carry the offending 1-based line.
    A header above ``MAX_VERTICES`` vertices fails before any allocation."""
    lines = text.splitlines()
    ends = _fields(lines)
    if ends is None:
        _raise_first_fault(lines)
    return _from_pairs(ends[0], list(zip(ends[2::2], ends[3::2])), strict)


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]], strict: bool = False) -> Graph:
    """Canonical Graph from raw index pairs, n at most ``MAX_VERTICES``.

    The first pair outside [0, n) raises :class:`IndexOutOfRange`. In strict
    mode the first self-loop or duplicate edge (in either orientation) raises
    :class:`SimplenessViolation`; otherwise they are dropped and a single
    warning reports how many were discarded.
    """
    if n > MAX_VERTICES:
        raise TooLarge(f"graph of {n} vertices is above the cap of {MAX_VERTICES}")
    return _from_pairs(n, list(pairs), strict)


def _from_pairs(n: int, pairs: list[tuple[int, int]], strict: bool) -> Graph:
    """Both readers' pair stage. ``Graph`` range-checks the pairs (only
    in-range loops are taken out first) and collapses repeats, counted
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


def _fields(lines: list[str]) -> list[int] | None:
    """Every field of valid text as an int, header first, or None."""
    body = "\n".join(lines)
    if _BAD_LINE.search("\n" + body):
        return None
    if "#" in body:
        body = _COMMENT.sub("", body)
    try:
        ends = list(map(int, body.split()))
    except ValueError:  # a field longer than int()'s digit limit
        return None
    if not ends or ends[0] > MAX_VERTICES or len(ends) != 2 * ends[1] + 2:
        return None
    return ends if max(ends[2:], default=-1) < ends[0] else None


def _raise_first_fault(lines: list[str]) -> NoReturn:
    """Read ``lines`` one by one and raise the first fault found."""
    n = m = None
    count = 0
    for lineno, raw in enumerate(lines, start=1):
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
        count += 1
    if n is None:
        raise ParseError("missing 'n m' header", None)
    if count != m:
        raise CountMismatch(f"header declares {m} edges but found {count}", None)
    raise AssertionError("the bulk reader refused text that reads line by line")


def serialize_edge_list(g: Graph) -> str:
    """Canonical text form of a graph (round-trips through parse_edge_list)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
