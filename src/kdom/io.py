"""Edge-list text format: parse and canonical serialization.

Format: a header line "n m" with n <= MAX_VERTICES, then exactly m lines
"u v" with 0-based ASCII decimal indices. Lines starting with '#' (and blank
lines) are ignored.
Valid text is read in bulk: one regular expression checks the shape of every
line, ``int`` converts all fields, the header's cap and edge count are checked
before anything the size of n exists, one ``max`` range-checks the endpoints,
and loops and repeats are counted from the pair count against ``Graph.m``.
When a bulk check fails, a line-by-line pass raises the first fault.
Serialization is canonical — edges sorted with the lower endpoint first — so
parse(serialize(G)) reproduces G exactly and serialized graphs are safe to
embed in golden files and failure reports.
"""

from __future__ import annotations

import operator
import re
import warnings
from typing import NoReturn

from .errors import CountMismatch, IndexOutOfRange, ParseError
from .graph import Graph, from_edge_list

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
    n, us, vs = ends[0], ends[2::2], ends[3::2]
    loops = sum(map(operator.eq, us, vs))
    g = Graph(n, [(u, v) for u, v in zip(us, vs) if u != v] if loops else zip(us, vs))
    dropped = len(us) - g.m
    if dropped:
        if strict:
            from_edge_list(n, zip(us, vs), strict=True)  # raises on the first loop or repeat
        warnings.warn(
            f"dropped {loops} self-loop(s) and {dropped - loops} duplicate edge(s)",
            stacklevel=2,
        )
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
