import random
import tracemalloc
import warnings

import pytest

import kdom.io
from conftest import random_graph
from kdom import (
    CountMismatch,
    Graph,
    IndexOutOfRange,
    ParseError,
    SimplenessViolation,
    TooLarge,
    cycle,
    from_edge_list,
    parse_edge_list,
    path,
    serialize_edge_list,
)


class TestParse:
    def test_path(self):
        assert parse_edge_list("3 2\n0 1\n1 2\n") == path(3)

    def test_cycle(self):
        assert parse_edge_list("4 4\n0 1\n1 2\n2 3\n3 0\n") == cycle(4)

    def test_comments_and_blanks_ignored(self):
        text = "# a path\n\n3 2\n0 1\n# middle\n1 2\n\n"
        assert parse_edge_list(text) == path(3)

    def test_index_error_carries_line(self):
        with pytest.raises(IndexOutOfRange, match="line 2"):
            parse_edge_list("3 1\n0 3\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("3\n0 1\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("a b\n")
        with pytest.raises(ParseError):
            parse_edge_list("")

    def test_vertex_cap(self):
        # rejected on the header line, before anything the size of n exists
        with pytest.raises(ParseError, match="line 1: .* above the cap"):
            parse_edge_list(f"{kdom.io.MAX_VERTICES + 1} 0\n")

    def test_range_checked_as_each_edge_is_read(self):
        # the range error of line 2 comes before the short edge count
        with pytest.raises(IndexOutOfRange, match="line 2"):
            parse_edge_list("3 2\n0 3\n")

    def test_bad_edge_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("2 1\n0 x\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_edge_list("3 2\n0 1\n1 2 3\n")

    @pytest.mark.parametrize("text, line", [
        ("1_1 0\n", 1),  # int() reads 11
        ("3 1\n0 \uff12\n", 2),  # a fullwidth 2, which int() reads as 2
        ("3 1\n+0 1\n", 2),
    ])
    def test_only_ascii_decimal_fields(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}: .*ASCII decimal"):
            parse_edge_list(text)

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch):
            parse_edge_list("3 2\n0 1\n")
        with pytest.raises(CountMismatch):
            parse_edge_list("3 1\n0 1\n1 2\n")

    def test_strict_simplicity(self):
        with pytest.raises(SimplenessViolation):
            parse_edge_list("3 2\n0 1\n1 0\n")
        with pytest.warns(UserWarning):
            g = parse_edge_list("3 2\n0 1\n1 0\n", strict=False)
        assert g.m == 1

    @pytest.mark.parametrize(
        "build",
        [lambda: parse_edge_list("3 3\n0 1\n1 0\n1 2\n", strict=False),
         lambda: from_edge_list(3, [(0, 1), (1, 0), (2, 2)])],
        ids=["parse_edge_list", "from_edge_list"],
    )
    def test_lenient_warning_names_the_caller(self, build):
        with pytest.warns(UserWarning, match="dropped") as record:
            build()
        assert [w.filename for w in record] == [__file__]


    def test_memory_at_scale(self):
        # while the graph is built the reader holds only the lines and the
        # pairs: one more copy of the text, or a list of every field, lifts
        # the peak above 3x the graph
        text = serialize_edge_list(path(100_000))
        tracemalloc.start()
        try:
            g = parse_edge_list(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m == 99_999
        assert peak <= 2.6 * kept


class TestFromEdgeList:
    def test_vertex_cap_before_allocation(self):
        # refused before the n adjacency lists exist: at the cap they take
        # about 64 MB under tracemalloc
        tracemalloc.start()
        try:
            cap = kdom.io.MAX_VERTICES
            with pytest.raises(TooLarge, match=f"^graph of {cap + 1} vertices is above the cap of {cap}$"):
                from_edge_list(cap + 1, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("n, pairs", [
        (3, [(0, 0), (0, 5)]),  # a loop before a range fault
        (3, [(0, 1), (1, 0), (-1, 2)]),  # a repeat before a range fault
        (3, [(-1, -1)]),  # out-of-range loops
        (3, [(3, 3), (1, 1)]),
        (3, [(-4, 1)]),
        (3, [(2, -1)]),  # -1 indexes a list from the end
        (-1, []),
        (0, []),
        (0, [(0, 0)]),
        (1, [(0, 0), (0, 0)]),
        (4, [(0, 1), (2, 2), (1, 0), (0, 1), (3, 3)]),
    ])
    def test_edge_cases(self, n, pairs):
        for strict in (True, False):
            want = _pair_outcome(reference_from_edge_list, n, pairs, strict)
            assert _pair_outcome(from_edge_list, n, pairs, strict) == want

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    def test_seeded_pairs(self, strict):
        rng = random.Random(61)
        kinds = set()
        for _ in range(2000):
            n, pairs = random_pairs(rng)
            want = _pair_outcome(reference_from_edge_list, n, pairs, strict)
            # a one-shot iterator as often as a list
            got = _pair_outcome(from_edge_list, n, iter(pairs) if rng.random() < 0.5 else pairs, strict)
            assert got == want, (n, pairs)
            kinds.add(want[0][0] if isinstance(want[0][0], type) else bool(want[1]))
            if want[0][0] is SimplenessViolation and any(max(p) >= n or min(p) < 0 for p in pairs):
                kinds.add("before a range fault")
            if n == 0:
                kinds.add("n = 0")
        assert {False, IndexOutOfRange, "n = 0"} <= kinds
        assert (SimplenessViolation in kinds) == strict and (True in kinds) != strict
        assert ("before a range fault" in kinds) == strict


def reference_from_edge_list(n: int, pairs, strict: bool = False) -> Graph:
    """The ordered pair reader, kept as a reference for the library's pair
    stage: each pair is range-checked, then in strict mode checked for a loop
    or a repeat, in input order, against an edge set of its own."""
    if n < 0:
        raise ValueError("vertex count must be >= 0")
    seen: set[tuple[int, int]] = set()
    loops = 0
    dupes = 0
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u},{v}) uses a vertex outside [0, {n})")
        if u == v:
            if strict:
                raise SimplenessViolation(f"self-loop at vertex {u}")
            loops += 1
            continue
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            if strict:
                raise SimplenessViolation(f"duplicate edge ({u},{v})")
            dupes += 1
            continue
        seen.add(edge)
    if loops or dupes:
        warnings.warn(
            f"dropped {loops} self-loop(s) and {dupes} duplicate edge(s)",
            stacklevel=2,
        )
    return Graph(n, seen)


def random_pairs(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """An order n (0 included) and pairs with seeded loops, repeats in both
    orientations and endpoints below 0 or at least n, loops among them."""
    n = rng.randint(0, 8)
    pairs = []
    for _ in range(rng.randint(0, 10)):
        fault = rng.random()
        if n == 0 or fault < 0.08:
            bad = rng.choice((-1, -n - 1, n, n + 1, n + 5))
            pairs.append((bad, bad) if rng.random() < 0.3 else
                         (bad, rng.randrange(max(n, 1)))[::rng.choice((1, -1))])
        elif fault < 0.2:
            pairs.append((rng.randrange(n),) * 2)
        elif pairs and fault < 0.35:
            u, v = rng.choice(pairs)
            pairs.append((v, u) if rng.random() < 0.5 else (u, v))
        else:
            pairs.append((rng.randrange(n), rng.randrange(n)))
    return n, pairs


def _pair_outcome(build, n: int, pairs, strict: bool):
    """The graph or the exception of ``build``, and each warning with the
    file it names."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = build(n, pairs, strict)
        except Exception as exc:
            result = (type(exc), str(exc))
        else:
            result = (g.n, g.m, g.adj)
    return result, [(w.category, str(w.message), w.filename) for w in caught]


class TestRoundTrip:
    def test_serialize_is_canonical(self):
        assert serialize_edge_list(path(3)) == "3 2\n0 1\n1 2\n"

    def test_round_trip_random(self):
        rng = random.Random(43)
        for _ in range(25):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            assert parse_edge_list(serialize_edge_list(g)) == g

    def test_serialization_stable(self):
        rng = random.Random(45)
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            assert serialize_edge_list(g) == serialize_edge_list(parse_edge_list(serialize_edge_list(g)))


def reference_parse(text: str, strict: bool = True) -> Graph:
    """A test-side copy of the line-by-line reader that the library's one
    reader and its pair stage are checked against: every line is checked as
    it is read, then the pairs go through ``reference_from_edge_list``'s
    ordered loop and repeat checks."""
    n = m = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
            if n > kdom.io.MAX_VERTICES:
                raise ParseError(
                    f"header declares {n} vertices, above the cap of {kdom.io.MAX_VERTICES}", lineno)
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
    return reference_from_edge_list(n, pairs, strict)


# every separator str.splitlines knows, and whitespace a line may end in
LINE_BREAKS = ("\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029")
PADS = ("", "", "", " ", "\t", "  \t", "\x1f", "\xa0", "\u3000", "\u2003")
# what may stand between two fields; the last two, non-ASCII, are refused
GAPS = (" ", " ", " ", "\t", "  ", " \t ", "\x1f", "\xa0", "\u3000")
FULLWIDTH = str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")


def _field(rng: random.Random, value: int, odd: float) -> str:
    if rng.random() >= odd:
        return str(value)
    return rng.choice((f"0{value}", f"-{value}", f"+{value}", f"{value}_0", "-0", "-00",
                       str(value).translate(FULLWIDTH), "x", "1.0", "--1", ""))


def _line(rng: random.Random, a: int, b: int, odd: float) -> str:
    """An edge or header line; ``odd`` is the chance of each kind of fault."""
    fields = [_field(rng, a, odd), _field(rng, b, odd)]
    if rng.random() < odd:
        fields.append(_field(rng, rng.randint(0, 9), odd))
    elif rng.random() < odd:
        fields.pop()
    gap = rng.choice(GAPS[:-2] if rng.random() >= odd else GAPS[-2:])
    text = gap.join(fields)
    if rng.random() < odd:
        text += " # trailing"
    return rng.choice(PADS) + text + rng.choice(PADS)


def _filler(rng: random.Random) -> str:
    return rng.choice(("", "  ", "\t", "#", "# a comment", "  # 1 2", "#\u00e9 \uff11 +_", "\xa0"))


def random_edge_text(rng: random.Random) -> str:
    """Edge-list text that is valid more often than not, with seeded faults:
    odd separators and padding, loops, repeats, out-of-range endpoints, wrong
    edge counts, bad headers, the vertex cap and refused field forms."""
    n = rng.randint(0, 9)
    odd = rng.choice((0, 0, 0.02, 0.1))
    pairs = []
    for _ in range(rng.randint(0, 12)):
        fault = rng.random()
        if n < 2 or fault < odd / 2:
            pairs.append((rng.choice((n, n + 1, -1, 0)), rng.randint(0, max(n - 1, 0))))
        elif fault < odd:
            pairs.append((rng.randrange(n),) * 2)
        elif pairs and fault < 2 * odd:
            u, v = rng.choice(pairs)
            pairs.append((v, u) if rng.random() < 0.5 else (u, v))
        else:
            pairs.append(tuple(rng.sample(range(n), 2)))
    m = len(pairs) + (rng.choice((-1, 1, 2)) if rng.random() < 2 * odd else 0)
    header = _line(rng, n, max(m, 0), odd)
    if rng.random() < odd:
        header = rng.choice((f"{n}", f"{n} {m} 1", "a b", f"-1 {m}", f"{n} -1", "",
                             f"{kdom.io.MAX_VERTICES + 1} 0", f"{n}\xa0{m}", f"-0 {m}"))
    lines = [_filler(rng) for _ in range(rng.choice((0, 0, 1, 2)))] + [header]
    for u, v in pairs:
        lines.extend(_filler(rng) for _ in range(rng.random() < 0.15))
        lines.append(_line(rng, u, v, odd))
    lines.extend(_filler(rng) for _ in range(rng.choice((0, 0, 1))))
    text = "".join(line + rng.choice(LINE_BREAKS) for line in lines)
    return text if rng.random() < 0.8 else text.rstrip("\n")


def _outcome(read, text: str, strict: bool):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = read(text, strict)
        except Exception as exc:
            result = (type(exc), str(exc), getattr(exc, "line", None))
        else:
            result = (g.n, g.m, g.adj)
    return result, [(w.category, str(w.message)) for w in caught]


class TestBulkReaderAgainstLineByLine:
    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    def test_seeded_texts(self, strict):
        rng = random.Random(97)
        kinds = set()
        for _ in range(3000):
            text = random_edge_text(rng)
            want = _outcome(reference_parse, text, strict)
            assert _outcome(parse_edge_list, text, strict) == want, repr(text)
            kinds.add(want[0][0] if isinstance(want[0][0], type) else bool(want[1]))
        # the seeded texts reach every outcome: graphs with and without dropped
        # pairs, and each kind of error
        assert {False, ParseError, IndexOutOfRange, CountMismatch} <= kinds
        assert (SimplenessViolation in kinds) == strict and (True in kinds) != strict

    @pytest.mark.parametrize("text", [
        "2 1\r\n0 1\r\n",
        "\u3000# c\x85 2\t1\xa0\u20290\x1f1\x1c",
        "-0 0\n",
        "3 1\n-0 002\n",
        "3 1\n0 -1\n",
        "3 2\n0 1\n1 0 # again\n",
        "2 1\n0\xa01\n",
        f"{kdom.io.MAX_VERTICES + 1} 0\n0 0\n",
        "9" * 5000 + " 0\n",  # longer than int()'s default digit limit
        "3 1\n0 " + "1" * 5000 + "\n",
    ])
    def test_edge_cases(self, text):
        for strict in (True, False):
            assert _outcome(parse_edge_list, text, strict) == _outcome(reference_parse, text, strict)
