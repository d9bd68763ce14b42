import random

import pytest

import kdom.io
from conftest import random_graph
from kdom import (
    CountMismatch,
    IndexOutOfRange,
    ParseError,
    SimplenessViolation,
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
