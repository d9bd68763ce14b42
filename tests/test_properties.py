"""Property tests over generated graphs (skipped without hypothesis).

Examples are derandomized and few, so the suite stays deterministic and fast.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from kdom import Graph, gamma_k_oracle, parse_edge_list, serialize_edge_list
from kdom.fuzz import _non_bridges

FEW = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@st.composite
def graphs(draw, up_to: int) -> Graph:
    n = draw(st.integers(0, up_to))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, edges)


@FEW
@given(graphs(30))
def test_parse_inverts_serialize(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


@FEW
@given(graphs(10))
def test_gamma_does_not_increase_with_k(g):
    values = [gamma_k_oracle(g, k).value for k in (1, 2, 3, 4)]
    assert values == sorted(values, reverse=True)


@FEW
@given(graphs(10), st.integers(1, 3))
def test_deleting_a_non_bridge_never_lowers_gamma(g, k):
    gamma = gamma_k_oracle(g, k).value
    for e in _non_bridges(g):
        assert gamma_k_oracle(Graph(g.n, g.edges - {e}), k).value >= gamma
