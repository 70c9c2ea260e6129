import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapframes import (
    EdgeListError,
    Graph,
    components,
    laplacian,
    parse_edge_list,
    symmetric_eig,
)

from conftest import K3K2_TEXT
from oracles import block_laplacian

K3K2_LAPLACIAN = np.array(
    [
        [2, -1, -1, 0, 0],
        [-1, 2, -1, 0, 0],
        [-1, -1, 2, 0, 0],
        [0, 0, 0, 1, -1],
        [0, 0, 0, -1, 1],
    ]
)


def test_parse_two_component_fixture():
    g = parse_edge_list(K3K2_TEXT)
    assert g.n == 5
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 3), (4, 5)})


def test_parse_single_vertex():
    g = parse_edge_list("n 1")
    assert g.n == 1 and g.edges == frozenset()


def test_parse_ignores_comments_and_blanks():
    g = parse_edge_list("# header comment\n\nn 3\n# another\n1 2\n\n  \n2 3\n")
    assert g.n == 3 and g.edges == frozenset({(1, 2), (2, 3)})


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("n 3\n1 2\n1 2", "duplicate"),
        ("n 3\n1 2\n2 1", "duplicate"),
        ("n 3\n2 2", "self-loop"),
        ("n 3\n1 4", "out of range"),
        ("n 3\n0 2", "out of range"),
        ("1 2\n2 3", "header"),
        ("", "header"),
        ("n 3\n1 2 3", "expected edge"),
        ("n 3\nx y", "non-integer"),
        ("n 0", "positive"),
        ("n x", "not an integer"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(EdgeListError, match=fragment):
        parse_edge_list(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 1_2\n1 2", "line 1: vertex count '1_2' is not an integer"),
        ("n +3\n1 2", "line 1: vertex count '+3' is not an integer"),
        ("n \u0663\n1 2", "line 1: vertex count '\u0663' is not an integer"),
        ("n 3\n1_1 2", "line 2: non-integer endpoint in '1_1 2'"),
        ("n 3\n+3 \u0663", "line 2: non-integer endpoint in '+3 \u0663'"),
        ("n 3\n1 \u00b2", "line 2: non-integer endpoint in '1 \u00b2'"),
        ("n 3\n1 --2", "line 2: non-integer endpoint in '1 --2'"),
        ("n -3", "line 1: vertex count must be positive, got -3"),
        ("n 3\n-1 2", "line 2: endpoint out of range in (-1, 2), n=3"),
        ("n 03\n1 04", "line 2: endpoint out of range in (1, 4), n=3"),
    ],
    ids=["count-underscore", "count-plus", "count-arabic-indic", "endpoint-underscore",
         "endpoints-plus-arabic-indic", "endpoint-superscript", "endpoint-double-minus",
         "count-negative", "endpoint-negative", "leading-zeros"],
)
def test_parse_reads_only_ascii_integers(text, message):
    # int() alone would read '1_2' as 12, '+3' as 3 and the Arabic-Indic '\u0663' as 3
    with pytest.raises(EdgeListError) as excinfo:
        parse_edge_list(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("n " + "1" * 5000 + "\n1 2", "line 1: vertex count '111111111111...' (5000 characters) is out of range"),
        ("n -" + "1" * 5000, "line 1: vertex count '-11111111111...' (5001 characters) is out of range"),
        ("# big\nn 9223372036854775808", "line 2: vertex count '922337203685...' (19 characters) is out of range"),
        ("n 3\n1 2\n1 " + "2" * 5000, "line 3: endpoint '222222222222...' (5000 characters) out of range, n=3"),
        ("n 3\n-9223372036854775808 1", "line 2: endpoint '-92233720368...' (20 characters) out of range, n=3"),
        ("n 3\n1 9223372036854775807", "line 2: endpoint out of range in (1, 9223372036854775807), n=3"),
    ],
    ids=["count-5000-digits", "count-negative-5000-digits", "count-past-maxsize", "endpoint-5000-digits",
         "endpoint-past-minus-maxsize", "endpoint-maxsize"],
)
def test_parse_reports_huge_integers_as_out_of_range(text, message):
    # int() refuses more than 4300 digits with a ValueError, which is not a
    # non-integer; only a prefix of such a token is echoed
    with pytest.raises(EdgeListError) as excinfo:
        parse_edge_list(text)
    assert str(excinfo.value) == message


def test_laplacian_fixture_matches_reference():
    assert np.array_equal(laplacian(parse_edge_list(K3K2_TEXT)), K3K2_LAPLACIAN)


def test_laplacian_trivial_cases():
    assert np.array_equal(laplacian(Graph(1)), np.array([[0]]))
    assert np.array_equal(
        laplacian(Graph(2, frozenset({(1, 2)}))), np.array([[1, -1], [-1, 1]])
    )


def test_components_fixture():
    d = components(parse_edge_list(K3K2_TEXT))
    assert d.m == 2
    assert d.sizes == (3, 2)
    assert d.offsets == (0, 3, 5)
    assert d.perm == (1, 2, 3, 4, 5)


def test_components_connected_and_edgeless():
    assert components(parse_edge_list("n 3\n1 2\n1 3\n2 3")).m == 1
    d = components(Graph(3))
    assert d.m == 3 and d.sizes == (1, 1, 1)


def test_components_interleaved_labels():
    # components {1,3,5} and {2,4}; blocks ordered by smallest label
    g = parse_edge_list("n 5\n1 3\n3 5\n2 4\n")
    d = components(g)
    assert d.sizes == (3, 2)
    assert d.perm == (1, 4, 2, 5, 3)
    lap = block_laplacian(g)
    assert np.array_equal(lap[:3, 3:], np.zeros((3, 2)))
    # path 1-3-5 in block order
    assert np.array_equal(lap[:3, :3], np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]]))


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, frozenset(p for p, keep in zip(pairs, mask) if keep))


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_laplacian_row_sums_zero(g):
    lap = laplacian(g)
    assert np.array_equal(lap, lap.T)
    assert np.all(lap.sum(axis=0) == 0)
    assert np.all(lap.sum(axis=1) == 0)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_perm_blocks_the_laplacian(g):
    d = components(g)
    assert sorted(d.perm) == list(range(1, g.n + 1))
    lap = block_laplacian(g)
    for i in range(d.m):
        for j in range(d.m):
            if i != j:
                block = lap[d.offsets[i]:d.offsets[i + 1], d.offsets[j]:d.offsets[j + 1]]
                assert np.all(block == 0)


@settings(max_examples=50, deadline=None)
@given(graphs())
def test_laplacian_rank_is_n_minus_components(g):
    d = components(g)
    dec = symmetric_eig(laplacian(g), expected_zero_count=d.m)
    assert dec.zero_count == d.m
    assert np.sum(dec.values == 0.0) == d.m


@st.composite
def rendered_graphs(draw):
    g = draw(graphs())
    lines = [f"n {g.n}"]
    for u, v in sorted(g.edges):
        if draw(st.booleans()):
            u, v = v, u
        sep = draw(st.sampled_from([" ", "  ", "\t"]))
        lines.append(f"{u}{sep}{v}")
    noisy = []
    for line in lines:
        if draw(st.booleans()):
            noisy.append(draw(st.sampled_from(["", "   ", "# comment", "#"])))
        noisy.append(line)
    return g, "\n".join(noisy) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=100, deadline=None)
@given(rendered_graphs())
def test_parse_round_trip_with_noise(case):
    g, text = case
    assert parse_edge_list(text) == g
