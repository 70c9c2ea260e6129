import numpy as np
import pytest

from lapframes import canonical_dual, frame_from_graph, parse_edge_list

K3K2_TEXT = "n 5\n1 2\n1 3\n2 3\n4 5\n"
K3_TEXT = "n 3\n1 2\n1 3\n2 3\n"
K4_TEXT = "n 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
EDGE_TEXT = "n 2\n1 2\n"


def assert_multiset_close(got, expected, tol=1e-8):
    """Match two complex multisets greedily by nearest neighbour."""
    got = sorted(np.asarray(got, dtype=complex), key=abs, reverse=True)
    expected = list(np.asarray(expected, dtype=complex))
    assert len(got) == len(expected), f"sizes differ: {len(got)} vs {len(expected)}"
    for value in got:
        dists = [abs(value - e) for e in expected]
        j = int(np.argmin(dists))
        assert dists[j] <= tol, f"no match for {value} within {tol} in {expected}"
        expected.pop(j)


def complex_of(pairs):
    """The complex array whose JSON form (``frames.pairs``) is ``pairs``."""
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


@pytest.fixture
def k3k2_frame():
    return frame_from_graph(parse_edge_list(K3K2_TEXT))


@pytest.fixture
def k3_frame():
    return frame_from_graph(parse_edge_list(K3_TEXT))


@pytest.fixture
def edge_frame():
    return frame_from_graph(parse_edge_list(EDGE_TEXT))


@pytest.fixture
def k3k2_canonical(k3k2_frame):
    return canonical_dual(k3k2_frame)
