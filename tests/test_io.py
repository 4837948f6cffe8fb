import pytest

from privcc import ContractViolation, SignedGraph, neighbor_distance
from privcc.io import format_edge_list, parse_edge_list, read_edge_list, write_edge_list
from privcc._rng import make_rng

from helpers import random_graph


def test_unweighted_shorthand():
    g = parse_edge_list("3 3\n0 1 +\n0 2 +\n1 2 -\n")
    assert g.complete and g.is_unweighted
    assert g.pos_w.sum() == 2.0


def test_complete_marker_validated():
    parse_edge_list("3 3\ncomplete\n0 1 +\n0 2 +\n1 2 -\n")
    with pytest.raises(ContractViolation):
        parse_edge_list("3 2\ncomplete\n0 1 +\n0 2 +\n")


def test_weighted_lines():
    g = parse_edge_list("4 2\n0 1 + 2.5\n2 3 - 0.75\n")
    assert not g.complete
    assert g.total_weight == 3.25


def test_parallel_pair():
    g = parse_edge_list("2 2\n0 1 + 1.0\n0 1 - 2.0\n")
    assert g.pair_u.size == 1 and g.edge_count == 2


def test_zero_weight_pair_is_not_complete():
    # every pair is listed, one at weight 0; without a marker the file claims nothing
    g = parse_edge_list("3 3\n0 1 +\n0 2 - 0\n1 2 -\n")
    assert not g.complete
    with pytest.raises(ContractViolation):
        parse_edge_list("3 3\ncomplete\n0 1 +\n0 2 - 0\n1 2 -\n")


def test_bad_inputs():
    for text in ["", "3\n", "2 1\n0 1 *\n", "2 2\n0 1 +\n", "2 1\n0 1 + x\n",
                 "x 1\n0 1 +\n", "2 1\na 1 +\n", "2 2\n0 1 + 0\n0 1 + 2\n"]:
        with pytest.raises(ContractViolation):
            parse_edge_list(text)


def test_roundtrip_fuzz(tmp_path):
    rng = make_rng(42)
    for trial in range(25):
        n = int(rng.integers(2, 12))
        g = random_graph(
            rng,
            n,
            weighted=bool(rng.integers(0, 2)),
            parallel=bool(rng.integers(0, 2)),
            density=0.7,
        )
        path = tmp_path / f"g{trial}.txt"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.n == g.n
        assert neighbor_distance(g, back) == 0.0
        assert back.total_weight == pytest.approx(g.total_weight)


def test_roundtrip_complete(tmp_path):
    rng = make_rng(43)
    g = random_graph(rng, 6, complete=True)
    text = format_edge_list(g)
    assert text.splitlines()[1] == "complete"
    assert parse_edge_list(text).complete
