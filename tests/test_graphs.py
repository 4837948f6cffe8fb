import gc

import numpy as np
import pytest

from privcc import (
    Clustering,
    ContractViolation,
    PrivacyParams,
    SignedGraph,
    WeightedChannel,
    agreement,
    disagreement,
    disagreement_cut_form,
    neighbor_distance,
    signed_cut_weight,
    split_signs,
)
from privcc._rng import make_rng
from privcc.graphs import CutRows, canonical_pairs, fill_pairs, upper_mask
from privcc.io import format_edge_list, parse_edge_list

from helpers import channel_from_matrix, channel_matrix, cut_sizes, random_clustering, random_graph


def triangle():
    # edges 01:+, 02:+, 12:-
    return SignedGraph.from_edges(
        3, [(0, 1, 1, 1.0), (0, 2, 1, 1.0), (1, 2, -1, 1.0)]
    )


class TestObjectives:
    def test_triangle_one_cluster(self):
        g = triangle()
        c = Clustering.one_cluster(3)
        # by hand: the negative edge 12 is inside -> 1 disagreement,
        # the two positive edges are inside -> 2 agreements
        assert disagreement(c, g) == 1.0
        assert agreement(c, g) == 2.0

    def test_positive_path_single_cluster(self):
        g = SignedGraph.from_edges(3, [(0, 1, 1, 1.0), (1, 2, 1, 1.0)])
        assert disagreement(Clustering.one_cluster(3), g) == 0.0

    def test_all_singletons_on_all_negative(self):
        n = 6
        pu, pv = np.triu_indices(n, 1)
        g = SignedGraph(n, pu, pv, np.zeros(pu.size), np.ones(pu.size))
        assert agreement(Clustering.singletons(n), g) == g.total_weight

    def test_conservation_fuzz(self):
        rng = make_rng(101)
        for trial in range(300):
            n = int(rng.integers(2, 16))
            g = random_graph(
                rng,
                n,
                weighted=bool(rng.integers(0, 2)),
                parallel=bool(rng.integers(0, 2)),
                density=0.8,
            )
            c = random_clustering(rng, n)
            err, agr = disagreement(c, g), agreement(c, g)
            assert err + agr == pytest.approx(g.total_weight, rel=1e-9)

    def test_conservation_exact_for_integers(self):
        rng = make_rng(102)
        for trial in range(100):
            n = int(rng.integers(2, 14))
            g = random_graph(rng, n, weighted=True, integer_weights=True)
            c = random_clustering(rng, n)
            assert disagreement(c, g) + agreement(c, g) == g.total_weight

    def test_relabeling_invariance(self):
        rng = make_rng(103)
        g = random_graph(rng, 9, weighted=True)
        labels = rng.integers(0, 4, size=9)
        perm = rng.permutation(5)
        a = Clustering(labels)
        b = Clustering(perm[labels])
        assert disagreement(a, g) == disagreement(b, g)
        assert a == b

    def test_vertex_count_mismatch(self):
        with pytest.raises(ContractViolation):
            disagreement(Clustering.one_cluster(4), triangle())


class TestCuts:
    def test_triangle_inside_positive(self):
        g = triangle()
        assert signed_cut_weight(g, [0, 1, 2], [0, 1, 2], 1) == 2.0
        assert signed_cut_weight(g, [0, 1, 2], [0, 1, 2], -1) == 1.0

    def test_disjoint_single_edge(self):
        g = triangle()
        assert signed_cut_weight(g, [0], [1], 1) == 1.0
        assert signed_cut_weight(g, [0], [1], -1) == 0.0
        assert signed_cut_weight(g, [1], [2], -1) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ContractViolation):
            signed_cut_weight(triangle(), [0, 7], [1], 1)

    def test_cut_decomposition_matches_edgewise(self):
        # negative-inside plus half of positive-crossing, summed per cluster
        rng = make_rng(104)
        for trial in range(500):
            n = int(rng.integers(2, 21))
            g = random_graph(
                rng, n, weighted=bool(rng.integers(0, 2)), density=0.9
            )
            c = random_clustering(rng, n)
            assert disagreement_cut_form(c, g) == pytest.approx(
                disagreement(c, g), rel=1e-9, abs=1e-12
            )

    def test_cut_sums_match_signed_cut_weight(self):
        # one batched call per channel; rows of three kinds: overlapping
        # S != T, S == T (weight inside a set, each pair once), disjoint
        rng = make_rng(109)
        for trial in range(40):
            n = int(rng.integers(3, 16))
            g = random_graph(rng, n, weighted=True, parallel=True, density=0.8)
            s_rows, t_rows = [], []
            for _ in range(4):
                z = rng.integers(0, 4, size=n)
                z[0], z[1] = 3, 1  # a shared vertex and one in S only
                s_rows.append((z == 1) | (z == 3))
                t_rows.append((z == 2) | (z == 3))
                same = rng.random(n) < 0.5
                s_rows.append(same)
                t_rows.append(same.copy())
                z = rng.integers(0, 3, size=n)
                s_rows.append(z == 1)
                t_rows.append(z == 2)
            s_rows, t_rows = np.array(s_rows), np.array(t_rows)
            # the kernel counts each pair once: the all-ones pair matrix sums to the cut size
            ones = np.ones((n, n)) - np.eye(n)
            assert CutRows(s_rows, t_rows).sums(ones).tolist() == cut_sizes(s_rows, t_rows).tolist()
            for sign in (1, -1):
                got = CutRows(s_rows, t_rows).sums(channel_matrix(g, sign))
                want = [
                    signed_cut_weight(g, np.flatnonzero(s), np.flatnonzero(t), sign)
                    for s, t in zip(s_rows, t_rows)
                ]
                assert got.shape == (len(want),)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_row_subset_sums_match_whole_family(self):
        # rows of every kind: overlapping S != T, S == T, disjoint and
        # complement; subsets in any order, with and without overlapping
        # rows, summed as a CutRows of their own
        rng = make_rng(111)
        for trial in range(30):
            n = int(rng.integers(2, 40))
            s_rows, t_rows = [], []
            for _ in range(3):
                s_rows.append(rng.random(n) < 0.5)
                t_rows.append(rng.random(n) < 0.5)
                same = rng.random(n) < 0.5
                s_rows.append(same)
                t_rows.append(same.copy())
                z = rng.integers(0, 3, size=n)
                s_rows.append(z == 1)
                t_rows.append(z == 2)
                s_rows.append(rng.random(n) < 0.5)
                t_rows.append(~s_rows[-1])
            s_rows, t_rows = np.array(s_rows), np.array(t_rows)
            matrix = channel_matrix(random_graph(rng, n, weighted=True, parallel=True), 1)
            whole = CutRows(s_rows, t_rows).sums(matrix)
            count = whole.size
            kinds = np.arange(count) % 4
            subsets = [
                rng.permutation(count)[: int(rng.integers(1, count + 1))],
                np.arange(count),
                np.flatnonzero(kinds >= 2),  # disjoint and complement rows only
                np.flatnonzero(kinds == 1),  # S == T only
                np.array([count - 1, 0, count - 1]),
                np.empty(0, dtype=np.int64),
            ]
            for subset in subsets:
                got = CutRows(s_rows[subset], t_rows[subset]).sums(matrix)
                assert got.shape == subset.shape
                np.testing.assert_allclose(got, whole[subset], rtol=1e-12, atol=1e-12)


class TestNeighborDistance:
    def test_single_flip_is_two(self):
        g = triangle()
        flipped = SignedGraph.from_edges(
            3, [(0, 1, -1, 1.0), (0, 2, 1, 1.0), (1, 2, -1, 1.0)]
        )
        assert neighbor_distance(g, flipped) == 2.0

    def test_identity(self):
        g = triangle()
        assert neighbor_distance(g, g) == 0.0

    def test_removed_edge_is_one(self):
        g = SignedGraph.from_edges(4, [(0, 1, 1, 1.0), (2, 3, -1, 1.0)])
        h = SignedGraph.from_edges(4, [(2, 3, -1, 1.0)])
        assert neighbor_distance(g, h) == 1.0

    def test_metric_properties(self):
        rng = make_rng(105)
        for trial in range(60):
            n = int(rng.integers(2, 10))
            a = random_graph(rng, n, weighted=True, density=0.7)
            b = random_graph(rng, n, weighted=True, density=0.7)
            c = random_graph(rng, n, weighted=True, density=0.7)
            dab, dba = neighbor_distance(a, b), neighbor_distance(b, a)
            assert dab == dba
            assert neighbor_distance(a, a) == 0.0
            assert dab <= neighbor_distance(a, c) + neighbor_distance(c, b) + 1e-9


class TestSplitSigns:
    def test_all_positive(self):
        g = SignedGraph.from_edges(4, [(0, 1, 1, 2.0), (1, 2, 1, 1.0)])
        gp, gm = split_signs(g)
        assert gp.total_weight == g.total_weight
        assert gm.edge_count == 0

    def test_triangle_split(self):
        gp, gm = split_signs(triangle())
        assert gp.edge_count == 2
        assert gm.edge_count == 1

    def test_weight_and_count_conservation(self):
        rng = make_rng(106)
        for trial in range(50):
            g = random_graph(rng, 8, weighted=True, parallel=True)
            gp, gm = split_signs(g)
            assert gp.total_weight + gm.total_weight == pytest.approx(g.total_weight)
            assert gp.edge_count + gm.edge_count == g.edge_count


class TestTypes:
    def test_clustering_canonical_ids(self):
        c = Clustering([5, 5, 2, 9, 2])
        assert c.assignment.tolist() == [0, 0, 1, 2, 1]
        assert c.k == 3

    def test_clustering_from_sets_requires_cover(self):
        with pytest.raises(ContractViolation):
            Clustering.from_sets(3, [[0, 1]])

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_clustering_from_sets_refuses_ids_outside_range(self, bad):
        # -1 used to wrap to the last vertex, 3 to raise numpy's IndexError
        with pytest.raises(ContractViolation, match="not in 0..2"):
            Clustering.from_sets(3, [[0, 1], [bad]])

    def test_graph_arrays_immutable(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.pos_w[0] = 5.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ContractViolation):
            SignedGraph.from_edges(2, [(0, 1, 1, -1.0)])

    def test_parallel_needs_flag(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1, 1.0), (0, 1, -1, 1.0)])
        assert g.edge_count == 2

    def test_complete_requires_all_pairs(self):
        with pytest.raises(ContractViolation):
            SignedGraph.complete_unweighted(4, np.ones(5, dtype=bool))

    def test_complete_follows_the_arrays(self):
        # complete exactly when every pair carries positive weight, whichever
        # constructor built the graph
        rng = make_rng(108)
        seen = set()
        for _ in range(60):
            n = int(rng.integers(2, 8))
            m = n * (n - 1) // 2
            pos = rng.integers(0, 3, m) * (rng.random(m) < 0.8)
            neg = rng.integers(0, 3, m) * (rng.random(m) < 0.3)
            want = bool(np.all(pos + neg > 0))
            pu, pv = np.triu_indices(n, 1)
            edges = [(u, v, 1, w) for u, v, w in zip(pu, pv, pos) if w > 0]
            edges += [(u, v, -1, w) for u, v, w in zip(pu, pv, neg) if w > 0]
            built = [
                SignedGraph(n, pu, pv, pos, neg),
                SignedGraph.from_edges(n, edges),
                SignedGraph.from_channel_arrays(n, pos, neg),
            ]
            assert [g.complete for g in built] == [want] * 3
            seen.add(want)
        assert seen == {True, False}
        assert SignedGraph.complete_unweighted(4, np.zeros(6, dtype=bool)).complete
        assert not SignedGraph.empty(3).complete

    def test_complete_unweighted_flags_in_canonical_order(self):
        # pairs 01, 02, 03, 12, 13, 23
        flags = np.array([True, False, False, True, False, True])
        g = SignedGraph.complete_unweighted(4, flags)
        assert g.complete and g.is_unweighted
        assert np.array_equal(g.pos_w, flags.astype(np.float64))
        assert signed_cut_weight(g, [1, 2], [1, 2], 1) == 1.0

    def test_weighted_channel_roundtrip(self):
        rng = make_rng(107)
        vals = rng.normal(size=10)
        ch = WeightedChannel(5, vals)
        assert np.allclose(channel_from_matrix(ch.matrix()).values, vals)

    def test_privacy_params_validation(self):
        PrivacyParams(0.5)
        PrivacyParams(0.5, 0.1)
        with pytest.raises(ContractViolation):
            PrivacyParams(0.0)
        with pytest.raises(ContractViolation):
            PrivacyParams(1.0, 1.0)

    def test_channel_flat_matches_matrix(self):
        rng = make_rng(108)
        g = random_graph(rng, 7, weighted=True, density=0.6)
        m = channel_matrix(g, 1)
        pu, pv = np.triu_indices(7, 1)
        assert np.array_equal(g.channel_flat(1), m[pu, pv])

    def test_net_matrix_is_channel_difference(self):
        rng = make_rng(19)
        g = random_graph(rng, 25, weighted=True, parallel=True)
        net = g.net_matrix()
        ref = channel_matrix(g, 1) - channel_matrix(g, -1)
        assert net.tobytes() == ref.tobytes()
        assert (np.signbit(net) == np.signbit(ref)).all()


class TestSharedPairs:
    def test_complete_graphs_share_one_readonly_index(self):
        rng = make_rng(120)
        a = SignedGraph.complete_unweighted(9, rng.random(36) < 0.5)
        b = random_graph(rng, 9, weighted=True, parallel=True, complete=True)
        assert a.pair_u is b.pair_u and a.pair_v is b.pair_v
        assert (a.pair_u, a.pair_v) == canonical_pairs(9)
        pu, pv = np.triu_indices(9, 1)
        assert np.array_equal(a.pair_u, pu) and np.array_equal(a.pair_v, pv)
        assert a.pair_u.dtype == np.int64 and a.pair_v.dtype == np.int64
        for arr in (a.pair_u, a.pair_v):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_edge_lists_of_complete_graphs_share(self):
        rng = make_rng(121)
        g = random_graph(rng, 8, weighted=True, parallel=True, complete=True)
        shared = canonical_pairs(8)
        for h in (SignedGraph.from_edges(8, g.iter_edges()), parse_edge_list(format_edge_list(g))):
            assert h.complete
            assert h.pair_u is shared[0] and h.pair_v is shared[1]
            for field in ("pos_w", "neg_w"):
                assert np.array_equal(getattr(h, field), getattr(g, field))

    def test_from_channel_arrays_shares_only_when_no_pair_drops(self):
        pos = np.array([1.0, 0.0, 2.0, 0.5, 0.0, 1.0])
        neg = np.array([0.0, 3.0, 0.0, 0.5, 1.0, 0.0])
        g = SignedGraph.from_channel_arrays(4, pos, neg)
        assert g.pair_u is canonical_pairs(4)[0]
        neg[1] = 0.0
        h = SignedGraph.from_channel_arrays(4, pos, neg)
        assert h.pair_u.size == 5 and h.pair_u is not g.pair_u

    def test_shared_index_weights_still_checked(self):
        pu, pv = canonical_pairs(5)
        ones = np.ones(pu.size)
        for pos in (-ones, np.where(np.arange(pu.size) == 3, np.nan, ones), ones[:-1]):
            with pytest.raises(ContractViolation):
                SignedGraph(5, pu, pv, pos, np.zeros(pu.size))
        with pytest.raises(ContractViolation):
            SignedGraph(5, pu, pv, ones, np.full(pu.size, np.inf))

    def test_registry_keeps_nothing_alive(self):
        from privcc.graphs import _PAIRS

        n = 41  # used by no other test, so this test holds the only graphs of n
        a = SignedGraph.complete_unweighted(n, np.ones(n * (n - 1) // 2, dtype=bool))
        b = SignedGraph.from_channel_arrays(n, a.channel_flat(-1), a.channel_flat(1))
        assert a.pair_u is b.pair_u and (n, 0) in _PAIRS and (n, 1) in _PAIRS
        del a, b
        gc.collect()
        assert (n, 0) not in _PAIRS and (n, 1) not in _PAIRS

    def test_upper_mask_is_canonical_order_and_held_weakly(self):
        from privcc.graphs import _UPPER

        n = 43  # used by no other test, so this test holds the only mask of n
        mask = upper_mask(n)
        assert upper_mask(n) is mask and not mask.flags.writeable
        pu, pv = canonical_pairs(n)
        rows, cols = np.nonzero(mask)
        assert rows.tolist() == pu.tolist() and cols.tolist() == pv.tolist()
        values = make_rng(112).random(pu.size)
        got = fill_pairs(np.full((n, n), 7.0), values, mask)
        want = WeightedChannel(n, values).matrix()
        np.fill_diagonal(want, 7.0)  # the diagonal is left as it was
        assert got.tobytes() == want.tobytes()
        del mask
        gc.collect()
        assert n not in _UPPER

    @pytest.mark.parametrize("shared_index", [False, True])
    def test_constructors_copy_a_callers_arrays(self, shared_index):
        pu, pv = canonical_pairs(3) if shared_index else (np.array([0, 0, 1]), np.array([1, 2, 2]))
        pos, neg = np.array([1.0, 0.0, 2.0]), np.array([0.0, 3.0, 0.0])
        g = SignedGraph(3, pu, pv, pos, neg)
        ch = WeightedChannel(3, pos)
        for a in (pos, neg) if shared_index else (pu, pv, pos, neg):
            assert a.flags.writeable
            a[:] = 2
        assert g.pair_u.tolist() == [0, 0, 1] and g.pair_v.tolist() == [1, 2, 2]
        assert g.pos_w.tolist() == [1.0, 0.0, 2.0] and g.neg_w.tolist() == [0.0, 3.0, 0.0]
        assert ch.values.tolist() == [1.0, 0.0, 2.0]

    def test_adopted_channel_keeps_its_array_read_only(self):
        vals = np.array([1.0, -2.0, 0.5])
        ch = WeightedChannel.adopt(3, vals)
        assert ch.values is vals and not vals.flags.writeable
        with pytest.raises(ContractViolation):
            WeightedChannel.adopt(3, np.array([1.0, np.inf, 0.0]))

    def test_channel_flat_is_a_private_copy(self):
        g = SignedGraph.complete_unweighted(6, np.arange(15) % 2 == 0)
        flat = g.channel_flat(1)
        assert flat.flags.writeable and not np.shares_memory(flat, g.pos_w)
        flat[:] = -1.0
        assert np.array_equal(g.pos_w, (np.arange(15) % 2 == 0).astype(np.float64))
