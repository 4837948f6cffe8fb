import numpy as np
import pytest

from privcc import (
    Clustering,
    SignedGraph,
    disagreement,
    neighbor_distance,
)
from privcc._rng import make_rng
from privcc.solvers import enumerate_partitions, partition_disagreements, solve_exact
from privcc.transforms import (
    coarsen,
    contract_coupled,
    default_k_prime,
    split_transform,
    unsplit,
)

from helpers import random_clustering, random_graph


def lift(meta: Clustering) -> Clustering:
    return Clustering(np.concatenate([meta.assignment, meta.assignment]))


class TestCoarsen:
    def test_unchanged_below_limit(self):
        c = Clustering([0, 0, 1, 1, 1])
        out, report = coarsen(c, 5, k_prime=4)
        assert out == c
        assert report.k_after == 2 and not report.bins

    def test_hand_simulated_ffd(self):
        # n=16, k'=2: threshold 8, capacity 16; sizes [9,3,2,2]
        labels = [0] * 9 + [1] * 3 + [2] * 2 + [3] * 2
        out, report = coarsen(Clustering(labels), 16, k_prime=2)
        assert report.k_before == 4 and report.k_after == 2
        assert len(report.bins) == 1 and set(report.bins[0]) == {1, 2, 3}
        # the big cluster is untouched
        assert set(out.members(out.assignment[0]).tolist()) == set(range(9))

    def test_capacity_and_count_fuzz(self):
        rng = make_rng(31)
        for trial in range(500):
            n = int(rng.integers(4, 40))
            c = random_clustering(rng, n)
            kp = int(rng.integers(1, 6))
            out, report = coarsen(c, n, k_prime=kp)
            assert out.k <= max(c.k, 1)
            if c.k > kp:
                capacity = 2 * n / kp
                sizes = c.sizes()
                for members in report.bins:
                    assert sum(sizes[m] for m in members) <= capacity
                assert out.k <= 2 * kp + 1

    def test_large_clusters_untouched(self):
        rng = make_rng(32)
        for trial in range(100):
            n = int(rng.integers(6, 30))
            c = random_clustering(rng, n)
            kp = int(rng.integers(1, 4))
            out, report = coarsen(c, n, k_prime=kp)
            binned = {m for members in report.bins for m in members}
            for cid in range(c.k):
                if cid not in binned:
                    original = set(c.members(cid).tolist())
                    target = out.assignment[c.members(cid)[0]]
                    assert set(out.members(target).tolist()) == original

    def test_merge_cost_bound_holds(self):
        rng = make_rng(33)
        for trial in range(500):
            n = int(rng.integers(4, 31))
            g = random_graph(rng, n, weighted=bool(rng.integers(0, 2)), density=0.9)
            c = random_clustering(rng, n)
            w = float(max(g.pos_w.max(initial=0.0), g.neg_w.max(initial=0.0)))
            out, report = coarsen(c, n, k_prime=2, max_weight=w)
            increase = disagreement(out, g) - disagreement(c, g)
            assert increase <= report.merge_cost_bound + 1e-9

    def test_default_k_prime(self):
        assert default_k_prime(16) == 2
        assert default_k_prime(256) == 4
        assert default_k_prime(50) == 3  # ceil(50**0.25) = ceil(2.66)


class TestSplit:
    def test_empty_graph_couplings_only(self):
        g = SignedGraph.empty(3)
        hp, mapping = split_transform(g)
        assert hp.n == 6
        assert hp.edge_count == 3
        assert np.all(hp.pos_w[hp.pos_w > 0] == 1.0)  # coupling weight 1 + 0
        assert mapping.tolist() == [[0, 3], [1, 4], [2, 5]]

    def test_single_positive_edge(self):
        g = SignedGraph.from_edges(3, [(0, 1, 1, 2.0)])
        hp, mapping = split_transform(g)
        # rewired onto the plus copies, weight preserved, plus 3 couplings
        assert hp.edge_count == 4
        assert hp.channel_matrix(1)[0, 1] == 2.0

    def test_negative_edges_keep_sign_on_minus_copies(self):
        g = SignedGraph.from_edges(3, [(0, 1, -1, 1.5)])
        hp, _ = split_transform(g)
        assert hp.channel_matrix(-1)[3, 4] == 1.5

    def test_separating_clustering_pays_coupling(self):
        rng = make_rng(34)
        g = random_graph(rng, 5, weighted=True, parallel=True)
        hp, mapping = split_transform(g)
        coupling = 1.0 + g.total_weight
        bad = Clustering(np.arange(10))  # all copies separated
        assert disagreement(bad, hp) >= 5 * coupling
        # coupling-respecting clusterings never pay more than all of H
        meta = random_clustering(rng, 5)
        assert disagreement(lift(meta), hp) <= g.total_weight < coupling

    def test_matches_edge_list_construction(self):
        # the split graph built edge by edge, as a reference for the array build
        rng = make_rng(36)
        graphs = [SignedGraph.empty(4)]
        for trial in range(30):
            n = int(rng.integers(2, 40))
            graphs.append(random_graph(rng, n, weighted=bool(trial % 3),
                                       parallel=bool(trial % 2),
                                       density=float(rng.uniform(0.05, 1.0))))
        for g in graphs:
            n = g.n
            edges = [(v, n + v, 1, 1.0 + g.total_weight) for v in range(n)]
            for u, v, sign, w in g.iter_edges():
                edges.append((u, v, 1, w) if sign == 1 else (n + u, n + v, -1, w))
            want = SignedGraph.from_edges(2 * n, edges)
            hp, mapping = split_transform(g)
            for name in ("pair_u", "pair_v", "pos_w", "neg_w"):
                assert getattr(hp, name).tobytes() == getattr(want, name).tobytes()
            assert mapping.tolist() == [[v, n + v] for v in range(n)]


class TestUnsplit:
    def test_idempotence(self):
        rng = make_rng(35)
        for trial in range(50):
            n = int(rng.integers(2, 9))
            meta = random_clustering(rng, n)
            mapping = np.column_stack([np.arange(n), np.arange(n) + n])
            assert unsplit(lift(meta), mapping) == meta

    def test_objective_preserved_when_couplings_respected(self):
        rng = make_rng(36)
        for trial in range(100):
            n = int(rng.integers(2, 8))
            g = random_graph(rng, n, weighted=True, parallel=True)
            hp, mapping = split_transform(g)
            meta = random_clustering(rng, n)
            lifted = lift(meta)
            # couplings agree (positive, same cluster), so they add nothing
            assert disagreement(lifted, hp) == pytest.approx(
                disagreement(meta, g), rel=1e-9
            )
            assert unsplit(lifted, mapping) == meta

    def test_conflict_rule_unions_clusters(self):
        mapping = np.column_stack([np.arange(2), np.arange(2) + 2])
        # v0+ with v1+, but v0- alone: the two clusters get unified
        labels = [0, 0, 1, 0]
        out = unsplit(Clustering(labels), mapping)
        assert out.k == 1

    def test_all_one_cluster(self):
        mapping = np.column_stack([np.arange(3), np.arange(3) + 3])
        assert unsplit(Clustering.one_cluster(6), mapping).k == 1


class TestPipelineEquivalence:
    def test_split_solve_unsplit_matches_native_oracle(self):
        rng = make_rng(37)
        for trial in range(200):
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n, weighted=True, parallel=True, density=0.8)
            hp, mapping = split_transform(g)
            parts = enumerate_partitions(n)
            lifted = np.concatenate([parts, parts], axis=1)
            errs_split = partition_disagreements(lifted, hp)
            best = int(np.argmin(errs_split))
            native = solve_exact(g)
            assert errs_split[best] == pytest.approx(disagreement(native, g), rel=1e-9)
            back = unsplit(Clustering(lifted[best]), mapping)
            assert disagreement(back, g) == pytest.approx(errs_split[best], rel=1e-9)

    def test_contract_recovers_original(self):
        rng = make_rng(38)
        for trial in range(50):
            n = int(rng.integers(2, 10))
            g = random_graph(rng, n, weighted=True, parallel=True, density=0.7)
            hp, mapping = split_transform(g)
            back = contract_coupled(hp, mapping)
            assert back.n == g.n
            assert neighbor_distance(back, g) == 0.0
            assert back.total_weight == pytest.approx(g.total_weight)
