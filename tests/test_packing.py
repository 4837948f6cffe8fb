import numpy as np
import pytest

from privcc import (
    Clustering,
    ContractViolation,
    PrivacyParams,
    disagreement,
)
from privcc._rng import make_rng
from privcc.expmech import exponential_mechanism
from privcc.packing import (
    brute_force_code,
    optimal_path_clustering,
    packing_experiment,
    pairwise_confusion_bound,
    path_graph,
    random_signs,
)
from privcc.solvers import enumerate_partitions, partition_disagreements

from helpers import channel_matrix


def signs(*vals):
    return np.array(vals, dtype=np.int8)


def minmax_over_all_clusterings(sa, sb, weight=1.0):
    """Exact min over clusterings of max(err on both paths)."""
    ga, gb = path_graph(sa, weight), path_graph(sb, weight)
    parts = enumerate_partitions(sa.size + 1)
    ea = partition_disagreements(parts, ga)
    eb = partition_disagreements(parts, gb)
    return float(np.minimum.reduce([np.maximum(ea, eb)]).min())


class TestPathGraph:
    def test_single_edge(self):
        g = path_graph(signs(1))
        assert g.n == 2 and g.pos_w.sum() == 1.0 and g.neg_w.sum() == 0.0

    def test_three_edges(self):
        g = path_graph(signs(1, -1, 1))
        assert g.n == 4 and g.edge_count == 3
        assert channel_matrix(g, -1)[1, 2] == 1.0

    def test_total_weight(self):
        g = path_graph(signs(1, -1, 1, 1), edge_weight=2.5)
        assert g.total_weight == 4 * 2.5

    def test_rejects_bad_weight(self):
        with pytest.raises(ContractViolation):
            path_graph(signs(1), edge_weight=0.0)


class TestOptimalClustering:
    def test_all_positive_one_cluster(self):
        assert optimal_path_clustering(signs(1, 1, 1)).k == 1

    def test_all_negative_singletons(self):
        assert optimal_path_clustering(signs(-1, -1, -1)).k == 4

    def test_alternating(self):
        c = optimal_path_clustering(signs(1, -1, 1))
        assert c.as_sets() == [{0, 1}, {2, 3}]
        assert disagreement(c, path_graph(signs(1, -1, 1))) == 0.0

    def test_zero_error_fuzz(self):
        rng = make_rng(91)
        for trial in range(2000):
            n = int(rng.integers(1, 200))
            sigma = random_signs(n, rng)
            c = optimal_path_clustering(sigma)
            assert disagreement(c, path_graph(sigma)) == 0.0


class TestCodes:
    def test_beta_zero_collects_all_vectors(self):
        rng = make_rng(92)
        cb = brute_force_code(3, 0.0, 8, rng)
        assert cb.complete and cb.size == 8
        assert len({tuple(v) for v in cb.vectors}) == 8

    def test_distance_invariant_exhaustive(self):
        rng = make_rng(93)
        cb = brute_force_code(12, 0.25, 20, rng)
        d = cb.min_distance
        for i in range(cb.size):
            for j in range(i + 1, cb.size):
                assert (cb.vectors[i] != cb.vectors[j]).sum() >= d

    def test_budget_exhaustion_flags_partial(self):
        rng = make_rng(94)
        cb = brute_force_code(6, 0.45, 500, rng, budget=300)
        assert not cb.complete
        assert 0 < cb.size < 500

    def test_rate_parameters(self):
        rng = make_rng(95)
        cb = brute_force_code(20, 0.1, 256, rng)
        assert cb.complete and cb.size >= 256
        assert cb.alpha >= 0.4 - 1e-12  # log2(256)/20 = 0.4
        assert cb.min_distance == 2


class TestConfusionBound:
    def test_equal_vectors(self):
        assert pairwise_confusion_bound(signs(1, -1), signs(1, -1)) == 0

    def test_all_different_n4(self):
        sa, sb = signs(1, 1, 1, 1), signs(-1, -1, -1, -1)
        assert pairwise_confusion_bound(sa, sb) == 2
        assert minmax_over_all_clusterings(sa, sb) >= 2

    def test_brute_force_random_pairs(self):
        rng = make_rng(96)
        for trial in range(40):
            n = int(rng.integers(2, 9))
            sa, sb = random_signs(n, rng), random_signs(n, rng)
            d = int((sa != sb).sum())
            assert minmax_over_all_clusterings(sa, sb) >= d / 2

    def test_near_optimal_balls_disjoint(self):
        # clusterings with error below (beta n / 2) on one codeword's path
        # cannot be that good on another codeword's path
        rng = make_rng(97)
        n, beta = 8, 0.25
        cb = brute_force_code(n, beta, 6, rng)
        radius = beta * n / 2
        parts = enumerate_partitions(n + 1)
        errs = [
            partition_disagreements(parts, path_graph(cb.vectors[i]))
            for i in range(cb.size)
        ]
        for i in range(cb.size):
            for j in range(i + 1, cb.size):
                both = (errs[i] < radius) & (errs[j] < radius)
                assert not both.any()

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            pairwise_confusion_bound(signs(1), signs(1, 1))


class TestPackingExperiment:
    def test_nonprivate_solver_lands_in_ball(self):
        rng = make_rng(98)
        cb = brute_force_code(8, 0.25, 5, rng)

        def perfect(graph, params, r):
            # reconstruct signs in path order
            order = np.argsort(graph.pair_u)
            s = np.where(graph.pos_w[order] > 0, 1, -1).astype(np.int8)
            return optimal_path_clustering(s)

        rows = packing_experiment(perfect, PrivacyParams(0.1), 1.0, cb, 5, rng)
        assert len(rows) == cb.size
        for row in rows:
            assert row["mean_err"] == 0.0
            assert row["frac_in_B"] == 1.0

    def test_private_mechanism_pays_error(self):
        rng = make_rng(99)
        cb = brute_force_code(9, 0.2, 8, rng)

        def em(graph, params, r):
            return exponential_mechanism(graph, params, r)

        rows = packing_experiment(em, PrivacyParams(0.1), 1.0, cb, 10, rng)
        assert len(rows) == cb.size
        assert np.mean([row["mean_err"] for row in rows]) > 0.0
        bound = rows[0]["theory_bound"]
        assert bound == pytest.approx(cb.alpha_nat * cb.beta * cb.n / (4 * 0.1))
