import math

import numpy as np
import pytest

from privcc import (
    Clustering,
    ContractViolation,
    PrivacyParams,
    SignedGraph,
    SizeRefusal,
    disagreement,
    neighbor_distance,
)
from privcc._rng import make_rng
from privcc.expmech import exact_output_distribution, exponential_mechanism
from privcc.solvers import (
    enumerate_partitions,
    partition_disagreements,
    solve_exact,
)

from helpers import random_graph

BELL7 = 877


def single_positive_edge():
    return SignedGraph.from_edges(2, [(0, 1, 1, 1.0)])


def test_two_vertex_ratio():
    eps = 1.3
    dist = exact_output_distribution(single_positive_edge(), PrivacyParams(eps))
    merged, split = dist[(0, 0)], dist[(0, 1)]
    assert merged / split == pytest.approx(math.exp(eps / 2))
    assert merged == pytest.approx(math.exp(eps / 2) / (math.exp(eps / 2) + 1))


def test_distribution_normalized():
    rng = make_rng(21)
    for trial in range(10):
        g = random_graph(rng, 6, complete=True)
        dist = exact_output_distribution(g, PrivacyParams(2.0))
        assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_near_zero_epsilon_is_uniform():
    # epsilon must stay positive; at 1e-9 the distribution is uniform
    # to well below float resolution
    rng = make_rng(22)
    g = random_graph(rng, 5, complete=True)
    dist = exact_output_distribution(g, PrivacyParams(1e-9))
    probs = np.array(list(dist.values()))
    assert np.allclose(probs, 1.0 / 52, atol=1e-11)


def test_huge_epsilon_concentrates_on_optimum():
    # optima may be tied; the optimal *value* gets all the mass
    rng = make_rng(23)
    for trial in range(10):
        g = random_graph(rng, 5, complete=True)
        opt_err = disagreement(solve_exact(g), g)
        dist = exact_output_distribution(g, PrivacyParams(50.0))
        mass = sum(
            p
            for key, p in dist.items()
            if disagreement(Clustering(np.array(key)), g) == opt_err
        )
        assert mass >= 1.0 - 1e-9


def test_utility_bound_exact_n7():
    # expected disagreement at most OPT + (2/eps) * ln(#partitions)
    rng = make_rng(24)
    parts = enumerate_partitions(7)
    for eps in (0.1, 1.0, 5.0):
        for trial in range(10):
            g = random_graph(rng, 7, complete=True)
            errs = partition_disagreements(parts, g)
            dist = exact_output_distribution(g, PrivacyParams(eps))
            probs = np.array([dist[tuple(map(int, row))] for row in parts])
            expected_err = float(probs @ errs)
            assert expected_err - errs.min() <= (2.0 / eps) * math.log(BELL7)


def test_exact_dp_neighbor_ratios():
    # the privacy definition, checked literally on a small corpus
    rng = make_rng(25)
    eps = 1.0
    for trial in range(10):
        g = random_graph(rng, 5, complete=True)
        dist = exact_output_distribution(g, PrivacyParams(eps))
        pu, pv = g.pair_u, g.pair_v
        for e in range(pu.size):
            pos = g.pos_w.copy()
            pos[e] = 1.0 - pos[e]
            flipped = SignedGraph(5, pu, pv, pos, 1.0 - pos)
            dist2 = exact_output_distribution(flipped, PrivacyParams(eps))
            for key, p in dist.items():
                assert abs(math.log(p) - math.log(dist2[key])) <= eps + 1e-9


def test_exact_dp_weighted_parallel_neighbor_ratios():
    # weighted input with parallel pairs; a neighbour adds a common weight to
    # both channels of one pair and moves the net weights by at most 2 in L1
    rng = make_rng(29)
    eps = 1.0
    for trial in range(10):
        g = random_graph(rng, 5, weighted=True, parallel=True)
        neighbors = []
        for _ in range(15):
            pos, neg = g.pos_w.copy(), g.neg_w.copy()
            e = int(rng.integers(pos.size))
            common = 3.0 * rng.random()
            pos[e] += common
            neg[e] += common
            pairs = rng.choice(pos.size, 2, replace=False)
            for f, shift in zip(pairs, rng.uniform(-1.0, 1.0, 2)):
                if shift > 0:
                    pos[f] += shift
                else:
                    neg[f] -= shift
            h = SignedGraph(5, g.pair_u, g.pair_v, pos, neg)
            assert neighbor_distance(g, h) <= 2.0
            neighbors.append(h)
        dist = exact_output_distribution(g, PrivacyParams(eps))
        for h in neighbors:
            dist2 = exact_output_distribution(h, PrivacyParams(eps))
            for key, p in dist.items():
                assert abs(math.log(p) - math.log(dist2[key])) <= eps + 1e-9


def test_sampling_matches_exact_distribution():
    rng = make_rng(26)
    g = random_graph(rng, 4, complete=True)
    params = PrivacyParams(1.0)
    dist = exact_output_distribution(g, params)
    keys = list(dist.keys())
    index = {k: i for i, k in enumerate(keys)}
    counts = np.zeros(len(keys))
    draws = 100_000
    for _ in range(draws):
        c = exponential_mechanism(g, params, rng)
        counts[index[c.key()]] += 1
    expected = np.array([dist[k] for k in keys]) * draws
    sigma = np.sqrt(expected * (1 - expected / draws))
    ok = np.abs(counts - expected) <= 3 * sigma + 1e-9
    # a few 3-sigma misses among 15 cells are statistically expected
    assert ok.sum() >= len(keys) - 2


def test_sampler_respects_objective():
    g = single_positive_edge()
    rng = make_rng(27)
    merged = sum(
        exponential_mechanism(g, PrivacyParams(50.0), rng).k == 1
        for _ in range(50)
    )
    assert merged == 50


def test_guards():
    rng = make_rng(28)
    g = random_graph(rng, 13, complete=True)
    with pytest.raises(SizeRefusal):
        exponential_mechanism(g, PrivacyParams(1.0), rng)
    small = random_graph(rng, 11, complete=True)
    with pytest.raises(SizeRefusal):
        exact_output_distribution(small, PrivacyParams(1.0))
    g5 = random_graph(rng, 5, complete=True)
    with pytest.raises(ContractViolation):
        exponential_mechanism(g5, PrivacyParams(1.0, 0.1), rng)
