import math

import numpy as np
import pytest

from privcc import (
    ContractViolation,
    PrivacyParams,
    ReleaseOutput,
    SignedGraph,
    WeightedChannel,
    disagreement,
    neighbor_distance,
)
from privcc._rng import make_rng
from privcc.experiments import InstanceSpec, generate_instance
from privcc.release_unweighted import laplace_release, release_unweighted
from privcc.release_weighted import release_weighted, sampled_cut_distance

import dp_harness
from helpers import random_clustering, random_graph


def brute_force_cut_distance(a: WeightedChannel, b: WeightedChannel) -> float:
    """Exact max over all (S, T) subset pairs; n <= 10."""
    n = a.n
    assert n <= 10
    diff = a.matrix() - b.matrix()
    masks = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    g1 = masks.astype(float) @ diff  # (2^n, n)
    cross = g1 @ masks.astype(float).T  # ordered-pair sums for all (S, T)
    best = 0.0
    for i in range(1 << n):
        overlap = (masks & masks[i]).astype(float)
        inner = ((overlap @ diff) * overlap).sum(axis=1)
        vals = np.abs(cross[:, i] - 0.5 * inner)
        best = max(best, float(vals.max()))
    return best


def star_graph(n, weight=1.0):
    edges = [(0, i, 1, weight) for i in range(1, n)]
    return SignedGraph.from_edges(n, edges)


def reference_release_weighted(graph, params, engine, rng, seed=None):
    """The one-draw rule written out: Lap(2 / eps) on the net weights, zero
    below ``scale * ln max(n, 2)`` in magnitude, then split by sign."""
    zero = engine == "zero-noise-test"
    scale = 0.0 if zero else 2.0 / params.epsilon
    net = graph.channel_flat(1) - graph.channel_flat(-1)
    if not zero:
        net = net + rng.laplace(0.0, scale, size=net.size)
    tau = scale * math.log(max(graph.n, 2))
    net = np.where(np.abs(net) >= tau, net, 0.0)
    released = SignedGraph.from_channel_arrays(
        graph.n, np.maximum(net, 0.0), np.maximum(-net, 0.0)
    )
    audit = ReleaseOutput(
        mechanism=f"weighted-{engine}",
        epsilon=params.epsilon,
        delta=0.0,
        noise_scale=scale,
        channel_budgets=(params.epsilon,),
        seed=seed,
        private=not zero,
    )
    return released, audit


class TestEngines:
    def test_zero_noise_identity(self):
        rng = make_rng(71)
        g = random_graph(rng, 9, weighted=True, density=0.5)
        h, audit = release_weighted(g, PrivacyParams(0.4, 0.1), "zero-noise-test", rng)
        assert neighbor_distance(g, h) == 0.0
        assert not audit.private

    def test_zero_noise_keeps_channels_separate(self):
        rng = make_rng(72)
        g = random_graph(rng, 8, weighted=True, density=0.6)
        h, _ = release_weighted(g, PrivacyParams(0.4, 0.1), "zero-noise-test", rng)
        assert not np.any((h.pos_w > 0) & (h.neg_w > 0))

    def test_laplace_outputs_nonnegative_and_signed(self):
        rng = make_rng(73)
        g = random_graph(rng, 30, weighted=True, density=0.3)
        h, audit = release_weighted(g, PrivacyParams(1.0), "laplace", rng)
        assert np.all(h.pos_w >= 0) and np.all(h.neg_w >= 0)
        assert audit.channel_budgets == (1.0,)
        assert audit.noise_scale == 2.0  # 2 / eps

    def test_laplace_raw_unbiased_per_cut(self):
        # star graph: raw noisy weights are unbiased on any pair set
        rng = make_rng(74)
        n, trials = 50, 10000
        g = star_graph(n)
        ch = WeightedChannel(n, g.channel_flat(1))
        params = PrivacyParams(1.0)
        pick = rng.random(ch.values.size) < 0.5
        true_sum = ch.values[pick].sum()
        acc = 0.0
        for _ in range(trials):
            acc += laplace_release(ch, 2.0 / params.epsilon, rng).values[pick].sum()
        scale = 2.0 / params.epsilon
        se = scale * math.sqrt(2 * pick.sum()) / math.sqrt(trials)
        assert abs(acc / trials - true_sum) <= 5 * se

    @pytest.mark.parametrize("engine", ["laplace", "zero-noise-test"])
    def test_laplace_matches_reference(self, engine):
        for i in range(12):
            eps = (0.1, 0.5, 1.0, 3.0, 7.0)[i % 5]
            g = random_graph(make_rng(400 + i), 6 + i, weighted=True,
                             parallel=bool(i % 2), density=0.6)
            params = PrivacyParams(eps, 0.05 * (i % 3))
            rng, ref_rng = make_rng(500 + i), make_rng(500 + i)
            h, audit = release_weighted(g, params, engine, rng, seed=i)
            want, want_audit = reference_release_weighted(g, params, engine, ref_rng, seed=i)
            for sign in (1, -1):
                assert h.channel_flat(sign).tobytes() == want.channel_flat(sign).tobytes()
            assert audit.audit_dict() == want_audit.audit_dict()
            assert rng.random() == ref_rng.random()  # both drew the same count

    def test_audit_records_no_unspent_delta(self):
        # pure Laplace spends no delta, whatever the budget offers
        g = random_graph(make_rng(77), 8, weighted=True, density=0.5)
        _, audit = release_weighted(g, PrivacyParams(0.5, 0.1), "laplace", make_rng(78))
        assert audit.delta == 0.0
        assert audit.epsilon == 0.5

    @pytest.mark.parametrize("route", ["weighted", "unweighted"])
    def test_unknown_engine_refused(self, route):
        g = random_graph(make_rng(75), 6, complete=True)
        with pytest.raises(ContractViolation, match="unknown release engine"):
            if route == "weighted":
                release_weighted(g, PrivacyParams(1.0), "what", make_rng(76))
            else:
                release_unweighted(g, PrivacyParams(1.0), None, make_rng(76), engine="what")

    @pytest.mark.parametrize("engine", ["laplace", "zero-noise-test"])
    def test_parallel_pairs_released_as_net_canonical_form(self, engine):
        # both channels of a pair carrying both signs cost only the net weight
        g = random_graph(make_rng(86), 12, weighted=True, parallel=True, density=0.8)
        assert np.any((g.pos_w > 0) & (g.neg_w > 0))
        net = g.channel_flat(1) - g.channel_flat(-1)
        canon = SignedGraph.from_channel_arrays(
            g.n, np.maximum(net, 0.0), np.maximum(-net, 0.0)
        )
        params = PrivacyParams(1.0)
        h, _ = release_weighted(g, params, engine, make_rng(87))
        h_canon, _ = release_weighted(canon, params, engine, make_rng(87))
        for sign in (1, -1):
            assert h.channel_flat(sign).tobytes() == h_canon.channel_flat(sign).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_release_has_no_parallel_pairs(self, seed):
        # heavy exponential weights: noising each sign channel on its own gave
        # 10-14 pairs with both channels above the threshold on these inputs
        spec = InstanceSpec(kind="weighted-random", n=300, weight_dist="exponential",
                            edge_weight=40, density=0.3, seed=seed)
        g, _ = generate_instance(spec)
        h, _ = release_weighted(g, PrivacyParams(1.0), "laplace", make_rng(seed))
        assert h.edge_count > 0
        assert not np.any((h.pos_w > 0) & (h.neg_w > 0))


class TestExactDP:
    def test_canonical_route_exact_dp_on_grid(self):
        # grid-valued weighted input with parallel pairs, discrete noise on
        # the same grid; neighbours at neighbor_distance <= 2 add +c to both
        # channels of one pair and move net weight on up to two pairs
        rng = make_rng(88)
        n, grid = 5, 64
        m = n * (n - 1) // 2
        for eps in (0.5, 1.0, 3.0):
            params = PrivacyParams(eps)
            for _ in range(8):
                pos = np.where(rng.random(m) < 0.6, rng.integers(1, 3 * grid, m), 0) / grid
                neg = np.where(rng.random(m) < 0.6, rng.integers(1, 3 * grid, m), 0) / grid
                g = SignedGraph.from_channel_arrays(n, pos, neg)
                assert np.any((g.pos_w > 0) & (g.neg_w > 0))
                _, audit = release_weighted(g, params, "laplace", make_rng(89))
                b = audit.noise_scale
                tau = b * math.log(n)
                xs = _released_net(g, params)
                for trial in range(12):
                    p, q = pos.copy(), neg.copy()
                    e = int(rng.integers(m))
                    common = rng.integers(0, 4 * grid) / grid
                    p[e] += common
                    q[e] += common
                    if trial == 0:  # one pair's net weight moves by the full 2
                        moves = [(e, -2.0)]
                    else:
                        pairs = rng.choice(m, 2, replace=False)
                        moves = zip(pairs, rng.integers(-grid, grid + 1, 2) / grid)
                    for f, shift in moves:
                        if shift > 0:
                            p[f] += shift
                        else:
                            q[f] -= shift
                    h = SignedGraph.from_channel_arrays(n, p, q)
                    assert neighbor_distance(g, h) <= 2.0
                    ys = _released_net(h, params)
                    worst = dp_harness.thresholded_worst_log_ratio(xs, ys, b, tau)
                    assert worst <= eps + 1e-9
                    if trial == 0:  # Lap(2 / eps) on the net: that neighbour spends all of eps
                        assert worst == pytest.approx(eps, rel=1e-9)


def _released_net(graph, params):
    # the zero-noise engine (tau = 0) returns exactly the net the noise is added to
    h, _ = release_weighted(graph, params, "zero-noise-test", make_rng(90))
    return h.channel_flat(1) - h.channel_flat(-1)


class TestCutDistance:
    def test_identical_channels(self):
        rng = make_rng(77)
        vals = rng.random(21)
        a = WeightedChannel(7, vals)
        assert sampled_cut_distance(a, WeightedChannel(7, vals), 32, rng) == 0.0

    def test_single_edge_difference(self):
        n = 8
        base = np.zeros(n * (n - 1) // 2)
        bumped = base.copy()
        bumped[11] = 2.5
        rng = make_rng(78)
        d = sampled_cut_distance(
            WeightedChannel(n, base), WeightedChannel(n, bumped), 16, rng
        )
        assert d >= 2.5  # singleton pair finds it; ascent may beat it

    def test_matches_independent_brute_force(self):
        # production uses subset DP below the exact limit; this oracle
        # enumerates dense set-pair matrices instead
        rng = make_rng(79)
        for trial in range(100):
            n = int(rng.integers(4, 9))
            a = WeightedChannel(n, rng.random(n * (n - 1) // 2) * 2)
            b = WeightedChannel(n, rng.random(n * (n - 1) // 2) * 2)
            exact = brute_force_cut_distance(a, b)
            approx = sampled_cut_distance(a, b, 64, rng)
            assert approx == pytest.approx(exact, rel=1e-12)

    def test_matches_brute_force_at_n10(self):
        rng = make_rng(80)
        for trial in range(8):
            a = WeightedChannel(10, rng.random(45) * 3)
            b = WeightedChannel(10, rng.random(45) * 3)
            exact = brute_force_cut_distance(a, b)
            approx = sampled_cut_distance(a, b, 128, rng)
            assert approx == pytest.approx(exact, rel=1e-12)

    def test_heuristic_branch_is_sound_lower_bound(self):
        # force the sampling + ascent path on sizes the exact path covers
        rng = make_rng(84)
        ratios = []
        for trial in range(60):
            n = int(rng.integers(6, 11))
            a = WeightedChannel(n, rng.random(n * (n - 1) // 2) * 3)
            b = WeightedChannel(n, rng.random(n * (n - 1) // 2) * 3)
            exact = brute_force_cut_distance(a, b)
            approx = sampled_cut_distance(
                a, b, 64, rng, exact_limit=0, ascent_starts=8, basin_hops=12
            )
            assert approx <= exact + 1e-9
            ratios.append(approx / exact)
        assert np.mean(ratios) >= 0.97  # near-exact on dense random inputs

    def test_needs_samples(self):
        a = WeightedChannel(4, np.zeros(6))
        with pytest.raises(ContractViolation):
            sampled_cut_distance(a, a, 0, make_rng(81))


class TestObjectiveTransfer:
    def test_error_bounded_by_cut_distances(self):
        # |err(C, G) - err(C, H)| <= k * (d_cut(minus) + d_cut(plus)),
        # with the cut distances computed exactly
        rng = make_rng(82)
        for trial in range(40):
            n = int(rng.integers(4, 9))
            g = random_graph(rng, n, weighted=True, density=0.8)
            h, _ = release_weighted(g, PrivacyParams(0.3, 0.1), "laplace", rng)
            d_plus = brute_force_cut_distance(
                WeightedChannel(n, g.channel_flat(1)),
                WeightedChannel(n, h.channel_flat(1)),
            )
            d_minus = brute_force_cut_distance(
                WeightedChannel(n, g.channel_flat(-1)),
                WeightedChannel(n, h.channel_flat(-1)),
            )
            for _ in range(10):
                c = random_clustering(rng, n)
                gap = abs(disagreement(c, g) - disagreement(c, h))
                assert gap <= c.k * (d_plus + d_minus) + 1e-9

    def test_cut_distance_scaling_on_sparse_graphs(self):
        # the thresholded engine keeps cut error growth well below n^2
        rng = make_rng(83)
        dists = {}
        for n in (50, 100, 200):
            g = star_graph(n, weight=3.0)
            h, _ = release_weighted(g, PrivacyParams(1.0), "laplace", rng)
            a = WeightedChannel(n, g.channel_flat(1))
            b = WeightedChannel(n, h.channel_flat(1))
            dists[n] = max(sampled_cut_distance(a, b, 128, rng), 1.0)
        ns = np.array(sorted(dists))
        slope = np.polyfit(np.log(ns), np.log([dists[n] for n in ns]), 1)[0]
        assert slope <= 1.8
