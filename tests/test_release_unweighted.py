import inspect
import math

import numpy as np
import pytest

from privcc import (
    Clustering,
    ContractViolation,
    PrivacyParams,
    SignedGraph,
    WeightedChannel,
    disagreement,
    neighbor_distance,
)
from privcc._rng import make_rng
from privcc.release_unweighted import (
    MergeConfig,
    UnweightedReleaseConfig,
    laplace_release,
    release_unweighted,
    round_to_signed,
    solve_merge_lp,
)

import dp_harness
from helpers import random_graph


def indicator_channels(graph):
    return (
        WeightedChannel(graph.n, graph.channel_flat(1)),
        WeightedChannel(graph.n, graph.channel_flat(-1)),
    )


class TestLaplace:
    def test_unbiased_single_edge(self):
        rng = make_rng(51)
        b = 2.0
        ch = WeightedChannel(2, np.array([1.0]))
        draws = np.array(
            [laplace_release(ch, b, rng).channel.values[0] for _ in range(20000)]
        )
        assert abs(draws.mean() - 1.0) <= 4 * b / math.sqrt(20000)

    def test_variance_matches_formula(self):
        rng = make_rng(52)
        b = 1.5
        ch = WeightedChannel(2, np.array([0.0]))
        draws = np.array(
            [laplace_release(ch, b, rng).channel.values[0] for _ in range(20000)]
        )
        assert draws.var() == pytest.approx(2 * b * b, rel=0.10)

    def test_zero_scale_is_deterministic_mode(self):
        rng = make_rng(53)
        g = random_graph(rng, 6, complete=True)
        ch, _ = indicator_channels(g)
        out = laplace_release(ch, 0.0, rng)
        assert np.array_equal(out.channel.values, ch.values)

    def test_rejects_bad_inputs(self):
        rng = make_rng(54)
        with pytest.raises(ContractViolation):
            laplace_release(WeightedChannel(2, np.array([1.0])), -1.0, rng)
        with pytest.raises(ContractViolation):
            laplace_release(WeightedChannel(2, np.array([0.5])), 1.0, rng)

    def test_every_pair_noised(self):
        rng = make_rng(55)
        g = random_graph(rng, 10, complete=True)
        ch, _ = indicator_channels(g)
        out = laplace_release(ch, 2.0, rng)
        assert out.channel.values.size == 45
        assert np.all(out.channel.values != ch.values)  # a.s. for continuous noise

    def test_unbiased_over_pair_sets(self):
        rng = make_rng(56)
        g = random_graph(rng, 10, complete=True)
        ch, _ = indicator_channels(g)
        b, releases = 2.0, 2000
        acc = np.zeros(45)
        for _ in range(releases):
            acc += laplace_release(ch, b, rng).channel.values
        means = acc / releases
        for _ in range(30):
            f = rng.random(45) < 0.5
            se = b * math.sqrt(2 * f.sum()) / math.sqrt(releases)
            assert abs(means[f].sum() - ch.values[f].sum()) <= 5 * se


class TestMerge:
    def test_per_edge_singleton_solution(self):
        # one pair, W+ = 0.7, W- = 0.3: the midpoint rule gives x = 0.7
        # and both singleton constraints are met exactly
        sol = solve_merge_lp(
            WeightedChannel(2, np.array([0.7])),
            WeightedChannel(2, np.array([0.3])),
            0,
            make_rng(57),
        )
        assert sol.strategy == "per-edge"
        assert sol.x[0] == pytest.approx(0.7)
        assert sol.lam == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_channels_zero_residual(self):
        rng = make_rng(58)
        g = random_graph(rng, 12, complete=True)
        wp, wm = indicator_channels(g)
        sol = solve_merge_lp(wp, wm, None, rng)
        assert np.array_equal(sol.x, wp.values)
        assert sol.lam == pytest.approx(0.0, abs=1e-9)

    def test_x_in_box(self):
        rng = make_rng(59)
        g = random_graph(rng, 15, complete=True)
        wp, wm = indicator_channels(g)
        noisy_p = laplace_release(wp, 2.0, rng).channel
        noisy_m = laplace_release(wm, 2.0, rng).channel
        for strategy in ("sampled-lp", "per-edge"):
            sol = solve_merge_lp(noisy_p, noisy_m, 16, rng, strategy=strategy)
            assert np.all(sol.x >= 0.0) and np.all(sol.x <= 1.0)
            assert sol.lam >= 0.0

    def test_sampled_lp_beats_per_edge_audit(self):
        # the clamped midpoint rule carries a per-edge bias that adds up
        # over large cuts; the subgradient phase removes most of it, which
        # shows clearly from n ~ 100 up
        rng = make_rng(60)
        g = random_graph(rng, 100, complete=True)
        wp, wm = indicator_channels(g)
        noisy_p = laplace_release(wp, 2.0, rng).channel
        noisy_m = laplace_release(wm, 2.0, rng).channel
        lam_lp = solve_merge_lp(noisy_p, noisy_m, None, make_rng(1)).lam
        lam_pe = solve_merge_lp(
            noisy_p, noisy_m, None, make_rng(1), strategy="per-edge"
        ).lam
        assert lam_lp < 0.8 * lam_pe

    def test_post_processing_isolation_by_signature(self):
        # neither post-processing stage can even accept the private graph
        merge_params = set(inspect.signature(solve_merge_lp).parameters)
        assert merge_params == {
            "wplus", "wminus", "constraint_budget", "rng", "iterations", "strategy",
        }
        round_params = set(inspect.signature(round_to_signed).parameters)
        assert round_params == {"solution", "rng"}


class TestRounding:
    def test_extremes_deterministic(self):
        from privcc.release_unweighted import MergeSolution

        rng = make_rng(61)
        ones = MergeSolution(x=np.ones(45), lam=0.0, strategy="per-edge")
        g = round_to_signed(ones, rng)
        assert g.complete and np.all(g.pos_w == 1.0)
        zeros = MergeSolution(x=np.zeros(45), lam=0.0, strategy="per-edge")
        g = round_to_signed(zeros, rng)
        assert np.all(g.neg_w == 1.0)

    def test_hoeffding_count_n60(self):
        # x = 1/2 on 1770 pairs: |#positive - 885| <= 2*sqrt(1770)
        # fails with probability <= 2 exp(-8) ~ 6.7e-4 per seed
        from privcc.release_unweighted import MergeSolution

        m, t = 1770, 2 * math.sqrt(1770)
        sol = MergeSolution(x=np.full(m, 0.5), lam=0.0, strategy="per-edge")
        hits = 0
        for seed in range(500):
            g = round_to_signed(sol, make_rng(62, seed))
            hits += abs(g.pos_w.sum() - 885.0) <= t
        assert hits / 500 >= 0.99

    def test_hoeffding_fixed_cut(self):
        rng = make_rng(63)
        n = 40
        x = rng.random(n * (n - 1) // 2)
        from privcc.release_unweighted import MergeSolution

        sol = MergeSolution(x=x, lam=0.0, strategy="per-edge")
        s = rng.random(n) < 0.5
        t_set = rng.random(n) < 0.5
        pu, pv = np.triu_indices(n, 1)
        in_cut = (s[pu] & t_set[pv]) | (t_set[pu] & s[pv])
        expect = x[in_cut].sum()
        n_cut = int(in_cut.sum())
        # threshold with Hoeffding failure probability 0.01
        thresh = math.sqrt(n_cut * math.log(2 / 0.01) / 2)
        hits = 0
        seeds = 1000
        for seed in range(seeds):
            g = round_to_signed(sol, make_rng(64, seed))
            got = g.pos_w[in_cut].sum()
            hits += abs(got - expect) <= thresh
        assert hits / seeds >= 0.99


class TestReleaseUnweighted:
    def test_zero_noise_identity(self):
        rng = make_rng(65)
        g = random_graph(rng, 12, complete=True)
        h, audit = release_unweighted(
            g, PrivacyParams(1.0), UnweightedReleaseConfig(unsafe_zero_noise=True), rng
        )
        assert neighbor_distance(g, h) == 0.0
        assert not audit.private

    def test_output_shape_and_audit(self):
        rng = make_rng(66)
        g = random_graph(rng, 20, complete=True)
        h, audit = release_unweighted(g, PrivacyParams(1.0), None, rng)
        assert h.complete and h.is_unweighted and h.n == 20
        assert audit.noise_scale == 2.0
        assert audit.channel_budgets == (0.5, 0.5)
        assert audit.lambda_residual is not None and audit.lambda_residual >= 0
        assert set(audit.audit_dict()) == {
            "mechanism", "epsilon", "delta", "noise_scale", "channel_budgets",
            "lambda", "merge_strategy", "constraints_checked", "seed", "private",
        }

    def test_preconditions(self):
        rng = make_rng(67)
        sparse = random_graph(rng, 8, density=0.5)
        with pytest.raises(ContractViolation):
            release_unweighted(sparse, PrivacyParams(1.0), None, rng)
        g = random_graph(rng, 8, complete=True)
        with pytest.raises(ContractViolation):
            release_unweighted(g, PrivacyParams(1.0, 0.2), None, rng)
        with pytest.raises(ContractViolation):
            release_unweighted(g, PrivacyParams(1.0), None, None)

    def test_deterministic_given_stream(self):
        rng1 = make_rng(68)
        rng2 = make_rng(68)
        g = random_graph(make_rng(1), 10, complete=True)
        h1, _ = release_unweighted(g, PrivacyParams(1.0), None, rng1)
        h2, _ = release_unweighted(g, PrivacyParams(1.0), None, rng2)
        assert neighbor_distance(h1, h2) == 0.0


class TestPrivacyArithmetic:
    def test_laplace_density_ratio_analytic(self):
        # moving one coordinate by 1 at scale b shifts log densities by
        # at most 1/b; both channels together spend exactly epsilon
        eps, b = 1.0, 2.0

        def logpdf(y, mu):
            return -abs(y - mu) / b - math.log(2 * b)

        ys = np.linspace(-30, 30, 20001)
        worst = max(abs(logpdf(y, 0.0) - logpdf(y, 1.0)) for y in ys)
        assert worst == pytest.approx(1.0 / b, abs=1e-12)
        assert 2 * worst == pytest.approx(eps, abs=1e-12)

    def test_discrete_end_to_end_dp_n4(self):
        # exact output distribution over the 64 sign patterns, per-edge
        # merge variant; every single-edge flip must respect the budget
        for eps in (0.5, 1.0, 5.0):
            bound = math.exp(eps) * (1 + 1e-6)
            b = 2.0 / eps
            p1 = dp_harness.edge_positive_probability(1, b)
            p0 = dp_harness.edge_positive_probability(0, b)
            assert p0 == pytest.approx(1 - p1, abs=1e-12)
            for signs_int in range(64):
                signs = np.array([(signs_int >> e) & 1 for e in range(6)])
                base = dp_harness.pattern_distribution(signs, eps)
                assert base.sum() == pytest.approx(1.0, abs=1e-12)
                for e in range(6):
                    flipped = signs.copy()
                    flipped[e] = 1 - flipped[e]
                    other = dp_harness.pattern_distribution(flipped, eps)
                    ratio = np.max(base / other)
                    assert ratio <= bound

    def test_discrete_noise_channel_ratio(self):
        # per-channel: shifting the mean by 64 grid steps costs exp(1/b)
        b = 2.0
        r = math.exp(-dp_harness.GRID / b)
        assert r**-64 == pytest.approx(math.exp(1.0 / b), rel=1e-12)
