"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass.  Every tolerance is stated inline; empirical thresholds were
calibrated once against fixed seeds and are frozen here.
"""

import math
import time

import numpy as np
import pytest

from privcc import (
    Clustering,
    PrivacyParams,
    SignedGraph,
    WeightedChannel,
    agreement,
    disagreement,
)
from privcc._rng import make_rng
from privcc.expmech import exact_output_distribution
from privcc.experiments import (
    InstanceSpec,
    PipelineConfig,
    generate_instance,
    run_matrix,
    run_pipeline,
)
from privcc.packing import (
    brute_force_code,
    optimal_path_clustering,
    path_graph,
    random_signs,
)
from privcc.release_unweighted import laplace_release, release_unweighted
from privcc.solvers import (
    SolverConfig,
    enumerate_partitions,
    local_search,
    partition_disagreements,
    pivot_kwikcluster,
    solve,
    solve_exact,
)
from privcc.transforms import coarsen

from helpers import random_clustering, random_graph


def report(num, message, elapsed):
    print(f"PASS criterion {num}: {message} [{elapsed:.1f}s]")


def loglog_slope(xs, ys):
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


def test_criterion_01_conservation():
    t0 = time.perf_counter()
    rng = make_rng(9001)
    for trial in range(10_000):
        n = int(rng.integers(2, 17))
        style = trial % 4
        g = random_graph(
            rng,
            n,
            weighted=style in (1, 3),
            parallel=style == 2,
            integer_weights=style in (1, 2),
            density=0.85,
            complete=style == 0,
        )
        c = random_clustering(rng, n)
        err, agr = disagreement(c, g), agreement(c, g)
        if style in (0, 1, 2):  # unit or integer weights: bit-exact
            assert err + agr == g.total_weight
        else:
            assert err + agr == pytest.approx(g.total_weight, rel=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, "err + agr == total weight on 10,000 fuzzed (C, G) pairs", elapsed)


def test_criterion_02_solver_oracles():
    t0 = time.perf_counter()
    rng = make_rng(2001)
    parts = enumerate_partitions(10)
    ls_hits = instances = 0
    worst_pivot = 0.0
    for inst in range(200):
        g = random_graph(rng, 10, complete=True)
        opt = float(partition_disagreements(parts, g).min())
        if opt == 0.0:  # degenerate: ratio undefined; demand perfection
            assert disagreement(solve(g), g) == 0.0
            continue
        instances += 1
        runs = np.array(
            [
                disagreement(pivot_kwikcluster(g, make_rng(2002, inst, r)), g)
                for r in range(100)
            ]
        )
        ratio = runs.mean() / opt
        worst_pivot = max(worst_pivot, ratio)
        assert ratio <= 3.0
        best = min(
            disagreement(
                local_search(g, pivot_kwikcluster(g, make_rng(2003, inst, r))), g
            )
            for r in range(8)
        )
        ls_hits += best <= 1.15 * opt
    assert ls_hits / instances >= 0.95
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        2,
        f"pivot per-instance mean ratio <= 3.0 (worst {worst_pivot:.2f}); "
        f"local search best-of-8 within 1.15x OPT on {ls_hits}/{instances}",
        elapsed,
    )


def test_criterion_03_exact_dp_of_exponential_mechanism():
    t0 = time.perf_counter()
    rng = make_rng(9003)
    pu, pv = np.triu_indices(5, 1)
    worst = 0.0
    for inst in range(50):
        pos = (rng.random(10) < 0.5).astype(np.float64)
        base = SignedGraph(5, pu, pv, pos, 1.0 - pos)
        for eps in (0.1, 1.0, 5.0):
            dist = exact_output_distribution(base, PrivacyParams(eps))
            for e in range(10):
                flipped = pos.copy()
                flipped[e] = 1.0 - flipped[e]
                other = SignedGraph(5, pu, pv, flipped, 1.0 - flipped)
                dist2 = exact_output_distribution(other, PrivacyParams(eps))
                for key, p in dist.items():
                    gap = abs(math.log(p) - math.log(dist2[key]))
                    worst = max(worst, gap / eps)
                    assert gap <= eps + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(
        3,
        f"exponential mechanism log-ratios <= eps on 50 x 10 neighbor flips "
        f"x 3 budgets (worst ratio {worst:.3f} of budget)",
        elapsed,
    )


def test_criterion_04_exponential_mechanism_utility():
    t0 = time.perf_counter()
    rng = make_rng(9004)
    parts = enumerate_partitions(7)
    bell7 = parts.shape[0]
    for inst in range(50):
        g = random_graph(rng, 7, complete=True)
        errs = partition_disagreements(parts, g)
        for eps in (0.1, 1.0, 5.0):
            dist = exact_output_distribution(g, PrivacyParams(eps))
            probs = np.array([dist[tuple(map(int, row))] for row in parts])
            assert probs @ errs - errs.min() <= (2.0 / eps) * math.log(bell7)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(
        4,
        "exact E[err] - OPT <= (2/eps) ln(Bell(7)) on 50 instances x 3 budgets",
        elapsed,
    )


def test_criterion_05_laplace_release_statistics():
    t0 = time.perf_counter()
    rng = make_rng(9005)
    n, releases, b = 14, 5000, 2.0
    g = random_graph(rng, n, complete=True)
    ch = WeightedChannel(n, g.channel_flat(1))
    acc = np.zeros(ch.values.size)
    for _ in range(releases):
        acc += laplace_release(ch, b, rng).values
    means = acc / releases
    for _ in range(100):
        f = rng.random(ch.values.size) < 0.5
        if not f.any():
            continue
        se = b * math.sqrt(2.0 * f.sum()) / math.sqrt(releases)
        assert abs(means[f].sum() - ch.values[f].sum()) <= 5 * se

    # sensitivity arithmetic: one flip moves one coordinate of each channel
    # by 1; Laplace log-densities shift by at most 1/b per channel
    ys = np.linspace(-40, 40, 30001)
    per_channel = np.max(np.abs(-np.abs(ys - 1.0) / b + np.abs(ys) / b))
    assert per_channel == pytest.approx(1.0 / b, abs=1e-12)
    assert 2 * per_channel == pytest.approx(1.0, abs=1e-12)  # eps = 1 budget
    elapsed = time.perf_counter() - t0
    report(
        5,
        "channel release unbiased over 100 pair sets at 5 SE / 5000 releases; "
        "two-channel density-ratio budget closes at eps",
        elapsed,
    )


def sampled_family_deviation(g, released, n, rng):
    """Max |cut(G+) - cut(H+)| over singletons and a fresh sampled family."""
    from privcc.graphs import cut_sums
    from privcc.release_unweighted import _sample_set_pairs

    diff_flat = g.channel_flat(1) - released.channel_flat(1)
    best = float(np.abs(diff_flat).max(initial=0.0))
    s_rows, t_rows = _sample_set_pairs(n, 4 * n, rng)
    pu, pv = np.triu_indices(n, 1)
    diff = np.zeros((n, n))
    diff[pu, pv] = diff_flat
    diff[pv, pu] = diff_flat
    return max(best, float(np.abs(cut_sums(diff, s_rows, t_rows)).max()))


def test_criterion_06_cut_deviation_scaling():
    t0 = time.perf_counter()
    sizes = (50, 100, 200, 400)
    lambdas, devs = [], []
    for n in sizes:
        spec = InstanceSpec(kind="planted", n=n, clusters=4, flip_prob=0.05, seed=1000 + n)
        g, _ = generate_instance(spec)
        rng = make_rng(9006, n)
        released, audit = release_unweighted(g, PrivacyParams(1.0), None, rng)
        lambdas.append(max(audit.lambda_residual, 1.0))
        dev = sampled_family_deviation(g, released, n, make_rng(9007, n))
        devs.append(max(dev, 1.0))
    slope_lambda = loglog_slope(sizes, lambdas)
    slope_dev = loglog_slope(sizes, devs)
    assert slope_lambda <= 1.8
    assert slope_dev <= 1.8
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(
        6,
        f"release residual slope {slope_lambda:.2f} and sampled cut-deviation "
        f"slope {slope_dev:.2f} over n=50..400, both <= 1.8",
        elapsed,
    )


def test_criterion_07_end_to_end_additive_gap():
    t0 = time.perf_counter()
    print(
        "criterion 7 header: additive-gap multiplier 3.0 is the expected "
        "approximation ratio of the bundled random-pivot solver; the "
        "2.06-ratio rounding algorithm is not implemented here"
    )
    sizes = (50, 100, 200, 400)
    replicates = 3
    gaps = []
    for n in sizes:
        cell = []
        for rep in range(replicates):
            spec = InstanceSpec(
                kind="planted", n=n, clusters=4, flip_prob=0.05, seed=1000 + n + rep
            )
            g, truth = generate_instance(spec)
            _, rec = run_pipeline(
                g, PrivacyParams(1.0), PipelineConfig(), seed=7000 + 10 * n + rep,
                truth=truth,
            )
            cell.append(rec.err - 3.0 * rec.planted_cost)
        gap = float(np.mean(cell))
        assert gap > 0  # the additive term dominates at these sizes
        gaps.append(gap)
    slope = loglog_slope(sizes, gaps)
    assert slope <= 1.9
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    report(
        7,
        f"err - 3 x planted cost grows with log-log slope {slope:.2f} <= 1.9 "
        f"over n=50..400 at eps=1",
        elapsed,
    )


def test_criterion_08_coarsening_invariants():
    t0 = time.perf_counter()
    rng = make_rng(9008)
    for trial in range(500):
        n = int(rng.integers(4, 36))
        g = random_graph(rng, n, weighted=bool(rng.integers(0, 2)), density=0.9)
        c = random_clustering(rng, n)
        kp = int(rng.integers(1, 6))
        w = float(max(g.pos_w.max(initial=0.0), g.neg_w.max(initial=0.0)))
        out, rep = coarsen(c, n, kp, w)
        if c.k <= kp:
            assert out == c  # early exit, unchanged
            continue
        capacity = 2 * n / kp
        sizes = c.sizes()
        for members in rep.bins:
            assert sum(sizes[m] for m in members) <= capacity
        assert out.k <= 2 * kp + 1
        increase = disagreement(out, g) - disagreement(c, g)
        assert increase <= rep.merge_cost_bound + 1e-9
    elapsed = time.perf_counter() - t0
    report(
        8,
        "bin capacity, cluster-count cap, merge-cost bound and early exit "
        "hold on 500 random cases",
        elapsed,
    )


def test_criterion_09_vertex_split_transparency():
    t0 = time.perf_counter()
    rng = make_rng(9009)
    config = PipelineConfig(
        mechanism="weighted-laplace", engine="zero-noise-test", coarsen_enabled=False
    )
    for trial in range(200):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, weighted=True, parallel=True, density=0.8)
        c, rec = run_pipeline(g, PrivacyParams(0.4, 0.1), config, seed=trial)
        exact = solve_exact(g)
        assert rec.err == pytest.approx(disagreement(exact, g), rel=1e-9)
    elapsed = time.perf_counter() - t0
    report(
        9,
        "split/solve/unsplit with the passthrough engine equals the exact "
        "oracle on 200 parallel-edge instances",
        elapsed,
    )


def test_criterion_10_lower_bound_suite():
    t0 = time.perf_counter()
    rng = make_rng(9010)
    for trial in range(10_000):
        n = int(rng.integers(1, 201))
        sigma = random_signs(n, rng)
        assert disagreement(optimal_path_clustering(sigma), path_graph(sigma)) == 0.0

    # shared-disagreement floor d/2, exhaustive over clusterings
    def minmax(sa, sb):
        parts = enumerate_partitions(sa.size + 1)
        ea = partition_disagreements(parts, path_graph(sa))
        eb = partition_disagreements(parts, path_graph(sb))
        return float(np.maximum(ea, eb).min())

    for n in (2, 3, 4):
        for a_bits in range(2**n):
            for b_bits in range(a_bits + 1, 2**n):
                sa = np.array([1 if (a_bits >> i) & 1 else -1 for i in range(n)], dtype=np.int8)
                sb = np.array([1 if (b_bits >> i) & 1 else -1 for i in range(n)], dtype=np.int8)
                d = int((sa != sb).sum())
                assert minmax(sa, sb) >= d / 2
    for trial in range(80):
        n = int(rng.integers(5, 9))
        sa, sb = random_signs(n, rng), random_signs(n, rng)
        assert minmax(sa, sb) >= (sa != sb).sum() / 2

    codebook = brute_force_code(20, 0.1, 256, make_rng(9011))
    assert codebook.complete and codebook.size >= 256
    for i in range(codebook.size):
        dists = (codebook.vectors != codebook.vectors[i]).sum(axis=1)
        dists[i] = codebook.min_distance
        assert dists.min() >= codebook.min_distance
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        10,
        "paths cluster to zero error (10,000 fuzzed); d/2 confusion floor "
        "exhaustive at n <= 8; 256-codeword distance-2 code at n=20 built",
        elapsed,
    )


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    matrix = {
        "master_seed": 11,
        "instances": [
            {"kind": "planted", "n": 10, "clusters": 2, "flip_prob": 0.1, "seed": 4},
            {"kind": "random-signs", "n": 9, "seed": 5},
        ],
        "epsilons": [0.5, 1.0],
        "pipelines": [{"mechanism": "unweighted-laplace", "merge": {"iterations": 80}}],
        "seeds": [0, 1],
    }
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_matrix(matrix, str(a), str(tmp_path / "a.jsonl"))
    run_matrix(matrix, str(b), str(tmp_path / "b.jsonl"))
    assert a.read_bytes() == b.read_bytes()

    g, truth = generate_instance(
        InstanceSpec(kind="planted", n=20, clusters=3, flip_prob=0.1, seed=6)
    )
    rows = {
        run_pipeline(g, PrivacyParams(1.0), PipelineConfig(), 77, truth=truth)[1].csv_row()
        for _ in range(3)
    }
    assert len(rows) == 1
    elapsed = time.perf_counter() - t0
    report(
        11,
        "matrix reruns are byte-identical and pipeline records are pure "
        "functions of their seeds",
        elapsed,
    )
