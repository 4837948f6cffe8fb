import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from privcc import (
    Clustering,
    SignedGraph,
    SizeRefusal,
    disagreement,
)
from privcc._rng import make_rng
from privcc.solvers import (
    _MAX_PASSES,
    SolverConfig,
    cap_clusters,
    enumerate_partitions,
    local_search,
    partition_disagreements,
    pivot_kwikcluster,
    solve,
    solve_exact,
)

from helpers import random_graph

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def complete_from_signs(n, positive_pairs):
    pu, pv = np.triu_indices(n, 1)
    pos = np.array([(u, v) in positive_pairs for u, v in zip(pu, pv)], dtype=float)
    return SignedGraph(n, pu, pv, pos, 1.0 - pos)


class TestEnumeration:
    def test_bell_counts(self):
        for n in range(1, 11):
            assert enumerate_partitions(n).shape[0] == BELL[n]

    def test_lex_order_endpoints(self):
        parts = enumerate_partitions(5)
        assert parts[0].tolist() == [0, 0, 0, 0, 0]
        assert parts[-1].tolist() == [0, 1, 2, 3, 4]

    def test_restricted_count(self):
        # Stirling2(5,1) + Stirling2(5,2) = 1 + 15
        assert enumerate_partitions(5, max_clusters=2).shape[0] == 16
        assert enumerate_partitions(5, max_clusters=2).max() <= 1

    def test_refusal(self):
        with pytest.raises(SizeRefusal):
            enumerate_partitions(13)


class TestExact:
    def test_triangle(self):
        g = SignedGraph.from_edges(
            3, [(0, 1, 1, 1.0), (0, 2, 1, 1.0), (1, 2, -1, 1.0)]
        )
        c = solve_exact(g)
        assert disagreement(c, g) == 1.0

    def test_all_positive_single_cluster(self):
        pu, pv = np.triu_indices(6, 1)
        g = SignedGraph(6, pu, pv, np.ones(pu.size), np.zeros(pu.size))
        c = solve_exact(g)
        assert c.k == 1 and disagreement(c, g) == 0.0

    def test_alternating_path(self):
        # signs +,-,+ -> {v0,v1}, {v2,v3} with zero disagreement
        g = SignedGraph.from_edges(
            4, [(0, 1, 1, 1.0), (1, 2, -1, 1.0), (2, 3, 1, 1.0)]
        )
        c = solve_exact(g)
        assert disagreement(c, g) == 0.0
        assert c.as_sets() == [{0, 1}, {2, 3}]

    def test_tie_break_lex_smallest(self):
        # no edges: every partition is optimal; the all-merged string wins
        g = SignedGraph.empty(4)
        assert solve_exact(g).k == 1

    def test_refusal_large(self):
        g = SignedGraph.empty(13)
        with pytest.raises(SizeRefusal):
            solve_exact(g)

    def test_max_clusters_respected(self):
        rng = make_rng(7)
        g = random_graph(rng, 8, complete=True)
        c = solve_exact(g, SolverConfig(max_clusters=2))
        assert c.k <= 2
        unrestricted = solve_exact(g)
        assert disagreement(c, g) >= disagreement(unrestricted, g)


class TestPivot:
    def test_all_negative_gives_singletons(self):
        pu, pv = np.triu_indices(7, 1)
        g = SignedGraph(7, pu, pv, np.zeros(pu.size), np.ones(pu.size))
        for seed in range(5):
            c = pivot_kwikcluster(g, make_rng(seed))
            assert c.k == 7 and disagreement(c, g) == 0.0

    def test_all_positive_gives_one_cluster(self):
        pu, pv = np.triu_indices(7, 1)
        g = SignedGraph(7, pu, pv, np.ones(pu.size), np.zeros(pu.size))
        for seed in range(5):
            assert pivot_kwikcluster(g, make_rng(seed)).k == 1

    def test_valid_partition_fuzz(self):
        rng = make_rng(8)
        for trial in range(10000):
            n = int(rng.integers(2, 12))
            g = random_graph(rng, n, complete=True)
            c = pivot_kwikcluster(g, rng)
            assert c.n == n
            assert np.bincount(c.assignment).sum() == n

    def test_net_weight_sign_rule(self):
        # parallel pair with net weight 0 counts as negative: stays split
        g = SignedGraph.from_edges(
            2, [(0, 1, 1, 1.0), (0, 1, -1, 1.0)]
        )
        assert pivot_kwikcluster(g, make_rng(0)).k == 2


class TestLocalSearch:
    def test_optimum_is_fixed_point(self):
        rng = make_rng(9)
        for trial in range(20):
            g = random_graph(rng, 8, complete=True)
            opt = solve_exact(g)
            refined = local_search(g, opt)
            assert disagreement(refined, g) == disagreement(opt, g)

    def test_never_worsens(self):
        rng = make_rng(10)
        for trial in range(50):
            n = int(rng.integers(4, 14))
            g = random_graph(rng, n, weighted=True, density=0.8)
            start = Clustering(rng.integers(0, 3, size=n))
            out = local_search(g, start)
            assert disagreement(out, g) <= disagreement(start, g)

    def test_max_clusters_never_exceeded(self):
        rng = make_rng(11)
        for trial in range(30):
            g = random_graph(rng, 10, complete=True)
            start = Clustering(rng.integers(0, 3, size=10))
            out = local_search(g, start, SolverConfig(max_clusters=3))
            assert out.k <= 3

    def test_all_negative_splits_to_singletons_or_the_cap(self):
        n = 30
        pu, pv = np.triu_indices(n, 1)
        g = SignedGraph(n, pu, pv, np.zeros(pu.size), np.ones(pu.size))
        start = Clustering.one_cluster(n)
        assert local_search(g, start).k == n
        assert local_search(g, start, SolverConfig(max_clusters=5)).k == 5

    def test_matches_full_width_reference(self):
        rng = make_rng(18)
        for trial in range(24):
            n = int(rng.integers(13, 61))
            g = random_graph(rng, n, weighted=True, parallel=True)
            starts = [
                pivot_kwikcluster(g, rng),
                Clustering.one_cluster(n),
                Clustering(rng.integers(0, int(rng.integers(1, n + 1)), size=n)),
            ]
            for start in starts:
                for kmax in (None, 2, 3):
                    capped = start if kmax is None else cap_clusters(start, kmax)
                    cfg = SolverConfig(max_clusters=kmax)
                    expected = full_width_local_search(g, capped, cfg)
                    assert local_search(g, capped, cfg) == expected

    def test_sparse_graphs_match_full_width_reference(self):
        # sparse graphs take the rescore-the-neighbours path; the hub
        # graphs switch between it and the full pass within one call.
        # Integer weights make tied gains, so tie-breaks are checked too.
        # Weights on a 1/64 grid keep every margin exact, so the reference's
        # wider margin product cannot differ from the search's in the last bit.
        rng = make_rng(19)
        for trial in range(16):
            n = int(rng.integers(13, 121))
            density = float(rng.uniform(0.03, 0.3))
            g = random_graph(rng, n, weighted=True, parallel=True, density=density,
                             integer_weights=bool(trial % 2))
            if trial % 2 == 0:
                g = on_grid(g, 64)
            if trial % 4 >= 2:
                g = with_hub(rng, g)
            starts = [
                pivot_kwikcluster(g, rng),
                Clustering(np.arange(n)),
                Clustering(rng.integers(0, int(rng.integers(1, n + 1)), size=n)),
            ]
            for start in starts:
                for kmax in (None, 2, 3, start.k):
                    capped = start if kmax is None else cap_clusters(start, kmax)
                    cfg = SolverConfig(max_clusters=kmax)
                    expected = full_width_local_search(g, capped, cfg)
                    assert local_search(g, capped, cfg) == expected

    def test_off_grid_case_matches_full_width_reference(self):
        # the first graph of the test above, before it goes on the grid: with
        # its random start capped at 3 clusters, a reference whose first
        # product was full width broke a near-tie the other way under OpenBLAS
        rng = make_rng(19)
        n = int(rng.integers(13, 121))
        density = float(rng.uniform(0.03, 0.3))
        g = random_graph(rng, n, weighted=True, parallel=True, density=density)
        pivot_kwikcluster(g, rng)
        start = Clustering(rng.integers(0, int(rng.integers(1, n + 1)), size=n))
        capped = cap_clusters(start, 3)
        cfg = SolverConfig(max_clusters=3)
        assert local_search(g, capped, cfg) == full_width_local_search(g, capped, cfg)

    def test_invariant_checks_survive_optimize(self):
        # five vertices that need five moves from one cluster, so the
        # monotonicity check runs once; a rising objective must trip it
        script = (
            "import numpy as np\n"
            "from privcc import Clustering, SignedGraph, solvers\n"
            "w = np.array([-4., 1, 2, -1, 3, 2, -3, -4, -1, 3])\n"
            "pu, pv = np.triu_indices(5, 1)\n"
            "g = SignedGraph(5, pu, pv, np.maximum(w, 0), np.maximum(-w, 0))\n"
            "calls = iter(range(100))\n"
            "solvers.disagreement = lambda c, graph: float(next(calls))\n"
            "solvers.local_search(g, Clustering.one_cluster(5))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode != 0
        assert "AssertionError: local search must be monotone" in proc.stderr


def on_grid(graph, steps):
    """``graph`` with every weight rounded to a multiple of ``1 / steps``."""
    pos, neg = (np.round(graph.channel_flat(s) * steps) / steps for s in (1, -1))
    return SignedGraph.from_channel_arrays(graph.n, pos, neg)


def with_hub(rng, graph):
    """``graph`` with vertex 0 tied to every other vertex by a signed integer weight."""
    n = graph.n
    pos, neg = graph.channel_flat(1), graph.channel_flat(-1)
    # pairs (0, v) come first in canonical order
    w = rng.integers(1, 4, size=n - 1).astype(float)
    plus = rng.random(n - 1) < 0.5
    pos[: n - 1] = np.where(plus, w, 0.0)
    neg[: n - 1] = np.where(plus, 0.0, w)
    return SignedGraph.from_channel_arrays(n, pos, neg)


def full_width_local_search(graph, start, cfg):
    """Reference local search with one margin column per possible cluster."""
    n = graph.n
    kmax = cfg.max_clusters if cfg.max_clusters is not None else n
    comargin = graph.channel_matrix(-1) - graph.channel_matrix(1)
    labels = start.assignment.astype(np.int64).copy()
    ncols = min(n, max(start.k + 1, kmax) + 1)
    # the first product has the search's width, one column past the start's
    # clusters: BLAS may round a wider product differently in the last bit.
    # The columns past it are empty, so their margins are 0 at any width.
    first = min(start.k + 1, ncols)
    ind = np.zeros((n, first))
    ind[np.arange(n), labels] = 1.0
    margins = np.hstack([comargin @ ind, np.zeros((n, ncols - first))])
    sizes = np.concatenate([ind.sum(axis=0), np.zeros(ncols - first)])
    for _ in range(_MAX_PASSES * n):
        current = margins[np.arange(n), labels]
        delta = margins - current[:, None]
        occupied = sizes > 0
        spare = np.flatnonzero(~occupied)
        delta[:, ~occupied] = np.inf
        if int(occupied.sum()) < kmax and spare.size:
            movable = sizes[labels] > 1
            delta[movable, spare[0]] = -current[movable]
        delta[np.arange(n), labels] = np.inf
        v, target = divmod(int(np.argmin(delta)), delta.shape[1])
        if not (delta[v, target] < -1e-9):
            break
        old = labels[v]
        labels[v] = target
        margins[:, old] -= comargin[:, v]
        margins[:, target] += comargin[:, v]
        sizes[old] -= 1
        sizes[target] += 1
    return Clustering(labels)


class TestSolve:
    def test_small_matches_exact(self):
        rng = make_rng(12)
        for trial in range(15):
            n = int(rng.integers(3, 11))
            g = random_graph(rng, n, complete=True)
            assert solve(g) == solve_exact(g)

    def test_single_cluster_cap(self):
        rng = make_rng(13)
        g = random_graph(rng, 15, complete=True)
        c = solve(g, SolverConfig(max_clusters=1))
        assert c.k == 1

    def test_net_matrix_scattered_once_per_solve(self, monkeypatch):
        import privcc.graphs as graphs
        import privcc.solvers as solvers

        calls = []
        scatter = graphs._symmetric
        monkeypatch.setattr(
            graphs, "_symmetric", lambda *a: calls.append(1) or scatter(*a)
        )
        g = random_graph(make_rng(17), 30, weighted=True, parallel=True)
        solve(g, SolverConfig(restarts=4))
        assert len(calls) == 1
        assert not solvers._SOLVING  # the shared matrix is dropped on return
        pivot_kwikcluster(g, make_rng(1))  # on its own, each call scatters
        assert len(calls) == 2

    def test_deterministic(self):
        rng = make_rng(15)
        g = random_graph(rng, 20, complete=True)
        c1 = solve(g, SolverConfig(seed=5))
        c2 = solve(g, SolverConfig(seed=5))
        assert c1 == c2

    def test_every_solver_at_least_exact_optimum(self):
        rng = make_rng(16)
        for trial in range(40):
            n = int(rng.integers(4, 11))
            g = random_graph(rng, n, complete=True)
            opt = disagreement(solve_exact(g), g)
            assert disagreement(pivot_kwikcluster(g, rng), g) >= opt
            start = Clustering(rng.integers(0, n, size=n))
            assert disagreement(local_search(g, start), g) >= opt


def test_partition_disagreements_matches_scalar():
    rng = make_rng(17)
    g = random_graph(rng, 7, weighted=True, density=0.8)
    parts = enumerate_partitions(7)
    errs = partition_disagreements(parts, g)
    for idx in rng.integers(0, parts.shape[0], size=25):
        assert errs[idx] == pytest.approx(disagreement(Clustering(parts[idx]), g))
