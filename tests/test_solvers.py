import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from privcc import (
    Clustering,
    ContractViolation,
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

from helpers import channel_matrix, random_graph

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

    def test_sparse_graphs_match_on_the_neighbour_path(self, neighbour_path):
        self.test_sparse_graphs_match_full_width_reference()

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

    def test_opens_and_closes_match_full_width_reference(self, monkeypatch):
        self.check_opens_and_closes(monkeypatch, neighbours=False)

    def test_opens_and_closes_match_on_the_neighbour_path(self, monkeypatch, neighbour_path):
        self.check_opens_and_closes(monkeypatch, neighbours=True)

    @staticmethod
    def check_opens_and_closes(monkeypatch, neighbours):
        # sparse graphs with no hub: singletons merge (moves close clusters),
        # and random labels both merge and split (moves open clusters too).
        # The layout is recomputed on opens and closes only.  On the
        # neighbour path no scoring call after the first full pass covers
        # all n rows; under the width rule these narrow searches score all
        # n on every pass.
        import privcc.solvers as solvers

        scored, layouts = [], []
        gains, layout = solvers._gains, solvers._layout
        monkeypatch.setattr(
            solvers, "_gains", lambda m, *a: scored.append(m.shape[0]) or gains(m, *a)
        )
        monkeypatch.setattr(
            solvers, "_layout", lambda *a: layouts.append(1) or layout(*a)
        )
        rng = make_rng(20)
        for trial in range(8):
            n = int(rng.integers(30, 90))
            g = random_graph(rng, n, weighted=True, parallel=True,
                             density=float(rng.uniform(0.05, 0.2)),
                             integer_weights=bool(trial % 2))
            if trial % 2 == 0:
                g = on_grid(g, 64)
            assert not any(solvers._prepare(g).hub)
            assert neighbours or n * n <= solvers._NARROW
            starts = [
                Clustering(np.arange(n)),
                Clustering(rng.integers(0, n // 3, size=n)),
                Clustering(rng.integers(0, n // 6, size=n)),
            ]
            opened_or_closed = 0
            for start in starts:
                for kmax in (None, 2, start.k):
                    capped = start if kmax is None else cap_clusters(start, kmax)
                    cfg = SolverConfig(max_clusters=kmax)
                    scored.clear()
                    layouts.clear()
                    assert local_search(g, capped, cfg) == full_width_local_search(g, capped, cfg)
                    if neighbours:
                        assert scored[0] == n and max(scored[1:], default=0) < n
                    else:
                        assert set(scored) == {n}
                    opened_or_closed += len(layouts) - 1
            assert opened_or_closed > 10

    @pytest.mark.parametrize("seed", [9, 55])
    def test_off_grid_opens_and_closes_match_full_width_reference(self, seed):
        # with weights near 1e9 off any grid, the columns that a move opens
        # or closes change by float residues in rows the move does not
        # touch.  A search that skips comparing those columns with a row's
        # kept best move (seed 9), or rescoring the rows whose kept best was
        # in one of them (seed 55), moves differently on these graphs; each
        # was the first such seed of this construction.
        rng = make_rng(seed)
        n = int(rng.integers(20, 80))
        g = random_graph(rng, n, weighted=True, parallel=True,
                         density=float(rng.uniform(0.2, 0.45)))
        g = SignedGraph.from_channel_arrays(n, g.channel_flat(1) * 1e9, g.channel_flat(-1) * 1e9)
        for parts in (n // 3, n // 8):
            start = Clustering(rng.integers(0, parts, size=n))
            cfg = SolverConfig()
            assert local_search(g, start, cfg) == full_width_local_search(g, start, cfg)

    @pytest.mark.parametrize("seed", [9, 55])
    def test_off_grid_opens_and_closes_match_on_the_neighbour_path(self, seed, neighbour_path):
        self.test_off_grid_opens_and_closes_match_full_width_reference(seed)

    @pytest.mark.parametrize("seed", [342, 829])
    def test_rescores_vertices_whose_cluster_shrinks_to_one_or_grows_to_two(self, seed):
        # weights near 1e9 and off any grid leave float residues above the
        # 1e-9 tolerance in the margins of columns that members have left,
        # so a vertex's new-singleton move is worth minus such a residue.
        # The vertex left alone when its cluster shrinks to one loses that
        # move, and a lone vertex joined by a non-neighbour gains it.  A
        # search that skips rescoring the first (seed 829) or the second
        # (seed 342) moves differently.  Among make_rng seeds of this
        # construction, 829 was the only such graph in 0-999 and 342 the
        # first in 0-399.
        rng = make_rng(seed)
        n = int(rng.integers(13, 61))
        density = float(rng.uniform(0.2, 0.45))
        g = random_graph(rng, n, weighted=True, parallel=True, density=density)
        g = SignedGraph.from_channel_arrays(n, g.channel_flat(1) * 1e9, g.channel_flat(-1) * 1e9)
        pivot_kwikcluster(g, rng)
        start = Clustering(rng.integers(0, int(rng.integers(1, n + 1)), size=n))
        for kmax in (None, start.k):
            cfg = SolverConfig(max_clusters=kmax)
            assert local_search(g, start, cfg) == full_width_local_search(g, start, cfg)

    @pytest.mark.parametrize("seed", [342, 829])
    def test_rescores_on_the_neighbour_path(self, seed, neighbour_path):
        self.test_rescores_vertices_whose_cluster_shrinks_to_one_or_grows_to_two(seed)

    def test_capped_sparse_search_scores_every_row(self, monkeypatch):
        # at the cap the live matrix is narrow, so every pass scores all n
        # rows: the full pass costs fewer numpy calls than the rescoring
        import privcc.solvers as solvers

        scored = []
        gains = solvers._gains
        monkeypatch.setattr(
            solvers, "_gains", lambda m, *a: scored.append(m.shape[0]) or gains(m, *a)
        )
        rng = make_rng(24)
        n = 400
        g = random_graph(rng, n, weighted=True, parallel=True, density=0.05)
        assert not any(solvers._prepare(g).hub)
        cfg = SolverConfig(max_clusters=5)
        start = cap_clusters(pivot_kwikcluster(g, rng), 5)
        out = local_search(g, start, cfg)
        assert out == full_width_local_search(g, start, cfg)
        assert len(scored) > 10 and set(scored) == {n}

    def test_uncapped_wide_search_rescores_neighbours(self, monkeypatch):
        # from singletons the live matrix is n wide, past the width rule,
        # so moves of vertices that are not hubs rescore their neighbours
        import privcc.solvers as solvers

        scored = []
        gains = solvers._gains
        monkeypatch.setattr(
            solvers, "_gains", lambda m, *a: scored.append(m.shape[0]) or gains(m, *a)
        )
        rng = make_rng(25)
        n = 200
        g = on_grid(random_graph(rng, n, weighted=True, parallel=True, density=0.05), 64)
        assert not any(solvers._prepare(g).hub) and n * n > solvers._NARROW
        start = Clustering(np.arange(n))
        out = local_search(g, start)
        assert out == full_width_local_search(g, start, SolverConfig())
        assert scored[0] == n and sum(k < n for k in scored) > 10

    def test_neighbour_slices_match_the_rows(self):
        # each vertex that is not a hub keeps the sorted indices of itself and
        # its nonzero-net neighbours; a hub keeps none
        import privcc.solvers as solvers

        rng = make_rng(26)
        sparse = random_graph(rng, 40, weighted=True, parallel=True, density=0.2)
        hubbed = with_hub(rng, random_graph(rng, 30, weighted=True, density=0.1))
        complete = random_graph(rng, 20, complete=True)
        for g in (sparse, hubbed, complete):
            prepared = solvers._prepare(g)
            nonzero = g.net_matrix() != 0
            np.fill_diagonal(nonzero, True)
            indptr, indices = prepared.indptr, prepared.indices
            assert indptr[0] == 0 and indptr[-1] == indices.size
            for v in range(g.n):
                want = [] if prepared.hub[v] else np.flatnonzero(nonzero[v]).tolist()
                assert indices[indptr[v] : indptr[v + 1]].tolist() == want
        assert solvers._prepare(hubbed).hub[0] and all(solvers._prepare(complete).hub)

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


@pytest.fixture
def neighbour_path(monkeypatch):
    """Local search with the width rule off: only hub moves take the full pass."""
    import privcc.solvers as solvers

    monkeypatch.setattr(solvers, "_NARROW", 0)


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
    comargin = channel_matrix(graph, -1) - channel_matrix(graph, 1)
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

        calls = []
        scatter = graphs._symmetric
        monkeypatch.setattr(
            graphs, "_symmetric", lambda *a: calls.append(1) or scatter(*a)
        )
        g = random_graph(make_rng(17), 30, weighted=True, parallel=True)
        solve(g, SolverConfig(restarts=4))
        assert len(calls) == 1
        pivot_kwikcluster(g, make_rng(1))  # on its own, each call scatters
        assert len(calls) == 2

    def test_pivot_reads_the_prepared_matrix_alike(self):
        import privcc.solvers as solvers

        rng = make_rng(22)
        graphs = [random_graph(rng, 25, complete=True),
                  random_graph(rng, 40, weighted=True, parallel=True, density=0.3,
                               integer_weights=True)]
        # a parallel pair whose net weight is 0 counts as negative either way
        graphs.append(SignedGraph.from_edges(3, [(0, 1, 1, 2.0), (0, 1, -1, 2.0),
                                                 (1, 2, 1, 1.0)]))
        for g in graphs:
            prepared = solvers._prepare(g)
            assert np.array_equal(prepared.comargin < 0, g.net_matrix() > 0)
            alone = [pivot_kwikcluster(g, make_rng(23, r)) for r in range(5)]
            shared = [pivot_kwikcluster(g, make_rng(23, r), prepared=prepared)
                      for r in range(5)]
            assert shared == alone
            # local search, too, climbs alike from each pivot start
            assert [local_search(g, c, prepared=prepared) for c in alone] == [
                local_search(g, c) for c in alone
            ]

    def test_deterministic(self):
        rng = make_rng(15)
        g = random_graph(rng, 20, complete=True)
        c1 = solve(g, seed=5)
        c2 = solve(g, seed=5)
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


@pytest.mark.parametrize("kmax", [0, -1])
def test_cap_clusters_refuses_a_cap_below_one(kmax):
    # a cap of 0 used to return one bucket of every vertex, above the cap
    with pytest.raises(ContractViolation, match="kmax must be >= 1"):
        cap_clusters(Clustering([0, 1, 2, 2]), kmax)


@pytest.mark.parametrize("kmax, expected", [
    (1, [0, 0, 0, 0, 0, 0, 0, 0]),
    (2, [0, 0, 0, 1, 1, 1, 0, 0]),
    (3, [0, 1, 1, 2, 2, 2, 0, 0]),
    # clusters 0, 3 and 4 tie at one vertex: the lowest id is kept
    (4, [0, 1, 1, 2, 2, 2, 3, 3]),
    (5, [0, 1, 1, 2, 2, 2, 3, 4]),
])
def test_cap_clusters_keeps_the_largest_and_buckets_the_rest(kmax, expected):
    start = Clustering([0, 1, 1, 2, 2, 2, 3, 4])
    assert cap_clusters(start, kmax) == Clustering(expected)


@pytest.mark.parametrize("field, value", [
    ("max_clusters", 2.5), ("max_clusters", True), ("max_clusters", "3"),
    ("restarts", 1.5), ("restarts", False), ("restarts", 2.0),
])
def test_solver_config_refuses_a_size_that_is_not_an_integer(field, value):
    # a fractional size used to pass here and fail every solve with a TypeError
    with pytest.raises(ContractViolation, match=f"{field} must be an integer"):
        SolverConfig(**{field: value})
