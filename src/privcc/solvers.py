"""Non-private correlation-clustering solvers.

Four entry points: an exhaustive oracle for small instances
(:func:`solve_exact`), the random-pivot greedy (:func:`pivot_kwikcluster`,
expected 3-approximation for minimum disagreement on unweighted complete
graphs), best-single-move hill climbing (:func:`local_search`), and a
dispatcher (:func:`solve`) that picks the oracle when feasible and
pivot-plus-refinement otherwise.

Minimizing disagreement and maximizing agreement select the same
partitions (the two objectives sum to the total edge weight), so all
searches internally minimize disagreement; the objective choice matters
only for reported values.

Partitions are enumerated as restricted growth strings in lexicographic
order; the first optimum in that order is returned, which makes
tie-breaking deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._rng import make_rng
from .graphs import (
    Clustering,
    ContractViolation,
    SignedGraph,
    SizeRefusal,
    disagreement,
)

__all__ = [
    "MIN_DISAGREEMENT",
    "MAX_AGREEMENT",
    "EXACT_LIMIT",
    "SolverConfig",
    "enumerate_partitions",
    "partition_disagreements",
    "solve_exact",
    "pivot_kwikcluster",
    "local_search",
    "solve",
]

MIN_DISAGREEMENT = "min-disagreement"
MAX_AGREEMENT = "max-agreement"

# Bell(12) ~ 4.2e6 partitions is the largest enumeration we accept.
EXACT_LIMIT = 12

# local search stops after this many sweeps of n moves
_MAX_PASSES = 50


@dataclass(frozen=True)
class SolverConfig:
    objective: str = MIN_DISAGREEMENT
    max_clusters: int | None = None
    seed: int = 0
    restarts: int = 8

    def __post_init__(self):
        if self.objective not in (MIN_DISAGREEMENT, MAX_AGREEMENT):
            raise ContractViolation(f"unknown objective {self.objective!r}")
        if self.max_clusters is not None and self.max_clusters < 1:
            raise ContractViolation("max_clusters must be >= 1")
        if self.restarts < 1:
            raise ContractViolation("restarts must be >= 1")


# ---------------------------------------------------------------------------
# Exhaustive enumeration


@functools.lru_cache(maxsize=8)
def _partition_table(n: int, kmax: int) -> np.ndarray:
    parts = np.zeros((1, 1), dtype=np.int8)
    for _ in range(n - 1):
        used = parts.max(axis=1).astype(np.int64) + 1
        allowed = np.minimum(used + 1, kmax)
        rows = np.repeat(parts, allowed, axis=0)
        offsets = np.cumsum(allowed) - allowed
        labels = np.arange(int(allowed.sum())) - np.repeat(offsets, allowed)
        parts = np.concatenate([rows, labels.astype(np.int8)[:, None]], axis=1)
    parts.setflags(write=False)
    return parts


def enumerate_partitions(n: int, max_clusters: int | None = None) -> np.ndarray:
    """All partitions of ``0..n-1`` as restricted growth strings.

    Returns a read-only array of shape (#partitions, n), int8, in
    lexicographic order (tables are cached per size).  With
    ``max_clusters`` set, strings using more labels are skipped.
    """
    if n > EXACT_LIMIT:
        raise SizeRefusal(f"partition enumeration capped at n={EXACT_LIMIT}, got {n}")
    if n < 1:
        raise ContractViolation("need n >= 1")
    kmax = n if max_clusters is None else min(max_clusters, n)
    return _partition_table(n, kmax)


def partition_disagreements(
    parts: np.ndarray, graph: SignedGraph, chunk: int = 1 << 18
) -> np.ndarray:
    """Disagreement of every partition row against ``graph``."""
    out = np.empty(parts.shape[0])
    u, v = graph.pair_u, graph.pair_v
    for lo in range(0, parts.shape[0], chunk):
        block = parts[lo : lo + chunk]
        same = block[:, u] == block[:, v]
        out[lo : lo + len(block)] = np.where(same, graph.neg_w, graph.pos_w).sum(axis=1)
    return out


def solve_exact(graph: SignedGraph, cfg: SolverConfig | None = None) -> Clustering:
    """Globally optimal clustering by exhaustive search, n <= 12 only.

    Among tied optima the lexicographically smallest restricted growth
    string wins.  Larger instances are refused outright.
    """
    cfg = cfg or SolverConfig()
    if graph.n > EXACT_LIMIT:
        raise SizeRefusal(
            f"exact solver refuses n={graph.n} (> {EXACT_LIMIT}); use solve()"
        )
    parts = enumerate_partitions(graph.n, cfg.max_clusters)
    err = partition_disagreements(parts, graph)
    return Clustering(parts[int(np.argmin(err))])


# ---------------------------------------------------------------------------
# Pivot greedy


def pivot_kwikcluster(graph: SignedGraph, rng: np.random.Generator) -> Clustering:
    """Random-pivot greedy clustering.

    Repeatedly picks a uniformly random unclustered vertex, forms a
    cluster from it and its unclustered positive neighbors, and removes
    them.  An edge counts as positive when its net weight (positive minus
    negative channel) is strictly greater than zero, so released graphs
    with parallel edges feed in directly.
    """
    n = graph.n
    positive = graph.net_matrix() > 0
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for p in rng.permutation(n):
        if labels[p] >= 0:
            continue
        grab = positive[p] & (labels < 0)
        grab[p] = True
        labels[grab] = next_label
        next_label += 1
    return Clustering(labels)


# ---------------------------------------------------------------------------
# Local search


def local_search(
    graph: SignedGraph, start: Clustering, cfg: SolverConfig | None = None
) -> Clustering:
    """Best-single-vertex-move hill climbing from ``start``.

    Each step applies the globally best move of one vertex to an existing
    cluster or to a new singleton (new clusters are forbidden once
    ``max_clusters`` nonempty clusters exist).  Stops when no move
    improves the objective or after ``_MAX_PASSES`` sweeps of n moves.
    The objective never worsens.
    """
    cfg = cfg or SolverConfig()
    if start.n != graph.n:
        raise ContractViolation("start clustering does not cover the graph")
    n = graph.n
    kmax = cfg.max_clusters if cfg.max_clusters is not None else n
    if start.k > kmax:
        raise ContractViolation(f"start has {start.k} clusters, limit is {kmax}")
    # margin[v, c] = cost of v sitting in cluster c, up to a per-vertex constant
    comargin = graph.channel_matrix(-1) - graph.channel_matrix(1)

    labels = start.assignment.astype(np.int64).copy()
    ncols = min(n, max(start.k + 1, kmax) + 1)
    ind = np.zeros((n, ncols))
    ind[np.arange(n), labels] = 1.0
    margins = comargin @ ind
    sizes = ind.sum(axis=0)

    tol = 1e-9
    moves_budget = _MAX_PASSES * n
    best_err = disagreement(Clustering(labels), graph)
    moves_done = 0
    while moves_done < moves_budget:
        current = margins[np.arange(n), labels]
        delta = margins - current[:, None]
        # occupied columns only, except one spare column acting as "new cluster"
        occupied = sizes > 0
        nonempty = int(occupied.sum())
        spare = np.flatnonzero(~occupied)
        delta[:, ~occupied] = np.inf
        if nonempty < kmax and spare.size:
            # moving a non-singleton vertex out into an empty column
            movable = sizes[labels] > 1
            delta[movable, spare[0]] = -current[movable]
        delta[np.arange(n), labels] = np.inf
        flat = int(np.argmin(delta))
        v, target = divmod(flat, delta.shape[1])
        gain = delta[v, target]
        if not (gain < -tol):
            break
        old = labels[v]
        labels[v] = target
        margins[:, old] -= comargin[:, v]
        margins[:, target] += comargin[:, v]
        sizes[old] -= 1
        sizes[target] += 1
        moves_done += 1
        if moves_done % n == 0:
            err_now = disagreement(Clustering(labels), graph)
            assert err_now <= best_err + 1e-6, "local search must be monotone"
            best_err = err_now
    result = Clustering(labels)
    assert result.k <= kmax, "local search exceeded max_clusters"
    return result


def _cap_clusters(clustering: Clustering, kmax: int) -> Clustering:
    """Merge all but the kmax-1 largest clusters into one bucket."""
    if clustering.k <= kmax:
        return clustering
    sizes = clustering.sizes()
    order = np.argsort(-sizes, kind="stable")
    keep = set(order[: kmax - 1].tolist()) if kmax > 1 else set()
    labels = clustering.assignment.copy()
    bucket = clustering.k
    for cid in range(clustering.k):
        if cid not in keep:
            labels[clustering.assignment == cid] = bucket
    return Clustering(labels)


# ---------------------------------------------------------------------------
# Dispatcher


def solve(graph: SignedGraph, cfg: SolverConfig | None = None) -> Clustering:
    """Exact search when n <= 12, otherwise pivot + local-search restarts.

    Restarts use independent substreams of ``cfg.seed``; the best
    objective wins, ties broken by the smaller canonical string.
    """
    cfg = cfg or SolverConfig()
    if graph.n <= EXACT_LIMIT:
        return solve_exact(graph, cfg)
    best: Clustering | None = None
    best_err = np.inf
    for restart in range(cfg.restarts):
        rng = make_rng(cfg.seed, "pivot-restart", restart)
        cand = pivot_kwikcluster(graph, rng)
        if cfg.max_clusters is not None:
            cand = _cap_clusters(cand, cfg.max_clusters)
        cand = local_search(graph, cand, cfg)
        err = disagreement(cand, graph)
        if err < best_err - 1e-12 or (
            abs(err - best_err) <= 1e-12 and best is not None and cand.key() < best.key()
        ):
            best, best_err = cand, err
    assert best is not None
    return best
