"""Non-private correlation-clustering solvers.

Four entry points: an exhaustive oracle for small instances
(:func:`solve_exact`), the random-pivot greedy (:func:`pivot_kwikcluster`,
expected 3-approximation for minimum disagreement on unweighted complete
graphs), best-single-move hill climbing (:func:`local_search`), and a
dispatcher (:func:`solve`) that picks the oracle when feasible and
pivot-plus-refinement otherwise.

Every search minimizes disagreement only: agreement is the total edge
weight minus disagreement, so maximizing it selects the same partitions.

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
    "EXACT_LIMIT",
    "SolverConfig",
    "enumerate_partitions",
    "partition_disagreements",
    "solve_exact",
    "pivot_kwikcluster",
    "local_search",
    "cap_clusters",
    "solve",
]

# Bell(12) ~ 4.2e6 partitions is the largest enumeration we accept.
EXACT_LIMIT = 12

# local search stops after this many sweeps of n moves
_MAX_PASSES = 50

# dense net matrices of the graphs solve() is working on, by graph id, so
# the pivot and local-search passes of all its restarts share one scatter;
# solve() drops its entry when it returns
_SOLVING: dict[int, np.ndarray] = {}


@dataclass(frozen=True)
class SolverConfig:
    max_clusters: int | None = None
    seed: int = 0
    restarts: int = 8

    def __post_init__(self):
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


def _net_matrix(graph: SignedGraph) -> np.ndarray:
    net = _SOLVING.get(id(graph))
    return graph.net_matrix() if net is None else net


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
    positive = _net_matrix(graph) > 0
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


def _gains(
    margins: np.ndarray,
    labels: np.ndarray,
    sizes: np.ndarray,
    empty: np.ndarray,
    spare: int | None,
) -> np.ndarray:
    """Objective change of moving each row's vertex to each column.

    The ``empty`` columns (clusters without members) are barred (inf),
    except ``spare``, the first of them (None once no new cluster may
    open), which stands for a new singleton and is open to every vertex
    that is not alone.  A vertex's own column is barred too.
    """
    rows = np.arange(labels.size)
    current = margins[rows, labels]
    delta = margins - current[:, None]
    delta[:, empty] = np.inf
    if spare is not None:
        movable = sizes[labels] > 1
        delta[movable, spare] = -current[movable]
    delta[rows, labels] = np.inf
    return delta


def local_search(
    graph: SignedGraph, start: Clustering, cfg: SolverConfig | None = None
) -> Clustering:
    """Best-single-vertex-move hill climbing from ``start``.

    Each step applies the globally best move of one vertex to an existing
    cluster or to a new singleton (new clusters are forbidden once
    ``max_clusters`` nonempty clusters exist).  Stops when no move
    improves the objective or after ``_MAX_PASSES`` sweeps of n moves.
    The objective never worsens.

    The margin matrix holds one column per cluster id in use plus one
    empty column, and grows (doubling) only when a move fills its last
    column, so a full pass costs O(n*k) for k clusters, not O(n^2).  The
    columns it leaves out are empty and never the first empty one, so in
    exact arithmetic the moves, and their tie-breaks, are those of an
    n-column matrix.  With float weights a product of another width can
    round differently in the last bit, and a near-tie can then break the
    other way.  Integer weights, or weights on a grid such as 1/64, keep
    every margin exact at any width.

    A move of v changes the margins only in the rows of v's neighbours
    (nonzero net weight), so the search keeps each vertex's best move and
    rescores, at O(deg(v)*k), only v, its neighbours, and the vertices
    whose cluster the move shrank to one member or grew to two (they
    lose or gain the new-singleton move).  It falls back to the full
    O(n*k) pass after a move that opens or closes a cluster, which shifts
    the columns of every row, and after a move of a vertex with more
    than n/2 neighbours; on a complete graph every move is of that kind.
    Both passes compute the same gains, so the moves are identical.
    """
    cfg = cfg or SolverConfig()
    if start.n != graph.n:
        raise ContractViolation("start clustering does not cover the graph")
    n = graph.n
    kmax = cfg.max_clusters if cfg.max_clusters is not None else n
    if start.k > kmax:
        raise ContractViolation(f"start has {start.k} clusters, limit is {kmax}")
    # margin[v, c] = cost of v sitting in cluster c, up to a per-vertex constant
    comargin = -_net_matrix(graph)
    # vertices whose moves touch most rows; a full pass is as cheap for them
    hub = (2 * np.count_nonzero(comargin, axis=1) > n).tolist()

    rows = np.arange(n)
    labels = start.assignment.astype(np.int64).copy()
    full = min(n, max(start.k + 1, kmax) + 1)
    ind = np.zeros((n, min(start.k + 1, full)))
    ind[rows, labels] = 1.0
    margins = comargin @ ind
    sizes = ind.sum(axis=0)

    tol = 1e-9
    moves_budget = _MAX_PASSES * n
    best_err = disagreement(Clustering(labels), graph)
    moves_done = 0
    # rows whose gains the last move changed; None asks for a full pass
    redo: np.ndarray | None = None
    gains = best = arg = None
    while moves_done < moves_budget:
        if redo is None:
            # occupied columns only, except one spare column acting as "new
            # cluster"; moves between the full passes leave both unchanged
            empty = np.flatnonzero(sizes == 0)
            spare = int(empty[0]) if sizes.size - empty.size < kmax and empty.size else None
            gains = _gains(margins, labels, sizes, empty, spare)
            v, target = divmod(int(np.argmin(gains)), gains.shape[1])
            gain = gains[v, target]
            best = None
        else:
            if best is None:
                # rows the last move left alone keep their gains from the full pass
                arg = gains.argmin(axis=1)
                best = gains[rows, arg]
                gains = None
            part = _gains(margins[redo], labels[redo], sizes, empty, spare)
            cols = part.argmin(axis=1)
            arg[redo] = cols
            best[redo] = part[np.arange(redo.size), cols]
            v = int(np.argmin(best))
            target = int(arg[v])
            gain = best[v]
        if not (gain < -tol):
            break
        old = labels[v]
        labels[v] = target
        # comargin is symmetric, and its row v is contiguous
        margins[:, old] -= comargin[v]
        margins[:, target] += comargin[v]
        sizes[old] -= 1
        sizes[target] += 1
        if hub[v] or sizes[old] == 0 or sizes[target] == 1:
            # a hub moved, or a cluster opened or closed, which moves the
            # barred and spare columns of every row
            redo = None
        else:
            touched = comargin[v] != 0
            touched[v] = True
            # members of a cluster now of one or two lose or gain the new-singleton move
            if sizes[old] == 1:
                touched |= labels == old
            if sizes[target] == 2:
                touched |= labels == target
            redo = np.flatnonzero(touched)
        if sizes[-1] > 0 and sizes.size < full:
            # keep an empty column in reach: the next "new cluster" target
            grow = min(sizes.size, full - sizes.size)
            margins = np.hstack([margins, np.zeros((n, grow))])
            sizes = np.concatenate([sizes, np.zeros(grow)])
        moves_done += 1
        if moves_done % n == 0:
            err_now = disagreement(Clustering(labels), graph)
            if not err_now <= best_err + 1e-6:
                raise AssertionError("local search must be monotone")
            best_err = err_now
    result = Clustering(labels)
    if result.k > kmax:
        raise AssertionError("local search exceeded max_clusters")
    return result


def cap_clusters(clustering: Clustering, kmax: int) -> Clustering:
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
    _SOLVING[id(graph)] = graph.net_matrix()
    try:
        for restart in range(cfg.restarts):
            rng = make_rng(cfg.seed, "pivot-restart", restart)
            cand = pivot_kwikcluster(graph, rng)
            if cfg.max_clusters is not None:
                cand = cap_clusters(cand, cfg.max_clusters)
            cand = local_search(graph, cand, cfg)
            err = disagreement(cand, graph)
            if err < best_err - 1e-12 or (
                abs(err - best_err) <= 1e-12 and best is not None and cand.key() < best.key()
            ):
                best, best_err = cand, err
    finally:
        _SOLVING.pop(id(graph), None)
    assert best is not None
    return best
