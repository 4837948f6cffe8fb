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

Nothing persists between calls: :func:`solve` prepares the negated net
matrix once and hands it to each restart's pivot and local-search passes
as an argument, and a call made without it prepares its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

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


# ---------------------------------------------------------------------------
# Pivot greedy


def pivot_kwikcluster(
    graph: SignedGraph, rng: np.random.Generator, *, prepared: _Prepared | None = None
) -> Clustering:
    """Random-pivot greedy clustering.

    Repeatedly picks a uniformly random unclustered vertex, forms a
    cluster from it and its unclustered positive neighbors, and removes
    them.  An edge counts as positive when its net weight (positive minus
    negative channel) is strictly greater than zero, so graphs with
    parallel edges, which ``privcc cluster`` may read from a file, feed in
    directly.  ``prepared`` is
    ``_prepare(graph)``, made here when not given.
    """
    n = graph.n
    # the negated matrix is below 0 exactly where the net weight is above 0
    positive = (prepared or _prepare(graph)).comargin < 0
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


class _Prepared(NamedTuple):
    """What :func:`_prepare` computes once per graph."""

    comargin: np.ndarray
    hub: list[bool]
    near: list[np.ndarray | None]


def _prepare(graph: SignedGraph) -> _Prepared:
    """The negated net matrix and the rows each vertex's move touches.

    ``comargin`` is the net matrix negated in place, so that a vertex's
    margin in a cluster is the sum of its row over the members.  A hub has
    nonzero net weight to more than half the vertices; its moves take the
    full pass, which costs no more than rescoring its rows.  Every other
    vertex keeps the sorted indices of itself and its neighbours, the
    rows whose margins its move changes.
    """
    comargin = graph.net_matrix()
    np.negative(comargin, out=comargin)
    nonzero = comargin != 0
    hub = (2 * np.count_nonzero(nonzero, axis=1) > graph.n).tolist()
    np.fill_diagonal(nonzero, True)
    near = [None if h else np.flatnonzero(row) for h, row in zip(hub, nonzero)]
    return _Prepared(comargin, hub, near)


def _layout(sizes: list[int], kmax: int) -> tuple[int, np.ndarray, int | None]:
    """Live width, barred columns and spare column of the margin matrix.

    The spare is the first empty column while fewer than ``kmax`` clusters
    are occupied, else None; the other empty columns are barred.  Columns
    past the last occupied or spare one are barred too, and left out: the
    live width ends there.
    """
    empty = [c for c, s in enumerate(sizes) if s == 0]
    spare = empty[0] if empty and len(sizes) - len(empty) < kmax else None
    live = len(sizes)
    while sizes[live - 1] == 0 and live - 1 != spare:
        live -= 1
    barred = np.array([c for c in empty if c < live and c != spare], dtype=np.intp)
    return live, barred, spare


def _gains(
    margins: np.ndarray,
    current: np.ndarray,
    own: np.ndarray | None,
    alone: np.ndarray,
    barred: np.ndarray,
    spare: int | None,
    order: str,
) -> np.ndarray:
    """Objective change of moving each row's vertex to each column.

    ``margins`` holds the rows and columns to score, and ``current`` each
    row's margin in its own cluster; the gains come out in memory
    ``order``, "C" (row-major) or "F" (column-major).  The ``barred``
    columns score inf.  ``spare`` (None once no new cluster may open) is
    an empty column that stands for a new singleton: a move there gains
    minus the current margin, and is barred to a vertex ``alone`` in its
    cluster.  Each row's own entry is barred too: ``own`` holds their
    flat positions in that order, or is None when no row's own column is
    among those scored.
    """
    delta = np.subtract(margins, current[:, None], order=order)
    if barred.size:
        delta[:, barred] = np.inf
    if spare is not None:
        column = delta[:, spare]
        np.negative(current, out=column)
        column[alone] = np.inf
    if own is not None:
        delta.ravel(order=order)[own] = np.inf
    return delta


def local_search(
    graph: SignedGraph,
    start: Clustering,
    cfg: SolverConfig | None = None,
    *,
    prepared: _Prepared | None = None,
) -> Clustering:
    """Best-single-vertex-move hill climbing from ``start``.

    Each step applies the globally best move of one vertex to an existing
    cluster or to a new singleton (new clusters are forbidden once
    ``max_clusters`` nonempty clusters exist).  Stops when no move
    improves the objective or after ``_MAX_PASSES`` sweeps of n moves.
    The objective never worsens.

    The margin matrix holds one column per cluster id in use plus one
    empty column, and grows (doubling) only when a move fills its last
    column.  A full pass scores only the live columns, up to the last
    occupied or spare one, so it costs O(n*k) for k clusters, not
    O(n^2).  The columns it leaves out are empty and never the first
    empty one, so in exact arithmetic the moves, and their tie-breaks,
    are those of an n-column matrix.  With float weights a product of
    another width can round differently in the last bit, and a near-tie
    can then break the other way.  Integer weights, or weights on a grid
    such as 1/64, keep every margin exact at any width.

    A move of v changes the margins only in the rows of v's neighbours
    (nonzero net weight), so the search keeps each vertex's best move and
    rescores, at O(deg(v)*k), only v, its neighbours, and the vertices
    whose cluster the move shrank to one member or grew to two (they
    lose or gain the new-singleton move).  A move that opens or closes a
    cluster also changes, for every row, which columns are barred and
    which is spare.  That touches at most four columns: the old and
    target clusters, and the spare before and after.  A row whose kept
    best move is in one of them is rescored; any other row compares its
    kept best with those columns alone, the lower column winning a tie.
    The move of a vertex with more than n/2 neighbours takes a full pass
    instead; on a complete graph every move is of that kind.  Every pass
    computes the same gains, so the moves are identical.

    ``prepared`` is ``_prepare(graph)``, made here when not given.
    """
    cfg = cfg or SolverConfig()
    if start.n != graph.n:
        raise ContractViolation("start clustering does not cover the graph")
    n = graph.n
    kmax = cfg.max_clusters if cfg.max_clusters is not None else n
    if start.k > kmax:
        raise ContractViolation(f"start has {start.k} clusters, limit is {kmax}")
    # margin[v, c] = cost of v sitting in cluster c, up to a per-vertex constant
    comargin, hub, near = prepared or _prepare(graph)

    rows = np.arange(n)
    labels = start.assignment.astype(np.int64)
    full = min(n, max(start.k + 1, kmax) + 1)
    ind = np.zeros((n, min(start.k + 1, full)))
    ind[rows, labels] = 1.0
    # column-major, so that a move's column updates and a pass's
    # subtraction run along contiguous memory
    margins = np.asfortranarray(comargin @ ind)
    sizes = np.bincount(labels, minlength=ind.shape[1]).tolist()
    alone = np.array(sizes)[labels] == 1
    # flat positions of each vertex's own entry in the column-major margins
    own = labels * n + rows
    live, barred, spare = _layout(sizes, kmax)

    tol = 1e-9
    moves_budget = _MAX_PASSES * n
    best_err = None  # the start's objective, scored when the first check runs
    moves_done = 0
    # rows whose gains the last move changed (None asks for a full pass),
    # and the columns whose layout it changed for every row
    redo: np.ndarray | None = None
    changed: list[int] = []
    gains = best = arg = None
    while moves_done < moves_budget:
        if redo is None:
            current = margins.ravel(order="F")[own]
            gains = _gains(margins[:, :live], current, own, alone, barred, spare, "F")
            v, target = divmod(int(gains.argmin()), live)
            gain = gains[v, target]
            best = None
        else:
            if best is None:
                # rows the last move left alone keep their gains from the full pass
                arg = gains.argmin(axis=1)
                best = gains[rows, arg]
                gains = None
            if changed:
                # a row whose best move was in a changed column is rescored;
                # any other keeps it unless a changed column now beats it.
                # No row outside the rescored ones has its own column there.
                hit = np.zeros(n, dtype=bool)
                hit[redo] = True
                for c in changed:
                    hit |= arg == c
                redo, keep = np.flatnonzero(hit), np.flatnonzero(~hit)
                cols = [c for c in changed if c < live]
                if cols and keep.size:
                    part = _gains(
                        margins[np.ix_(keep, cols)], margins[keep, labels[keep]], None,
                        alone[keep],
                        np.array([i for i, c in enumerate(cols) if c != spare and sizes[c] == 0],
                                 dtype=np.intp),
                        cols.index(spare) if spare in cols else None, "C",
                    )
                    at = part.argmin(axis=1)
                    val, col = part[np.arange(keep.size), at], np.array(cols)[at]
                    kept = best[keep]
                    wins = (val < kept) | ((val == kept) & (col < arg[keep]))
                    best[keep[wins]], arg[keep[wins]] = val[wins], col[wins]
            at = np.arange(redo.size)
            mine = labels[redo]
            part = _gains(
                margins[redo, :live], margins[redo, mine], at * live + mine,
                alone[redo], barred, spare, "C",
            )
            cols = part.argmin(axis=1)
            arg[redo] = cols
            best[redo] = part[at, cols]
            v = int(np.argmin(best))
            target = int(arg[v])
            gain = best[v]
        if not (gain < -tol):
            break
        old = int(labels[v])
        labels[v] = target
        own[v] = target * n + v
        # comargin is symmetric, and its row v is contiguous like a margin column
        margins[:, old] -= comargin[v]
        margins[:, target] += comargin[v]
        sizes[old] -= 1
        sizes[target] += 1
        # members of a cluster now of one or two lose or gain the new-singleton move
        alone[v] = sizes[target] == 1
        flipped = []
        if sizes[old] == 1:
            flipped.append(np.flatnonzero(labels == old))
            alone[flipped[-1]] = True
        if sizes[target] == 2:
            flipped.append(np.flatnonzero(labels == target))
            alone[flipped[-1]] = False
        changed = []
        if sizes[old] == 0 or sizes[target] == 1:
            # a cluster closed or opened: the barred and spare columns move
            if sizes[-1] > 0 and len(sizes) < full:
                # keep an empty column in reach: the next "new cluster" target
                grow = min(len(sizes), full - len(sizes))
                margins = np.asfortranarray(np.hstack([margins, np.zeros((n, grow))]))
                sizes += [0] * grow
            before = spare
            live, barred, spare = _layout(sizes, kmax)
            changed = sorted({before, spare, old if sizes[old] == 0 else target} - {None})
        if hub[v]:
            redo = None
        else:
            redo = np.concatenate([near[v], *flipped]) if flipped else near[v]
        moves_done += 1
        if moves_done % n == 0:
            if best_err is None:
                best_err = disagreement(start, graph)
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
    if kmax < 1:
        raise ContractViolation(f"kmax must be >= 1, got {kmax}")
    if clustering.k <= kmax:
        return clustering
    sizes = clustering.sizes()
    order = np.argsort(-sizes, kind="stable")
    keep = set(order[: kmax - 1].tolist())
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
    # one negated net matrix for the pivot and local-search passes of every restart
    prepared = _prepare(graph)
    for restart in range(cfg.restarts):
        rng = make_rng(cfg.seed, "pivot-restart", restart)
        cand = pivot_kwikcluster(graph, rng, prepared=prepared)
        if cfg.max_clusters is not None:
            cand = cap_clusters(cand, cfg.max_clusters)
        cand = local_search(graph, cand, cfg, prepared=prepared)
        err = disagreement(cand, graph)
        if err < best_err - 1e-12 or (
            abs(err - best_err) <= 1e-12 and best is not None and cand.key() < best.key()
        ):
            best, best_err = cand, err
    assert best is not None
    return best
