"""Cluster coarsening and the vertex-splitting reduction.

Coarsening caps the cluster count of a solution: clusters smaller than
``n / k_prime`` are packed first-fit-decreasing into bins of capacity
``2n / k_prime`` and each bin merges into one cluster.  Large clusters
are kept as-is, so the result has at most ``2 * k_prime + 1`` clusters
(up to ``k_prime`` large ones plus at most ``k_prime + 1`` bins; the
often-quoted bound of ``k_prime`` total does not hold once large
clusters are counted).  The extra disagreement introduced is at most
``sum_bins C(bin_size, 2) * W`` for maximum edge weight W.

:func:`coarsen` is the construction of the paper's coarsening lemma, which
bounds what the cap costs; the pipeline searches the capped class directly
instead, with :func:`default_k_prime` as the solver's ``max_clusters``.

Vertex splitting turns a graph with parallel (one positive, one
negative) pair edges into an ordinary signed graph on 2n vertices:
positive edges connect the plus copies, negative edges the minus copies,
and each copy pair is tied by a heavy positive coupling edge whose
weight exceeds the total remaining weight, so optimal clusterings never
separate a copy pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import Clustering, ContractViolation, SignedGraph

__all__ = [
    "CoarsenReport",
    "default_k_prime",
    "coarsen",
    "split_transform",
    "unsplit",
    "contract_coupled",
]


@dataclass(frozen=True)
class CoarsenReport:
    k_before: int
    k_after: int
    bins: tuple[tuple[int, ...], ...] = field(default_factory=tuple)
    merge_cost_bound: float = 0.0


def default_k_prime(n: int) -> int:
    return max(1, math.ceil(n ** 0.25))


def coarsen(
    clustering: Clustering,
    n: int,
    k_prime: int | None = None,
    max_weight: float = 1.0,
) -> tuple[Clustering, CoarsenReport]:
    """Pack small clusters into capacity-bounded bins and merge each bin.

    Returns the coarsened clustering and a report with the bin layout and
    the worst-case extra disagreement ``sum_bins C(size, 2) * max_weight``.
    Inputs that already have at most ``k_prime`` clusters pass through
    unchanged.
    """
    if clustering.n != n:
        raise ContractViolation("clustering does not cover n vertices")
    if k_prime is None:
        k_prime = default_k_prime(n)
    if k_prime < 1:
        raise ContractViolation("k_prime must be >= 1")
    sizes = clustering.sizes()
    if sizes.max() > n:
        raise ContractViolation("cluster larger than the vertex set")
    if clustering.k <= k_prime:
        return clustering, CoarsenReport(clustering.k, clustering.k)

    threshold = n / k_prime
    capacity = 2 * n / k_prime
    small = [int(c) for c in range(clustering.k) if sizes[c] < threshold]
    # first-fit-decreasing; ties broken by cluster id for determinism
    small.sort(key=lambda c: (-sizes[c], c))
    bins: list[list[int]] = []
    bin_load: list[int] = []
    for c in small:
        for i, load in enumerate(bin_load):
            if load + sizes[c] <= capacity:
                bins[i].append(c)
                bin_load[i] += int(sizes[c])
                break
        else:
            bins.append([c])
            bin_load.append(int(sizes[c]))

    relabel = np.arange(clustering.k, dtype=np.int64)
    for i, members in enumerate(bins):
        for c in members:
            relabel[c] = clustering.k + i
    merged = Clustering(relabel[clustering.assignment])
    bound = float(sum(load * (load - 1) // 2 for load in bin_load) * max_weight)
    report = CoarsenReport(
        k_before=clustering.k,
        k_after=merged.k,
        bins=tuple(tuple(b) for b in bins),
        merge_cost_bound=bound,
    )
    return merged, report


# ---------------------------------------------------------------------------
# Vertex splitting


def split_transform(graph: SignedGraph) -> tuple[SignedGraph, np.ndarray]:
    """Split every vertex v into a plus copy v and a minus copy n + v.

    Positive edges are rewired onto plus copies, negative edges onto
    minus copies, and copies are tied by positive coupling edges of
    weight ``1 + total_weight`` (a finite stand-in for infinity: heavier
    than everything else combined).  Returns the 2n-vertex graph and an
    (n, 2) array mapping each original vertex to its two copies.
    """
    n = graph.n
    coupling = 1.0 + graph.total_weight
    copies = np.arange(n)
    pos = graph.pos_w > 0
    neg = graph.neg_w > 0
    u = np.concatenate([copies, graph.pair_u[pos], n + graph.pair_u[neg]])
    v = np.concatenate([n + copies, graph.pair_v[pos], n + graph.pair_v[neg]])
    pos_w = np.concatenate([np.full(n, coupling), graph.pos_w[pos], np.zeros(neg.sum())])
    neg_w = np.concatenate([np.zeros(n + pos.sum()), graph.neg_w[neg]])
    # coupling, plus-copy and minus-copy pairs never coincide: the keys are unique
    order = np.argsort(u * (2 * n) + v)
    mapping = np.column_stack([copies, copies + n])
    split = SignedGraph(2 * n, u[order], v[order], pos_w[order], neg_w[order])
    return split, mapping


def unsplit(clustering: Clustering, mapping: np.ndarray) -> Clustering:
    """Project a clustering of the split graph back to the original vertices.

    Each vertex takes the cluster of its plus copy.  If a solver
    separated some copy pair, the two clusters are unified (union of the
    conflicting cluster ids) before projecting, so the result is always a
    valid partition.
    """
    mapping = np.asarray(mapping)
    n = mapping.shape[0]
    if clustering.n != 2 * n:
        raise ContractViolation("clustering does not cover the split graph")
    # union-find over cluster ids to honor separated copy pairs
    parent = np.arange(clustering.k)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    a = clustering.assignment
    for plus, minus in mapping:
        ra, rb = find(int(a[plus])), find(int(a[minus]))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = np.array([find(int(c)) for c in range(clustering.k)])
    return Clustering(roots[a[mapping[:, 0]]])


def contract_coupled(graph: SignedGraph, mapping: np.ndarray) -> SignedGraph:
    """Glue each copy pair of a split graph back into one vertex.

    Inverse of :func:`split_transform` up to the coupling edges, which
    vanish: the result is the original parallel-edge graph, so solvers
    that handle parallel pairs natively can run on it directly instead of
    fighting the near-infinite couplings.
    """
    mapping = np.asarray(mapping)
    n = mapping.shape[0]
    if graph.n != 2 * n:
        raise ContractViolation("graph does not match the copy mapping")
    owner = np.empty(graph.n, dtype=np.int64)
    owner[mapping[:, 0]] = np.arange(n)
    owner[mapping[:, 1]] = np.arange(n)
    a, b = owner[graph.pair_u], owner[graph.pair_v]
    key = np.minimum(a, b) * n + np.maximum(a, b)
    pos = (a != b) & (graph.pos_w > 0)  # coupling edges vanish
    neg = (a != b) & (graph.neg_w > 0)
    keys, slot = np.unique(np.concatenate([key[pos], key[neg]]), return_inverse=True)
    pos_w = np.zeros(keys.size)
    neg_w = np.zeros(keys.size)
    pos_w[slot[: pos.sum()]] = graph.pos_w[pos]
    neg_w[slot[pos.sum() :]] = graph.neg_w[neg]
    # every edge fills a slot of its own unless two of one sign share a pair
    if np.count_nonzero(pos_w) + np.count_nonzero(neg_w) != slot.size:
        raise ContractViolation("two edges of one sign contract onto one pair")
    return SignedGraph(n, keys // n, keys % n, pos_w, neg_w)
