"""Cluster coarsening and the vertex-splitting reduction.

Coarsening caps the cluster count of a solution: clusters smaller than
``n / k_prime`` are packed first-fit-decreasing into bins of capacity
``2n / k_prime`` and each bin merges into one cluster.  Large clusters
are kept as-is, so the result has at most ``2 * k_prime + 1`` clusters
(up to ``k_prime`` large ones plus at most ``k_prime + 1`` bins; the
often-quoted bound of ``k_prime`` total does not hold once large
clusters are counted).  The extra disagreement introduced is at most
``sum_bins C(bin_size, 2) * W`` for maximum edge weight W.

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

    def to_dict(self) -> dict:
        return {
            "k_before": self.k_before,
            "k_after": self.k_after,
            "bins": [list(b) for b in self.bins],
            "merge_cost_bound": self.merge_cost_bound,
        }


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
    edges: list[tuple[int, int, int, float]] = []
    for v in range(n):
        edges.append((v, n + v, 1, coupling))
    for u, v, sign, w in graph.iter_edges():
        if sign == 1:
            edges.append((u, v, 1, w))
        else:
            edges.append((n + u, n + v, -1, w))
    mapping = np.column_stack([np.arange(n), np.arange(n) + n])
    return SignedGraph.from_edges(2 * n, edges), mapping


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
    edges = []
    for u, v, sign, w in graph.iter_edges():
        a, b = int(owner[u]), int(owner[v])
        if a == b:
            continue  # coupling edge
        edges.append((a, b, sign, w))
    return SignedGraph.from_edges(n, edges)
