"""Shared generators for fuzz-style tests, and dense views used only by tests."""

import numpy as np

from privcc import Clustering, SignedGraph, WeightedChannel


def random_graph(
    rng,
    n,
    weighted=False,
    parallel=False,
    density=1.0,
    complete=False,
    integer_weights=False,
):
    pu, pv = np.triu_indices(n, 1)
    if not complete and density < 1.0:
        keep = rng.random(pu.size) < density
        pu, pv = pu[keep], pv[keep]
    m = pu.size
    if weighted:
        w = rng.integers(1, 6, size=m).astype(float) if integer_weights else rng.random(m) * 3
    else:
        w = np.ones(m)
    if parallel:
        w2 = rng.integers(1, 6, size=m).astype(float) if integer_weights else rng.random(m) * 3
        both = rng.random(m) < 0.4
        pos = np.where(rng.random(m) < 0.5, w, 0.0)
        neg = np.where(pos > 0, np.where(both, w2, 0.0), w)
        return SignedGraph(n, pu, pv, pos, neg)
    positive = rng.random(m) < 0.5
    pos = np.where(positive, w, 0.0)
    neg = np.where(positive, 0.0, w)
    return SignedGraph(n, pu, pv, pos, neg)


def random_clustering(rng, n, kmax=None):
    kmax = kmax or n
    k = int(rng.integers(1, kmax + 1))
    return Clustering(rng.integers(0, k, size=n))


def channel_matrix(graph, sign):
    """Dense symmetric n-by-n weight matrix of one sign channel of ``graph``."""
    w = graph.pos_w if sign == 1 else graph.neg_w
    m = np.zeros((graph.n, graph.n))
    m[graph.pair_u, graph.pair_v] = w
    m[graph.pair_v, graph.pair_u] = w
    return m


def channel_from_matrix(m):
    """The :class:`WeightedChannel` of a symmetric matrix's upper triangle."""
    m = np.asarray(m, dtype=np.float64)
    pu, pv = np.triu_indices(m.shape[0], 1)
    return WeightedChannel(m.shape[0], m[pu, pv])
