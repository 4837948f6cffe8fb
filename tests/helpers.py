"""Shared generators for fuzz-style tests, and dense views and reference samplers used only by tests."""

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


def cut_sizes(s_rows, t_rows):
    """Pairs with one end in S and the other in T, per (S, T) row, counted by brute force."""
    pu, pv = np.triu_indices(s_rows.shape[1], 1)
    return ((s_rows[:, pu] & t_rows[:, pv]) | (s_rows[:, pv] & t_rows[:, pu])).sum(axis=1)


def channel_from_matrix(m):
    """The :class:`WeightedChannel` of a symmetric matrix's upper triangle."""
    m = np.asarray(m, dtype=np.float64)
    pu, pv = np.triu_indices(m.shape[0], 1)
    return WeightedChannel(m.shape[0], m[pu, pv])


def packed_family_reference(n, budget, rng):
    """``CutFamily(n, budget, rng)``'s rows, drawn in its stream order and read plainly."""
    width = -(-n // 8)
    coloured = rng.random(budget) >= 0.5
    s_bytes = rng.integers(0, 256, size=(2 * budget, width), dtype=np.uint8)
    t_bytes = rng.integers(0, 256, size=(budget, width), dtype=np.uint8)
    colours = iter(rng.integers(0, 3, size=(int(coloured.sum()), n), dtype=np.int8))

    def bits(b):  # most significant bit first, as numpy.packbits lays them out
        return ((b[:, :, None] >> np.arange(7, -1, -1)) & 1).reshape(b.shape[0], -1)[:, :n] > 0

    s_rows = bits(s_bytes)
    t_rows = np.zeros_like(s_rows)
    t_rows[:budget] = bits(t_bytes)
    for i in np.flatnonzero(coloured):
        z = next(colours)
        s_rows[i], t_rows[i] = z == 0, z == 1
    t_rows[budget:] = ~s_rows[budget:]
    return s_rows, t_rows


def family_rows(family, rows):
    """The boolean (S, T) masks of a ``CutFamily``'s first ``rows`` rows, stacked."""
    return family.masks(slice(0, rows))
