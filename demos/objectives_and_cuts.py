"""Signed graphs, clustering objectives, and cut arithmetic.

Walks through the data model on a toy triangle and then checks the two
identities everything else leans on: disagreement and agreement always
sum to the total edge weight, and disagreement decomposes into
per-cluster cut terms.
"""

import numpy as np

from privcc import (
    Clustering,
    SignedGraph,
    agreement,
    disagreement,
    disagreement_cut_form,
    make_rng,
    neighbor_distance,
    signed_cut_weight,
    split_signs,
)

print("== a triangle with one hostile pair ==")
g = SignedGraph.from_edges(
    3, [(0, 1, 1, 1.0), (0, 2, 1, 1.0), (1, 2, -1, 1.0)]
)
everyone = Clustering.one_cluster(3)
print("one cluster:    err =", disagreement(everyone, g), " agr =", agreement(everyone, g))
split = Clustering.from_sets(3, [[0, 1], [2]])
print("split off v2:   err =", disagreement(split, g), " agr =", agreement(split, g))
print("total weight:   ", g.total_weight, "(err + agr in both cases)")

print("\n== cuts ==")
print("positive weight inside {0,1,2}:", signed_cut_weight(g, [0, 1, 2], [0, 1, 2], 1))
print("negative weight across {1}|{2}:", signed_cut_weight(g, [1], [2], -1))
print("cut-form disagreement matches:", disagreement_cut_form(everyone, g))

print("\n== channels and neighbors ==")
gp, gm = split_signs(g)
print("positive channel weight:", gp.total_weight, " negative:", gm.total_weight)
flipped = SignedGraph.from_edges(
    3, [(0, 1, -1, 1.0), (0, 2, 1, 1.0), (1, 2, -1, 1.0)]
)
print("distance after one sign flip:", neighbor_distance(g, flipped), "(<= 2 means neighbors)")

print("\n== conservation under fuzz ==")
rng = make_rng(7)
worst = 0.0
for _ in range(2000):
    n = int(rng.integers(2, 12))
    pu, pv = np.triu_indices(n, 1)
    w = rng.random(pu.size) * 3
    pos = np.where(rng.random(pu.size) < 0.5, w, 0.0)
    neg = np.where(pos > 0, 0.0, w)
    graph = SignedGraph(n, pu, pv, pos, neg)
    c = Clustering(rng.integers(0, n, size=n))
    worst = max(worst, abs(disagreement(c, graph) + agreement(c, graph) - graph.total_weight))
print("largest |err + agr - total| over 2000 random cases:", worst)
