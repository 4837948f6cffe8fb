"""The solver stack: exhaustive oracle, random pivot, local search.

Compares the three on a batch of small random instances where the oracle
is affordable, then shows the cluster-count-capped variant.
"""

import numpy as np

from privcc import (
    Clustering,
    SignedGraph,
    SolverConfig,
    disagreement,
    local_search,
    make_rng,
    pivot_kwikcluster,
    solve,
    solve_exact,
)

rng = make_rng(555)


def random_complete(n):
    pu, pv = np.triu_indices(n, 1)
    pos = (rng.random(pu.size) < 0.5).astype(float)
    return SignedGraph(n, pu, pv, pos, 1.0 - pos)


print("== 30 random instances at n=10 ==")
pivot_ratios, ls_ratios = [], []
for i in range(30):
    g = random_complete(10)
    opt = disagreement(solve_exact(g), g)
    if opt == 0:
        continue
    pivots = [disagreement(pivot_kwikcluster(g, make_rng(556, i, r)), g) for r in range(50)]
    pivot_ratios.append(np.mean(pivots) / opt)
    refined = min(
        disagreement(local_search(g, pivot_kwikcluster(g, make_rng(557, i, r))), g)
        for r in range(8)
    )
    ls_ratios.append(refined / opt)
print("pivot mean-over-runs ratio:   avg %.2f, worst %.2f (expected <= 3)"
      % (np.mean(pivot_ratios), np.max(pivot_ratios)))
print("local search best-of-8 ratio: avg %.3f, worst %.2f"
      % (np.mean(ls_ratios), np.max(ls_ratios)))

print("\n== the dispatcher ==")
g = random_complete(11)
print("n=11 goes to the oracle:", solve(g) == solve_exact(g))
big = random_complete(60)
c = solve(big, seed=1)
print("n=60 via pivot + refinement: err", disagreement(c, big), "with", c.k, "clusters")

capped = solve(big, SolverConfig(max_clusters=3), seed=1)
print("same instance capped at 3 clusters: err", disagreement(capped, big),
      "with", capped.k, "clusters")

print("\n== determinism ==")
again = solve(big, seed=1)
print("same seed, same partition:", again == c)
