"""Private release of weighted or incomplete signed graphs.

The mechanism adds Lap(2/eps) once to the net weight ``W+ - W-`` of every
pair, zeroes the entries below ``2 ln(n) / eps`` in magnitude, and splits
the rest by sign into a graph with at most one edge per pair.  The net
weights are exactly what ``neighbor_distance`` measures, so the
sensitivity equals the neighbour bound of 2 and the draw spends all of eps.

The objective-transfer bound keeps its form: for any clustering into k
clusters the disagreement (and agreement) between the sign-split input
net and the output differ by at most ``k * (cut_distance(minus channels)
+ cut_distance(plus channels))``; the input itself differs from its
sign-split net by ``sum(min(pos, neg))`` on every clustering alike.

The threshold is post-processing, so privacy is unaffected.  Without it
the noise floor alone would inflate every cut by order n^2; with it,
sparse instances keep cut errors near linear in n.  Unbiasedness holds
for the noisy weights only, before thresholding.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import (
    ContractViolation,
    CutFamily,
    CutRows,
    PrivacyParams,
    ReleaseOutput,
    SignedGraph,
    WeightedChannel,
    canonical_pairs,
    laplace_scale,
)
from .release_unweighted import laplace_release

__all__ = [
    "release_weighted",
    "sampled_cut_distance",
    "sign_channels",
]

# The neighbour notion and sensitivity of this route: neighbours are graphs at
# ``neighbor_distance`` <= 2, i.e. whose per-pair net weights differ by at most
# 2 in L1, and the route releases exactly those net weights.
CHANNEL_SENSITIVITY = 2.0


def sign_channels(net: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat channels ``max(net, 0)`` and ``max(-net, 0)`` of a net vector.

    A pair carries weight in at most one of them.  The release splits its
    noisy net weights this way, and ``privcc audit-cuts`` the input's.
    """
    return np.maximum(net, 0.0), np.maximum(-net, 0.0)


def release_weighted(
    graph: SignedGraph,
    params: PrivacyParams,
    engine: str,
    rng: np.random.Generator,
    seed: int | None = None,
) -> tuple[SignedGraph, ReleaseOutput]:
    """eps-DP release of a weighted signed graph.

    The net weights get Lap(``CHANNEL_SENSITIVITY / eps``) per pair under
    ``engine`` (one of :data:`~privcc.graphs.ENGINES`) in one draw; entries
    with magnitude below ``scale * ln(max(n, 2))`` are zeroed, and the rest
    become a positive or a negative edge by their sign.  The route is pure
    Laplace, so the audit records delta 0 whatever ``params.delta`` asks for.
    """
    scale = laplace_scale(engine, CHANNEL_SENSITIVITY, params.epsilon)
    n = graph.n
    noisy = laplace_release(WeightedChannel.adopt(n, graph.net_flat()), scale, rng).values
    # a pair keeps an edge where its noisy net weight is nonzero and clears the threshold
    keep = np.flatnonzero((noisy != 0) & (np.abs(noisy) >= scale * math.log(max(n, 2))))
    noisy = noisy[keep]  # the full vector goes before the pair index is made
    pu, pv = canonical_pairs(n)
    released = SignedGraph(n, pu[keep], pv[keep], *sign_channels(noisy))
    audit = ReleaseOutput(
        mechanism=f"weighted-{engine}",
        epsilon=params.epsilon,
        delta=0.0,  # pure Laplace: a requested delta is not spent
        noise_scale=scale,
        channel_budgets=(params.epsilon,),
        seed=seed,
        private=scale > 0,
    )
    return released, audit


# ---------------------------------------------------------------------------
# Cut distance


_EXACT_LIMIT = 10  # vertex counts up to this take the exact subset DP
_ASCENT_STARTS = 1  # sampled rows a greedy ascent starts from, largest |cut| first


def sampled_cut_distance(
    a: WeightedChannel,
    b: WeightedChannel,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """Lower bound on the cut distance between two channels.

    For ``n <= _EXACT_LIMIT`` the maximum of |cut(a) - cut(b)| over all
    set pairs is computed exactly by enumeration (finding this maximum is
    a rugged search problem and sampling alone misses it on a few percent
    of instances even at n = 10).  Above that, the bound is
    :meth:`~privcc.graphs.CutFamily.deviation` of ``a - b`` over a family
    of ``2 * samples`` rows (the merge audit's estimator: every single
    pair's |gap| and every row's |cut sum|), raised by greedy vertex-state
    ascents from the family's top ``_ASCENT_STARTS`` rows.
    """
    if a.n != b.n:
        raise ContractViolation("channels must share a vertex count")
    if samples < 1:
        raise ContractViolation("need at least one sample")
    n = a.n
    gap = a.values - b.values
    if n <= _EXACT_LIMIT:
        return _exact_cut_distance(WeightedChannel.adopt(n, gap).matrix())
    family = CutFamily(n, samples, rng)
    diff = np.empty((n, n))
    best, starts = family.deviation(gap, diff, _ASCENT_STARTS)
    for s, t in zip(*family.masks(starts)):
        best = max(best, _ascend(diff, s, t))
    return best


def _exact_cut_distance(diff: np.ndarray) -> float:
    """Max |counted-once cut| over all set pairs by subset dynamic programming."""
    n = diff.shape[0]
    size = 1 << n
    all_masks = np.arange(size)
    masks = ((all_masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    # inner[U] = total pair weight inside U; each mask settles at its top bit
    inner = np.zeros(size)
    for v in range(n):
        bit = 1 << v
        subs = all_masks[(all_masks & bit) != 0]
        row = masks[subs] @ diff[v]  # includes v itself, but diff[v, v] = 0
        inner[subs] = inner[subs ^ bit] + row
    cross = (masks @ diff) @ masks.T
    best = 0.0
    for i in range(size):
        vals = np.abs(cross[i] - inner[all_masks & i])
        best = max(best, float(vals.max()))
    return best


def _ascend(diff: np.ndarray, s: np.ndarray, t: np.ndarray):
    """Greedy best-improvement ascent of |cut value| over vertex states.

    Each vertex is in one of four states (outside, S only, T only, both);
    a move reassigns one vertex to its best state.  A pair contributes to
    the cut value unless some endpoint is outside or both endpoints sit
    in the same single set.  Returns the value at the local maximum.
    """
    n = diff.shape[0]
    in_s = s.copy()
    in_t = t.copy()
    # per-vertex sums of diff against the three occupied state classes
    only_s = (in_s & ~in_t).astype(np.float64)
    only_t = (in_t & ~in_s).astype(np.float64)
    both = (in_s & in_t).astype(np.float64)
    sum_s = diff @ only_s
    sum_t = diff @ only_t
    sum_b = diff @ both
    f = float(CutRows(in_s[None], in_t[None]).sums(diff)[0])
    best = abs(f)
    for _ in range(8 * n):
        # contribution of each vertex if placed into each state
        contrib = np.stack(
            [
                np.zeros(n),
                sum_t + sum_b,  # state S: pairs against T-only and both
                sum_s + sum_b,  # state T
                sum_s + sum_t + sum_b,  # state both
            ]
        )
        state = in_s.astype(int) + 2 * in_t.astype(int)
        current = contrib[state, np.arange(n)]
        gains = np.abs(f + (contrib - current[None, :]))
        pick = int(np.argmax(gains))
        new_state, u = divmod(pick, n)
        if gains[new_state, u] <= best + 1e-12:
            break
        old_state = int(state[u])
        f += contrib[new_state, u] - contrib[old_state, u]
        best = abs(f)
        col = diff[:, u]
        for vec, st in ((sum_s, 1), (sum_t, 2), (sum_b, 3)):
            if old_state == st:
                vec -= col
            if new_state == st:
                vec += col
        in_s[u] = new_state in (1, 3)
        in_t[u] = new_state in (2, 3)
    return best
