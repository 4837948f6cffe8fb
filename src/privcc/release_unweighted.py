"""Private release of unweighted complete signed graphs.

Three stages, privacy carried entirely by the first:

1. :func:`laplace_release` returns each sign channel with independent
   Laplace noise added to every pair, at the scale the ``engine`` gives
   (:func:`~privcc.graphs.laplace_scale`).  Flipping one edge moves one
   coordinate of each channel by 1, so ``laplace`` noise at scale
   ``1 / (eps/2)`` per channel makes the pair of channel releases eps-DP
   jointly; ``zero-noise-test`` adds none and is not private.
2. :func:`solve_merge_lp` merges the two noisy channels into edge
   probabilities ``x in [0, 1]`` by approximately minimizing the largest
   deviation between cut sums of x and cut sums of the noisy positive
   channel (and of ``1 - x`` against the negative channel) over a sampled
   constraint family: every singleton pair, random (S, T) set pairs (both
   overlapping and disjoint kinds), and random complement pairs
   (S, V minus S).  :class:`MergeConfig` ``strategy="per-edge"`` keeps
   the singleton-only solution instead.
3. :func:`round_to_signed` rounds independently, edge positive with
   probability ``x_e``.

Stages 2 and 3 never see the input graph; their signatures only accept
the released channels, so anything they compute is post-processing.

The merge solver is projected subgradient descent on the maximum
violation.  Steps project onto the violated constraint's halfspace
(subgradient scaled by violation over squared gradient norm) with a
``1/sqrt(t)`` relaxation schedule, iterates clamped to the box; the best
iterate by training violation is kept.  The reported residual ``lambda``
is audited on a freshly sampled constraint family, never the training
one (see the audit below).

The training cut sums are kept between iterations.  A cut step moves x
by the same amount on every pair meeting the cut, so when the clamp
moves no pair each cut sum changes by that amount times the pairs its
cut shares with the stepped one (:meth:`CutRows.shared_pairs`, three
thin products instead of one with an n-by-n matrix).  The sums are
recomputed in full after a step the clamp cut short, after a pair step,
and every ``_RESYNC`` iterations, which bounds float drift.

The loop keeps the last stepped row's step data: the indices of the
pairs meeting its cut here, its shared-pair counts in
:meth:`CutRows.shared_pairs`.  Both depend on the row alone, and on
noisy instances the loop steps one row most of the time (one complement
cut took 154-290 of 300 steps in the benchmark's planted n=200 cells),
so a repeated step costs one clip and one axpy instead of a pass over
every pair and three products.  The indices address x in the order the
boolean mask did, so x is the same bit for bit.

The audit family comes from a stream of its own,
``Generator(rng.bit_generator.jumped())``, which leaves ``rng`` where it
was, so the released graph does not depend on the audit's budget or
sampler.  It is a :class:`~privcc.graphs.CutFamily`: the training
family's distribution, drawn as packed bits and summed a block of rows
at a time, so its 8n rows take O(block * n) float memory.  lambda is the
larger of two :meth:`~privcc.graphs.CutFamily.deviation` readings, of
``x - W+`` and of ``(1 - x) - W-``, each written onto the merge's one
n-by-n buffer: the cut sum is linear, so two passes do the work of one
each for x, W+ and W-.  Each pass sums the family in float32, in that
buffer's own bytes, with a per-row forward error bound, and re-sums in
float64 only the blocks holding a row that can reach the largest |cut|,
so lambda is the float64 kernel's value bit for bit; on planted
instances of n = 200 to 1200 that is one or two blocks per pass.
:func:`~privcc.release_weighted.sampled_cut_distance` reads its channel
difference through the same estimator.

The training family keeps its row-by-row draw
(:func:`_sample_set_pairs`), here with the loop, whose trajectory
follows that stream: a packed training family changed the benchmark's
planted n=200 runs from -21% to +53% in full cut-sum recomputes per cell
across four seeds, which would make their time depend on the seed's
luck.  Both samplers stay until the training loop itself goes.
"""

from __future__ import annotations

from dataclasses import dataclass

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

__all__ = [
    "MergeSolution",
    "MergeConfig",
    "laplace_release",
    "solve_merge_lp",
    "round_to_signed",
    "release_unweighted",
]

_PATIENCE = 300  # merge solver stops after this many non-improving iterations
_RESYNC = 50  # cut sums are recomputed exactly at least this often
CHANNEL_SENSITIVITY = 1.0  # flipping one edge moves each 0/1 channel by 1


@dataclass(frozen=True)
class MergeSolution:
    """Edge probabilities with an honestly audited residual."""

    x: np.ndarray  # flat per-pair probabilities in [0, 1]
    lam: float  # max violation on a fresh constraint sample
    strategy: str
    constraints_checked: int = 0
    iterations_run: int = 0
    stop: str = "per-edge"  # why training ended: "patience", "budget" or "per-edge"
    best_iteration: int = 0  # steps taken to reach x; 0 is the per-edge start
    training_lambda: float | None = None  # max violation of x on the training family


@dataclass(frozen=True)
class MergeConfig:
    strategy: str = "sampled-lp"  # or "per-edge"
    constraint_budget: int | None = None  # default 4n
    iterations: int = 2000

    def __post_init__(self):
        if self.strategy not in ("sampled-lp", "per-edge"):
            raise ContractViolation(f"unknown merge strategy {self.strategy!r}")
        if self.constraint_budget is not None and self.constraint_budget < 1:
            raise ContractViolation("constraint_budget must be >= 1")
        if self.iterations < 1:
            raise ContractViolation("iterations must be >= 1")


def laplace_release(
    channel_weights: WeightedChannel,
    noise_scale: float,
    rng: np.random.Generator,
) -> WeightedChannel:
    """Return the channel with Lap(noise_scale) added to every pair weight.

    Unbiased: the expected weight of any pair set equals its true weight.
    ``noise_scale == 0`` is the deterministic test mode (not private), and
    returns the channel itself; negative scales are rejected.  The sum is
    written into the fresh draw, which the returned channel keeps.  Both
    release routes noise through here.
    """
    if noise_scale < 0:
        raise ContractViolation(f"noise scale must be >= 0, got {noise_scale}")
    if noise_scale == 0:
        return channel_weights
    noisy = rng.laplace(0.0, noise_scale, size=channel_weights.values.size)
    noisy += channel_weights.values
    return WeightedChannel.adopt(channel_weights.n, noisy)


# ---------------------------------------------------------------------------
# Merge step


def _sample_set_pairs(n: int, budget: int, rng: np.random.Generator):
    """Random (S, T) rows: budget mixed overlapping/disjoint + budget complements.

    A mixed row is, with probability 1/2, independent Bernoulli(1/2) sets
    S and T, and otherwise classes 0 and 1 of a uniform 3-colouring; a
    complement row is a Bernoulli(1/2) S and T = V minus S.  Drawn one
    row at a time: this is the training family, whose stream the merge's
    trajectory depends on.
    """
    s_rows = np.zeros((2 * budget, n), dtype=bool)
    t_rows = np.zeros((2 * budget, n), dtype=bool)
    for i in range(budget):
        if rng.random() < 0.5:
            s_rows[i] = rng.random(n) < 0.5
            t_rows[i] = rng.random(n) < 0.5
        else:
            z = rng.integers(0, 3, size=n)
            s_rows[i] = z == 0
            t_rows[i] = z == 1
    s_rows[budget:] = rng.random((budget, n)) < 0.5
    t_rows[budget:] = ~s_rows[budget:]
    return s_rows, t_rows


def _max_violation(pair_plus, pair_minus, cut_plus, cut_minus):
    """Largest absolute residual over singleton pairs and cut rows.

    The four residuals are ``x - W+`` and ``(1 - x) - W-`` per pair in
    canonical pair order, and ``cut(x) - cut(W+)`` and
    ``(size - cut(x)) - cut(W-)`` per cut row.  Returns (lambda, kind,
    index, signed residual); kind is 'pair+', 'pair-', 'cut+' or 'cut-'.
    """
    cands = (
        ("pair+", pair_plus),
        ("pair-", pair_minus),
        ("cut+", cut_plus),
        ("cut-", cut_minus),
    )
    best = ("pair+", 0, 0.0, -1.0)
    for kind, res in cands:
        if res.size == 0:  # n = 1 has no pairs
            continue
        i = int(np.argmax(np.abs(res)))
        v = float(abs(res[i]))
        if v > best[3]:
            best = (kind, i, float(res[i]), v)
    kind, idx, signed, lam = best
    return lam, kind, idx, signed


def solve_merge_lp(
    wplus: WeightedChannel,
    wminus: WeightedChannel,
    constraint_budget: int | None,
    rng: np.random.Generator,
    iterations: int = MergeConfig.iterations,
    strategy: str = MergeConfig.strategy,
) -> MergeSolution:
    """Merge two noisy channels into edge probabilities.

    ``constraint_budget`` counts the random (S, T) rows and, separately,
    the random complement rows (default 4n each, at least 1).  Strategy
    ``"per-edge"`` stops at the per-edge rule
    ``x = clip((W+ + 1 - W-) / 2, 0, 1)``, the exact solution of the
    singleton-only problem; ``"sampled-lp"`` refines it by subgradient
    descent on the sampled family.  The returned ``lam`` is the maximum
    violation over a fresh constraint sample of the same budget; the
    returned x is the best iterate, reached after ``best_iteration`` steps,
    at training violation ``training_lambda`` (``None`` for per-edge).
    """
    if wplus.n != wminus.n:
        raise ContractViolation("channels must share a vertex count")
    # refuses exactly what the config refuses
    MergeConfig(strategy=strategy, constraint_budget=constraint_budget, iterations=iterations)
    n = wplus.n
    if constraint_budget is None:
        constraint_budget = 4 * n
    wp, wm = wplus.values, wminus.values
    iu, iv = canonical_pairs(n)
    x_mat = np.zeros((n, n))  # the one dense pair matrix, rewritten in place

    def pair_matrix(values):
        x_mat[iu, iv] = values
        x_mat[iv, iu] = values
        return x_mat

    x = np.clip((wp + 1.0 - wm) / 2.0, 0.0, 1.0)
    iterations_run = 0
    stop = "per-edge"
    best_iteration = 0
    best_lam = None

    if strategy == "sampled-lp":
        rows = CutRows(*_sample_set_pairs(n, constraint_budget, rng))
        tp, tm = rows.sums(pair_matrix(wp)), rows.sums(pair_matrix(wm))
        cs = rows.sums(pair_matrix(x))
        best_lam = np.inf
        best_x = x.copy()
        stale = 0
        stepped = (-1, None)  # the last stepped cut row and the pairs meeting its cut
        stop = "budget"
        for t in range(1, iterations + 1):
            lam, kind, idx, signed = _max_violation(
                x - wp, (1.0 - x) - wm, cs - tp, (rows.sizes - cs) - tm
            )
            if not np.isfinite(best_lam) or lam < best_lam - 1e-6 * max(best_lam, 1.0):
                best_lam = lam
                best_x = x.copy()
                best_iteration = t - 1
                stale = 0
            else:
                stale += 1
                if stale >= _PATIENCE:
                    stop = "patience"
                    break
            iterations_run = t
            step = t ** -0.5  # relaxation on the exact halfspace projection
            if kind.startswith("pair"):
                delta = signed if kind == "pair+" else -signed
                x[idx] = np.clip(x[idx] - step * delta, 0.0, 1.0)
                full = True
            else:
                if stepped[0] != idx:
                    # the gradient is 1 on pairs meeting the cut and 0 elsewhere
                    s, tt = rows.s[idx] > 0, rows.t[idx] > 0
                    stepped = (idx, np.flatnonzero((s[iu] & tt[iv]) | (s[iv] & tt[iu])))
                hit = stepped[1]
                delta = signed if kind == "cut+" else -signed
                shift = step * delta / max(rows.sizes[idx], 1.0)
                moved = x[hit] - shift
                kept = np.clip(moved, 0.0, 1.0)
                x[hit] = kept
                full = not np.array_equal(kept, moved)  # the clamp moved a pair
                if not full:
                    cs -= shift * rows.shared_pairs(idx)
            if full or t % _RESYNC == 0:
                cs = rows.sums(pair_matrix(x))
        x = best_x

    # honest audit: fresh constraints, never the training family, drawn from
    # a stream of their own so that rng's later draws do not depend on them
    audit_rng = np.random.Generator(rng.bit_generator.jumped())
    family = CutFamily(n, constraint_budget, audit_rng)
    # each residual in turn fills x_mat and takes its own pass over the family,
    # and res holds one per-pair residual at a time
    res = np.subtract(x, wp)
    lam = family.deviation(res, x_mat)[0]
    np.subtract(1.0, x, out=res)
    res -= wm  # the minus channel's residual (1 - x) - W-
    lam = max(lam, family.deviation(res, x_mat)[0])
    return MergeSolution(
        x=x,
        lam=lam,
        strategy=strategy,
        constraints_checked=2 * iu.size + 4 * constraint_budget,
        iterations_run=iterations_run,
        stop=stop,
        best_iteration=best_iteration,
        training_lambda=best_lam,
    )


def round_to_signed(solution: MergeSolution, rng: np.random.Generator) -> SignedGraph:
    """Independently round edge probabilities to a complete signed graph."""
    x = np.asarray(solution.x, dtype=np.float64)
    m = x.size
    n = round((1 + np.sqrt(1 + 8 * m)) / 2)
    if n * (n - 1) // 2 != m:
        raise ContractViolation("probability vector does not cover all pairs")
    return SignedGraph.complete_unweighted(n, rng.random(m) < x)


# ---------------------------------------------------------------------------
# Whole mechanism


def release_unweighted(
    graph: SignedGraph,
    params: PrivacyParams,
    merge: MergeConfig | None = None,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
    engine: str = "laplace",
) -> tuple[SignedGraph, ReleaseOutput]:
    """eps-DP synthetic release of an unweighted complete signed graph.

    Noises both sign channels under ``engine`` (one of
    :data:`~privcc.graphs.ENGINES`) at ``CHANNEL_SENSITIVITY / (eps/2)``
    per pair, plus channel first, merges them into edge probabilities
    under ``merge`` (default :class:`MergeConfig`), and rounds.
    Everything after the noising is post-processing.  ``seed`` is only
    recorded in the audit.  With the ``zero-noise-test`` engine the output
    equals the input; that mode exists for pipeline tests and is flagged
    non-private in the audit metadata.
    """
    merge = merge or MergeConfig()
    if rng is None:
        raise ContractViolation("an explicit rng is required")
    if not graph.complete or not graph.is_unweighted:
        raise ContractViolation("release_unweighted needs an unweighted complete graph")
    if params.delta != 0:
        raise ContractViolation("this mechanism is pure DP; delta must be 0")
    half = params.split(2)
    scale = laplace_scale(engine, CHANNEL_SENSITIVITY, half.epsilon)
    # a complete graph's read-only weights are its channels, flat in canonical order
    noisy = [
        laplace_release(WeightedChannel.adopt(graph.n, w), scale, rng)
        for w in (graph.pos_w, graph.neg_w)
    ]
    solution = solve_merge_lp(
        *noisy,
        merge.constraint_budget,
        rng,
        iterations=merge.iterations,
        strategy=merge.strategy,
    )
    del noisy  # the rounding needs x alone
    released = round_to_signed(solution, rng)
    audit = ReleaseOutput(
        mechanism="unweighted-laplace-merge-round",
        epsilon=params.epsilon,
        delta=0.0,
        noise_scale=scale,
        channel_budgets=(half.epsilon, half.epsilon),
        lambda_residual=solution.lam,
        merge_strategy=solution.strategy,
        constraints_checked=solution.constraints_checked,
        seed=seed,
        private=scale > 0,
        merge_iterations=solution.iterations_run,
        merge_stop=solution.stop,
        merge_best_iteration=solution.best_iteration,
        merge_training_lambda=solution.training_lambda,
    )
    return released, audit
