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
one.

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

The audit family is summed ``_AUDIT_BLOCK`` rows at a time, one
:class:`CutRows` per block, so its float masks and products take
O(block * n) memory instead of O(rows * n) for its 8n rows.  A row's
cut sums are the same row products as in one whole-family ``CutRows``,
so the audited ``lambda`` is too.  The blocks are also drawn one at a
time, as the sums ask for them, so the family's boolean masks never exist
whole either; the draws follow the stream of one whole-family draw, and
the training family is still drawn whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    ContractViolation,
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
_AUDIT_BLOCK = 256  # audit rows per draw and per CutRows, which bounds the audit's masks
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
    ``noise_scale == 0`` is the deterministic test mode (not private);
    negative scales are rejected.  Both release routes noise through here.
    """
    if noise_scale < 0:
        raise ContractViolation(f"noise scale must be >= 0, got {noise_scale}")
    vals = channel_weights.values
    if noise_scale != 0:
        vals = vals + rng.laplace(0.0, noise_scale, size=vals.size)
    return WeightedChannel(channel_weights.n, vals)


# ---------------------------------------------------------------------------
# Merge step


def _set_pair_blocks(n: int, budget: int, rng: np.random.Generator, block: int):
    """Yield the (S, T) rows of :func:`_sample_set_pairs`, ``block`` rows at a time.

    A block is drawn only when asked for.  Consecutive blocks draw the
    same stream as one whole draw: the mixed rows keep their per-row loop,
    and consecutive ``rng.random((k, n))`` calls draw the same doubles as
    one call over all the complement rows.
    """
    rows = 2 * budget
    for a in range(0, rows, block):
        size = min(block, rows - a)
        mixed = min(max(budget - a, 0), size)  # the block's rows before the complement half
        s_rows = np.zeros((size, n), dtype=bool)
        t_rows = np.zeros((size, n), dtype=bool)
        for i in range(mixed):
            if rng.random() < 0.5:
                s_rows[i] = rng.random(n) < 0.5
                t_rows[i] = rng.random(n) < 0.5
            else:
                z = rng.integers(0, 3, size=n)
                s_rows[i] = z == 0
                t_rows[i] = z == 1
        if mixed < size:
            s_rows[mixed:] = rng.random((size - mixed, n)) < 0.5
            t_rows[mixed:] = ~s_rows[mixed:]
        yield s_rows, t_rows


def _sample_set_pairs(n: int, budget: int, rng: np.random.Generator):
    """Random (S, T) rows: budget mixed overlapping/disjoint + budget complements."""
    return next(_set_pair_blocks(n, budget, rng, 2 * budget))


def _blocked_sums(blocks, matrices):
    """Cut sums of each matrix, then the cut sizes, one :class:`CutRows` per block of rows."""
    parts = []
    for s_rows, t_rows in blocks:
        block = CutRows(s_rows, t_rows)
        parts.append([block.sums(m) for m in matrices] + [block.sizes])
    return [np.concatenate(column) for column in zip(*parts)]


def _max_violation(xp, wp, wm, cs, sizes, tp, tm):
    """Largest violation over singleton pairs and cut rows with cut sums ``cs``.

    ``xp``, ``wp`` and ``wm`` are flat per-pair vectors in canonical pair
    order.  Returns (lambda, kind, index, signed residual); kind is
    'pair+', 'pair-', 'cut+' or 'cut-'.
    """
    cands = (
        ("pair+", xp - wp),
        ("pair-", (1.0 - xp) - wm),
        ("cut+", cs - tp),
        ("cut-", (sizes - cs) - tm),
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
    wp_mat = wplus.matrix()
    wm_mat = wminus.matrix()
    iu, iv = canonical_pairs(n)
    x_mat = np.zeros((n, n))  # the one dense matrix of x, rewritten in place

    def x_matrix(values):
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
        tp, tm = rows.sums(wp_mat), rows.sums(wm_mat)
        cs = rows.sums(x_matrix(x))
        best_lam = np.inf
        best_x = x.copy()
        stale = 0
        stepped = (-1, None)  # the last stepped cut row and the pairs meeting its cut
        stop = "budget"
        for t in range(1, iterations + 1):
            lam, kind, idx, signed = _max_violation(x, wp, wm, cs, rows.sizes, tp, tm)
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
                cs = rows.sums(x_matrix(x))
        x = best_x

    # honest audit: fresh constraints, never the training family
    blocks = _set_pair_blocks(n, constraint_budget, rng, _AUDIT_BLOCK)
    cs, tp, tm, sizes = _blocked_sums(blocks, (x_matrix(x), wp_mat, wm_mat))
    lam_audit, _, _, _ = _max_violation(x, wp, wm, cs, sizes, tp, tm)
    return MergeSolution(
        x=x,
        lam=float(lam_audit),
        strategy=strategy,
        constraints_checked=2 * iu.size + 2 * sizes.size,
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
    n = graph.n
    noisy_plus = laplace_release(WeightedChannel(n, graph.channel_flat(1)), scale, rng)
    noisy_minus = laplace_release(WeightedChannel(n, graph.channel_flat(-1)), scale, rng)
    solution = solve_merge_lp(
        noisy_plus,
        noisy_minus,
        merge.constraint_budget,
        rng,
        iterations=merge.iterations,
        strategy=merge.strategy,
    )
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
