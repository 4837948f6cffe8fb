"""Path instances, distance codes, and the packing experiment.

Sign vectors are plain int8 arrays over {-1, +1}.  A path on n+1
vertices with signs sigma always admits a zero-disagreement clustering
(group vertices along maximal positive runs), while two paths whose sign
vectors differ in d positions admit no clustering with fewer than d/2
disagreements on both: each differing edge is violated on one path or
the other.  Families of pairwise-far sign vectors therefore have
pairwise-disjoint sets of near-optimal outputs, which is what the
packing experiment exercises against any clustering mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Clustering, ContractViolation, PrivacyParams, SignedGraph, disagreement

__all__ = [
    "Codebook",
    "path_graph",
    "optimal_path_clustering",
    "random_signs",
    "brute_force_code",
    "pairwise_confusion_bound",
    "packing_experiment",
    "PACKING_CSV_HEADER",
]


def _check_signs(sigma) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.int8)
    if sigma.ndim != 1 or sigma.size == 0:
        raise ContractViolation("sign vector must be 1-d and non-empty")
    if not np.all(np.abs(sigma) == 1):
        raise ContractViolation("sign entries must be +1 or -1")
    return sigma


def random_signs(n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.integers(0, 2, size=n) * 2 - 1).astype(np.int8)


def path_graph(sigma, edge_weight: float = 1.0) -> SignedGraph:
    """Path v_0..v_n whose i-th edge carries sign sigma[i] and uniform weight."""
    sigma = _check_signs(sigma)
    if edge_weight <= 0:
        raise ContractViolation("edge weight must be positive")
    n = sigma.size
    pu = np.arange(n)
    pv = pu + 1
    pos = np.where(sigma == 1, edge_weight, 0.0)
    neg = np.where(sigma == -1, edge_weight, 0.0)
    return SignedGraph(n + 1, pu, pv, pos, neg)


def optimal_path_clustering(sigma) -> Clustering:
    """Zero-disagreement clustering of a path: cut exactly at negative edges."""
    sigma = _check_signs(sigma)
    labels = np.concatenate([[0], np.cumsum(sigma == -1)])
    return Clustering(labels)


# ---------------------------------------------------------------------------
# Codes


@dataclass(frozen=True)
class Codebook:
    """Sign vectors with a guaranteed pairwise Hamming distance."""

    vectors: np.ndarray  # (M, n) int8 in {-1, +1}
    n: int
    min_distance: int
    beta: float
    complete: bool  # reached the requested size within budget

    @property
    def size(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def alpha(self) -> float:
        """Rate: size = 2 ** (alpha * n)."""
        return math.log2(max(self.size, 1)) / self.n

    @property
    def alpha_nat(self) -> float:
        """Natural-log rate: size = exp(alpha_nat * n)."""
        return math.log(max(self.size, 1)) / self.n


def brute_force_code(
    n: int,
    beta: float,
    target: int,
    rng: np.random.Generator,
    budget: int = 10**6,
) -> Codebook:
    """Greedy randomized code: keep samples far from everything kept so far.

    Returns once ``target`` codewords are collected or the sample budget
    runs out (then whatever was collected, with ``complete`` unset).  The
    pairwise-distance invariant holds for every returned codebook.
    """
    if n > 40:
        raise ContractViolation("code search capped at n = 40")
    if not (0 <= beta < 0.5):
        raise ContractViolation("beta must be in [0, 1/2)")
    if target < 1:
        raise ContractViolation("target must be >= 1")
    d = max(1, math.ceil(beta * n))  # distance 0 would admit duplicates
    kept = np.empty((0, n), dtype=np.int8)
    batch = 4096
    drawn = 0
    while kept.shape[0] < target and drawn < budget:
        take = min(batch, budget - drawn)
        cands = (rng.integers(0, 2, size=(take, n)) * 2 - 1).astype(np.int8)
        drawn += take
        for row in cands:
            if kept.shape[0] and int((kept != row).sum(axis=1).min()) < d:
                continue
            kept = np.vstack([kept, row])
            if kept.shape[0] >= target:
                break
    return Codebook(
        vectors=kept,
        n=n,
        min_distance=d,
        beta=beta,
        complete=kept.shape[0] >= target,
    )


def pairwise_confusion_bound(sigma, sigma_prime) -> int:
    """ceil(d/2) for Hamming distance d: the unavoidable shared disagreement.

    No clustering can disagree fewer than d/2 times with both paths,
    because every differing edge is violated on at least one of them.
    """
    a = _check_signs(sigma)
    b = _check_signs(sigma_prime)
    if a.size != b.size:
        raise ContractViolation("sign vectors must have equal length")
    d = int((a != b).sum())
    return (d + 1) // 2


# ---------------------------------------------------------------------------
# Packing experiment

PACKING_CSV_HEADER = "codeword,mean_err,frac_in_B,theory_bound"


def packing_experiment(
    mechanism,
    params: PrivacyParams,
    edge_weight: float,
    codebook: Codebook,
    repetitions: int,
    rng: np.random.Generator,
) -> list[dict]:
    """Run a clustering mechanism on every codeword's path instance.

    ``mechanism(graph, params, rng) -> Clustering`` is any mechanism in
    this package.  For each codeword, reports the mean disagreement over
    ``repetitions`` runs and the fraction of runs landing in the
    near-optimal ball (disagreement below ``edge_weight * beta * n / 2``;
    these balls are pairwise disjoint across codewords).  The
    ``theory_bound`` column carries ``alpha * beta * n / (4 * eps)`` with
    the codebook's realized natural-log rate, the error floor any
    eps-private mechanism must pay on this family at the matched edge
    weight ``alpha / (2 * eps)``.
    """
    if repetitions < 1:
        raise ContractViolation("repetitions must be >= 1")
    n = codebook.n
    ball_radius = edge_weight * codebook.beta * n / 2.0
    bound = codebook.alpha_nat * codebook.beta * n / (4.0 * params.epsilon)
    rows = []
    for idx in range(codebook.size):
        sigma = codebook.vectors[idx]
        graph = path_graph(sigma, edge_weight)
        errs = np.empty(repetitions)
        for r in range(repetitions):
            clustering = mechanism(graph, params, rng)
            errs[r] = disagreement(clustering, graph)
        rows.append(
            {
                "codeword": idx,
                "mean_err": float(errs.mean()),
                "frac_in_B": float((errs < ball_radius).mean()),
                "theory_bound": bound,
            }
        )
    return rows
