"""Exponential-mechanism clustering over the full partition lattice.

Small instances only: sampling enumerates every partition (n <= 12), and
:func:`exact_output_distribution` additionally materializes the whole
output distribution (n <= 10), which lets the privacy guarantee be
machine-checked literally, neighbor by neighbor.

A partition C is drawn with probability proportional to
``exp(eps * score(C) / 2)`` where the score is minus the disagreement,
which moves by at most 1 when a single unweighted edge flips sign.
Scoring by agreement instead would add the constant total weight and
give the same distribution.  All weight arithmetic happens in log space,
so large ``eps * score`` products do not overflow.
"""

from __future__ import annotations

import numpy as np

from .graphs import (
    Clustering,
    ContractViolation,
    PrivacyParams,
    SignedGraph,
    SizeRefusal,
)
from .solvers import enumerate_partitions, partition_disagreements

__all__ = ["SAMPLE_LIMIT", "EXACT_LIMIT", "exponential_mechanism", "exact_output_distribution"]

SAMPLE_LIMIT = 12
EXACT_LIMIT = 10


def _log_weights(graph: SignedGraph, params: PrivacyParams):
    if params.delta != 0:
        raise ContractViolation("exponential mechanism is pure DP; delta must be 0")
    parts = enumerate_partitions(graph.n)
    score = -partition_disagreements(parts, graph)
    return parts, 0.5 * params.epsilon * score


def exponential_mechanism(
    graph: SignedGraph, params: PrivacyParams, rng: np.random.Generator
) -> Clustering:
    """Sample one clustering with probability ~ exp(eps * score / 2)."""
    if graph.n > SAMPLE_LIMIT:
        raise SizeRefusal(f"exponential mechanism enumerates partitions; n <= {SAMPLE_LIMIT}")
    parts, logw = _log_weights(graph, params)
    gumbel = rng.gumbel(size=logw.size)
    return Clustering(parts[int(np.argmax(logw + gumbel))])


def exact_output_distribution(
    graph: SignedGraph, params: PrivacyParams
) -> dict[tuple[int, ...], float]:
    """Full output distribution as {canonical partition tuple: probability}.

    Probabilities are normalized in log space and sum to 1 within 1e-12.
    """
    if graph.n > EXACT_LIMIT:
        raise SizeRefusal(f"exact distribution enumerates partitions; n <= {EXACT_LIMIT}")
    parts, logw = _log_weights(graph, params)
    logz = _logsumexp(logw)
    probs = np.exp(logw - logz)
    return {tuple(int(x) for x in row): float(p) for row, p in zip(parts, probs)}


def _logsumexp(x: np.ndarray) -> float:
    m = float(x.max())
    return m + float(np.log(np.exp(x - m).sum()))
