"""Discretized-noise variants of the two Laplace releases, for exact DP checks.

Test harness only.  Laplace noise is replaced by a two-sided geometric
("discrete Laplace") on the grid 1/64, i.e. P(k*h) ~ exp(-|k*h| / b).
A unit change in a channel weight is exactly 64 grid steps, so each
channel keeps the per-coordinate density ratio exp(h*64/b) = exp(1/b) of
its continuous counterpart, and the end-to-end argument carries over
unchanged.

With the per-edge merge rule, the probability that an edge comes out
positive depends only on the noise difference d = z_plus - z_minus,
whose distribution has closed-form point masses and tails (geometric
series), so edge probabilities are exact to float precision; no
truncation is involved.  The output distribution over the 2^pairs sign
patterns is the product of per-edge Bernoullis.

The weighted release keeps a noisy net weight when its magnitude reaches
the threshold and zeroes it otherwise.  On grid-valued input its output
per coordinate is a grid point at or beyond the threshold on either side,
or 0 carrying all the mass strictly between; the coordinates are
independent, so the worst log ratio over whole outputs is the sum of the
per-coordinate worst ratios.
"""

import numpy as np

GRID = 1.0 / 64.0


def _difference_terms(b: float, h: float = GRID):
    r = np.exp(-h / b)
    c2 = ((1 - r) / (1 + r)) ** 2
    extra = 2 * r**2 / (1 - r**2)
    return r, c2, extra


def difference_pmf(j: np.ndarray, b: float, h: float = GRID) -> np.ndarray:
    """P(z_plus - z_minus = j*h) for two iid two-sided geometrics."""
    r, c2, extra = _difference_terms(b, h)
    aj = np.abs(j)
    return c2 * r**aj * (aj + 1 + extra)


def difference_tail(j_from: int, b: float, h: float = GRID) -> float:
    """P(z_plus - z_minus >= j_from * h) for j_from >= 1."""
    r, c2, extra = _difference_terms(b, h)
    head = r**j_from * ((j_from + 1) - j_from * r) / (1 - r) ** 2
    return float(c2 * (head + extra * r**j_from / (1 - r)))


def edge_positive_probability(w_plus: int, b: float, h: float = GRID) -> float:
    """P(edge rounds positive) under discrete noise and the per-edge merge.

    The merge probability is clamp((w+ + z+ + 1 - w- - z-) / 2, 0, 1); for
    an unweighted pair, w- = 1 - w+.  Rounding then happens with exactly
    that probability, so the positive-label chance is its expectation over
    the noise difference.
    """
    steps = int(round(2.0 / h))  # d in (-2, 0) resp. (0, 2) is the linear region
    if w_plus == 1:
        js = np.arange(-steps + 1, 0)
        lin = float((difference_pmf(js, b, h) * (1.0 + js * h / 2.0)).sum())
        p_nonneg = 0.5 * (1.0 + float(difference_pmf(np.array([0]), b, h)[0]))
        return p_nonneg + lin
    js = np.arange(1, steps)
    lin = float((difference_pmf(js, b, h) * (js * h / 2.0)).sum())
    return difference_tail(steps, b, h) + lin


def pattern_distribution(edge_signs: np.ndarray, epsilon: float) -> np.ndarray:
    """Exact output distribution over all sign patterns of the pairs.

    ``edge_signs`` holds w_plus in {0, 1} per pair.  Entry i of the result
    is the probability of the pattern whose bit j says pair j is positive.
    """
    b = 2.0 / epsilon
    p1 = edge_positive_probability(1, b)
    p0 = edge_positive_probability(0, b)
    m = edge_signs.size
    probs = np.ones(1)
    for e in range(m):
        p = p1 if edge_signs[e] == 1 else p0
        probs = np.concatenate([probs * (1 - p), probs * p])
    # bit e of the pattern index (counting from the high end of the build
    # order) says whether pair e is positive
    return probs


def _log_noise_pmf(k: np.ndarray, b: float, h: float = GRID) -> np.ndarray:
    """log P(z = k*h) for one two-sided geometric."""
    r = np.exp(-h / b)
    return np.log((1 - r) / (1 + r)) - np.abs(k) * h / b


def thresholded_log_pmf(
    x: float, b: float, tau: float, top: int, h: float = GRID
) -> np.ndarray:
    """Log output distribution of one weighted-release coordinate.

    The coordinate releases ``x + z`` when ``|x + z|`` reaches ``tau`` and 0
    otherwise; ``x`` and ``tau > 0`` as in the mechanism, ``x`` on the grid.
    Entry 0 is the lumped mass at 0; the others are the outputs ``j * h``
    for ``j0 <= |j| <= max(top, j0)``, ``j0 = ceil(tau / h)``, negative first.
    """
    kx = int(round(x / h))
    j0 = int(np.ceil(tau / h))
    up = np.arange(j0, max(top, j0) + 1)
    inside = _log_noise_pmf(np.arange(1 - j0, j0) - kx, b, h)
    peak = inside.max()
    zero = peak + np.log(np.exp(inside - peak).sum())
    return np.concatenate([[zero], _log_noise_pmf(np.concatenate([-up[::-1], up]) - kx, b, h)])


def thresholded_worst_log_ratio(
    xs: np.ndarray, ys: np.ndarray, b: float, tau: float, h: float = GRID
) -> float:
    """Exact max over outputs of |log P(out | xs) - log P(out | ys)|.

    ``xs`` and ``ys`` are the grid-valued coordinates two inputs feed the
    noise.  Beyond ``max(|x|, |y|)`` on either side every output has the
    same ratio, so grid points up to one step past it cover every value the
    ratio takes.
    """
    fwd = back = 0.0
    for x, y in zip(xs, ys):
        if x == y:
            continue
        top = int(round(max(abs(x), abs(y)) / h)) + 1
        lr = thresholded_log_pmf(x, b, tau, top, h) - thresholded_log_pmf(y, b, tau, top, h)
        fwd += float(lr.max())
        back += float(-lr.min())
    return max(fwd, back)
