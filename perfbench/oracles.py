"""Independent re-derivations the benchmark checks btevolve's outputs against.

Nothing here calls into btevolve: the Bradley-Terry fit is a dense Newton
solve on the win-count matrix, the Elo MAP is a bisection on the derivative
of the (strictly concave) log-posterior, and the budget and barrier counts
are the closed forms from the method's description.
"""

from __future__ import annotations

import math

import numpy as np

NEAR_TIE = 1e-6  # top-two score gap below which a top-1 disagreement is exempt


def call_budget(n: int, k: int, t: int, m: int) -> int:
    """Primary model calls of one run: n + T(nk/2 + 3n/4) + nm/2."""
    return n + t * (n * k // 2 + 3 * n // 4) + n * m // 2


def barrier_count(t: int) -> int:
    """Sequential joins of one run: after sampling, after each generation's
    comparisons and mutations, and after the final round."""
    return 2 * t + 2


def win_matrix(n: int, results) -> np.ndarray:
    """W[i, j] = wins of i over j from (i, j, outcome) triples; outcome is
    +1 (i wins), -1 (j wins) or 0 (tie, half a win to each side)."""
    wins = np.zeros((n, n))
    for i, j, outcome in results:
        if outcome > 0:
            wins[i, j] += 1.0
        elif outcome < 0:
            wins[j, i] += 1.0
        else:
            wins[i, j] += 0.5
            wins[j, i] += 0.5
    return wins


def bt_fit(wins: np.ndarray, lam: float = 0.01, tolerance: float = 1e-12) -> np.ndarray:
    """Maximize sum W_ij log sigmoid(s_i - s_j) - lam/2 |s|^2 by damped Newton.

    The negated Hessian is the weighted graph Laplacian plus lam*I, which is
    positive definite, so every Newton direction ascends.
    """
    n = wins.shape[0]
    games = wins + wins.T
    s = np.zeros(n)

    def objective(x):
        diff = x[:, None] - x[None, :]
        return float(-(wins * np.logaddexp(0.0, -diff)).sum() - 0.5 * lam * x @ x)

    for _ in range(100):
        p = 1.0 / (1.0 + np.exp(-(s[:, None] - s[None, :])))
        grad = (wins - games * p).sum(axis=1) - lam * s
        if np.max(np.abs(grad)) <= tolerance:
            break
        weights = games * p * (1.0 - p)
        neg_hess = np.diag(weights.sum(axis=1) + lam) - weights
        step = np.linalg.solve(neg_hess, grad)
        base, scale = objective(s), 1.0
        while objective(s + scale * step) < base and scale > 1e-6:
            scale *= 0.5
        s = s + scale * step
    return s


def top_two(scores) -> tuple[int, float]:
    """Index of the best score (lowest index on exact ties) and its gap to the runner-up."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order[0], float(scores[order[0]] - scores[order[1]])


def elo_map(ratings, wins, trials, prior_mean: float, prior_std: float, bounds) -> np.ndarray:
    """MAP rating per row by bisection on the log-posterior's derivative.

    `ratings`, `wins` and `trials` are (rows, problems) arrays (1-D is one
    row).  The derivative is strictly decreasing, so the root is unique; a
    derivative of one sign over the whole interval puts the MAP on a bound.
    """
    ratings, wins, trials = (np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (ratings, wins, trials))
    scale = math.log(10.0) / 400.0

    def slope(rating):
        p = 1.0 / (1.0 + np.power(10.0, (ratings - rating[:, None]) / 400.0))
        return scale * (wins - trials * p).sum(axis=1) - (rating - prior_mean) / prior_std**2

    rows = ratings.shape[0]
    low = np.full(rows, float(bounds[0]))
    high = np.full(rows, float(bounds[1]))
    for _ in range(64):
        mid = 0.5 * (low + high)
        rising = slope(mid) > 0
        low = np.where(rising, mid, low)
        high = np.where(rising, high, mid)
    return 0.5 * (low + high)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of a sample."""
    ordered = sorted(float(v) for v in values)
    position = q / 100.0 * (len(ordered) - 1)
    below = math.floor(position)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] + (position - below) * (ordered[above] - ordered[below])
