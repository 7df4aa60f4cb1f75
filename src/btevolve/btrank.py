"""Bradley-Terry score fitting from pairwise comparison outcomes.

Scores are latent strengths on the log-odds scale: the modeled probability
that candidate i beats candidate j is sigmoid(s_i - s_j).  A tie contributes
half a win to each side.  The fit maximizes the sum of per-comparison log
likelihoods minus an L2 penalty (lam/2)*||s||^2; the penalty pins the shift
gauge that the likelihood alone leaves free, which forces the optimum to be
zero-sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LEFT_WINS = "left-wins"
RIGHT_WINS = "right-wins"
TIE = "tie"
OUTCOMES = (LEFT_WINS, RIGHT_WINS, TIE)

# damped-Newton constants: Armijo slope fraction, the Newton decrement below
# which the objective is too flat to test, and the smallest step scale tried
_ARMIJO = 0.25
_FLAT_DECREMENT = 1e-8
_MIN_SCALE = 2.0**-30

# grid step on which `rank` compares scores
_RANK_RESOLUTION = 1e-9


@dataclass(frozen=True)
class ComparisonRecord:
    """One pairwise outcome between candidates addressed by index."""

    left: int
    right: int
    outcome: str

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise ValueError(f"self-comparison of index {self.left}")
        if self.outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {self.outcome!r}")


@dataclass(frozen=True)
class ScoreVector:
    """Fitted strengths plus the fit diagnostics callers need to trust them."""

    scores: np.ndarray
    lam: float
    converged: bool
    iterations: int

    def __len__(self) -> int:
        return len(self.scores)


def _win_entries(
    records: list[ComparisonRecord] | tuple[ComparisonRecord, ...],
    population_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten records into (winner, loser, weight) arrays; ties become two half-wins."""
    winners: list[int] = []
    losers: list[int] = []
    weights: list[float] = []
    for rec in records:
        if not (0 <= rec.left < population_size and 0 <= rec.right < population_size):
            raise ValueError(
                f"record ({rec.left}, {rec.right}) out of range for population of {population_size}"
            )
        if rec.outcome == LEFT_WINS:
            winners.append(rec.left)
            losers.append(rec.right)
            weights.append(1.0)
        elif rec.outcome == RIGHT_WINS:
            winners.append(rec.right)
            losers.append(rec.left)
            weights.append(1.0)
        else:
            winners.extend((rec.left, rec.right))
            losers.extend((rec.right, rec.left))
            weights.extend((0.5, 0.5))
    return (
        np.asarray(winners, dtype=np.intp),
        np.asarray(losers, dtype=np.intp),
        np.asarray(weights, dtype=np.float64),
    )


def _objective_arrays(s, winners, losers, weights, lam):
    d = s[winners] - s[losers]
    # log(sigmoid(d)) = -log(1 + exp(-d)), computed stably for both signs
    loglik = -np.logaddexp(0.0, -d)
    return float(np.dot(weights, loglik) - 0.5 * lam * np.dot(s, s))


def _gradient_arrays(s, winners, losers, weights, lam, n):
    d = s[winners] - s[losers]
    e = weights * (1.0 - 1.0 / (1.0 + np.exp(-d)))
    g = np.bincount(winners, weights=e, minlength=n) - np.bincount(losers, weights=e, minlength=n)
    return g - lam * s


def _hessian_arrays(s, winners, losers, weights, lam, n):
    # negated Hessian L + lam*I, with L the graph Laplacian under edge weights
    # w*p*(1-p); positive definite for lam > 0, so Newton steps are always well posed
    d = s[winners] - s[losers]
    p = 1.0 / (1.0 + np.exp(-d))
    w = weights * p * (1.0 - p)
    off = np.bincount(winners * n + losers, weights=w, minlength=n * n).reshape(n, n)
    off = off + off.T
    hess = -off
    hess[np.diag_indices(n)] = off.sum(axis=1) + lam
    return hess


def bt_objective(scores, records, lam: float = 0.01) -> float:
    """Penalized log-likelihood of `scores` for the given comparison records."""
    s = np.asarray(scores, dtype=np.float64)
    if lam <= 0:
        raise ValueError("lam must be positive")
    winners, losers, weights = _win_entries(records, len(s))
    return _objective_arrays(s, winners, losers, weights, lam)


def bt_gradient(scores, records, lam: float = 0.01) -> np.ndarray:
    """Gradient of bt_objective with respect to every score component.

    Component i receives +w*(1 - sigmoid(s_i - s_j)) for each (possibly
    half-weighted) win of i over j, -w*sigmoid(s_i - s_j) for each loss,
    minus lam*s_i from the penalty.
    """
    s = np.asarray(scores, dtype=np.float64)
    if lam <= 0:
        raise ValueError("lam must be positive")
    winners, losers, weights = _win_entries(records, len(s))
    return _gradient_arrays(s, winners, losers, weights, lam, len(s))


def fit_bt(
    records,
    population_size: int,
    lam: float = 0.01,
    tolerance: float = 1e-8,
    max_iterations: int = 500,
) -> ScoreVector:
    """Maximize the penalized likelihood by damped Newton and return fitted scores.

    Deterministic: start from zeros; each step solves (L_w + lam*I) step =
    grad, where L_w is the comparison graph's Laplacian under edge weights
    w*p*(1-p), the negated Hessian.  While the Newton decrement grad.step is
    above 1e-8 the step is halved until it passes an Armijo test on the
    objective; below that the objective is flat to rounding, so a test on it
    would only see noise, and full steps are taken (they converge
    quadratically there).  Iteration stops once the gradient max-norm is
    within tolerance/2 or after `max_iterations` Newton steps, and the
    scores are then mean-centered exactly (the likelihood is shift-invariant
    and the penalty strictly prefers the centered point).  `iterations`
    counts Newton steps; `converged` reports whether the gradient max-norm
    at the returned point is within `tolerance`.  A non-converged fit is
    still returned.
    """
    if population_size < 2:
        raise ValueError("population_size must be at least 2")
    if lam <= 0:
        raise ValueError("lam must be positive")
    winners, losers, weights = _win_entries(records, population_size)
    if winners.size == 0:
        return ScoreVector(np.zeros(population_size), lam, True, 0)

    n = population_size
    s = np.zeros(n)
    grad = _gradient_arrays(s, winners, losers, weights, lam, n)
    iterations = 0
    while np.max(np.abs(grad)) > 0.5 * tolerance and iterations < max_iterations:
        step = np.linalg.solve(_hessian_arrays(s, winners, losers, weights, lam, n), grad)
        decrement = float(np.dot(grad, step))
        scale = 1.0
        if decrement > _FLAT_DECREMENT:
            value = _objective_arrays(s, winners, losers, weights, lam)
            while (
                _objective_arrays(s + scale * step, winners, losers, weights, lam)
                < value + _ARMIJO * scale * decrement
                and scale > _MIN_SCALE
            ):
                scale *= 0.5
        s = s + scale * step
        grad = _gradient_arrays(s, winners, losers, weights, lam, n)
        iterations += 1
    s = s - s.mean()
    grad = _gradient_arrays(s, winners, losers, weights, lam, n)
    converged = bool(np.max(np.abs(grad)) <= tolerance)
    return ScoreVector(s, lam, converged, iterations)


def rank(score_vector: ScoreVector) -> list[int]:
    """Indices from best to worst; tied scores break toward the lower index.

    Scores are compared on a 1e-9 grid, so candidates the fit leaves equal up
    to rounding noise count as tied.  Rounding, unlike a pairwise tolerance,
    keeps "tied" transitive and the ordering a strict total order.
    """
    grid = np.round(np.asarray(score_vector.scores) / _RANK_RESOLUTION)
    return sorted(range(len(grid)), key=lambda i: (-grid[i], i))
