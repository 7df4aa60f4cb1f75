"""Bradley-Terry score fitting from pairwise comparison outcomes.

Scores are latent strengths on the log-odds scale: the modeled probability
that candidate i beats candidate j is sigmoid(s_i - s_j).  A tie contributes
half a win to each side.  The fit maximizes the sum of per-comparison log
likelihoods minus an L2 penalty (lam/2)*||s||^2; the penalty pins the shift
gauge that the likelihood alone leaves free, which forces the optimum to be
zero-sum.

There is one solver, a damped Newton method that fits a whole stack of
independent comparison sets at once (fit_bt_rows), dropping each row from
the working stack once it stops.  fit_bt is its one-row case: every row of a
stack gets exactly the scores, bit for bit, and the step count that fit_bt
gives it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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

# ridge strength lam of the fit, the default of every function and config that takes one
DEFAULT_LAM = 0.01


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


class _Edges(NamedTuple):
    """Win entries of a stack of fits, flattened over row-offset indices.

    Candidate i of row r is index r*n + i; `cells` addresses the (winner,
    loser) entry of that row's n x n block, r*n*n + i*n + j.  A row's entries
    keep their order, so every per-row sum adds the same terms in the same
    order whatever else is stacked beside it.
    """

    winners: np.ndarray
    losers: np.ndarray
    weights: np.ndarray
    rows: np.ndarray
    cells: np.ndarray


def _row_edges(rows: np.ndarray, winners: np.ndarray, losers: np.ndarray, weights: np.ndarray, n: int) -> _Edges:
    """Edges from per-row (local) winner and loser indices."""
    offset = rows * n
    winners = offset + winners
    return _Edges(winners, offset + losers, weights, rows, winners * n + losers)


def _keep_rows(edges: _Edges, keep: np.ndarray, n: int) -> _Edges:
    """The edges of the kept rows, renumbered onto the compacted stack."""
    mask = keep[edges.rows]
    rows = edges.rows[mask]
    moved = np.cumsum(keep)[rows] - 1
    shift = (rows - moved) * n
    return _Edges(
        edges.winners[mask] - shift, edges.losers[mask] - shift, edges.weights[mask], moved, edges.cells[mask] - shift * n
    )


def _win_probabilities(s: np.ndarray, edges: _Edges) -> np.ndarray:
    flat = s.ravel()
    return 1.0 / (1.0 + np.exp(flat[edges.losers] - flat[edges.winners]))


def _objective(s: np.ndarray, edges: _Edges, lam: float) -> np.ndarray:
    """Penalized log-likelihood of every row of the (rows, n) score stack `s`."""
    flat = s.ravel()
    # -log(sigmoid(d)) = log(1 + exp(-d)), computed stably for both signs
    nll = np.logaddexp(0.0, flat[edges.losers] - flat[edges.winners])
    return -np.bincount(edges.rows, weights=edges.weights * nll, minlength=len(s)) - 0.5 * lam * np.add.reduce(s * s, axis=1)


def _gradient(s: np.ndarray, p: np.ndarray, edges: _Edges, lam: float) -> np.ndarray:
    """Gradient of every row's objective, given the edges' win probabilities `p` at `s`."""
    e = edges.weights * (1.0 - p)
    g = np.bincount(edges.winners, weights=e, minlength=s.size) - np.bincount(edges.losers, weights=e, minlength=s.size)
    return g.reshape(s.shape) - lam * s


def _hessian(p: np.ndarray, edges: _Edges, lam: float, rows: int, n: int) -> np.ndarray:
    # negated Hessian L + lam*I of each row, with L the graph Laplacian under edge
    # weights w*p*(1-p); positive definite for lam > 0, so Newton steps are always well posed
    w = edges.weights * p * (1.0 - p)
    off = np.bincount(edges.cells, weights=w, minlength=rows * n * n).reshape(rows, n, n)
    off = off + off.transpose(0, 2, 1)
    diagonal = off.sum(axis=2) + lam
    hess = np.negative(off, out=off)
    hess.reshape(rows, n * n)[:, :: n + 1] = diagonal
    return hess


def _record_edges(records, population_size: int) -> _Edges:
    winners, losers, weights = _win_entries(records, population_size)
    return _row_edges(np.zeros(len(winners), dtype=np.intp), winners, losers, weights, population_size)


def _check_lam(lam: float) -> None:
    if lam <= 0:
        raise ValueError("lam must be positive")


def bt_objective(scores, records, lam: float = DEFAULT_LAM) -> float:
    """Penalized log-likelihood of `scores` for the given comparison records."""
    s = np.asarray(scores, dtype=np.float64)
    _check_lam(lam)
    return float(_objective(s[None], _record_edges(records, len(s)), lam)[0])


def bt_gradient(scores, records, lam: float = DEFAULT_LAM) -> np.ndarray:
    """Gradient of bt_objective with respect to every score component.

    Component i receives +w*(1 - sigmoid(s_i - s_j)) for each (possibly
    half-weighted) win of i over j, -w*sigmoid(s_i - s_j) for each loss,
    minus lam*s_i from the penalty.
    """
    s = np.asarray(scores, dtype=np.float64)[None]
    _check_lam(lam)
    edges = _record_edges(records, s.shape[1])
    return _gradient(s, _win_probabilities(s, edges), edges, lam)[0]


def _solve(
    edges: _Edges, rows: int, n: int, lam: float, tolerance: float, max_iterations: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on every row at once; see fit_bt_rows.

    The loop runs on small arrays, so it calls ufunc reductions and
    count_nonzero directly: the ndarray method wrappers (.sum, .any) cost
    about as much as the arithmetic there.
    """
    scores = np.zeros((rows, n))
    iterations = np.zeros(rows, dtype=np.intp)
    live = np.arange(rows)
    work = edges
    s = np.zeros((rows, n))
    p = _win_probabilities(s, work)
    grad = _gradient(s, p, work, lam)
    value = None  # objective at s, when the last line search already computed it
    for step_count in range(max_iterations + 1):
        done = np.maximum.reduce(np.abs(grad), axis=1) <= 0.5 * tolerance
        if step_count == max_iterations:
            done[:] = True
        finished = np.count_nonzero(done)
        if finished:
            scores[live[done]] = s[done]
            iterations[live[done]] = step_count
            if finished == len(done):
                break
            # finished rows leave the working stack, as in elo._map_rows
            keep = ~done
            p = p[keep[work.rows]]
            live, s, grad, work = live[keep], s[keep], grad[keep], _keep_rows(work, keep, n)
            if value is not None:
                value = value[keep]
        step = np.linalg.solve(_hessian(p, work, lam, len(s), n), grad[:, :, None])[:, :, 0]
        decrement = np.add.reduce(grad * step, axis=1)
        search = decrement > _FLAT_DECREMENT
        if np.count_nonzero(search):
            # the searching rows halve in lockstep, so one scale serves them all;
            # `scales` keeps the scale each row stopped at, once any row halves
            if value is None:
                value = _objective(s, work, lam)
            scale, scales = 1.0, None
            while True:
                trial = _objective(s + scale * step, work, lam)
                search &= trial < value + _ARMIJO * scale * decrement
                if scale <= _MIN_SCALE or not np.count_nonzero(search):
                    break
                if scales is None:
                    scales = np.ones(len(s))
                scale *= 0.5
                scales[search] = scale
            if scales is None:
                value = trial  # every row takes its full step, the point of that first trial
            else:
                step *= scales[:, None]
                value = None
        else:
            value = None
        s = s + step
        p = _win_probabilities(s, work)
        grad = _gradient(s, p, work, lam)
    # the row means, bit for bit as .mean(axis=1) computes them, without its overhead
    scores -= scores.sum(axis=1, keepdims=True) / n
    grad = _gradient(scores, _win_probabilities(scores, edges), edges, lam)
    return scores, np.abs(grad).max(axis=1) <= tolerance, iterations


def fit_bt_rows(
    winners,
    losers,
    weights,
    population_size: int,
    lam: float = DEFAULT_LAM,
    tolerance: float = 1e-8,
    max_iterations: int = 500,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit every row of a stack of independent comparison sets at once.

    `winners`, `losers` and `weights` are (rows, entries) arrays: entry e of
    row r is a win of candidate winners[r, e] over losers[r, e] (indices
    within the row, 0..population_size-1) with weight weights[r, e]; a tie
    is two half-wins, and zero-weight entries are padding.  Every row is
    fitted exactly as fit_bt fits it alone, down to the bits of its scores
    and its `iterations`; a row leaves the Newton loop once it meets the
    stopping test or after `max_iterations` steps.  Returns the
    (rows, population_size) mean-centered scores plus the per-row
    `converged` flags and Newton step counts.
    """
    if population_size < 2:
        raise ValueError("population_size must be at least 2")
    _check_lam(lam)
    winners = np.asarray(winners, dtype=np.intp)
    losers = np.asarray(losers, dtype=np.intp)
    weights = np.asarray(weights, dtype=np.float64)
    if winners.ndim != 2 or winners.shape != losers.shape or winners.shape != weights.shape:
        raise ValueError("winners, losers and weights must be (rows, entries) arrays of one shape")
    if np.any((winners < 0) | (winners >= population_size) | (losers < 0) | (losers >= population_size)):
        raise ValueError(f"candidate index out of range for population of {population_size}")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    rows = np.broadcast_to(np.arange(len(winners))[:, None], winners.shape)
    used = weights > 0
    edges = _row_edges(rows[used], winners[used], losers[used], weights[used], population_size)
    return _solve(edges, len(winners), population_size, lam, tolerance, max_iterations)


def fit_bt(
    records,
    population_size: int,
    lam: float = DEFAULT_LAM,
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
    still returned.  This is the one-row case of fit_bt_rows, which runs the
    same solver on a stack of fits.
    """
    if population_size < 2:
        raise ValueError("population_size must be at least 2")
    _check_lam(lam)
    edges = _record_edges(records, population_size)
    scores, converged, iterations = _solve(edges, 1, population_size, lam, tolerance, max_iterations)
    return ScoreVector(scores[0], lam, bool(converged[0]), int(iterations[0]))


def rank(score_vector: ScoreVector) -> list[int]:
    """Indices from best to worst; tied scores break toward the lower index.

    Scores are compared on a 1e-9 grid, so candidates the fit leaves equal up
    to rounding noise count as tied.  Rounding, unlike a pairwise tolerance,
    keeps "tied" transitive and the ordering a strict total order.
    """
    grid = _rank_grid(score_vector.scores)
    return sorted(range(len(grid)), key=lambda i: (-grid[i], i))


def top_candidates(scores) -> np.ndarray:
    """The best index of every row of a (rows, n) score stack: rank(...)[0] per row."""
    # argmax returns the first of equal maxima, the lower index rank breaks ties toward
    return np.argmax(_rank_grid(scores), axis=1)


def _rank_grid(scores) -> np.ndarray:
    return np.round(np.asarray(scores) / _RANK_RESOLUTION)
