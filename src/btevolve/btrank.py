"""Bradley-Terry score fitting from pairwise comparison outcomes, each a
(left, right, outcome) index triple; a ComparisonRecord unpacks as one.

Scores are latent strengths on the log-odds scale: the modeled probability
that candidate i beats candidate j is sigmoid(s_i - s_j).  A tie contributes
half a win to each side.  The fit maximizes the sum of per-comparison log
likelihoods minus an L2 penalty (lam/2)*||s||^2; the penalty pins the shift
gauge that the likelihood alone leaves free, which forces the optimum to be
zero-sum.

There is one solver, a damped Newton method that fits a whole stack of
independent comparison sets at once (fit_bt_rows), dropping each row from
the working stack once it stops.  It starts each candidate at its smoothed
win log-odds, log((wins + 1/2) / (losses + 1/2)) with Haldane's 1/2
correction, centred on its row, which puts Newton near the optimum before
its first step.  fit_bt is its one-row case: every row of a stack gets
exactly the scores, bit for bit, and the step count that fit_bt gives it
alone.  A caller that reads only each row's top pick can have a
row stop as soon as that pick is certain (_fit_entries' `picks_only`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, is_finite_real, is_int

LEFT_WINS = "left-wins"
RIGHT_WINS = "right-wins"
TIE = "tie"
OUTCOMES = (LEFT_WINS, RIGHT_WINS, TIE)

# damped-Newton constants: Armijo slope fraction, the Newton decrement below
# which the objective is too flat to test, and the smallest step scale tried
_ARMIJO = 0.25
_FLAT_DECREMENT = 1e-8
_MIN_SCALE = 2.0**-30
# a fit stops once every gradient component is within _TOLERANCE / 2, or after
# _MAX_ITERATIONS Newton steps; it is `converged` if within _TOLERANCE at the end
_TOLERANCE = 1e-8
_MAX_ITERATIONS = 500

# grid step on which `rank` compares scores
_RANK_RESOLUTION = 1e-9

# factor on the distance bound behind a certain pick (see _certain_picks), a
# margin for the rounding in the gradient and scores it is computed from
_PICK_SAFETY = 1.01

# ridge strength lam of the fit, the default of every function and config that takes one
DEFAULT_LAM = 0.01


def _check_comparison(left, right, outcome) -> None:
    """Reject a comparison of an index with itself or with an outcome not in OUTCOMES."""
    if left == right:
        raise ValueError(f"self-comparison of index {left}")
    if outcome not in OUTCOMES:
        raise ValueError(f"unknown outcome {outcome!r}")


@dataclass(frozen=True)
class ComparisonRecord:
    """One pairwise outcome between candidates addressed by index; unpacks as its triple."""

    left: int
    right: int
    outcome: str

    def __post_init__(self) -> None:
        _check_comparison(self.left, self.right, self.outcome)

    def __iter__(self):
        return iter((self.left, self.right, self.outcome))


@dataclass(frozen=True)
class ScoreVector:
    """Fitted strengths plus the fit diagnostics callers need to trust them;
    `iterations`, the Newton steps taken, must be a non-negative integer."""

    scores: np.ndarray
    lam: float
    converged: bool
    iterations: int

    def __post_init__(self) -> None:
        if not is_int(self.iterations) or self.iterations < 0:
            raise ValueError(f"iterations must be a non-negative integer, got {self.iterations!r}")

    def __len__(self) -> int:
        return len(self.scores)


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


def _win_entries(pairs, population_size: int) -> _Edges:
    """One fit's edges over (left, right, outcome) triples of integer indices, checked as ComparisonRecords are."""
    winners: list[int] = []
    losers: list[int] = []
    weights: list[float] = []
    for left, right, outcome in pairs:
        # `type(x) is int` first: is_int's common case, without the call on every index
        if not ((type(left) is int or is_int(left)) and (type(right) is int or is_int(right))):
            raise ValueError(f"record ({left!r}, {right!r}): candidate indices must be integers")
        if not (0 <= left < population_size and 0 <= right < population_size):
            raise ValueError(f"record ({left}, {right}) out of range for population of {population_size}")
        _check_comparison(left, right, outcome)
        if outcome == LEFT_WINS:
            winners.append(left)
            losers.append(right)
            weights.append(1.0)
        elif outcome == RIGHT_WINS:
            winners.append(right)
            losers.append(left)
            weights.append(1.0)
        else:
            winners.extend((left, right))
            losers.extend((right, left))
            weights.extend((0.5, 0.5))
    winners, losers = np.asarray(winners, dtype=np.intp), np.asarray(losers, dtype=np.intp)
    return _row_edges(np.zeros_like(winners), winners, losers, np.asarray(weights), population_size)


def _keep_rows(edges: _Edges, keep: np.ndarray, n: int) -> _Edges:
    """The edges of the kept rows, renumbered onto the compacted stack."""
    mask = keep[edges.rows]
    rows = edges.rows[mask]
    moved = np.cumsum(keep)[rows] - 1
    shift = (rows - moved) * n
    return _Edges(
        edges.winners[mask] - shift, edges.losers[mask] - shift, edges.weights[mask], moved, edges.cells[mask] - shift * n
    )


def _differences(s: np.ndarray, edges: _Edges) -> np.ndarray:
    """Every edge's loser-minus-winner score difference in the (rows, n) score stack `s`."""
    flat = s.ravel()
    return flat[edges.losers] - flat[edges.winners]


def _win_probabilities(differences: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(differences))


def _objective(s: np.ndarray, differences: np.ndarray, edges: _Edges, lam: float) -> np.ndarray:
    """Penalized log-likelihood of every row of the (rows, n) score stack `s`,
    given its edges' `differences`."""
    # -log(sigmoid(d)) = log(1 + exp(-d)), computed stably for both signs
    nll = np.logaddexp(0.0, differences)
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


def check_lam(lam: float, name: str = "lam") -> None:
    """Reject a ridge strength that is not a finite positive number; `name`
    is what the ConfigError calls it."""
    if not (is_finite_real(lam) and lam > 0):
        raise ConfigError(f"{name} must be positive and finite, got {lam!r}")


def bt_objective(scores, records, lam: float = DEFAULT_LAM) -> float:
    """Penalized log-likelihood of `scores` over (left, right, outcome) triples such as ComparisonRecords."""
    s = np.asarray(scores, dtype=np.float64)[None]
    check_lam(lam)
    edges = _win_entries(records, s.shape[1])
    return float(_objective(s, _differences(s, edges), edges, lam)[0])


def bt_gradient(scores, records, lam: float = DEFAULT_LAM) -> np.ndarray:
    """Gradient of bt_objective with respect to every score component, over
    (left, right, outcome) comparison triples such as ComparisonRecords.

    Component i receives +w*(1 - sigmoid(s_i - s_j)) for each (possibly
    half-weighted) win of i over j, -w*sigmoid(s_i - s_j) for each loss,
    minus lam*s_i from the penalty.
    """
    s = np.asarray(scores, dtype=np.float64)[None]
    check_lam(lam)
    edges = _win_entries(records, s.shape[1])
    return _gradient(s, _win_probabilities(_differences(s, edges)), edges, lam)[0]


def _certain_picks(s: np.ndarray, grad: np.ndarray, lam: float) -> np.ndarray:
    """Which rows of the (rows, n) score stack `s`, with gradient `grad`, have
    the top pick the full solve would give them.

    The objective is lam-strongly concave, so s lies within ||grad||_2 / lam
    of the optimum s*, and the point the full solve stops at (every gradient
    component within _TOLERANCE/2) within sqrt(n) * _TOLERANCE / (2 lam) of s*;
    no score moves by more than the sum r of the two on the way there.  A top
    score that leads the second by more than 2r, with _PICK_SAFETY on r and
    two _RANK_RESOLUTION steps for rank's rounding, is therefore still the
    one top score on rank's grid at the full solve's point.
    """
    top_two = np.partition(s, -2, axis=1)[:, -2:]
    lead = top_two[:, 1] - top_two[:, 0]
    radius = (np.sqrt(np.add.reduce(grad * grad, axis=1)) + 0.5 * math.sqrt(s.shape[1]) * _TOLERANCE) / lam
    return lead > 2.0 * _PICK_SAFETY * radius + 2.0 * _RANK_RESOLUTION


def _start(edges: _Edges, rows: int, n: int) -> np.ndarray:
    """Every row's Newton start: each candidate's smoothed win log-odds,
    log((wins + 1/2) / (losses + 1/2)), centred on its row's mean.

    A tie counts half a win to each side and a zero-weight entry adds
    nothing; a candidate without comparisons starts at log(1) = 0 before
    centring, so a row without any starts at zero.  Each bin sums its row's
    entries in their order, so a row's start has the same bits in any stack.
    """
    wins = np.bincount(edges.winners, weights=edges.weights, minlength=rows * n)
    losses = np.bincount(edges.losers, weights=edges.weights, minlength=rows * n)
    s = np.log((wins + 0.5) / (losses + 0.5)).reshape(rows, n)
    return s - s.sum(axis=1, keepdims=True) / n


def _solve(
    edges: _Edges, rows: int, n: int, lam: float, picks_only: bool = False
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Damped Newton on every row at once; see fit_bt_rows and, for
    `picks_only`, _fit_entries.

    The loop runs on small arrays, so it calls ufunc reductions and
    count_nonzero directly: the ndarray method wrappers (.sum, .any) cost
    about as much as the arithmetic there.  The full step's point s + step
    and its edge differences are computed once per step: they are the line
    search's first probe and, when no row halves its step, the next point,
    whose win probabilities are taken from those same differences.
    """
    scores = np.zeros((rows, n))
    iterations = np.zeros(rows, dtype=np.intp)
    live = np.arange(rows)
    work = edges
    s = _start(edges, rows, n)
    p = _win_probabilities(_differences(s, work))
    grad = _gradient(s, p, work, lam)
    value = None  # objective at s, when the last line search already computed it
    for step_count in range(_MAX_ITERATIONS + 1):
        done = np.maximum.reduce(np.abs(grad), axis=1) <= 0.5 * _TOLERANCE
        if picks_only and step_count:
            done |= _certain_picks(s, grad, lam)
        if step_count == _MAX_ITERATIONS:
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
        full = s + step
        differences = _differences(full, work)
        if np.count_nonzero(search):
            # the searching rows halve in lockstep, so one scale serves them all;
            # `scales` keeps the scale each row stopped at, once any row halves
            if value is None:
                value = _objective(s, _differences(s, work), work, lam)
            scale, scales = 1.0, None
            trial = _objective(full, differences, work, lam)
            while True:
                search &= trial < value + _ARMIJO * scale * decrement
                if scale <= _MIN_SCALE or not np.count_nonzero(search):
                    break
                if scales is None:
                    scales = np.ones(len(s))
                scale *= 0.5
                scales[search] = scale
                probe = s + scale * step
                trial = _objective(probe, _differences(probe, work), work, lam)
            if scales is None:
                value = trial  # every row takes its full step, the point of that first trial
            else:
                step *= scales[:, None]
                full = s + step
                differences = _differences(full, work)
                value = None
        else:
            value = None
        s = full
        p = _win_probabilities(differences)
        grad = _gradient(s, p, work, lam)
    # the row means, bit for bit as .mean(axis=1) computes them, without its overhead
    scores -= scores.sum(axis=1, keepdims=True) / n
    if picks_only:
        return scores, None, iterations
    grad = _gradient(scores, _win_probabilities(_differences(scores, edges)), edges, lam)
    return scores, _converged(grad), iterations


def _converged(grad: np.ndarray) -> np.ndarray:
    """The `converged` flag of every row of a gradient stack: every component within _TOLERANCE."""
    return np.abs(grad).max(axis=-1) <= _TOLERANCE


def _index_array(values) -> np.ndarray:
    """`values` as an intp array of candidate indices; ValueError unless each
    is a whole number, which a bool is not."""
    array = np.asarray(values)
    if array.dtype.kind in "iu":
        return array.astype(np.intp, copy=False)
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, caught by the comparison
        indices = array.astype(np.intp)
    if array.dtype.kind == "b" or not np.array_equal(indices, array):
        raise ValueError("candidate indices must be whole numbers")
    return indices


def _fit_entries(
    rows: np.ndarray,
    winners: np.ndarray,
    losers: np.ndarray,
    weights: np.ndarray,
    row_count: int,
    population_size: int,
    lam: float,
    picks_only: bool = False,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """fit_bt_rows on flat, already checked win entries: entry e is a win of
    candidate winners[e] over losers[e] in row rows[e] (of `row_count`) with
    weight weights[e] > 0.  Each row's sums add its entries in the order they
    are given, so a row's bits depend on that order alone.

    With `picks_only`, a row also stops once its top pick is certain: once
    its top score leads the second by more than twice its distance bound to
    the full solve's point (_certain_picks).  Such a row's scores are not
    converged, but top_candidates picks from them what it picks from the
    full solve's, provided the full solve meets its stopping test within
    _MAX_ITERATIONS steps; every other row keeps its full-solve bits.  The
    `converged` flags would take one more gradient pass over every row and
    say nothing of a pick, so with `picks_only` they are None.
    """
    edges = _row_edges(rows, winners, losers, weights, population_size)
    return _solve(edges, row_count, population_size, lam, picks_only)


def fit_bt_rows(
    winners,
    losers,
    weights,
    population_size: int,
    lam: float = DEFAULT_LAM,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit every row of a stack of independent comparison sets at once.

    `winners`, `losers` and `weights` are (rows, entries) arrays: entry e of
    row r is a win of candidate winners[r, e] over losers[r, e] (indices
    within the row, 0..population_size-1) with weight weights[r, e]; a tie
    is two half-wins, and zero-weight entries are padding.  Indices must be
    whole numbers and weights finite and non-negative; an entry of positive
    weight must not pair a candidate with itself.  Every row is fitted
    exactly as fit_bt fits it alone, down to the bits of its scores and its
    `iterations`; a row leaves the Newton loop once it meets the stopping
    test or after _MAX_ITERATIONS steps.  Returns the (rows, population_size)
    mean-centered scores plus the per-row `converged` flags and Newton step
    counts.
    """
    if population_size < 2:
        raise ValueError("population_size must be at least 2")
    check_lam(lam)
    winners = _index_array(winners)
    losers = _index_array(losers)
    weights = np.asarray(weights, dtype=np.float64)
    if winners.ndim != 2 or winners.shape != losers.shape or winners.shape != weights.shape:
        raise ValueError("winners, losers and weights must be (rows, entries) arrays of one shape")
    if winners.size:
        if min(winners.min(), losers.min()) < 0 or max(winners.max(), losers.max()) >= population_size:
            raise ValueError(f"candidate index out of range for population of {population_size}")
        # a NaN anywhere makes both reductions NaN
        low, high = weights.min(), weights.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("weights must be finite")
        if low < 0:
            raise ValueError("weights must be non-negative")
    used = weights > 0
    if np.any(used & (winners == losers)):
        raise ValueError("self-comparison: an entry of positive weight pairs a candidate with itself")
    rows = np.broadcast_to(np.arange(len(winners))[:, None], winners.shape)
    return _fit_entries(rows[used], winners[used], losers[used], weights[used], len(winners), population_size, lam)


def fit_bt(records, population_size: int, lam: float = DEFAULT_LAM) -> ScoreVector:
    """Fit scores to `records`, (left, right, outcome) triples such as ComparisonRecords, by damped Newton.

    Deterministic: start from each candidate's smoothed win log-odds,
    log((wins + 1/2) / (losses + 1/2)) with a tie half a win and half a loss,
    centred (so a candidate without comparisons starts at minus the mean,
    and a fit without any at zeros, taking 0 steps); each step solves
    (L_w + lam*I) step = grad, where L_w is the comparison graph's
    Laplacian under edge weights w*p*(1-p), the negated Hessian.  While the
    Newton decrement grad.step is above 1e-8 the step is halved until it
    passes an Armijo test on the objective; below that the objective is flat
    to rounding, so a test on it would only see noise, and full steps are
    taken (they converge quadratically there).  Iteration stops once the
    gradient max-norm is within _TOLERANCE/2 (_TOLERANCE = 1e-8) or after
    _MAX_ITERATIONS (500) Newton steps, and the scores are then
    mean-centered exactly (the likelihood is shift-invariant and the penalty
    strictly prefers the centered point).  `iterations` counts Newton
    steps; `converged` reports whether the gradient max-norm at the returned
    point is within _TOLERANCE.  A non-converged fit is still returned.
    This is the one-row case of fit_bt_rows, which runs the same solver on a
    stack of fits.
    """
    if population_size < 2:
        raise ValueError("population_size must be at least 2")
    check_lam(lam)
    scores, converged, iterations = _solve(_win_entries(records, population_size), 1, population_size, lam)
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
