"""Effective-rating estimation from per-problem solve outcomes.

A model with rating R solves a problem of rating R_p with probability
1 / (1 + 10^((R_p - R) / 400)).  The rating estimate is the MAP under a
Gaussian prior within a bounded interval, found by a bracketed Newton solve
on the log posterior's derivative; uncertainty comes from a seeded bootstrap
over problems with percentile confidence bounds, the resamples solved in
vectorised blocks.  A prior, bounds or resample count that is not a valid
number raises ConfigError.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, is_int

DEFAULT_PRIOR_MEAN = 3100.0
DEFAULT_PRIOR_STD = 500.0
DEFAULT_BOUNDS = (1000.0, 5000.0)
DEFAULT_RESAMPLES = 1000
# (resamples, problems) elements per bootstrap block: each block's arrays
# stay at 64 KB, where one whole-bootstrap pass at the defaults made
# megabyte temporaries whose page faults came and went with the heap layout
_BLOCK_ELEMENTS = 8192


@dataclass(frozen=True)
class ProblemOutcome:
    """Evidence from one problem: successes out of trials at a known rating.

    Boolean evidence is the trials=1 special case; use `bernoulli`.
    """

    problem_rating: float
    successes: int
    trials: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.problem_rating):
            raise ValueError("problem_rating must be finite")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.successes <= self.trials:
            raise ValueError(f"successes {self.successes} out of range for {self.trials} trials")

    @classmethod
    def bernoulli(cls, problem_rating: float, solved: bool) -> "ProblemOutcome":
        return cls(problem_rating, 1 if solved else 0, 1)


@dataclass(frozen=True)
class EloEstimate:
    rating: float
    ci_low: float
    ci_high: float
    prior_mean: float
    prior_std: float
    bounds: tuple[float, float]
    resamples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "rating": self.rating,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "prior_mean": self.prior_mean,
            "prior_std": self.prior_std,
            "bounds": list(self.bounds),
            "resamples": self.resamples,
            "seed": self.seed,
        }


def solve_probability(model_rating: float, problem_rating: float) -> float:
    """P(solve) for a model at `model_rating` on a problem at `problem_rating`."""
    return float(1.0 / (1.0 + np.power(10.0, (problem_rating - model_rating) / 400.0)))


def _outcome_arrays(outcomes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if len(outcomes) == 0:
        raise ValueError("need at least one outcome")
    ratings = np.array([o.problem_rating for o in outcomes], dtype=np.float64)
    wins = np.array([o.successes for o in outcomes], dtype=np.float64)
    trials = np.array([o.trials for o in outcomes], dtype=np.float64)
    return ratings, wins, trials


def _is_finite_number(value) -> bool:
    """A finite real number that fits a float; bools do not count."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _check_prior(prior_mean: float, prior_std: float, bounds: tuple[float, float]) -> None:
    """Raise ConfigError unless the prior is finite with prior_std > 0 and bounds are two finite, increasing numbers."""
    for name, value in (("prior_mean", prior_mean), ("prior_std", prior_std)):
        if not _is_finite_number(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if not prior_std > 0:
        raise ConfigError(f"prior_std must be positive, got {prior_std!r}")
    pair = tuple(bounds) if isinstance(bounds, (tuple, list, np.ndarray)) else ()
    if not (len(pair) == 2 and all(map(_is_finite_number, pair)) and pair[0] < pair[1]):
        raise ConfigError(f"bounds must be [low, high], two finite numbers with low < high, got {bounds!r}")


def _map_rows(ratings, wins, trials, prior_mean, prior_std, bounds, max_steps: int = 100) -> np.ndarray:
    """MAP rating of every row of a (rows, problems) stack, to 1e-9 Elo.

    The log posterior is strictly concave, so its derivative
    g(r) = c * sum(w - t p) - (r - mu) / sigma^2, with c = ln(10) / 400,
    is strictly decreasing.  A row whose g does not change sign over
    `bounds` has its MAP exactly on a bound.  Every other row runs Newton
    steps on g (curvature c^2 * sum(t p (1 - p)) + 1 / sigma^2) inside a
    bracket that shrinks on the sign of g.  As in rtsafe, a step leaving the
    bracket or longer than half the row's move before last bisects instead:
    where the curvature fades, plain Newton steps can hop between the
    bracket's ends for hundreds of steps.  A row is frozen once it moves at
    most 1e-9.
    """
    scale = math.log(10.0) / 400.0
    precision = 1.0 / prior_std**2

    def slope_and_curvature(rating, ratings, trials, excess, total):
        # p = (1 + tanh(c (r - R) / 2)) / 2 never overflows; w - t p = (w - t / 2) - t tanh / 2
        tanh = np.tanh(0.5 * scale * (rating[:, None] - ratings))
        weighted = trials * tanh
        slope = scale * (excess - 0.5 * weighted.sum(axis=1)) - (rating - prior_mean) * precision
        curvature = 0.25 * scale**2 * (total - (weighted * tanh).sum(axis=1)) + precision
        return slope, curvature

    rows = (ratings, trials, (wins - 0.5 * trials).sum(axis=1), trials.sum(axis=1))
    low = np.full(ratings.shape[0], float(bounds[0]))
    high = np.full(ratings.shape[0], float(bounds[1]))
    at_high = slope_and_curvature(high, *rows)[0] >= 0
    at_low = slope_and_curvature(low, *rows)[0] <= 0
    result = np.where(at_high, high, low)
    live = np.flatnonzero(~(at_high | at_low))
    # the solve works on compacted copies of the live rows: gathering them from the full stack every step is slower
    rows, low, high = tuple(a[live] for a in rows), low[live], high[live]
    rating = np.clip(float(prior_mean), low, high)
    # the last two moves of each row, as rtsafe keeps them, both starting at the bracket width
    last = high - low
    before_last = last.copy()
    for _ in range(max_steps):
        if live.size == 0:
            return result
        slope, curvature = slope_and_curvature(rating, *rows)
        rising = slope > 0
        low = np.where(rising, rating, low)
        high = np.where(rising, high, rating)
        step = slope / curvature
        nxt = rating + step
        # strict: a converged row's next point is a bracket end, and bisecting it would undo the step
        bisect = (nxt < low) | (nxt > high) | (np.abs(step) > 0.5 * before_last)
        # the masked updates below run only when some row needs them: they cost
        # as much as the arithmetic on these short arrays
        if np.count_nonzero(bisect):
            nxt[bisect] = 0.5 * (low[bisect] + high[bisect])
        moved = np.abs(nxt - rating)
        done = moved <= 1e-9
        rating, before_last, last = nxt, last, moved
        if np.count_nonzero(done):
            result[live[done]] = nxt[done]
            keep = ~done
            live, rating, low, high = live[keep], rating[keep], low[keep], high[keep]
            before_last, last = before_last[keep], last[keep]
            rows = tuple(a[keep] for a in rows)
    if live.size:
        raise RuntimeError(f"rating solve did not converge in {max_steps} steps for {live.size} rows")
    return result


def map_estimate(
    outcomes,
    prior_mean: float = DEFAULT_PRIOR_MEAN,
    prior_std: float = DEFAULT_PRIOR_STD,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
) -> float:
    """Posterior-maximizing rating over the bounded interval, to 1e-9 Elo."""
    _check_prior(prior_mean, prior_std, bounds)
    ratings, wins, trials = _outcome_arrays(outcomes)
    return float(_map_rows(ratings[None], wins[None], trials[None], prior_mean, prior_std, bounds)[0])


def bootstrap_ci(
    outcomes,
    prior_mean: float = DEFAULT_PRIOR_MEAN,
    prior_std: float = DEFAULT_PRIOR_STD,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval: resample problems with replacement,
    refit the MAP each time, take the 2.5th and 97.5th percentiles with
    linear interpolation.  Deterministic given the seed."""
    if not is_int(resamples) or resamples < 1:
        raise ConfigError(f"resamples must be an integer of at least 1, got {resamples!r}")
    _check_prior(prior_mean, prior_std, bounds)
    ratings, wins, trials = _outcome_arrays(outcomes)
    count = len(ratings)
    rng = np.random.default_rng(seed)
    rows = max(1, _BLOCK_ELEMENTS // count)
    estimates = []
    for start in range(0, resamples, rows):
        # one draw per block: the same stream as one integers(0, count, count) call per resample
        picks = rng.integers(0, count, size=(min(rows, resamples - start), count))
        estimates.append(_map_rows(ratings[picks], wins[picks], trials[picks], prior_mean, prior_std, bounds))
    low, high = np.percentile(np.concatenate(estimates), [2.5, 97.5], method="linear")
    return float(low), float(high)


def estimate(
    outcomes,
    prior_mean: float = DEFAULT_PRIOR_MEAN,
    prior_std: float = DEFAULT_PRIOR_STD,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> EloEstimate:
    rating = map_estimate(outcomes, prior_mean, prior_std, bounds)
    ci_low, ci_high = bootstrap_ci(outcomes, prior_mean, prior_std, bounds, resamples, seed)
    return EloEstimate(rating, ci_low, ci_high, prior_mean, prior_std, tuple(bounds), resamples, seed)


def load_outcomes(path: str | Path) -> list[ProblemOutcome]:
    """Read outcomes from CSV or JSON lines.

    CSV needs a header with `problem_rating` plus either `solved` (true/false)
    or `successes` and `trials`.  JSONL uses the same field names, one object
    per line; a line that is not an object raises ValueError.
    """
    path = Path(path)
    rows: list[dict]
    if path.suffix.lower() == ".csv":
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
    else:
        rows = []
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError(f"line {number} of {path} is not a JSON object")
                rows.append(row)
    outcomes = []
    for row in rows:
        rating = float(row["problem_rating"])
        if "solved" in row and row["solved"] not in (None, ""):
            solved = row["solved"] if isinstance(row["solved"], bool) else _parse_bool(row["solved"])
            outcomes.append(ProblemOutcome.bernoulli(rating, solved))
        else:
            outcomes.append(ProblemOutcome(rating, int(row["successes"]), int(row["trials"])))
    return outcomes


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")
