"""Effective-rating estimation from per-problem solve outcomes.

A model with rating R solves a problem of rating R_p with probability
1 / (1 + 10^((R_p - R) / 400)).  The rating estimate is the MAP under a
Gaussian prior within a bounded interval, found by a bracketed Newton solve
on the log posterior's derivative; uncertainty comes from a seeded bootstrap
over problems with percentile confidence bounds, the resamples solved in
vectorised blocks of rows of problem indices.  At the points every row
shares (both bounds and the Newton start) the terms are computed once per
problem and gathered, and the bootstrap solves the full-data MAP as row 0
of its first block.  Outcomes with one trial each skip the trial
weights, which are all 1, and the later Newton steps are evaluated in place
in two buffers per block; each row keeps the bits of a solve of its own, so
`estimate` equals `map_estimate` and `bootstrap_ci` exactly.  A prior,
bounds, resample count or seed that is not a valid number raises
ConfigError.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, check_count, is_finite_real, is_int

DEFAULT_PRIOR_MEAN = 3100.0
DEFAULT_PRIOR_STD = 500.0
DEFAULT_BOUNDS = (1000.0, 5000.0)
DEFAULT_RESAMPLES = 1000
# (resamples, problems) elements per bootstrap block: each of a block's
# (rows, problems) arrays, the gathered ratings and the two buffers every
# Newton step after the first is evaluated in, stays near 128 KB.  Much of a
# step's cost is per step, not per element, which favours large blocks, but
# on the benchmark's 73 Bernoulli problems, with the steps in place, blocks of
# 8192 and 32768 elements and one block of all 1000 resamples each ran
# 15-19% slower than this (in-process timing on a shared 2-vCPU VM)
_BLOCK_ELEMENTS = 16384
# Newton steps a rating solve may take before it raises
_MAX_STEPS = 100


@dataclass(frozen=True)
class ProblemOutcome:
    """Evidence from one problem: successes out of trials at a known rating.

    Boolean evidence is the trials=1 special case; use `bernoulli`.
    """

    problem_rating: float
    successes: int
    trials: int

    def __post_init__(self) -> None:
        if not is_finite_real(self.problem_rating):
            raise ValueError(f"problem_rating must be a finite number, got {self.problem_rating!r}")
        for name in ("successes", "trials"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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
        return {**asdict(self), "bounds": list(self.bounds)}


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


def _check_prior(prior_mean: float, prior_std: float, bounds: tuple[float, float]) -> None:
    """Raise ConfigError unless the prior is finite with prior_std > 0 and bounds are two finite, increasing numbers."""
    for name, value in (("prior_mean", prior_mean), ("prior_std", prior_std)):
        if not is_finite_real(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if not prior_std > 0:
        raise ConfigError(f"prior_std must be positive, got {prior_std!r}")
    pair = tuple(bounds) if isinstance(bounds, (tuple, list, np.ndarray)) else ()
    if not (len(pair) == 2 and all(map(is_finite_real, pair)) and pair[0] < pair[1]):
        raise ConfigError(f"bounds must be [low, high], two finite numbers with low < high, got {bounds!r}")


_SCALE = math.log(10.0) / 400.0  # c: P(solve) = 1 / (1 + exp(-c (r - R)))


def _terms(rating, ratings, trials) -> tuple[np.ndarray, np.ndarray]:
    """t tanh(c (r - R) / 2) and t tanh^2, element by element.

    p = (1 + tanh(c (r - R) / 2)) / 2 never overflows, and it gives
    w - t p = (w - t / 2) - t tanh / 2 and t p (1 - p) = (t - t tanh^2) / 4.
    """
    tanh = np.tanh(0.5 * _SCALE * (rating - ratings))
    weighted = trials * tanh
    return weighted, weighted * tanh


def _map_rows(ratings, wins, trials, picks, prior_mean, prior_std, bounds) -> np.ndarray:
    """MAP rating of every row of `picks`, to 1e-9 Elo.

    `ratings`, `wins` and `trials` hold one entry per problem, and each row
    of the (rows, k) index array `picks` names the k problems of one data
    set: `np.arange(k)[None]` for the full data, one bootstrap resample per
    row otherwise.  The log posterior is strictly concave, so its derivative
    g(r) = c * sum(w - t p) - (r - mu) / sigma^2, with c = ln(10) / 400,
    is strictly decreasing.  A row whose g does not change sign over
    `bounds` has its MAP exactly on a bound.  Every other row runs Newton
    steps on g (curvature c^2 * sum(t p (1 - p)) + 1 / sigma^2) inside a
    bracket that shrinks on the sign of g.  As in rtsafe, a step leaving the
    bracket or longer than half the row's move before last bisects instead:
    where the curvature fades, plain Newton steps can hop between the
    bracket's ends for hundreds of steps.  A row is frozen once it moves at
    most 1e-9; one still moving after _MAX_STEPS steps raises RuntimeError.

    Both bounds and the Newton start clip(mu) are points every row shares,
    so there the terms of g and its curvature are computed once per problem
    and gathered by `picks`; element by element they are the values an
    evaluation on the gathered arrays computes, and each row sums them in
    the same order, so every row keeps its bits.  Only the Newton steps
    after the first evaluate row by row, each op for op as `_terms` does but
    into two buffers allocated once per block, so a step makes no
    (rows, k) temporaries.  When every problem has one trial the weights
    are all 1: the steps skip the product t tanh (1.0 * x is x) and take a
    row's total of t as k (a sum of k ones is k), so these rows keep their
    bits too.
    """
    precision = 1.0 / prior_std**2

    def slope(rating, excess, weighted_sum):
        return _SCALE * (excess - 0.5 * weighted_sum) - (rating - prior_mean) * precision

    excess = (wins - 0.5 * trials)[picks].sum(axis=1)
    # numpy scalars, not Python floats, so a float32 prior promotes as it does against an array
    low, high = np.float64(bounds[0]), np.float64(bounds[1])
    at_high = slope(high, excess, _terms(high, ratings, trials)[0][picks].sum(axis=1)) >= 0
    at_low = slope(low, excess, _terms(low, ratings, trials)[0][picks].sum(axis=1)) <= 0
    result = np.where(at_high, high, low)
    live = np.flatnonzero(~(at_high | at_low))
    # the solve works on compacted copies of the live rows: gathering them from the full stack every step is slower
    picks = picks[live]
    ratings_rows, excess = ratings[picks], excess[live]
    # one trial per problem: the rows never gather, multiply or compact the weights
    unit = not np.count_nonzero(trials != 1)
    trials_rows = None if unit else trials[picks]
    total = float(picks.shape[1]) if unit else trials_rows.sum(axis=1)
    rating = np.clip(float(prior_mean), low, high)
    # every row starts at the same point, so the first step's sums are gathered like the bound checks'
    weighted_sum, squared_sum = (a[picks].sum(axis=1) for a in _terms(rating, ratings, trials))
    # each later step is evaluated in these, the first rows of each holding the live rows
    tanh_buffer, weighted_buffer = np.empty(picks.shape), np.empty(picks.shape)
    low, high = np.full(live.size, low), np.full(live.size, high)
    # the last two moves of each row, as rtsafe keeps them, both starting at the bracket width
    last = high - low
    before_last = last.copy()
    for step_index in range(_MAX_STEPS):
        if live.size == 0:
            return result
        if step_index:
            # _terms(rating[:, None], ratings_rows, trials_rows), op for op, without temporaries
            tanh = np.subtract(rating[:, None], ratings_rows, out=tanh_buffer[: live.size])
            np.multiply(0.5 * _SCALE, tanh, out=tanh)
            np.tanh(tanh, out=tanh)
            weighted = tanh if unit else np.multiply(trials_rows, tanh, out=weighted_buffer[: live.size])
            weighted_sum = np.add.reduce(weighted, axis=1)
            squared_sum = np.add.reduce(np.multiply(weighted, tanh, out=weighted_buffer[: live.size]), axis=1)
        gradient = slope(rating, excess, weighted_sum)
        curvature = 0.25 * _SCALE**2 * (total - squared_sum) + precision
        rising = gradient > 0
        low = np.where(rising, rating, low)
        high = np.where(rising, high, rating)
        step = gradient / curvature
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
            ratings_rows, excess = ratings_rows[keep], excess[keep]
            if not unit:
                trials_rows, total = trials_rows[keep], total[keep]
    if live.size:
        raise RuntimeError(f"rating solve did not converge in {_MAX_STEPS} steps for {live.size} rows")
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
    return float(_map_rows(ratings, wins, trials, np.arange(len(ratings))[None], prior_mean, prior_std, bounds)[0])


def _bootstrap(outcomes, prior_mean, prior_std, bounds, resamples, seed):
    """The full-data MAP and the percentile interval.

    The full-data MAP is solved as row 0 of the first block; rows are
    solved independently, so it equals `map_estimate`.
    """
    check_count("resamples", resamples, 1)
    check_count("seed", seed, 0)
    _check_prior(prior_mean, prior_std, bounds)
    ratings, wins, trials = _outcome_arrays(outcomes)
    count = len(ratings)
    rng = np.random.default_rng(seed)
    rows = max(1, _BLOCK_ELEMENTS // count)
    estimates = []
    for start in range(0, resamples, rows):
        # one draw per block: the same stream as one integers(0, count, count) call per resample
        picks = rng.integers(0, count, size=(min(rows, resamples - start), count))
        if start == 0:
            picks = np.vstack((np.arange(count), picks))
        estimates.append(_map_rows(ratings, wins, trials, picks, prior_mean, prior_std, bounds))
    maps = np.concatenate(estimates)
    low, high = np.percentile(maps[1:], [2.5, 97.5], method="linear")
    return float(maps[0]), float(low), float(high)


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
    linear interpolation.  Deterministic given the seed, an integer >= 0."""
    return _bootstrap(outcomes, prior_mean, prior_std, bounds, resamples, seed)[1:]


def estimate(
    outcomes,
    prior_mean: float = DEFAULT_PRIOR_MEAN,
    prior_std: float = DEFAULT_PRIOR_STD,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> EloEstimate:
    """`map_estimate` and `bootstrap_ci` in one pass over the outcomes."""
    rating, ci_low, ci_high = _bootstrap(outcomes, prior_mean, prior_std, bounds, resamples, seed)
    return EloEstimate(rating, ci_low, ci_high, prior_mean, prior_std, tuple(bounds), resamples, seed)


def load_outcomes(path: str | Path) -> list[ProblemOutcome]:
    """Read outcomes from CSV or JSON lines.

    CSV needs a header with `problem_rating` plus either `solved` (true/false)
    or `successes` and `trials`; a row short of a header field raises
    ValueError.  JSONL uses the same field names, one object per line, the
    rating a JSON number and the counts JSON integers; a line that is not an
    object, or a value of another type, raises ValueError.
    """
    path = Path(path)
    rows: list[dict] = []
    from_csv = path.suffix.lower() == ".csv"
    if from_csv:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                missing = [name for name, value in row.items() if value is None]
                if missing:
                    raise ValueError(f"line {reader.line_num} of {path} has no {', '.join(missing)}")
                rows.append(row)
    else:
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
        # CSV fields are text; JSON values go to ProblemOutcome as they are, so its checks see their types
        rating = float(row["problem_rating"]) if from_csv else row["problem_rating"]
        if "solved" in row and row["solved"] not in (None, ""):
            solved = row["solved"] if isinstance(row["solved"], bool) else _parse_bool(row["solved"])
            outcomes.append(ProblemOutcome.bernoulli(rating, solved))
        else:
            counts = (row["successes"], row["trials"])
            outcomes.append(ProblemOutcome(rating, *(map(int, counts) if from_csv else counts)))
    return outcomes


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")
