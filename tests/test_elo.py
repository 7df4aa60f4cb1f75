"""Rating estimation tests: solve curve, MAP against a grid oracle, bootstrap."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from btevolve import elo
from btevolve.elo import (
    ProblemOutcome,
    _map_rows,
    _terms,
    bootstrap_ci,
    estimate,
    load_outcomes,
    map_estimate,
    solve_probability,
)
from btevolve.errors import ConfigError


def grid_map(outcomes, prior_mean=3100.0, prior_std=500.0, lo=1000.0, hi=5000.0):
    """Independent oracle: exhaustive 0.01-Elo scan of the log posterior."""
    grid = np.arange(lo, hi + 0.005, 0.01)
    total = -0.5 * ((grid - prior_mean) / prior_std) ** 2
    for outcome in outcomes:
        p = 1.0 / (1.0 + 10.0 ** ((outcome.problem_rating - grid) / 400.0))
        p = np.clip(p, 1e-300, 1 - 1e-16)
        total += outcome.successes * np.log(p) + (outcome.trials - outcome.successes) * np.log1p(-p)
    return float(grid[int(np.argmax(total))])


def bisection_map(ratings, wins, trials, prior_mean=3100.0, prior_std=500.0, lo=1000.0, hi=5000.0):
    """Independent oracle: 64 bisection steps on the log posterior's derivative."""
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        p = 1.0 / (1.0 + 10.0 ** ((ratings - mid) / 400.0))
        slope = math.log(10.0) / 400.0 * np.sum(wins - trials * p) - (mid - prior_mean) / prior_std**2
        lo, hi = (mid, hi) if slope > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_solve_probability_symmetry_and_anchors():
    for rating in (1500.0, 3100.0, 4200.0):
        assert solve_probability(rating, rating) == pytest.approx(0.5, abs=1e-15)
    # 400 points above the problem: odds are 10:1
    assert solve_probability(3000.0, 2600.0) == pytest.approx(10.0 / 11.0, rel=1e-14)
    assert solve_probability(2600.0, 3000.0) == pytest.approx(1.0 / 11.0, rel=1e-14)
    # frozen high-precision reference
    assert solve_probability(3256.0, 2851.0) == pytest.approx(0.91144177000301578374, rel=1e-14)


def test_solve_probability_monotone_in_model_rating():
    ratings = np.linspace(1000, 5000, 41)
    values = [solve_probability(r, 3000.0) for r in ratings]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_symmetric_single_problem_map_sits_at_prior_mean():
    # one success and one failure at the prior mean: likelihood peaks there too
    outcomes = [ProblemOutcome(3100.0, 1, 2)]
    assert map_estimate(outcomes) == pytest.approx(3100.0, abs=1e-3)
    pair = [ProblemOutcome.bernoulli(3100.0, True), ProblemOutcome.bernoulli(3100.0, False)]
    assert map_estimate(pair) == pytest.approx(3100.0, abs=1e-3)


def test_map_matches_grid_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        outcomes = []
        for _ in range(12):
            rating = float(rng.uniform(2600, 3600))
            trials = int(rng.integers(1, 6))
            successes = int(rng.integers(0, trials + 1))
            outcomes.append(ProblemOutcome(rating, successes, trials))
        assert map_estimate(outcomes) == pytest.approx(grid_map(outcomes), abs=0.05)


def test_prior_pulls_weak_evidence():
    # a single easy solve alone would push the rating to the upper bound
    outcomes = [ProblemOutcome.bernoulli(2000.0, True)]
    fit = map_estimate(outcomes)
    assert 3100.0 < fit < 3200.0  # slight upward pull, still near the prior


def test_all_failures_stay_above_lower_bound():
    outcomes = [ProblemOutcome(2500.0, 0, 4), ProblemOutcome(2700.0, 0, 4)]
    fit = map_estimate(outcomes)
    assert 1000.0 < fit < 3100.0


def test_outcome_validation():
    with pytest.raises(ValueError):
        ProblemOutcome(3000.0, 3, 2)
    with pytest.raises(ValueError):
        ProblemOutcome(3000.0, 0, 0)
    with pytest.raises(ValueError):
        ProblemOutcome(float("nan"), 1, 2)
    with pytest.raises(ValueError):
        map_estimate([])
    with pytest.raises(ValueError):
        map_estimate([ProblemOutcome(3000.0, 1, 2)], prior_std=0.0)
    with pytest.raises(ValueError):
        bootstrap_ci([ProblemOutcome(3000.0, 1, 2)], resamples=0)


@pytest.mark.parametrize(
    ("successes", "trials"),
    [(True, 1.5), (1, 1.5), (1.0, 2), (1, True)],
    ids=["bool-and-fraction", "fraction", "float", "bool"],
)
def test_outcome_counts_must_be_integers(successes, trials):
    with pytest.raises(ValueError, match="must be an integer"):
        ProblemOutcome(3000.0, successes, trials)


@pytest.mark.parametrize("rating", ["3000", True], ids=["string", "bool"])
def test_outcome_rating_must_be_a_real_number(rating):
    with pytest.raises(ValueError, match="problem_rating must be a finite number"):
        ProblemOutcome(rating, 1, 1)


def test_outcome_accepts_numpy_integer_counts():
    outcome = ProblemOutcome(3000.0, np.int64(1), np.int32(2))
    assert map_estimate([outcome]) == map_estimate([ProblemOutcome(3000.0, 1, 2)])


@pytest.mark.parametrize("fit", [map_estimate, bootstrap_ci])
@pytest.mark.parametrize(
    "settings",
    [{"prior_std": 0.0}, {"prior_std": -5.0}, {"bounds": (5000.0, 1000.0)}],
    ids=["zero-prior-std", "negative-prior-std", "reversed-bounds"],
)
def test_prior_and_bounds_are_checked(fit, settings):
    with pytest.raises(ValueError):
        fit([ProblemOutcome(3000.0, 1, 2)], **settings)


MISTYPED_SETTINGS = {
    "bool-prior-mean": {"prior_mean": True},
    "three-bounds": {"bounds": (1000.0, 5000.0, 7.0)},
    "bool-resamples": {"resamples": True},
    "string-prior-std": {"prior_std": "500"},
    "null-prior-mean": {"prior_mean": None},
    "fractional-resamples": {"resamples": 1.5},
}


@pytest.mark.parametrize(
    ("fit", "settings"),
    [
        pytest.param(fit, settings, id=f"{fit.__name__}-{name}")
        for name, settings in MISTYPED_SETTINGS.items()
        for fit in (map_estimate, bootstrap_ci, estimate)
        if not (fit is map_estimate and "resamples" in settings)  # map_estimate takes no resamples
    ],
)
def test_mistyped_settings_are_config_errors(fit, settings):
    (name,) = settings
    with pytest.raises(ConfigError, match=name):
        fit([ProblemOutcome(3000.0, 1, 2)], **settings)


@pytest.mark.parametrize("prior", [(3100.0, 5000.0), (2000.0, 1e6)], ids=["prior-outside", "prior-inside"])
def test_map_pinned_to_a_bound_lands_exactly_on_it(prior):
    # every problem solved (failed) far below (above) the interval; a start
    # inside the interval must not creep toward the bound by bisection
    prior_mean, prior_std = prior
    solved = [ProblemOutcome(1000.0, 5, 5)] * 20
    assert map_estimate(solved, prior_mean, prior_std, (1000.0, 3000.0)) == 3000.0
    failed = [ProblemOutcome(3000.0, 0, 5)] * 20
    assert map_estimate(failed, 4000.0 - prior_mean, prior_std, (1000.0, 3000.0)) == 1000.0


def make_dataset(seed, true_rating=3100.0, problems=40):
    rng = np.random.default_rng(seed)
    outcomes = []
    for _ in range(problems):
        rating = float(rng.uniform(2600, 3600))
        solved = bool(rng.random() < solve_probability(true_rating, rating))
        outcomes.append(ProblemOutcome.bernoulli(rating, solved))
    return outcomes


def test_bootstrap_deterministic_per_seed():
    outcomes = make_dataset(11)
    first = bootstrap_ci(outcomes, resamples=150, seed=9)
    second = bootstrap_ci(outcomes, resamples=150, seed=9)
    assert first == second
    different = bootstrap_ci(outcomes, resamples=150, seed=10)
    assert different != first


def test_bootstrap_interval_brackets_map():
    outcomes = make_dataset(3)
    fit = estimate(outcomes, resamples=200, seed=4)
    assert fit.ci_low <= fit.rating <= fit.ci_high
    assert fit.ci_high - fit.ci_low < 600  # sane width for 40 problems
    payload = fit.to_dict()
    assert json.loads(json.dumps(payload)) == payload


def test_bootstrap_matches_a_loop_over_resamples():
    outcomes = make_dataset(21)
    ratings = np.array([o.problem_rating for o in outcomes])
    wins = np.array([o.successes for o in outcomes], dtype=np.float64)
    trials = np.array([o.trials for o in outcomes], dtype=np.float64)
    rng = np.random.default_rng(8)
    maps = []
    for _ in range(200):
        idx = rng.integers(0, len(outcomes), len(outcomes))
        maps.append(bisection_map(ratings[idx], wins[idx], trials[idx]))
    low, high = np.percentile(maps, [2.5, 97.5], method="linear")
    assert bootstrap_ci(outcomes, resamples=200, seed=8) == pytest.approx((low, high), abs=1e-6)


def test_blocked_bootstrap_equals_one_pass_over_all_resamples():
    # 73 problems split 1000 resamples into blocks of 224 and a last one of 104
    outcomes = make_dataset(5, problems=73)
    ratings = np.array([o.problem_rating for o in outcomes])
    wins = np.array([o.successes for o in outcomes], dtype=np.float64)
    trials = np.array([o.trials for o in outcomes], dtype=np.float64)
    picks = np.random.default_rng(12).integers(0, 73, size=(1000, 73))
    maps = _map_rows(ratings, wins, trials, picks, 3100.0, 500.0, (1000.0, 5000.0))
    low, high = np.percentile(maps, [2.5, 97.5], method="linear")
    assert bootstrap_ci(outcomes, 3100.0, 500.0, (1000.0, 5000.0), resamples=1000, seed=12) == (low, high)


def test_rating_solve_converges_within_twenty_newton_steps(monkeypatch):
    # the benchmark's shape: 73 Bernoulli outcomes over a wide rating range, 1000 resamples
    rng = np.random.default_rng(73)
    ratings = rng.uniform(800.0, 3600.0, 73)
    wins = (rng.random(73) < 1.0 / (1.0 + 10.0 ** ((ratings - 2500.0) / 400.0))).astype(np.float64)
    trials = np.ones(73)
    picks = rng.integers(0, 73, size=(1000, 73))
    monkeypatch.setattr(elo, "_MAX_STEPS", 20)
    maps = _map_rows(ratings, wins, trials, picks, 3100.0, 500.0, (1000.0, 5000.0))
    for row in (0, 1, 999):
        assert maps[row] == pytest.approx(bisection_map(*(a[picks[row]] for a in (ratings, wins, trials))), abs=1e-6)
    monkeypatch.setattr(elo, "_MAX_STEPS", 2)
    with pytest.raises(RuntimeError, match="did not converge in 2 steps"):
        _map_rows(ratings, wins, trials, picks, 3100.0, 500.0, (1000.0, 5000.0))


# one bootstrap resample of the benchmark's elo workload (seed 902, op 5, row
# 853: 24 of 73 solved), ratings rounded to 0.01: Newton's steps inside the
# bracket hopped between its two ends, each pair of hops shrinking it only a
# little, and the solve raised after 100 steps
HOPPING_RATINGS = [
    3583.38, 2402.39, 3519.9, 3428.04, 3578.39, 1423.19, 2312.46, 2298.21, 2154.03, 3053.76, 2818.62, 1423.19, 2574.17,
    2392.97, 3519.9, 2771.72, 2290.78, 1597.04, 1878.66, 838.6, 2229.44, 1174.08, 3230.18, 2392.97, 2480.6, 1859.55,
    2818.62, 1912.86, 937.26, 838.6, 2818.62, 3447.19, 2229.44, 2295.21, 2203.89, 2502.49, 1912.86, 3578.39, 2502.49,
    2289.7, 2522.78, 2574.17, 1859.55, 2295.21, 1423.19, 2353.74, 2006.53, 2818.62, 3447.19, 2353.74, 2181.47, 2006.53,
    1800.27, 2310.93, 1912.86, 2402.39, 3519.9, 2353.74, 811.93, 2229.44, 3519.9, 948.3, 2402.39, 2574.17, 2421.75,
    2298.21, 2154.03, 3428.04, 1878.66, 3053.76, 3418.48, 2402.39, 1597.04,
]
HOPPING_SOLVED = "0000010100010000011101000101110000101001001010100001001000100100010010001"


def test_rating_solve_bisects_when_newton_hops_between_bracket_ends(monkeypatch):
    ratings = np.array(HOPPING_RATINGS)
    wins = np.array([float(flag) for flag in HOPPING_SOLVED])
    trials = np.ones(len(ratings))
    oracle = bisection_map(ratings, wins, trials)
    every = np.arange(len(ratings))
    monkeypatch.setattr(elo, "_MAX_STEPS", 20)
    maps = _map_rows(ratings, wins, trials, every[None], 3100.0, 500.0, (1000.0, 5000.0))
    monkeypatch.undo()
    assert maps[0] == pytest.approx(oracle, abs=1e-6)
    outcomes = [ProblemOutcome.bernoulli(r, flag == "1") for r, flag in zip(HOPPING_RATINGS, HOPPING_SOLVED)]
    assert map_estimate(outcomes) == maps[0]
    # stacked between rows that stop at other steps, each row keeps its own result
    flipped = 1.0 - wins
    alone = _map_rows(ratings, flipped, trials, every[None], 3100.0, 500.0, (1000.0, 5000.0))[0]
    # the flipped outcomes are problems 0..k-1 and the observed ones k..2k-1
    problems = np.concatenate([ratings] * 2), np.concatenate([flipped, wins]), np.ones(2 * len(ratings))
    picks = np.stack([every, every + len(ratings), every])
    assert _map_rows(*problems, picks, 3100.0, 500.0, (1000.0, 5000.0)).tolist() == [alone, maps[0], alone]


def random_outcomes(rng, problems, max_trials=4, spread=(800.0, 5200.0)):
    outcomes = []
    for _ in range(problems):
        trials = int(rng.integers(1, max_trials + 1))
        outcomes.append(ProblemOutcome(float(rng.uniform(*spread)), int(rng.integers(0, trials + 1)), trials))
    return outcomes


def outcome_arrays(outcomes):
    return (
        np.array([o.problem_rating for o in outcomes]),
        np.array([o.successes for o in outcomes], dtype=np.float64),
        np.array([o.trials for o in outcomes], dtype=np.float64),
    )


def test_shared_point_terms_equal_the_gathered_evaluation():
    # the solve evaluates the bounds and its start once per problem and
    # gathers the terms by `picks`: element by element, and summed by row,
    # they must be the bits an evaluation of every row at that point gives
    rng = np.random.default_rng(19)
    ratings, _, trials = outcome_arrays(random_outcomes(rng, 73))
    picks = rng.integers(0, 73, size=(224, 73))
    for point in (1000.0, 5000.0, 3100.0, float(rng.uniform(1000.0, 5000.0))):
        shared = _terms(np.float64(point), ratings, trials)
        full = _terms(np.full(len(picks), point)[:, None], ratings[picks], trials[picks])
        for by_problem, by_row in zip(shared, full):
            assert by_problem[picks].tobytes() == by_row.tobytes()
            assert by_problem[picks].sum(axis=1).tobytes() == by_row.sum(axis=1).tobytes()


@pytest.mark.parametrize(
    ("prior", "bounds"),
    [
        ((3100.0, 500.0), (1000.0, 5000.0)),
        ((4600.0, 5000.0), (2400.0, 2700.0)),
        ((np.float32(2500.5), 80), (1500, 3000)),
    ],
    ids=["defaults", "narrow-bounds-prior-outside", "float32-and-int-prior"],
)
def test_each_bootstrap_row_is_the_map_of_its_own_resample(prior, bounds):
    rng = np.random.default_rng(33)
    outcomes = random_outcomes(rng, 30, spread=(1800.0, 3600.0))
    picks = rng.integers(0, 30, size=(120, 30))
    maps = _map_rows(*outcome_arrays(outcomes), picks, *prior, bounds)
    alone = [map_estimate([outcomes[i] for i in row], *prior, bounds) for row in picks]
    assert maps.tolist() == alone
    if bounds == (2400.0, 2700.0):
        assert {2400.0, 2700.0} <= set(alone) and any(2400.0 < m < 2700.0 for m in alone)


@pytest.mark.parametrize("case", range(8))
def test_estimate_is_map_estimate_and_bootstrap_ci_exactly(case):
    rng = np.random.default_rng([41, case])
    outcomes = random_outcomes(rng, int(rng.integers(1, 81)))
    prior_mean, prior_std = float(rng.uniform(500.0, 5500.0)), float(rng.uniform(30.0, 3000.0))
    bounds = tuple(sorted(rng.uniform(800.0, 5200.0, 2)))
    if case == 0:  # every problem solved, prior above the interval: the MAP and every resample on the upper bound
        outcomes = [ProblemOutcome(float(r), 3, 3) for r in rng.uniform(0.0, 400.0, 12)]
        prior_mean = bounds[1] + 100.0
    resamples, seed = int(rng.integers(1, 300)), int(rng.integers(2**32))
    fit = estimate(outcomes, prior_mean, prior_std, bounds, resamples, seed)
    rating = map_estimate(outcomes, prior_mean, prior_std, bounds)
    ci = bootstrap_ci(outcomes, prior_mean, prior_std, bounds, resamples, seed)
    assert (fit.rating, fit.ci_low, fit.ci_high) == (rating, *ci)
    if case == 0:
        assert (fit.rating, fit.ci_low, fit.ci_high) == (bounds[1],) * 3


# the Bernoulli outcomes the elo benchmark and the paper's CF-73 set have:
# with one trial per problem the solve skips the trial weights

@pytest.mark.parametrize(
    ("prior", "bounds"),
    [
        ((3100.0, 500.0), (1000.0, 5000.0)),
        ((4600.0, 5000.0), (2400.0, 2700.0)),
        ((np.float32(2500.5), 80), (1500, 3000)),
    ],
    ids=["defaults", "narrow-bounds-prior-outside", "float32-and-int-prior"],
)
def test_each_bootstrap_row_is_the_map_of_its_own_bernoulli_resample(prior, bounds):
    rng = np.random.default_rng(37)
    outcomes = random_outcomes(rng, 30, max_trials=1, spread=(1800.0, 3600.0))
    picks = rng.integers(0, 30, size=(120, 30))
    maps = _map_rows(*outcome_arrays(outcomes), picks, *prior, bounds)
    alone = [map_estimate([outcomes[i] for i in row], *prior, bounds) for row in picks]
    assert maps.tolist() == alone
    if bounds == (2400.0, 2700.0):
        assert {2400.0, 2700.0} <= set(alone) and any(2400.0 < m < 2700.0 for m in alone)


@pytest.mark.parametrize("case", range(8))
def test_estimate_is_map_estimate_and_bootstrap_ci_exactly_on_bernoulli_outcomes(case):
    rng = np.random.default_rng([43, case])
    outcomes = random_outcomes(rng, int(rng.integers(1, 81)), max_trials=1)
    prior_mean, prior_std = float(rng.uniform(500.0, 5500.0)), float(rng.uniform(30.0, 3000.0))
    bounds = tuple(sorted(rng.uniform(800.0, 5200.0, 2)))
    if case == 0:  # every problem solved, prior above the interval: the MAP and every resample on the upper bound
        outcomes = [ProblemOutcome.bernoulli(float(r), True) for r in rng.uniform(0.0, 400.0, 12)]
        prior_mean = bounds[1] + 100.0
    resamples, seed = int(rng.integers(1, 300)), int(rng.integers(2**32))
    fit = estimate(outcomes, prior_mean, prior_std, bounds, resamples, seed)
    rating = map_estimate(outcomes, prior_mean, prior_std, bounds)
    ci = bootstrap_ci(outcomes, prior_mean, prior_std, bounds, resamples, seed)
    assert (fit.rating, fit.ci_low, fit.ci_high) == (rating, *ci)
    if case == 0:
        assert (fit.rating, fit.ci_low, fit.ci_high) == (bounds[1],) * 3


def test_skipping_unit_weights_equals_multiplying_by_ones():
    # the same Bernoulli rows solved once without the weights and once with
    # them: one more problem of 2 trials, which no row picks, makes the solve
    # read the weights
    rng = np.random.default_rng(53)
    arrays = outcome_arrays(random_outcomes(rng, 73, max_trials=1))
    picks = rng.integers(0, 73, size=(300, 73))
    bare = _map_rows(*arrays, picks, 3100.0, 500.0, (1000.0, 5000.0))
    weighted = [np.append(a, extra) for a, extra in zip(arrays, (3000.0, 1.0, 2.0))]
    assert bare.tobytes() == _map_rows(*weighted, picks, 3100.0, 500.0, (1000.0, 5000.0)).tobytes()


def benchmark_outcomes(seed, problems=73):
    """The elo benchmark's op inputs: Bernoulli outcomes of a model rated in
    1800-3200 on problems rated in 800-3600, and a bootstrap seed."""
    rng = np.random.default_rng([seed, 3])
    true_rating = rng.uniform(1800.0, 3200.0)
    ratings = rng.uniform(800.0, 3600.0, problems)
    solved = rng.random(problems) < 1.0 / (1.0 + 10.0 ** ((ratings - true_rating) / 400.0))
    return [ProblemOutcome.bernoulli(float(r), bool(s)) for r, s in zip(ratings, solved)], int(rng.integers(2**31))


def frozen_inputs(case):
    """(outcomes, bounds, resamples, seed) of one frozen `estimate` case."""
    if case == "multi-trial":
        return random_outcomes(np.random.default_rng(61), 50), (1000.0, 5000.0), 500, 5
    outcomes, seed = benchmark_outcomes(7 if case in ("bernoulli-seed7", "map-on-upper-bound") else 1)
    if case == "one-problem-with-two-trials":
        outcomes[0] = ProblemOutcome(outcomes[0].problem_rating, 1, 2)
    return outcomes, ((1000.0, 3200.0) if case == "map-on-upper-bound" else (1000.0, 5000.0)), 1000, seed


@pytest.mark.parametrize(
    ("case", "expected"),
    [
        ("bernoulli-seed1", ("0x1.c9ff6fb62bf15p+10", "0x1.991cb693fe06dp+10", "0x1.fb2ce1e15a5b1p+10")),
        ("bernoulli-seed7", ("0x1.96d698ceb6c14p+11", "0x1.82027a3c74f2ep+11", "0x1.adee5f335c443p+11")),
        ("multi-trial", ("0x1.bb283039f1093p+11", "0x1.35ac774799770p+11", "0x1.fd74eff37bd62p+11")),
        ("one-problem-with-two-trials", ("0x1.c020c8c73e4f8p+10", "0x1.8c8cb6d03d559p+10", "0x1.f468626644328p+10")),
        ("map-on-upper-bound", ("0x1.9000000000000p+11", "0x1.82027a3c74f2ep+11", "0x1.9000000000000p+11")),
    ],
)
def test_estimate_frozen_values(case, expected):
    # recorded when every Newton step multiplied by the trial weights, ones
    # included, in freshly allocated arrays: both paths keep those bits
    outcomes, bounds, resamples, seed = frozen_inputs(case)
    fit = estimate(outcomes, 3100.0, 500.0, bounds, resamples, seed)
    assert (fit.rating.hex(), fit.ci_low.hex(), fit.ci_high.hex()) == expected


@pytest.mark.parametrize("fit", [bootstrap_ci, estimate])
@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None], ids=["negative", "fraction", "bool", "string", "null"])
def test_bootstrap_seed_must_be_a_non_negative_integer(fit, seed):
    with pytest.raises(ConfigError, match=re.escape(f"seed must be an integer of at least 0, got {seed!r}")):
        fit([ProblemOutcome(3000.0, 1, 2)], resamples=5, seed=seed)


def test_bootstrap_accepts_a_numpy_integer_seed():
    outcomes = make_dataset(2)
    assert bootstrap_ci(outcomes, resamples=50, seed=np.uint64(7)) == bootstrap_ci(outcomes, resamples=50, seed=7)


def test_importing_the_package_does_not_import_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, btevolve; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True
    )
    assert done.stdout.strip() == "[]"


def test_load_outcomes_csv_and_jsonl(tmp_path):
    csv_path = tmp_path / "o.csv"
    csv_path.write_text(
        "problem_rating,solved\n2400,true\n3100,false\n", encoding="utf-8"
    )
    loaded = load_outcomes(csv_path)
    assert loaded == [
        ProblemOutcome(2400.0, 1, 1),
        ProblemOutcome(3100.0, 0, 1),
    ]

    counts_path = tmp_path / "c.csv"
    counts_path.write_text(
        "problem_rating,successes,trials\n2800,3,5\n", encoding="utf-8"
    )
    assert load_outcomes(counts_path) == [ProblemOutcome(2800.0, 3, 5)]

    jsonl_path = tmp_path / "o.jsonl"
    jsonl_path.write_text(
        json.dumps({"problem_rating": 2500, "solved": True})
        + "\n"
        + json.dumps({"problem_rating": 3300, "successes": 1, "trials": 4})
        + "\n",
        encoding="utf-8",
    )
    assert load_outcomes(jsonl_path) == [
        ProblemOutcome(2500.0, 1, 1),
        ProblemOutcome(3300.0, 1, 4),
    ]


@pytest.mark.parametrize(
    ("row", "message"),
    [
        ({"problem_rating": 3000, "successes": 1.7, "trials": 2}, "successes must be an integer, got 1.7"),
        ({"problem_rating": 3000, "successes": True, "trials": 1.9}, "successes must be an integer, got True"),
        ({"problem_rating": "3000", "solved": True}, "problem_rating must be a finite number, got '3000'"),
    ],
    ids=["fractional-successes", "bool-successes", "string-rating"],
)
def test_load_outcomes_passes_jsonl_values_as_they_are(tmp_path, row, message):
    # a JSON number is not parsed, so it is never truncated into a count
    path = tmp_path / "o.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_outcomes(path)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("problem_rating,successes,trials\n2400,1\n", "line 2 of .* has no trials"),
        ("successes,trials,problem_rating\n3,5,2800\n1,2\n", "line 3 of .* has no problem_rating"),
    ],
    ids=["no-trials", "no-rating"],
)
def test_load_outcomes_rejects_a_short_csv_row(tmp_path, text, message):
    path = tmp_path / "short.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_outcomes(path)


def test_load_outcomes_rejects_bad_booleans(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("problem_rating,solved\n2400,maybe\n", encoding="utf-8")
    with pytest.raises(ValueError, match="maybe"):
        load_outcomes(path)
