"""Tests of the benchmark's oracles on small cases with known answers.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def test_budget_and_barriers_at_the_default_config():
    assert oracles.call_budget(20, 4, 3, 10) == 285
    assert oracles.barrier_count(3) == 8
    assert oracles.call_budget(4, 1, 0, 1) == 4 + 2
    assert oracles.barrier_count(0) == 2


def test_balanced_record_gives_all_zero_scores():
    cycle = [(0, 1, 1), (1, 2, 1), (2, 0, 1)]
    assert np.allclose(oracles.bt_fit(oracles.win_matrix(3, cycle)), 0.0, atol=1e-12)
    ties = [(0, 1, 0), (2, 3, 0), (0, 3, 0)]
    assert np.allclose(oracles.bt_fit(oracles.win_matrix(4, ties)), 0.0, atol=1e-12)


@pytest.mark.parametrize("wins,losses,lam", [(3, 1, 0.01), (1, 0, 0.01), (5, 2, 1.0)])
def test_two_player_fit_solves_its_scalar_equation(wins, losses, lam):
    # with s = (d/2, -d/2) the stationarity condition is wins - (wins + losses) sigmoid(d) = lam d / 2
    record = [(0, 1, 1)] * wins + [(0, 1, -1)] * losses
    s = oracles.bt_fit(oracles.win_matrix(2, record), lam)
    d = s[0] - s[1]
    assert s[0] + s[1] == pytest.approx(0.0, abs=1e-12)
    assert wins - (wins + losses) / (1.0 + math.exp(-d)) == pytest.approx(lam * d / 2, abs=1e-10)


def test_two_player_fit_approaches_the_log_odds_as_the_ridge_vanishes():
    s = oracles.bt_fit(oracles.win_matrix(2, [(0, 1, 1)] * 3 + [(0, 1, -1)]), lam=1e-9)
    assert s[0] - s[1] == pytest.approx(math.log(3.0), rel=1e-6)


def test_fit_agrees_with_btevolve_on_random_records():
    import btevolve

    rng = np.random.default_rng(0)
    names = {1: btevolve.LEFT_WINS, -1: btevolve.RIGHT_WINS, 0: btevolve.TIE}
    for _ in range(20):
        n = int(rng.integers(3, 12))
        results = []
        for _ in range(int(rng.integers(1, 3 * n))):
            i, j = (int(x) for x in rng.choice(n, 2, replace=False))
            results.append((i, j, int(rng.integers(-1, 2))))
        records = [btevolve.ComparisonRecord(i, j, names[o]) for i, j, o in results]
        expected = btevolve.fit_bt(records, n).scores
        assert np.allclose(oracles.bt_fit(oracles.win_matrix(n, results)), expected, atol=1e-6)


def test_top_two_breaks_exact_ties_toward_the_lower_index():
    assert oracles.top_two([0.5, 2.0, 2.0, -1.0]) == (1, 0.0)
    assert oracles.top_two([3.0, 1.0]) == (0, 2.0)


def test_elo_map_is_the_prior_mean_for_an_even_record_at_that_rating():
    rating = oracles.elo_map([3100.0], [1.0], [2.0], 3100.0, 500.0, (1000.0, 5000.0))
    assert rating[0] == pytest.approx(3100.0, abs=1e-6)


def test_elo_map_with_no_evidence_against_the_prior_sits_on_the_bound():
    # everything solved and a flat prior: the posterior rises all the way to the upper bound
    rating = oracles.elo_map([1500.0, 1600.0], [1.0, 1.0], [1.0, 1.0], 0.0, 1e9, (1000.0, 2000.0))
    assert rating[0] == pytest.approx(2000.0, abs=1e-6)


def test_elo_map_is_a_root_of_the_log_posterior_derivative():
    rng = np.random.default_rng(1)
    ratings = rng.uniform(800, 3600, (4, 30))
    wins = (rng.random((4, 30)) < 0.5).astype(float)
    trials = np.ones_like(wins)
    maps = oracles.elo_map(ratings, wins, trials, 3100.0, 500.0, (1000.0, 5000.0))
    for row, r in enumerate(maps):
        p = 1.0 / (1.0 + 10.0 ** ((ratings[row] - r) / 400.0))
        slope = math.log(10) / 400 * (wins[row] - p).sum() - (r - 3100.0) / 500.0**2
        assert abs(slope) < 1e-9


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert oracles.percentile(values, 0) == 1.0
    assert oracles.percentile(values, 50) == 3.0
    assert oracles.percentile(values, 100) == 5.0
    assert oracles.percentile(values, 2.5) == pytest.approx(1.1)
    assert oracles.percentile(values, 97.5) == pytest.approx(4.9)
