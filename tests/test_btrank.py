"""Score-fitting tests: frozen oracles, finite differences, fit invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btevolve.btrank import (
    LEFT_WINS,
    RIGHT_WINS,
    TIE,
    ComparisonRecord,
    ScoreVector,
    bt_gradient,
    bt_objective,
    fit_bt,
    fit_bt_rows,
    rank,
    top_candidates,
)

# fixed instance used for the grid-oracle comparison; 8 candidates, 16 outcomes
FIXED_RECORDS = [
    (0, 1, LEFT_WINS),
    (2, 3, LEFT_WINS),
    (4, 5, TIE),
    (6, 7, RIGHT_WINS),
    (0, 2, LEFT_WINS),
    (1, 3, RIGHT_WINS),
    (4, 6, LEFT_WINS),
    (5, 7, LEFT_WINS),
    (0, 4, LEFT_WINS),
    (1, 5, TIE),
    (2, 6, RIGHT_WINS),
    (3, 7, LEFT_WINS),
    (0, 7, LEFT_WINS),
    (1, 6, LEFT_WINS),
    (2, 5, RIGHT_WINS),
    (3, 4, RIGHT_WINS),
]


def records_of(triples):
    return [ComparisonRecord(a, b, outcome) for a, b, outcome in triples]


def oracle_objective(s, triples, lam):
    """Same quantity as bt_objective, written the naive way on purpose."""
    total = 0.0
    for left, right, outcome in triples:
        p_left = 1.0 / (1.0 + math.exp(s[right] - s[left]))
        if outcome == LEFT_WINS:
            total += math.log(p_left)
        elif outcome == RIGHT_WINS:
            total += math.log(1.0 - p_left)
        else:
            total += 0.5 * math.log(p_left) + 0.5 * math.log(1.0 - p_left)
    return total - 0.5 * lam * sum(x * x for x in s)


def oracle_fit(triples, n, lam):
    """Cyclic coordinate ascent with ternary search; derivative-free oracle."""
    s = [0.0] * n
    for _ in range(500):
        biggest_move = 0.0
        for i in range(n):
            old = s[i]
            lo, hi = old - 4.0, old + 4.0
            for _ in range(120):  # concave in each coordinate
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                s[i] = m1
                f1 = oracle_objective(s, triples, lam)
                s[i] = m2
                f2 = oracle_objective(s, triples, lam)
                if f1 < f2:
                    lo = m1
                else:
                    hi = m2
            s[i] = (lo + hi) / 2.0
            biggest_move = max(biggest_move, abs(s[i] - old))
        if biggest_move < 1e-10:
            break
    mean = sum(s) / n
    return [x - mean for x in s]


def random_instance(rng):
    n = int(rng.integers(2, 11))
    count = int(rng.integers(1, 31))
    triples = []
    for _ in range(count):
        i, j = rng.choice(n, size=2, replace=False)
        outcome = (LEFT_WINS, RIGHT_WINS, TIE)[int(rng.integers(0, 3))]
        triples.append((int(i), int(j), outcome))
    return n, triples


def test_objective_frozen_value():
    # log(sigmoid(2)) - 0.005 * (1 + 1), high-precision reference
    value = bt_objective([1.0, -1.0], records_of([(0, 1, LEFT_WINS)]), lam=0.01)
    assert value == pytest.approx(-0.13692801104297249644, rel=1e-14)


def test_objective_tie_is_two_half_wins():
    scores = [0.7, -0.4]
    tie = bt_objective(scores, records_of([(0, 1, TIE)]), lam=0.01)
    win = bt_objective(scores, records_of([(0, 1, LEFT_WINS)]), lam=0.01)
    loss = bt_objective(scores, records_of([(0, 1, RIGHT_WINS)]), lam=0.01)
    penalty = 0.5 * 0.01 * (0.7**2 + 0.4**2)
    assert tie == pytest.approx(0.5 * (win + penalty) + 0.5 * (loss + penalty) - penalty, rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(20240817)
    h = 1e-6
    for _ in range(100):
        n, triples = random_instance(rng)
        records = records_of(triples)
        s = rng.normal(0.0, 1.0, size=n)
        analytic = bt_gradient(s, records, lam=0.01)
        numeric = np.empty(n)
        for i in range(n):
            up, down = s.copy(), s.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (
                bt_objective(up, records, lam=0.01) - bt_objective(down, records, lam=0.01)
            ) / (2 * h)
        assert np.allclose(numeric, analytic, rtol=1e-5, atol=1e-8)


def test_fit_is_zero_sum_and_converged():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n, triples = random_instance(rng)
        fit = fit_bt(records_of(triples), n)
        assert abs(float(np.sum(fit.scores))) <= 1e-6
        assert fit.converged
        grad = bt_gradient(fit.scores, records_of(triples), lam=0.01)
        assert np.max(np.abs(grad)) <= 1e-8


def test_fit_deterministic():
    records = records_of(FIXED_RECORDS)
    first = fit_bt(records, 8)
    second = fit_bt(records, 8)
    assert np.array_equal(first.scores, second.scores)
    assert first.iterations == second.iterations


def test_three_cycle_scores_equal():
    records = records_of([(0, 1, LEFT_WINS), (1, 2, LEFT_WINS), (2, 0, LEFT_WINS)])
    fit = fit_bt(records, 3)
    assert np.all(np.abs(fit.scores) <= 1e-6)


def test_fixed_instance_matches_coordinate_oracle():
    fit = fit_bt(records_of(FIXED_RECORDS), 8)
    oracle = oracle_fit(FIXED_RECORDS, 8, 0.01)
    assert np.max(np.abs(fit.scores - np.asarray(oracle))) <= 1e-4


def test_opponent_strength_beats_raw_win_rate():
    # X and Y are both 2-0, but X beat strong opponents and Y beat weak ones
    x, y, s1, s2, w1, w2 = range(6)
    triples = [
        (x, s1, LEFT_WINS),
        (x, s2, LEFT_WINS),
        (y, w1, LEFT_WINS),
        (y, w2, LEFT_WINS),
        (s1, w1, LEFT_WINS),
        (s1, w2, LEFT_WINS),
        (s2, w1, LEFT_WINS),
        (s2, w2, LEFT_WINS),
    ]
    fit = fit_bt(records_of(triples), 6)
    assert fit.scores[x] > fit.scores[y]
    assert rank(fit)[0] == x


def test_empty_records_give_flat_scores():
    fit = fit_bt([], 5)
    assert np.array_equal(fit.scores, np.zeros(5))
    assert fit.converged
    assert fit.iterations == 0


def test_rank_breaks_ties_toward_lower_index():
    from btevolve.btrank import ScoreVector

    vector = ScoreVector(np.array([0.5, 1.0, 1.0, -2.0]), 0.01, True, 3)
    assert rank(vector) == [1, 2, 0, 3]


def test_rank_ties_fitted_scores_equal_up_to_rounding():
    # 0 and 3 are mirror images (0<->3, 1<->2 maps the records onto
    # themselves), so their fitted scores agree only up to rounding noise
    fit = fit_bt(records_of([(0, 1, LEFT_WINS), (3, 2, LEFT_WINS), (1, 2, TIE)]), 4)
    assert abs(fit.scores[0] - fit.scores[3]) <= 1e-12
    assert abs(fit.scores[1] - fit.scores[2]) <= 1e-12
    assert rank(fit) == [0, 3, 1, 2]


def test_rank_treats_rounding_noise_as_ties():
    from btevolve.btrank import ScoreVector

    vector = ScoreVector(np.array([1.0, 1.0 + 4e-16, 1.0 - 3e-16, 1.0 + 1e-6]), 0.01, True, 3)
    assert rank(vector) == [3, 0, 1, 2]


def regular_records(rng, n, k):
    """k random perfect matchings over n candidates, mostly decisive outcomes."""
    triples = []
    for _ in range(k):
        perm = rng.permutation(n)
        for a in range(n // 2):
            outcome = (LEFT_WINS, RIGHT_WINS, TIE)[int(rng.choice(3, p=[0.45, 0.45, 0.1]))]
            triples.append((int(perm[2 * a]), int(perm[2 * a + 1]), outcome))
    return records_of(triples)


def test_newton_converges_in_few_steps():
    rng = np.random.default_rng(11)
    for n, k, reps in ((4, 1, 20), (4, 58, 10), (8, 7, 20), (20, 4, 20), (40, 39, 5), (200, 10, 3)):
        for _ in range(reps):
            fit = fit_bt(regular_records(rng, n, k), n)
            assert fit.converged
            assert 1 <= fit.iterations <= 20


def converged_with_small_gradient(triples, n):
    fit = fit_bt(records_of(triples), n)
    assert fit.converged
    assert np.max(np.abs(bt_gradient(fit.scores, records_of(triples), lam=0.01))) <= 1e-8
    return fit


def test_undefeated_candidate_converges():
    # 0 never loses: only the penalty holds its score finite
    fit = converged_with_small_gradient([(0, i, LEFT_WINS) for i in range(1, 6)] * 3, 6)
    assert rank(fit)[0] == 0
    assert fit.scores[0] > 3.0


def test_all_ties_converge_to_zero():
    fit = converged_with_small_gradient([(i, (i + 1) % 5, TIE) for i in range(5)], 5)
    assert np.max(np.abs(fit.scores)) <= 1e-12


def test_disconnected_graph_converges():
    # two components that never meet, plus an isolated candidate 6
    triples = [(0, 1, LEFT_WINS), (1, 2, LEFT_WINS), (3, 4, RIGHT_WINS), (4, 5, TIE), (5, 3, LEFT_WINS)]
    fit = converged_with_small_gradient(triples, 7)
    assert abs(float(np.sum(fit.scores))) <= 1e-12


def test_max_iterations_bounds_newton_steps():
    fit = fit_bt(records_of(FIXED_RECORDS), 8, max_iterations=1)
    assert fit.iterations == 1
    assert not fit.converged


def stack_rows(instances, n):
    """(rows, entries) arrays for fit_bt_rows, padded with zero weights, from triple lists."""
    width = 2 * max(len(triples) for triples in instances)
    winners = np.zeros((len(instances), width), dtype=int)
    losers = np.zeros_like(winners)
    weights = np.zeros(winners.shape)
    for row, triples in enumerate(instances):
        col = 0
        for i, j, outcome in triples:
            entries = {LEFT_WINS: [(i, j, 1.0)], RIGHT_WINS: [(j, i, 1.0)], TIE: [(i, j, 0.5), (j, i, 0.5)]}[outcome]
            for winner, loser, weight in entries:
                winners[row, col], losers[row, col], weights[row, col] = winner, loser, weight
                col += 1
    return winners, losers, weights


def triples_of(rng, n, k):
    return [(r.left, r.right, r.outcome) for r in regular_records(rng, n, k)]


def test_stacked_rows_fit_exactly_as_alone():
    # a mixed stack: different edge counts, an all-tie row, a disconnected row,
    # a row with no comparisons, and rows that converge after different step counts
    rng = np.random.default_rng(29)
    n = 8
    instances = [triples_of(rng, n, k) for k in (1, 3, 7, 2, 5)]
    instances += [
        [(i, (i + 1) % n, TIE) for i in range(n)],
        [(0, 1, LEFT_WINS), (1, 2, LEFT_WINS), (3, 4, RIGHT_WINS), (5, 6, TIE)],
        [],
        [(0, i, LEFT_WINS) for i in range(1, n)] * 3,
    ]
    scores, converged, iterations = fit_bt_rows(*stack_rows(instances, n), n)
    assert scores.shape == (len(instances), n)
    assert len(set(iterations.tolist())) >= 3
    for row, triples in enumerate(instances):
        alone = fit_bt(records_of(triples), n)
        assert scores[row].tobytes() == alone.scores.tobytes()
        assert converged[row] == alone.converged
        assert iterations[row] == alone.iterations
    assert converged.all()
    assert np.max(np.abs(scores[5])) <= 1e-12  # all ties
    assert abs(float(np.sum(scores[6]))) <= 1e-12  # disconnected
    assert iterations[7] == 0 and not scores[7].any()  # no comparisons


def test_stacked_line_search_rows_fit_exactly_as_alone():
    # heavy weights and a weak penalty: the first two rows halve their Newton step
    # (once and three times), each in different iterations, and the third never does
    winners = [[0, 1, 4, 3, 4, 0], [2, 1, 2, 3, 4, 3], [0, 1, 2, 3, 4, 0]]
    losers = [[3, 4, 2, 2, 0, 0], [4, 0, 0, 1, 3, 1], [1, 2, 3, 4, 0, 2]]
    weights = [
        [0.772, 0.148, 160.062, 948.987, 1837.755, 0.0],
        [754.291, 1726.24, 996.426, 274.582, 7.125, 1209.282],
        [1.0, 1.0, 0.5, 1.0, 1.0, 0.0],
    ]
    scores, converged, iterations = fit_bt_rows(winners, losers, weights, 5, lam=1e-3)
    assert converged.all()
    for row in range(3):
        alone = fit_bt_rows(winners[row : row + 1], losers[row : row + 1], weights[row : row + 1], 5, lam=1e-3)
        assert scores[row].tobytes() == alone[0][0].tobytes()
        assert iterations[row] == alone[2][0]


def reference_fit(winners, losers, weights, n, lam):
    """fit_bt's documented damped Newton for one comparison set, written out plainly."""
    w, l, wt = (np.asarray(a) for a in (winners, losers, weights))

    def objective(s):
        return float(np.dot(wt, -np.logaddexp(0.0, -(s[w] - s[l]))) - 0.5 * lam * np.dot(s, s))

    def gradient(s):
        e = wt * (1.0 - 1.0 / (1.0 + np.exp(-(s[w] - s[l]))))
        return np.bincount(w, e, n) - np.bincount(l, e, n) - lam * s

    def negated_hessian(s):
        p = 1.0 / (1.0 + np.exp(-(s[w] - s[l])))
        h = np.zeros((n, n))
        for i, j, c in zip(w, l, wt * p * (1.0 - p)):
            h[i, j] -= c
            h[j, i] -= c
            h[i, i] += c
            h[j, j] += c
        return h + lam * np.eye(n)

    s, iterations = np.zeros(n), 0
    while np.max(np.abs(gradient(s))) > 0.5e-8 and iterations < 500:
        step = np.linalg.solve(negated_hessian(s), gradient(s))
        decrement, scale = float(np.dot(gradient(s), step)), 1.0
        if decrement > 1e-8:
            while objective(s + scale * step) < objective(s) + 0.25 * scale * decrement and scale > 2.0**-30:
                scale *= 0.5
        s, iterations = s + scale * step, iterations + 1
    return s - s.mean(), iterations


def test_stacked_rows_follow_the_reference_newton_path():
    # the rows of the line-search stack above, one that halves its tenth step
    # after nine full ones, and random sets: every row takes the reference's
    # steps, so it stops after as many and at the same point
    rng = np.random.default_rng(37)
    winners = [[0, 1, 4, 3, 4, 0], [2, 1, 2, 3, 4, 3], [0, 1, 2, 3, 4, 0], [1, 0, 2, 2, 0, 0]]
    losers = [[3, 4, 2, 2, 0, 0], [4, 0, 0, 1, 3, 1], [1, 2, 3, 4, 0, 2], [2, 4, 3, 4, 3, 1]]
    weights = [
        [0.772, 0.148, 160.062, 948.987, 1837.755, 0.0],
        [754.291, 1726.24, 996.426, 274.582, 7.125, 1209.282],
        [1.0, 1.0, 0.5, 1.0, 1.0, 0.0],
        [0.257, 452.586, 1064.958, 0.379, 2918.723, 641.187],
    ]
    for _ in range(5):
        w = rng.integers(0, 5, 6)
        winners.append(w.tolist())
        losers.append(((w + rng.integers(1, 5, 6)) % 5).tolist())
        weights.append(rng.choice([0.5, 1.0, 2.0], 6).tolist())
    scores, _, iterations = fit_bt_rows(winners, losers, weights, 5, lam=1e-3)
    for row in range(len(winners)):
        expected, steps = reference_fit(winners[row], losers[row], weights[row], 5, 1e-3)
        assert iterations[row] == steps
        assert np.max(np.abs(scores[row] - expected)) <= 1e-12


def test_stacked_max_iterations_bounds_every_row():
    rng = np.random.default_rng(31)
    instances = [triples_of(rng, 8, k) for k in (1, 4, 7)] + [FIXED_RECORDS]
    for limit in (0, 1, 2):
        scores, converged, iterations = fit_bt_rows(*stack_rows(instances, 8), 8, max_iterations=limit)
        assert (iterations <= limit).all()
        for row, triples in enumerate(instances):
            alone = fit_bt(records_of(triples), 8, max_iterations=limit)
            assert scores[row].tobytes() == alone.scores.tobytes()
            assert (converged[row], iterations[row]) == (alone.converged, alone.iterations)
    assert not converged[3]


def test_stacked_rows_validation():
    winners, losers, weights = stack_rows([FIXED_RECORDS], 8)
    with pytest.raises(ValueError, match="out of range"):
        fit_bt_rows(winners, losers, weights, 4)
    with pytest.raises(ValueError, match="non-negative"):
        fit_bt_rows(winners, losers, -weights, 8)
    with pytest.raises(ValueError, match="one shape"):
        fit_bt_rows(winners[0], losers[0], weights[0], 8)
    with pytest.raises(ValueError):
        fit_bt_rows(winners, losers, weights, 8, lam=0.0)


def test_top_candidates_is_rank_head_per_row():
    stack = np.array([[0.5, 1.0, 1.0, -2.0], [1.0, 1.0 + 4e-16, 1.0 - 3e-16, 0.0], [-1.0, 0.0, 2.0, 2.0 + 1e-6]])
    heads = [rank(ScoreVector(row, 0.01, True, 0))[0] for row in stack]
    assert top_candidates(stack).tolist() == heads == [1, 0, 3]


def test_record_validation():
    with pytest.raises(ValueError):
        ComparisonRecord(2, 2, LEFT_WINS)
    with pytest.raises(ValueError):
        ComparisonRecord(0, 1, "draw")
    with pytest.raises(ValueError):
        bt_objective([0.0, 0.0], records_of([(0, 5, LEFT_WINS)]))
    with pytest.raises(ValueError):
        fit_bt([], 1)
    with pytest.raises(ValueError):
        fit_bt([], 4, lam=0.0)


@st.composite
def instance(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([LEFT_WINS, RIGHT_WINS, TIE])
    ).filter(lambda t: t[0] != t[1])
    triples = draw(st.lists(pairs, min_size=1, max_size=12))
    scores = draw(
        st.lists(
            st.floats(-3, 3, allow_nan=False, allow_infinity=False), min_size=n, max_size=n
        )
    )
    return n, triples, scores


@given(instance())
@settings(max_examples=150, deadline=None)
def test_gradient_components_sum_to_penalty_term(case):
    # win/loss contributions cancel pairwise, so sum(grad) == -lam * sum(s)
    n, triples, scores = case
    grad = bt_gradient(scores, records_of(triples), lam=0.01)
    assert float(np.sum(grad)) == pytest.approx(-0.01 * sum(scores), abs=1e-9)


@given(instance())
@settings(max_examples=60, deadline=None)
def test_objective_shift_penalized_only_through_norm(case):
    # likelihood part is shift-invariant; only the penalty moves
    n, triples, scores = case
    s = np.asarray(scores)
    base = bt_objective(s, records_of(triples), lam=0.01)
    shifted = bt_objective(s + 0.75, records_of(triples), lam=0.01)
    penalty_delta = 0.5 * 0.01 * (float(np.dot(s + 0.75, s + 0.75)) - float(np.dot(s, s)))
    assert shifted == pytest.approx(base - penalty_delta, abs=1e-9)
