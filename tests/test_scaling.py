"""Scaling-simulation tests: schedules, matrix lookups, cell semantics."""

import math

import numpy as np
import pytest

from btevolve.backends import SyntheticWorldConfig
from btevolve.btrank import LEFT_WINS, RIGHT_WINS, TIE, fit_bt, rank, top_candidates
from btevolve.errors import ConfigError
from btevolve.scaling import (
    FIRST_WINS,
    MATRIX_TIE,
    SECOND_WINS,
    JudgmentMatrix,
    SimCell,
    _draw_trials,
    _fit_trials,
    _trial_seeds,
    generate_matrix,
    load_matrix,
    optimal_frontier,
    round_robin_schedule,
    save_matrix,
    simulate_cell,
    sweep_grid,
    write_grid_csv,
)

WORLD = SyntheticWorldConfig(judge_accuracy=0.9)


def all_pairs(n):
    return {(i, j) for i in range(n) for j in range(i + 1, n)}


def test_round_robin_four_players_exact():
    assert round_robin_schedule(4) == [
        [(0, 3), (1, 2)],
        [(0, 1), (2, 3)],
        [(0, 2), (1, 3)],
    ]


def test_round_robin_covers_every_pair_once():
    for n in (2, 6, 12, 40):
        rounds = round_robin_schedule(n)
        assert len(rounds) == n - 1
        assert all(len(r) == n // 2 for r in rounds)
        seen = [pair for r in rounds for pair in r]
        assert len(seen) == n * (n - 1) // 2
        assert set(seen) == all_pairs(n)
        for r in rounds:  # each round is a perfect matching
            players = [p for pair in r for p in pair]
            assert len(set(players)) == n


def test_round_robin_rejects_odd_pools():
    with pytest.raises(ValueError):
        round_robin_schedule(5)
    with pytest.raises(ValueError):
        round_robin_schedule(0)


def test_generate_matrix_shape_and_determinism():
    matrix = generate_matrix(10, WORLD, seed=3)
    assert matrix.pool_size == 10
    assert set(matrix.outcomes) == all_pairs(10)
    assert len(matrix.labels) == 10
    again = generate_matrix(10, WORLD, seed=3)
    assert again == matrix
    other = generate_matrix(10, WORLD, seed=4)
    assert other != matrix


def test_generate_matrix_frozen_values():
    # pins the shared synthetic judge as the matrix generator draws it: outcomes
    # in canonical pair order, F/S/T for first-wins/second-wins/tie
    code = {FIRST_WINS: "F", SECOND_WINS: "S", MATRIX_TIE: "T"}
    expected = {
        "fixed-accuracy": "FFFFFFFFSSSSSSFFSFSSFSSFSSFS",
        "logistic": "FFFFFFFSSSSFFSFFFFSSFSFFSSFS",
    }
    for mode, outcomes in expected.items():
        matrix = generate_matrix(8, SyntheticWorldConfig(judge_mode=mode), seed=3)
        assert matrix.labels == (True,) + (False,) * 7
        assert "".join(code[matrix.outcomes[pair]] for pair in sorted(matrix.outcomes)) == outcomes
    flat = generate_matrix(8, SyntheticWorldConfig(theta_std=0.0), seed=3)
    assert set(flat.outcomes.values()) == {MATRIX_TIE}  # equal thetas tie in fixed mode


def test_perfect_judge_matrix_is_transitive():
    matrix = generate_matrix(12, SyntheticWorldConfig(judge_accuracy=1.0), seed=8)
    wins = {i: 0 for i in range(12)}
    for (i, j), outcome in matrix.outcomes.items():
        wins[i if outcome == FIRST_WINS else j] += 1
    # a noiseless total order gives distinct win counts 11, 10, ..., 0
    assert sorted(wins.values()) == list(range(12))


def test_matrix_validation():
    outcomes = {(0, 1): FIRST_WINS, (0, 2): SECOND_WINS}
    with pytest.raises(ValueError, match="every unordered pair"):
        JudgmentMatrix(3, outcomes, (True, False, False))
    outcomes[(1, 2)] = "left"
    with pytest.raises(ValueError, match="unknown outcome"):
        JudgmentMatrix(3, outcomes, (True, False, False))
    outcomes[(1, 2)] = MATRIX_TIE
    with pytest.raises(ValueError, match="label"):
        JudgmentMatrix(3, outcomes, (True, False))
    JudgmentMatrix(3, outcomes, (True, False, False))


def test_matrix_record_orientation():
    matrix = JudgmentMatrix(
        2, {(0, 1): FIRST_WINS}, (True, False)
    )
    assert matrix.record(0, 1, 0, 1).outcome == LEFT_WINS
    assert matrix.record(1, 0, 0, 1).outcome == RIGHT_WINS
    record = matrix.record(1, 0, 4, 7)
    assert (record.left, record.right) == (4, 7)


def test_m_formula_and_infeasible_cell():
    matrix = generate_matrix(24, WORLD, seed=1)
    cell = simulate_cell(matrix, budget=120, n=20, trials=2, seed=0)
    assert cell.m == 10
    assert cell.feasible
    broke = simulate_cell(matrix, budget=20, n=20, trials=2, seed=0)
    assert broke.m == 0
    assert not broke.feasible
    assert broke.top1_accuracy == 0.0


def test_simulate_cell_validation():
    matrix = generate_matrix(8, WORLD, seed=1)
    with pytest.raises(ValueError):
        simulate_cell(matrix, 24, 7, 2, 0)  # odd n
    with pytest.raises(ValueError):
        simulate_cell(matrix, 24, 10, 2, 0)  # larger than pool
    with pytest.raises(ValueError):
        simulate_cell(matrix, 24, 4, 0, 0)  # no trials
    with pytest.raises(ConfigError, match=r"2\*\*32"):
        simulate_cell(matrix, 24, 4, 2**32 + 1, 0)  # a trial index past one entropy word
    with pytest.raises(ConfigError, match=r"2\*\*32"):
        simulate_cell(matrix, 2**32, 4, 2, 0)  # a budget past one entropy word
    with pytest.raises(ValueError):
        simulate_cell(matrix, 24, 4, 2, 0, pairing="zigzag")
    with pytest.raises(ValueError, match="round-robin"):
        # m = 2*(40-8)/8 = 8 > n-1 = 7
        simulate_cell(matrix, 40, 8, 2, 0, pairing="round-robin")


def test_sweep_grid_checks_every_cell_before_simulating(monkeypatch):
    import btevolve.scaling as scaling

    matrix = generate_matrix(12, WORLD, seed=1)
    ran = []
    monkeypatch.setattr(scaling, "_simulate_stack", lambda *args, **kwargs: ran.append(args))
    # the last population is odd: nothing may run before the grid is rejected
    with pytest.raises(ConfigError, match="even"):
        scaling.sweep_grid(matrix, [24, 48], [4, 6, 5], trials=3, seed=0)
    # m = 2*(48-4)/4 = 22 > n-1 = 3 only in the last budget's cells
    with pytest.raises(ConfigError, match="round-robin"):
        scaling.sweep_grid(matrix, [8, 12, 48], [4], trials=3, seed=0, pairing="round-robin")
    assert ran == []


def test_judgment_matrix_win_weights():
    matrix = JudgmentMatrix(3, {(0, 1): FIRST_WINS, (0, 2): SECOND_WINS, (1, 2): MATRIX_TIE}, (True, False, False))
    assert matrix.wins.tolist() == [[0.0, 1.0, 0.0], [0.0, 0.0, 0.5], [1.0, 0.5, 0.0]]
    assert not matrix.wins.flags.writeable
    assert "wins=" not in repr(matrix)
    pool = generate_matrix(16, WORLD, seed=4)
    for i in range(16):
        for j in range(16):
            if i != j:
                assert pool.wins[i, j] + pool.wins[j, i] == 1.0
                record = pool.record(i, j, 0, 1)
                assert pool.wins[i, j] == {LEFT_WINS: 1.0, RIGHT_WINS: 0.0, TIE: 0.5}[record.outcome]


# (budget, n, m, top1_hits, trials_with_accepted) of sweep_grid(budgets, populations,
# trials=40, seed=11) on generate_matrix(12, SyntheticWorldConfig(judge_mode=mode), seed=5),
# recorded with one fit_bt call per trial, before the trials were fitted together
FROZEN_CELLS = {
    ("fixed-accuracy", "random"): [
        (10, 4, 3, 9, 15), (10, 6, 1, 0, 23), (10, 8, 0, 0, 0),
        (20, 4, 8, 9, 12), (20, 6, 4, 9, 20), (20, 8, 3, 8, 25),
        (40, 4, 18, 12, 18), (40, 6, 11, 7, 16), (40, 8, 8, 9, 25),
    ],
    ("fixed-accuracy", "round-robin"): [
        (12, 6, 2, 9, 19), (12, 8, 1, 0, 28), (18, 6, 4, 12, 23),
        (18, 8, 2, 11, 27), (20, 6, 4, 9, 20), (20, 8, 3, 15, 25),
    ],
    ("logistic", "random"): [
        (10, 4, 3, 7, 15), (10, 6, 1, 1, 23), (10, 8, 0, 0, 0),
        (20, 4, 8, 10, 12), (20, 6, 4, 6, 20), (20, 8, 3, 7, 25),
        (40, 4, 18, 10, 18), (40, 6, 11, 9, 16), (40, 8, 8, 13, 25),
    ],
    ("logistic", "round-robin"): [
        (12, 6, 2, 10, 19), (12, 8, 1, 0, 28), (18, 6, 4, 11, 23),
        (18, 8, 2, 11, 27), (20, 6, 4, 11, 20), (20, 8, 3, 16, 25),
    ],
}
GRIDS = {"random": ((10, 20, 40), (4, 6, 8)), "round-robin": ((12, 18, 20), (6, 8))}


@pytest.mark.parametrize(("mode", "pairing"), sorted(FROZEN_CELLS))
def test_simulate_cell_frozen_values(mode, pairing):
    matrix = generate_matrix(12, SyntheticWorldConfig(judge_mode=mode), seed=5)
    budgets, populations = GRIDS[pairing]
    cells = sweep_grid(matrix, budgets, populations, trials=40, seed=11, pairing=pairing)
    assert [(c.budget, c.n, c.m, c.top1_hits, c.trials_with_accepted) for c in cells] == FROZEN_CELLS[mode, pairing]


def per_trial_cell(matrix, budget, n, trials, seed, pairing):
    """(top1_hits, trials_with_accepted) by the documented per-trial scheme,
    fitted one trial at a time through records."""
    m = 2 * (budget - n) // n
    hits = with_accepted = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, budget, n, trial]))
        sample = np.sort(rng.permutation(matrix.pool_size)[:n])
        if pairing == "random":
            rounds = [[(int(p[2 * i]), int(p[2 * i + 1])) for i in range(n // 2)] for p in (rng.permutation(n) for _ in range(m))]
        else:
            rounds = round_robin_schedule(n)[:m]
        records = [matrix.record(int(sample[a]), int(sample[b]), a, b) for pairs in rounds for a, b in pairs]
        hits += matrix.labels[int(sample[rank(fit_bt(records, n))[0]])]
        with_accepted += any(matrix.labels[int(i)] for i in sample)
    return hits, with_accepted


def test_simulate_cell_matches_per_trial_fits():
    matrix = generate_matrix(20, WORLD, seed=8)
    for pairing, budget, n in (("random", 60, 8), ("random", 44, 4), ("round-robin", 18, 6)):
        cell = simulate_cell(matrix, budget, n, trials=12, seed=3, pairing=pairing)
        assert (cell.top1_hits, cell.trials_with_accepted) == per_trial_cell(matrix, budget, n, 12, 3, pairing)


# each grid repeats a budget and a population and has an infeasible cell
STACKED_GRIDS = {"random": ([8, 30, 60, 30], [4, 8, 4]), "round-robin": ([6, 12, 18, 12, 20], [6, 8, 6])}


@pytest.mark.parametrize("pairing", sorted(STACKED_GRIDS))
@pytest.mark.parametrize(("trials", "per_stack"), [(15, 4), (30, 2)])
def test_sweep_grid_stacks_match_per_trial_fits(monkeypatch, pairing, trials, per_stack):
    import btevolve.scaling as scaling

    stacks = []
    simulate_stack = scaling._simulate_stack

    def recording(matrix, budgets, n, *args):
        stacks.append((n, list(budgets)))
        return simulate_stack(matrix, budgets, n, *args)

    monkeypatch.setattr(scaling, "_simulate_stack", recording)
    matrix = generate_matrix(16, WORLD, seed=6)
    budgets, populations = STACKED_GRIDS[pairing]
    cells = sweep_grid(matrix, budgets, populations, trials=trials, seed=4, pairing=pairing)
    monkeypatch.undo()
    assert [(c.budget, c.n) for c in cells] == [(b, n) for b in budgets for n in populations]
    for cell in cells:
        assert cell.m == 2 * (cell.budget - cell.n) // cell.n
        if cell.m < 1:
            assert not cell.feasible and cell.top1_hits == 0
            continue
        assert (cell.top1_hits, cell.trials_with_accepted) == per_trial_cell(matrix, cell.budget, cell.n, trials, 4, pairing)
        assert cell == simulate_cell(matrix, cell.budget, cell.n, trials, 4, pairing=pairing)
    # each population's distinct feasible budgets in grid order, at most
    # 64 // trials cells per stack, and each distinct cell fitted once
    for n in dict.fromkeys(populations):
        feasible = [b for b in dict.fromkeys(budgets) if 2 * (b - n) // n >= 1]
        runs = [chunk for size, chunk in stacks if size == n]
        assert runs == [feasible[i : i + per_stack] for i in range(0, len(feasible), per_stack)]


def seeded_rng(seed, budget, n, trial):
    return np.random.default_rng(np.random.SeedSequence([seed, budget, n, trial]))


# seeds and populations on both sides of 2**32 and 2**64, so that they take one
# to three entropy words, and budgets up to 2**32 - 1, the most one word holds;
# the first case is a one-trial stack
@pytest.mark.parametrize(
    ("seed", "budgets", "n", "trials"),
    [
        (0, [24], 4, 1),
        (11, [10, 20, 40], 6, 7),
        (2**32 + 5, [30, 2**32 - 1, 60, 0, 2**31], 8, 5),
        (2**64 - 1, [2**32 - 2, 12], 2**32 + 2, 3),
        (2**64, [7, 2**32 - 1], 2**64 + 3, 2),
    ],
)
def test_trial_seeds_match_seed_sequence(seed, budgets, n, trials):
    expected = []
    for budget in budgets:
        for trial in range(trials):
            state = seeded_rng(seed, budget, n, trial).bit_generator.state["state"]
            expected.append((state["state"], state["inc"]))
    assert _trial_seeds(seed, budgets, n, trials) == expected


@pytest.mark.parametrize("pairing", ["random", "round-robin"])
@pytest.mark.parametrize(("seed", "budgets", "trials"), [(0, [12], 1), (2**32 + 5, [10, 16, 12], 6), (2**70 + 1, [16, 12], 4)])
def test_draw_trials_match_default_rng(pairing, seed, budgets, trials):
    pool, n = 14, 6
    samples, pairs = _draw_trials(pool, budgets, n, trials, seed, pairing)
    rounds = [2 * (budget - n) // n for budget in budgets]
    assert samples.shape == (len(budgets) * trials, n)
    assert pairs.shape == (len(budgets) * trials, max(rounds) * n // 2, 2)
    for c, (budget, m) in enumerate(zip(budgets, rounds)):
        for trial in range(trials):
            rng = seeded_rng(seed, budget, n, trial)
            row = c * trials + trial
            assert samples[row].tolist() == np.sort(rng.permutation(pool)[:n]).tolist()
            if pairing == "random":
                schedule = [rng.permutation(n).reshape(-1, 2).tolist() for _ in range(m)]
            else:
                schedule = round_robin_schedule(n)[:m]
            expected = [list(pair) for pairs_of_round in schedule for pair in pairs_of_round]
            assert pairs[row].tolist() == expected + [[0, 0]] * (pairs.shape[1] - len(expected))


def tied_matrix(pool_size, seed):
    """A generated matrix with every third pair turned into a tie."""
    matrix = generate_matrix(pool_size, WORLD, seed=seed)
    outcomes = {pair: MATRIX_TIE if k % 3 == 0 else outcome for k, (pair, outcome) in enumerate(sorted(matrix.outcomes.items()))}
    return JudgmentMatrix(pool_size, outcomes, matrix.labels)


SUMMED_FIT_CASES = [
    (generate_matrix(40, WORLD, seed=1), "random", [30, 60, 120], 4),
    (generate_matrix(40, SyntheticWorldConfig(judge_mode="logistic"), seed=2), "random", [60, 120], 20),
    (tied_matrix(24, 3), "random", [24, 48], 8),
    (tied_matrix(24, 4), "round-robin", [12, 16, 20], 6),
]


@pytest.mark.parametrize(("matrix", "pairing", "budgets", "n"), SUMMED_FIT_CASES)
def test_summed_fits_agree_with_per_trial_fits(matrix, pairing, budgets, n):
    lam = 0.01
    # both fits stop once their gradient max-norm is within 0.5e-8 (fit_bt's
    # default tolerance / 2); the objective is lam-strongly concave, so each
    # stopping point lies within sqrt(n) * 0.5e-8 / lam of the optimum
    bound = 2 * math.sqrt(n) * 0.5e-8 / lam
    samples, pairs = _draw_trials(matrix.pool_size, budgets, n, 15, 5, pairing)
    scores = _fit_trials(matrix.wins, samples, pairs, lam)
    for row, (sample, row_pairs) in enumerate(zip(samples.tolist(), pairs.tolist())):
        records = [matrix.record(sample[a], sample[b], a, b) for a, b in row_pairs if a != b]
        alone = fit_bt(records, n, lam=lam)
        assert np.max(np.abs(scores[row] - alone.scores)) <= bound
        assert top_candidates(scores[row : row + 1])[0] == rank(alone)[0]


def test_fit_trials_sums_repeated_pairs(monkeypatch):
    import btevolve.scaling as scaling

    seen = []
    fit_bt_rows = scaling.fit_bt_rows

    def recording(winners, losers, weights, n, lam):
        seen.append((np.asarray(winners), np.asarray(losers), np.asarray(weights)))
        return fit_bt_rows(winners, losers, weights, n, lam=lam)

    monkeypatch.setattr(scaling, "fit_bt_rows", recording)
    matrix = tied_matrix(24, 5)
    n, budgets = 4, [40, 120]
    samples, pairs = _draw_trials(matrix.pool_size, budgets, n, 6, 9, "random")
    _fit_trials(matrix.wins, samples, pairs, 0.01)
    [(winners, losers, weights)] = seen
    for row in range(len(samples)):
        # one entry per ordered (winner, loser) pair, holding the row's summed wins of it
        entries = list(zip(winners[row].tolist(), losers[row].tolist()))
        assert len(entries) == len(set(entries)) == n * n
        expected = np.zeros((n, n))
        for a, b in pairs[row].tolist():
            if a != b:
                expected[a, b] += matrix.wins[samples[row, a], samples[row, b]]
                expected[b, a] += matrix.wins[samples[row, b], samples[row, a]]
        got = np.zeros((n, n))
        got[winners[row], losers[row]] = weights[row]
        assert got.tolist() == expected.tolist()
    # every compared pair carries one unit of win weight, padding none
    assert weights.sum(axis=1).tolist() == [2 * (b - n) // n * n // 2 for b in budgets for _ in range(6)]


def test_full_pool_round_robin_equals_direct_bt():
    for seed in (0, 1, 2):
        matrix = generate_matrix(8, WORLD, seed=seed)
        # m = n-1 = 7: every pair judged once, budget = 8 + 8*7/2 = 36
        cell = simulate_cell(matrix, 36, 8, trials=4, seed=99, pairing="round-robin")
        records = [matrix.record(i, j, i, j) for (i, j) in sorted(matrix.outcomes)]
        top = rank(fit_bt(records, 8))[0]
        assert cell.top1_accuracy == float(matrix.labels[top])
        assert cell.trials_with_accepted == (4 if any(matrix.labels) else 0)


def test_simulate_cell_deterministic():
    matrix = generate_matrix(16, WORLD, seed=5)
    a = simulate_cell(matrix, 48, 8, trials=25, seed=7)
    b = simulate_cell(matrix, 48, 8, trials=25, seed=7)
    assert a == b
    c = simulate_cell(matrix, 48, 8, trials=25, seed=8)
    assert c != a  # different sampling stream


def test_sweep_grid_row_major_order():
    matrix = generate_matrix(12, WORLD, seed=2)
    cells = sweep_grid(matrix, [24, 48], [4, 6], trials=5, seed=1)
    assert [(c.budget, c.n) for c in cells] == [(24, 4), (24, 6), (48, 4), (48, 6)]


def test_optimal_frontier_prefers_smaller_population_on_ties():
    cells = [
        SimCell(100, 4, 48, 10, 0.8, True),
        SimCell(100, 8, 23, 10, 0.8, True),
        SimCell(100, 6, 31, 10, 0.7, True),
        SimCell(200, 8, 48, 10, 0.0, False),
        SimCell(200, 4, 98, 10, 0.5, True),
    ]
    frontier = optimal_frontier(cells)
    assert [(c.budget, c.n) for c in frontier] == [(100, 4), (200, 4)]


def test_matrix_save_load_round_trip(tmp_path):
    matrix = generate_matrix(10, WORLD, seed=6)
    path = tmp_path / "matrix.json"
    save_matrix(matrix, path)
    assert load_matrix(path) == matrix


def test_load_matrix_rejects_wrong_length(tmp_path):
    matrix = generate_matrix(6, WORLD, seed=6)
    path = tmp_path / "matrix.json"
    save_matrix(matrix, path)
    import json

    payload = json.loads(path.read_text())
    payload["outcomes"] = payload["outcomes"][:-1]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="expected"):
        load_matrix(path)


@pytest.mark.parametrize("labels", [["false", "no", 0], [True, False, 1], [True, None, False]])
def test_load_matrix_rejects_non_boolean_labels(tmp_path, labels):
    path = tmp_path / "matrix.json"
    save_matrix(JudgmentMatrix(3, {(0, 1): FIRST_WINS, (0, 2): SECOND_WINS, (1, 2): MATRIX_TIE}, (True, False, False)), path)
    import json

    payload = json.loads(path.read_text())
    payload["labels"] = labels
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="JSON booleans"):
        load_matrix(path)


def test_grid_csv_format(tmp_path):
    cells = [SimCell(24, 4, 10, 40, 0.275, True), SimCell(24, 8, 4, 40, 0.45, True)]
    path = tmp_path / "grid.csv"
    write_grid_csv(cells, path, config_echo={"seed": 3})
    lines = path.read_text().splitlines()
    assert lines[0] == '# config: {"seed": 3}'
    assert lines[1] == "budget,n,m,trials,top1_accuracy,feasible"
    assert lines[2] == "24,4,10,40,0.275000,true"
    assert lines[3] == "24,8,4,40,0.450000,true"
