"""Scaling-simulation tests: schedules, matrix lookups, cell semantics."""

import hashlib
import json

import numpy as np
import pytest

from btevolve.backends import SyntheticWorldConfig
from btevolve.btrank import LEFT_WINS, RIGHT_WINS, TIE, fit_bt, fit_bt_rows, rank, top_candidates
from btevolve.errors import ConfigError
from btevolve.scaling import (
    FIRST_WINS,
    MATRIX_TIE,
    SECOND_WINS,
    JudgmentMatrix,
    SimCell,
    _draw_trials,
    _fit_trials,
    _trial_generators,
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


@pytest.mark.parametrize("pool_size", [2.5, True, 1], ids=["fraction", "bool", "one"])
def test_generate_matrix_rejects_bad_pool_sizes(pool_size):
    with pytest.raises(ConfigError, match="^pool_size must be an integer of at least 2"):
        generate_matrix(pool_size, WORLD, seed=3)


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


@pytest.mark.parametrize(
    ("mode", "digest"),
    [
        ("fixed-accuracy", "032eb70af2a26068003222dca8f9caa34c29f5494b226435f7c84f462ed06fea"),
        ("logistic", "94fab0b07a1f5dbdcac9dfbe5b96c458bec873029e3f76cfe286b4c3d51480d3"),
    ],
)
def test_generate_matrix_frozen_digest(mode, digest):
    # the simulator's 40-pool matrix draws its thetas and every verdict from
    # one default_rng(seed) stream; the digest pins labels and outcomes in
    # canonical pair order, so a change to the backend's own draws cannot move it
    matrix = generate_matrix(40, SyntheticWorldConfig(judge_mode=mode), seed=7)
    record = [list(matrix.labels), [[i, j, outcome] for (i, j), outcome in sorted(matrix.outcomes.items())]]
    assert hashlib.sha256(json.dumps(record).encode("utf-8")).hexdigest() == digest


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
            if i < j:
                assert pool.wins[i, j] == {FIRST_WINS: 1.0, SECOND_WINS: 0.0, MATRIX_TIE: 0.5}[pool.outcomes[(i, j)]]


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


# matrix outcome -> record outcome, for a pair shown in pool order and reversed
IN_ORDER = {FIRST_WINS: LEFT_WINS, SECOND_WINS: RIGHT_WINS, MATRIX_TIE: TIE}
REVERSED = {FIRST_WINS: RIGHT_WINS, SECOND_WINS: LEFT_WINS, MATRIX_TIE: TIE}


def matrix_record(matrix, left, right, left_index, right_index):
    """The matrix's outcome of pool pair (left, right) as a (left_index, right_index, outcome) record."""
    if left < right:
        return (left_index, right_index, IN_ORDER[matrix.outcomes[(left, right)]])
    return (left_index, right_index, REVERSED[matrix.outcomes[(right, left)]])


def drawn_trial(matrix, budget, n, trial, seed, pairing):
    """A trial's sorted sample and its compared (local) pairs, round by round,
    drawn by the documented per-trial scheme."""
    m = 2 * (budget - n) // n
    rng = seeded_rng(seed, budget, n, trial)
    sample = np.sort(rng.permutation(matrix.pool_size)[:n])
    if pairing == "random":
        rounds = [[(int(p[2 * i]), int(p[2 * i + 1])) for i in range(n // 2)] for p in (rng.permutation(n) for _ in range(m))]
    else:
        rounds = round_robin_schedule(n)[:m]
    return sample, [pair for pairs in rounds for pair in pairs]


def per_trial_cell(matrix, budget, n, trials, seed, pairing):
    """(top1_hits, trials_with_accepted) by the documented per-trial scheme,
    fitted one trial at a time through records."""
    hits = with_accepted = 0
    for trial in range(trials):
        sample, pairs = drawn_trial(matrix, budget, n, trial, seed, pairing)
        records = [matrix_record(matrix, int(sample[a]), int(sample[b]), a, b) for a, b in pairs]
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


# seeds on both sides of 2**32 and 2**64, so that they take one to three
# entropy words, and budgets and populations up to 2**32 - 1, the most one
# word holds; the first case has one trial per cell
@pytest.mark.parametrize(
    ("seed", "budgets", "n", "trials"),
    [
        (0, [24], 4, 1),
        (11, [10, 20, 40], 6, 7),
        (2**32 + 5, [30, 2**32 - 1, 60, 0, 2**31], 8, 5),
        (2**64 - 1, [2**32 - 2, 12], 2**32 - 2, 3),
        (2**64, [7, 2**32 - 1], 2**32 - 1, 2),
    ],
)
def test_trial_seeds_match_seed_sequence(seed, budgets, n, trials):
    # a grid of two populations, its cells population by population as
    # sweep_grid stacks them, seeded in one replay
    cells = [(budget, population) for population in (n, 2) for budget in budgets]
    expected = [
        seeded_rng(seed, budget, population, trial).bit_generator.state
        for budget, population in cells
        for trial in range(trials)
    ]
    assert [rng.bit_generator.state for rng in _trial_generators(seed, cells, trials)] == expected


def test_sweep_grid_seeds_every_trial_in_one_replay(monkeypatch):
    import btevolve.scaling as scaling

    replays = []
    pcg64_generators = scaling.pcg64_generators

    def recording(*parts):
        replays.append(len(parts[-1]))
        return pcg64_generators(*parts)

    monkeypatch.setattr(scaling, "pcg64_generators", recording)
    matrix = generate_matrix(16, WORLD, seed=6)
    # 10 of the 4 x 3 cells are feasible, in six stacks of at most two cells
    cells = sweep_grid(matrix, [8, 30, 60, 90], [4, 8, 12], trials=30, seed=4)
    assert replays == [10 * 30]
    # a grid without a feasible cell draws no trial and seeds none
    sweep_grid(matrix, [8], [8, 12], trials=30, seed=4)
    assert replays == [10 * 30]
    monkeypatch.undo()
    for cell in cells:
        if cell.feasible:
            assert (cell.top1_hits, cell.trials_with_accepted) == per_trial_cell(matrix, cell.budget, cell.n, 30, 4, "random")


@pytest.mark.parametrize("pairing", ["random", "round-robin"])
@pytest.mark.parametrize(("seed", "budgets", "trials"), [(0, [12], 1), (2**32 + 5, [10, 16, 12], 6), (2**70 + 1, [16, 12], 4)])
def test_draw_trials_match_default_rng(pairing, seed, budgets, trials):
    pool, n = 14, 6
    samples, pairs = _draw_trials(pool, budgets, n, trials, pairing, _trial_generators(seed, [(b, n) for b in budgets], trials))
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


def draw(matrix, budgets, n, trials, seed, pairing):
    """_draw_trials for the cells of one population, seeded on their own."""
    return _draw_trials(matrix.pool_size, budgets, n, trials, pairing, _trial_generators(seed, [(b, n) for b in budgets], trials))


@pytest.mark.parametrize(("matrix", "pairing", "budgets", "n"), SUMMED_FIT_CASES)
def test_summed_fits_agree_with_per_trial_fits(matrix, pairing, budgets, n):
    # the summed trials' picks are those of fit_bt on each trial's records
    samples, pairs = draw(matrix, budgets, n, 15, 5, pairing)
    picks = _fit_trials(matrix.wins, samples, pairs, 0.01)
    for row, (sample, row_pairs) in enumerate(zip(samples.tolist(), pairs.tolist())):
        records = [matrix_record(matrix, sample[a], sample[b], a, b) for a, b in row_pairs if a != b]
        assert picks[row] == rank(fit_bt(records, n, lam=0.01))[0]


def summed_wins(matrix, samples, pairs):
    """Each row's (n, n) summed win weights, one compared pair at a time."""
    rows, n = samples.shape
    summed = np.zeros((rows, n, n))
    for row in range(rows):
        for a, b in pairs[row].tolist():
            if a != b:
                summed[row, a, b] += matrix.wins[samples[row, a], samples[row, b]]
                summed[row, b, a] += matrix.wins[samples[row, b], samples[row, a]]
    return summed


def recording_fit_entries(monkeypatch):
    """Spy on the solver entry the simulator fits through; returns the calls seen."""
    import btevolve.scaling as scaling

    seen = []
    fit_entries = scaling._fit_entries

    def recording(rows, winners, losers, weights, row_count, n, lam, **options):
        seen.append((rows, winners, losers, weights, row_count))
        return fit_entries(rows, winners, losers, weights, row_count, n, lam, **options)

    monkeypatch.setattr(scaling, "_fit_entries", recording)
    return seen


def test_fit_trials_sums_repeated_pairs(monkeypatch):
    seen = recording_fit_entries(monkeypatch)
    matrix = tied_matrix(24, 5)
    n, budgets = 4, [40, 120]
    samples, pairs = draw(matrix, budgets, n, 6, 9, "random")
    _fit_trials(matrix.wins, samples, pairs, 0.01)
    [(rows, winners, losers, weights, row_count)] = seen
    assert row_count == len(samples)
    # entries come row by row, each row's in (winner, loser) order
    keys = list(zip(rows.tolist(), winners.tolist(), losers.tolist()))
    assert keys == sorted(keys)
    expected = summed_wins(matrix, samples, pairs)
    for row in range(len(samples)):
        # one entry per distinct ordered (winner, loser) pair, holding the row's summed wins of it
        mine = rows == row
        entries = list(zip(winners[mine].tolist(), losers[mine].tolist()))
        assert len(entries) == len(set(entries)) == np.count_nonzero(expected[row])
        assert (weights[mine] > 0).all()
        got = np.zeros((n, n))
        got[winners[mine], losers[mine]] = weights[mine]
        assert got.tolist() == expected[row].tolist()
    # every compared pair carries one unit of win weight, padding none
    totals = np.bincount(rows, weights=weights, minlength=row_count)
    assert totals.tolist() == [2 * (b - n) // n * n // 2 for b in budgets for _ in range(6)]


DIRECT_EDGE_CASES = [
    ("random", 4, [10, 30, 120]),
    ("random", 8, [20, 60, 120]),
    ("random", 20, [30, 60, 120]),
    ("round-robin", 4, [6, 8, 10]),
    ("round-robin", 8, [12, 24, 36]),
    ("round-robin", 20, [40, 100, 210]),
]


@pytest.mark.parametrize(("pairing", "n", "budgets"), DIRECT_EDGE_CASES)
def test_fit_trials_equals_fit_bt_rows_on_the_summed_layout(pairing, n, budgets):
    # the (rows, n*n) layout of every ordered pair's summed wins, zero bins as
    # padding, fitted by fit_bt_rows: the direct edges, each row stopped once
    # its pick is certain, must give its picks
    matrix = tied_matrix(40, n)
    samples, pairs = draw(matrix, budgets, n, 7, 13, pairing)
    local = np.arange(n * n)
    shape = (len(samples), n * n)
    expected, _, _ = fit_bt_rows(
        np.broadcast_to(local // n, shape),
        np.broadcast_to(local % n, shape),
        summed_wins(matrix, samples, pairs).reshape(shape),
        n,
        lam=0.01,
    )
    assert _fit_trials(matrix.wins, samples, pairs, 0.01).tolist() == top_candidates(expected).tolist()


def full_fit_cells(matrix, budgets, populations, trials, seed, lam, pairing):
    """(budget, n, m, top1_hits, trials_with_accepted) of every cell, each
    trial drawn from its own default_rng, its repeated pairs summed into the
    (n*n) layout and fitted by fit_bt_rows to its stopping test, its pick
    read by top_candidates."""
    labels = np.asarray(matrix.labels)
    cells = []
    for budget in budgets:
        for n in populations:
            m = 2 * (budget - n) // n
            if m < 1:
                cells.append((budget, n, m, 0, 0))
                continue
            samples, layouts = [], []
            for trial in range(trials):
                sample, pairs = drawn_trial(matrix, budget, n, trial, seed, pairing)
                layout = np.zeros((n, n))
                for a, b in pairs:
                    layout[a, b] += matrix.wins[sample[a], sample[b]]
                    layout[b, a] += matrix.wins[sample[b], sample[a]]
                samples.append(sample)
                layouts.append(layout.ravel())
            local, shape = np.arange(n * n), (trials, n * n)
            scores, converged, _ = fit_bt_rows(np.broadcast_to(local // n, shape), np.broadcast_to(local % n, shape), np.array(layouts), n, lam=lam)
            assert converged.all()
            samples = np.array(samples)
            picked = labels[samples[np.arange(trials), top_candidates(scores)]]
            cells.append((budget, n, m, int(picked.sum()), int(labels[samples].any(axis=1).sum())))
    return cells


@pytest.mark.parametrize("pairing", ["random", "round-robin"])
@pytest.mark.parametrize("threshold", [0.0, SyntheticWorldConfig().acceptance_threshold], ids=["median", "default"])
@pytest.mark.parametrize("mode", ["fixed-accuracy", "logistic"])
def test_sweep_grid_picks_equal_full_fits(monkeypatch, mode, threshold, pairing):
    # the gate on the stop rule: every cell equals the one whose trials are
    # all fitted to fit_bt_rows' stopping test, at ridge strengths from far
    # below to far above the default, while the rule saves Newton steps
    import btevolve.scaling as scaling

    steps = []
    fit_entries = scaling._fit_entries

    def comparing(*args, **options):
        assert options == {"picks_only": True}
        early = fit_entries(*args, **options)
        full = fit_entries(*args)
        assert (early[2] <= full[2]).all()
        steps.append((int(early[2].sum()), int(full[2].sum())))
        return early

    monkeypatch.setattr(scaling, "_fit_entries", comparing)
    world = SyntheticWorldConfig(judge_mode=mode, acceptance_threshold=threshold)
    budgets, populations = {"random": ([12, 30, 60], [4, 8]), "round-robin": ([12, 18, 20], [6, 8])}[pairing]
    for lam in (1e-4, 0.01, 0.1, 1.0):
        for pool, seed in ((16, 3), (24, 8)):
            matrix = generate_matrix(pool, world, seed=seed)
            cells = sweep_grid(matrix, budgets, populations, 20, seed, lam, pairing)
            expected = full_fit_cells(matrix, budgets, populations, 20, seed, lam, pairing)
            assert [(c.budget, c.n, c.m, c.top1_hits, c.trials_with_accepted) for c in cells] == expected
    early, full = np.sum(steps, axis=0)
    assert early < full


def test_sweep_grid_slices_tall_solves_without_moving_a_cell(monkeypatch):
    # at 500 trials a cell's ~450 mixed rows are fitted 64 to a solve at
    # n = 20, and whole at n <= 8, where a solve may hold 400 and 1600 rows;
    # rows are independent, so every cell is what unsliced solves give it
    import btevolve.scaling as scaling

    shapes = []
    fit_trials = scaling._fit_trials

    def recording(wins, samples, pairs, lam):
        shapes.append(samples.shape)
        return fit_trials(wins, samples, pairs, lam)

    monkeypatch.setattr(scaling, "_fit_trials", recording)
    matrix = generate_matrix(40, SyntheticWorldConfig(), seed=0)
    budgets, populations = [60, 120], [4, 8, 20]
    sliced = sweep_grid(matrix, budgets, populations, trials=500, seed=0)
    heights = {}
    for rows, n in shapes:
        heights.setdefault(n, []).append(rows)
    assert max(heights[4]) > 64 and max(heights[8]) > 64 and len(heights[4]) == len(heights[8]) == len(budgets)
    assert max(heights[20]) == 64 and len(heights[20]) > len(budgets)
    monkeypatch.setattr(scaling, "_SOLVE_ENTRIES", 10**9)
    shapes.clear()
    assert sweep_grid(matrix, budgets, populations, trials=500, seed=0) == sliced
    assert len(shapes) == len(budgets) * len(populations)


def relabeled(matrix, labels):
    return JudgmentMatrix(matrix.pool_size, matrix.outcomes, tuple(labels))


@pytest.mark.parametrize("pairing", ["random", "round-robin"])
@pytest.mark.parametrize("labels", ["all-accepted", "all-rejected", "mixed"])
def test_only_mixed_trials_are_fitted(monkeypatch, pairing, labels):
    base = generate_matrix(16, WORLD, seed=12)
    matrix = {
        "all-accepted": relabeled(base, [True] * 16),
        "all-rejected": relabeled(base, [False] * 16),
        "mixed": relabeled(base, [i % 4 == 0 for i in range(16)]),
    }[labels]
    budgets, populations = {"random": ([12, 30, 60], [4, 8]), "round-robin": ([12, 18, 20], [6, 8])}[pairing]
    trials = 20
    seen = recording_fit_entries(monkeypatch)
    cells = sweep_grid(matrix, budgets, populations, trials, seed=6, pairing=pairing)
    monkeypatch.undo()
    mixed = 0
    for cell in cells:
        assert cell.feasible
        assert (cell.top1_hits, cell.trials_with_accepted) == per_trial_cell(matrix, cell.budget, cell.n, trials, 6, pairing)
        for trial in range(trials):
            sample = seeded_rng(6, cell.budget, cell.n, trial).permutation(matrix.pool_size)[: cell.n]
            mixed += len({matrix.labels[i] for i in sample}) == 2
    # the solver sees every mixed trial once and no other
    assert sum(row_count for *_, row_count in seen) == mixed
    if labels == "mixed":
        assert 0 < mixed < len(cells) * trials
    else:
        assert seen == []
        assert all(cell.top1_hits == cell.trials_with_accepted == (trials if labels == "all-accepted" else 0) for cell in cells)


def test_full_pool_round_robin_equals_direct_bt():
    for seed in (0, 1, 2):
        matrix = generate_matrix(8, WORLD, seed=seed)
        # m = n-1 = 7: every pair judged once, budget = 8 + 8*7/2 = 36
        cell = simulate_cell(matrix, 36, 8, trials=4, seed=99, pairing="round-robin")
        records = [matrix_record(matrix, i, j, i, j) for (i, j) in sorted(matrix.outcomes)]
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


def test_matrix_needs_two_candidates():
    with pytest.raises(ValueError, match="pool_size must be at least 2"):
        JudgmentMatrix(1, {}, (True,))
