"""Selection-only scaling simulation over a precomputed judgment matrix.

A pool of candidates is judged once on every unordered pair (for a pool of
40 that is the full 39-round round-robin, 780 judgments).  Each simulated
cell (budget B, population n) then draws n candidates, spends the remaining
budget on m = floor(2(B - n)/n) rounds of pairwise comparisons by looking
outcomes up in the matrix, fits scores, and checks whether the top-ranked
candidate is labeled accepted.

Every trial draws from its own seed, SeedSequence([seed, B, n, t]); the
trials of a stack of cells are seeded in one replay of numpy's seeding
(seeds.pcg64_seeds), and one generator takes each trial's state in turn,
so the draws are bit for bit those of default_rng on that seed.  Each trial
is then one row of a btrank.fit_bt_rows solve, with its repeated
comparisons of one pair summed into one weighted entry, so its scores equal
fit_bt's on the trial alone up to rounding.  A grid fits the feasible cells
of one population together, in budget order, up to _STACK_ROWS rows per
solve; cells of different populations are never stacked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backends import SyntheticWorldConfig, judge_outcome
# fit_bt stays importable as scaling.fit_bt for tools that patch or trace it;
# the simulation itself fits through fit_bt_rows
from .btrank import DEFAULT_LAM, LEFT_WINS, RIGHT_WINS, TIE, ComparisonRecord, fit_bt, fit_bt_rows, top_candidates  # noqa: F401
from .errors import ConfigError, is_int
from .seeds import pcg64_seeds

FIRST_WINS = "first-wins"
SECOND_WINS = "second-wins"
MATRIX_TIE = "tie"
MATRIX_OUTCOMES = (FIRST_WINS, SECOND_WINS, MATRIX_TIE)

# judge verdict ("A" is the lower pool index) -> matrix outcome
_MATRIX_OUTCOME = {"A": FIRST_WINS, "B": SECOND_WINS, "TIE": MATRIX_TIE}
# matrix outcome -> win weights (first over second, second over first)
_WIN_WEIGHTS = {FIRST_WINS: (1.0, 0.0), SECOND_WINS: (0.0, 1.0), MATRIX_TIE: (0.5, 0.5)}
# matrix outcome -> record outcome, for records shown in pool order and reversed
_IN_ORDER = {FIRST_WINS: LEFT_WINS, SECOND_WINS: RIGHT_WINS, MATRIX_TIE: TIE}
_REVERSED = {FIRST_WINS: RIGHT_WINS, SECOND_WINS: LEFT_WINS, MATRIX_TIE: TIE}

PAIRING_RANDOM = "random"
PAIRING_ROUND_ROBIN = "round-robin"

# most rows one stacked fit takes: a Newton step costs a fixed ~100 us of numpy
# calls whatever the stack height, which a taller stack shares out, but past
# ~64 rows the per-row Hessians and edge arrays outgrow the cache, and stacking
# whole 500-trial cells was measured ~10% slower than fitting them one by one
_STACK_ROWS = 64


def _pair_order(pool_size: int):
    """Canonical upper-triangular pair order: (0,1), (0,2), ..., (n-2,n-1)."""
    for i in range(pool_size - 1):
        for j in range(i + 1, pool_size):
            yield (i, j)


@dataclass(frozen=True)
class JudgmentMatrix:
    """Every unordered pool pair judged once, plus per-candidate accept labels.

    `wins` is the same matrix as a dense read-only (pool, pool) array:
    wins[i, j] is i's win weight over j (1, 0, or 0.5 each for a tie).
    """

    pool_size: int
    outcomes: dict
    labels: tuple[bool, ...]
    wins: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.pool_size < 2:
            raise ValueError("pool_size must be at least 2")
        if len(self.labels) != self.pool_size:
            raise ValueError("one accept label per pool candidate required")
        expected = set(_pair_order(self.pool_size))
        if set(self.outcomes) != expected:
            raise ValueError("outcomes must cover every unordered pair exactly once")
        wins = np.zeros((self.pool_size, self.pool_size))
        for (i, j), outcome in self.outcomes.items():
            if outcome not in MATRIX_OUTCOMES:
                raise ValueError(f"unknown outcome {outcome!r} for pair {(i, j)}")
            wins[i, j], wins[j, i] = _WIN_WEIGHTS[outcome]
        wins.flags.writeable = False
        object.__setattr__(self, "wins", wins)

    def record(self, left: int, right: int, left_index: int, right_index: int) -> ComparisonRecord:
        """Look up the (left, right) pool pair as a record over local indices."""
        if left < right:
            outcome = _IN_ORDER[self.outcomes[(left, right)]]
        else:
            outcome = _REVERSED[self.outcomes[(right, left)]]
        return ComparisonRecord(left_index, right_index, outcome)


def round_robin_schedule(pool_size: int) -> list[list[tuple[int, int]]]:
    """Circle-method 1-factorization: pool_size - 1 rounds of pool_size/2 pairs,
    covering every unordered pair exactly once."""
    if pool_size < 2 or pool_size % 2 != 0:
        raise ValueError("round-robin scheduling needs an even pool of at least 2")
    others = list(range(1, pool_size))
    rounds = []
    for _ in range(pool_size - 1):
        lineup = [0] + others
        half = pool_size // 2
        pairs = []
        for i in range(half):
            a, b = lineup[i], lineup[pool_size - 1 - i]
            pairs.append((min(a, b), max(a, b)))
        rounds.append(pairs)
        others = others[1:] + others[:1]
    return rounds


def generate_matrix(pool_size: int, world: SyntheticWorldConfig, seed: int) -> JudgmentMatrix:
    """Draw a synthetic pool and judge every pair once under the world's judge."""
    rng = np.random.default_rng(seed)
    thetas = rng.normal(world.theta_mean, world.theta_std, size=pool_size)
    labels = tuple(bool(theta >= world.acceptance_threshold) for theta in thetas)
    outcomes = {
        (i, j): _MATRIX_OUTCOME[judge_outcome(thetas[i], thetas[j], world, rng)]
        for i, j in _pair_order(pool_size)
    }
    return JudgmentMatrix(pool_size, outcomes, labels)


@dataclass(frozen=True)
class SimCell:
    """One (budget, population) cell's result."""

    budget: int
    n: int
    m: int
    trials: int
    top1_accuracy: float
    feasible: bool
    top1_hits: int = 0
    trials_with_accepted: int = 0


def _check_grid(pool_size: int, budgets, populations, trials: int, lam: float, pairing: str) -> None:
    """Reject a grid any of whose cells could not be simulated."""
    if pairing not in (PAIRING_RANDOM, PAIRING_ROUND_ROBIN):
        raise ConfigError(f"unknown pairing mode {pairing!r}")
    if not is_int(trials) or not 1 <= trials <= 2**32:
        # a trial's index is one word of its seed's entropy
        raise ConfigError("trials must be an integer in [1, 2**32]")
    if isinstance(lam, bool) or not (isinstance(lam, (int, float)) and lam > 0):
        raise ConfigError("lambda must be positive")
    if not all(is_int(budget) and budget < 2**32 for budget in budgets):
        # a budget is one word of its trials' seed entropy
        raise ConfigError("budgets must be integers below 2**32")
    for n in populations:
        if not is_int(n) or not 2 <= n <= pool_size:
            raise ConfigError(f"population {n} out of range for pool of {pool_size}")
        if n % 2 != 0:
            raise ConfigError(f"population {n} must be even to schedule perfect matchings")
        if pairing == PAIRING_ROUND_ROBIN:
            for budget in budgets:
                m = (2 * (budget - n)) // n
                if m > n - 1:
                    raise ConfigError(
                        f"round-robin pairing supports at most n-1={n - 1} rounds, got m={m} at budget {budget}"
                    )


def _trial_seeds(seed: int, budgets: list, n: int, trials: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of default_rng(SeedSequence([seed, budgets[c], n, t]))
    for row c*trials + t, bit for bit, in one `pcg64_seeds` replay; every
    budget lies in [0, 2**32)."""
    budget_column = np.repeat(np.asarray(budgets, dtype=np.int64), trials)
    return list(zip(*pcg64_seeds(seed, budget_column, n, np.tile(np.arange(trials), len(budgets)))))


def _draw_trials(
    pool_size: int, budgets: list, n: int, trials: int, seed: int, pairing: str
) -> tuple[np.ndarray, np.ndarray]:
    """Every trial's sorted sample of n pool indices, as (rows, n), and its
    compared pairs (local indices, round by round), as (rows, pairs, 2).

    Row c*trials + t is trial t of budgets[c].  One generator takes each
    trial's seeded state in turn, so it draws what default_rng(SeedSequence(
    [seed, budget, n, t])) draws: the sample and, under random pairing, the
    m perfect matchings.  A cell with fewer rounds than the widest fills its
    rows' tail with (0, 0) pairs.
    """
    rounds = [(2 * (budget - n)) // n for budget in budgets]
    samples = np.empty((len(budgets) * trials, n), dtype=np.intp)
    pairs = np.zeros((len(samples), max(rounds) * n // 2, 2), dtype=np.intp)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    seeded = iter(_trial_seeds(seed, budgets, n, trials))
    for c, m in enumerate(rounds):
        block = pairs[c * trials : (c + 1) * trials, : m * n // 2]
        lineups = np.tile(np.arange(n), (m, 1))
        if pairing == PAIRING_ROUND_ROBIN:
            block[:] = np.reshape(round_robin_schedule(n)[:m], (-1, 2))
        for trial in range(trials):
            state, inc = next(seeded)
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            samples[c * trials + trial] = np.sort(rng.permutation(pool_size)[:n])
            if pairing == PAIRING_RANDOM:
                # one shuffle per row draws the same stream as one permutation(n) per round
                block[trial] = rng.permuted(lineups, axis=1).reshape(-1, 2)
    return samples, pairs


def _fit_trials(wins: np.ndarray, samples: np.ndarray, pairs: np.ndarray, lam: float) -> np.ndarray:
    """The (rows, n) BT scores of every trial, fitted in one fit_bt_rows solve.

    Each pair (a, b) is a win of a over b and one of b over a, weighted from
    the matrix (a (0, 0) pair weighs wins[x, x] = 0).  A row's repeated
    (winner, loser) entries are summed into one entry, so the solver runs
    over distinct pairs only (it drops the zero weights left over), and the
    scores equal each trial's fit_bt up to rounding.
    """
    rows, n = samples.shape
    row_index = np.arange(rows)[:, None, None]
    members = samples[row_index, pairs]
    # entry (w, l) of row r is bin r*n*n + w*n + l: both orientations of every pair
    bins = (row_index * n + pairs) * n + pairs[:, :, ::-1]
    summed = np.bincount(bins.ravel(), weights=wins[members, members[:, :, ::-1]].ravel(), minlength=rows * n * n)
    local = np.arange(n * n)
    shape = (rows, n * n)
    scores, _, _ = fit_bt_rows(
        np.broadcast_to(local // n, shape), np.broadcast_to(local % n, shape), summed.reshape(shape), n, lam=lam
    )
    return scores


def _simulate_stack(
    matrix: JudgmentMatrix, budgets: list, n: int, trials: int, seed: int, lam: float, pairing: str
) -> list[SimCell]:
    """Simulate feasible cells of one population n, all fitted in one fit_bt_rows solve."""
    samples, pairs = _draw_trials(matrix.pool_size, budgets, n, trials, seed, pairing)
    scores = _fit_trials(matrix.wins, samples, pairs, lam)
    labels = np.asarray(matrix.labels)
    hits = labels[samples[np.arange(len(samples)), top_candidates(scores)]].reshape(-1, trials).sum(axis=1)
    with_accepted = labels[samples].any(axis=1).reshape(-1, trials).sum(axis=1)
    return [
        SimCell(budget, n, (2 * (budget - n)) // n, trials, int(h) / trials, True, int(h), int(a))
        for budget, h, a in zip(budgets, hits, with_accepted)
    ]


def simulate_cell(
    matrix: JudgmentMatrix,
    budget: int,
    n: int,
    trials: int,
    seed: int,
    lam: float = DEFAULT_LAM,
    pairing: str = PAIRING_RANDOM,
) -> SimCell:
    """Estimate top-1 accept accuracy for one (budget, population) cell.

    Every trial samples n pool candidates without replacement and schedules
    m rounds of perfect matchings (random by default; `round-robin` takes
    the first m rounds of the 1-factorization, which needs m <= n-1).  Seeds
    are derived per (seed, budget, n, trial), so cells and trials can be
    computed in any order.  All trials are fitted in one fit_bt_rows solve,
    and each picks its top candidate as rank does.  A cell that cannot be
    simulated raises ConfigError.
    """
    return sweep_grid(matrix, [budget], [n], trials, seed, lam, pairing)[0]


def sweep_grid(
    matrix: JudgmentMatrix,
    budgets,
    populations,
    trials: int,
    seed: int,
    lam: float = DEFAULT_LAM,
    pairing: str = PAIRING_RANDOM,
) -> list[SimCell]:
    """Simulate every (budget, population) combination, row-major by budget.

    The whole grid is checked before any cell runs: a cell that could not be
    simulated raises ConfigError.  Each distinct cell is simulated once, with
    the same result simulate_cell gives it: the feasible cells of one
    population are fitted together, in budget order, _STACK_ROWS // trials
    cells (at least one) per solve.
    """
    _check_grid(matrix.pool_size, budgets, populations, trials, lam, pairing)
    per_stack = max(1, _STACK_ROWS // trials)
    cells = {}
    for n in dict.fromkeys(populations):
        feasible = []
        for budget in dict.fromkeys(budgets):
            m = (2 * (budget - n)) // n
            if m < 1:
                cells[budget, n] = SimCell(budget, n, m, trials, 0.0, False)
            else:
                feasible.append(budget)
        for start in range(0, len(feasible), per_stack):
            for cell in _simulate_stack(matrix, feasible[start : start + per_stack], n, trials, seed, lam, pairing):
                cells[cell.budget, n] = cell
    return [cells[budget, n] for budget in budgets for n in populations]


def optimal_frontier(cells) -> list[SimCell]:
    """Best feasible cell per budget (max accuracy, ties to the smaller n)."""
    by_budget: dict[int, list[SimCell]] = {}
    for cell in cells:
        if cell.feasible:
            by_budget.setdefault(cell.budget, []).append(cell)
    frontier = []
    for budget in sorted(by_budget):
        frontier.append(max(by_budget[budget], key=lambda c: (c.top1_accuracy, -c.n)))
    return frontier


def save_matrix(matrix: JudgmentMatrix, path: str | Path) -> None:
    """JSON with labels and the upper-triangular outcomes in canonical pair order."""
    payload = {
        "pool_size": matrix.pool_size,
        "labels": list(matrix.labels),
        "outcomes": [matrix.outcomes[pair] for pair in _pair_order(matrix.pool_size)],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_matrix(path: str | Path) -> JudgmentMatrix:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    pool_size = payload["pool_size"]
    pairs = list(_pair_order(pool_size))
    outcomes_list = payload["outcomes"]
    if len(outcomes_list) != len(pairs):
        raise ValueError(f"expected {len(pairs)} outcomes for pool of {pool_size}, got {len(outcomes_list)}")
    labels = payload["labels"]
    if not all(isinstance(label, bool) for label in labels):
        raise ValueError("matrix labels must be JSON booleans (true/false)")
    return JudgmentMatrix(pool_size=pool_size, outcomes=dict(zip(pairs, outcomes_list)), labels=tuple(labels))


def write_grid_csv(cells, path: str | Path, config_echo: dict | None = None) -> None:
    """CSV of cells; the resolved config rides along as a leading # comment."""
    lines = []
    if config_echo is not None:
        lines.append("# config: " + json.dumps(config_echo, sort_keys=True))
    lines.append("budget,n,m,trials,top1_accuracy,feasible")
    for cell in cells:
        lines.append(
            f"{cell.budget},{cell.n},{cell.m},{cell.trials},{cell.top1_accuracy:.6f},{str(cell.feasible).lower()}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
