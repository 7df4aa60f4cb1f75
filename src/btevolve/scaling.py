"""Selection-only scaling simulation over a precomputed judgment matrix.

A pool of candidates is judged once on every unordered pair (for a pool of
40 that is the full 39-round round-robin, 780 judgments).  Each simulated
cell (budget B, population n) then draws n candidates, spends the remaining
budget on m = floor(2(B - n)/n) rounds of pairwise comparisons by looking
outcomes up in the matrix, fits scores, and checks whether the top-ranked
candidate is labeled accepted.

Every trial draws from its own seed, SeedSequence([seed, B, n, t]); the
trials of every feasible cell of a grid are seeded in one SeedSequence
replay (seeds.pcg64_generators), each into numpy's own PCG64, so the
draws are bit for bit those of default_rng on that seed.  A
trial whose sample is all accepted or all rejected is label-determined:
whatever the fit ranks first carries that label, so its hit is read off the
sample and it is not fitted.  Every mixed trial is one row of a btrank
solve, with its repeated comparisons of one pair summed into one weighted
entry and only the nonzero sums passed on, in the order fit_bt_rows would
keep them.  A row leaves the solve once its pick is certain: once its top
score leads its second by more than 2 (||g||_2 + sqrt(n) tol/2) / lam, with
g its gradient and tol = 1e-8, plus a margin for rounding; the objective is
lam-strongly concave, so the full solve cannot move the scores that far.
So a trial's pick, and with it its hit, is bit for bit what top_candidates
reads off fit_bt_rows' fit of its summed pairs, though the scores it is read
from are not that fit's.  A grid simulates the feasible cells of one
population together, in budget order, up to _STACK_ROWS trials per stack,
and fits a stack's mixed trials in solves of at most _SOLVE_ENTRIES Hessian
entries; cells of different populations are never stacked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backends import SyntheticWorldConfig, judge_outcome
from .btrank import DEFAULT_LAM, _fit_entries, check_lam, top_candidates
# fit_bt stays importable as scaling.fit_bt for tools that patch or trace it;
# the simulation itself fits through btrank._fit_entries, fit_bt_rows' solver entry
from .btrank import fit_bt  # noqa: F401
from .errors import ConfigError, check_count, is_int
from .seeds import pcg64_generators

FIRST_WINS = "first-wins"
SECOND_WINS = "second-wins"
MATRIX_TIE = "tie"
MATRIX_OUTCOMES = (FIRST_WINS, SECOND_WINS, MATRIX_TIE)

# judge verdict ("A" is the lower pool index) -> matrix outcome
_MATRIX_OUTCOME = {"A": FIRST_WINS, "B": SECOND_WINS, "TIE": MATRIX_TIE}
# matrix outcome -> win weights (first over second, second over first)
_WIN_WEIGHTS = {FIRST_WINS: (1.0, 0.0), SECOND_WINS: (0.0, 1.0), MATRIX_TIE: (0.5, 0.5)}

PAIRING_RANDOM = "random"
PAIRING_ROUND_ROBIN = "round-robin"

# a stack holds max(1, _STACK_ROWS // trials) cells of one population, so it
# draws at most this many trials only while a cell has at most this many: a
# larger cell is a stack of its own (500 trials at the CLI's default).  A
# Newton step costs a fixed ~100 us of numpy calls whatever the stack height,
# which a taller stack shares out, but the per-row n x n Hessians of a tall
# stack outgrow the cache, so a solve holds at most _SOLVE_ENTRIES Hessian
# entries: 64 rows at n = 20, 400 at n = 8, 1600 at n = 4, and a stack's
# mixed trials above that are fitted in slices.  At 500 trials, slicing a
# cell's ~450 mixed rows this way was measured ~30% faster than one solve at
# n = 20 and n = 40, while at n <= 8 one solve beats 64-row slices and the
# cap keeps it whole; the benchmark's 15-trial grid stacks 4 cells.  A stack
# bounds the draws and the solve only, as a grid is seeded in one replay
_STACK_ROWS = 64
_SOLVE_ENTRIES = _STACK_ROWS * 20 * 20


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
    check_count("pool_size", pool_size, 2)
    rng = np.random.default_rng(seed)
    thetas = rng.normal(world.theta_mean, world.theta_std, size=pool_size)
    labels = tuple(bool(theta >= world.acceptance_threshold) for theta in thetas)
    outcomes = {
        (i, j): _MATRIX_OUTCOME[judge_outcome(thetas[i], thetas[j], world, rng.random)]
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
    check_lam(lam, "lambda")
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


def _trial_generators(seed: int, cells: list, trials: int):
    """default_rng(SeedSequence([seed, budget, n, t])) for trial t of every
    (budget, n) in `cells`, as row c*trials + t, bit for bit, from one
    `pcg64_generators` replay; every budget and n lies in [0, 2**32).
    Nothing is seeded until the first generator is taken."""
    budgets, populations = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    trial_column = np.tile(np.arange(trials), len(cells))
    yield from pcg64_generators(seed, np.repeat(budgets, trials), np.repeat(populations, trials), trial_column)


def _draw_trials(
    pool_size: int, budgets: list, n: int, trials: int, pairing: str, generators
) -> tuple[np.ndarray, np.ndarray]:
    """Every trial's sorted sample of n pool indices, as (rows, n), and its
    compared pairs (local indices, round by round), as (rows, pairs, 2).

    Row c*trials + t is trial t of budgets[c], and it draws from the next
    generator of `generators` (see _trial_generators): the sample and, under
    random pairing, the m perfect matchings.  A cell with fewer rounds than
    the widest fills its rows' tail with (0, 0) pairs.
    """
    rounds = [(2 * (budget - n)) // n for budget in budgets]
    samples = np.empty((len(budgets) * trials, n), dtype=np.intp)
    pairs = np.zeros((len(samples), max(rounds) * n // 2, 2), dtype=np.intp)
    for c, m in enumerate(rounds):
        block = pairs[c * trials : (c + 1) * trials, : m * n // 2]
        lineups = np.tile(np.arange(n), (m, 1))
        if pairing == PAIRING_ROUND_ROBIN:
            block[:] = np.reshape(round_robin_schedule(n)[:m], (-1, 2))
        for trial in range(trials):
            rng = next(generators)
            samples[c * trials + trial] = rng.permutation(pool_size)[:n]
            if pairing == PAIRING_RANDOM:
                # one shuffle per row draws the same stream as one permutation(n)
                # per round; a row's pairs are contiguous, so the (m, n) view
                # takes the shuffled lineups in place
                rng.permuted(lineups, axis=1, out=block[trial].reshape(m, n))
    samples.sort(axis=1)
    return samples, pairs


def _fit_trials(wins: np.ndarray, samples: np.ndarray, pairs: np.ndarray, lam: float) -> np.ndarray:
    """The top pick of every trial, as top_candidates reads it off the
    trial's (n,) BT scores, fitted in one btrank solve.

    Each pair (a, b) is a win of a over b and one of b over a, weighted from
    the matrix (a (0, 0) pair weighs wins[x, x] = 0).  A row's repeated
    (winner, loser) entries are summed into one bin, and the solver takes
    the nonzero bins only, as flat (row, winner, loser) entries in bin
    order: row by row, and within a row by winner, then loser, the order
    fit_bt_rows keeps its positive (rows, n*n) entries in.  A row leaves the
    solve once its pick is certain: once its top score leads the second by
    more than 2 (||grad||_2 + sqrt(n) tol/2) / lam (see btrank._certain_picks),
    tol = btrank._TOLERANCE; a row that never gets there runs to fit_bt_rows' stopping
    test, with its bits.  So every pick is top_candidates of fit_bt_rows on
    the summed (rows, n*n) layout, though the scores it is read from are
    not that fit's scores.
    """
    rows, n = samples.shape
    row_index = np.arange(rows)[:, None, None]
    members = samples[row_index, pairs]
    # entry (w, l) of row r is bin r*n*n + w*n + l: both orientations of every pair
    bins = (row_index * n + pairs) * n + pairs[:, :, ::-1]
    summed = np.bincount(bins.ravel(), weights=wins[members, members[:, :, ::-1]].ravel(), minlength=rows * n * n)
    # win weights are 0, 1/2 or 1, so a bin is nonzero exactly when it is positive
    used = np.flatnonzero(summed)
    row, cell = np.divmod(used, n * n)
    winners, losers = np.divmod(cell, n)
    scores, _, _ = _fit_entries(row, winners, losers, summed[used], rows, n, lam, picks_only=True)
    return top_candidates(scores)


def _simulate_stack(
    matrix: JudgmentMatrix, budgets: list, n: int, trials: int, lam: float, pairing: str, generators
) -> list[SimCell]:
    """Simulate feasible cells of one population n, fitting their mixed trials
    in solves of at most _SOLVE_ENTRIES Hessian entries each; the trials draw
    from `generators` in row order.

    A trial whose sample is all accepted or all rejected picks a candidate
    of that label whatever the fit ranks first, so its hit is that label
    and it is not fitted; a stack with no mixed trial runs no solve.
    """
    samples, pairs = _draw_trials(matrix.pool_size, budgets, n, trials, pairing, generators)
    sampled = np.asarray(matrix.labels)[samples]
    with_accepted = sampled.any(axis=1)
    # a label-determined trial hits exactly when its whole sample is accepted
    hit = sampled.all(axis=1)
    mixed = np.flatnonzero(hit != with_accepted)
    # rows are independent, so each keeps its pick in any slice
    height = max(1, _SOLVE_ENTRIES // (n * n))
    for start in range(0, len(mixed), height):
        rows = mixed[start : start + height]
        hit[rows] = sampled[rows, _fit_trials(matrix.wins, samples[rows], pairs[rows], lam)]
    hits = hit.reshape(-1, trials).sum(axis=1)
    accepted = with_accepted.reshape(-1, trials).sum(axis=1)
    return [
        SimCell(budget, n, (2 * (budget - n)) // n, trials, int(h) / trials, True, int(h), int(a))
        for budget, h, a in zip(budgets, hits, accepted)
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
    computed in any order.  A trial whose sample holds one label only hits
    exactly when that label is accepted, so it is not fitted; the mixed
    trials are fitted in btrank solves on their nonzero summed pairs,
    each stopped once its pick is certain, and each picks the candidate
    rank picks from fit_bt_rows' fit of those pairs.  A cell that cannot be
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
    population are drawn together, in budget order, _STACK_ROWS // trials
    cells (at least one) per stack, and a stack's mixed trials are fitted in
    solves of at most _SOLVE_ENTRIES Hessian entries (label-determined
    trials need none, so a stack without a mixed trial runs no solve).  The
    trials of all feasible cells are seeded in one replay.
    """
    _check_grid(matrix.pool_size, budgets, populations, trials, lam, pairing)
    per_stack = max(1, _STACK_ROWS // trials)
    cells = {}
    stacks = []
    for n in dict.fromkeys(populations):
        feasible = []
        for budget in dict.fromkeys(budgets):
            m = (2 * (budget - n)) // n
            if m < 1:
                cells[budget, n] = SimCell(budget, n, m, trials, 0.0, False)
            else:
                feasible.append(budget)
        stacks += [(feasible[start : start + per_stack], n) for start in range(0, len(feasible), per_stack)]
    # every trial of the grid is seeded in one replay, in the order the stacks draw them
    generators = _trial_generators(seed, [(budget, n) for chunk, n in stacks for budget in chunk], trials)
    for chunk, n in stacks:
        for cell in _simulate_stack(matrix, chunk, n, trials, lam, pairing, generators):
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
