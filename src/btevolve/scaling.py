"""Selection-only scaling simulation over a precomputed judgment matrix.

A pool of candidates is judged once on every unordered pair (for a pool of
40 that is the full 39-round round-robin, 780 judgments).  Each simulated
cell (budget B, population n) then draws n candidates, spends the remaining
budget on m = floor(2(B - n)/n) rounds of pairwise comparisons by looking
outcomes up in the matrix, fits scores, and checks whether the top-ranked
candidate is labeled accepted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backends import SyntheticWorldConfig, judge_outcome
from .btrank import LEFT_WINS, RIGHT_WINS, TIE, ComparisonRecord, fit_bt, rank

FIRST_WINS = "first-wins"
SECOND_WINS = "second-wins"
MATRIX_TIE = "tie"
MATRIX_OUTCOMES = (FIRST_WINS, SECOND_WINS, MATRIX_TIE)

# judge verdict ("A" is the lower pool index) -> matrix outcome
_MATRIX_OUTCOME = {"A": FIRST_WINS, "B": SECOND_WINS, "TIE": MATRIX_TIE}
# matrix outcome -> record outcome, for records shown in pool order and reversed
_IN_ORDER = {FIRST_WINS: LEFT_WINS, SECOND_WINS: RIGHT_WINS, MATRIX_TIE: TIE}
_REVERSED = {FIRST_WINS: RIGHT_WINS, SECOND_WINS: LEFT_WINS, MATRIX_TIE: TIE}

PAIRING_RANDOM = "random"
PAIRING_ROUND_ROBIN = "round-robin"


def _pair_order(pool_size: int):
    """Canonical upper-triangular pair order: (0,1), (0,2), ..., (n-2,n-1)."""
    for i in range(pool_size - 1):
        for j in range(i + 1, pool_size):
            yield (i, j)


@dataclass(frozen=True)
class JudgmentMatrix:
    """Every unordered pool pair judged once, plus per-candidate accept labels."""

    pool_size: int
    outcomes: dict
    labels: tuple[bool, ...]

    def __post_init__(self) -> None:
        if self.pool_size < 2:
            raise ValueError("pool_size must be at least 2")
        if len(self.labels) != self.pool_size:
            raise ValueError("one accept label per pool candidate required")
        expected = set(_pair_order(self.pool_size))
        if set(self.outcomes) != expected:
            raise ValueError("outcomes must cover every unordered pair exactly once")
        for pair, outcome in self.outcomes.items():
            if outcome not in MATRIX_OUTCOMES:
                raise ValueError(f"unknown outcome {outcome!r} for pair {pair}")

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


def simulate_cell(
    matrix: JudgmentMatrix,
    budget: int,
    n: int,
    trials: int,
    seed: int,
    lam: float = 0.01,
    pairing: str = PAIRING_RANDOM,
) -> SimCell:
    """Estimate top-1 accept accuracy for one (budget, population) cell.

    Every trial samples n pool candidates without replacement and schedules
    m rounds of perfect matchings (random by default; `round-robin` takes
    the first m rounds of the 1-factorization, which needs m <= n-1).  Seeds
    are derived per (seed, budget, n, trial), so cells and trials can be
    computed in any order.
    """
    if not 2 <= n <= matrix.pool_size:
        raise ValueError(f"population {n} out of range for pool of {matrix.pool_size}")
    if n % 2 != 0:
        raise ValueError("population must be even to schedule perfect matchings")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if pairing not in (PAIRING_RANDOM, PAIRING_ROUND_ROBIN):
        raise ValueError(f"unknown pairing mode {pairing!r}")
    m = (2 * (budget - n)) // n
    if m < 1:
        return SimCell(budget, n, m, trials, 0.0, False)
    if pairing == PAIRING_ROUND_ROBIN:
        if m > n - 1:
            raise ValueError(f"round-robin pairing supports at most n-1={n - 1} rounds, got m={m}")
        schedule = round_robin_schedule(n)[:m]

    hits = 0
    with_accepted = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, budget, n, trial]))
        sample = np.sort(rng.permutation(matrix.pool_size)[:n])
        if any(matrix.labels[int(c)] for c in sample):
            with_accepted += 1
        records = []
        if pairing == PAIRING_RANDOM:
            rounds = (
                [(int(perm[2 * i]), int(perm[2 * i + 1])) for i in range(n // 2)]
                for perm in (rng.permutation(n) for _ in range(m))
            )
        else:
            rounds = iter(schedule)
        for round_pairs in rounds:
            for a, b in round_pairs:
                records.append(matrix.record(int(sample[a]), int(sample[b]), a, b))
        scores = fit_bt(records, n, lam=lam)
        top_local = rank(scores)[0]
        if matrix.labels[int(sample[top_local])]:
            hits += 1
    return SimCell(budget, n, m, trials, hits / trials, True, hits, with_accepted)


def sweep_grid(
    matrix: JudgmentMatrix,
    budgets,
    populations,
    trials: int,
    seed: int,
    lam: float = 0.01,
    pairing: str = PAIRING_RANDOM,
) -> list[SimCell]:
    """Simulate every (budget, population) combination, row-major by budget."""
    return [
        simulate_cell(matrix, budget, n, trials, seed, lam=lam, pairing=pairing)
        for budget in budgets
        for n in populations
    ]


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
    return JudgmentMatrix(
        pool_size=pool_size,
        outcomes=dict(zip(pairs, outcomes_list)),
        labels=tuple(bool(x) for x in payload["labels"]),
    )


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
