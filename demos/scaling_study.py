"""Trade population size against comparison rounds under a fixed call budget.

A budget of B calls pays for n candidates plus m rounds of n/2 pairwise
judgments, so m = 2(B - n) / n: more candidates means fewer comparisons each.
The study pre-judges every pair in a large pool once, then replays subsets of
those judgments for each (B, n) cell, so the sweep costs no new judge calls.
"""

import tempfile
from pathlib import Path

from btevolve import (
    SyntheticWorldConfig,
    generate_matrix,
    optimal_frontier,
    sweep_grid,
    write_grid_csv,
)

world = SyntheticWorldConfig()  # 0.862-accurate judge, 90th-percentile accept bar
matrix = generate_matrix(pool_size=60, world=world, seed=4)
print(f"pool of {matrix.pool_size}, {sum(matrix.labels)} acceptable candidates")

budgets = [30, 60, 120, 240]
populations = [4, 8, 12, 20, 40]
cells = sweep_grid(matrix, budgets, populations, trials=300, seed=9)

print(f"\n{'budget':>6} | " + " | ".join(f"n={n:>2}" for n in populations))
for budget in budgets:
    row = [c for c in cells if c.budget == budget]
    rendered = [
        f"{c.top1_accuracy:.2f}" if c.feasible else " -- "
        for c in sorted(row, key=lambda c: c.n)
    ]
    print(f"{budget:>6} | " + " | ".join(rendered))

print("\nbest population per budget:")
for cell in optimal_frontier(cells):
    print(f"  B={cell.budget:>3}: n={cell.n:>2} with m={cell.m:>2} rounds "
          f"-> top-1 accept {cell.top1_accuracy:.3f}")

with tempfile.TemporaryDirectory() as scratch:
    out = Path(scratch) / "grid.csv"
    write_grid_csv(cells, out, config_echo={"pool": 60, "seed": 9})
    print(f"\nfull grid written to {out.name}")
    print(out.read_text().splitlines()[0])
