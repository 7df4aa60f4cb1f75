"""Pit the population pipeline against pointwise voting and self-refinement.

All three methods get the same synthetic world and comparable call budgets.
Pointwise best-of-n asks YES/NO about each candidate and keeps the most-YES
one; self-refinement rewrites every candidate a few times and picks one at
random (it has no selection signal at all); the pipeline evolves and ranks.
Accept rates are computed from the world's hidden quality threshold.
"""

import numpy as np

from btevolve import (
    RunConfig,
    SyntheticBackend,
    SyntheticWorldConfig,
    derive_seed,
    parse_theta,
    pointwise_score,
    pointwise_top1_expected_accuracy,
    run_pipeline,
    sample_candidates,
    self_refine,
)

PROBLEMS = 60
world = SyntheticWorldConfig(feedback_bonus=0.05)
threshold = world.acceptance_threshold


accept = {"pointwise": 0.0, "self-refine": 0.0, "pipeline": 0.0}
for p in range(PROBLEMS):
    problem = f"synthetic problem {p}"
    backend = SyntheticBackend(world)

    # Pointwise best-of-12 with 9 votes each: 12 + 108 = 120 calls.
    candidates = sample_candidates(backend, problem, 12, seed=p)
    verdicts = [
        pointwise_score(c, problem, votes=9, backend=backend, seed=derive_seed(p, 9, i))
        for i, c in enumerate(candidates)
    ]
    accepted = {c.id: parse_theta(c.content) >= threshold for c in candidates}
    accept["pointwise"] += pointwise_top1_expected_accuracy(verdicts, accepted)

    # Self-refine 12 candidates for 9 rounds: 12 + 108 = 120 calls, pick at random.
    refined = self_refine(candidates, rounds=9, problem=problem, backend=backend, seed=p)
    pick = refined[np.random.default_rng(derive_seed(p, 10, 0)).integers(len(refined))]
    accept["self-refine"] += parse_theta(pick.content) >= threshold

    # Population pipeline at a comparable budget: 12 + 2*33 + 30 = 108 calls.
    config = RunConfig(problem=problem, n=12, k=4, generations=2, final_k=5,
                       seed=p, backend_options={"feedback_bonus": 0.05})
    selected, _ = run_pipeline(config)
    accept["pipeline"] += parse_theta(selected.content) >= threshold

print(f"accept rate over {PROBLEMS} problems (~120 calls each):")
for method, total in accept.items():
    print(f"  {method:12s} {total / PROBLEMS:.3f}")
