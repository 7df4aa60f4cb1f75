"""Measure judge quality on labeled accepted/rejected solution pairs.

Pairwise mode shows each pair once, the accepted side first in every other
pair, and asks which side is better; pointwise mode asks YES/NO about each side separately.
On the synthetic world both judges have dial-in error rates, so the report
can be compared against the ground truth it was configured with.
"""

from btevolve import (
    LabeledPair,
    SyntheticBackend,
    SyntheticWorldConfig,
    format_candidate,
    judge_diagnostic,
)

import numpy as np

# 400 pairs, each an acceptable solution next to a clearly worse one.
rng = np.random.default_rng(2)
pairs = []
for i in range(400):
    good = float(rng.normal(1.8, 0.2))
    pairs.append(LabeledPair(
        problem=f"problem {i}",
        accepted=format_candidate(good),
        rejected=format_candidate(good - 1.6),
    ))

world = SyntheticWorldConfig(
    judge_accuracy=0.862,
    pointwise_recall_accepted=0.964,
    pointwise_recall_rejected=0.622,
    acceptance_threshold=1.0,
)
report = judge_diagnostic(pairs, SyntheticBackend(world), seed=1)

print(f"measured on {report.pair_count} pairs:")
print(f"  pairwise accuracy          {report.pairwise_accuracy:.3f}  (configured 0.862)")
print(f"  pointwise recall, accepted {report.pointwise_accuracy_on_accepted:.3f}  (configured 0.964)")
print(f"  pointwise recall, rejected {report.pointwise_accuracy_on_rejected:.3f}  (configured 0.622)")
print(f"  pointwise joint            {report.pointwise_joint:.3f}  (product 0.600)")
print()
print("The gap between 0.862 pairwise and 0.600 joint is the whole argument")
print("for comparative judging: one relative question beats two absolute ones.")
