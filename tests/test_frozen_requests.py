"""Byte-identity gate for every prompt the package sends.

A recording backend wraps SyntheticBackend and captures (user_prompt,
system_prompt, temperature, seed) for every call of small runs in both judge
modes, with three feedback strategies and the restart license on and off,
plus sampling, self-refine, pointwise scoring and the judge diagnostic.  The
sha256 of that record is pinned: a refactor of prompt rendering must leave it
unchanged, and a deliberate prompt change updates FROZEN_DIGEST and says so
in CHANGES.md.
"""

import hashlib
import json

from btevolve.backends import (
    JUDGE_MODE_FIXED,
    JUDGE_MODE_LOGISTIC,
    SyntheticBackend,
    SyntheticWorldConfig,
    format_candidate,
)
from btevolve.baselines import LabeledPair, judge_diagnostic, pointwise_score, self_refine
from btevolve.pipeline import RunConfig, run_pipeline, sample_candidates
from btevolve.population import FeedbackStrategy

FROZEN_DIGEST = "7fca47a16a9b0c02075dc1f5fdba40bb8ecea28ce49debc7da54ad5123573ff2"

PROBLEM = "Given n (1 <= n <= 10^5) integers a_i, print their sum.\nInput: {n} on one line, then the a_i."


class RecordingBackend:
    def __init__(self, world=None):
        self.inner = SyntheticBackend(world)
        self.calls = []

    def complete(self, request):
        self.calls.append([request.user_prompt, request.system_prompt, request.temperature, request.seed])
        return self.inner.complete(request)


def record_all_requests() -> list:
    calls = []
    strategies = (FeedbackStrategy("pairwise-K", 2), FeedbackStrategy("none"), FeedbackStrategy("pairwise-all"))
    for judge_mode in (JUDGE_MODE_FIXED, JUDGE_MODE_LOGISTIC):
        for strategy in strategies:
            for license_on in (True, False):
                backend = RecordingBackend(SyntheticWorldConfig(judge_mode=judge_mode))
                config = RunConfig(
                    problem=PROBLEM,
                    n=8,
                    k=2,
                    generations=2,
                    final_k=3,
                    seed=7,
                    feedback_strategy=strategy,
                    include_restart_license=license_on,
                )
                run_pipeline(config, backend=backend)
                calls.extend(backend.calls)

    backend = RecordingBackend()
    candidates = sample_candidates(backend, PROBLEM, 4, seed=3)
    refined = self_refine(candidates, 2, PROBLEM, backend, seed=4)
    for i, candidate in enumerate(refined):
        pointwise_score(candidate, PROBLEM, 3, backend, seed=5 + i)
    pairs = [
        LabeledPair(PROBLEM, format_candidate(2.0 + p), format_candidate(-1.0 + p / 4)) for p in range(3)
    ]
    judge_diagnostic(pairs, backend, seed=6)
    calls.extend(backend.calls)
    return calls


def test_every_request_matches_the_frozen_digest():
    calls = record_all_requests()
    assert len(calls) == 12 * (8 + 2 * (8 + 6) + 12) + 4 + 8 + 12 + 3 * 3
    digest = hashlib.sha256(json.dumps(calls).encode("utf-8")).hexdigest()
    assert digest == FROZEN_DIGEST
