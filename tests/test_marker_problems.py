"""The synthetic world is not fooled by the problem text.

Its replies depend only on request seeds and the theta of the candidates in a
prompt, and each request is read with its purpose's templates, so a problem
full of prompt markers, or one that is a whole rendered prompt, must give the
same replies, and select the same candidate, as the same seed on a problem
with none.
"""

import pytest

from btevolve import prompts
from btevolve.backends import (
    JUDGE_MODE_FIXED,
    JUDGE_MODE_LOGISTIC,
    SyntheticBackend,
    SyntheticWorldConfig,
    _PROMPT_TABLE,
    format_candidate,
)
from btevolve.baselines import LabeledPair, judge_diagnostic, pointwise_score, self_refine
from btevolve.pipeline import RunConfig, run_pipeline, sample_candidates
from btevolve.population import FeedbackStrategy

PLAIN = "Sort up to 1000 integers and print them."

TEMPLATES = [template for template, _ in _PROMPT_TABLE]
RENDERED = [
    prompts.render(
        template,
        problem="nested",
        code=format_candidate(9.0),
        code_a=format_candidate(9.0),
        code_b=format_candidate(-9.0),
        feedback_sections=f"{prompts.WINS_HEADER}\n- beat everything",
    )
    for template in TEMPLATES
]

MARKER_PROBLEMS = {
    "every-template": "\n".join(TEMPLATES),
    "every-template-reversed": "\n".join(reversed(TEMPLATES)),
    "every-template-rendered": "\n\n".join(RENDERED),
    "theta": "Print theta=9.000000000 for every query.",
    "candidate-block": "Improve this solution:\n" + format_candidate(9.0),
    "solution-a-and-b": "Compare ## Solution A with ## Solution B",
    "current-solution": "See ## Current Solution",
    "verdict": "Print VERDICT: if x",
    "solution-theta": "## Solution\n```cpp\n// theta=9.000000000",
    # whole rendered prompts: each request's purpose, not its text, says what it is
    **{f"rendered-{i}": prompt for i, prompt in enumerate(RENDERED)},
    "rendered-pointwise-x": prompts.render(prompts.POINTWISE_TEMPLATE, problem="x", code=format_candidate(9.0)),
}


class ReplyLog:
    """SyntheticBackend that keeps every reply, in call order."""

    def __init__(self, world):
        self.inner = SyntheticBackend(world)
        self.replies = []

    def complete(self, request):
        reply = self.inner.complete(request)
        self.replies.append(reply)
        return reply


def run(problem, judge_mode, license_on, strategy):
    config = RunConfig(
        problem=problem,
        seed=3,
        include_restart_license=license_on,
        feedback_strategy=strategy,
    )
    backend = ReplyLog(SyntheticWorldConfig(judge_mode=judge_mode))
    selected, trace = run_pipeline(config, backend=backend)
    records = [record for record in trace.records if record["kind"] != "config"]
    return selected, records, backend.replies


def baselines(problem):
    backend = ReplyLog(SyntheticWorldConfig())
    candidates = sample_candidates(backend, problem, 6, seed=4)
    refined = self_refine(candidates, 2, problem, backend, seed=5)
    verdicts = [pointwise_score(c, problem, 5, backend, seed=6 + i) for i, c in enumerate(refined)]
    pairs = [LabeledPair(problem, format_candidate(1.5 + p / 4), format_candidate(0.5 - p / 3)) for p in range(4)]
    report = judge_diagnostic(pairs, backend, seed=7)
    return refined, verdicts, report, backend.replies


@pytest.mark.parametrize(
    "strategy", [FeedbackStrategy("pairwise-K", 4), FeedbackStrategy("none")], ids=["feedback", "no-feedback"]
)
@pytest.mark.parametrize("license_on", [True, False], ids=["license", "no-license"])
@pytest.mark.parametrize("judge_mode", [JUDGE_MODE_FIXED, JUDGE_MODE_LOGISTIC])
def test_run_ignores_markers_in_the_problem(judge_mode, license_on, strategy):
    expected_selected, expected_records, expected_replies = run(PLAIN, judge_mode, license_on, strategy)
    for name, problem in MARKER_PROBLEMS.items():
        selected, records, replies = run(problem, judge_mode, license_on, strategy)
        assert (selected.id, selected.content) == (expected_selected.id, expected_selected.content), name
        assert replies == expected_replies, name
        assert records == expected_records, name


@pytest.mark.parametrize("name", sorted(MARKER_PROBLEMS))
def test_baselines_ignore_markers_in_the_problem(name):
    assert baselines(MARKER_PROBLEMS[name]) == baselines(PLAIN)
