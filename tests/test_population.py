"""Population mechanics: routing, feedback aggregation, generation assembly."""

import numpy as np
import pytest

from btevolve import prompts
from btevolve.btrank import LEFT_WINS, RIGHT_WINS, TIE, ScoreVector
from btevolve.errors import ConfigError
from btevolve.judging import Judgment
from btevolve.population import (
    Candidate,
    FeedbackStrategy,
    GenerationState,
    aggregate_feedback,
    assemble_next_generation,
    render_mutation_prompt,
    select_discards,
    select_elites,
)


def scores_of(values):
    return ScoreVector(np.asarray(values, dtype=float), 0.01, True, 5)


def test_candidate_validation():
    with pytest.raises(ValueError):
        Candidate("c", "x", 1, "sampled")  # sampled must be generation 0
    with pytest.raises(ValueError):
        Candidate("c", "x", 0, "sampled", parent_id="p")
    with pytest.raises(ValueError):
        Candidate("c", "x", 1, "mutated")  # mutations need a parent
    with pytest.raises(ValueError):
        Candidate("c", "x", 1, "spawned")
    Candidate("c", "x", 2, "elite-carryover", parent_id="p")


def test_strategy_validation():
    with pytest.raises(ConfigError):
        FeedbackStrategy("pairwise-K")
    with pytest.raises(ConfigError):
        FeedbackStrategy("pairwise-K", 0)
    with pytest.raises(ConfigError):
        FeedbackStrategy("everything")
    FeedbackStrategy("none")


def test_quartile_selection():
    values = [0.9, -0.3, 0.1, 0.9, -0.7, 0.4, 0.0, -0.1]
    vector = scores_of(values)
    assert select_elites(vector, 8) == {0, 3}  # tie at 0.9 keeps both anyway
    assert select_discards(vector, 8) == {1, 4}


def test_quartile_selection_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        select_elites(scores_of([0.0] * 10), 10)
    with pytest.raises(ValueError):
        select_elites(scores_of([0.0] * 8), 12)


def judgments_for_x():
    # x wins vs c2, loses vs c1, ties vs c3; rationales carry A/B labels
    return (
        Judgment("x", "c2", LEFT_WINS, "Solution A is tight.", "Solution B misses edge cases.", "x"),
        Judgment("c1", "x", LEFT_WINS, "Solution A is faster.", "Solution B may TLE.", "c1"),
        Judgment("x", "c3", TIE, "Solution A equals Solution B.", "Solution B equals Solution A.", "c3"),
    )


def test_aggregate_feedback_sections_and_rewrites():
    text = aggregate_feedback("x", judgments_for_x(), FeedbackStrategy("pairwise-all"))
    expected = (
        f"{prompts.WINS_HEADER}\n"
        "- this solution is tight.\n\n"
        f"{prompts.TIES_HEADER}\n"
        "- the other solution equals this solution.\n\n"
        f"{prompts.LOSSES_HEADER}\n"
        "- this solution may TLE."
    )
    assert text == expected


def test_aggregate_feedback_strategy_filters():
    judgments = judgments_for_x()
    positive = aggregate_feedback("x", judgments, FeedbackStrategy("positive-only"))
    assert positive == f"{prompts.WINS_HEADER}\n- this solution is tight."
    negative = aggregate_feedback("x", judgments, FeedbackStrategy("negative-only"))
    assert negative == f"{prompts.LOSSES_HEADER}\n- this solution may TLE."
    assert aggregate_feedback("x", judgments, FeedbackStrategy("none")) == ""


def test_aggregate_feedback_pairwise_k_caps_in_input_order():
    judgments = judgments_for_x()
    capped = aggregate_feedback("x", judgments, FeedbackStrategy("pairwise-K", 2))
    # first two comparisons only: the win vs c2 and the loss vs c1
    assert prompts.WINS_HEADER in capped
    assert prompts.LOSSES_HEADER in capped
    assert prompts.TIES_HEADER not in capped
    uncapped = aggregate_feedback("x", judgments, FeedbackStrategy("pairwise-K", 5))
    assert uncapped == aggregate_feedback("x", judgments, FeedbackStrategy("pairwise-all"))


def test_aggregate_feedback_bullets_sorted_by_opponent():
    judgments = (
        Judgment("x", "c9", LEFT_WINS, "Solution A beat c9.", "", "x"),
        Judgment("c2", "x", RIGHT_WINS, "", "Solution B beat c2.", "c2"),
    )
    text = aggregate_feedback("x", judgments, FeedbackStrategy("positive-only"))
    assert text == f"{prompts.WINS_HEADER}\n- this solution beat c2.\n- this solution beat c9."


def test_aggregate_feedback_ignores_other_candidates():
    judgments = (Judgment("a", "b", LEFT_WINS, "fa", "fb", "a"),)
    assert aggregate_feedback("x", judgments, FeedbackStrategy("pairwise-all")) == ""


def test_render_mutation_prompt_variants():
    candidate = Candidate("c", "CODE-BODY", 0, "sampled")
    with_feedback = render_mutation_prompt("PROBLEM", candidate, "### Wins\n- w")
    assert "## Pairwise Feedback" in with_feedback
    assert "### Wins\n- w" in with_feedback
    assert "PROBLEM" in with_feedback and "CODE-BODY" in with_feedback

    bare = render_mutation_prompt("PROBLEM", candidate, "")
    assert "## Pairwise Feedback" not in bare
    assert "PROBLEM" in bare and "CODE-BODY" in bare


def test_render_mutation_prompt_restart_license_toggle():
    candidate = Candidate("c", "x", 0, "sampled")
    licensed = render_mutation_prompt("p", candidate, "fb", include_restart_license=True)
    stripped = render_mutation_prompt("p", candidate, "fb", include_restart_license=False)
    assert prompts.RESTART_LICENSE_SENTENCE in licensed
    assert prompts.RESTART_LICENSE_SENTENCE not in stripped
    assert "  " not in stripped.replace(licensed.split(prompts.RESTART_LICENSE_SENTENCE)[0], "", 1)
    assert stripped == licensed.replace(" " + prompts.RESTART_LICENSE_SENTENCE, "")


def test_braces_in_problem_survive_substitution():
    candidate = Candidate("c", "int main() { return {0}; }", 0, "sampled")
    text = render_mutation_prompt("use {braces} and {code}", candidate, "")
    assert text.startswith(
        "## Problem\nuse {braces} and {code}\n\n## Solution\n```cpp\nint main() { return {0}; }\n```"
    )


def test_mutation_prompt_inserts_problem_code_and_feedback_verbatim():
    code = "// " + prompts.RESTART_LICENSE_SENTENCE + "\nint x; // {feedback_sections}"
    feedback = "### Wins (this solution was judged better):\n- Solution A uses {problem} and {code}"
    text = render_mutation_prompt(
        "mentions {code}", Candidate("c", code, 0, "sampled"), feedback, include_restart_license=False
    )
    assert text == (
        "## Problem\nmentions {code}\n\n## Solution\n```cpp\n" + code + "\n```\n\n"
        "## Pairwise Feedback\nThis solution was compared against other solutions multiple times:\n\n"
        + feedback
        + "\n\n## Task\nWrite a solution that maximizes the probability of Accepted.\n\n"
        "Think briefly, then output your final solution as a single ```cpp ... ``` block."
    )


def test_critique_text_reaches_the_mutation_prompt_verbatim():
    judgments = (Judgment("a", "b", LEFT_WINS, "Solution A cites {problem} and {code_b}", "fb", "a"),)
    feedback = aggregate_feedback("a", judgments, FeedbackStrategy("pairwise-all"))
    text = render_mutation_prompt("PROBLEM", Candidate("a", "CODE", 0, "sampled"), feedback)
    assert "- this solution cites {problem} and {code_b}\n" in text
    assert text.count("PROBLEM") == 1 and text.count("CODE") == 1


def previous_state():
    members = tuple(Candidate(f"g0-s{i:03d}", f"body-{i}", 0, "sampled") for i in range(8))
    return GenerationState(0, members)


def children_for(previous, parents, generation=1):
    index = {member.id: i for i, member in enumerate(previous.members)}
    return [
        Candidate(f"g1-mut{index[p]:03d}", f"child-of-{p}", generation, "mutated", parent_id=p)
        for p in parents
    ]


def test_assemble_next_generation_order_and_elite_bytes():
    previous = previous_state()
    elites, discards = {0, 5}, {2, 6}
    parents = [m.id for i, m in enumerate(previous.members) if i not in discards]
    state = assemble_next_generation(previous, elites, discards, children_for(previous, parents))
    assert state.generation == 1
    assert [m.id for m in state.members[:2]] == ["g1-elite000", "g1-elite005"]
    assert state.members[0].content == previous.members[0].content
    assert state.members[1].content == previous.members[5].content
    assert state.members[0].origin == "elite-carryover"
    assert state.members[0].parent_id == "g0-s000"
    # children follow, ordered by the parent's index in the previous generation
    child_parents = [m.parent_id for m in state.members[2:]]
    assert child_parents == parents
    assert len(state.members) == 8


def test_assemble_rejects_bad_routing():
    previous = previous_state()
    parents = [m.id for i, m in enumerate(previous.members) if i not in (2, 6)]
    good = children_for(previous, parents)
    with pytest.raises(ValueError):
        assemble_next_generation(previous, {0}, {2, 6}, good)  # wrong elite count
    with pytest.raises(ValueError):
        assemble_next_generation(previous, {0, 2}, {2, 6}, good)  # overlap
    with pytest.raises(ValueError):
        assemble_next_generation(previous, {0, 5}, {2, 6}, good[:-1])  # missing child
    doubled = good[:-1] + [good[0]]
    with pytest.raises(ValueError):
        assemble_next_generation(previous, {0, 5}, {2, 6}, doubled)  # duplicate parent
    # child claiming a discarded parent
    bad_parent = children_for(previous, parents[:-1] + ["g0-s002"])
    with pytest.raises(ValueError):
        assemble_next_generation(previous, {0, 5}, {2, 6}, bad_parent)
    # child with the wrong generation stamp
    wrong_gen = children_for(previous, parents, generation=2)
    with pytest.raises(ValueError):
        assemble_next_generation(previous, {0, 5}, {2, 6}, wrong_gen)
