"""Population mechanics: routing, feedback aggregation, generation assembly."""

import re

import numpy as np
import pytest

from btevolve import prompts
from btevolve.btrank import LEFT_WINS, RIGHT_WINS, TIE, ScoreVector
from btevolve.errors import ConfigError
from btevolve.judging import Judgment
from btevolve.population import (
    STRATEGIES,
    Candidate,
    FeedbackStrategy,
    GenerationState,
    Routing,
    aggregate_feedback,
    assemble_next_generation,
    render_mutation_prompt,
    route,
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


def test_every_strategy_refuses_a_k_that_is_not_a_count():
    # a k of any kind reaches the trace's config echo, where a float32 would not
    # serialise and "x" would be written as the run's k
    for kind in STRATEGIES:
        for k in ("x", 2.5, True, -3, 0, np.float32(2)):
            with pytest.raises(ConfigError, match="integer k >= 1"):
                FeedbackStrategy(kind, k)
        strategy = FeedbackStrategy(kind, np.int64(3))
        assert type(strategy.k) is int and strategy.k == 3


def test_quartile_selection():
    values = [0.9, -0.3, 0.1, 0.9, -0.7, 0.4, 0.0, -0.1]
    routing = route(scores_of(values))
    assert routing.elites == (0, 3)  # tie at 0.9 keeps both anyway
    assert routing.discards == (1, 4)
    assert routing.parents == (0, 2, 3, 5, 6, 7)


def test_quartile_selection_rejects_bad_sizes():
    for size in (0, 2, 6, 10):
        with pytest.raises(ConfigError, match=f"population size {size} is not a positive multiple of 4"):
            route(scores_of([0.0] * size))


def test_route_matches_a_brute_force_sort_on_tied_scores():
    # a few levels, each moved by -1, 0 or 1 steps of rank's 1e-9 grid plus noise below a step,
    # so most vectors hold ties the grid must see, and near-ties it must keep apart
    rng = np.random.default_rng(33)
    for _ in range(300):
        n = 4 * int(rng.integers(1, 9))
        steps = rng.integers(-1, 2, size=n) * 1e-9 + rng.uniform(-2e-10, 2e-10, size=n)
        values = rng.integers(-3, 4, size=n) * 0.25 + steps
        order = sorted(range(n), key=lambda i: (-round(values[i] / 1e-9), i))
        q = n // 4
        expected = Routing(tuple(sorted(order[:q])), tuple(sorted(order[-q:])), tuple(sorted(order[:-q])))
        assert route(scores_of(values)) == expected


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


def routing_for(previous, elites, discards):
    n = len(previous.members)
    return Routing(elites, discards, tuple(i for i in range(n) if i not in discards))


def test_assemble_next_generation_order_and_elite_bytes():
    previous = previous_state()
    routing = routing_for(previous, (0, 5), (2, 6))
    parents = [previous.members[i].id for i in routing.parents]
    state = assemble_next_generation(previous, routing, children_for(previous, parents))
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
    routing = routing_for(previous, (0, 5), (2, 6))
    parents = [previous.members[i].id for i in routing.parents]
    good = children_for(previous, parents)
    with pytest.raises(ValueError):
        assemble_next_generation(previous, routing, good[:-1])  # missing child
    doubled = good[:-1] + [good[0]]
    with pytest.raises(ValueError):
        assemble_next_generation(previous, routing, doubled)  # duplicate parent
    # child claiming a discarded parent
    bad_parent = children_for(previous, parents[:-1] + ["g0-s002"])
    with pytest.raises(ValueError):
        assemble_next_generation(previous, routing, bad_parent)
    # children out of the parents' order: child i must be the mutation of routing.parents[i]
    with pytest.raises(ValueError, match="in order"):
        assemble_next_generation(previous, routing, good[::-1])
    # child with the wrong generation stamp
    wrong_gen = children_for(previous, parents, generation=2)
    with pytest.raises(ValueError):
        assemble_next_generation(previous, routing, wrong_gen)


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        ({"id": 5}, "id must be a string, got 5"),
        ({"content": 5}, "content must be a string, got 5"),
        ({"content": None}, "content must be a string, got None"),
        ({"content": ["x"]}, "content must be a string, got ['x']"),
        ({"origin": None}, "origin must be a string, got None"),
        ({"generation": True}, "generation must be an integer, got True"),
        ({"generation": 1.0}, "generation must be an integer, got 1.0"),
        ({"generation": "1"}, "generation must be an integer, got '1'"),
        ({"parent_id": 3}, "parent_id must be a string or null, got 3"),
        ({"parent_id": ["p"]}, "parent_id must be a string or null, got ['p']"),
    ],
    ids=[
        "id-number", "content-number", "content-null", "content-list", "origin-null", "generation-true",
        "generation-float", "generation-string", "parent-number", "parent-list",
    ],
)
def test_candidate_checks_its_field_types(fields, message):
    valid = dict(id="c", content="x", generation=1, origin="mutated", parent_id="p")
    with pytest.raises(TypeError, match=re.escape(message) + "$"):
        Candidate(**{**valid, **fields})
    Candidate(**dict(valid, generation=np.int64(1)))


def test_candidate_rejects_a_negative_generation():
    with pytest.raises(ValueError, match="generation must be non-negative"):
        Candidate("c", "x", -1, "mutated", parent_id="p")


def test_assemble_rejects_a_population_not_divisible_by_4():
    members = tuple(Candidate(f"g0-s{i:03d}", f"body-{i}", 0, "sampled") for i in range(6))
    routing = Routing((0,), (5,), (0, 1, 2, 3, 4))
    with pytest.raises(ConfigError, match="population size 6 is not divisible by 4"):
        assemble_next_generation(GenerationState(0, members), routing, [])
