"""Judge protocol tests: prompt rendering, reply parsing, canonicalization."""

import json
import string

import numpy as np
import pytest

from btevolve.btrank import LEFT_WINS, RIGHT_WINS, TIE
from btevolve.errors import JudgeParseError
from btevolve.judging import (
    ComparisonTask,
    canonicalize,
    degraded_tie,
    parse_judge_reply,
    render_comparison_prompt,
    rewrite_self_relative,
)
from conftest import judge_reply, sampled


def make_task(presented_first="L"):
    return ComparisonTask(
        left_id="L", right_id="R", presented_first=presented_first, prompt_text="p", seed=0
    )


def test_parse_plain_reply():
    winner, fa, fb = parse_judge_reply(judge_reply("A"))
    assert (winner, fa, fb) == ("A", "critique of A", "critique of B")


def test_parse_reply_with_surrounding_prose():
    raw = "Let me think.\nSome {braces} here?\n" + judge_reply("B") + "\ntrailing text"
    assert parse_judge_reply(raw)[0] == "B"


def test_parse_winner_is_case_and_space_insensitive():
    for text, expected in ((" tie ", "TIE"), ("a", "A"), ("B\n", "B")):
        raw = json.dumps({"feedback_a": "x", "feedback_b": "y", "winner": text})
        assert parse_judge_reply(raw)[0] == expected


def test_parse_requires_keys_on_first_object():
    # the first parseable object is authoritative; later objects don't rescue it
    raw = '{"verdict": "A"} ' + judge_reply("A")
    with pytest.raises(JudgeParseError, match="feedback_a"):
        parse_judge_reply(raw)


def test_parse_skips_unbalanced_brace_prefix():
    raw = "{ not json at all " + judge_reply("TIE")
    assert parse_judge_reply(raw)[0] == "TIE"


def test_parse_rejects_bad_shapes():
    cases = [
        "no object here",
        "{}",
        json.dumps({"feedback_a": "x", "feedback_b": "y"}),
        json.dumps({"feedback_a": "x", "feedback_b": "y", "winner": "C"}),
        json.dumps({"feedback_a": 3, "feedback_b": "y", "winner": "A"}),
        json.dumps({"feedback_a": "x", "feedback_b": None, "winner": "A"}),
        "",
    ]
    for raw in cases:
        with pytest.raises(JudgeParseError):
            parse_judge_reply(raw)


def test_parse_fuzz_never_crashes():
    rng = np.random.default_rng(123)
    alphabet = np.array(list(string.printable + "{}{}\"\"::,,"))
    for _ in range(10_000):
        length = int(rng.integers(0, 60))
        raw = "".join(rng.choice(alphabet, size=length))
        try:
            winner, fa, fb = parse_judge_reply(raw)
            assert winner in ("A", "B", "TIE")
            assert isinstance(fa, str) and isinstance(fb, str)
        except JudgeParseError:
            pass


def test_render_prompt_contains_both_candidates_in_presented_order():
    left = sampled("L", "LEFT-BODY")
    right = sampled("R", "RIGHT-BODY")
    problem = "PROBLEM-TEXT"
    task = render_comparison_prompt(problem, left, right, seed=4)
    assert problem in task.prompt_text
    a_block = task.prompt_text.split("## Solution B")[0]
    first_body = "LEFT-BODY" if task.presented_first == "L" else "RIGHT-BODY"
    second_body = "RIGHT-BODY" if task.presented_first == "L" else "LEFT-BODY"
    assert first_body in a_block
    assert second_body not in a_block
    assert second_body in task.prompt_text


@pytest.mark.parametrize("problem", ["solve {code}", "solve {code_a} then {code_b}"])
def test_render_prompt_inserts_placeholder_text_verbatim(problem):
    left = sampled("L", "left {code_b} {problem}")
    right = sampled("R", "right {code_a}")
    shown_first = set()
    for seed in range(8):
        task = render_comparison_prompt(problem, left, right, seed=seed)
        first, second = (left, right) if task.presented_first == "L" else (right, left)
        shown_first.add(first.id)
        text = task.prompt_text
        assert f"## Problem Statement\n{problem}\n\n## Solution A\n```cpp\n{first.content}\n```\n\n" in text
        assert f"## Solution B\n```cpp\n{second.content}\n```\n\nWhich solution" in text
    assert shown_first == {"L", "R"}


def test_render_prompt_rejects_empty_content():
    with pytest.raises(ValueError):
        render_comparison_prompt("p", sampled("L", ""), sampled("R", "x"), seed=0)


def test_presentation_order_is_balanced():
    left = sampled("L", "l")
    right = sampled("R", "r")
    first_left = sum(
        render_comparison_prompt("p", left, right, seed=s).presented_first == "L"
        for s in range(1000)
    )
    assert 0.45 <= first_left / 1000 <= 0.55


def test_given_order_replaces_the_seed_draw():
    left = sampled("L", "l")
    right = sampled("R", "r")
    for seed in range(20):
        drawn = render_comparison_prompt("p", left, right, seed=seed)
        left_first = drawn.presented_first == "L"
        assert render_comparison_prompt("p", left, right, seed=seed, left_first=left_first) == drawn
        flipped = render_comparison_prompt("p", left, right, seed=seed, left_first=not left_first)
        assert flipped.presented_first != drawn.presented_first


def test_canonicalize_all_orientations():
    # (presented_first, winner) -> expected outcome
    cases = [
        ("L", "A", LEFT_WINS),
        ("L", "B", RIGHT_WINS),
        ("R", "A", RIGHT_WINS),
        ("R", "B", LEFT_WINS),
        ("L", "TIE", TIE),
        ("R", "TIE", TIE),
    ]
    for first, winner, outcome in cases:
        judgment = canonicalize(make_task(first), winner, "fa", "fb")
        assert judgment.outcome == outcome
        assert not judgment.degraded
        # feedback_a belongs to whichever candidate was presented first
        if first == "L":
            assert judgment.rationale_for_left == "fa"
            assert judgment.rationale_for_right == "fb"
        else:
            assert judgment.rationale_for_left == "fb"
            assert judgment.rationale_for_right == "fa"


def test_canonicalize_rejects_unknown_winner():
    with pytest.raises(ValueError):
        canonicalize(make_task(), "C", "fa", "fb")


def test_degraded_tie_shape():
    judgment = degraded_tie(make_task("R"))
    assert judgment.outcome == TIE
    assert judgment.degraded
    assert judgment.rationale_for_left == "" and judgment.rationale_for_right == ""
    assert judgment.presented_first == "R"


def test_judgment_validation():
    from btevolve.judging import Judgment

    with pytest.raises(ValueError):
        Judgment("L", "R", "weird", "", "", "L")
    with pytest.raises(ValueError):
        Judgment("L", "R", LEFT_WINS, "", "", "L", degraded=True)
    with pytest.raises(ValueError):
        Judgment("L", "R", TIE, "", "", "X")


def test_rewrite_self_relative():
    text = "Solution A handles overflow better than Solution B; solution B may TLE."
    as_a = rewrite_self_relative(text, "A")
    assert as_a == (
        "this solution handles overflow better than the other solution; "
        "the other solution may TLE."
    )
    as_b = rewrite_self_relative(text, "B")
    assert as_b == (
        "the other solution handles overflow better than this solution; "
        "this solution may TLE."
    )


def test_rewrite_leaves_plain_prose_alone():
    text = "a solution exists; CASE A matters; the B-tree solution stands"
    assert rewrite_self_relative(text, "A") == text


def test_rewrite_rejects_bad_label():
    with pytest.raises(ValueError):
        rewrite_self_relative("x", "TIE")
