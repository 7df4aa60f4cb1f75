"""Template contract checks: required markers, placeholder hygiene, parse as render's inverse."""

import pytest

from btevolve import prompts
from btevolve.backends import _PROMPT_TABLE, format_candidate

TABLE = [template for template, _ in _PROMPT_TABLE]
NAMES = {
    id(getattr(prompts, name)): name for name in dir(prompts) if name.endswith("_TEMPLATE")
}
FIELD_VALUES = {
    "code": format_candidate(0.25),
    "code_a": format_candidate(-1.5),
    "code_b": format_candidate(2.0),
    "feedback_sections": f"{prompts.WINS_HEADER}\n- Solution A handles the decisive cases.",
}


def test_comparison_template_markers():
    t = prompts.COMPARISON_TEMPLATE
    for marker in (
        "## Problem Statement",
        "## Solution A",
        "## Solution B",
        "{problem}",
        "{code_a}",
        "{code_b}",
        '"winner": "A or B or TIE"',
        "TIE",
        "fewer modifications",
    ):
        assert marker in t
    # the JSON example's braces must survive substitution
    rendered = prompts.render(t, problem="P", code_a="X", code_b="Y")
    assert '"feedback_a"' in rendered and rendered.count("{") >= 1


def test_render_fills_each_placeholder_in_one_pass():
    template = "{problem}|{code}|{code_a}|{code_b}|{feedback_sections}|{other}|{code}"
    fields = {
        "problem": "p {code}",
        "code": "c {problem}",
        "code_a": "a {code_b}",
        "code_b": "b {code_a}",
        "feedback_sections": "f {problem}",
    }
    expected = "p {code}|c {problem}|a {code_b}|b {code_a}|f {problem}|{other}|c {problem}"
    assert prompts.render(template, **fields) == expected


def test_render_leaves_unsupplied_placeholders():
    assert prompts.render("{problem} {code} {x}", problem="P") == "P {code} {x}"
    assert prompts.render("a\\1 {problem}", problem="\\g<0> \\1") == "a\\1 \\g<0> \\1"


def test_mutation_templates_markers():
    assert "## Pairwise Feedback" in prompts.MUTATION_WITH_FEEDBACK_TEMPLATE
    assert "{feedback_sections}" in prompts.MUTATION_WITH_FEEDBACK_TEMPLATE
    assert "## Pairwise Feedback" not in prompts.MUTATION_WITHOUT_FEEDBACK_TEMPLATE
    for t in (prompts.MUTATION_WITH_FEEDBACK_TEMPLATE, prompts.MUTATION_WITHOUT_FEEDBACK_TEMPLATE):
        assert "## Problem" in t and "## Solution" in t and "{code}" in t
        assert prompts.RESTART_LICENSE_SENTENCE in t


def test_pointwise_template_contract():
    t = prompts.POINTWISE_TEMPLATE
    assert t.endswith("VERDICT: YES or VERDICT: NO.")
    assert "{problem}" in t and "{code}" in t
    assert "## Solution" in t


def test_self_refine_template_marker():
    assert "## Current Solution" in prompts.SELF_REFINE_TEMPLATE


def test_feedback_headers_are_distinct():
    headers = {prompts.WINS_HEADER, prompts.TIES_HEADER, prompts.LOSSES_HEADER}
    assert len(headers) == 3
    assert all(h.startswith("### ") for h in headers)


def table_fields(template, problem):
    fields = {"problem": problem, **FIELD_VALUES}
    return {name: value for name, value in fields.items() if "{" + name + "}" in template}


@pytest.mark.parametrize(
    "problem",
    ["Sort the input.", "", "use {code} and {braces}", "\n".join(TABLE), "\n".join(reversed(TABLE))],
    ids=["plain", "empty", "placeholders", "every-template", "every-template-reversed"],
)
@pytest.mark.parametrize("template", TABLE, ids=[NAMES[id(t)] for t in TABLE])
def test_parse_inverts_render(template, problem):
    fields = table_fields(template, problem)
    assert prompts.parse(template, prompts.render(template, **fields)) == fields


@pytest.mark.parametrize("template", TABLE, ids=[NAMES[id(t)] for t in TABLE])
def test_each_table_prompt_first_matches_its_own_template(template):
    # the synthetic backend answers from the first table entry that parses
    text = prompts.render(template, **table_fields(template, "\n".join(TABLE)))
    first = next(t for t in TABLE if prompts.parse(t, text) is not None)
    assert NAMES[id(first)] == NAMES[id(template)]


def test_parse_rejects_other_shapes():
    assert prompts.parse(prompts.COMPARISON_TEMPLATE, "Sort the input.") is None
    rendered = prompts.render(prompts.POINTWISE_TEMPLATE, problem="p", code="c")
    assert prompts.parse(prompts.COMPARISON_TEMPLATE, rendered) is None
    assert prompts.parse(prompts.POINTWISE_TEMPLATE, rendered.replace("## Solution\n", "")) is None
    # opening and closing literals may not overlap
    assert prompts.parse("ab{problem}ba", "aba") is None
    assert prompts.parse("ab{problem}ba", "abba") == {"problem": ""}


def test_parse_splits_later_fields_at_the_last_literal():
    # only the first field may hold a literal of the template
    text = prompts.render("<{problem}|{code}|{code_a}>", problem="a|b|c", code="d", code_a="e")
    assert prompts.parse("<{problem}|{code}|{code_a}>", text) == {"problem": "a|b|c", "code": "d", "code_a": "e"}


def test_no_restart_templates_drop_only_the_license():
    for with_license, without in (
        (prompts.MUTATION_WITH_FEEDBACK_TEMPLATE, prompts.MUTATION_WITH_FEEDBACK_NO_RESTART_TEMPLATE),
        (prompts.MUTATION_WITHOUT_FEEDBACK_TEMPLATE, prompts.MUTATION_WITHOUT_FEEDBACK_NO_RESTART_TEMPLATE),
    ):
        assert prompts.RESTART_LICENSE_SENTENCE not in without
        assert without == with_license.replace(" " + prompts.RESTART_LICENSE_SENTENCE, "")
