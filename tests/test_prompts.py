"""Template contract checks: required markers and placeholder hygiene."""

from btevolve import prompts


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


def test_template_bundle_defaults():
    bundle = prompts.PromptTemplates()
    assert bundle.comparison == prompts.COMPARISON_TEMPLATE
    assert bundle.generation_system == prompts.GENERATION_SYSTEM_PROMPT
    custom = prompts.PromptTemplates(comparison="compare {code_a} {code_b} {problem}")
    assert custom.comparison.startswith("compare")
    assert custom.mutation_with_feedback == prompts.MUTATION_WITH_FEEDBACK_TEMPLATE
