"""The fixed prompt set, the one renderer that fills it and its inverse.

Placeholders ({problem}, {code}, {code_a}, {code_b}, {feedback_sections}) are
filled by `render` in one pass over the template, never with str.format:
inserted text is not rescanned, so problem, candidate and critique text reach
the prompt verbatim, braces and placeholder names included.  `parse` reads a
rendered prompt back into its fields through the same template, which is how
the synthetic backend tells prompts apart; no other module knows the prompt
format.
"""

import re
from functools import lru_cache

_PLACEHOLDER_RE = re.compile(r"\{(problem|code|code_a|code_b|feedback_sections)\}")


@lru_cache(maxsize=32)
def _pieces(template: str) -> tuple[str, ...]:
    # literal text at even indices, placeholder names at odd ones
    return tuple(_PLACEHOLDER_RE.split(template))


def render(template: str, **fields: str) -> str:
    """Fill the placeholders named in `fields`; any other placeholder stays as it is."""
    pieces = list(_pieces(template))
    for i in range(1, len(pieces), 2):
        pieces[i] = fields.get(pieces[i], "{" + pieces[i] + "}")
    return "".join(pieces)


def parse(template: str, text: str) -> dict[str, str] | None:
    """The fields `render(template, **fields)` filled to give `text`, or None.

    `text` must start with the template's first literal and end with its last;
    fields are split right to left at each literal's last occurrence, which is
    exact while no field but the first (the problem, here) holds a literal.
    """
    pieces = _pieces(template)
    head, tail = pieces[0], pieces[-1]
    start, end = len(head), len(text) - len(tail)
    if end < start or not text.startswith(head) or not text.endswith(tail):
        return None
    fields = {}
    for i in range(len(pieces) - 3, 1, -2):
        at = text.rfind(pieces[i], start, end)
        if at < 0:
            return None
        fields[pieces[i + 1]] = text[at + len(pieces[i]) : end]
        end = at
    fields[pieces[1]] = text[start:end]
    return fields


GENERATION_SYSTEM_PROMPT = (
    "You are an expert competitive programmer.\n"
    "Output your solution as a single ```cpp ... ``` block, preceded by brief reasoning."
)

COMPARISON_TEMPLATE = '''You are a competitive programming expert.

## Problem Statement
{problem}

## Solution A
```cpp
{code_a}
```

## Solution B
```cpp
{code_b}
```

Which solution is more likely to receive an Accepted verdict from an online judge --- meaning it produces correct output within the time and memory limits for all valid inputs?

If both solutions appear incorrect (wrong answer, TLE, or other issues), choose the one that requires fewer modifications to become Accepted.

If they are fundamentally identical or equally likely to be Accepted, output TIE.

Respond with a JSON object and nothing else, in exactly this format:
{
  "feedback_a": "one sentence on Solution A's key strength or critical flaw",
  "feedback_b": "one sentence on Solution B's key strength or critical flaw",
  "winner": "A or B or TIE"
}'''

MUTATION_WITH_FEEDBACK_TEMPLATE = '''## Problem
{problem}

## Solution
```cpp
{code}
```

## Pairwise Feedback
This solution was compared against other solutions multiple times:

{feedback_sections}

## Task
Write a solution that maximizes the probability of Accepted. You may refine the existing solution or take a different approach if the current one is fundamentally flawed.

Think briefly, then output your final solution as a single ```cpp ... ``` block.'''

MUTATION_WITHOUT_FEEDBACK_TEMPLATE = '''## Problem
{problem}

## Solution
```cpp
{code}
```

## Task
Write a solution that maximizes the probability of Accepted. You may refine the existing solution or take a different approach if the current one is fundamentally flawed.

Think briefly, then output your final solution as a single ```cpp ... ``` block.'''

# Dropped when the restart license is disabled; candidates are then only asked
# to refine in place.
RESTART_LICENSE_SENTENCE = (
    "You may refine the existing solution or take a different approach "
    "if the current one is fundamentally flawed."
)

_LICENSE = " " + RESTART_LICENSE_SENTENCE
MUTATION_WITH_FEEDBACK_NO_RESTART_TEMPLATE = MUTATION_WITH_FEEDBACK_TEMPLATE.replace(_LICENSE, "")
MUTATION_WITHOUT_FEEDBACK_NO_RESTART_TEMPLATE = MUTATION_WITHOUT_FEEDBACK_TEMPLATE.replace(_LICENSE, "")

WINS_HEADER = "### Wins (this solution was judged better):"
TIES_HEADER = "### Ties (judged equally likely to be Accepted):"
LOSSES_HEADER = "### Losses (this solution was judged worse):"

POINTWISE_TEMPLATE = '''You are a competitive programming expert.

## Problem Statement
{problem}

## Solution
```cpp
{code}
```

Is this solution likely to receive an Accepted verdict from an online judge, producing correct output within the time and memory limits for all valid inputs?

Think briefly, then end your reply with a final line of exactly VERDICT: YES or VERDICT: NO.'''

# the final reply lines the pointwise prompt asks for
VERDICT_YES = "VERDICT: YES"
VERDICT_NO = "VERDICT: NO"

SELF_REFINE_TEMPLATE = '''## Problem
{problem}

## Current Solution
```cpp
{code}
```

## Task
Review the current solution for correctness and efficiency. If you find a flaw, fix it and output the improved solution; if it already looks correct, output it unchanged.

Think briefly, then output your final solution as a single ```cpp ... ``` block.'''
