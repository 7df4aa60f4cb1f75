"""Pairwise judging: prompt rendering, reply parsing, canonicalization.

The judge sees two candidates labeled Solution A and Solution B, in the
presentation order its caller chooses, and replies with a JSON verdict.
Everything downstream works in stable left/right space, so the
canonicalization step here is the only place that knows which candidate was
shown first.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import prompts
from .btrank import LEFT_WINS, RIGHT_WINS, TIE
from .errors import JudgeParseError

if TYPE_CHECKING:
    from .population import Candidate

WINNER_A = "A"
WINNER_B = "B"
WINNER_TIE = "TIE"

OWN_LABELS = (WINNER_A, WINNER_B)


@dataclass(frozen=True)
class ComparisonTask:
    """A rendered comparison: who is compared, who was shown as Solution A."""

    left_id: str
    right_id: str
    presented_first: str
    prompt_text: str


@dataclass(frozen=True)
class Judgment:
    """One canonical comparison outcome plus the per-side rationales.

    `rationale_for_left`/`rationale_for_right` are stored verbatim as the
    judge wrote them (still using A/B labels); they are rewritten into
    self-relative wording only when rendered into a mutation prompt.
    `presented_first` records which candidate was shown as Solution A.
    The ids and rationales must be strings, so `presented_first`, one of the
    ids, is one too, and `degraded` must be a bool.
    """

    left_id: str
    right_id: str
    outcome: str
    rationale_for_left: str
    rationale_for_right: str
    presented_first: str
    degraded: bool = False

    def __post_init__(self) -> None:
        # one test first: a run and its replay each build a judgment per comparison
        if not (
            isinstance(self.left_id, str)
            and isinstance(self.right_id, str)
            and isinstance(self.rationale_for_left, str)
            and isinstance(self.rationale_for_right, str)
            and isinstance(self.degraded, bool)
        ):
            for name in ("left_id", "right_id", "rationale_for_left", "rationale_for_right"):
                if not isinstance(getattr(self, name), str):
                    raise TypeError(f"{name} must be a string, got {getattr(self, name)!r}")
            raise TypeError(f"degraded must be true or false, got {self.degraded!r}")
        if self.left_id == self.right_id:
            raise ValueError(f"self-comparison of {self.left_id!r}")
        if self.outcome not in (LEFT_WINS, RIGHT_WINS, TIE):
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if self.degraded and self.outcome != TIE:
            raise ValueError("degraded judgments must be ties")
        if self.presented_first not in (self.left_id, self.right_id):
            raise ValueError("presented_first must be one of the compared candidates")


def render_comparison_prompt(
    problem: str,
    left: "Candidate",
    right: "Candidate",
    seed: int | None = None,
    *,
    left_first: bool | None = None,
) -> ComparisonTask:
    """Render the comparison prompt with left shown first iff `left_first`.

    A caller that has not chosen the order passes `seed` instead, and left
    goes first iff default_rng(seed).random() < 0.5.  A run passes only
    `left_first`, the orientation of the round's pairing plan
    (pairing._left_first), and the judge diagnostic alternates it by pair.
    """
    if not left.content or not right.content:
        raise ValueError("both candidates must have non-empty content")
    if left_first is None:
        if seed is None:
            raise ValueError("give a seed or left_first")
        left_first = bool(np.random.default_rng(seed).random() < 0.5)
    first, second = (left, right) if left_first else (right, left)
    text = prompts.render(prompts.COMPARISON_TEMPLATE, problem=problem, code_a=first.content, code_b=second.content)
    return ComparisonTask(
        left_id=left.id,
        right_id=right.id,
        presented_first=first.id,
        prompt_text=text,
    )


_DECODER = json.JSONDecoder()


def _first_json_object(raw: str) -> dict:
    start = raw.find("{")
    while start != -1:
        try:
            obj, _ = _DECODER.raw_decode(raw, start)
        except ValueError:
            start = raw.find("{", start + 1)
            continue
        return obj  # dicts only: raw_decode at '{' yields one or raises
    raise JudgeParseError("no JSON object found in judge reply")


def parse_judge_reply(raw: str) -> tuple[str, str, str]:
    """Extract (winner, feedback_a, feedback_b) from a raw judge reply.

    The first balanced-brace JSON object in the reply is used; it must carry
    string fields feedback_a, feedback_b and winner, with winner matching
    A/B/TIE case-insensitively after trimming.  Anything else raises
    JudgeParseError.
    """
    obj = _first_json_object(raw)
    for key in ("feedback_a", "feedback_b", "winner"):
        if key not in obj:
            raise JudgeParseError(f"judge reply is missing {key!r}")
        if not isinstance(obj[key], str):
            raise JudgeParseError(f"judge reply field {key!r} is not a string")
    winner = obj["winner"].strip().upper()
    if winner not in (WINNER_A, WINNER_B, WINNER_TIE):
        raise JudgeParseError(f"unrecognized winner {obj['winner']!r}")
    return winner, obj["feedback_a"], obj["feedback_b"]


def canonicalize(task: ComparisonTask, winner: str, feedback_a: str, feedback_b: str) -> Judgment:
    """Translate an A/B verdict back into left/right space."""
    if winner not in (WINNER_A, WINNER_B, WINNER_TIE):
        raise ValueError(f"unrecognized winner {winner!r}")
    first_is_left = task.presented_first == task.left_id
    if winner == WINNER_TIE:
        outcome = TIE
    elif (winner == WINNER_A) == first_is_left:
        outcome = LEFT_WINS
    else:
        outcome = RIGHT_WINS
    rationale_for_left = feedback_a if first_is_left else feedback_b
    rationale_for_right = feedback_b if first_is_left else feedback_a
    return Judgment(
        left_id=task.left_id,
        right_id=task.right_id,
        outcome=outcome,
        rationale_for_left=rationale_for_left,
        rationale_for_right=rationale_for_right,
        presented_first=task.presented_first,
    )


def degraded_tie(task: ComparisonTask) -> Judgment:
    """Fallback judgment when the reply stayed unparseable after retries."""
    return Judgment(
        left_id=task.left_id,
        right_id=task.right_id,
        outcome=TIE,
        rationale_for_left="",
        rationale_for_right="",
        presented_first=task.presented_first,
        degraded=True,
    )


# Matches "Solution A" / "solution B" plus bare "A"/"B" directly adjacent to
# the word solution; deliberately conservative so prose like "a solution"
# or "CASE A" is left alone.
_LABEL_RE = re.compile(r"\b(?:[Ss]olution\s+(A|B)|(A|B)\s+[Ss]olution)\b")


def rewrite_self_relative(feedback: str, own_label: str) -> str:
    """Rewrite A/B-labeled feedback from the labeled candidate's point of view.

    References to the candidate's own label become "this solution"; the
    opponent's label becomes "the other solution".  `own_label` is the letter
    the candidate was presented as ("A" or "B").
    """
    if own_label not in OWN_LABELS:
        raise ValueError(f"own_label must be one of {OWN_LABELS}")

    def replace(match: re.Match) -> str:
        label = match.group(1) or match.group(2)
        return "this solution" if label == own_label else "the other solution"

    return _LABEL_RE.sub(replace, feedback)
