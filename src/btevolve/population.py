"""Population bookkeeping: candidates, elite routing, feedback, mutation prompts.

Each generation keeps n candidates.  After its comparisons are scored, the
top quarter are elites (carried over unchanged), the bottom quarter are
discarded, and every non-discarded candidate (elites included) is mutated
with the feedback aggregated from its own comparisons, giving n/4 carryovers
plus 3n/4 children in the next generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import prompts
from .btrank import LEFT_WINS, RIGHT_WINS, ScoreVector, rank
from .errors import ConfigError, is_int
from .judging import WINNER_A, WINNER_B, Judgment, rewrite_self_relative

ORIGIN_SAMPLED = "sampled"
ORIGIN_MUTATED = "mutated"
ORIGIN_ELITE = "elite-carryover"
ORIGINS = (ORIGIN_SAMPLED, ORIGIN_MUTATED, ORIGIN_ELITE)

STRATEGY_NONE = "none"
STRATEGY_POSITIVE = "positive-only"
STRATEGY_NEGATIVE = "negative-only"
STRATEGY_PAIRWISE_ALL = "pairwise-all"
STRATEGY_PAIRWISE_K = "pairwise-K"
STRATEGIES = (
    STRATEGY_NONE,
    STRATEGY_POSITIVE,
    STRATEGY_NEGATIVE,
    STRATEGY_PAIRWISE_ALL,
    STRATEGY_PAIRWISE_K,
)


@dataclass(frozen=True)
class Candidate:
    id: str
    content: str
    generation: int
    origin: str
    parent_id: str | None = None

    def __post_init__(self) -> None:
        # one test first: a run and its replay each build every candidate
        if not (
            isinstance(self.id, str)
            and isinstance(self.content, str)
            and isinstance(self.origin, str)
            and is_int(self.generation)
            and (self.parent_id is None or isinstance(self.parent_id, str))
        ):
            for name in ("id", "content", "origin"):
                if not isinstance(getattr(self, name), str):
                    raise TypeError(f"{name} must be a string, got {getattr(self, name)!r}")
            if not is_int(self.generation):
                raise TypeError(f"generation must be an integer, got {self.generation!r}")
            raise TypeError(f"parent_id must be a string or null, got {self.parent_id!r}")
        if self.origin not in ORIGINS:
            raise ValueError(f"unknown origin {self.origin!r}")
        if self.origin == ORIGIN_SAMPLED:
            if self.generation != 0 or self.parent_id is not None:
                raise ValueError("sampled candidates are generation 0 with no parent")
        else:
            if self.parent_id is None:
                raise ValueError(f"{self.origin} candidates need a parent_id")
        if self.generation < 0:
            raise ValueError("generation must be non-negative")


@dataclass(frozen=True)
class FeedbackStrategy:
    """What part of a candidate's comparison feedback reaches its mutation."""

    kind: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRATEGIES:
            raise ConfigError(f"unknown feedback strategy {self.kind!r}")
        if self.k is None:
            if self.kind == STRATEGY_PAIRWISE_K:
                raise ConfigError("pairwise-K needs an integer k >= 1")
        elif not is_int(self.k) or self.k < 1:
            raise ConfigError(f"feedback strategy {self.kind} takes an integer k >= 1 or none, got {self.k!r}")
        else:
            object.__setattr__(self, "k", int(self.k))  # a numpy integer as the int the trace can write


@dataclass(frozen=True)
class GenerationState:
    """One generation: its members, and once compared, judgments and scores."""

    generation: int
    members: tuple[Candidate, ...]
    judgments: tuple[Judgment, ...] = ()
    scores: ScoreVector | None = None


class Routing(NamedTuple):
    """One generation's quartile routing, as ascending member indices: the top
    quarter (elites), the bottom quarter (discards) and every member not
    discarded (the mutation parents, elites included)."""

    elites: tuple[int, ...]
    discards: tuple[int, ...]
    parents: tuple[int, ...]


def route(scores: ScoreVector) -> Routing:
    """Route a judged generation by one ranking of its fitted scores (rank's
    tie-breaks apply); a size that is not a positive multiple of 4 is a
    ConfigError."""
    n = len(scores)
    if n < 4 or n % 4 != 0:
        raise ConfigError(f"population size {n} is not a positive multiple of 4")
    order = rank(scores)
    discards = set(order[-(n // 4) :])
    parents = tuple(i for i in range(n) if i not in discards)
    return Routing(tuple(sorted(order[: n // 4])), tuple(sorted(discards)), parents)


def _entries_for(candidate_id: str, judgments) -> list[tuple[str, str, str]]:
    # (result, opponent_id, rewritten rationale) per comparison the candidate took part in
    entries = []
    for j in judgments:
        if candidate_id == j.left_id:
            rationale, opponent = j.rationale_for_left, j.right_id
            won, lost = j.outcome == LEFT_WINS, j.outcome == RIGHT_WINS
        elif candidate_id == j.right_id:
            rationale, opponent = j.rationale_for_right, j.left_id
            won, lost = j.outcome == RIGHT_WINS, j.outcome == LEFT_WINS
        else:
            continue
        own_label = WINNER_A if j.presented_first == candidate_id else WINNER_B
        result = "win" if won else ("loss" if lost else "tie")
        entries.append((result, opponent, rewrite_self_relative(rationale, own_label)))
    return entries


def aggregate_feedback(candidate_id: str, judgments, strategy: FeedbackStrategy) -> str:
    """Assemble the feedback block for one candidate's mutation prompt.

    Sections appear in wins/ties/losses order with one "- ..." bullet per
    comparison, bullets sorted by ascending opponent id; empty sections are
    omitted.  Strategy filters which sections appear; pairwise-K additionally
    caps the number of comparisons used (first k in input order, normally a
    no-op because at most k were scheduled upstream).  Returns "" when
    nothing survives, which selects the feedback-free mutation prompt.
    """
    if strategy.kind == STRATEGY_NONE:
        return ""
    entries = _entries_for(candidate_id, judgments)
    if strategy.kind == STRATEGY_PAIRWISE_K:
        entries = entries[: strategy.k]

    wanted = {
        STRATEGY_POSITIVE: ("win",),
        STRATEGY_NEGATIVE: ("loss",),
        STRATEGY_PAIRWISE_ALL: ("win", "tie", "loss"),
        STRATEGY_PAIRWISE_K: ("win", "tie", "loss"),
    }[strategy.kind]

    sections = []
    for result, header in (
        ("win", prompts.WINS_HEADER),
        ("tie", prompts.TIES_HEADER),
        ("loss", prompts.LOSSES_HEADER),
    ):
        if result not in wanted:
            continue
        bullets = sorted(
            (opponent, text) for r, opponent, text in entries if r == result
        )
        if bullets:
            sections.append("\n".join([header] + [f"- {text}" for _, text in bullets]))
    return "\n\n".join(sections)


def render_mutation_prompt(
    problem: str,
    candidate: Candidate,
    feedback: str,
    include_restart_license: bool = True,
) -> str:
    """Render the mutation prompt; empty feedback selects the feedback-free
    variant, and without the restart license its sentence is left out."""
    template = {
        (True, True): prompts.MUTATION_WITH_FEEDBACK_TEMPLATE,
        (True, False): prompts.MUTATION_WITH_FEEDBACK_NO_RESTART_TEMPLATE,
        (False, True): prompts.MUTATION_WITHOUT_FEEDBACK_TEMPLATE,
        (False, False): prompts.MUTATION_WITHOUT_FEEDBACK_NO_RESTART_TEMPLATE,
    }[bool(feedback), bool(include_restart_license)]
    return prompts.render(template, problem=problem, code=candidate.content, feedback_sections=feedback)


def assemble_next_generation(
    previous: GenerationState,
    routing: Routing,
    mutated: list[Candidate],
) -> GenerationState:
    """Combine elite carryovers with mutated children into the next generation.

    Child i must be the generation-(g+1) mutation of member
    `routing.parents[i]`.  Carryovers keep their content byte for byte and
    point back at the elite they copy.  Member order is carryovers then
    children, each in ascending order of the previous-generation index.
    """
    n = len(previous.members)
    if n % 4 != 0:
        raise ConfigError(f"population size {n} is not divisible by 4")
    next_generation = previous.generation + 1
    if [child.parent_id for child in mutated] != [previous.members[i].id for i in routing.parents]:
        raise ValueError("children must be the mutations of the routing's parents, in order")
    for child in mutated:
        if child.generation != next_generation or child.origin != ORIGIN_MUTATED:
            raise ValueError(f"child {child.id} is not a generation-{next_generation} mutation")
    carryovers = [
        Candidate(
            id=f"g{next_generation}-elite{i:03d}",
            content=previous.members[i].content,
            generation=next_generation,
            origin=ORIGIN_ELITE,
            parent_id=previous.members[i].id,
        )
        for i in routing.elites
    ]
    return GenerationState(generation=next_generation, members=(*carryovers, *mutated))
