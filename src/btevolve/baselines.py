"""Baselines and judge diagnostics.

Pointwise scoring asks for standalone YES/NO verdicts and keeps only replies
whose final non-empty line is exactly "VERDICT: YES" or "VERDICT: NO"
(trailing whitespace tolerated, nothing else).  Self-refine loops a single
review-and-rewrite call per candidate per round.  The diagnostic measures a
judge's pairwise accuracy and per-class pointwise recalls on labeled
accepted/rejected pairs.  Each `parallelism` argument is a limit on
concurrent backend calls or a pipeline.TaskPool to share across calls.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from . import prompts
from .backends import PURPOSE_JUDGE, PURPOSE_POINTWISE, PURPOSE_REFINE, Backend, CompletionRequest
from .btrank import LEFT_WINS
from .errors import ConfigError, JudgeParseError
from .judging import canonicalize, parse_judge_reply, render_comparison_prompt
from .pipeline import TaskPool, complete_candidate, task_pool
from .population import ORIGIN_MUTATED, Candidate
from .seeds import derive_seed

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PointwiseVerdict:
    """Vote tally for one candidate; total_votes counts only well-formed replies."""

    candidate_id: str
    yes_votes: int
    total_votes: int

    def __post_init__(self) -> None:
        if not 0 <= self.yes_votes <= self.total_votes:
            raise ValueError("yes_votes out of range")

    @property
    def flagged(self) -> bool:
        """True when every reply was malformed and the tally is empty."""
        return self.total_votes == 0


def parse_verdict_line(reply: str) -> bool | None:
    """YES/NO from the final non-empty line, or None for a malformed reply."""
    for line in reversed(reply.splitlines()):
        if not line.strip():
            continue
        line = line.rstrip()
        if line == prompts.VERDICT_YES:
            return True
        if line == prompts.VERDICT_NO:
            return False
        return None
    return None


def pointwise_score(
    candidate: Candidate,
    problem: str,
    votes: int,
    backend: Backend,
    seed: int = 0,
    parallelism: int | TaskPool = 1,
) -> PointwiseVerdict:
    """Collect `votes` independent YES/NO verdicts; malformed replies are discarded."""
    if votes < 1:
        raise ConfigError("votes must be at least 1")
    prompt = prompts.render(prompts.POINTWISE_TEMPLATE, problem=problem, code=candidate.content)

    def vote_task(i: int):
        request = CompletionRequest(
            user_prompt=prompt, temperature=1.0, seed=derive_seed(seed, 0, i), purpose=PURPOSE_POINTWISE
        )
        return parse_verdict_line(backend.complete(request))

    with task_pool(parallelism) as pool:
        results = pool.run([lambda i=i: vote_task(i) for i in range(votes)])
    valid = [r for r in results if r is not None]
    verdict = PointwiseVerdict(candidate.id, sum(valid), len(valid))
    if verdict.flagged:
        logger.warning("no valid verdicts for candidate %s", candidate.id)
    return verdict


def pointwise_top1_expected_accuracy(verdicts, accepted: dict) -> float:
    """Expected accept rate of the top-YES candidate under uniform tie-breaking.

    `accepted` maps candidate_id to its ground-truth accept flag.  The
    tied-top set shares the maximum YES count; the expectation is simply the
    accepted fraction within it.
    """
    if not verdicts:
        raise ValueError("need at least one verdict")
    top = max(v.yes_votes for v in verdicts)
    tied = [v for v in verdicts if v.yes_votes == top]
    return sum(bool(accepted[v.candidate_id]) for v in tied) / len(tied)


def self_refine(
    candidates,
    rounds: int,
    problem: str,
    backend: Backend,
    seed: int = 0,
    parallelism: int | TaskPool = 1,
) -> list[Candidate]:
    """Each candidate reviews and rewrites itself once per round.

    Rounds are sequential per candidate (each sees its own latest version);
    candidates run independently.  Costs exactly len(candidates) * rounds
    calls.  A failed call or an empty reply raises BackendError naming the
    round and the candidate.
    """
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    current = list(candidates)

    def refine_task(round_no: int, slot: int):
        member = current[slot]
        request = CompletionRequest(
            user_prompt=prompts.render(prompts.SELF_REFINE_TEMPLATE, problem=problem, code=member.content),
            system_prompt=prompts.GENERATION_SYSTEM_PROMPT,
            temperature=1.0,
            seed=derive_seed(seed, 1, round_no, slot),
            purpose=PURPOSE_REFINE,
        )
        content = complete_candidate(backend, request, f"refine round {round_no}, candidate {member.id}")
        return Candidate(
            id=f"{member.id}-r{round_no}",
            content=content,
            generation=member.generation + 1,
            origin=ORIGIN_MUTATED,
            parent_id=member.id,
        )

    with task_pool(parallelism) as pool:
        for round_no in range(1, rounds + 1):
            current = pool.run([lambda r=round_no, slot=slot: refine_task(r, slot) for slot in range(len(current))])
    return current


@dataclass(frozen=True)
class LabeledPair:
    """One diagnostic datum: an accepted and a rejected solution to a problem."""

    problem: str
    accepted: str
    rejected: str


def load_pairs(path: str | Path) -> list[LabeledPair]:
    """JSON lines with string fields problem, accepted, rejected, the two
    solutions non-empty; other lines are skipped."""
    pairs = []
    skipped = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                texts = (row["problem"], row["accepted"], row["rejected"])
            except (ValueError, KeyError, TypeError):
                texts = None
            if texts and all(isinstance(text, str) for text in texts) and texts[1] and texts[2]:
                pairs.append(LabeledPair(*texts))
            else:
                skipped += 1
    if skipped:
        logger.warning("skipped %d malformed pair lines", skipped)
    return pairs


@dataclass(frozen=True)
class DiagnosticReport:
    pairwise_accuracy: float
    pointwise_accuracy_on_accepted: float
    pointwise_accuracy_on_rejected: float
    pointwise_joint: float
    pair_count: int

    def to_dict(self) -> dict:
        return {
            "pairwise_accuracy": self.pairwise_accuracy,
            "pointwise_accuracy_on_accepted": self.pointwise_accuracy_on_accepted,
            "pointwise_accuracy_on_rejected": self.pointwise_accuracy_on_rejected,
            "pointwise_joint": self.pointwise_joint,
            "pair_count": self.pair_count,
        }


def judge_diagnostic(
    pairs,
    backend: Backend,
    seed: int = 0,
    parallelism: int | TaskPool = 1,
) -> DiagnosticReport:
    """Judge quality on labeled pairs.

    Pairwise: one randomized-order comparison per pair; the judge is correct
    only when the accepted side wins (ties and unparseable replies count as
    incorrect).  Pointwise: one verdict per member; correct means YES on the
    accepted member or NO on the rejected one, malformed counting as
    incorrect; joint requires both members of a pair correct.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one labeled pair")

    def diagnose_task(p: int):
        pair = pairs[p]
        accepted = Candidate(f"pair{p:04d}-accepted", pair.accepted, 0, "sampled")
        rejected = Candidate(f"pair{p:04d}-rejected", pair.rejected, 0, "sampled")
        task = render_comparison_prompt(pair.problem, accepted, rejected, derive_seed(seed, 0, p))
        reply = backend.complete(
            CompletionRequest(
                user_prompt=task.prompt_text, temperature=0.0, seed=derive_seed(seed, 1, p), purpose=PURPOSE_JUDGE
            )
        )
        try:
            judgment = canonicalize(task, *parse_judge_reply(reply))
            pairwise_correct = judgment.outcome == LEFT_WINS
        except JudgeParseError:
            pairwise_correct = False

        def classify(content: str, which: int) -> bool | None:
            prompt = prompts.render(prompts.POINTWISE_TEMPLATE, problem=pair.problem, code=content)
            return parse_verdict_line(
                backend.complete(
                    CompletionRequest(
                        user_prompt=prompt,
                        temperature=0.0,
                        seed=derive_seed(seed, 2 + which, p),
                        purpose=PURPOSE_POINTWISE,
                    )
                )
            )

        accepted_correct = classify(pair.accepted, 0) is True
        rejected_correct = classify(pair.rejected, 1) is False
        return pairwise_correct, accepted_correct, rejected_correct

    with task_pool(parallelism) as pool:
        results = pool.run([lambda p=p: diagnose_task(p) for p in range(len(pairs))])
    count = len(results)
    pairwise = sum(r[0] for r in results) / count
    on_accepted = sum(r[1] for r in results) / count
    on_rejected = sum(r[2] for r in results) / count
    joint = sum(r[1] and r[2] for r in results) / count
    return DiagnosticReport(pairwise, on_accepted, on_rejected, joint, count)
