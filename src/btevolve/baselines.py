"""Baselines and judge diagnostics.

Pointwise scoring asks for standalone YES/NO verdicts and keeps only replies
whose final non-empty line is exactly "VERDICT: YES" or "VERDICT: NO"
(trailing whitespace tolerated, nothing else).  Self-refine loops a single
review-and-rewrite call per candidate per round.  The diagnostic measures a
judge's pairwise accuracy and per-class pointwise recalls on labeled
accepted/rejected pairs.

Each call goes through one function per kind: the run's candidate call
(pipeline.complete_candidate) for refinement, the run's comparison call
(pipeline._judge_pair) for the diagnostic's pairwise judgment, and
`_verdict` here for every YES/NO vote.  A failed call raises BackendError
naming the call: the refine round and candidate, the vote and candidate,
or the diagnostic pair.  Each `parallelism` argument is a limit on
concurrent backend calls or a pipeline.TaskPool to share across calls.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

from . import prompts
from .backends import PURPOSE_POINTWISE, PURPOSE_REFINE, Backend, CompletionRequest
from .btrank import LEFT_WINS
from .errors import BackendError, check_count
from .pipeline import TaskPool, _judge_pair, complete_candidate, task_pool
from .population import ORIGIN_MUTATED, ORIGIN_SAMPLED, Candidate
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


def _verdict(backend: Backend, prompt: str, temperature: float, seed: int, context: str) -> bool | None:
    """The verdict call: YES/NO for a rendered pointwise prompt, None for a
    malformed reply.  A failure raises BackendError prefixed with `context`."""
    request = CompletionRequest(user_prompt=prompt, temperature=temperature, seed=seed, purpose=PURPOSE_POINTWISE)
    try:
        reply = backend.complete(request)
    except BackendError as exc:
        raise BackendError(f"{context}: {exc}") from exc
    return parse_verdict_line(reply)


def pointwise_score(
    candidate: Candidate,
    problem: str,
    votes: int,
    backend: Backend,
    seed: int = 0,
    parallelism: int | TaskPool = 1,
) -> PointwiseVerdict:
    """Collect `votes` independent YES/NO verdicts; malformed replies are discarded."""
    check_count("votes", votes, 1)
    prompt = prompts.render(prompts.POINTWISE_TEMPLATE, problem=problem, code=candidate.content)

    def vote(i: int) -> bool | None:
        return _verdict(backend, prompt, 1.0, derive_seed(seed, 0, i), f"pointwise vote {i}, candidate {candidate.id}")

    with task_pool(parallelism) as pool:
        results = pool.map(vote, range(votes))
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
    check_count("rounds", rounds, 0)

    def refine(round_no: int, slot: int, member: Candidate) -> Candidate:
        prompt = prompts.render(prompts.SELF_REFINE_TEMPLATE, problem=problem, code=member.content)
        refine_seed = derive_seed(seed, 1, round_no, slot)
        context = f"refine round {round_no}, candidate {member.id}"
        content = complete_candidate(backend, prompt, PURPOSE_REFINE, 1.0, refine_seed, context)
        generation = member.generation + 1
        return Candidate(f"{member.id}-r{round_no}", content, generation, ORIGIN_MUTATED, parent_id=member.id)

    current = list(candidates)
    with task_pool(parallelism) as pool:
        for round_no in range(1, rounds + 1):
            current = pool.map(partial(refine, round_no), range(len(current)), current)
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
        return asdict(self)


def judge_diagnostic(
    pairs,
    backend: Backend,
    seed: int = 0,
    parallelism: int | TaskPool = 1,
) -> DiagnosticReport:
    """Judge quality on labeled pairs.

    Pairwise: one comparison per pair, the accepted side shown first in
    pair p iff p is even, so in half the pairs; the judge is correct only
    when the accepted side wins (ties and unparseable replies count as
    incorrect).  Pointwise: one verdict per member; correct means YES on the
    accepted member or NO on the rejected one, malformed counting as
    incorrect; joint requires both members of a pair correct.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one labeled pair")

    def diagnose(p: int, pair: LabeledPair) -> tuple[bool, bool, bool]:
        accepted = Candidate(f"pair{p:04d}-accepted", pair.accepted, 0, ORIGIN_SAMPLED)
        rejected = Candidate(f"pair{p:04d}-rejected", pair.rejected, 0, ORIGIN_SAMPLED)
        where = "diagnostic comparison"
        judgment, _ = _judge_pair(
            backend, pair.problem, accepted, rejected, p % 2 == 0, derive_seed(seed, 1, p), 0.0, 0, (), where, p
        )
        verdicts = []
        for which, member in enumerate((accepted, rejected)):
            prompt = prompts.render(prompts.POINTWISE_TEMPLATE, problem=pair.problem, code=member.content)
            context = f"diagnostic verdict, pair {p} ({member.id})"
            verdicts.append(_verdict(backend, prompt, 0.0, derive_seed(seed, 2 + which, p), context))
        return judgment.outcome == LEFT_WINS, verdicts[0] is True, verdicts[1] is False

    with task_pool(parallelism) as pool:
        results = pool.map(diagnose, range(len(pairs)), pairs)
    count = len(results)
    pairwise, on_accepted, on_rejected = (sum(column) / count for column in zip(*results))
    joint = sum(r[1] and r[2] for r in results) / count
    return DiagnosticReport(pairwise, on_accepted, on_rejected, joint, count)
