"""Baseline selector tests: verdict parsing, tie-break math, refinement, diagnostic."""

import itertools
import json
import re

import numpy as np
import pytest

from btevolve.backends import SyntheticBackend, SyntheticWorldConfig, format_candidate
from btevolve.errors import BackendError, ConfigError
from btevolve.baselines import (
    LabeledPair,
    PointwiseVerdict,
    judge_diagnostic,
    load_pairs,
    parse_verdict_line,
    pointwise_score,
    pointwise_top1_expected_accuracy,
    self_refine,
)
from btevolve.pipeline import derive_seed
from conftest import CountingBackend, EmptyReplyBackend, ScriptedBackend, judge_reply, sampled


def test_parse_verdict_line_exact_final_line():
    assert parse_verdict_line("thinking...\nVERDICT: YES") is True
    assert parse_verdict_line("thinking...\nVERDICT: NO") is False
    assert parse_verdict_line("VERDICT: YES\n\n  \n") is True  # blank tail ignored
    assert parse_verdict_line("VERDICT: YES   ") is True  # trailing spaces tolerated
    assert parse_verdict_line("  VERDICT: YES") is None  # leading space is not exact
    assert parse_verdict_line("VERDICT: YES.") is None
    assert parse_verdict_line("verdict: yes") is None
    assert parse_verdict_line("VERDICT: YES\nbut actually no") is None
    assert parse_verdict_line("") is None
    assert parse_verdict_line("VERDICT:YES") is None


def test_pointwise_score_tallies_and_discards_malformed():
    backend = ScriptedBackend(["ok\nVERDICT: YES", "hmm\nVERDICT: NO", "broken reply"])
    verdict = pointwise_score(sampled("c", "code"), "p", votes=3, backend=backend)
    assert verdict.yes_votes == 1
    assert verdict.total_votes == 2
    assert not verdict.flagged
    assert len(backend.requests) == 3
    assert "code" in backend.requests[0].user_prompt


def test_pointwise_score_flags_all_malformed():
    backend = ScriptedBackend(["x", "y"])
    verdict = pointwise_score(sampled("c", "code"), "p", votes=2, backend=backend)
    assert verdict.flagged
    assert verdict.yes_votes == 0
    with pytest.raises(ConfigError):
        pointwise_score(sampled("c", "code"), "p", votes=0, backend=backend)


@pytest.mark.parametrize("votes", [2.5, True], ids=["fraction", "bool"])
def test_pointwise_score_rejects_non_integer_votes(votes):
    backend = ScriptedBackend()
    with pytest.raises(ConfigError, match=re.escape(f"votes must be an integer of at least 1, got {votes!r}")):
        pointwise_score(sampled("c", "code"), "p", votes=votes, backend=backend)
    assert backend.requests == []


def test_pointwise_vote_failure_names_the_vote_and_candidate():
    backend = ScriptedBackend(["VERDICT: YES", BackendError("upstream 503")])
    with pytest.raises(BackendError, match="^pointwise vote 1, candidate c: upstream 503$"):
        pointwise_score(sampled("c", "code"), "p", votes=2, backend=backend)


def enumeration_oracle(verdicts, accepted):
    """Average over every ordering, breaking ties by first position."""
    total = 0
    orderings = list(itertools.permutations(verdicts))
    for ordering in orderings:
        top = max(v.yes_votes for v in ordering)
        winner = next(v for v in ordering if v.yes_votes == top)
        total += bool(accepted[winner.candidate_id])
    return total / len(orderings)


@pytest.mark.parametrize(
    "yes_votes,accepted_flags",
    [
        ((3, 3, 1), (True, False, True)),
        ((2, 2, 2, 2), (False, False, True, False)),
        ((5, 4, 3), (False, True, True)),
        ((0, 0), (False, False)),
        ((7, 7, 7, 2, 1, 0), (True, True, False, True, False, False)),
    ],
)
def test_expected_accuracy_matches_enumeration(yes_votes, accepted_flags):
    verdicts = [PointwiseVerdict(f"c{i}", y, 8) for i, y in enumerate(yes_votes)]
    accepted = {f"c{i}": flag for i, flag in enumerate(accepted_flags)}
    value = pointwise_top1_expected_accuracy(verdicts, accepted)
    assert value == pytest.approx(enumeration_oracle(verdicts, accepted), abs=1e-12)


def test_expected_accuracy_requires_verdicts():
    with pytest.raises(ValueError):
        pointwise_top1_expected_accuracy([], {})


def test_self_refine_call_count_and_lineage():
    backend = CountingBackend(SyntheticBackend(SyntheticWorldConfig()))
    candidates = [sampled(f"c{i}", format_candidate(0.1 * i)) for i in range(4)]
    refined = self_refine(candidates, rounds=3, problem="p", backend=backend)
    assert backend.calls == 12  # |candidates| * rounds exactly
    assert [c.id for c in refined] == [f"c{i}-r1-r2-r3" for i in range(4)]
    assert all(c.generation == 3 for c in refined)
    assert refined[0].parent_id == "c0-r1-r2"
    unchanged = self_refine(candidates, rounds=0, problem="p", backend=backend)
    assert unchanged == candidates
    assert backend.calls == 12
    with pytest.raises(ValueError):
        self_refine(candidates, rounds=-1, problem="p", backend=backend)


def test_self_refine_rejects_fractional_rounds():
    backend = ScriptedBackend()
    with pytest.raises(ConfigError, match=re.escape("rounds must be an integer of at least 0, got 1.5")):
        self_refine([sampled("c", "code")], rounds=1.5, problem="p", backend=backend)
    assert backend.requests == []


def test_self_refine_empty_reply_is_a_backend_error():
    candidates = [sampled(f"c{i}", format_candidate(0.1 * i)) for i in range(3)]
    backend = EmptyReplyBackend([derive_seed(5, 1, 2, 1)])
    with pytest.raises(BackendError, match="^refine round 2, candidate c1-r1: empty completion$"):
        self_refine(candidates, rounds=3, problem="p", backend=backend, seed=5)


def test_baseline_prompts_insert_text_verbatim():
    backend = ScriptedBackend(["VERDICT: YES", "fixed {code}"])
    pointwise_score(sampled("c", "body {problem}"), "task {code}", votes=1, backend=backend)
    self_refine([sampled("c", "body {problem}")], rounds=1, problem="task {code}", backend=backend)
    for request in backend.requests:
        assert "\ntask {code}\n" in request.user_prompt
        assert "```cpp\nbody {problem}\n```" in request.user_prompt


def test_self_refine_rounds_are_sequential():
    # each round rewrites the previous round's output, not the original
    import re

    def appending_reply(req):
        body = re.search(r"```cpp\n(.*?)\n```", req.user_prompt, re.S).group(1)
        return body + "!"

    backend = ScriptedBackend([appending_reply] * 3)
    refined = self_refine([sampled("a", "base")], rounds=3, problem="p", backend=backend)
    assert refined[0].content == "base!!!"


def test_load_pairs_skips_malformed(tmp_path, caplog):
    path = tmp_path / "pairs.jsonl"
    good = {"problem": "p", "accepted": "a", "rejected": "r"}
    bad = [{"problem": "p"}, {**good, "accepted": 5}, {**good, "rejected": ""}, ["p", "a", "r"]]
    path.write_text(
        json.dumps(good) + "\n" + "{broken\n" + "".join(json.dumps(row) + "\n" for row in bad) + "\n",
        encoding="utf-8",
    )
    with caplog.at_level("WARNING"):
        pairs = load_pairs(path)
    assert pairs == [LabeledPair("p", "a", "r")]
    assert "skipped 5" in caplog.text


def synthetic_pairs(count, gap=1.6, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(count):
        hi = float(rng.normal(1.8, 0.2))
        lo = hi - gap
        pairs.append(
            LabeledPair(f"problem {i}", format_candidate(hi), format_candidate(lo))
        )
    return pairs


def test_diagnostic_perfect_judge_and_classifier():
    world = SyntheticWorldConfig(
        judge_accuracy=1.0,
        acceptance_threshold=1.0,
        pointwise_recall_accepted=1.0,
        pointwise_recall_rejected=1.0,
    )
    report = judge_diagnostic(synthetic_pairs(40), SyntheticBackend(world), seed=3)
    assert report.pairwise_accuracy == 1.0
    assert report.pointwise_accuracy_on_accepted == 1.0
    assert report.pointwise_accuracy_on_rejected == 1.0
    assert report.pointwise_joint == 1.0
    assert report.pair_count == 40


def test_diagnostic_recovers_fixed_accuracy():
    world = SyntheticWorldConfig(judge_accuracy=0.9, acceptance_threshold=1.0)
    report = judge_diagnostic(synthetic_pairs(400), SyntheticBackend(world), seed=5)
    # 99% binomial interval around 0.9 at 400 pairs
    assert abs(report.pairwise_accuracy - 0.9) < 2.576 * np.sqrt(0.9 * 0.1 / 400)


def test_diagnostic_counts_ties_as_incorrect():
    world = SyntheticWorldConfig(judge_accuracy=1.0, acceptance_threshold=0.5)
    equal = format_candidate(0.75)
    pairs = [LabeledPair("p", equal, equal)]  # equal thetas force a TIE verdict
    report = judge_diagnostic(pairs, SyntheticBackend(world), seed=1)
    assert report.pairwise_accuracy == 0.0


def test_diagnostic_requires_pairs():
    with pytest.raises(ValueError):
        judge_diagnostic([], SyntheticBackend(SyntheticWorldConfig()))


def test_diagnostic_parallelism_invariant():
    world = SyntheticWorldConfig(judge_accuracy=0.8, acceptance_threshold=1.0)
    pairs = synthetic_pairs(30)
    serial = judge_diagnostic(pairs, SyntheticBackend(world), seed=9, parallelism=1)
    threaded = judge_diagnostic(pairs, SyntheticBackend(world), seed=9, parallelism=6)
    assert serial == threaded


LABELED = LabeledPair("p", format_candidate(1.0), format_candidate(-1.0))


@pytest.mark.parametrize(
    ("replies", "message"),
    [
        (
            [BackendError("down")],
            r"^diagnostic comparison, pair 0 \(pair0000-accepted vs pair0000-rejected\): down$",
        ),
        ([judge_reply("A"), BackendError("down")], r"^diagnostic verdict, pair 0 \(pair0000-accepted\): down$"),
        (
            [judge_reply("A"), "VERDICT: YES", BackendError("down")],
            r"^diagnostic verdict, pair 0 \(pair0000-rejected\): down$",
        ),
    ],
    ids=["comparison", "accepted-verdict", "rejected-verdict"],
)
def test_diagnostic_call_failure_names_the_pair(replies, message):
    with pytest.raises(BackendError, match=message):
        judge_diagnostic([LABELED], ScriptedBackend(replies))


def test_diagnostic_unparseable_judge_reply_is_incorrect_without_retry():
    backend = ScriptedBackend(["no verdict object", "VERDICT: YES", "VERDICT: NO"])
    report = judge_diagnostic([LABELED], backend)
    assert len(backend.requests) == 3
    assert [request.purpose for request in backend.requests] == ["judge", "pointwise", "pointwise"]
    assert report.pairwise_accuracy == 0.0
    assert report.pointwise_joint == 1.0


@pytest.mark.parametrize(("yes", "total"), [(3, 2), (-1, 2)], ids=["above-total", "negative"])
def test_pointwise_verdict_rejects_a_tally_out_of_range(yes, total):
    with pytest.raises(ValueError, match="yes_votes out of range"):
        PointwiseVerdict("c", yes, total)


@pytest.mark.parametrize("seed", [0, 9, 2**40 + 1])
def test_diagnostic_shows_the_accepted_side_first_in_even_pairs(seed):
    # whatever the seed: pair p shows its accepted side first iff p is even,
    # so a judge that always answers "A" is right on exactly the even pairs
    pairs = synthetic_pairs(41)
    backend = ScriptedBackend([judge_reply("A"), "VERDICT: YES", "VERDICT: NO"] * len(pairs))
    report = judge_diagnostic(pairs, backend, seed=seed)
    for p, (pair, request) in enumerate(zip(pairs, backend.requests[::3])):
        accepted_first = pair.accepted in request.user_prompt.split("## Solution B")[0]
        assert accepted_first == (p % 2 == 0), p
    assert report.pairwise_accuracy == 21 / 41
