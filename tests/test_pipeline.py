"""Pipeline orchestration tests: budgets, traces, retries, replay, determinism."""

import gc
import json
import math
import re
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from btevolve import pipeline, seeds
from btevolve.backends import SyntheticBackend, SyntheticWorldConfig
from btevolve.btrank import LEFT_WINS, RIGHT_WINS, TIE, ComparisonRecord, ScoreVector, fit_bt
from btevolve.errors import BackendError, ConfigError, ReplayError
from btevolve.judging import Judgment
from btevolve.pairing import _left_first
from btevolve.pipeline import ReplayResult, RunConfig, RunTrace, TaskPool, compute_budget, replay, run_pipeline
from btevolve.population import Candidate, FeedbackStrategy, GenerationState
from btevolve.seeds import derive_seed, seed_words
from conftest import ClosingBackend, CountingBackend, EmptyReplyBackend, ScriptedBackend, judge_reply

SMALL = dict(problem="toy problem", n=8, k=3, generations=2, final_k=5, seed=31)


def test_derive_seed_frozen_values():
    # pins derive_seed, word 0 of its path's SeedSequence: parse retries,
    # baselines and the CLI's per-problem roots draw from it
    assert derive_seed(0, 0, 0, 0) == 15793235383387715774
    assert derive_seed(7, 1, 3, 2) == 4500710621912219148


def _count_seed_calls(monkeypatch, generations):
    """Run the default config at `generations`, then replay its trace, and count
    the seeding calls each makes."""
    counts = {phase: dict.fromkeys(("seed_words", "_seed_state", "derive_seed"), 0) for phase in ("run", "replay")}
    phase = "run"

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[phase][name] += 1
            return fn(*args, **kwargs)

        return call

    with monkeypatch.context() as patch:
        for module, name in ((seeds, "_seed_state"), (seeds, "seed_words"), (pipeline, "seed_words"),
                             (pipeline, "derive_seed")):
            patch.setattr(module, name, counted(name, getattr(module, name)))
        _, trace = run_pipeline(RunConfig(problem="toy problem", generations=generations))
        phase = "replay"
        replay(trace)
    assert trace.records_of_kind("summary")[0]["payload"]["retry_calls"] == 0
    return counts


def test_run_derives_batch_seeds_in_batched_calls(monkeypatch):
    # one SeedSequence for sampling and one per judged round, drawn as the
    # round is reached; replay draws no sample seeds; presentation orders draw
    # no seed, nothing replays SeedSequence's hash, and there is no scalar
    # derivation without retries
    for generations in (0, 1, 3):
        assert _count_seed_calls(monkeypatch, generations) == {
            "run": {"seed_words": generations + 2, "_seed_state": 0, "derive_seed": 0},
            "replay": {"seed_words": generations + 1, "_seed_state": 0, "derive_seed": 0},
        }, generations


def test_default_synthetic_run_builds_one_generator_per_pairing_plan(monkeypatch):
    # the backend draws from each request's seed directly; only the 4 plans
    # of a default run (rounds 1-3 and the final round) build a numpy Generator
    built = []
    default_rng, generator = np.random.default_rng, np.random.Generator

    def counting_default_rng(*args, **kwargs):
        built.append("default_rng")
        return default_rng(*args, **kwargs)

    def counting_generator(*args, **kwargs):
        built.append("Generator")
        return generator(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
    monkeypatch.setattr(np.random, "Generator", counting_generator)
    for judge_mode in ("fixed-accuracy", "logistic"):
        built.clear()
        run_pipeline(RunConfig(problem="Sort the list.", seed=7, backend_options={"judge_mode": judge_mode}))
        assert built == ["default_rng"] * 4, judge_mode


def test_every_round_shows_its_pairs_in_its_plan_s_orientation():
    logistic = dict(SMALL, backend_options={"judge_mode": "logistic"})
    for options in (SMALL, logistic, dict(problem="Sort the list.", seed=7)):
        config = RunConfig(**options)
        members, rounds = {}, {}
        for record in run_pipeline(config)[1].records:
            if record["kind"] == "candidate":
                members.setdefault(record["generation"], []).append(record["payload"]["id"])
            elif record["kind"] == "judgment":
                rounds.setdefault(record["round"], []).append(record)
        assert sorted(rounds) == list(range(1, config.generations + 2))
        for judgments in rounds.values():
            ids = members[judgments[0]["generation"]]
            sides = [(judgment["payload"]["left_id"], judgment["payload"]["right_id"]) for judgment in judgments]
            orders = _left_first([(ids.index(left), ids.index(right)) for left, right in sides], len(ids))
            shown = [judgment["payload"]["presented_first"] for judgment in judgments]
            assert shown == [left if first else right for (left, right), first in zip(sides, orders)]


def test_budget_formula():
    assert compute_budget(20, 4, 3, 10) == 285
    assert compute_budget(12, 4, 2, 10) == 138
    assert compute_budget(8, 3, 2, 5) == 64
    assert compute_budget(8, 0, 0, 5) == 28  # selection-only: n + n*m/2
    assert compute_budget(4, 1, 1, 1) == 11


@pytest.mark.parametrize(
    ("args", "message"),
    [
        ((0, 2, 0, 2), "n must be an integer of at least 1, got 0"),
        ((8, -1, 1, 2), "k must be an integer of at least 0, got -1"),
        ((8, 2, 1.0, 2), "t must be an integer of at least 0, got 1.0"),
        ((8, 2, 1, True), "m must be an integer of at least 0, got True"),
    ],
    ids=["n-zero", "k-negative", "t-float", "m-bool"],
)
def test_budget_counts_follow_the_shared_count_rule(args, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        compute_budget(*args)


def test_budget_validation():
    with pytest.raises(ConfigError):
        compute_budget(9, 3, 1, 2)  # n*k odd
    with pytest.raises(ConfigError):
        compute_budget(10, 4, 1, 2)  # 3n/4 not integral
    with pytest.raises(ConfigError):
        compute_budget(9, 2, 0, 3)  # n*m odd
    with pytest.raises(ConfigError):
        compute_budget(-1, 2, 0, 2)
    with pytest.raises(ConfigError):
        compute_budget(8, 2, -1, 2)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(problem="p", n=10)
    with pytest.raises(ConfigError):
        RunConfig(problem="p", n=8, k=8)
    with pytest.raises(ConfigError):
        RunConfig(problem="p", n=8, final_k=0)
    with pytest.raises(ConfigError):
        RunConfig(problem="p", seed=-1)
    with pytest.raises(ConfigError):
        RunConfig(problem="p", backend="quantum")
    with pytest.raises(ConfigError):
        RunConfig(problem="p", temperature_judge=2.5)
    with pytest.raises(ConfigError):
        RunConfig(problem="p", lam=0.0)
    with pytest.raises(ConfigError):
        RunConfig(problem="p", generations=-1)
    # refused before any call, not at the first prompt a run renders
    with pytest.raises(ConfigError, match="problem must be a string, got 5"):
        RunConfig(problem=5, n=4, k=1, generations=0, final_k=1)
    with pytest.raises(ConfigError, match=r"backend_options must be a dict, got \[1\]"):
        RunConfig(problem="p", backend_options=[1])


@pytest.mark.parametrize("lam", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_run_config_rejects_non_finite_lam(lam):
    with pytest.raises(ConfigError, match="lam must be positive"):
        RunConfig(problem="p", lam=lam)


def test_config_echo_is_json_ready():
    config = RunConfig(**SMALL)
    echo = config.echo()
    assert json.loads(json.dumps(echo)) == echo
    assert echo["feedback_strategy"] == {"kind": "pairwise-K", "k": 3}  # unset: K = k
    assert "parallelism" not in echo


@pytest.mark.parametrize("as_numpy", [("seed",), ("seed", "n", "k", "generations", "final_k", "parse_retries", "K")])
def test_a_config_of_numpy_integers_writes_the_trace_of_its_ints(tmp_path, as_numpy):
    # each integer field is stored as the int the trace can write, the strategy's K too
    shape = dict(problem="p", n=8, k=2, generations=1, final_k=3, seed=5, parse_retries=1, K=2)
    paths = []
    for fields in ((), as_numpy):
        values = {name: np.int64(value) if name in fields else value for name, value in shape.items()}
        strategy = FeedbackStrategy("pairwise-K", values.pop("K"))
        config = RunConfig(**values, feedback_strategy=strategy)
        paths.append(tmp_path / f"{len(fields)}.jsonl")
        run_pipeline(config, backend=SyntheticBackend(), trace_path=paths[-1])
    assert paths[1].read_bytes() == paths[0].read_bytes()


def test_run_config_refuses_backend_options_the_trace_cannot_write():
    with pytest.raises(ConfigError, match="backend_options must be JSON values"):
        RunConfig(problem="p", backend_options={"theta_std": np.float32(1.0)})


def test_replaced_k_carries_the_unset_feedback_strategy():
    # unset stays unset through dataclasses.replace, so K follows the new k
    replaced = replace(RunConfig(problem="p"), k=6)
    direct = RunConfig(problem="p", k=6)
    assert replaced.echo() == direct.echo()
    assert replaced.echo()["feedback_strategy"] == {"kind": "pairwise-K", "k": 6}
    assert run_pipeline(replaced)[1].to_jsonl() == run_pipeline(direct)[1].to_jsonl()


def test_feedback_strategy_must_be_a_strategy_or_unset():
    with pytest.raises(ConfigError, match="feedback_strategy"):
        RunConfig(problem="p", feedback_strategy="none")


def test_full_run_trace_structure():
    config = RunConfig(**SMALL)
    selected, trace = run_pipeline(config)
    kinds = {kind: len(trace.records_of_kind(kind)) for kind in (
        "config", "candidate", "judgment", "score-fit", "routing", "barrier", "selection", "summary"
    )}
    assert kinds == {
        "config": 1,
        "candidate": 8 * 3,          # generations 0..2
        "judgment": 12 + 12 + 20,    # two k=3 rounds plus the m=5 final
        "score-fit": 3,
        "routing": 2,
        "barrier": 6,                # 2T + 2
        "selection": 1,
        "summary": 1,
    }
    summary = trace.records_of_kind("summary")[0]["payload"]
    assert summary["primary_calls"] == compute_budget(8, 3, 2, 5) == 64
    assert summary["retry_calls"] == 0
    assert summary["barriers"] == 6
    assert all(r["schema_version"] == 1 for r in trace.records)

    selection = trace.records_of_kind("selection")[0]["payload"]
    assert selection["selected_id"] == selected.id
    fit = trace.records_of_kind("score-fit")[-1]["payload"]
    best = int(np.argmax(fit["scores"]))
    assert fit["member_ids"][best] == selected.id


def test_sequential_depth_is_eight_at_three_generations():
    config = RunConfig(problem="p", n=8, k=3, generations=3, final_k=5, seed=1)
    _, trace = run_pipeline(config)
    assert trace.records_of_kind("summary")[0]["payload"]["barriers"] == 8


def test_primary_calls_equal_budget_exactly():
    config = RunConfig(**SMALL)
    backend = CountingBackend(SyntheticBackend(SyntheticWorldConfig()))
    run_pipeline(config, backend=backend)
    assert backend.calls == 64


def test_routing_records_are_consistent():
    config = RunConfig(**SMALL)
    _, trace = run_pipeline(config)
    for record in trace.records_of_kind("routing"):
        payload = record["payload"]
        assert len(payload["elites"]) == 2
        assert len(payload["discards"]) == 2
        assert not set(payload["elites"]) & set(payload["discards"])
        assert len(payload["mutation_parents"]) == 6
        assert set(payload["discards"]).isdisjoint(payload["mutation_parents"])


def test_replay_reconstructs_run(tmp_path):
    path = tmp_path / "trace.jsonl"
    config = RunConfig(**SMALL)
    selected, trace = run_pipeline(config, trace_path=path)
    for source in (trace, path, trace.to_jsonl().splitlines()):
        result = replay(source)
        assert result.selected_id == selected.id
        assert [state.generation for state in result.states] == [0, 1, 2]
        assert all(len(state.members) == 8 for state in result.states)
        assert result.config["n"] == 8
    # per-generation judgment counts and scores came through
    result = replay(path)
    assert [len(s.judgments) for s in result.states] == [12, 12, 20]
    assert all(s.scores is not None and len(s.scores) == 8 for s in result.states)


def test_replay_rejects_corruption(tmp_path):
    config = RunConfig(**SMALL)
    _, trace = run_pipeline(config)
    lines = trace.to_jsonl().splitlines()

    with pytest.raises(ReplayError, match="truncated"):
        replay(lines[:-1])  # summary dropped
    with pytest.raises(ReplayError, match="record 3"):
        replay(lines[:3] + ["{not json"] + lines[4:])
    bad_version = json.loads(lines[0])
    bad_version["schema_version"] = 99
    with pytest.raises(ReplayError, match="schema_version"):
        replay([json.dumps(bad_version)] + lines[1:])
    unknown = dict(json.loads(lines[0]), kind="mystery")
    with pytest.raises(ReplayError, match="mystery"):
        replay(lines + [json.dumps(unknown)])
    listed_config = dict(json.loads(lines[0]), payload=[1, 2])
    with pytest.raises(ReplayError, match="record 0: bad config payload"):
        replay([json.dumps(listed_config)] + lines[1:])
    with pytest.raises(ReplayError, match="empty"):
        replay([])


def test_replay_rejects_a_judgment_payload_that_is_not_an_object():
    _, trace = run_pipeline(RunConfig(**SMALL))
    lines = trace.to_jsonl().splitlines()
    at = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "judgment")
    lines[at] = json.dumps(dict(json.loads(lines[at]), payload=[1, 2]))
    with pytest.raises(ReplayError, match=f"record {at}: bad judgment payload"):
        replay(lines)


@pytest.mark.parametrize(("kind", "generation"), [("candidate", "0"), ("candidate", None), ("judgment", "0")])
def test_replay_rejects_a_generation_that_is_not_an_integer(kind, generation):
    _, trace = run_pipeline(RunConfig(**SMALL))
    lines = trace.to_jsonl().splitlines()
    at = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
    lines[at] = json.dumps(dict(json.loads(lines[at]), generation=generation))
    message = _misplaced((kind, generation, 1), (kind, 0, 1))
    with pytest.raises(ReplayError, match=re.escape(f"record {at}: {message}") + "$"):
        replay(lines)


def test_replay_names_a_record_by_its_line_index_blank_lines_counted():
    _, trace = run_pipeline(RunConfig(**SMALL))
    lines = [""] + trace.to_jsonl().splitlines()
    at = next(i for i, line in enumerate(lines) if line and json.loads(line)["kind"] == "judgment")
    judgment = json.loads(lines[at])
    named = []
    for bad in ("{not json", json.dumps(dict(judgment, payload=[1, 2])), json.dumps(dict(judgment, generation="0"))):
        with pytest.raises(ReplayError) as caught:
            replay(lines[:at] + [bad] + lines[at + 1 :])
        named.append(re.match(r"record (\d+): ", str(caught.value)).group(1))
    assert named == [str(at)] * 3
    # the summary is the last line; the truncated trace's last record is the line before it
    truncated = rf"truncated trace: no summary record \(last record index {len(lines) - 2}\)"
    with pytest.raises(ReplayError, match=truncated):
        replay(lines[:-1] + [" "])


def _line_of(lines, kind):
    return next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)


def _misplaced(found, want):
    """replay's text for a record whose (kind, generation, round) is `found` where the run writes `want`."""
    return (
        f"{found[0]} of generation {found[1]!r}, round {found[2]!r},"
        f" where the run writes {want[0]} of generation {want[1]}, round {want[2]}"
    )


def test_replay_rejects_a_second_score_fit_for_one_generation():
    _, trace = run_pipeline(RunConfig(**SMALL))
    lines = trace.to_jsonl().splitlines()
    at = _line_of(lines, "score-fit")
    generation = json.loads(lines[at])["generation"]
    lines.insert(at + 1, lines[at])
    message = _misplaced(("score-fit", generation, 1), ("routing", generation, 1))
    with pytest.raises(ReplayError, match=re.escape(f"record {at + 1}: {message}") + "$"):
        replay(lines)


def test_replay_rejects_a_second_selection():
    _, trace = run_pipeline(RunConfig(**SMALL))
    lines = trace.to_jsonl().splitlines()
    at = _line_of(lines, "selection")
    lines.insert(at + 1, lines[at])
    message = _misplaced(("selection", 2, 3), ("summary", -1, 3))
    with pytest.raises(ReplayError, match=re.escape(f"record {at + 1}: {message}") + "$"):
        replay(lines)


NOT_THE_TOP = "selection is not rank's top of the last generation's fit"


@pytest.mark.parametrize("selected_id", ["nobody", "g0-s000"])
def test_replay_rejects_a_selection_that_is_not_a_candidate_of_its_generation(selected_id):
    _, trace = run_pipeline(RunConfig(**SMALL))
    lines = trace.to_jsonl().splitlines()
    at = _line_of(lines, "selection")
    selection = json.loads(lines[at])
    assert selection["generation"] == 2  # so g0-s000 is a candidate, but of generation 0
    lines[at] = json.dumps(dict(selection, payload=dict(selection["payload"], selected_id=selected_id)))
    with pytest.raises(ReplayError, match=f"record {at}: {NOT_THE_TOP}$"):
        replay(lines)


def _edited(lines, at, **payload):
    record = json.loads(lines[at])
    return lines[:at] + [json.dumps(dict(record, payload=dict(record["payload"], **payload)))] + lines[at + 1 :]


@pytest.mark.parametrize("edit", ["cut-scores", "reversed-ids", "renamed-id"])
def test_replay_rejects_a_score_fit_that_is_not_over_its_generation(edit):
    _, trace = run_pipeline(RunConfig(**SMALL))
    lines = trace.to_jsonl().splitlines()
    at = _line_of(lines, "score-fit")
    fit = json.loads(lines[at])["payload"]
    edits = {
        "cut-scores": {"scores": fit["scores"][:3]},
        "reversed-ids": {"member_ids": fit["member_ids"][::-1]},
        "renamed-id": {"member_ids": fit["member_ids"][:-1] + ["g0-s099"]},
    }
    with pytest.raises(ReplayError, match=f"record {at}: score-fit does not match generation 0's members$"):
        replay(_edited(lines, at, **edits[edit]))


@pytest.mark.parametrize("selected_index", [99, -1, 0, "3", 3.0, True, None])
def test_replay_rejects_a_selected_index_that_does_not_name_the_selection(selected_index):
    # the first run from SMALL's seed whose selected index is neither 0 nor
    # true, so that index 0 names another member
    runs = map(_selection_at, range(SMALL["seed"], SMALL["seed"] + 64))
    lines, at, _ = next(run for run in runs if run[2] not in (0, True))
    with pytest.raises(ReplayError, match=f"record {at}: {NOT_THE_TOP}$"):
        replay(_edited(lines, at, selected_index=selected_index))


def test_replay_checks_each_routing_against_route_of_its_fit():
    _, trace = run_pipeline(RunConfig(**SMALL))
    lines = trace.to_jsonl().splitlines()
    at = _line_of(lines, "routing")
    routing = json.loads(lines[at])["payload"]
    elites, discards = list(routing["elites"]), list(routing["discards"])
    elites[0], discards[0] = discards[0], elites[0]
    with pytest.raises(ReplayError, match=f"record {at}: routing is not route of generation 0's fit$"):
        replay(_edited(lines, at, elites=elites, discards=discards))
    with pytest.raises(ReplayError, match=f"record {at}: routing is not route of generation 0's fit$"):
        replay(_edited(lines, at, mutation_parents=routing["mutation_parents"][::-1]))
    fit_at = _line_of(lines, "score-fit")
    moved = lines[:fit_at] + [lines[at]] + lines[fit_at:at] + lines[at + 1 :]
    message = _misplaced(("routing", 0, 1), ("score-fit", 0, 1))
    with pytest.raises(ReplayError, match=re.escape(f"record {fit_at}: {message}") + "$"):
        replay(moved)
    listed = lines[:at] + [json.dumps(dict(json.loads(lines[at]), payload=[1, 2]))] + lines[at + 1 :]
    with pytest.raises(ReplayError, match=rf"record {at}: bad routing payload \(expected an object, got list\)$"):
        replay(listed)


def _line_where(lines, kind, **fields):
    """The index of the first record of `kind` whose payload holds every given field value."""
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["kind"] == kind and all(record["payload"][key] == value for key, value in fields.items()):
            return i
    raise LookupError(kind, fields)


def _off_plan(found, shown, planned, planned_shown):
    """Replay's message for a judgment that is not its plan's pair, shown first on its planned side."""
    return f"judgment {found} shown {shown!r} first is not its plan's pair {planned} shown {planned_shown!r} first"


def _run_edits(lines):
    """Edits of the SMALL-config trace that the run could not have written:
    for each, the edited lines, the index of the first record they make
    wrong and the message that names it.  The candidates and judgments they
    edit are read from the trace, so they hold whatever the run drew."""
    at = {kind: _line_of(lines, kind) for kind in ("score-fit", "routing", "barrier", "selection", "summary")}
    final_fit = max(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "score-fit")
    fit, final = json.loads(lines[at["score-fit"]])["payload"], json.loads(lines[final_fit])["payload"]
    flipped = not fit["converged"]
    discard = json.loads(lines[at["routing"]])["payload"]["discards"][0]
    selected = json.loads(lines[at["selection"]])["payload"]["selected_id"]
    # the candidate whose text the selection carries: itself, or the child or
    # sample an elite carryover goes back to
    records = map(json.loads, lines)
    made = {record["payload"]["id"]: record["payload"] for record in records if record["kind"] == "candidate"}
    written = selected
    while made[written]["origin"] == "elite-carryover":
        written = made[written]["parent_id"]
    # another member of the last generation, at its index there
    moved = next((i, member) for i, member in enumerate(final["member_ids"]) if member != selected)
    generation_1 = [
        record["payload"]["id"]
        for record in map(json.loads, lines)
        if record["kind"] == "candidate" and record["generation"] == 1
    ]
    elite_id = next(member for member in generation_1 if "-elite" in member)
    child_id = next(member for member in generation_1 if "-mut" in member)
    elite, child = _line_where(lines, "candidate", id=elite_id), _line_where(lines, "candidate", id=child_id)
    first, second = _line_where(lines, "judgment", pair_index=0), _line_where(lines, "judgment", pair_index=1)
    judgment, following = json.loads(lines[first])["payload"], json.loads(lines[second])["payload"]
    # round 1's first two pairs come after the config, generation 0's 8 candidates and its barrier
    assert first == 10 and following["left_id"] == judgment["left_id"]
    # the first pair's sides swapped, with its outcome and rationales
    mirrored = {LEFT_WINS: RIGHT_WINS, RIGHT_WINS: LEFT_WINS, TIE: TIE}[judgment["outcome"]]
    sides = dict(judgment, left_id=judgment["right_id"], right_id=judgment["left_id"], outcome=mirrored)
    sides.update(rationale_for_left=judgment["rationale_for_right"], rationale_for_right=judgment["rationale_for_left"])
    # the side the first pair does not show first
    shown = judgment["presented_first"]
    hidden = judgment["right_id"] if shown == judgment["left_id"] else judgment["left_id"]
    planned, planned_next = (judgment["left_id"], judgment["right_id"]), (following["left_id"], following["right_id"])
    member = judgment["left_id"]
    sample = _line_where(lines, "candidate", id="g0-s000")
    summary = json.loads(lines[at["summary"]])
    next_barrier = _line_where(lines, "barrier", barrier=2)
    # the right side of round 1's last pair, put in the third pair, is in k + 1 pairs
    third = _line_where(lines, "judgment", pair_index=2)
    crowded = json.loads(lines[next_barrier - 1])["payload"]["right_id"]
    planned_third = json.loads(lines[third])["payload"]
    assert crowded not in (planned_third["left_id"], planned_third["right_id"])
    fit_message = "score-fit is not what the run writes at its scores"
    iterations = "bad score-fit payload (iterations must be a non-negative integer, got {})"
    counts = "does not count the records before it"
    off_budget = f"summary {counts} or is off budget"
    return {
        "selection-moved": (
            _edited(lines, at["selection"], selected_id=moved[1], selected_index=moved[0]),
            at["selection"],
            NOT_THE_TOP,
        ),
        "carryover-reparented": (
            _edited(lines, elite, parent_id=discard, content="new content"),
            elite,
            f"candidate {elite_id} is not what assemble_next_generation makes",
        ),
        "child-reparented": (
            _edited(lines, child, parent_id=discard),
            child,
            f"candidate {child_id} is not what assemble_next_generation makes",
        ),
        "judgment-non-member": (
            _edited(lines, first, right_id="g1-mut000", presented_first=member),
            first,
            _off_plan((member, "g1-mut000"), member, planned, shown),
        ),
        "converged-flipped": (_edited(lines, at["score-fit"], converged=flipped), at["score-fit"], fit_message),
        "scores-permuted": (_edited(lines, final_fit, scores=final["scores"][::-1]), final_fit, fit_message),
        "lam-wrong": (_edited(lines, at["score-fit"], lam=0.02), at["score-fit"], fit_message),
        "summary-budget": (_edited(lines, at["summary"], budget=65), at["summary"], off_budget),
        "summary-list": (
            lines[:-1] + [json.dumps(dict(json.loads(lines[-1]), payload=[1, 2]))],
            at["summary"],
            "bad summary payload (expected an object, got list)",
        ),
        "barrier-deleted": (
            lines[: at["barrier"]] + lines[at["barrier"] + 1 :],
            at["barrier"],
            _misplaced(("judgment", 0, 1), ("barrier", -1, 1)),
        ),
        "retries-off-by-one": (_edited(lines, first, retries=1), next_barrier, f"barrier {counts}"),
        "pair-index": (
            _edited(lines, second, pair_index=0),
            second,
            "pair_index 0 is not its position 1",
        ),
        "judgment-of-itself": (
            _edited(lines, first, right_id=member),
            first,
            f"bad judgment payload (self-comparison of {member!r})",
        ),
        "judgment-sides-swapped": (
            _edited(lines, first, **sides),
            first,
            _off_plan(planned[::-1], shown, planned, shown),
        ),
        # each pair_index left at its position
        "judgments-swapped": (
            _edited(_edited(lines, first, **dict(following, pair_index=0)), second, **dict(judgment, pair_index=1)),
            first,
            _off_plan(planned_next, following["presented_first"], planned, shown),
        ),
        "judgment-repeated": (
            _edited(lines, second, **dict(judgment, pair_index=1)),
            second,
            _off_plan(planned, shown, planned_next, following["presented_first"]),
        ),
        "judgment-over-degree": (
            _edited(lines, third, right_id=crowded, presented_first=planned_third["left_id"]),
            third,
            _off_plan(
                (planned_third["left_id"], crowded),
                planned_third["left_id"],
                (planned_third["left_id"], planned_third["right_id"]),
                planned_third["presented_first"],
            ),
        ),
        "record-after-summary": (
            lines + ["", lines[at["barrier"]]],
            len(lines) + 1,
            "barrier record after the summary",
        ),
        "abort-after-summary": (
            lines + [json.dumps(dict(summary, kind="abort", payload={"error": "late", "type": "RuntimeError"}))],
            len(lines),
            "abort record after the summary",
        ),
        "degraded-as-0": (
            _edited(lines, first, degraded=0),
            first,
            "bad judgment payload (degraded must be true or false, got 0)",
        ),
        "rationale-as-number": (
            _edited(lines, first, rationale_for_left=5),
            first,
            "bad judgment payload (rationale_for_left must be a string, got 5)",
        ),
        "rationale-null": (
            _edited(lines, first, rationale_for_right=None),
            first,
            "bad judgment payload (rationale_for_right must be a string, got None)",
        ),
        "rationale-list": (
            _edited(lines, first, rationale_for_right=["a"]),
            first,
            "bad judgment payload (rationale_for_right must be a string, got ['a'])",
        ),
        "presented-first-flipped": (
            _edited(lines, first, presented_first=hidden),
            first,
            _off_plan(planned, hidden, planned, shown),
        ),
        **{
            f"sample-content-{name}": (
                _edited(lines, sample, content=content),
                sample,
                f"bad candidate payload (content must be a string, got {content!r})",
            )
            for name, content in (("as-number", 5), ("null", None), ("list", ["x"]))
        },
        **{
            f"empty-content-{role}": (
                _edited(lines, _line_where(lines, "candidate", id=candidate), content=""),
                _line_where(lines, "candidate", id=candidate),
                f"candidate {candidate} has empty content, which complete_candidate refuses",
            )
            for role, candidate in (("first-sample", "g0-s000"), ("discard", discard), ("selection", written))
        },
        "child-content-as-number": (
            _edited(lines, child, content=5),
            child,
            "bad candidate payload (content must be a string, got 5)",
        ),
        **{
            f"fit-iterations-{name}": (
                _edited(lines, at["score-fit"], iterations=value),
                at["score-fit"],
                iterations.format(repr(value)),
            )
            for name, value in (("string", "many"), ("fraction", 3.5), ("true", True), ("negative", -1))
        },
    }


RUN_EDITS = [
    "selection-moved",
    "carryover-reparented",
    "child-reparented",
    "judgment-non-member",
    "converged-flipped",
    "scores-permuted",
    "lam-wrong",
    "summary-budget",
    "summary-list",
    "barrier-deleted",
    "retries-off-by-one",
    "pair-index",
    "judgment-of-itself",
    "judgment-sides-swapped",
    "judgments-swapped",
    "judgment-repeated",
    "judgment-over-degree",
    "record-after-summary",
    "abort-after-summary",
    "degraded-as-0",
    "rationale-as-number",
    "rationale-null",
    "rationale-list",
    "presented-first-flipped",
    "sample-content-as-number",
    "sample-content-null",
    "sample-content-list",
    "empty-content-first-sample",
    "empty-content-discard",
    "empty-content-selection",
    "child-content-as-number",
    "fit-iterations-string",
    "fit-iterations-fraction",
    "fit-iterations-true",
    "fit-iterations-negative",
]


@pytest.mark.parametrize("edit", RUN_EDITS)
def test_replay_names_the_first_record_the_run_could_not_have_written(edit):
    lines = run_pipeline(RunConfig(**SMALL))[1].to_jsonl().splitlines()
    edits = _run_edits(lines)
    assert sorted(edits) == sorted(RUN_EDITS)
    edited, at, message = edits[edit]
    with pytest.raises(ReplayError, match=re.escape(f"record {at}: {message}") + "$"):
        replay(edited)


def test_replay_refuses_a_trace_judged_on_another_plan(monkeypatch):
    config = RunConfig(**SMALL)
    planned = run_pipeline(config)[1].to_jsonl().splitlines()
    draw = pipeline.sample_pairing
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "sample_pairing", lambda n, k, seed: draw(n, k, seed + 1))
        off_plan = run_pipeline(config)[1].to_jsonl().splitlines()
    assert pipeline.sample_pairing is draw
    at = next(i for i, (line, wanted) in enumerate(zip(off_plan, planned)) if line != wanted)
    found, wanted = json.loads(off_plan[at]), json.loads(planned[at])
    assert found["kind"] == wanted["kind"] == "judgment" and found["round"] == 1
    found, wanted = found["payload"], wanted["payload"]
    message = _off_plan(
        (found["left_id"], found["right_id"]), found["presented_first"],
        (wanted["left_id"], wanted["right_id"]), wanted["presented_first"],
    )
    with pytest.raises(ReplayError, match=re.escape(f"record {at}: {message}") + "$"):
        replay(off_plan)


def test_replay_draws_only_the_rounds_its_trace_reaches(monkeypatch):
    # a config naming a billion rounds costs only the rounds whose judgments
    # the trace holds: a round's seeds, and so its plan, are drawn after them
    lines = run_pipeline(RunConfig(**SMALL))[1].to_jsonl().splitlines()
    config = json.loads(lines[0])
    config["payload"]["generations"] = 10**9
    lines[0] = json.dumps(config)
    drawn = []

    def schedule(*args):
        for seeds in pipeline_schedule(*args):
            drawn.append(seeds)
            assert len(drawn) <= 1, "a round the trace never reaches was drawn"
            yield seeds

    pipeline_schedule = pipeline.seed_schedule
    monkeypatch.setattr(pipeline, "seed_schedule", schedule)
    # the config alone; generation 0's candidates and barrier (records 1-9);
    # round 1's 12 judgments but not their barrier (records 10-21)
    for end, rounds in ((1, 0), (10, 0), (21, 0), (22, 1)):
        drawn.clear()
        with pytest.raises(ReplayError, match=rf"truncated trace: no summary record \(last record index {end - 1}\)"):
            replay(lines[:end])
        assert len(drawn) == rounds


ENVELOPE_EDITS = {
    "round-plus-one": lambda record: dict(record, round=record["round"] + 1),
    "round-minus-one": lambda record: dict(record, round=record["round"] - 1),
    "round-float": lambda record: dict(record, round=float(record["round"])),
    "round-string": lambda record: dict(record, round=str(record["round"])),
    "generation-plus-one": lambda record: dict(record, generation=record["generation"] + 1),
    "generation-float": lambda record: dict(record, generation=float(record["generation"])),
    "schema-version-true": lambda record: dict(record, schema_version=True),
    "schema-version-float": lambda record: dict(record, schema_version=1.0),
    "extra-field": lambda record: dict(record, note="x"),
}


@pytest.mark.parametrize("edit", sorted(ENVELOPE_EDITS))
def test_replay_refuses_an_envelope_edit_of_any_record_at_that_record(edit):
    lines = run_pipeline(RunConfig(**SMALL))[1].to_jsonl().splitlines()
    assert len(lines) == 82
    change = ENVELOPE_EDITS[edit]
    for at, line in enumerate(lines):
        with pytest.raises(ReplayError, match=f"^record {at}: "):
            replay(lines[:at] + [json.dumps(change(json.loads(line)))] + lines[at + 1 :])


def _edits_of(value) -> list:
    """The single-value edits of a JSON value, by its type."""
    if isinstance(value, bool):
        return [not value, int(value)]
    if isinstance(value, int):
        return [value + 1, float(value), str(value)]
    if isinstance(value, float):
        return [value + 0.5, -value, 1.0]
    if isinstance(value, str):
        return [value + "x", ""]
    if isinstance(value, list):
        return [value[::-1], value[:-1]]
    if value is None:
        return ["x"]
    return []  # an object: the payload, and the config's feedback_strategy


# the (kind, field) pairs whose edits replay may accept: what the backend
# decides, a fit's iterations while they stay a non-negative integer, and the
# config fields no checked record depends on (parse_retries only while it
# bounds every recorded retries); the seed draws every round's plan, which
# replay re-draws
TAKEN_AS_RECORDED = {
    ("candidate", "content"),
    ("judgment", "rationale_for_left"),
    ("judgment", "rationale_for_right"),
    ("score-fit", "iterations"),
    *(
        ("config", name)
        for name in ("problem", "temperature_generate", "temperature_judge", "include_restart_license", "parse_retries")
    ),
}


def test_replay_refuses_every_single_field_edit_but_of_what_it_takes_as_recorded():
    lines = run_pipeline(RunConfig(**SMALL))[1].to_jsonl().splitlines()
    assert len(lines) == 82
    accepted = []
    for at, line in enumerate(lines):
        record = json.loads(line)
        kind, payload = record["kind"], record["payload"]
        edits = [(("record", name), dict(record, **{name: new})) for name in record for new in _edits_of(record[name])]
        edits += [
            ((kind, name), dict(record, payload=dict(payload, **{name: new})))
            for name in payload
            for new in _edits_of(payload[name])
        ]
        for field, edited in edits:
            if json.dumps(edited) == json.dumps(record):
                continue  # 1.0 as 1.0, a one-item list reversed
            try:
                replay(lines[:at] + [json.dumps(edited)] + lines[at + 1 :])
            except ReplayError:
                continue
            accepted.append((at, *field))
    assert [edit for edit in accepted if edit[1:] not in TAKEN_AS_RECORDED] == []


def _selection_at(seed):
    """A SMALL-shaped run's trace at `seed`, the selection's line and its recorded selected_index."""
    lines = run_pipeline(RunConfig(**dict(SMALL, seed=seed)))[1].to_jsonl().splitlines()
    at = _line_of(lines, "selection")
    return lines, at, json.loads(lines[at])["payload"]["selected_index"]


@pytest.mark.parametrize("retype", [float, bool])
def test_replay_rejects_a_selected_index_of_another_type(retype):
    # the first run from SMALL's seed on whose selected index the other type
    # has an equal value: any index as a float, only 0 or 1 as a bool
    runs = map(_selection_at, range(SMALL["seed"], SMALL["seed"] + 64))
    lines, at, recorded = next(run for run in runs if retype(run[2]) == run[2])
    assert type(recorded) is int
    with pytest.raises(ReplayError, match=f"record {at}: {NOT_THE_TOP}$"):
        replay(_edited(lines, at, selected_index=retype(recorded)))


@pytest.mark.parametrize(
    ("kind", "field"), [("summary", "primary_calls"), ("summary", "budget"), ("barrier", "retry_calls")]
)
def test_replay_rejects_a_count_of_another_type(kind, field):
    lines = run_pipeline(RunConfig(problem="Sort the list.", seed=7))[1].to_jsonl().splitlines()
    at = max(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
    count = json.loads(lines[at])["payload"][field]
    assert count == (285 if kind == "summary" else 0)
    with pytest.raises(ReplayError, match=f"record {at}: {kind} does not count the records before it"):
        replay(_edited(lines, at, **{field: float(count)}))


def test_replay_rejects_a_pair_index_of_another_type():
    lines = run_pipeline(RunConfig(**SMALL))[1].to_jsonl().splitlines()
    at = _line_where(lines, "judgment", pair_index=1)
    for pair_index in (1.0, True, "1"):
        named = f"record {at}: pair_index {pair_index!r} is not its position 1"
        with pytest.raises(ReplayError, match=re.escape(named) + "$"):
            replay(_edited(lines, at, pair_index=pair_index))


@pytest.mark.parametrize(
    ("run", "retries"),
    [*(("parse-retry", retries) for retries in (True, -1, 1.0, "1", None, 2)), ("degraded-in-a-round", 0)],
)
def test_replay_rejects_retries_the_run_could_not_spend_at_their_judgment(run, retries):
    # parse_retries is 1: the first pair is retried once (so `true` and 1.0
    # equal what the run wrote), or retried once and then degraded to a tie
    lines = SCRIPTED_RUNS[run]().to_jsonl().splitlines()
    at = _line_where(lines, "judgment", pair_index=0)
    assert json.loads(lines[at])["payload"]["retries"] == json.loads(lines[0])["payload"]["parse_retries"] == 1
    named = f"record {at}: retries {retries!r} is not a count the run spends on this judgment"
    with pytest.raises(ReplayError, match=re.escape(named) + "$"):
        replay(_edited(lines, at, retries=retries))


def _renamed(lines, old, new):
    """`lines` with candidate id `old` renamed `new` in every record."""
    return [line.replace(f'"{old}"', f'"{new}"') for line in lines]


@pytest.mark.parametrize(
    ("edit", "named"),
    [("sample-renamed", "g0-s002"), ("child-renamed", "first-child"), ("child-generation-float", "first-child")],
)
def test_replay_checks_each_candidate_s_id_and_generation_type(edit, named):
    lines = run_pipeline(RunConfig(**SMALL))[1].to_jsonl().splitlines()
    # the trace's first child, generation 1's, whichever parent it has
    child = json.loads(lines[_line_where(lines, "candidate", origin="mutated")])["payload"]["id"]
    named = child if named == "first-child" else named
    at = _line_where(lines, "candidate", id=named)
    edited = {
        "sample-renamed": lambda: _renamed(lines, "g0-s002", "g0-x"),
        "child-renamed": lambda: _renamed(lines, child, "g1-child-x"),
        "child-generation-float": lambda: _edited(lines, at, generation=1.0),
    }[edit]()
    candidate = json.loads(edited[at])["payload"]["id"]
    maker = "sample_candidates" if named.startswith("g0") else "assemble_next_generation"
    message = f"record {at}: candidate {candidate} is not what {maker} makes"
    with pytest.raises(ReplayError, match=re.escape(message) + "$"):
        replay(edited)


DROP = object()


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        ({"n": 6}, "population size n=6 must be a positive multiple of 4"),
        ({"final_k": "5"}, "final_k must be an integer, got '5'"),
        ({"lam": 0}, "lam must be positive and finite, got 0"),
        ({"lam": True}, "lam must be a number, got True"),
        ({"parse_retries": -1}, "parse_retries must be non-negative"),
        ({"seed": -1}, "seed must be a non-negative integer"),
        ({"temperature_judge": 5.0}, "temperature_judge out of range [0, 2]"),
        ({"backend": "quantum"}, "unknown backend 'quantum'"),
        ({"include_restart_license": "yes"}, "include_restart_license must be true or false"),
        ({"feedback_strategy": {"kind": "bogus", "k": 3}}, "unknown feedback strategy 'bogus'"),
        ({"x": 1}, "config fields: missing [], extra ['x']"),
        ({"backend": DROP}, "config fields: missing ['backend'], extra []"),
        # a strategy without its k: RunConfig takes it, but its echo says k null
        ({"feedback_strategy": {"kind": "pairwise-all"}}, "config is not the echo of the RunConfig it describes"),
        ({"problem": 5}, "problem must be a string, got 5"),
        ({"problem": None}, "problem must be a string, got None"),
        ({"problem": ["x"]}, "problem must be a string, got ['x']"),
        ({"backend_options": [1]}, "backend_options must be a dict, got [1]"),
        ({"backend_options": "x"}, "backend_options must be a dict, got 'x'"),
        ({"backend_options": None}, "backend_options must be a dict, got None"),
    ],
    ids=[
        "n-6", "final_k-string", "lam-0", "lam-true", "parse_retries-negative", "seed-negative",
        "temperature_judge-5", "backend-quantum", "restart_license-string", "strategy-bogus",
        "extra-field", "missing-field", "strategy-without-k", "problem-number", "problem-null",
        "problem-list", "backend_options-list", "backend_options-string", "backend_options-null",
    ],
)
def test_replay_rejects_a_config_the_run_would_refuse(edit, message):
    """Replay rebuilds the config record as the RunConfig it echoes, so it
    refuses what RunConfig refuses, with RunConfig's message, and a field
    missing or extra (DROP deletes one)."""
    lines = run_pipeline(RunConfig(**SMALL))[1].to_jsonl().splitlines()
    record = json.loads(lines[0])
    record["payload"] = {key: value for key, value in {**record["payload"], **edit}.items() if value is not DROP}
    with pytest.raises(ReplayError, match=re.escape(f"record 0: bad config payload ({message})") + "$"):
        replay([json.dumps(record)] + lines[1:])


def test_replay_rejects_a_config_missing_a_count():
    lines = run_pipeline(RunConfig(**SMALL))[1].to_jsonl().splitlines()
    config = json.loads(lines[0])
    del config["payload"]["k"]
    message = "record 0: bad config payload (config fields: missing ['k'], extra [])"
    with pytest.raises(ReplayError, match=re.escape(message) + "$"):
        replay([json.dumps(config)] + lines[1:])


@pytest.mark.parametrize("kind", ["score-fit", "summary", "candidate"])
def test_replay_rejects_a_record_before_the_config(kind):
    lines = run_pipeline(RunConfig(**SMALL))[1].to_jsonl().splitlines()
    line = lines[_line_of(lines, kind)]
    record = json.loads(line)
    message = _misplaced((kind, record["generation"], record["round"]), ("config", -1, 0))
    with pytest.raises(ReplayError, match=re.escape(f"record 1: {message}") + "$"):
        replay([""] + [line] + lines)


def test_replay_rejects_records_out_of_the_run_s_order():
    lines = run_pipeline(RunConfig(**SMALL))[1].to_jsonl().splitlines()
    fit, routing, barrier, selection = (_line_of(lines, k) for k in ("score-fit", "routing", "barrier", "selection"))

    def refused(edited, at, found, want):
        with pytest.raises(ReplayError, match=re.escape(f"record {at}: {_misplaced(found, want)}") + "$"):
            replay(edited)

    refused(lines[:1] + lines, 1, ("config", -1, 0), ("candidate", 0, 1))
    refused(lines[: fit + 1] + [lines[1]] + lines[fit + 1 :], fit + 1, ("candidate", 0, 1), ("routing", 0, 1))
    carryover = routing + 1
    moved = lines[:routing] + [lines[carryover], lines[routing]] + lines[carryover + 1 :]
    refused(moved, routing, ("candidate", 1, 1), ("routing", 0, 1))
    first_selection = json.dumps(dict(json.loads(lines[selection]), generation=0))
    refused(lines[:fit] + [first_selection] + lines[fit:], fit, ("selection", 0, 3), ("score-fit", 0, 1))
    # rank's top member of generation 1's fit, selected there: not the last generation
    state = replay(lines).states[1]
    payload = pipeline._selection_payload(state.members, state.scores)
    early = json.dumps(dict(json.loads(lines[selection]), generation=1, payload=payload))
    refused(lines[:selection] + [early] + lines[selection + 1 :], selection, ("selection", 1, 3), ("selection", 2, 3))
    listed = json.dumps(dict(json.loads(lines[barrier]), payload=[1, 2]))
    with pytest.raises(ReplayError, match=rf"record {barrier}: bad barrier payload \(expected an object, got list\)$"):
        replay(lines[:barrier] + [listed] + lines[barrier + 1 :])


def _as_recorded(lines) -> ReplayResult:
    """The ReplayResult the records spell out as they stand, each score-fit's
    fields as recorded: what replay gave before it checked them."""
    candidates, judgments, fits = {}, {}, {}
    selected_id = config = None
    for line in lines:
        record = json.loads(line)
        kind, generation, payload = record["kind"], record["generation"], record["payload"]
        if kind == "config":
            config = payload
        elif kind == "candidate":
            candidates.setdefault(generation, []).append(Candidate(**payload))
        elif kind == "judgment":
            fields = {key: value for key, value in payload.items() if key not in ("pair_index", "retries")}
            judgments.setdefault(generation, []).append(Judgment(**fields))
        elif kind == "score-fit":
            scores = np.asarray(payload["scores"], dtype=np.float64)
            fits[generation] = ScoreVector(scores, payload["lam"], payload["converged"], payload["iterations"])
        elif kind == "selection":
            selected_id = payload["selected_id"]
    states = [
        GenerationState(g, tuple(candidates[g]), tuple(judgments.get(g, ())), fits.get(g)) for g in sorted(candidates)
    ]
    return ReplayResult(states, selected_id, config)


def _comparable(result: ReplayResult):
    """A ReplayResult as plain values, each score vector's fields with their types."""
    states = [
        (
            state.generation,
            state.members,
            state.judgments,
            state.scores.scores.tolist(),
            [(type(value), value) for value in (state.scores.lam, state.scores.converged, state.scores.iterations)],
        )
        for state in result.states
    ]
    return result.selected_id, result.config, states


def degraded_tie_run():
    """A selection-only run on a 4-cycle whose first judgment degrades to a tie."""
    config = RunConfig(problem="p", n=4, k=2, generations=0, final_k=2, seed=5)
    replies = [f"sample-{i}" for i in range(4)] + ["garbage", "more garbage"] + [judge_reply("A")] * 3
    backend = ScriptedBackend(replies)
    return config, backend, run_pipeline(config, backend=backend)[1]


DEFAULT = dict(problem="Sort the list.")
UNEDITED_RUNS = {
    **{f"small-seed-{seed}": (dict(SMALL, seed=seed), 1) for seed in (1, 7, 31)},
    **{f"default-seed-{seed}": (dict(DEFAULT, seed=seed), 1) for seed in (1, 7, 31)},
    "n-12": (dict(problem="p", n=12, k=3, generations=2, final_k=5, seed=7), 1),
    "logistic-judge": (dict(SMALL, backend_options={"judge_mode": "logistic"}), 1),
    **{
        f"feedback-{kind}": (dict(SMALL, feedback_strategy=FeedbackStrategy(kind)), 1)
        for kind in ("none", "positive-only", "pairwise-all")
    },
    "no-restart-license": (dict(SMALL, include_restart_license=False), 1),
    "no-generations": (dict(SMALL, generations=0), 1),
    "small-parallelism-4": (SMALL, 4),
    "default-parallelism-4": (dict(DEFAULT, seed=7), 4),
}
SCRIPTED_RUNS = {
    "parse-retry": lambda: scripted_small_run(["not json", judge_reply("A")], [judge_reply("TIE")])[1],
    "degraded-in-a-round": lambda: scripted_small_run(["garbage", "more garbage"], [judge_reply("A")])[1],
    "degraded-in-the-final": lambda: degraded_tie_run()[2],
}


@pytest.mark.parametrize("run", [*UNEDITED_RUNS, *SCRIPTED_RUNS])
def test_an_unedited_trace_replays_to_what_its_records_spell_out(run):
    if run in SCRIPTED_RUNS:
        trace = SCRIPTED_RUNS[run]()
    else:
        options, parallelism = UNEDITED_RUNS[run]
        trace = run_pipeline(RunConfig(**options), parallelism=parallelism)[1]
    lines = trace.to_jsonl().splitlines()
    assert _comparable(replay(lines)) == _comparable(_as_recorded(lines))


def _parse_per_line(lines):
    """Trace lines parsed with json.loads each: the reference for replay's parse."""
    records = []
    for idx, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReplayError(f"record {idx}: not valid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise ReplayError(f"record {idx}: expected an object")
        fields = {"kind", "generation", "round", "payload", "schema_version"}
        if record.keys() != fields:
            missing, extra = sorted(fields - record.keys()), sorted(record.keys() - fields)
            raise ReplayError(f"record {idx}: record fields: missing {missing}, extra {extra}")
        version = record["schema_version"]
        if type(version) is not int or version != pipeline.SCHEMA_VERSION:
            raise ReplayError(f"record {idx}: unsupported schema_version {version!r}")
        records.append(record)
    return records


def _records_or_error(parse, lines):
    try:
        return parse(lines)
    except ReplayError as exc:
        return f"ReplayError: {exc}"


LINE_EDITS = {
    "leading-spaces": lambda line: "  " + line,
    "leading-tab": lambda line: "\t" + line,
    "trailing-spaces": lambda line: line + "   ",
    "trailing-tabs": lambda line: line + "\t \t",
    "trailing-crlf": lambda line: line + "\r\n",
    "trailing-form-feed": lambda line: line + "\x0c",
    "leading-form-feed": lambda line: "\x0c" + line,
    "bom": lambda line: "\ufeff" + line,
    "two-objects": lambda line: line + line,
    "two-objects-spaced": lambda line: line + " " + line,
    "truncated": lambda line: line[:-1],
    "array": lambda line: "[" + line + "]",
    "number": lambda line: "5",
    "missing-field": lambda line: line.replace('"round":', '"rnd":'),
    "bad-version": lambda line: line.replace('"schema_version":1', '"schema_version":2'),
    "bytes": lambda line: line.encode(),
    "bytes-bom": lambda line: "\ufeff".encode() + line.encode(),
}
BLANK_LINES = ["", " ", "\t", "\x0c", " \x0c\t", "\ufeff"]


def _replayed(lines):
    """replay's selected id and states for `lines`, scores as lists so that
    they compare, or the text of its ReplayError."""
    try:
        result = replay(lines)
    except ReplayError as exc:
        return f"ReplayError: {exc}"
    states = [(state.generation, state.members, state.judgments) for state in result.states]
    fits = [vars(state.scores) | {"scores": state.scores.scores.tolist()} for state in result.states]
    return result.selected_id, states, fits


@pytest.mark.parametrize("edit", sorted(LINE_EDITS))
def test_replay_parse_matches_json_loads_per_line(edit):
    _, trace = run_pipeline(RunConfig(**SMALL))
    lines = trace.to_jsonl().splitlines()
    unedited = _replayed(lines)
    change = LINE_EDITS[edit]
    for edited in ([change(line) for line in lines], lines[:3] + [change(lines[3])] + lines[4:]):
        expected = _records_or_error(_parse_per_line, edited)
        assert _replayed(edited) == (expected if isinstance(expected, str) else unedited)


def test_replay_parse_skips_blank_lines_like_json_loads_per_line():
    _, trace = run_pipeline(RunConfig(**SMALL))
    lines = trace.to_jsonl().splitlines()
    unedited = _replayed(lines)
    for blank in BLANK_LINES:
        edited = [blank] + [item for line in lines for item in (line, blank)]
        expected = _records_or_error(_parse_per_line, edited)
        assert _replayed(edited) == (expected if isinstance(expected, str) else unedited)
    assert _parse_per_line(["", " ", "\x0c"]) == []
    assert _replayed(["", " ", "\x0c"]) == "ReplayError: empty trace"


def test_traces_byte_identical_across_parallelism(tmp_path):
    for mode in ("fixed-accuracy", "logistic"):
        config = RunConfig(**SMALL, backend_options={"judge_mode": mode})
        runs = [(tmp_path / f"{mode}-{i}.jsonl", parallelism) for i, parallelism in enumerate((1, 4, 8, 1))]
        traces = [run_pipeline(config, parallelism=parallelism, trace_path=path)[1] for path, parallelism in runs]
        assert len({trace.to_jsonl() for trace in traces}) == 1, mode
        assert {path.read_bytes() for path, _ in runs} == {traces[0].to_jsonl().encode()}, mode


def scripted_small_run(pair0_replies, pair1_replies, parse_retries=1):
    """n=4, k=1, T=1, M=1 run over a fully scripted backend."""
    config = RunConfig(
        problem="p",
        n=4,
        k=1,
        generations=1,
        final_k=1,
        seed=5,
        parse_retries=parse_retries,
        feedback_strategy=FeedbackStrategy("pairwise-all"),
    )
    replies = [f"sample-{i}" for i in range(4)]
    replies += pair0_replies + pair1_replies
    replies += [f"child-{i}" for i in range(3)]
    replies += [judge_reply("B"), judge_reply("TIE")]
    backend = ScriptedBackend(replies)
    selected, trace = run_pipeline(config, backend=backend)
    return backend, trace


def test_parse_retry_uses_second_reply():
    backend, trace = scripted_small_run(
        ["not json", judge_reply("A")], [judge_reply("TIE")]
    )
    assert not backend.replies  # exact call count: 11 primary + 1 retry
    round1 = [r for r in trace.records_of_kind("judgment") if r["round"] == 1]
    assert round1[0]["payload"]["retries"] == 1
    assert not round1[0]["payload"]["degraded"]
    assert round1[0]["payload"]["outcome"] != TIE  # the valid A verdict was used
    assert round1[1]["payload"]["retries"] == 0
    summary = trace.records_of_kind("summary")[0]["payload"]
    assert summary["primary_calls"] == 11
    assert summary["retry_calls"] == 1


def test_double_parse_failure_degrades_to_tie():
    backend, trace = scripted_small_run(
        ["garbage", "more garbage"], [judge_reply("A")]
    )
    assert not backend.replies
    first = [r for r in trace.records_of_kind("judgment") if r["round"] == 1][0]["payload"]
    assert first["degraded"] is True
    assert first["outcome"] == TIE
    assert first["retries"] == 1
    assert first["rationale_for_left"] == ""


def test_degraded_ties_are_left_out_of_the_fit():
    # a selection-only run on a 4-cycle, so the degraded pair's members have other evidence
    config, backend, trace = degraded_tie_run()
    assert not backend.replies
    fit = trace.records_of_kind("score-fit")[0]["payload"]
    index = {member_id: i for i, member_id in enumerate(fit["member_ids"])}
    judgments = [record["payload"] for record in trace.records_of_kind("judgment")]
    assert [j["degraded"] for j in judgments] == [True, False, False, False]
    records = [ComparisonRecord(index[j["left_id"]], index[j["right_id"]], j["outcome"]) for j in judgments]
    assert fit["scores"] == [float(s) for s in fit_bt(records[1:], 4, lam=config.lam).scores]
    # the degraded tie would have moved the scores
    assert fit["scores"] != [float(s) for s in fit_bt(records, 4, lam=config.lam).scores]


def test_zero_retries_degrades_immediately():
    backend, trace = scripted_small_run(["garbage"], [judge_reply("A")], parse_retries=0)
    assert not backend.replies
    first = [r for r in trace.records_of_kind("judgment") if r["round"] == 1][0]["payload"]
    assert first["degraded"] is True
    assert first["retries"] == 0
    summary = trace.records_of_kind("summary")[0]["payload"]
    assert summary == {"primary_calls": 11, "retry_calls": 0, "budget": 11, "barriers": 4}


def test_backend_failure_aborts_with_partial_trace(tmp_path):
    path = tmp_path / "abort.jsonl"
    config = RunConfig(problem="p", n=4, k=1, generations=1, final_k=1, seed=5)
    replies = [f"sample-{i}" for i in range(4)] + [BackendError("endpoint down")]
    with pytest.raises(BackendError, match="round 1, pair 0"):
        run_pipeline(config, backend=ScriptedBackend(replies), trace_path=path)
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    kinds = [r["kind"] for r in records]
    assert kinds == ["config"] + ["candidate"] * 4 + ["barrier", "abort"]
    assert "endpoint down" in records[-1]["payload"]["error"]
    with pytest.raises(ReplayError, match="truncated"):
        replay(path)


def test_any_exception_aborts_with_partial_trace(tmp_path):
    # an exception that is not a BackendError must still end the run in an abort record
    path = tmp_path / "abort.jsonl"
    backend = ScriptedBackend([ValueError("no theta marker in candidate text")])
    with pytest.raises(ValueError, match="no theta marker"):
        run_pipeline(RunConfig(problem="p"), backend=backend, trace_path=path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["kind"] for r in records] == ["config", "abort"]
    assert records[-1]["payload"] == {"error": "no theta marker in candidate text", "type": "ValueError"}


@pytest.mark.parametrize(
    "empty_seeds, message",
    [
        (seed_words(31, 0, count=4)[3:], r"^sampling candidate 3: empty completion$"),
        (seed_words(31, 1, count=9)[1:], r"^mutation round 1, member g0-s\d{3}: empty completion$"),
    ],
    ids=["sampling", "mutation"],
)
def test_empty_completion_aborts_with_backend_error(tmp_path, empty_seeds, message):
    path = tmp_path / "abort.jsonl"
    with pytest.raises(BackendError, match=message):
        run_pipeline(RunConfig(**SMALL), backend=EmptyReplyBackend(empty_seeds), trace_path=path)
    abort = json.loads(path.read_text().splitlines()[-1])
    assert abort["kind"] == "abort"
    assert abort["payload"]["type"] == "BackendError"
    assert "empty completion" in abort["payload"]["error"]


class FailFirstBackend:
    """Fails its first call at once; every later call succeeds after a pause."""

    def __init__(self):
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, request):
        with self.lock:
            self.calls += 1
            first = self.calls == 1
        if first:
            raise BackendError("endpoint down")
        time.sleep(0.05)
        return "candidate"


def test_first_failure_cancels_pending_calls(tmp_path):
    path = tmp_path / "abort.jsonl"
    backend = FailFirstBackend()
    config = RunConfig(problem="p", n=20, seed=1)
    with pytest.raises(BackendError, match="endpoint down"):
        run_pipeline(config, backend=backend, parallelism=2, trace_path=path)
    assert backend.calls < config.n  # the 20 sampling calls did not all run
    kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
    assert kinds == ["config", "abort"]


def test_task_pool_failure_stops_only_its_batch():
    ran = []

    def task(i):
        if i == 0:
            raise ValueError("first task failed")
        time.sleep(0.02)
        ran.append(i)

    with TaskPool(2) as pool:
        with pytest.raises(ValueError, match="first task failed"):
            pool.map(task, range(21))
        finished = len(ran)
        time.sleep(0.2)
        # the running tasks were waited for and the rest of the batch never starts
        assert len(ran) == finished < 20
        # the pool itself stays open for the next batch
        assert pool.map(abs, [-1, 2]) == [1, 2]


def test_trace_flushes_incrementally(tmp_path):
    path = tmp_path / "t.jsonl"
    trace = RunTrace(path)
    trace.append("config", -1, 0, {"a": 1})
    assert path.read_text() == ""  # nothing until flush
    trace.flush()
    assert len(path.read_text().splitlines()) == 1
    trace.append("barrier", -1, 0, {})
    trace.flush()
    trace.flush()  # idempotent
    assert len(path.read_text().splitlines()) == 2
    trace.close()
    trace.append("barrier", -1, 0, {})
    with pytest.raises(ValueError):
        trace.flush()


class SnapshotBackend:
    """Synthetic replies; reads the trace file at every call and keeps each
    content it has not seen just before, so one per batch, and raises
    BackendError on the first call of batch `fail_batch`."""

    def __init__(self, path, fail_batch=None):
        self.inner = SyntheticBackend()
        self.path = path
        self.fail_batch = fail_batch
        self.snapshots = []

    def complete(self, request):
        text = self.path.read_text(encoding="utf-8")
        if not self.snapshots or text != self.snapshots[-1]:
            self.snapshots.append(text)
            if len(self.snapshots) - 1 == self.fail_batch:
                raise BackendError("endpoint down")
        return self.inner.complete(request)


def test_every_batch_starts_from_the_records_flushed_so_far(tmp_path):
    path = tmp_path / "run.jsonl"
    backend = SnapshotBackend(path)
    config = RunConfig(**SMALL)
    _, trace = run_pipeline(config, backend=backend, trace_path=path)
    # nothing is written while a batch runs, and something before each one
    assert len(backend.snapshots) == 2 * config.generations + 2
    for text in backend.snapshots:
        flushed = trace.records[: text.count("\n")]
        assert text == pipeline._dump_records(flushed)
        assert flushed[-1]["kind"] in ("config", "barrier", "routing")
    assert path.read_text(encoding="utf-8") == trace.to_jsonl()


def test_abort_in_round_two_leaves_the_flushed_prefix_and_one_abort_record(tmp_path):
    config = RunConfig(**SMALL)
    _, clean = run_pipeline(config)
    path = tmp_path / "abort.jsonl"
    backend = SnapshotBackend(path, fail_batch=3)  # sampling, round 1's two batches, then round 2's comparisons
    with pytest.raises(BackendError, match="^comparison round 2, pair 0 .*: endpoint down$") as failure:
        run_pipeline(config, backend=backend, trace_path=path)
    prefix = backend.snapshots[-1]
    assert prefix == pipeline._dump_records(clean.records[: prefix.count("\n")])
    text = path.read_text(encoding="utf-8")
    assert text.startswith(prefix)
    (abort,) = text[len(prefix) :].splitlines()
    assert json.loads(abort) == {
        "kind": "abort",
        "generation": -1,
        "round": 2,
        "payload": {"error": str(failure.value), "type": "BackendError"},
        "schema_version": pipeline.SCHEMA_VERSION,
    }


def resource_warnings(run) -> list:
    """The ResourceWarnings raised while `run` runs and its garbage is collected."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        run()
        gc.collect()
    return [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]


def test_runs_leave_no_trace_file_open(tmp_path):
    def finished():
        run_pipeline(RunConfig(**SMALL), trace_path=tmp_path / "done.jsonl")

    def aborted():
        path = tmp_path / "abort.jsonl"
        with pytest.raises(BackendError):
            run_pipeline(RunConfig(**SMALL), backend=SnapshotBackend(path, fail_batch=2), trace_path=path)

    def left_open():
        RunTrace(tmp_path / "open.jsonl").flush()

    assert resource_warnings(finished) == []
    assert resource_warnings(aborted) == []
    # the check sees a handle that is left open
    assert resource_warnings(left_open)


def default_records(**options) -> list[dict]:
    return run_pipeline(RunConfig(problem="Sort the list.", backend_options=options))[1].records


def dumps_each(records) -> str:
    return "".join(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n" for record in records)


@pytest.fixture(params=["c-encoder", "python-encoder"])
def encoder(request, monkeypatch):
    if request.param == "python-encoder":
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    return request.param


def test_dump_records_writes_what_json_dumps_writes(encoder):
    awkward = {
        "kind": "abort",
        "generation": -1,
        "round": 0,
        "payload": {
            "text": "na\u00efve \u2014 \u00e9t\u00e9 \U0001f600 \"q\"\n\t\\",
            "values": [math.nan, math.inf, -math.inf, -0.0, 0.1],
        },
        "schema_version": 1,
    }
    runs = [default_records(), default_records(judge_mode="logistic")]
    kinds = {"config", "candidate", "judgment", "barrier", "score-fit", "routing", "selection", "summary"}
    assert all({r["kind"] for r in records} == kinds for records in runs)
    for records in (*runs, [awkward]):
        assert pipeline._dump_records(records) == dumps_each(records)
        assert all(pipeline._dump_records([record]) == dumps_each([record]) for record in records)
    assert "NaN,Infinity,-Infinity,-0.0" in pipeline._dump_records([awkward])


def test_dump_records_fails_as_the_encoder_does(encoder):
    cycle = {"payload": []}
    cycle["payload"].append(cycle)
    inner = {"bad": {1, 2}}
    cases = [[{"kind": "x"}, cycle], [{"payload": inner}], [{"payload": {1: "a", "b": 2}}]]
    for records in cases:
        with pytest.raises((TypeError, ValueError)) as expected:
            for record in records:
                pipeline._ENCODER.encode(record)
        with pytest.raises(type(expected.value)) as raised:
            pipeline._dump_records(records)
        assert str(raised.value) == str(expected.value)
    # the failed calls leave nothing behind: the same containers encode once fixed
    cycle["payload"].clear()
    del inner["bad"]
    assert pipeline._dump_records([cycle, {"payload": inner}]) == dumps_each([cycle, {"payload": inner}])


def test_selection_only_run_skips_evolution():
    config = RunConfig(problem="p", n=8, k=3, generations=0, final_k=5, seed=2)
    selected, trace = run_pipeline(config)
    assert selected.generation == 0
    assert selected.origin == "sampled"
    summary = trace.records_of_kind("summary")[0]["payload"]
    assert summary["primary_calls"] == compute_budget(8, 3, 0, 5) == 28
    assert summary["barriers"] == 2
    assert not trace.records_of_kind("routing")


@pytest.mark.parametrize("n", [0, 2.5], ids=["zero", "fraction"])
def test_sample_candidates_rejects_bad_counts(n):
    backend = ScriptedBackend()
    with pytest.raises(ConfigError, match=re.escape(f"n must be an integer of at least 1, got {n!r}")):
        pipeline.sample_candidates(backend, "p", n, seed=0)
    assert backend.requests == []


def test_parallelism_must_be_positive(tmp_path):
    for parallelism in (0, -3):
        with pytest.raises(ConfigError, match="parallelism"):
            run_pipeline(RunConfig(**SMALL), parallelism=parallelism, trace_path=tmp_path / "run.jsonl")
        with pytest.raises(ConfigError, match="parallelism"):
            TaskPool(parallelism)
    assert not (tmp_path / "run.jsonl").exists()


def test_refused_run_closes_the_backend_it_built(tmp_path, monkeypatch):
    monkeypatch.setattr(ClosingBackend, "closed", 0)
    monkeypatch.setattr(pipeline, "make_backend", lambda kind, options: ClosingBackend())
    with pytest.raises(ConfigError, match="parallelism"):
        run_pipeline(RunConfig(**SMALL), parallelism=0)
    assert ClosingBackend.closed == 1
    (tmp_path / "file").write_text("")
    with pytest.raises(OSError):
        run_pipeline(RunConfig(**SMALL), trace_path=tmp_path / "file" / "run.jsonl")
    assert ClosingBackend.closed == 2


def test_runs_on_a_shared_pool_match_parallelism_one(tmp_path):
    configs = [RunConfig(**SMALL), RunConfig(**dict(SMALL, seed=32, generations=1))]
    with TaskPool(3) as pool:
        for i, config in enumerate(configs):
            run_pipeline(config, parallelism=pool, trace_path=tmp_path / f"shared-{i}.jsonl")
            run_pipeline(config, trace_path=tmp_path / f"solo-{i}.jsonl")
            assert (tmp_path / f"shared-{i}.jsonl").read_bytes() == (tmp_path / f"solo-{i}.jsonl").read_bytes()
        # the runs left the pool open for the next batch
        assert pool.map(abs, [-1, 2]) == [1, 2]


def test_run_config_rejects_negative_parse_retries():
    with pytest.raises(ConfigError, match="parse_retries must be non-negative"):
        RunConfig(problem="p", parse_retries=-1)


def test_run_trace_makes_its_directory(tmp_path):
    path = tmp_path / "a" / "b" / "run.trace.jsonl"
    trace = RunTrace(path)
    trace.append("config", -1, 0, {})
    trace.flush()
    trace.close()
    assert path.read_text(encoding="utf-8") == trace.to_jsonl()
