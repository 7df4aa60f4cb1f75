"""Pipeline orchestration tests: budgets, traces, retries, replay, determinism."""

import json
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from btevolve import pipeline, seeds
from btevolve.backends import SyntheticBackend, SyntheticWorldConfig
from btevolve.btrank import TIE
from btevolve.errors import BackendError, ConfigError, ReplayError
from btevolve.pipeline import RunConfig, RunTrace, TaskPool, compute_budget, replay, run_pipeline
from btevolve.population import FeedbackStrategy
from btevolve.seeds import derive_seed, derive_seeds, pcg64_seeds, seed_schedule, seed_uniforms
from conftest import CountingBackend, EmptyReplyBackend, ScriptedBackend, judge_reply

SMALL = dict(problem="toy problem", n=8, k=3, generations=2, final_k=5, seed=31)


def test_derive_seed_frozen_values():
    # pins the derivation scheme; all production paths share this shape
    assert derive_seed(0, 0, 0, 0) == 15793235383387715774
    assert derive_seed(7, 1, 3, 2) == 4500710621912219148


def test_derive_seed_purpose_paths_distinct():
    seeds = {
        derive_seed(5, r, purpose, idx)
        for r in range(4)
        for purpose in range(6)
        for idx in range(10)
    }
    assert len(seeds) == 4 * 6 * 10


def _scalar_seeds(root, *path, indices):
    return [derive_seed(root, *path, i) for i in indices]


def test_derive_seeds_matches_derive_seed_for_random_roots():
    rng = np.random.default_rng(17)
    small = [int(r) for r in rng.integers(0, 2**31, size=6)]
    large = [int(r) for r in rng.integers(2**32, 2**63, size=6)] + [int(r) << 40 for r in small]
    for root in small + large:
        path = (int(rng.integers(0, 5)), int(rng.integers(0, 6)))
        indices = [int(i) for i in rng.integers(0, 500, size=int(rng.integers(1, 40)))]
        batch = derive_seeds(root, *path, np.array(indices))
        assert batch.dtype == np.uint64
        assert batch.tolist() == _scalar_seeds(root, *path, indices=indices)


@pytest.mark.parametrize("root", [0, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize(
    "path",
    [(), (3,), (1, 2), (2**32, 5), (0, 2**64 - 1), (4, 2**32 - 1, 7), (1, 2, 3, 4, 5)],
)
def test_derive_seeds_matches_derive_seed_at_edges(root, path):
    for indices in ([0, 2**32 - 1], [9, 2, 40, 2, 0], range(3, 30, 4), []):
        column = np.array(indices, dtype=np.int64)
        assert derive_seeds(root, *path, column).tolist() == _scalar_seeds(root, *path, indices=indices)


@pytest.mark.parametrize(
    "root, path, indices",
    [(-1, (0, 0), [0]), (5, (0, -2), [0]), (5, (0, 0), [3, -1]), (5, (0, 0), [2**32])],
)
def test_derive_seeds_rejects_out_of_range_inputs(root, path, indices):
    with pytest.raises(ValueError):
        derive_seeds(root, *path, np.array(indices))
    if min(root, *path, *indices) < 0:  # SeedSequence rejects a negative element too
        with pytest.raises(ValueError):
            derive_seed(root, *path, *indices)


def _expected_schedule(root, n, k, generations, final_k):
    """seed_schedule's fields, one derive_seed and one default_rng per seed."""
    rounds = []
    for r in range(1, generations + 2):
        pairs, mutations = (n * k // 2, n) if r <= generations else (n * final_k // 2, 0)
        order = _scalar_seeds(root, r, 2, indices=range(pairs))
        rounds.append(
            (
                derive_seed(root, r, 1, 0),
                order,
                [np.random.default_rng(s).random() < 0.5 for s in order],
                _scalar_seeds(root, r, 3, indices=range(pairs)),
                _scalar_seeds(root, r, 5, indices=range(mutations)),
            )
        )
    return rounds


@pytest.mark.parametrize(
    "shape",
    [(8, 3, 2, 5), (8, 2, 0, 3), (8, 7, 1, 7), (12, 4, 2, 1), (4, 1, 3, 1)],
    ids=["small", "generations-0", "k-n-1", "final-k-1", "n-4"],
)
def test_seed_schedule_matches_derive_seed(shape):
    roots = [0, 2**32 - 1, 2**32, 2**64 + 5]
    roots += [int(r) for r in np.random.default_rng(sum(shape)).integers(0, 2**63, size=4)]
    for root in roots:
        schedule = seed_schedule(root, *shape)
        got = [(s.pairing, s.order, s.left_first, s.judge, s.mutate) for s in schedule]
        assert got == _expected_schedule(root, *shape), root


def test_seed_schedule_rejects_a_path_word_of_2_to_the_32():
    # a round of 2**32 would need a second SeedSequence word, so it raises
    # before any column is built
    with pytest.raises(ConfigError, match=r"2\*\*32"):
        seed_schedule(3, 4, 1, 2**32 - 1, 1)
    with pytest.raises(ConfigError, match=r"2\*\*32"):
        seed_schedule(3, 2**32 + 4, 1, 1, 1)  # mutation index 2**32


def test_seed_schedule_round_of_2_to_the_32_aborts_the_run(tmp_path):
    path = tmp_path / "trace.jsonl"
    config = RunConfig(problem="p", n=4, k=1, generations=2**32 - 1, final_k=1)
    with pytest.raises(ConfigError):
        run_pipeline(config, trace_path=path)
    kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
    assert kinds == ["config", "abort"]


def _count_seed_calls(monkeypatch, generations):
    """Run the default config at `generations` and count the seeding calls it makes."""
    calls = {"_seed_state": 0, "seed_uniforms": [], "derive_seed": 0}

    def counted_state(entropy, n_words):
        calls["_seed_state"] += 1
        return seed_state(entropy, n_words)

    def counted_uniforms(values):
        calls["seed_uniforms"].append(len(values))
        return seed_uniforms(values)

    def counted_scalar(*args):
        calls["derive_seed"] += 1
        return derive_seed(*args)

    seed_state = seeds._seed_state
    with monkeypatch.context() as patch:
        patch.setattr(seeds, "_seed_state", counted_state)
        patch.setattr(seeds, "seed_uniforms", counted_uniforms)
        patch.setattr(pipeline, "derive_seed", counted_scalar)
        config = RunConfig(problem="toy problem", generations=generations)
        _, trace = run_pipeline(config)
    assert trace.records_of_kind("summary")[0]["payload"]["retry_calls"] == 0
    return config, calls


def test_run_derives_batch_seeds_in_batched_calls(monkeypatch):
    # whatever T is: one SeedSequence replay for sampling, one for the whole
    # seed schedule and one for PCG64 under the single seed_uniforms call;
    # no scalar derivation without retries
    for generations in (0, 1, 3):
        _, calls = _count_seed_calls(monkeypatch, generations)
        assert (calls["_seed_state"], calls["derive_seed"]) == (3, 0), generations


def test_run_draws_presentation_orders_once_per_round(monkeypatch):
    # each comparison round's orders are drawn once, all T evolution rounds
    # and the final round together in a single seed_uniforms call
    for generations in (0, 1, 3):
        config, calls = _count_seed_calls(monkeypatch, generations)
        n = config.n
        expected = generations * n * config.k // 2 + n * config.final_k // 2
        assert calls["seed_uniforms"] == [expected], generations


def test_seed_uniforms_matches_default_rng():
    rng = np.random.default_rng(23)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    seeds += [int(s) for s in rng.integers(0, 2**64, size=2000, dtype=np.uint64)]
    seeds += [int(s) for s in rng.integers(0, 2**32, size=200)]
    uniforms = seed_uniforms(seeds)
    assert uniforms.dtype == np.float64
    assert uniforms.tolist() == [np.random.default_rng(s).random() for s in seeds]
    batch = derive_seeds(9, 2, 2, np.arange(50))  # uint64 input, as the pipeline draws it
    assert seed_uniforms(batch).tolist() == [np.random.default_rng(s).random() for s in batch.tolist()]
    assert seed_uniforms([]).tolist() == []


@pytest.mark.parametrize("words", [1, 2, 4, 5, 7])
def test_pcg64_seeds_match_seed_sequence(words):
    # entropy shorter than, as long as and longer than SeedSequence's pool of 4 words
    entropy = np.random.default_rng(words).integers(0, 2**32, size=(words, 40), dtype=np.uint32)
    entropy[:, 0] = 0
    entropy[:, 1] = 2**32 - 1
    states, incs = pcg64_seeds(*entropy)
    expected = [np.random.PCG64(np.random.SeedSequence(column)).state["state"] for column in entropy.T]
    assert states == [state["state"] for state in expected]
    assert incs == [state["inc"] for state in expected]


@pytest.mark.parametrize("seeds", [[-1], [3, 2**64], [2**70, 5]])
def test_seed_uniforms_rejects_out_of_range_seeds(seeds):
    with pytest.raises(ValueError):
        seed_uniforms(seeds)


def test_budget_formula():
    assert compute_budget(20, 4, 3, 10) == 285
    assert compute_budget(12, 4, 2, 10) == 138
    assert compute_budget(8, 3, 2, 5) == 64
    assert compute_budget(8, 0, 0, 5) == 28  # selection-only: n + n*m/2
    assert compute_budget(4, 1, 1, 1) == 11


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


def test_config_echo_is_json_ready():
    config = RunConfig(**SMALL)
    echo = config.echo()
    assert json.loads(json.dumps(echo)) == echo
    assert echo["feedback_strategy"] == {"kind": "pairwise-K", "k": 3}  # unset: K = k
    assert "parallelism" not in echo


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
    with pytest.raises(ReplayError, match="empty"):
        replay([])


def test_replay_rejects_a_judgment_payload_that_is_not_an_object():
    _, trace = run_pipeline(RunConfig(**SMALL))
    lines = trace.to_jsonl().splitlines()
    at = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "judgment")
    lines[at] = json.dumps(dict(json.loads(lines[at]), payload=[1, 2]))
    with pytest.raises(ReplayError, match=f"record {at}: bad judgment payload"):
        replay(lines)


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
        missing = {"kind", "generation", "round", "payload", "schema_version"} - record.keys()
        if missing:
            raise ReplayError(f"record {idx}: missing fields {sorted(missing)}")
        if record["schema_version"] != pipeline.SCHEMA_VERSION:
            raise ReplayError(f"record {idx}: unsupported schema_version {record['schema_version']!r}")
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


@pytest.mark.parametrize("edit", sorted(LINE_EDITS))
def test_replay_parse_matches_json_loads_per_line(edit):
    _, trace = run_pipeline(RunConfig(**SMALL))
    lines = trace.to_jsonl().splitlines()
    change = LINE_EDITS[edit]
    for edited in ([change(line) for line in lines], lines[:3] + [change(lines[3])] + lines[4:]):
        expected = _records_or_error(_parse_per_line, edited)
        assert _records_or_error(pipeline._parse_trace_lines, edited) == expected
        if not isinstance(expected, str):
            assert replay(edited).selected_id == replay(lines).selected_id


def test_replay_parse_skips_blank_lines_like_json_loads_per_line():
    _, trace = run_pipeline(RunConfig(**SMALL))
    lines = trace.to_jsonl().splitlines()
    for blank in BLANK_LINES:
        edited = [blank] + [item for line in lines for item in (line, blank)]
        expected = _records_or_error(_parse_per_line, edited)
        assert _records_or_error(pipeline._parse_trace_lines, edited) == expected
    assert _parse_per_line(["", " ", "\x0c"]) == pipeline._parse_trace_lines(["", " ", "\x0c"]) == []


def test_traces_byte_identical_across_parallelism(tmp_path):
    config = RunConfig(**SMALL)
    paths = [tmp_path / f"t{i}.jsonl" for i in range(3)]
    _, first = run_pipeline(config, parallelism=1, trace_path=paths[0])
    _, second = run_pipeline(config, parallelism=8, trace_path=paths[1])
    _, third = run_pipeline(config, parallelism=1, trace_path=paths[2])
    assert first.to_jsonl() == second.to_jsonl() == third.to_jsonl()
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    assert blobs[0] == first.to_jsonl().encode()


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
        ([derive_seed(31, 0, 0, 3)], r"^sampling candidate 3: empty completion$"),
        ([derive_seed(31, 1, 5, i) for i in range(8)], r"^mutation round 1, member g0-s\d{3}: empty completion$"),
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

    def fail():
        raise ValueError("first task failed")

    def slow(i):
        time.sleep(0.02)
        ran.append(i)

    with TaskPool(2) as pool:
        with pytest.raises(ValueError, match="first task failed"):
            pool.run([fail] + [lambda i=i: slow(i) for i in range(20)])
        finished = len(ran)
        time.sleep(0.2)
        # the running tasks were waited for and the rest of the batch never starts
        assert len(ran) == finished < 20
        # the pool itself stays open for the next batch
        assert pool.run([lambda: 1, lambda: 2]) == [1, 2]


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


def test_selection_only_run_skips_evolution():
    config = RunConfig(problem="p", n=8, k=3, generations=0, final_k=5, seed=2)
    selected, trace = run_pipeline(config)
    assert selected.generation == 0
    assert selected.origin == "sampled"
    summary = trace.records_of_kind("summary")[0]["payload"]
    assert summary["primary_calls"] == compute_budget(8, 3, 0, 5) == 28
    assert summary["barriers"] == 2
    assert not trace.records_of_kind("routing")


def test_parallelism_must_be_positive(tmp_path):
    for parallelism in (0, -3):
        with pytest.raises(ConfigError, match="parallelism"):
            run_pipeline(RunConfig(**SMALL), parallelism=parallelism, trace_path=tmp_path / "run.jsonl")
        with pytest.raises(ConfigError, match="parallelism"):
            TaskPool(parallelism)
    assert not (tmp_path / "run.jsonl").exists()
