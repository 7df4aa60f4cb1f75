"""End-to-end run orchestration: sample, evolve, final dense comparison, select.

A run costs exactly

    compute_budget(n, k, t, m) = n + t*(n*k/2 + 3n/4) + n*m/2

primary backend calls (parse retries are counted separately) and joins at
1 + 2t + 1 barriers: one after sampling, one after each generation's
comparisons and each generation's mutations, and one after the final round.

Every randomized step draws from a child seed of the run's root seed
(seeds.py), so traces are byte-identical across parallelism limits.

The trace is line-delimited JSON, one record per line with fields
{kind, generation, round, payload, schema_version}.  Run-level records
(config, summary, abort) carry generation -1; candidate records carry their
own generation; judgment and score-fit records carry the generation of the
population being compared.  The trace file is emptied and opened once per
run; the records of each batch are written and flushed at its barrier, so
an aborted run keeps everything up to the last completed barrier plus one
abort record, and the file is closed when the run ends or aborts.  A
RunTrace made directly keeps its file open until its `close`.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import ExitStack, closing, contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import prompts
from .backends import (
    PURPOSE_GENERATE,
    PURPOSE_JUDGE,
    PURPOSE_MUTATE,
    Backend,
    CompletionRequest,
    HttpBackend,
    SyntheticBackend,
    SyntheticWorldConfig,
)
from .btrank import DEFAULT_LAM, ComparisonRecord, ScoreVector, check_lam, fit_bt, rank
from .errors import BackendError, ConfigError, JudgeParseError, ReplayError, check_count, is_int
from .judging import Judgment, canonicalize, degraded_tie, parse_judge_reply, render_comparison_prompt
from .pairing import sample_pairing
from .population import (
    ORIGIN_MUTATED,
    ORIGIN_SAMPLED,
    Candidate,
    STRATEGY_PAIRWISE_K,
    FeedbackStrategy,
    GenerationState,
    Routing,
    aggregate_feedback,
    assemble_next_generation,
    render_mutation_prompt,
    route,
)
from .seeds import _P_RETRY, _P_SAMPLE, RoundSeeds, derive_seed, derive_seeds, seed_schedule

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1


def compute_budget(n: int, k: int, t: int, m: int) -> int:
    """Primary backend calls for a full run: n + t*(n*k/2 + 3n/4) + n*m/2."""
    for name, value, low in (("n", n, 1), ("k", k, 0), ("t", t, 0), ("m", m, 0)):
        check_count(name, value, low)
    if t > 0:
        if (n * k) % 2 != 0:
            raise ConfigError(f"n*k={n * k} comparisons per round do not split into pairs")
        if (3 * n) % 4 != 0:
            raise ConfigError(f"3n/4={3 * n}/4 mutations per round is not an integer")
    if m > 0 and (n * m) % 2 != 0:
        raise ConfigError(f"n*m={n * m} final comparisons do not split into pairs")
    return n + t * ((n * k) // 2 + (3 * n) // 4) + (n * m) // 2


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run's outputs, and the home of every run default.

    `feedback_strategy` None is unset: runs and `echo` read it as pairwise-K
    with K = k, so it follows k through `dataclasses.replace`.

    Execution limits (parallelism) are deliberately not part of the config:
    they must not change results, and the config echo embedded in outputs
    must be identical across them.
    """

    problem: str
    n: int = 20
    k: int = 4
    generations: int = 3
    final_k: int = 10
    lam: float = DEFAULT_LAM
    seed: int = 0
    feedback_strategy: FeedbackStrategy | None = None
    parse_retries: int = 1
    include_restart_license: bool = True
    temperature_generate: float = 1.0
    temperature_judge: float = 0.0
    backend: str = "synthetic"
    backend_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("n", "k", "generations", "final_k", "seed", "parse_retries"):
            value = getattr(self, name)
            if not is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("lam", "temperature_generate", "temperature_judge"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if not isinstance(self.include_restart_license, bool):
            raise ConfigError("include_restart_license must be true or false")
        if self.n < 4 or self.n % 4 != 0:
            raise ConfigError(f"population size n={self.n} must be a positive multiple of 4")
        if not 1 <= self.k <= self.n - 1:
            raise ConfigError(f"comparison degree k={self.k} out of range for n={self.n}")
        if not isinstance(self.feedback_strategy, (FeedbackStrategy, type(None))):
            raise ConfigError(f"feedback_strategy must be a FeedbackStrategy or None, got {self.feedback_strategy!r}")
        if not 1 <= self.final_k <= self.n - 1:
            raise ConfigError(f"final degree m={self.final_k} out of range for n={self.n}")
        if self.generations < 0:
            raise ConfigError("generations must be non-negative")
        check_lam(self.lam)
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.parse_retries < 0:
            raise ConfigError("parse_retries must be non-negative")
        if self.backend not in ("synthetic", "http"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        for name in ("temperature_generate", "temperature_judge"):
            if not 0.0 <= getattr(self, name) <= 2.0:
                raise ConfigError(f"{name} out of range [0, 2]")

    def strategy(self) -> FeedbackStrategy:
        """The feedback strategy as set, or pairwise-K with K = k when unset."""
        return self.feedback_strategy or FeedbackStrategy(STRATEGY_PAIRWISE_K, self.k)

    def echo(self) -> dict:
        """JSON-ready copy of the resolved config, embedded in every artifact."""
        return {**asdict(self), "feedback_strategy": asdict(self.strategy())}


def make_backend(kind: str, options: dict) -> Backend:
    """The backend of `kind` ("synthetic" or "http") built from its config options."""
    try:
        if kind == "synthetic":
            return SyntheticBackend(SyntheticWorldConfig(**options))
        return HttpBackend(**options)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad backend options: {exc}") from exc


class RunTrace:
    """Append-only record log, optionally persisted as line-delimited JSON.

    With a `path`, its directory is made if missing, and the file is
    emptied and opened for appending once, here; every `flush` writes the
    records not yet written and flushes the file, and `close` releases it.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.records: list[dict] = []
        self.path = Path(path) if path is not None else None
        self._flushed = 0
        self._sink = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # emptied through a handle of its own: ext4 starts writing back a file that one
            # handle truncated and rewrote when that handle closes, and the next run's
            # truncation of the same path then waits on that write
            self.path.write_text("")
            self._sink = open(self.path, "a", encoding="utf-8")

    def append(self, kind: str, generation: int, round_index: int, payload: dict) -> None:
        self.records.append(
            {
                "kind": kind,
                "generation": generation,
                "round": round_index,
                "payload": payload,
                "schema_version": SCHEMA_VERSION,
            }
        )

    def flush(self) -> None:
        """Write the records not yet written to the trace file in one write, and flush it."""
        if self._sink is not None and self._flushed < len(self.records):
            self._sink.write(_dump_records(self.records[self._flushed :]))
            self._sink.flush()
        self._flushed = len(self.records)

    def close(self) -> None:
        """Release the trace file; a later flush with records to write raises ValueError."""
        if self._sink is not None:
            self._sink.close()

    def to_jsonl(self) -> str:
        return _dump_records(self.records)

    def records_of_kind(self, kind: str) -> list[dict]:
        return [record for record in self.records if record["kind"] == kind]


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dump_records(records: list[dict]) -> str:
    """Records as JSON lines, each ending in a newline, exactly as
    `_ENCODER.encode` writes each.

    The C encoder `_ENCODER.encode` would build for every record is built
    once per call instead, with a markers dict of its own: one shared across
    calls could keep the entries a failed encode leaves behind.
    """
    make_encoder = json.encoder.c_make_encoder
    if make_encoder is None:
        return "".join([_ENCODER.encode(record) + "\n" for record in records])
    # markers, default, string encoder, indent, key and item separators, sort_keys,
    # skipkeys, allow_nan: what JSONEncoder.iterencode passes for _ENCODER
    encode = make_encoder(
        {}, _ENCODER.default, json.encoder.encode_basestring_ascii, None, ":", ",", True, False, True
    )
    chunks: list[str] = []
    for record in records:
        chunks += encode(record, 0)
        chunks.append("\n")
    return "".join(chunks)


class TaskPool:
    """Worker threads shared by every batch of backend calls, of one run or of many.

    A batch is one `map` of a call function over its items.  At parallelism
    1 there are no threads and calls run inline.  `close`, or leaving the
    `with` block, cancels calls not yet started and waits for the threads
    to end, so a pool's owner leaves no thread behind.  The
    pool holds no backend connection: HttpBackend closes a thread's own
    connection when the thread ends, and the calling thread's on
    `HttpBackend.close`.
    """

    def __init__(self, parallelism: int = 1) -> None:
        check_count("parallelism", parallelism, 1)
        self._executor = ThreadPoolExecutor(max_workers=parallelism) if parallelism > 1 else None

    def __enter__(self) -> TaskPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)

    def map(self, fn, *iterables) -> list:
        """`fn` over the zipped items of `iterables`, as one batch, returning
        results in item order.

        The first call to raise stops the batch: its calls not yet started
        are cancelled, the running ones are waited for, and the exception of
        the earliest failed item is raised.
        """
        if self._executor is None:
            return list(map(fn, *iterables))
        futures = [self._executor.submit(fn, *args) for args in zip(*iterables)]
        if wait(futures, return_when=FIRST_EXCEPTION).not_done:
            for future in futures:
                future.cancel()
            wait(futures)
        for future in futures:
            if not future.cancelled() and future.exception() is not None:
                raise future.exception()
        return [future.result() for future in futures]


@contextmanager
def task_pool(parallelism: int | TaskPool):
    """`parallelism` as a TaskPool: a shared pool as it is, or, for an
    integer, a pool of that size closed when the block ends."""
    if isinstance(parallelism, TaskPool):
        yield parallelism
    else:
        with TaskPool(parallelism) as pool:
            yield pool


def _judge_pair(
    backend: Backend,
    problem: str,
    left: Candidate,
    right: Candidate,
    left_first: bool,
    judge_seed: int,
    temperature: float,
    retries: int,
    retry_root: tuple,
    where: str,
    index: int,
) -> tuple[Judgment, int]:
    """The comparison call: render, request, parse and canonicalize one pair.

    Left is shown first iff `left_first`, an order the caller drew.  A
    reply that does not parse is retried up to `retries` times, attempt a
    with seed derive_seed(*retry_root, index, a), and then becomes a
    degraded tie.  A backend failure raises BackendError naming `where`,
    the pair `index` and both candidates.  Returns the canonical judgment
    plus how many retry calls were spent.
    """
    task = render_comparison_prompt(problem, left, right, left_first=left_first)
    seed = judge_seed
    for attempt in range(retries + 1):
        if attempt:
            seed = derive_seed(*retry_root, index, attempt)
        request = CompletionRequest(task.prompt_text, temperature=temperature, seed=seed, purpose=PURPOSE_JUDGE)
        try:
            reply = backend.complete(request)
        except BackendError as exc:
            raise BackendError(f"{where}, pair {index} ({left.id} vs {right.id}): {exc}") from exc
        try:
            winner, feedback_a, feedback_b = parse_judge_reply(reply)
        except JudgeParseError:
            continue
        return canonicalize(task, winner, feedback_a, feedback_b), attempt
    logger.warning("%s, pair %d degraded to a tie after %d retries", where, index, retries)
    return degraded_tie(task), retries


def _score_payload(state: GenerationState) -> dict:
    scores = state.scores
    return {
        "member_ids": [member.id for member in state.members],
        "scores": [float(s) for s in scores.scores],
        "lam": scores.lam,
        "converged": scores.converged,
        "iterations": scores.iterations,
    }


def _routing_payload(members: tuple[Candidate, ...], routing: Routing) -> dict:
    return {
        "elites": [members[i].id for i in routing.elites],
        "discards": [members[i].id for i in routing.discards],
        "mutation_parents": [members[i].id for i in routing.parents],
    }


def complete_candidate(backend: Backend, prompt: str, purpose: str, temperature: float, seed: int, context: str) -> str:
    """The candidate call (sampling, mutation or refinement): `prompt` under
    the generation system prompt.  A failure or an empty reply raises
    BackendError prefixed with `context`."""
    system = prompts.GENERATION_SYSTEM_PROMPT
    request = CompletionRequest(prompt, system, temperature=temperature, seed=seed, purpose=purpose)
    try:
        content = backend.complete(request)
    except BackendError as exc:
        raise BackendError(f"{context}: {exc}") from exc
    if not content:
        raise BackendError(f"{context}: empty completion")
    return content


def sample_candidates(
    backend: Backend,
    problem: str,
    n: int,
    seed: int,
    parallelism: int | TaskPool = 1,
    temperature: float = 1.0,
) -> list[Candidate]:
    """Generation 0: n independent samples `g0-s000`, `g0-s001`, ..., sample i
    drawn with seed derive_seed(seed, 0, 0, i).  `parallelism` is a limit on
    concurrent calls or a TaskPool to run them on.  The user prompt is the
    problem itself."""
    check_count("n", n, 1)

    def sample(i: int, sample_seed: int) -> Candidate:
        content = complete_candidate(
            backend, problem, PURPOSE_GENERATE, temperature, sample_seed, f"sampling candidate {i}"
        )
        return Candidate(f"g0-s{i:03d}", content, 0, ORIGIN_SAMPLED)

    with task_pool(parallelism) as pool:
        return pool.map(sample, range(n), derive_seeds(seed, 0, _P_SAMPLE, np.arange(n)).tolist())


def run_pipeline(
    config: RunConfig,
    backend: Backend | None = None,
    parallelism: int | TaskPool = 1,
    trace_path: str | Path | None = None,
) -> tuple[Candidate, RunTrace]:
    """Run the full loop and return (selected candidate, trace).

    Every batch of backend calls runs on one TaskPool: `parallelism` itself,
    used and not closed, or a pool of `parallelism` threads for this run.
    Any exception aborts the run after flushing the trace through the last
    completed batch plus an abort record naming the error and its type; the
    exception is then re-raised unchanged.  Backend failures, and empty
    sampling or mutation replies, surface as a BackendError with round/pair
    context attached.  A backend built from the config because none was
    passed, a pool the run built and the trace file are closed on every exit.
    """
    with ExitStack() as stack:
        if backend is None:
            backend = stack.enter_context(closing(make_backend(config.backend, config.backend_options)))
        pool = stack.enter_context(task_pool(parallelism))  # rejects a bad parallelism before the trace file is created
        trace = stack.enter_context(closing(RunTrace(trace_path)))
        return _run(config, backend, pool, trace), trace


def _run(config: RunConfig, backend: Backend, pool: TaskPool, trace: RunTrace) -> Candidate:
    n, t_total = config.n, config.generations
    strategy = config.strategy()
    primary_calls = 0
    retry_calls = 0
    barriers = 0
    round_no = 0

    def barrier() -> None:
        nonlocal barriers
        barriers += 1
        trace.append(
            "barrier",
            -1,
            round_no,
            {"barrier": barriers, "primary_calls": primary_calls, "retry_calls": retry_calls},
        )
        trace.flush()

    def compare_and_score(state: GenerationState, degree: int, seeds: RoundSeeds) -> GenerationState:
        """Pair the generation at the given degree, judge and trace every pair,
        then fit and trace the scores."""
        nonlocal primary_calls, retry_calls
        members = state.members
        plan = sample_pairing(n, degree, seeds.pairing)
        temperature, parse_retries = config.temperature_judge, config.parse_retries
        retry_root = (config.seed, round_no, _P_RETRY)
        where = f"comparison round {round_no}"

        def judge(p: int, pair: tuple[int, int], left_first: bool, judge_seed: int):
            left, right = members[pair[0]], members[pair[1]]
            return _judge_pair(
                backend, config.problem, left, right, left_first, judge_seed,
                temperature, parse_retries, retry_root, where, p,
            )

        results = pool.map(judge, range(len(plan.pairs)), plan.pairs, seeds.left_first, seeds.judge)
        primary_calls += len(results)
        for p, (judgment, retries) in enumerate(results):
            retry_calls += retries
            trace.append("judgment", state.generation, round_no, {**vars(judgment), "pair_index": p, "retries": retries})
        barrier()
        judgments = tuple(judgment for judgment, _ in results)
        index = {member.id: i for i, member in enumerate(members)}
        # a degraded tie is no evidence, so it is left out of the fit (weight 0)
        records = [ComparisonRecord(index[j.left_id], index[j.right_id], j.outcome) for j in judgments if not j.degraded]
        state = GenerationState(state.generation, members, judgments, fit_bt(records, n, lam=config.lam))
        trace.append("score-fit", state.generation, round_no, _score_payload(state))
        return state

    try:
        trace.append("config", -1, 0, config.echo())
        trace.flush()
        schedule = seed_schedule(config.seed, n, config.k, t_total, config.final_k)
        # generation 0: sample n candidates
        round_no = 1
        samples = sample_candidates(backend, config.problem, n, config.seed, pool, config.temperature_generate)
        state = GenerationState(0, tuple(samples))
        primary_calls += n
        for member in state.members:
            trace.append("candidate", 0, round_no, dict(vars(member)))
        barrier()

        for t in range(1, t_total + 1):
            round_no = t
            seeds = schedule[t - 1]
            state = compare_and_score(state, config.k, seeds)
            routing = route(state.scores)
            trace.append("routing", state.generation, round_no, _routing_payload(state.members, routing))
            trace.flush()

            # each member's judgments, left and right sides, in judging order
            judged = {member.id: [] for member in state.members}
            for judgment in state.judgments:
                judged[judgment.left_id].append(judgment)
                judged[judgment.right_id].append(judgment)

            def mutate(i: int) -> Candidate:
                member = state.members[i]
                feedback = aggregate_feedback(member.id, judged[member.id], strategy)
                prompt = render_mutation_prompt(
                    config.problem, member, feedback, include_restart_license=config.include_restart_license
                )
                context = f"mutation round {t}, member {member.id}"
                temperature = config.temperature_generate
                content = complete_candidate(backend, prompt, PURPOSE_MUTATE, temperature, seeds.mutate[i], context)
                return Candidate(f"g{t}-mut{i:03d}", content, t, ORIGIN_MUTATED, parent_id=member.id)

            children = pool.map(mutate, routing.parents)
            primary_calls += len(children)
            next_state = assemble_next_generation(state, routing, children)
            for member in next_state.members:
                trace.append("candidate", next_state.generation, round_no, dict(vars(member)))
            barrier()
            state = next_state

        # final round: dense comparisons over the last generation, then pick the top
        round_no = t_total + 1
        state = compare_and_score(state, config.final_k, schedule[t_total])
        order = rank(state.scores)
        selected = state.members[order[0]]
        trace.append(
            "selection",
            state.generation,
            round_no,
            {"selected_id": selected.id, "selected_index": order[0]},
        )

        budget = compute_budget(n, config.k, t_total, config.final_k)
        if primary_calls != budget:  # accounting bug, not an input problem
            raise RuntimeError(f"primary calls {primary_calls} != budget {budget}")
        trace.append(
            "summary",
            -1,
            round_no,
            {
                "primary_calls": primary_calls,
                "retry_calls": retry_calls,
                "budget": budget,
                "barriers": barriers,
            },
        )
        trace.flush()
        return selected
    except BaseException as exc:
        trace.append("abort", -1, round_no, {"error": str(exc), "type": type(exc).__name__})
        trace.flush()
        raise


@dataclass
class ReplayResult:
    """Reconstructed run: one state per generation, plus the final selection."""

    states: list[GenerationState]
    selected_id: str | None
    config: dict | None


_RECORD_FIELDS = frozenset(("kind", "generation", "round", "payload", "schema_version"))
_OBJECT_PAYLOAD_KINDS = ("config", "candidate", "judgment", "score-fit", "routing", "selection")
_TRACE_ONLY_FIELDS = ("pair_index", "retries")


def replay(source) -> ReplayResult:
    """Rebuild every GenerationState (members, judgments, scores) from a trace.

    Accepts a RunTrace, a path to a trace file, or an iterable of JSONL lines
    (str or bytes), read in one pass; blank lines are skipped.  Raises
    ReplayError for corrupt input, for a trace that contradicts itself (a
    second fit of one generation, a fit whose member_ids or length are not its
    generation's, a second selection, a selection whose id or index is not a
    candidate of its generation, or a routing record that `route` of its
    generation's fit does not give), and for truncated traces that never
    reached their summary record.  Each error names the first offending record
    by its 0-based line index, blank lines counted.
    """
    if isinstance(source, RunTrace):
        lines = source.to_jsonl().splitlines()
    elif isinstance(source, (str, Path)):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = source

    config: dict | None = None
    candidates: dict[int, list[Candidate]] = {}
    judgments: dict[int, list[Judgment]] = {}
    fits: dict[int, ScoreVector] = {}
    selected_id: str | None = None
    selection_seen = summary_seen = False
    last_idx: int | None = None

    for idx, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReplayError(f"record {idx}: not valid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise ReplayError(f"record {idx}: expected an object")
        if not record.keys() >= _RECORD_FIELDS:
            raise ReplayError(f"record {idx}: missing fields {sorted(_RECORD_FIELDS - record.keys())}")
        if record["schema_version"] != SCHEMA_VERSION:
            raise ReplayError(f"record {idx}: unsupported schema_version {record['schema_version']!r}")
        kind, generation, payload = record["kind"], record["generation"], record["payload"]
        if not is_int(generation):
            raise ReplayError(f"record {idx}: generation must be an integer, got {generation!r}")
        if kind in _OBJECT_PAYLOAD_KINDS and not isinstance(payload, dict):
            raise ReplayError(f"record {idx}: bad {kind} payload (expected an object, got {type(payload).__name__})")
        last_idx = idx
        try:
            if kind == "config":
                config = payload
            elif kind == "candidate":
                candidates.setdefault(generation, []).append(Candidate(**payload))
            elif kind == "judgment":
                fields = {key: value for key, value in payload.items() if key not in _TRACE_ONLY_FIELDS}
                judgments.setdefault(generation, []).append(Judgment(**fields))
            elif kind == "score-fit":
                if generation in fits:
                    raise ReplayError(f"record {idx}: second score-fit for generation {generation}")
                ids = [member.id for member in candidates.get(generation, ())]
                if payload["member_ids"] != ids or len(payload["scores"]) != len(ids):
                    raise ReplayError(f"record {idx}: score-fit does not match generation {generation}'s members")
                fits[generation] = ScoreVector(
                    scores=np.asarray(payload["scores"], dtype=np.float64),
                    lam=payload["lam"],
                    converged=payload["converged"],
                    iterations=payload["iterations"],
                )
            elif kind == "selection":
                if selection_seen:
                    raise ReplayError(f"record {idx}: second selection record")
                selected_id, index = payload["selected_id"], payload["selected_index"]
                ids = [member.id for member in candidates.get(generation, ())]
                if selected_id not in ids:
                    raise ReplayError(
                        f"record {idx}: selected_id {selected_id!r} is not a candidate of generation {generation}"
                    )
                if not (is_int(index) and 0 <= index < len(ids) and ids[index] == selected_id):
                    raise ReplayError(f"record {idx}: selected_index {index!r} does not name {selected_id!r}")
                selection_seen = True
            elif kind == "routing":
                if generation not in fits:
                    raise ReplayError(f"record {idx}: routing of generation {generation} before its score-fit")
                if payload != _routing_payload(candidates.get(generation, ()), route(fits[generation])):
                    raise ReplayError(f"record {idx}: routing is not route of generation {generation}'s fit")
            elif kind == "summary":
                summary_seen = True
            elif kind in ("barrier", "abort"):
                pass
            else:
                raise ReplayError(f"record {idx}: unknown kind {kind!r}")
        except ReplayError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplayError(f"record {idx}: bad {kind} payload ({exc})") from exc

    if last_idx is None:
        raise ReplayError("empty trace")
    if not summary_seen:
        raise ReplayError(f"truncated trace: no summary record (last record index {last_idx})")

    states = []
    for generation in sorted(candidates):
        states.append(
            GenerationState(
                generation=generation,
                members=tuple(candidates[generation]),
                judgments=tuple(judgments.get(generation, ())),
                scores=fits.get(generation),
            )
        )
    return ReplayResult(states=states, selected_id=selected_id, config=config)
