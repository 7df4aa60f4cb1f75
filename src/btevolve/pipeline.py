"""End-to-end run orchestration: sample, evolve, final dense comparison, select.

A run costs exactly

    compute_budget(n, k, t, m) = n + t*(n*k/2 + 3n/4) + n*m/2

primary backend calls (parse retries are counted separately) and joins at
1 + 2t + 1 barriers: one after sampling, one after each generation's
comparisons and each generation's mutations, and one after the final round.

Every randomized step draws from a word of one SeedSequence per round of the
run's root seed (seeds.py): generation 0's n sample seeds, then each judged
round's pairing, mutation and judge seeds.  So traces are byte-identical
across parallelism limits.

The trace is line-delimited JSON, one record per line with fields
{kind, generation, round, payload, schema_version}.  Run-level records
(config, summary, abort) carry generation -1; candidate records carry their
own generation; judgment and score-fit records carry the generation of the
population being compared.  The trace file is emptied and opened once per
run; the records of each batch are written and flushed at its barrier, so
an aborted run keeps everything up to the last completed barrier plus one
abort record, and the file is closed when the run ends or aborts.  A
RunTrace made directly keeps its file open until its `close`.

One walk, `_walk`, writes a run's records.  It draws each judged round's
seeds (`seed_schedule`), pairing plan (`sample_pairing`) and the side of
each pair shown first (the plan's orientation, `pairing._left_first`).  A
run drives it with the backend's answers; `replay` drives it with answers
read from a trace, and each record the walk writes must be the recorded one,
type for type, each judgment the planned pair shown first on its planned
side.  Replay takes as recorded only what the backend decides (candidate
and judgment text, verdicts), the value of a fit's `iterations`, and the
config fields no checked record depends on.
"""

from __future__ import annotations

import functools
import json
import logging
from collections import deque
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import ExitStack, closing, contextmanager
from dataclasses import asdict, dataclass, field, fields
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
from .btrank import DEFAULT_LAM, ScoreVector, _converged, bt_gradient, check_lam, fit_bt, rank
from .errors import BackendError, ConfigError, JudgeParseError, ReplayError, check_count, is_int
from .judging import Judgment, canonicalize, degraded_tie, parse_judge_reply, render_comparison_prompt
from .pairing import _left_first, sample_pairing
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
from .seeds import _P_RETRY, derive_seed, seed_schedule, seed_words

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
        if not isinstance(self.problem, str):
            raise ConfigError(f"problem must be a string, got {self.problem!r}")
        if not isinstance(self.backend_options, dict):
            raise ConfigError(f"backend_options must be a dict, got {self.backend_options!r}")
        try:
            _ENCODER.encode(self.backend_options)
        except (TypeError, ValueError) as exc:  # the config record could not be written
            raise ConfigError(f"backend_options must be JSON values: {exc}") from exc
        for name in ("n", "k", "generations", "final_k", "seed", "parse_retries"):
            value = getattr(self, name)
            if not is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer as the int the trace can write
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


def _config_of(echo: dict) -> RunConfig:
    """The RunConfig that `echo` describes, field for field; TypeError or
    ValueError if none.  Whether its echo() is `echo`, type for type, is the
    caller's check."""
    names = {f.name for f in fields(RunConfig)}
    if echo.keys() != names:
        raise ConfigError(f"config fields: missing {sorted(names - echo.keys())}, extra {sorted(echo.keys() - names)}")
    return RunConfig(**{**echo, "feedback_strategy": FeedbackStrategy(**echo["feedback_strategy"])})


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
    to end, so a pool's owner leaves no thread behind.
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

    Left is shown first iff `left_first`, an order the caller chose.  A
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


def _fit_pairs(pairs, judgments) -> list[tuple[int, int, str]]:
    """What a generation's fit is over: (left, right, outcome) of its judgments,
    by the (left, right) member indices of each in `pairs`."""
    # a degraded tie is no evidence, so it is left out of the fit (weight 0)
    return [(left, right, j.outcome) for (left, right), j in zip(pairs, judgments) if not j.degraded]


def _selection_payload(members, scores: ScoreVector) -> dict:
    """The final round's pick: the member `rank` puts first."""
    top = rank(scores)[0]
    return {"selected_id": members[top].id, "selected_index": top}


def _sample(index: int, content: str) -> Candidate:
    """Sample `index` of generation 0."""
    return Candidate(f"g0-s{index:03d}", content, 0, ORIGIN_SAMPLED)


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
    drawn with seed seed_words(seed, 0, count=n)[i], all n in one call.
    `parallelism` is a limit on concurrent calls or a TaskPool to run them
    on.  The user prompt is the problem itself."""
    check_count("n", n, 1)

    def sample(i: int, sample_seed: int) -> Candidate:
        content = complete_candidate(
            backend, problem, PURPOSE_GENERATE, temperature, sample_seed, f"sampling candidate {i}"
        )
        return _sample(i, content)

    with task_pool(parallelism) as pool:
        return pool.map(sample, range(n), seed_words(seed, 0, count=n))


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
        return _walk(config, _LiveAnswers(config, backend, pool), trace)[1], trace


def _walk(config: RunConfig, answers, trace) -> tuple[list[GenerationState], Candidate]:
    """Write every record of a run to `trace`, in the run's order, and return
    each judged generation and the selected candidate.

    The walk alone draws each judged round's seeds, pairing plan and plan
    orientation, counts calls and barriers, routes, assembles, selects and
    checks the budget.  It asks `answers` for what only a run decides:
    `samples()`, generation 0's n candidates; `judged(round, state, degree,
    plan)`, a (judgment, retries) per pair of the round's plan, where
    `plan()` draws the round's (seeds, (left, right) member index pairs,
    left-shown-first flags) once, when the answers first ask for it;
    `fit(round, state, pairs, judgments)`, the ScoreVector over them; and
    `mutations(round, state, routing, mutate_seeds)`, the texts of the
    routing parents' children, in order.  Replay's answers read a round's
    judgments before they ask for its plan, so a trace costs no more than
    the rounds it holds, whatever its config names.  Any exception appends an abort record naming the error and its type,
    flushes the trace and is re-raised unchanged.
    """
    n, last = config.n, config.generations + 1
    calls = retries = barriers = round_no = 0
    states, seeds = [], None  # seeds: the RoundSeeds of the round judged last

    def barrier() -> None:
        nonlocal barriers
        barriers += 1
        trace.append("barrier", -1, round_no, {"barrier": barriers, "primary_calls": calls, "retry_calls": retries})
        trace.flush()

    def judge(state: GenerationState, degree: int) -> GenerationState:
        """Judge and trace the generation's pairs at `degree`, then fit and trace the scores."""
        nonlocal calls, retries, seeds
        generation, members = state.generation, state.members

        @functools.cache
        def plan():
            """The round's seeds, pairing plan and plan orientation, drawn once, when first asked for."""
            seeds = next(schedule)
            pairs = sample_pairing(len(members), degree, seeds.pairing).pairs
            return seeds, pairs, _left_first(pairs, len(members))

        results = answers.judged(round_no, state, degree, plan)
        seeds, pairs, _ = plan()
        calls += len(results)
        for p, (judgment, spent) in enumerate(results):
            retries += spent
            trace.append("judgment", generation, round_no, vars(judgment) | {"pair_index": p, "retries": spent})
        barrier()
        judgments = tuple(judgment for judgment, _ in results)
        scores = answers.fit(round_no, state, pairs, judgments)
        fit = dict(
            member_ids=[member.id for member in members], scores=[float(s) for s in scores.scores],
            lam=scores.lam, converged=scores.converged, iterations=scores.iterations,
        )
        trace.append("score-fit", generation, round_no, fit)
        states.append(GenerationState(generation, members, judgments, scores))
        return states[-1]

    def write(state: GenerationState) -> None:
        for member in state.members:
            trace.append("candidate", state.generation, round_no, dict(vars(member)))
        barrier()

    try:
        trace.append("config", -1, 0, config.echo())
        trace.flush()
        schedule = seed_schedule(config.seed, n, config.k, config.generations, config.final_k)
        round_no = 1
        state = GenerationState(0, tuple(answers.samples()))
        calls += n
        write(state)

        for round_no in range(1, last):
            state = judge(state, config.k)
            routing = route(state.scores)
            ids = [member.id for member in state.members]
            elites, discards, parents = ([ids[i] for i in side] for side in routing)
            sides = {"elites": elites, "discards": discards, "mutation_parents": parents}
            trace.append("routing", state.generation, round_no, sides)
            trace.flush()
            texts = answers.mutations(round_no, state, routing, seeds.mutate)
            children = [
                Candidate(f"g{round_no}-mut{i:03d}", text, round_no, ORIGIN_MUTATED, parent_id=ids[i])
                for i, text in zip(routing.parents, texts)
            ]
            calls += len(children)
            state = assemble_next_generation(state, routing, children)
            write(state)

        # final round: dense comparisons over the last generation, then pick the top
        round_no = last
        state = judge(state, config.final_k)
        selection = _selection_payload(state.members, state.scores)
        trace.append("selection", state.generation, round_no, selection)
        budget = compute_budget(n, config.k, config.generations, config.final_k)
        if calls != budget:  # accounting bug, not an input problem
            raise RuntimeError(f"primary calls {calls} != budget {budget}")
        summary = {"primary_calls": calls, "retry_calls": retries, "budget": budget, "barriers": barriers}
        trace.append("summary", -1, round_no, summary)
        trace.flush()
        return states, state.members[selection["selected_index"]]
    except BaseException as exc:
        trace.append("abort", -1, round_no, {"error": str(exc), "type": type(exc).__name__})
        trace.flush()
        raise


class _LiveAnswers:
    """A run's answers: backend calls on one TaskPool, seeded by the walk,
    and `fit_bt`'s fits."""

    def __init__(self, config: RunConfig, backend: Backend, pool: TaskPool) -> None:
        self.config, self.backend, self.pool = config, backend, pool

    def samples(self) -> list[Candidate]:
        config = self.config
        return sample_candidates(
            self.backend, config.problem, config.n, config.seed, self.pool, config.temperature_generate
        )

    def judged(self, round_no: int, state: GenerationState, degree: int, plan):
        config, members = self.config, state.members
        seeds, pairs, shown_first = plan()
        retry_root = (config.seed, round_no, _P_RETRY)
        where = f"comparison round {round_no}"

        def judge(p: int, pair: tuple[int, int], left_first: bool, judge_seed: int):
            left, right = members[pair[0]], members[pair[1]]
            return _judge_pair(
                self.backend, config.problem, left, right, left_first, judge_seed,
                config.temperature_judge, config.parse_retries, retry_root, where, p,
            )

        return self.pool.map(judge, range(len(pairs)), pairs, shown_first, seeds.judge)

    def fit(self, round_no: int, state: GenerationState, pairs, judgments) -> ScoreVector:
        return fit_bt(_fit_pairs(pairs, judgments), len(state.members), lam=self.config.lam)

    def mutations(self, round_no: int, state: GenerationState, routing: Routing, mutate_seeds) -> list[str]:
        config, strategy = self.config, self.config.strategy()
        # each member's judgments, left and right sides, in judging order
        judged = {member.id: [] for member in state.members}
        for judgment in state.judgments:
            judged[judgment.left_id].append(judgment)
            judged[judgment.right_id].append(judgment)

        def mutate(i: int) -> str:
            member = state.members[i]
            feedback = aggregate_feedback(member.id, judged[member.id], strategy)
            prompt = render_mutation_prompt(
                config.problem, member, feedback, include_restart_license=config.include_restart_license
            )
            context = f"mutation round {round_no}, member {member.id}"
            temperature = config.temperature_generate
            return complete_candidate(self.backend, prompt, PURPOSE_MUTATE, temperature, mutate_seeds[i], context)

        return self.pool.map(mutate, routing.parents)


@dataclass
class ReplayResult:
    """Reconstructed run: one state per generation, plus the final selection."""

    states: list[GenerationState]
    selected_id: str | None
    config: dict | None


_RECORD_FIELDS = frozenset(("kind", "generation", "round", "payload", "schema_version"))


_DECODER = json.JSONDecoder()


def _loads(line):
    """json.loads(line), with a fast path for a line as the run writes it: a
    str that is one JSON value and nothing else, which raw_decode reads
    without json.loads's whitespace scans.  Any other line goes to json.loads,
    so what it accepts and the errors it raises are json.loads's own."""
    if isinstance(line, str):
        try:
            record, end = _DECODER.raw_decode(line)
        except json.JSONDecodeError:
            pass
        else:
            if end == len(line):
                return record
    return json.loads(line)


def _same(recorded: dict, expected: dict) -> bool:
    """Whether a decoded payload is `expected`: equal, and each field of the
    same type, so that 6.0 or true does not pass for 6."""
    if recorded != expected:
        return False
    for key, value in expected.items():
        if type(recorded[key]) is not type(value):
            return False
    return True


_MISFITS = {
    "config": "bad config payload (config is not the echo of the RunConfig it describes)",
    "barrier": "barrier does not count the records before it",
    "score-fit": "score-fit is not what the run writes at its scores",
    "routing": "routing is not route of generation {generation}'s fit",
    "selection": "selection is not rank's top of the last generation's fit",
    "summary": "summary does not count the records before it or is off budget",
}


class _Recorded:
    """A trace's records, read in the order the run writes them: replay's
    answers, and the trace its walk writes to, whose every record must be
    the recorded one."""

    def __init__(self, lines) -> None:
        self.lines = enumerate(lines)  # (index, line) pairs, read once
        self.at = self.kind = None  # the index and kind of the record last read
        self.config: RunConfig | None = None  # set once the config record is read
        self.held = deque()  # (index, payload) of records read by an answer, for the walk's records to meet

    def read(self, want: str | None, generation: int = -1, round_no: int = 0) -> dict:
        """The payload of the next record, which must be the `want` record of
        `generation` and `round_no`; with `want` None, there must be none."""
        for idx, line in self.lines:
            if line.strip():
                break
        else:
            if want is None:
                return {}
            if self.at is None:
                raise ReplayError("empty trace")
            raise ReplayError(f"truncated trace: no summary record (last record index {self.at})")
        at = self.at = idx
        try:
            record = _loads(line)
        except json.JSONDecodeError as exc:
            raise ReplayError(f"record {at}: not valid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise ReplayError(f"record {at}: expected an object")
        if record.keys() != _RECORD_FIELDS:
            missing, extra = sorted(_RECORD_FIELDS - record.keys()), sorted(record.keys() - _RECORD_FIELDS)
            raise ReplayError(f"record {at}: record fields: missing {missing}, extra {extra}")
        version, kind, payload = record["schema_version"], record["kind"], record["payload"]
        self.kind = kind
        # decoded JSON holds no numpy integers, so here `type(x) is int` is is_int
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ReplayError(f"record {at}: unsupported schema_version {version!r}")
        found_generation, found_round = record["generation"], record["round"]
        if not (kind == want and found_generation == generation and found_round == round_no
                and type(found_generation) is type(found_round) is int):
            if want is None:
                raise ReplayError(f"record {at}: {kind} record after the summary")
            if kind == "abort":
                raise ReplayError(f"truncated trace: no summary record (last record index {at})")
            found = f"{kind} of generation {found_generation!r}, round {found_round!r}"
            wanted = f"{want} of generation {generation}, round {round_no}"
            raise ReplayError(f"record {at}: {found}, where the run writes {wanted}")
        if type(payload) is not dict:
            raise ReplayError(f"record {at}: bad {kind} payload (expected an object, got {type(payload).__name__})")
        return payload

    def hold(self, kind: str, generation: int, round_no: int) -> dict:
        """`read`, keeping the payload for the record the walk writes in its place."""
        payload = self.read(kind, generation, round_no)
        self.held.append((self.at, payload))
        return payload

    def append(self, kind: str, generation: int, round_index: int, payload: dict) -> None:
        """Require the record the walk writes to be the recorded one, type for
        type.  Judgments were checked as they were read, and an abort is the
        walk's own error, which replay raises."""
        if kind in ("judgment", "abort"):
            return
        if self.held:
            at, recorded = self.held.popleft()
        else:
            recorded = self.read(kind, generation, round_index)
            at = self.at
        if not _same(recorded, payload):
            if kind == "candidate":
                maker = "sample_candidates" if generation == 0 else "assemble_next_generation"
                raise ReplayError(f"record {at}: candidate {recorded.get('id')} is not what {maker} makes")
            raise ReplayError(f"record {at}: " + _MISFITS[kind].format(generation=generation))

    def flush(self) -> None:
        """Nothing to write: the records are the input."""

    def content(self, generation: int, round_no: int):
        """The recorded text of the next candidate, which `complete_candidate`
        never leaves empty."""
        payload = self.hold("candidate", generation, round_no)
        if payload["content"] == "":
            named = f"candidate {payload.get('id')} has empty content"
            raise ReplayError(f"record {self.at}: {named}, which complete_candidate refuses")
        return payload["content"]

    def samples(self) -> list[Candidate]:
        """Each sample `sample_candidates` makes of its recorded text."""
        return [_sample(i, self.content(0, 1)) for i in range(self.config.n)]

    def judged(self, round_no: int, state: GenerationState, degree: int, plan):
        """The round's judgments as recorded, each at its position, with
        retries the run can spend on it, then each checked to be its planned
        pair, shown first on the side the plan's orientation shows first.
        The plan is drawn only once the round's records are read, so a trace
        that ends first costs no plan of the size its config names."""
        generation, ids = state.generation, [member.id for member in state.members]
        results, judgment_at = [], []
        # a pair is retried at most parse_retries times, and degrades to a tie only after all of them
        most = self.config.parse_retries
        for position in range(len(ids) * degree // 2):
            payload = self.read("judgment", generation, round_no)
            pair_index, retries = payload.pop("pair_index"), payload.pop("retries")
            judgment = Judgment(**payload)
            at = self.at
            if not (pair_index == position and type(pair_index) is int):
                raise ReplayError(f"record {at}: pair_index {pair_index!r} is not its position {position}")
            if not (type(retries) is int and 0 <= retries <= most and (retries == most or not judgment.degraded)):
                raise ReplayError(f"record {at}: retries {retries!r} is not a count the run spends on this judgment")
            results.append((judgment, retries))
            judgment_at.append(at)
        _, pairs, shown_first = plan()
        for (judgment, _), (left, right), first, at in zip(results, pairs, shown_first, judgment_at):
            planned = (ids[left], ids[right], ids[left] if first else ids[right])
            if (judgment.left_id, judgment.right_id, judgment.presented_first) != planned:
                found = (judgment.left_id, judgment.right_id)
                raise ReplayError(
                    f"record {at}: judgment {found} shown {judgment.presented_first!r} first is not its plan's "
                    f"pair {planned[:2]} shown {planned[2]!r} first"
                )
        return results

    def fit(self, round_no: int, state: GenerationState, pairs, judgments) -> ScoreVector:
        """The recorded scores and iterations, over the generation's members,
        with the config's lam and `converged` the test of `bt_gradient` at
        those scores."""
        payload = self.hold("score-fit", state.generation, round_no)
        ids, lam = [member.id for member in state.members], self.config.lam
        if payload["member_ids"] != ids or len(payload["scores"]) != len(ids):
            raise ReplayError(f"record {self.at}: score-fit does not match generation {state.generation}'s members")
        scores = np.asarray(payload["scores"], dtype=np.float64)
        gradient = bt_gradient(scores, _fit_pairs(pairs, judgments), lam)
        return ScoreVector(scores, lam, bool(_converged(gradient)), payload["iterations"])

    def mutations(self, round_no: int, state: GenerationState, routing: Routing, mutate_seeds):
        """The recorded texts of the next generation's children, the members
        after its carryovers, each read as the walk takes it, so that a child
        the walk cannot build is named by its own record."""
        for _ in routing.elites:
            self.hold("candidate", state.generation + 1, round_no)
        return (self.content(state.generation + 1, round_no) for _ in routing.parents)


def replay(source) -> ReplayResult:
    """Rebuild every GenerationState (members, judgments, scores) from a
    trace, by the walk that writes a run's records, with its answers read
    from the trace.

    Accepts a RunTrace, a path to a trace file, or an iterable of JSONL lines
    (str or bytes), read in one pass; blank lines are skipped.  The config
    record comes first and is rebuilt as a RunConfig.  Then every record, its
    five fields and its payload, must be the one the walk writes from the
    answers read so far, type for type, the config record first, and nothing
    may follow the summary.  The walk re-draws each round's seeds, pairing
    plan and orientation from the config's `seed`, once the round's
    judgments are read.  The answers are checked as they are read: each
    sampled or mutated candidate's content is not empty; each judgment's
    `pair_index` is its position and its `retries` a count the run can spend
    on it, and once its round is read, its sides and `presented_first` are
    those of the planned pair at that position; each score-fit is over its generation's members,
    its `iterations` a non-negative integer, and its `converged` flag the
    test of `bt_gradient` at its scores.  Taken as recorded are what the
    backend decides (candidate and judgment text, verdicts), the value of a
    fit's `iterations`, and the config fields no checked record depends on:
    `problem`, the two temperatures, `include_restart_license`, and
    `parse_retries` while it bounds every recorded `retries`.

    Raises ReplayError for corrupt input, for any record that breaks these
    rules, and for a trace that ends, or reaches an abort record, before its
    summary; each error names the first offending record by its 0-based line
    index, blank lines counted (a round's judgments meet its plan only after
    all of them are read).
    """
    if isinstance(source, RunTrace):
        lines = source.to_jsonl().splitlines()
    elif isinstance(source, (str, Path)):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = source
    recorded = _Recorded(lines)
    try:
        config_record = recorded.hold("config", -1, 0)
        config = recorded.config = _config_of(config_record)
        states, selected = _walk(config, recorded, recorded)
        recorded.read(None)
    except ReplayError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ReplayError(f"record {recorded.at}: bad {recorded.kind} payload ({exc})") from exc
    return ReplayResult(states=states, selected_id=selected.id, config=config_record)
