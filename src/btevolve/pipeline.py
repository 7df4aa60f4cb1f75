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

`replay` walks a trace in the order the run writes it, checks each record's
envelope and each derived payload with the function the run wrote it by, and
each round's judgments against a pairing plan's shape; it takes as recorded
what the backend decides (candidate and judgment text, verdicts), each
`presented_first`, which plan of that shape was sampled, and fits' `iterations`.
"""

from __future__ import annotations

import json
import logging
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
from .pairing import _plan_misfit, sample_pairing
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


def _config_of(echo: dict) -> RunConfig:
    """The RunConfig whose echo() is `echo`, type for type (RunConfig.echo's inverse); TypeError or ValueError if none."""
    names = {f.name for f in fields(RunConfig)}
    if echo.keys() != names:
        raise ConfigError(f"config fields: missing {sorted(names - echo.keys())}, extra {sorted(echo.keys() - names)}")
    config = RunConfig(**{**echo, "feedback_strategy": FeedbackStrategy(**echo["feedback_strategy"])})
    if not _same(echo, config.echo()):
        raise ConfigError("config is not the echo of the RunConfig it describes")
    return config


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


def _fit_pairs(pairs, judgments) -> list[tuple[int, int, str]]:
    """What a generation's fit is over: (left, right, outcome) of its judgments,
    by the (left, right) member indices of each in `pairs`."""
    # a degraded tie is no evidence, so it is left out of the fit (weight 0)
    return [(left, right, j.outcome) for (left, right), j in zip(pairs, judgments) if not j.degraded]


def _score_payload(members, scores: ScoreVector) -> dict:
    return {
        "member_ids": [member.id for member in members],
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


def _selection_payload(members, scores: ScoreVector) -> dict:
    """The final round's pick: the member `rank` puts first."""
    top = rank(scores)[0]
    return {"selected_id": members[top].id, "selected_index": top}


def _sample(index: int, content: str) -> Candidate:
    """Sample `index` of generation 0."""
    return Candidate(f"g0-s{index:03d}", content, 0, ORIGIN_SAMPLED)


def _mutation(generation: int, index: int, parent: Candidate, content: str) -> Candidate:
    """The child of member `index`, `parent`, in `generation`."""
    return Candidate(f"g{generation}-mut{index:03d}", content, generation, ORIGIN_MUTATED, parent_id=parent.id)


def _barrier_payload(barriers: int, primary_calls: int, retry_calls: int) -> dict:
    return {"barrier": barriers, "primary_calls": primary_calls, "retry_calls": retry_calls}


def _summary_payload(primary_calls: int, retry_calls: int, budget: int, barriers: int) -> dict:
    return {"primary_calls": primary_calls, "retry_calls": retry_calls, "budget": budget, "barriers": barriers}


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
        return _sample(i, content)

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
        trace.append("barrier", -1, round_no, _barrier_payload(barriers, primary_calls, retry_calls))
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
        scores = fit_bt(_fit_pairs(plan.pairs, judgments), n, lam=config.lam)
        trace.append("score-fit", state.generation, round_no, _score_payload(members, scores))
        return GenerationState(state.generation, members, judgments, scores)

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
                return _mutation(t, i, member, content)

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
        selection = _selection_payload(state.members, state.scores)
        trace.append("selection", state.generation, round_no, selection)

        budget = compute_budget(n, config.k, t_total, config.final_k)
        if primary_calls != budget:  # accounting bug, not an input problem
            raise RuntimeError(f"primary calls {primary_calls} != budget {budget}")
        trace.append("summary", -1, round_no, _summary_payload(primary_calls, retry_calls, budget, barriers))
        trace.flush()
        return state.members[selection["selected_index"]]
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


def replay(source) -> ReplayResult:
    """Rebuild every GenerationState (members, judgments, scores) from a
    trace, reading its records in the order the run writes them and checking
    each with the function the run wrote it by.

    Accepts a RunTrace, a path to a trace file, or an iterable of JSONL lines
    (str or bytes), read in one pass; blank lines are skipped.  The config
    record comes first and is rebuilt as a RunConfig whose `echo()` must equal
    it, type for type; its counts fix the rest of the walk, in `_run`'s order,
    up to the summary, after which nothing may follow.  Each record must hold
    the five record fields and no others: the kind, generation and round the
    run writes there as JSON integers, schema_version the integer 1 and an
    object payload.  Each judgment's `pair_index` must be its position, its
    `retries` a count the run can spend on it, its sides distinct members of
    its generation, and its round's member-index pairs the shape of a
    `sample_pairing` plan.  Each score-fit's `converged` flag must be the test
    of `bt_gradient` at its scores over `_fit_pairs`; each routing, candidate,
    selection, barrier and summary what `route`, `sample_candidates`,
    `assemble_next_generation`, `rank` and the call counts make of the records
    before it; every re-derived field in its JSON type too.  Taken as recorded
    are what the backend decides (candidate and judgment text, verdicts), each
    `presented_first`, which plan of that shape was sampled, and a fit's
    `iterations`.

    Raises ReplayError for corrupt input, for any record that breaks these
    rules, and for a trace that ends, or reaches an abort record, before its
    summary; each error names the first offending record by its 0-based line
    index, blank lines counted.
    """
    if isinstance(source, RunTrace):
        lines = source.to_jsonl().splitlines()
    elif isinstance(source, (str, Path)):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = source
    records = enumerate(lines)
    at = kind = None  # the index and kind of the record last read

    def read(want: str | None, generation: int = -1, round_no: int = 0) -> dict:
        """The payload of the next record, which must be the `want` record of
        `generation` and `round_no`; with `want` None, there must be none."""
        nonlocal at, kind
        for idx, line in records:
            if line.strip():
                break
        else:
            if want is None:
                return {}
            if at is None:
                raise ReplayError("empty trace")
            raise ReplayError(f"truncated trace: no summary record (last record index {at})")
        at = idx
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

    try:
        config_record = read("config")
        config = _config_of(config_record)
        n, last = config.n, config.generations + 1
        budget = compute_budget(n, config.k, config.generations, config.final_k)
        primary_calls = retry_calls = barriers = 0

        def barrier(round_no: int) -> None:
            nonlocal barriers
            barriers += 1
            if not _same(read("barrier", -1, round_no), _barrier_payload(barriers, primary_calls, retry_calls)):
                raise ReplayError(f"record {at}: barrier does not count the records before it")

        members = []
        for i in range(n):
            payload = read("candidate", 0, 1)
            member = Candidate(**payload)
            if not _same(payload, vars(_sample(i, member.content))):
                raise ReplayError(f"record {at}: candidate {member.id} is not what sample_candidates makes")
            members.append(member)
        primary_calls += n
        barrier(1)
        state = GenerationState(0, tuple(members))
        states = []
        for round_no in range(1, last + 1):
            generation, members = state.generation, state.members
            degree = config.k if round_no < last else config.final_k
            index = {member.id: i for i, member in enumerate(members)}
            judgments, pairs, judgment_at = [], [], []
            # a pair is retried at most parse_retries times, and degrades to a tie only after all of them
            most = config.parse_retries
            for position in range(n * degree // 2):
                payload = read("judgment", generation, round_no)
                pair_index, retries = payload.pop("pair_index"), payload.pop("retries")
                judgment = Judgment(**payload)
                if not (pair_index == position and type(pair_index) is int):
                    raise ReplayError(f"record {at}: pair_index {pair_index!r} is not its position {position}")
                if not (type(retries) is int and 0 <= retries <= most and (retries == most or not judgment.degraded)):
                    raise ReplayError(f"record {at}: retries {retries!r} is not a count the run spends on this judgment")
                left, right = index.get(judgment.left_id), index.get(judgment.right_id)
                if left is None or right is None:
                    pair = (judgment.left_id, judgment.right_id)
                    raise ReplayError(f"record {at}: judgment {pair} is not between members of its generation")
                judgments.append(judgment)
                pairs.append((left, right))
                judgment_at.append(at)
                retry_calls += retries
            primary_calls += len(judgments)
            bad = _plan_misfit(pairs, n, degree)
            if bad is not None:
                pair, at = (judgments[bad].left_id, judgments[bad].right_id), judgment_at[bad]
                raise ReplayError(f"record {at}: judgment {pair} is out of a sorted {degree}-regular plan's shape")
            barrier(round_no)

            payload = read("score-fit", generation, round_no)
            if payload["member_ids"] != list(index) or len(payload["scores"]) != n:
                raise ReplayError(f"record {at}: score-fit does not match generation {generation}'s members")
            scores = np.asarray(payload["scores"], dtype=np.float64)
            gradient = bt_gradient(scores, _fit_pairs(pairs, judgments), config.lam)
            fit = ScoreVector(scores, config.lam, bool(_converged(gradient)), payload["iterations"])
            if not _same(payload, _score_payload(members, fit)):
                raise ReplayError(f"record {at}: score-fit is not what the run writes at its scores")
            state = GenerationState(generation, members, tuple(judgments), fit)
            states.append(state)
            if round_no == last:
                break

            routing = route(fit)
            if not _same(read("routing", generation, round_no), _routing_payload(members, routing)):
                raise ReplayError(f"record {at}: routing is not route of generation {generation}'s fit")
            recorded, recorded_at = [], []
            for _ in range(n):
                recorded.append(Candidate(**read("candidate", generation + 1, round_no)))
                recorded_at.append(at)
            children = recorded[len(routing.elites) :]
            children = [_mutation(generation + 1, i, members[i], c.content) for i, c in zip(routing.parents, children)]
            expected = assemble_next_generation(state, routing, children).members
            for at, member, want in zip(recorded_at, recorded, expected):
                if not _same(vars(member), vars(want)):
                    raise ReplayError(f"record {at}: candidate {member.id} is not what assemble_next_generation makes")
            primary_calls += len(children)
            barrier(round_no)
            state = GenerationState(generation + 1, tuple(recorded))

        selection = read("selection", config.generations, last)
        if not _same(selection, _selection_payload(state.members, state.scores)):
            raise ReplayError(f"record {at}: selection is not rank's top of the last generation's fit")
        if not _same(read("summary", -1, last), _summary_payload(primary_calls, retry_calls, budget, barriers)):
            raise ReplayError(f"record {at}: summary does not count the records before it or is off budget")
        read(None)
    except ReplayError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ReplayError(f"record {at}: bad {kind} payload ({exc})") from exc
    return ReplayResult(states=states, selected_id=selection["selected_id"], config=config_record)
