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
population being compared.  Records are flushed to disk as each batch
completes, so an aborted run keeps everything up to the last completed
barrier plus one abort record.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager
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
from .btrank import DEFAULT_LAM, ComparisonRecord, ScoreVector, fit_bt, rank
from .errors import BackendError, ConfigError, JudgeParseError, ReplayError, is_int
from .judging import Judgment, canonicalize, degraded_tie, parse_judge_reply, render_comparison_prompt
from .pairing import sample_pairing
from .population import (
    ORIGIN_MUTATED,
    ORIGIN_SAMPLED,
    Candidate,
    STRATEGY_PAIRWISE_K,
    FeedbackStrategy,
    GenerationState,
    aggregate_feedback,
    assemble_next_generation,
    render_mutation_prompt,
    select_discards,
    select_elites,
)
from .seeds import _P_RETRY, _P_SAMPLE, RoundSeeds, derive_seed, derive_seeds, seed_schedule

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1


def compute_budget(n: int, k: int, t: int, m: int) -> int:
    """Primary backend calls for a full run: n + t*(n*k/2 + 3n/4) + n*m/2."""
    for name, value in (("n", n), ("k", k), ("t", t), ("m", m)):
        if not is_int(value) or value < 0:
            raise ConfigError(f"{name} must be a non-negative integer")
    if n < 1:
        raise ConfigError("n must be positive")
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
        if (self.n * self.k) % 2 != 0:
            raise ConfigError(f"n*k={self.n * self.k} must be even")
        if not 1 <= self.final_k <= self.n - 1:
            raise ConfigError(f"final degree m={self.final_k} out of range for n={self.n}")
        if (self.n * self.final_k) % 2 != 0:
            raise ConfigError(f"n*m={self.n * self.final_k} must be even")
        if self.generations < 0:
            raise ConfigError("generations must be non-negative")
        if not self.lam > 0:
            raise ConfigError("lam must be positive")
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
    """Append-only record log, optionally persisted as line-delimited JSON."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.records: list[dict] = []
        self.path = Path(path) if path is not None else None
        self._flushed = 0
        if self.path is not None:
            self.path.write_text("")

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
        """Append the records not yet written to the trace file in one write."""
        if self.path is not None and self._flushed < len(self.records):
            text = _dump_records(self.records[self._flushed :])
            with open(self.path, "a", encoding="utf-8") as sink:
                sink.write(text)
        self._flushed = len(self.records)

    def to_jsonl(self) -> str:
        return _dump_records(self.records)

    def records_of_kind(self, kind: str) -> list[dict]:
        return [record for record in self.records if record["kind"] == kind]


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dump_records(records: list[dict]) -> str:
    """Records as JSON lines, each ending in a newline."""
    return "".join([_ENCODER.encode(record) + "\n" for record in records])


class TaskPool:
    """The worker threads of one run, shared by every batch of backend calls.

    At parallelism 1 there are no threads and tasks run inline.  `close`, or
    leaving the `with` block, shuts the threads down and cancels tasks not
    yet started, so a run that ends, or aborts, takes its threads (and any
    per-thread backend connections) with it.
    """

    def __init__(self, parallelism: int = 1) -> None:
        if not is_int(parallelism) or parallelism < 1:
            raise ConfigError(f"parallelism must be an integer of at least 1, got {parallelism!r}")
        self._executor = ThreadPoolExecutor(max_workers=parallelism) if parallelism > 1 else None

    def __enter__(self) -> TaskPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)

    def run(self, tasks) -> list:
        """Run one batch of no-arg callables, returning results in submission order.

        The first task to raise stops the batch: its tasks not yet started
        are cancelled, the running ones are waited for, and the exception of
        the earliest-submitted failed task is raised.
        """
        if self._executor is None:
            return [task() for task in tasks]
        futures = [self._executor.submit(task) for task in tasks]
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
    config: RunConfig,
    left: Candidate,
    right: Candidate,
    round_no: int,
    pair_index: int,
    order_seed: int,
    left_first: bool,
    judge_seed: int,
) -> tuple[Judgment, int]:
    """One comparison with presentation randomization and parse-retry-then-tie.

    `order_seed` and `judge_seed` are the pair's (round, order) and (round,
    judge) child seeds, and `left_first` the order drawn from `order_seed`;
    retry seeds are derived here, as retries are rare.  Returns the
    canonical judgment plus how many retry calls were spent.
    """
    task = render_comparison_prompt(config.problem, left, right, order_seed, left_first=left_first)
    retries_used = 0
    for attempt in range(config.parse_retries + 1):
        if attempt == 0:
            seed = judge_seed
        else:
            seed = derive_seed(config.seed, round_no, _P_RETRY, pair_index, attempt)
            retries_used += 1
        request = CompletionRequest(
            user_prompt=task.prompt_text,
            temperature=config.temperature_judge,
            seed=seed,
            purpose=PURPOSE_JUDGE,
        )
        try:
            reply = backend.complete(request)
        except BackendError as exc:
            raise BackendError(
                f"comparison round {round_no}, pair {pair_index} ({left.id} vs {right.id}): {exc}"
            ) from exc
        try:
            winner, feedback_a, feedback_b = parse_judge_reply(reply)
        except JudgeParseError:
            continue
        return canonicalize(task, winner, feedback_a, feedback_b), retries_used
    logger.warning("pair %d in round %d degraded to a tie after %d retries", pair_index, round_no, retries_used)
    return degraded_tie(task), retries_used


def _score_payload(state: GenerationState) -> dict:
    scores = state.scores
    return {
        "member_ids": [member.id for member in state.members],
        "scores": [float(s) for s in scores.scores],
        "lam": scores.lam,
        "converged": scores.converged,
        "iterations": scores.iterations,
    }


def complete_candidate(backend: Backend, request: CompletionRequest, context: str) -> str:
    """One call that yields a candidate (sampling, mutation or refinement);
    a failure or an empty reply raises BackendError prefixed with `context`."""
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
    seeds = derive_seeds(seed, 0, _P_SAMPLE, np.arange(n)).tolist()

    def sample_task(i: int) -> Candidate:
        request = CompletionRequest(
            user_prompt=problem,
            system_prompt=prompts.GENERATION_SYSTEM_PROMPT,
            temperature=temperature,
            seed=seeds[i],
            purpose=PURPOSE_GENERATE,
        )
        content = complete_candidate(backend, request, f"sampling candidate {i}")
        return Candidate(f"g0-s{i:03d}", content, 0, ORIGIN_SAMPLED)

    with task_pool(parallelism) as pool:
        return pool.run([lambda i=i: sample_task(i) for i in range(n)])


def run_pipeline(
    config: RunConfig,
    backend: Backend | None = None,
    parallelism: int = 1,
    trace_path: str | Path | None = None,
) -> tuple[Candidate, RunTrace]:
    """Run the full loop and return (selected candidate, trace).

    Every batch of backend calls runs on one TaskPool of `parallelism`
    threads, which lives exactly as long as the run.  Any exception aborts the run after flushing the trace through the last
    completed batch plus an abort record naming the error and its type; the
    exception is then re-raised unchanged.  Backend failures, and empty
    sampling or mutation replies, surface as a BackendError with round/pair
    context attached.
    """
    if backend is None:
        backend = make_backend(config.backend, config.backend_options)
    pool = TaskPool(parallelism)  # rejects a bad parallelism before the trace file is created
    trace = RunTrace(trace_path)
    trace.append("config", -1, 0, config.echo())
    trace.flush()

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
        tasks = [
            (
                lambda p=p, i=i, j=j, r=round_no: _judge_pair(
                    backend, config, members[i], members[j], r, p, seeds.order[p], seeds.left_first[p], seeds.judge[p]
                )
            )
            for p, (i, j) in enumerate(plan.pairs)
        ]
        results = pool.run(tasks)
        primary_calls += len(results)
        for p, (judgment, retries) in enumerate(results):
            retry_calls += retries
            trace.append("judgment", state.generation, round_no, {**vars(judgment), "pair_index": p, "retries": retries})
        barrier()
        judgments = tuple(judgment for judgment, _ in results)
        index = {member.id: i for i, member in enumerate(members)}
        records = [ComparisonRecord(index[j.left_id], index[j.right_id], j.outcome) for j in judgments]
        state = GenerationState(state.generation, members, judgments, fit_bt(records, n, lam=config.lam))
        trace.append("score-fit", state.generation, round_no, _score_payload(state))
        return state

    try:
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
            state = compare_and_score(state, config.k, schedule[t - 1])
            elites = select_elites(state.scores, n)
            discards = select_discards(state.scores, n)
            survivors = [i for i in range(n) if i not in discards]
            trace.append(
                "routing",
                state.generation,
                round_no,
                {
                    "elites": [state.members[i].id for i in sorted(elites)],
                    "discards": [state.members[i].id for i in sorted(discards)],
                    "mutation_parents": [state.members[i].id for i in survivors],
                },
            )
            trace.flush()

            mutation_seeds = [schedule[t - 1].mutate[i] for i in survivors]
            # each member's judgments, left and right sides, in judging order
            judged = {member.id: [] for member in state.members}
            for judgment in state.judgments:
                judged[judgment.left_id].append(judgment)
                judged[judgment.right_id].append(judgment)

            def mutate_task(i: int, seed: int, gen: int = t, source: GenerationState = state):
                member = source.members[i]
                feedback = aggregate_feedback(member.id, judged[member.id], strategy)
                prompt = render_mutation_prompt(
                    config.problem, member, feedback, include_restart_license=config.include_restart_license
                )
                request = CompletionRequest(
                    user_prompt=prompt,
                    system_prompt=prompts.GENERATION_SYSTEM_PROMPT,
                    temperature=config.temperature_generate,
                    seed=seed,
                    purpose=PURPOSE_MUTATE,
                )
                content = complete_candidate(backend, request, f"mutation round {gen}, member {member.id}")
                return Candidate(f"g{gen}-mut{i:03d}", content, gen, ORIGIN_MUTATED, parent_id=member.id)

            children = pool.run(
                [lambda i=i, seed=seed: mutate_task(i, seed) for i, seed in zip(survivors, mutation_seeds)]
            )
            primary_calls += len(children)
            next_state = assemble_next_generation(state, elites, discards, children)
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
        return selected, trace
    except BaseException as exc:
        trace.append("abort", -1, round_no, {"error": str(exc), "type": type(exc).__name__})
        trace.flush()
        raise
    finally:
        pool.close()


@dataclass
class ReplayResult:
    """Reconstructed run: one state per generation, plus the final selection."""

    states: list[GenerationState]
    selected_id: str | None
    config: dict | None


_RAW_DECODE = json.JSONDecoder().raw_decode
_RECORD_FIELDS = frozenset(("kind", "generation", "round", "payload", "schema_version"))


def _parse_trace_lines(lines) -> list[dict]:
    """The records of JSONL trace lines, skipping blank ones.

    A line that `raw_decode` reads to its end is taken as decoded; any other
    goes through json.loads, which accepts or rejects it, and words the error.
    """
    records = []
    for idx, line in enumerate(lines):
        try:
            record, end = _RAW_DECODE(line)
        except (ValueError, TypeError):
            end = None
        if end is None or end != len(line):
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
        records.append(record)
    return records


def _judgment(pair_index=None, retries=None, **fields) -> Judgment:
    """The Judgment of a judgment record's payload, less its trace-only fields."""
    return Judgment(**fields)


def replay(source) -> ReplayResult:
    """Rebuild every GenerationState (members, judgments, scores) from a trace.

    Accepts a RunTrace, a path to a trace file, or an iterable of JSONL lines.
    Raises ReplayError naming the offending record for corrupt input, and for
    truncated traces that never reached their summary record.
    """
    if isinstance(source, RunTrace):
        lines = source.to_jsonl().splitlines()
    elif isinstance(source, (str, Path)):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = list(source)
    records = _parse_trace_lines(lines)
    if not records:
        raise ReplayError("empty trace")

    config: dict | None = None
    candidates: dict[int, list[Candidate]] = {}
    judgments: dict[int, list[Judgment]] = {}
    fits: dict[int, ScoreVector] = {}
    selected_id: str | None = None
    summary_seen = False

    for idx, record in enumerate(records):
        kind, generation, payload = record["kind"], record["generation"], record["payload"]
        try:
            if kind == "config":
                config = payload
            elif kind == "candidate":
                candidates.setdefault(generation, []).append(Candidate(**payload))
            elif kind == "judgment":
                judgments.setdefault(generation, []).append(_judgment(**payload))
            elif kind == "score-fit":
                fits[generation] = ScoreVector(
                    scores=np.asarray(payload["scores"], dtype=np.float64),
                    lam=payload["lam"],
                    converged=payload["converged"],
                    iterations=payload["iterations"],
                )
            elif kind == "selection":
                selected_id = payload["selected_id"]
            elif kind == "summary":
                summary_seen = True
            elif kind in ("barrier", "routing", "abort"):
                pass
            else:
                raise ReplayError(f"record {idx}: unknown kind {kind!r}")
        except ReplayError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplayError(f"record {idx}: bad {kind} payload ({exc})") from exc

    if not summary_seen:
        raise ReplayError(f"truncated trace: no summary record (last record index {len(records) - 1})")

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
