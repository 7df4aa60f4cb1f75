"""End-to-end run orchestration: sample, evolve, final dense comparison, select.

A run costs exactly

    compute_budget(n, k, t, m) = n + t*(n*k/2 + 3n/4) + n*m/2

primary backend calls (parse retries are counted separately) and joins at
1 + 2t + 1 barriers: one after sampling, one after each generation's
comparisons and each generation's mutations, and one after the final round.

Seed discipline: every randomized step uses a child seed derived from
(root seed, round, purpose, index...) through numpy's SeedSequence, so no
result depends on scheduling order; traces are byte-identical across
parallelism limits.  Batch sites (sampling, each pair's order and judge
seeds, mutations) derive all their seeds up front in one `derive_seeds`
pass, bit-identical to calling `derive_seed` per index, and each
comparison round draws every pair's presentation order from its order
seed in one `seed_uniforms` pass, bit-identical to
`default_rng(order_seed).random()` per pair.  Rounds are numbered 1..t
for the evolution rounds and t+1 for the final comparison round.

The trace is line-delimited JSON, one record per line with fields
{kind, generation, round, payload, schema_version}.  Run-level records
(config, summary, abort) carry generation -1; candidate records carry their
own generation; judgment and score-fit records carry the generation of the
population being compared.  Records are flushed to disk as each batch
completes, so an aborted run keeps everything up to the last completed
barrier plus one abort record.
"""

from __future__ import annotations

import functools
import json
import logging
import operator
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import prompts
from .backends import (
    Backend,
    CompletionRequest,
    HttpBackend,
    SyntheticBackend,
    SyntheticWorldConfig,
)
from .btrank import ComparisonRecord, ScoreVector, fit_bt, rank
from .errors import BackendError, ConfigError, JudgeParseError, ReplayError, is_int
from .judging import Judgment, canonicalize, degraded_tie, parse_judge_reply, render_comparison_prompt
from .pairing import sample_pairing
from .population import (
    ORIGIN_MUTATED,
    ORIGIN_SAMPLED,
    Candidate,
    FeedbackStrategy,
    GenerationState,
    aggregate_feedback,
    assemble_next_generation,
    render_mutation_prompt,
    select_discards,
    select_elites,
)

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

# purpose codes for seed derivation; part of the documented scheme above
_P_SAMPLE = 0
_P_PAIRING = 1
_P_ORDER = 2
_P_JUDGE = 3
_P_RETRY = 4
_P_MUTATE = 5


def derive_seed(root: int, *path: int) -> int:
    """Child seed for (root, round, purpose, index...), stable across platforms."""
    return int(np.random.SeedSequence([root, *path]).generate_state(1, np.uint64)[0])


# SeedSequence's hash constants (numpy/random/bit_generator.pyx), replayed by _seed_state
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16


@functools.lru_cache(maxsize=None)
def _hash_chain(start: int, mult: int, count: int) -> np.ndarray:
    """start, start*mult, start*mult**2, ... modulo 2**32, as a (count, 1) column."""
    chain = [start]
    for _ in range(count - 1):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Consecutive hashmix calls, one per row of the result: row r xors with
    consts[r] and multiplies by consts[r + 1]; `values` broadcasts over rows."""
    out = values ^ consts[:-1]
    out *= consts[1:]
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words `x` with hashed words `y`, element by element."""
    out = x * _MIX_MULT_L
    out -= y * _MIX_MULT_R
    out ^= out >> _XSHIFT
    return out


def _entropy_words(value) -> list[int]:
    """An entropy integer as SeedSequence splits it: little-endian 32-bit words, at least one."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed path elements must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(entropy).generate_state(n_words, uint32) for every column
    of a (words, rows) uint32 entropy array, as an (n_words, rows) array.

    Replays the entropy mixing on all rows at once, with the four pool lanes
    stacked so a batch costs a few dozen ufunc calls.  Every row's entropy
    has the same length; zero words past the end of an entropy shorter than
    the pool change nothing, as SeedSequence hashes zeros there.
    """
    rows = entropy.shape[1]
    # mixing calls hashmix 4 times to fill the pool, 12 times to mix it and 4
    # times per entropy word past the pool; call c uses constants c and c + 1
    calls = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, len(entropy) - _POOL_SIZE)
    consts = _hash_chain(_INIT_A, _MULT_A, calls + 1)

    with np.errstate(over="ignore"):
        # fill the pool with the first words, hashing zeros past the end of the entropy
        pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
        pool[: len(entropy)] = entropy[:_POOL_SIZE]
        pool = _hashmix(pool, consts[: _POOL_SIZE + 1])
        # every lane mixes into every other lane; a source lane is not
        # changed while it is mixed into the other three
        call = _POOL_SIZE
        for src in range(_POOL_SIZE):
            dst = [lane for lane in range(_POOL_SIZE) if lane != src]
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[call : call + _POOL_SIZE]))
            call += _POOL_SIZE - 1
        # each remaining word mixes into all four lanes
        for word in entropy[_POOL_SIZE:]:
            pool = _mix(pool, _hashmix(word, consts[call : call + _POOL_SIZE + 1]))
            call += _POOL_SIZE
        # generate_state hashes the pool lanes in turn, cycling past the fourth
        lanes = pool[np.arange(n_words) % _POOL_SIZE]
        return _hashmix(lanes, _hash_chain(_INIT_B, _MULT_B, n_words + 1))


def _uint64_words(state: np.ndarray) -> np.ndarray:
    """Pairs of uint32 state rows read as uint64 rows, low word first."""
    return state[1::2].astype(np.uint64) << np.uint64(32) | state[0::2]


def derive_seeds(root: int, *path: int, indices) -> np.ndarray:
    """derive_seed(root, *path, i) for every i in `indices`, bit for bit, as uint64.

    One `_seed_state` pass over every index; each index must be below
    2**32, so that every row's entropy has the same length.
    """
    prefix = [word for value in (root, *path) for word in _entropy_words(value)]
    index = [operator.index(i) for i in indices]
    if index and not (min(index) >= 0 and max(index) <= _MASK32):
        raise ValueError("seed indices must lie in [0, 2**32)")
    entropy = np.empty((len(prefix) + 1, len(index)), dtype=np.uint32)
    entropy[:-1] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[-1] = index
    return _uint64_words(_seed_state(entropy, 2))[0]


# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def seed_uniforms(seeds) -> np.ndarray:
    """np.random.default_rng(s).random() for every seed in `seeds`, bit for bit.

    One `_seed_state` pass draws each seed's generate_state(4, uint64), the
    words PCG64 seeds from.  Every seed enters as two entropy words: a zero
    high word below 2**32 changes nothing, as SeedSequence hashes zeros
    past the end of its entropy.  PCG64's seeding (two LCG steps) and its
    first step and XSL-RR output then run on Python ints, and the top 53
    bits give the double.  Seeds must lie in [0, 2**64).
    """
    values = [operator.index(s) for s in seeds]
    if values and not (min(values) >= 0 and max(values) <= _MASK64):
        raise ValueError("seeds must lie in [0, 2**64)")
    entropy = np.array([[v & _MASK32 for v in values], [v >> 32 for v in values]], dtype=np.uint32)
    words = _uint64_words(_seed_state(entropy, 8)).tolist()
    out = []
    for high, low, inc_high, inc_low in zip(*words):
        inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        # seeding: state = inc, state = (state + seed) * M + inc; then the draw's own step
        state = (((inc + (high << 64 | low)) * _PCG_MULT + inc) * _PCG_MULT + inc) & _MASK128
        folded = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        out.append(((folded >> rot | folded << (64 - rot)) & _MASK64) >> 11)
    return np.array(out, dtype=np.float64) * 2.0**-53


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
    """Everything that determines a run's outputs.

    Execution limits (parallelism) are deliberately not part of the config:
    they must not change results, and the config echo embedded in outputs
    must be identical across them.
    """

    problem: str
    n: int = 20
    k: int = 4
    generations: int = 3
    final_k: int = 10
    lam: float = 0.01
    seed: int = 0
    feedback_strategy: FeedbackStrategy = FeedbackStrategy("pairwise-K", 4)
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

    def echo(self) -> dict:
        """JSON-ready copy of the resolved config, embedded in every artifact."""
        return asdict(self)


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
        if self.path is None:
            self._flushed = len(self.records)
            return
        if self._flushed < len(self.records):
            with open(self.path, "a", encoding="utf-8") as sink:
                for record in self.records[self._flushed :]:
                    sink.write(_dump_record(record) + "\n")
        self._flushed = len(self.records)

    def to_jsonl(self) -> str:
        return "".join(_dump_record(record) + "\n" for record in self.records)

    def records_of_kind(self, kind: str) -> list[dict]:
        return [record for record in self.records if record["kind"] == kind]


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dump_record(record: dict) -> str:
    return _ENCODER.encode(record)


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
    seeds = derive_seeds(seed, 0, _P_SAMPLE, indices=range(n)).tolist()

    def sample_task(i: int) -> Candidate:
        request = CompletionRequest(
            user_prompt=problem,
            system_prompt=prompts.GENERATION_SYSTEM_PROMPT,
            temperature=temperature,
            seed=seeds[i],
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

    def compare_and_score(state: GenerationState, degree: int) -> GenerationState:
        """Pair the generation at the given degree, judge and trace every pair,
        then fit and trace the scores."""
        nonlocal primary_calls, retry_calls
        members = state.members
        plan = sample_pairing(n, degree, derive_seed(config.seed, round_no, _P_PAIRING, 0))
        pair_indices = range(len(plan.pairs))
        order_seeds = derive_seeds(config.seed, round_no, _P_ORDER, indices=pair_indices).tolist()
        left_first = (seed_uniforms(order_seeds) < 0.5).tolist()
        judge_seeds = derive_seeds(config.seed, round_no, _P_JUDGE, indices=pair_indices).tolist()
        tasks = [
            (
                lambda p=p, i=i, j=j, r=round_no: _judge_pair(
                    backend, config, members[i], members[j], r, p, order_seeds[p], left_first[p], judge_seeds[p]
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
            state = compare_and_score(state, config.k)
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

            mutation_seeds = derive_seeds(config.seed, t, _P_MUTATE, indices=survivors).tolist()
            # each member's judgments, left and right sides, in judging order
            judged = {member.id: [] for member in state.members}
            for judgment in state.judgments:
                judged[judgment.left_id].append(judgment)
                judged[judgment.right_id].append(judgment)

            def mutate_task(i: int, seed: int, gen: int = t, source: GenerationState = state):
                member = source.members[i]
                feedback = aggregate_feedback(member.id, judged[member.id], config.feedback_strategy)
                prompt = render_mutation_prompt(
                    config.problem, member, feedback, include_restart_license=config.include_restart_license
                )
                request = CompletionRequest(
                    user_prompt=prompt,
                    system_prompt=prompts.GENERATION_SYSTEM_PROMPT,
                    temperature=config.temperature_generate,
                    seed=seed,
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
        state = compare_and_score(state, config.final_k)
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


def _parse_trace_lines(lines) -> list[dict]:
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
        if record["schema_version"] != SCHEMA_VERSION:
            raise ReplayError(f"record {idx}: unsupported schema_version {record['schema_version']!r}")
        records.append(record)
    return records


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
                fields = {k: v for k, v in payload.items() if k not in ("pair_index", "retries")}
                judgments.setdefault(generation, []).append(Judgment(**fields))
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
