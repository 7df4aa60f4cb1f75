"""The benchmark's workloads (`http` is run by hand only): inputs built from a seed, one op, and its checks.

Each workload holds a fixed list of distinct ops built from the seed.  The
runner executes PASSES passes over the list; `run` is the timed
call into btevolve and `check` verifies its output outside the timed region
against `oracles`, which never calls btevolve.  Calls go through module
attributes (`pipeline.run_pipeline`, `scaling.sweep_grid`, ...) so that the
traced run can wrap them.
"""

from __future__ import annotations

import json
import re
import statistics
import threading
from pathlib import Path

import numpy as np
import requests

import oracles
from btevolve import (
    CompletionRequest,
    HttpBackend,
    ProblemOutcome,
    RunConfig,
    SyntheticBackend,
    SyntheticWorldConfig,
    elo,
    pipeline,
    scaling,
)


class CheckFailed(Exception):
    """An output of btevolve disagrees with the oracle or a required property."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


PASSES = 3  # every op runs three times, so one slow run of an op cannot move its median


def op_count(seconds: int, op_seconds: float) -> int:
    """Distinct ops per run: enough that PASSES passes last about `seconds`
    on a 2-core 2.1 GHz Xeon VM, where one op and the calibration kernel
    beside it take `op_seconds`.  Fixed by the arguments, never by the clock."""
    return max(1, round(seconds / (PASSES * op_seconds)))


_THETA = re.compile(r"theta=([-+]?\d+\.\d+)")

_VERBS = ("sort", "deduplicate", "merge", "rotate", "partition", "compress", "reverse", "rank")
_ITEMS = ("integers", "intervals", "strings", "graph edges", "timestamps", "points", "words", "records")
_LIMITS = ("in O(n log n) time", "with O(1) extra memory", "in a single pass", "without recursion", "stably")


def problem_text(rng: np.random.Generator) -> str:
    """A short plain-prose task; it holds none of the markers the synthetic backend routes on."""
    verb, items, limit = (str(rng.choice(words)) for words in (_VERBS, _ITEMS, _LIMITS))
    size = int(rng.integers(10, 10**6))
    return f"Write a program to {verb} up to {size} {items} {limit}. Read stdin and print the result."


class CountingBackend:
    """Counts the calls run_pipeline makes on the backend it is handed."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self._lock = threading.Lock()
        self._calls = 0

    def complete(self, request: CompletionRequest) -> str:
        with self._lock:
            self._calls += 1
        return self.inner.complete(request)

    def take(self) -> int:
        with self._lock:
            calls, self._calls = self._calls, 0
        return calls


class Evolve:
    """One op: a synthetic run_pipeline at n=20, k=4, T=3, final_k=10, then replay of its trace."""

    name = "evolve"
    parallelism = 1
    op_seconds = 0.07

    def __init__(self, seed: int, seconds: int, out_dir: Path) -> None:
        rng = np.random.default_rng([seed, 1])
        self.ops = [
            RunConfig(problem=problem_text(rng), seed=int(rng.integers(2**31)))
            for _ in range(op_count(seconds, self.op_seconds))
        ]
        self.trace_path = out_dir / f"{self.name}.trace.jsonl"
        self.backend = CountingBackend(self.make_backend())
        self.executions: list[dict] = []  # per-execution counts for the traced run
        self.selected_theta: list[float] = []
        self.sampled_theta: list[float] = []

    def make_backend(self):
        return SyntheticBackend()

    def run(self, config: RunConfig):
        selected, _ = pipeline.run_pipeline(
            config, backend=self.backend, parallelism=self.parallelism, trace_path=self.trace_path
        )
        return selected, pipeline.replay(self.trace_path).selected_id

    def reset(self) -> None:
        """Drop counts left by calls made outside the op list (the warm-up)."""
        self.backend.take()

    def check(self, index: int, config: RunConfig, result) -> None:
        selected, replayed_id = result
        calls = self.backend.take()
        data = self.trace_path.read_bytes()
        records = [json.loads(line) for line in data.splitlines()]
        retries = sum(r["payload"]["retries"] for r in records if r["kind"] == "judgment")
        self.selected_theta.append(float(_THETA.search(selected.content).group(1)))
        self.sampled_theta.extend(
            float(_THETA.search(r["payload"]["content"]).group(1))
            for r in records
            if r["kind"] == "candidate" and r["generation"] == 0
        )
        t = config.generations
        budget = oracles.call_budget(config.n, config.k, t, config.final_k)
        expect(calls == budget + retries, f"{calls} backend calls, expected {budget} + {retries} retries")
        barriers = sum(r["kind"] == "barrier" for r in records)
        expect(barriers == oracles.barrier_count(t), f"{barriers} barrier records, expected {oracles.barrier_count(t)}")
        expect(replayed_id == selected.id, f"replay selected {replayed_id}, run selected {selected.id}")

        final_ids = [r["payload"]["id"] for r in records if r["kind"] == "candidate" and r["generation"] == t]
        where = {cid: i for i, cid in enumerate(final_ids)}
        sign = {"left-wins": 1, "right-wins": -1, "tie": 0}
        results = [
            (where[p["left_id"]], where[p["right_id"]], sign[p["outcome"]])
            for r in records
            if r["kind"] == "judgment" and r["round"] == t + 1
            for p in (r["payload"],)
        ]
        top, gap = oracles.top_two(oracles.bt_fit(oracles.win_matrix(len(final_ids), results), config.lam))
        expect(
            gap < oracles.NEAR_TIE or final_ids[top] == selected.id,
            f"selected {selected.id}, oracle fit of the final round picks {final_ids[top]}",
        )
        self.executions.append({"calls": calls, "retries": retries, "trace_bytes": len(data), **self.server_counts(calls)})
        if index == 0 and len(self.executions) == 1:
            self.check_parallel_trace(config, data)

    def server_counts(self, calls: int) -> dict:
        return {}

    def check_parallel_trace(self, config: RunConfig, serial: bytes) -> None:
        path = self.trace_path.with_suffix(".parallel.jsonl")
        pipeline.run_pipeline(config, backend=SyntheticBackend(), parallelism=2, trace_path=path)
        expect(path.read_bytes() == serial, "trace at parallelism 2 differs from the trace at parallelism 1")

    def finish(self) -> None:
        expect(bool(self.selected_theta), "no op completed")
        selected, sampled = statistics.fmean(self.selected_theta), statistics.fmean(self.sampled_theta)
        expect(selected > sampled, f"mean theta of selections {selected:.3f} <= mean of samples {sampled:.3f}")


class Http(Evolve):
    """The evolve op sent through HttpBackend at parallelism 2 to the stand-in server."""

    name = "http"
    parallelism = 2
    op_seconds = 0.9

    def __init__(self, seed: int, seconds: int, out_dir: Path, server_url: str) -> None:
        self.server_url = server_url
        super().__init__(seed, seconds, out_dir)
        options = {"base_url": f"{server_url}/v1/complete", "timeout": 30.0, "transport_retries": 0}
        self.ops = [
            RunConfig(problem=c.problem, seed=c.seed, backend="http", backend_options=options) for c in self.ops
        ]

    def make_backend(self):
        # no transport retries: a retry would hide from the call count and sleep inside the timing
        return HttpBackend(base_url=f"{self.server_url}/v1/complete", timeout=30.0, transport_retries=0)

    def stats(self) -> dict:
        return requests.get(f"{self.server_url}/stats", timeout=30.0).json()

    def reset(self) -> None:
        super().reset()
        self.stats()

    def server_counts(self, calls: int) -> dict:
        served = self.stats()
        expect(served["requests"] == calls, f"server saw {served['requests']} requests, client made {calls} calls")
        return {"connections": served["connections"]}

    def check_parallel_trace(self, config: RunConfig, serial: bytes) -> None:
        pass  # the server's replies depend on arrival order, so http traces are not reproducible


class Simulate:
    """One op: sweep_grid over budgets 30/60/120 x populations 4/8/20 on a pre-judged pool of 40."""

    name = "simulate"
    op_seconds = 0.29
    pool = 40
    budgets = (30, 60, 120)
    populations = (4, 8, 20)
    trials = 15

    def __init__(self, seed: int, seconds: int, out_dir: Path) -> None:
        rng = np.random.default_rng([seed, 2])
        self.matrix = scaling.generate_matrix(self.pool, SyntheticWorldConfig(), int(rng.integers(2**31)))
        self.ops = [int(rng.integers(2**31)) for _ in range(op_count(seconds, self.op_seconds))]
        self.first: dict[int, list] = {}

    def run(self, seed: int):
        return scaling.sweep_grid(self.matrix, self.budgets, self.populations, self.trials, seed)

    def reset(self) -> None:
        pass

    def check(self, index: int, seed: int, cells) -> None:
        if index in self.first:
            expect(cells == self.first[index], f"op {index} gave a different grid on a later pass")
            return
        self.first[index] = cells
        grid = [(b, n) for b in self.budgets for n in self.populations]
        expect([(c.budget, c.n) for c in cells] == grid, "cells are not the grid in row-major order")
        for cell in cells:
            m = 2 * (cell.budget - cell.n) // cell.n
            where = f"cell B={cell.budget} n={cell.n}"
            expect(cell.m == m and cell.feasible == (m >= 1), f"{where}: m={cell.m} feasible={cell.feasible}")
            expect(cell.trials == self.trials, f"{where}: {cell.trials} trials")
            expect(0 <= cell.top1_hits <= cell.trials_with_accepted <= cell.trials, f"{where}: counts out of order")
            expect(cell.top1_accuracy == cell.top1_hits / cell.trials, f"{where}: accuracy is not hits/trials")
            if cell.feasible:
                hits, with_accepted, near_ties = self.oracle_cell(seed, cell.budget, cell.n, m)
                expect(cell.trials_with_accepted == with_accepted, f"{where}: trials with an accepted candidate")
                expect(abs(cell.top1_hits - hits) <= near_ties, f"{where}: {cell.top1_hits} hits, oracle {hits}")

    def oracle_cell(self, seed: int, budget: int, n: int, m: int) -> tuple[int, int, int]:
        """Every trial re-derived by simulate_cell's documented seed scheme and
        fitted by the oracle: (top-1 hits, trials with an accepted candidate, near ties)."""
        labels, outcomes = self.matrix.labels, self.matrix.outcomes
        hits = with_accepted = near_ties = 0
        for trial in range(self.trials):
            rng = np.random.default_rng(np.random.SeedSequence([seed, budget, n, trial]))
            sample = [int(c) for c in np.sort(rng.permutation(self.pool)[:n])]
            results = []
            for _ in range(m):
                perm = rng.permutation(n)
                for a, b in zip(perm[0::2].tolist(), perm[1::2].tolist()):
                    low, high = sorted((sample[a], sample[b]))
                    outcome = outcomes[(low, high)]
                    first_won = outcome == "first-wins"
                    results.append((a, b, 0 if outcome == "tie" else (1 if first_won == (sample[a] == low) else -1)))
            top, gap = oracles.top_two(oracles.bt_fit(oracles.win_matrix(n, results)))
            hits += labels[sample[top]]
            with_accepted += any(labels[c] for c in sample)
            near_ties += gap < oracles.NEAR_TIE
        return hits, with_accepted, near_ties

    def finish(self) -> None:
        pass


class Elo:
    """One op: elo.estimate (MAP plus a 1000-resample bootstrap) on 73 rated problems."""

    name = "elo"
    op_seconds = 0.34
    problems = 73
    resamples = 1000
    prior = (3100.0, 500.0)
    bounds = (1000.0, 5000.0)

    def __init__(self, seed: int, seconds: int, out_dir: Path) -> None:
        rng = np.random.default_rng([seed, 3])
        self.ops = []
        for _ in range(op_count(seconds, self.op_seconds)):
            true_rating = rng.uniform(1800.0, 3200.0)
            ratings = rng.uniform(800.0, 3600.0, self.problems)
            solved = rng.random(self.problems) < 1.0 / (1.0 + 10.0 ** ((ratings - true_rating) / 400.0))
            outcomes = [ProblemOutcome.bernoulli(float(r), bool(s)) for r, s in zip(ratings, solved)]
            self.ops.append((outcomes, int(rng.integers(2**31))))
        self.first: dict[int, object] = {}

    def run(self, op):
        outcomes, boot_seed = op
        return elo.estimate(outcomes, *self.prior, self.bounds, self.resamples, boot_seed)

    def reset(self) -> None:
        pass

    def check(self, index: int, op, result) -> None:
        if index in self.first:
            expect(result == self.first[index], f"op {index} gave a different estimate on a later pass")
            return
        self.first[index] = result
        outcomes, boot_seed = op
        ratings = np.array([o.problem_rating for o in outcomes])
        wins = np.array([o.successes for o in outcomes], dtype=np.float64)
        trials = np.array([o.trials for o in outcomes], dtype=np.float64)
        rating = float(oracles.elo_map(ratings, wins, trials, *self.prior, self.bounds)[0])
        expect(abs(result.rating - rating) <= 0.01, f"MAP {result.rating:.4f}, oracle {rating:.4f}")
        expect(result.ci_low <= result.rating <= result.ci_high, f"MAP outside its interval: {result}")
        # the resamples bootstrap_ci draws: one integers(0, count, count) call per resample
        picks = np.random.default_rng(boot_seed).integers(0, len(outcomes), size=(self.resamples, len(outcomes)))
        maps = oracles.elo_map(ratings[picks], wins[picks], trials[picks], *self.prior, self.bounds)
        low, high = oracles.percentile(maps, 2.5), oracles.percentile(maps, 97.5)
        expect(
            abs(result.ci_low - low) <= 0.01 and abs(result.ci_high - high) <= 0.01,
            f"interval [{result.ci_low:.4f}, {result.ci_high:.4f}], oracle [{low:.4f}, {high:.4f}]",
        )

    def finish(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (Evolve, Simulate, Elo, Http)}
