"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Every test here re-verifies a headline property end to end and prints exactly
one "ACCEPTANCE <name>: PASS" or "... FAIL" line, so the suite output doubles
as a release checklist.  Oracles are independent re-derivations (pure-Python
objective, nested grid refinement, exhaustive enumeration, 0.01-step grid
scans); they must not be replaced with calls into the code they check.
"""

import itertools
import math
import string

import numpy as np
from scipy.stats import kendalltau

from conftest import CountingBackend, ScriptedBackend, judge_reply
from btevolve.backends import (
    CompletionRequest,
    SyntheticBackend,
    SyntheticWorldConfig,
    format_candidate,
    parse_theta,
)
from btevolve.baselines import (
    LabeledPair,
    PointwiseVerdict,
    judge_diagnostic,
    pointwise_top1_expected_accuracy,
    self_refine,
)
from btevolve.btrank import (
    LEFT_WINS,
    RIGHT_WINS,
    TIE,
    ComparisonRecord,
    bt_gradient,
    bt_objective,
    fit_bt,
    rank,
)
from btevolve.elo import ProblemOutcome, bootstrap_ci, map_estimate, solve_probability
from btevolve.errors import ConfigError, JudgeParseError
from btevolve.judging import canonicalize, parse_judge_reply, render_comparison_prompt
from btevolve.pairing import sample_pairing
from btevolve.pipeline import RunConfig, compute_budget, derive_seed, replay, run_pipeline
from btevolve.population import Candidate, FeedbackStrategy
from btevolve.scaling import (
    FIRST_WINS,
    MATRIX_TIE,
    SECOND_WINS,
    generate_matrix,
    round_robin_schedule,
    simulate_cell,
)


def _check(name: str, failures: list, detail: str = "") -> None:
    note = "; ".join(failures) if failures else detail
    print(f"ACCEPTANCE {name}: {'FAIL' if failures else 'PASS'}" + (f" ({note})" if note else ""))
    assert not failures, f"{name}: {note}"


def _random_instance(rng):
    n = int(rng.integers(2, 11))
    count = int(rng.integers(1, 31))
    records = []
    for _ in range(count):
        left, right = rng.choice(n, size=2, replace=False)
        outcome = (LEFT_WINS, RIGHT_WINS, TIE)[int(rng.integers(0, 3))]
        records.append(ComparisonRecord(int(left), int(right), outcome))
    return records, n


def test_budget_arithmetic():
    failures = []
    for args, expected in (((20, 4, 3, 10), 285), ((12, 4, 2, 10), 138)):
        got = compute_budget(*args)
        if got != expected:
            failures.append(f"compute_budget{args} = {got}, expected {expected}")
    _check("budget-arithmetic", failures, "285 and 138 exact")


def test_sequential_barrier_depth():
    # default-shaped run: also pins the 285 primary calls end to end
    config = RunConfig(problem="barrier depth check", n=20, k=4, generations=3, final_k=10, seed=2)
    _, trace = run_pipeline(config)
    barriers = len(trace.records_of_kind("barrier"))
    primary = trace.records_of_kind("summary")[0]["payload"]["primary_calls"]
    failures = []
    if barriers != 8:
        failures.append(f"{barriers} barriers at T=3, expected 8")
    if primary != 285:
        failures.append(f"{primary} primary calls, expected 285")
    _check("sequential-depth", failures, f"{barriers} barriers, {primary} calls")


def _naive_objective(s, records, lam=0.01):
    """Independent pure-Python restatement: ties count as two half-wins."""
    total = 0.0
    for rec in records:
        p_left = 1.0 / (1.0 + math.exp(-(s[rec.left] - s[rec.right])))
        if rec.outcome == LEFT_WINS:
            total += math.log(p_left)
        elif rec.outcome == RIGHT_WINS:
            total += math.log(1.0 - p_left)
        else:
            total += 0.5 * math.log(p_left) + 0.5 * math.log(1.0 - p_left)
    return total - 0.5 * lam * sum(v * v for v in s)


def _grid_refine_fit(records, n, lam=0.01):
    """Coordinate ascent where each coordinate is located by a nested grid scan."""
    s = [0.0] * n

    def coord_value(i, v):
        trial = list(s)
        trial[i] = v
        return _naive_objective(trial, records, lam)

    # convergence is linear (rate ~0.95/sweep here), so the cap must be generous
    for _ in range(400):
        moved = 0.0
        for i in range(n):
            center, width = s[i], 8.0
            while width > 1e-9:
                # 17-point scan; /8 keeps the next window over the argmax cell
                grid = [center + width * (g / 16.0 - 0.5) for g in range(17)]
                center = max(grid, key=lambda v: coord_value(i, v))
                width /= 8.0
            moved = max(moved, abs(center - s[i]))
            s[i] = center
        if moved < 1e-10:
            break
    mean = sum(s) / n
    return [v - mean for v in s]


_EIGHT_CANDIDATE_RECORDS = [
    ComparisonRecord(*args)
    for args in [
        (0, 1, LEFT_WINS), (0, 2, LEFT_WINS), (0, 3, TIE),
        (1, 2, RIGHT_WINS), (1, 4, LEFT_WINS), (2, 3, LEFT_WINS),
        (3, 4, TIE), (4, 5, LEFT_WINS), (5, 6, RIGHT_WINS),
        (6, 7, LEFT_WINS), (7, 0, RIGHT_WINS), (5, 2, RIGHT_WINS),
        (6, 1, TIE), (7, 3, RIGHT_WINS), (4, 2, RIGHT_WINS),
        (5, 7, LEFT_WINS), (1, 3, LEFT_WINS), (6, 0, RIGHT_WINS),
    ]
]


def test_ranking_fit_correctness():
    failures = []

    rng = np.random.default_rng(424242)
    worst_rel = 0.0
    for _ in range(100):
        records, n = _random_instance(rng)
        point = rng.normal(0.0, 1.5, size=n)
        grad = bt_gradient(point, records)
        fd = np.empty(n)
        h = 1e-6
        for i in range(n):
            up, down = point.copy(), point.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (bt_objective(up, records) - bt_objective(down, records)) / (2 * h)
        if not np.allclose(grad, fd, rtol=1e-5, atol=1e-8):
            failures.append("analytic gradient disagrees with central differences")
            break
        worst_rel = max(worst_rel, float(np.max(np.abs(grad - fd) / (np.abs(fd) + 1e-8))))

    rng = np.random.default_rng(31415)
    for _ in range(50):
        records, n = _random_instance(rng)
        fit = fit_bt(records, n)
        if abs(float(np.sum(fit.scores))) > 1e-6:
            failures.append(f"zero-sum violated: sum={float(np.sum(fit.scores)):.2e}")
            break
        if not fit.converged:
            failures.append("fit reported non-convergence on a random instance")
            break

    cycle = [
        ComparisonRecord(0, 1, LEFT_WINS),
        ComparisonRecord(1, 2, LEFT_WINS),
        ComparisonRecord(2, 0, LEFT_WINS),
    ]
    cycle_fit = fit_bt(cycle, 3)
    if float(np.max(np.abs(cycle_fit.scores))) > 1e-6:
        failures.append("3-cycle symmetry broken: scores not all equal")

    fit = fit_bt(_EIGHT_CANDIDATE_RECORDS, 8)
    oracle = _grid_refine_fit(_EIGHT_CANDIDATE_RECORDS, 8)
    gap = float(np.max(np.abs(fit.scores - np.array(oracle))))
    if gap > 1e-4:
        failures.append(f"8-candidate fit differs from grid oracle by {gap:.2e}")

    _check(
        "ranking-correctness",
        failures,
        f"gradient rel err {worst_rel:.1e}, grid-oracle gap {gap:.1e}",
    )


def test_ranking_recovery_under_noisy_judge():
    backend = SyntheticBackend(SyntheticWorldConfig(judge_mode="logistic"))
    latents = np.arange(20, dtype=float)  # spacing exactly 1.0, the hardest allowed
    candidates = [
        Candidate(f"c{i:02d}", format_candidate(latents[i]), 0, "sampled") for i in range(20)
    ]
    passes = 0
    for trial in range(100):
        records = []
        pair_index = 0
        for i in range(19):
            for j in range(i + 1, 20):
                task = render_comparison_prompt(
                    "recover the order", candidates[i], candidates[j],
                    derive_seed(trial, 0, 2, pair_index),
                )
                reply = backend.complete(CompletionRequest(
                    task.prompt_text, temperature=0.0, seed=derive_seed(trial, 0, 3, pair_index),
                ))
                winner, fa, fb = parse_judge_reply(reply)
                records.append(ComparisonRecord(i, j, canonicalize(task, winner, fa, fb).outcome))
                pair_index += 1
        tau = kendalltau(fit_bt(records, 20).scores, latents).statistic
        if tau >= 0.9:
            passes += 1
    failures = [] if passes >= 95 else [f"tau >= 0.9 in only {passes}/100 trials"]
    _check("ranking-recovery", failures, f"tau >= 0.9 in {passes}/100 trials")


def test_opponent_strength_adjustment():
    # x and y are both 2-0, but x beat the candidates that beat y's victims
    records = [
        ComparisonRecord(0, 2, LEFT_WINS), ComparisonRecord(0, 3, LEFT_WINS),
        ComparisonRecord(1, 4, LEFT_WINS), ComparisonRecord(1, 5, LEFT_WINS),
        ComparisonRecord(2, 4, LEFT_WINS), ComparisonRecord(2, 5, LEFT_WINS),
        ComparisonRecord(3, 4, LEFT_WINS), ComparisonRecord(3, 5, LEFT_WINS),
    ]
    fit = fit_bt(records, 6)
    failures = []
    if not fit.scores[0] > fit.scores[1]:
        failures.append(f"strong-schedule score {fit.scores[0]:.4f} <= {fit.scores[1]:.4f}")
    if rank(fit)[0] != 0:
        failures.append("strong-schedule candidate not ranked first")
    _check(
        "opponent-strength", failures,
        f"scores {fit.scores[0]:.3f} > {fit.scores[1]:.3f} despite equal win rates",
    )


def test_pairing_regularity_and_coverage():
    failures = []
    n, k, samples = 20, 4, 1000
    counts = {}
    for seed in range(samples):
        plan = sample_pairing(n, k, seed)
        degrees = [0] * n
        seen = set()
        for a, b in plan.pairs:
            if not (0 <= a < b < n):
                failures.append(f"seed {seed}: malformed pair ({a}, {b})")
            if (a, b) in seen:
                failures.append(f"seed {seed}: duplicate pair ({a}, {b})")
            seen.add((a, b))
            degrees[a] += 1
            degrees[b] += 1
            counts[(a, b)] = counts.get((a, b), 0) + 1
        if degrees != [k] * n:
            failures.append(f"seed {seed}: degrees {sorted(set(degrees))} != {k}")
        if failures:
            break

    expected = samples * k / (n - 1)
    if len(counts) != n * (n - 1) // 2:
        failures.append(f"only {len(counts)} of {n * (n - 1) // 2} pairs ever drawn")
    lo = min(counts.values()) if counts else 0
    hi = max(counts.values()) if counts else 0
    if counts and not (0.7 * expected <= lo and hi <= 1.3 * expected):
        failures.append(f"pair frequency [{lo}, {hi}] outside +/-30% of {expected:.1f}")

    for bad_n, bad_k in ((5, 3), (3, 1)):
        try:
            sample_pairing(bad_n, bad_k, 0)
            failures.append(f"odd n*k ({bad_n}, {bad_k}) was accepted")
        except ValueError:
            pass
    _check(
        "pairing", failures,
        f"1000 plans regular, pair counts [{lo}, {hi}] around {expected:.1f}",
    )


def _scripted_run(pair0_replies, pair1_replies):
    config = RunConfig(
        problem="p", n=4, k=1, generations=1, final_k=1, seed=5,
        feedback_strategy=FeedbackStrategy("pairwise-all"),
    )
    replies = [f"sample-{i}" for i in range(4)]
    replies += pair0_replies + pair1_replies
    replies += [f"child-{i}" for i in range(3)]
    replies += [judge_reply("B"), judge_reply("TIE")]
    backend = ScriptedBackend(replies)
    _, trace = run_pipeline(config, backend=backend)
    return backend, trace


def test_judge_retry_balance_and_fuzz():
    failures = []

    backend, trace = _scripted_run(["not json", judge_reply("A")], [judge_reply("TIE")])
    first = [r for r in trace.records_of_kind("judgment") if r["round"] == 1][0]["payload"]
    if backend.replies:
        failures.append("retry run did not consume the scripted replies exactly")
    if first["retries"] != 1 or first["degraded"] or first["outcome"] == TIE:
        failures.append(f"retry did not adopt the second (valid) reply: {first}")

    _, trace = _scripted_run(["garbage", "more garbage"], [judge_reply("A")])
    first = [r for r in trace.records_of_kind("judgment") if r["round"] == 1][0]["payload"]
    if not first["degraded"] or first["outcome"] != TIE:
        failures.append(f"double parse failure did not degrade to a tie: {first}")

    left = Candidate("L", "left body", 0, "sampled")
    right = Candidate("R", "right body", 0, "sampled")
    first_count = sum(
        render_comparison_prompt("q", left, right, seed).presented_first == "L"
        for seed in range(1000)
    )
    if not 450 <= first_count <= 550:
        failures.append(f"presentation balance {first_count}/1000 outside [0.45, 0.55]")

    rng = np.random.default_rng(123)
    alphabet = list(string.printable) + list('{}":') * 5
    crashes = 0
    for _ in range(10_000):
        raw = "".join(rng.choice(alphabet, size=int(rng.integers(0, 61))))
        try:
            parse_judge_reply(raw)
        except JudgeParseError:
            pass
        except Exception:  # anything else is a crash
            crashes += 1
    if crashes:
        failures.append(f"{crashes} fuzz inputs escaped the parse-error contract")

    _check(
        "judge-protocol", failures,
        f"retry/degrade verified, balance {first_count}/1000, 10k fuzz clean",
    )


def test_population_turnover_invariants():
    failures = []
    n = 8
    config = RunConfig(problem="turnover", n=n, k=3, generations=2, final_k=5, seed=31)
    _, trace = run_pipeline(config)
    result = replay(trace)

    sizes = [len(state.members) for state in result.states]
    if sizes != [n, n, n]:
        failures.append(f"generation sizes {sizes} != [{n}, {n}, {n}]")

    routing = trace.records_of_kind("routing")
    for record in routing:
        gen = record["generation"]
        payload = record["payload"]
        if len(payload["elites"]) != n // 4 or len(payload["discards"]) != n // 4:
            failures.append(f"gen {gen}: quartile sizes wrong: {payload}")
        parents = {c.id: c for c in result.states[gen].members}
        children = result.states[gen + 1].members
        carried = [c for c in children if c.origin == "elite-carryover"]
        mutated = [c for c in children if c.origin == "mutated"]
        if len(mutated) != 3 * n // 4:
            failures.append(f"gen {gen}: {len(mutated)} mutated children, expected {3 * n // 4}")
        if sorted(c.parent_id for c in carried) != payload["elites"]:
            failures.append(f"gen {gen}: carryover parents do not match the elite set")
        for child in carried:
            if child.content.encode() != parents[child.parent_id].content.encode():
                failures.append(f"gen {gen}: elite {child.parent_id} not byte-identical")

    try:
        RunConfig(problem="bad", n=10, k=3, generations=1, final_k=5, seed=0)
        failures.append("population size 10 (not divisible by 4) was accepted")
    except ConfigError:
        pass

    _check("population-invariants", failures, "sizes, quartiles, byte-identical elites")


def test_end_to_end_synthetic_gains():
    threshold = SyntheticWorldConfig().acceptance_threshold
    world_opts = {"feedback_bonus": 0.05}
    problems = 200
    gen0_accepts = gen0_total = final_accepts = selection_accepts = 0
    for p in range(problems):
        shared = dict(problem=f"synthetic problem {p}", n=12, k=4, final_k=10,
                      seed=p, backend_options=dict(world_opts))
        selected, trace = run_pipeline(RunConfig(generations=3, **shared))
        if parse_theta(selected.content) >= threshold:
            final_accepts += 1
        for record in trace.records_of_kind("candidate"):
            if record["generation"] == 0:
                gen0_total += 1
                gen0_accepts += parse_theta(record["payload"]["content"]) >= threshold
        # same seed reuses the identical generation-0 pool: selection-only arm
        only_selected, _ = run_pipeline(RunConfig(generations=0, **shared))
        if parse_theta(only_selected.content) >= threshold:
            selection_accepts += 1

    gen0 = gen0_accepts / gen0_total
    final = final_accepts / problems
    selection = selection_accepts / problems
    failures = []
    if not 0.05 <= gen0 <= 0.15:
        failures.append(f"gen-0 pass@1 {gen0:.3f} not around 0.1")
    if final < gen0 + 0.15:
        failures.append(f"final accept {final:.3f} < gen-0 {gen0:.3f} + 0.15")
    if not final > selection:
        failures.append(f"final accept {final:.3f} <= selection-only {selection:.3f}")
    _check(
        "end-to-end-efficacy", failures,
        f"gen-0 {gen0:.3f}, selection-only {selection:.3f}, evolved {final:.3f}",
    )


def test_trace_determinism_across_parallelism():
    config = RunConfig(problem="determinism", n=12, k=4, generations=2, final_k=10, seed=42)
    traces = [run_pipeline(config, parallelism=p)[1].to_jsonl().encode() for p in (1, 8, 1)]
    failures = []
    if traces[0] != traces[1]:
        failures.append("parallelism 8 trace differs from parallelism 1")
    if traces[0] != traces[2]:
        failures.append("repeat run with identical config/seed differs")
    _check("determinism", failures, f"{len(traces[0])} trace bytes identical across reruns")


def _grid_rating(outcomes, prior_mean=3100.0, prior_std=500.0):
    """0.01-step scan of the log posterior over the full rating range."""
    grid = np.arange(1000.0, 5000.0 + 0.005, 0.01)
    logpost = -((grid - prior_mean) ** 2) / (2.0 * prior_std**2)
    for oc in outcomes:
        p = 1.0 / (1.0 + 10.0 ** ((oc.problem_rating - grid) / 400.0))
        logpost += oc.successes * np.log(p) + (oc.trials - oc.successes) * np.log1p(-p)
    return float(grid[np.argmax(logpost)])


def test_rating_estimation_accuracy():
    failures = []

    for rating in (2000.0, 3000.0, 3100.0):
        if solve_probability(rating, rating) != 0.5:
            failures.append(f"solve_probability({rating}, {rating}) != 0.5")

    symmetric = [ProblemOutcome.bernoulli(3100.0, True), ProblemOutcome.bernoulli(3100.0, False)]
    sym_map = map_estimate(symmetric)
    if abs(sym_map - 3100.0) > 1e-3:
        failures.append(f"symmetric fixture MAP {sym_map:.5f} != 3100 +/- 1e-3")

    worst_gap = 0.0
    for ds in range(5):
        rng = np.random.default_rng(np.random.SeedSequence([2024, ds]))
        outcomes = []
        for _ in range(12):
            rating = float(rng.uniform(2600.0, 3600.0))
            trials = int(rng.integers(1, 6))
            prob = solve_probability(3100.0, rating)
            outcomes.append(ProblemOutcome(rating, int(rng.binomial(trials, prob)), trials))
        gap = abs(map_estimate(outcomes) - _grid_rating(outcomes))
        worst_gap = max(worst_gap, gap)
    if worst_gap > 0.05:
        failures.append(f"MAP differs from 0.01-Elo grid scan by {worst_gap:.4f}")

    covered = 0
    replications = 200
    for rep in range(replications):
        rng = np.random.default_rng(np.random.SeedSequence([777, rep]))
        outcomes = []
        for _ in range(40):
            rating = float(rng.uniform(2600.0, 3600.0))
            solved = bool(rng.random() < solve_probability(3100.0, rating))
            outcomes.append(ProblemOutcome.bernoulli(rating, solved))
        low, high = bootstrap_ci(outcomes, resamples=200, seed=rep)
        covered += low <= 3100.0 <= high
    coverage = covered / replications
    if not 0.88 <= coverage <= 0.99:
        failures.append(f"bootstrap coverage {coverage:.3f} not around 0.95")

    rng = np.random.default_rng(5150)
    outcomes = [
        ProblemOutcome.bernoulli(float(rng.uniform(2600.0, 3600.0)), bool(rng.random() < 0.5))
        for _ in range(30)
    ]
    if bootstrap_ci(outcomes, resamples=1000, seed=9) != bootstrap_ci(outcomes, resamples=1000, seed=9):
        failures.append("1000-resample interval not deterministic for a fixed seed")

    _check(
        "rating-estimation", failures,
        f"MAP gap {worst_gap:.4f} Elo, coverage {coverage:.3f}",
    )


def test_pool_scaling_simulation():
    failures = []

    schedule = round_robin_schedule(40)
    pairs = [pair for rounds in schedule for pair in rounds]
    if len(schedule) != 39 or any(len(r) != 20 for r in schedule):
        failures.append(f"round robin shape {len(schedule)} rounds")
    if len(pairs) != 780 or len(set(pairs)) != 780:
        failures.append(f"round robin covers {len(set(pairs))} pairs, expected 780")

    world = SyntheticWorldConfig()
    cell = simulate_cell(generate_matrix(20, world, 11), budget=120, n=20, trials=2, seed=0)
    if cell.m != 10 or not cell.feasible:
        failures.append(f"m(B=120, n=20) = {cell.m}, expected 10")

    # the matrix's outcome of pool pair (i, j), i < j, as a record showing i on the left
    as_record = {FIRST_WINS: LEFT_WINS, SECOND_WINS: RIGHT_WINS, MATRIX_TIE: TIE}
    for seed in range(3):
        matrix = generate_matrix(8, world, seed)
        records = [
            (i, j, as_record[matrix.outcomes[(i, j)]]) for i in range(7) for j in range(i + 1, 8)
        ]
        direct_top = rank(fit_bt(records, 8))[0]
        full = simulate_cell(matrix, budget=36, n=8, trials=3, seed=seed, pairing="round-robin")
        if full.top1_accuracy != float(matrix.labels[direct_top]):
            failures.append(f"seed {seed}: full-pool simulation disagrees with direct fit")

    perfect = SyntheticWorldConfig(judge_accuracy=1.0)
    cell = simulate_cell(generate_matrix(12, perfect, 5), budget=36, n=8, trials=50,
                         seed=3, pairing="round-robin")
    if cell.trials_with_accepted < 1 or cell.top1_hits != cell.trials_with_accepted:
        failures.append(
            f"perfect judge: {cell.top1_hits} hits vs {cell.trials_with_accepted} reachable"
        )
    saturated = SyntheticWorldConfig(judge_accuracy=1.0, acceptance_threshold=-10.0)
    cell = simulate_cell(generate_matrix(12, saturated, 5), budget=36, n=8, trials=20,
                         seed=3, pairing="round-robin")
    if cell.top1_accuracy != 1.0:
        failures.append(f"perfect judge with all-accepted pool scored {cell.top1_accuracy}")

    _check("scaling-simulation", failures, "780 pairs, m=10 at B=120, full-pool == direct fit")


def _enumerated_expected_accuracy(verdicts, accepted):
    """Average the first-max winner over every presentation order."""
    total = 0.0
    perms = list(itertools.permutations(verdicts))
    for perm in perms:
        top = max(v.yes_votes for v in perm)
        winner = next(v for v in perm if v.yes_votes == top)
        total += bool(accepted[winner.candidate_id])
    return total / len(perms)


def test_baseline_contracts():
    failures = []

    rng = np.random.default_rng(8080)
    worst = 0.0
    for case in range(40):
        n = int(rng.integers(2, 7))
        verdicts = [
            PointwiseVerdict(f"c{i}", int(rng.integers(0, 4)), 3) for i in range(n)
        ]
        accepted = {f"c{i}": bool(rng.random() < 0.5) for i in range(n)}
        got = pointwise_top1_expected_accuracy(verdicts, accepted)
        want = _enumerated_expected_accuracy(verdicts, accepted)
        worst = max(worst, abs(got - want))
        if abs(got - want) > 1e-12:
            failures.append(f"case {case}: expected accuracy {got} != enumeration {want}")
            break

    counting = CountingBackend(SyntheticBackend(SyntheticWorldConfig()))
    candidates = [
        Candidate(f"c{i:02d}", format_candidate(0.1 * i), 0, "sampled") for i in range(20)
    ]
    refined = self_refine(candidates, rounds=6, problem="p", backend=counting, seed=1)
    if counting.calls != 120:
        failures.append(f"self-refine used {counting.calls} calls, expected 20 * 6 = 120")
    if len(refined) != 20 or not refined[0].id.endswith("-r6"):
        failures.append("self-refine did not return one sixth-round child per candidate")

    rng = np.random.default_rng(20250815)
    pairs = []
    for i in range(500):
        hi = float(rng.normal(1.8, 0.2))
        pairs.append(LabeledPair(f"p{i}", format_candidate(hi), format_candidate(hi - 1.6)))
    world = SyntheticWorldConfig(acceptance_threshold=1.0)
    report = judge_diagnostic(pairs, SyntheticBackend(world), seed=41)
    checks = [
        ("pairwise accuracy", report.pairwise_accuracy, 0.862),
        ("accepted recall", report.pointwise_accuracy_on_accepted, 0.964),
        ("rejected recall", report.pointwise_accuracy_on_rejected, 0.622),
        ("pointwise joint", report.pointwise_joint, 0.964 * 0.622),
    ]
    for label, measured, target in checks:
        # 99% two-sided binomial window at 500 pairs
        radius = 2.576 * math.sqrt(target * (1.0 - target) / 500)
        if abs(measured - target) > radius:
            failures.append(f"{label} {measured:.4f} outside {target:.4f} +/- {radius:.4f}")

    _check(
        "baselines", failures,
        f"enumeration gap {worst:.1e}, joint {report.pointwise_joint:.3f} vs 0.600",
    )
