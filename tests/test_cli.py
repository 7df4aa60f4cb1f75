"""CLI tests: subcommand behavior, config echo, exit codes, overrides."""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
import yaml

from btevolve import cli, pipeline
from btevolve.backends import format_candidate
from btevolve.cli import main
from btevolve.pipeline import derive_seed, replay
from btevolve.seeds import seed_words
from conftest import ClosingBackend, EmptyReplyBackend


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "problem.txt"
    path.write_text("Count the inversions in the array.", encoding="utf-8")
    return path


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


def small_run_config(problem_file):
    return {
        "problem": str(problem_file),
        "n": 8,
        "k": 3,
        "generations": 2,
        "final_k": 5,
        "seed": 13,
        "backend": {"kind": "synthetic", "world": {"judge_accuracy": 0.9}},
    }


def test_run_writes_trace_and_selection(tmp_path, problem_file):
    config = write_config(tmp_path, "run.yaml", small_run_config(problem_file))
    out_dir = tmp_path / "out"
    code, stdout, _ = run_cli("run", "--config", str(config), "--out", str(out_dir))
    assert code == 0
    assert "selected" in stdout
    selection = json.loads((out_dir / "problem.selection.json").read_text())
    assert selection["seed"] == 13
    assert selection["config"]["n"] == 8
    assert selection["config"]["backend_options"] == {"judge_accuracy": 0.9}
    assert selection["primary_calls"] == 64
    result = replay(out_dir / "problem.trace.jsonl")
    assert result.selected_id == selection["selected"]["id"]


def test_run_seed_and_backend_overrides(tmp_path, problem_file):
    payload = small_run_config(problem_file)
    payload["backend"] = {"kind": "http", "base_url": "http://127.0.0.1:1"}
    config = write_config(tmp_path, "run.yaml", payload)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        "run", "--config", str(config), "--out", str(out_dir),
        "--seed", "99", "--backend", "synthetic",
    )
    assert code == 0
    selection = json.loads((out_dir / "problem.selection.json").read_text())
    assert selection["seed"] == 99
    assert selection["config"]["backend"] == "synthetic"


def test_run_batch_directory(tmp_path):
    problems = tmp_path / "problems"
    problems.mkdir()
    (problems / "a.txt").write_text("problem a")
    (problems / "b.txt").write_text("problem b")
    config = write_config(
        tmp_path, "run.yaml",
        {"problem": str(problems), "n": 4, "k": 1, "generations": 1, "final_k": 1, "seed": 3},
    )
    out_dir = tmp_path / "out"
    code, stdout, _ = run_cli("run", "--config", str(config), "--out", str(out_dir))
    assert code == 0
    batch = json.loads((out_dir / "batch.json").read_text())
    assert batch["seed"] == 3
    assert len(batch["runs"]) == 2
    seeds = {run["seed"] for run in batch["runs"]}
    assert len(seeds) == 2  # per-problem isolated streams
    for stem in ("a", "b"):
        assert (out_dir / f"{stem}.selection.json").exists()
        assert (out_dir / f"{stem}.trace.jsonl").exists()


def test_run_parallelism_does_not_change_output(tmp_path, problem_file):
    config = write_config(tmp_path, "run.yaml", small_run_config(problem_file))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli("run", "--config", str(config), "--out", str(out1))[0] == 0
    assert run_cli(
        "run", "--config", str(config), "--out", str(out2), "--parallelism", "6"
    )[0] == 0
    assert (out1 / "problem.trace.jsonl").read_bytes() == (out2 / "problem.trace.jsonl").read_bytes()


def test_simulate_writes_grid_and_frontier(tmp_path):
    config = write_config(
        tmp_path, "sim.yaml",
        {
            "pool_size": 12,
            "budgets": [18, 36],
            "populations": [4, 6],
            "trials": 20,
            "seed": 5,
            "world": {"judge_accuracy": 0.95},
        },
    )
    out = tmp_path / "grid.csv"
    code, stdout, _ = run_cli("simulate", "--config", str(config), "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    echo = json.loads(lines[0][len("# config: "):])
    assert echo["seed"] == 5
    assert lines[1] == "budget,n,m,trials,top1_accuracy,feasible"
    assert len(lines) == 2 + 4
    assert "budget 18" in stdout and "budget 36" in stdout


def test_simulate_echoes_the_pool_size_it_simulated(tmp_path):
    grid = {"budgets": [6], "populations": [2], "trials": 2, "seed": 1}
    out = tmp_path / "grid.csv"

    def echo_of(payload):
        config = write_config(tmp_path, "sim.yaml", payload)
        assert run_cli("simulate", "--config", str(config), "--out", str(out))[0] == 0
        return json.loads(out.read_text().splitlines()[0][len("# config: "):])

    # the default pool of 40 when the file sets none
    assert echo_of(grid)["pool_size"] == 40
    # a matrix file's own size, over a pool_size key it ignores
    matrix = tmp_path / "matrix.json"
    matrix.write_text(
        json.dumps({"pool_size": 3, "labels": [True, False, False], "outcomes": ["first-wins", "tie", "second-wins"]}),
        encoding="utf-8",
    )
    assert echo_of({**grid, "matrix": str(matrix), "pool_size": 12})["pool_size"] == 3


@pytest.mark.parametrize("value", [".nan", ".inf", "true"])
def test_non_finite_world_setting_fails_before_any_output(tmp_path, problem_file, value):
    world = f"{{kind: synthetic, world: {{theta_mean: {value}}}}}"
    run_config = tmp_path / "run.yaml"
    run_config.write_text(f"problem: {problem_file}\nbackend: {world}\n", encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run_cli("run", "--config", str(run_config), "--out", str(out))
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "config"
    assert "theta_mean must be a finite number" in error["message"]
    assert not list(tmp_path.rglob("*.trace.jsonl"))

    sim_config = tmp_path / "sim.yaml"
    sim_config.write_text(f"budgets: [18]\npopulations: [4]\nworld: {{theta_mean: {value}}}\n", encoding="utf-8")
    grid = tmp_path / "grid.csv"
    code, _, err = run_cli("simulate", "--config", str(sim_config), "--out", str(grid))
    assert code == 2
    assert "theta_mean must be a finite number" in json.loads(err)["message"]
    assert not grid.exists()


def test_simulate_needs_grid_lists(tmp_path):
    config = write_config(tmp_path, "sim.yaml", {"pool_size": 12, "budgets": [18]})
    code, _, err = run_cli("simulate", "--config", str(config))
    assert code == 2
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize(
    ("change", "message"),
    [
        ({"populations": [4, 5]}, "even"),
        ({"trials": 0}, "trials"),
        ({"pairing": "zigzag"}, "pairing"),
        # m = 2*(36-4)/4 = 16 > n-1 = 3
        ({"pairing": "round-robin", "budgets": [8, 36]}, "round-robin"),
        ({"populations": [4, 14]}, "out of range"),
        ({"lambda": 0}, "lambda"),
        ({"lambda": True}, "lambda"),
        ({"lambda": float("inf")}, "lambda"),
        ({"budgets": 18}, "lists"),
        ({"pool_size": 1}, "pool_size"),
        # a budget of 2**32 would take a (trials, >= 2**32, 2) pair array
        ({"budgets": [18, 2**32]}, "2**32"),
    ],
    ids=[
        "odd-population",
        "no-trials",
        "unknown-pairing",
        "round-robin-too-many-rounds",
        "population-above-pool",
        "zero-lambda",
        "bool-lambda",
        "infinite-lambda",
        "budgets-not-a-list",
        "pool-below-two",
        "budget-of-2-to-the-32",
    ],
)
def test_simulate_bad_grid_is_a_config_error(tmp_path, change, message):
    config = write_config(
        tmp_path, "sim.yaml", {"pool_size": 12, "budgets": [18, 36], "populations": [4], "trials": 5, **change}
    )
    out = tmp_path / "grid.csv"
    code, _, err = run_cli("simulate", "--config", str(config), "--out", str(out))
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "config"
    assert message in error["message"]
    assert not out.exists()


def test_simulate_bad_matrix_file_is_a_config_error(tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"pool_size": 3, "labels": [True], "outcomes": ["tie"] * 3}), encoding="utf-8")
    config = write_config(tmp_path, "sim.yaml", {"matrix": str(matrix), "budgets": [10], "populations": [2]})
    code, _, err = run_cli("simulate", "--config", str(config))
    assert code == 2
    assert "label" in json.loads(err)["message"]


def test_simulate_non_boolean_matrix_labels_are_a_config_error(tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(
        json.dumps({"pool_size": 3, "labels": ["false", "no", 0], "outcomes": ["tie"] * 3}), encoding="utf-8"
    )
    config = write_config(tmp_path, "sim.yaml", {"matrix": str(matrix), "budgets": [10], "populations": [2]})
    out = tmp_path / "grid.csv"
    code, _, err = run_cli("simulate", "--config", str(config), "--out", str(out))
    assert code == 2
    assert "booleans" in json.loads(err)["message"]
    assert not out.exists()


def test_elo_symmetric_fixture(tmp_path):
    outcomes = tmp_path / "outcomes.csv"
    outcomes.write_text("problem_rating,solved\n3100,true\n3100,false\n", encoding="utf-8")
    config = write_config(
        tmp_path, "elo.yaml", {"outcomes": str(outcomes), "resamples": 50, "seed": 1}
    )
    out = tmp_path / "elo.json"
    code, stdout, _ = run_cli("elo", "--config", str(config), "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["rating"] == pytest.approx(3100.0, abs=1e-3)
    assert payload["config"]["seed"] == 1
    assert "rating 3100.0" in stdout


@pytest.mark.parametrize(
    ("change", "message"),
    [
        ({"bounds": ["a", "b"]}, "bounds"),
        ({"bounds": 5}, "bounds"),
        ({"bounds": [1000.0, float("inf")]}, "bounds"),
        ({"prior_std": "500"}, "prior_std"),
        ({"prior_mean": None}, "prior_mean"),
        ({"prior_mean": True}, "prior_mean"),
        ({"resamples": 1.5}, "resamples"),
        ({"resamples": True}, "resamples"),
        ({"resamples": 0}, "resamples"),
    ],
    ids=[
        "string-bounds",
        "scalar-bounds",
        "infinite-bound",
        "string-prior-std",
        "null-prior-mean",
        "bool-prior-mean",
        "fractional-resamples",
        "bool-resamples",
        "zero-resamples",
    ],
)
def test_elo_mistyped_value_is_a_config_error(tmp_path, change, message):
    outcomes = tmp_path / "outcomes.csv"
    outcomes.write_text("problem_rating,solved\n3100,true\n3100,false\n", encoding="utf-8")
    config = write_config(tmp_path, "elo.yaml", {"outcomes": str(outcomes), "resamples": 50, "seed": 1, **change})
    out = tmp_path / "elo.json"
    code, _, err = run_cli("elo", "--config", str(config), "--out", str(out))
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "config"
    assert message in error["message"]
    assert not out.exists()


def test_elo_non_object_jsonl_line_is_a_config_error(tmp_path):
    outcomes = tmp_path / "outcomes.jsonl"
    outcomes.write_text('{"problem_rating": 3100, "solved": true}\n\n[1, 2]\n', encoding="utf-8")
    config = write_config(tmp_path, "elo.yaml", {"outcomes": str(outcomes), "resamples": 20})
    code, _, err = run_cli("elo", "--config", str(config), "--out", str(tmp_path / "elo.json"))
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "config"
    assert "line 3" in error["message"]


def test_elo_short_csv_row_is_a_config_error(tmp_path):
    outcomes = tmp_path / "outcomes.csv"
    outcomes.write_text("problem_rating,successes,trials\n2400,1\n", encoding="utf-8")
    config = write_config(tmp_path, "elo.yaml", {"outcomes": str(outcomes), "resamples": 20})
    code, _, err = run_cli("elo", "--config", str(config), "--out", str(tmp_path / "elo.json"))
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "config"
    assert "line 2" in error["message"] and "trials" in error["message"]
    assert not (tmp_path / "elo.json").exists()


@pytest.mark.parametrize(
    "row",
    [{"problem_rating": 3100, "successes": 1.7, "trials": 2}, {"problem_rating": 3100, "successes": True, "trials": 1.9}],
    ids=["fractional-successes", "bool-successes"],
)
def test_elo_non_integer_jsonl_counts_are_a_config_error(tmp_path, row):
    outcomes = tmp_path / "outcomes.jsonl"
    outcomes.write_text(json.dumps(row) + "\n", encoding="utf-8")
    config = write_config(tmp_path, "elo.yaml", {"outcomes": str(outcomes), "resamples": 20})
    out = tmp_path / "elo.json"
    code, _, err = run_cli("elo", "--config", str(config), "--out", str(out))
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "config"
    assert "successes must be an integer" in error["message"]
    assert not out.exists()


def test_diagnose_reports_and_echoes(tmp_path):
    pairs = tmp_path / "pairs.jsonl"
    rng = np.random.default_rng(0)
    with open(pairs, "w", encoding="utf-8") as fh:
        for i in range(20):
            hi = float(rng.normal(1.8, 0.1))
            fh.write(
                json.dumps(
                    {
                        "problem": f"p{i}",
                        "accepted": format_candidate(hi),
                        "rejected": format_candidate(hi - 2.0),
                    }
                )
                + "\n"
            )
    config = write_config(
        tmp_path, "diag.yaml",
        {
            "pairs": str(pairs),
            "seed": 2,
            "backend": {"kind": "synthetic", "world": {"judge_accuracy": 1.0,
                                                       "pointwise_recall_accepted": 1.0,
                                                       "pointwise_recall_rejected": 1.0,
                                                       "acceptance_threshold": 1.0}},
        },
    )
    out = tmp_path / "diag.json"
    code, _, _ = run_cli("diagnose", "--config", str(config), "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pairwise_accuracy"] == 1.0
    assert payload["pointwise_joint"] == 1.0
    assert payload["pair_count"] == 20
    assert payload["config"]["seed"] == 2


def test_baseline_pointwise_and_self_refine(tmp_path, problem_file):
    base = {
        "problem": str(problem_file),
        "n": 4,
        "votes": 3,
        "seed": 8,
        "backend": {"kind": "synthetic"},
    }
    config = write_config(tmp_path, "base.yaml", dict(base, mode="pointwise"))
    out = tmp_path / "pointwise.json"
    code, _, _ = run_cli("baseline", "--config", str(config), "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["calls"] == 4 + 4 * 3
    assert len(payload["verdicts"]) == 4
    assert 0.0 <= payload["expected_top1_accuracy"] <= 1.0
    assert payload["config"]["votes"] == 3

    config = write_config(tmp_path, "base2.yaml", dict(base, mode="self-refine", rounds=2))
    out = tmp_path / "refine.json"
    code, _, _ = run_cli("baseline", "--config", str(config), "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["calls"] == 4 + 4 * 2 + 4 * 3
    assert payload["selected"]["id"].endswith("-r2")


@pytest.mark.parametrize(
    ("mode", "expected"),
    [
        ("pointwise", {"n": 20, "votes": 14, "seed": 0}),
        ("self-refine", {"n": 20, "votes": 8, "rounds": 6, "seed": 0}),
    ],
)
def test_baseline_echoes_every_resolved_setting(tmp_path, problem_file, mode, expected):
    # the defaulted n, votes and (in self-refine mode) rounds are echoed, not only the keys the file sets
    config = write_config(tmp_path, "base.yaml", {"problem": str(problem_file), "mode": mode})
    out = tmp_path / "baseline.json"
    assert run_cli("baseline", "--config", str(config), "--out", str(out))[0] == 0
    echo = json.loads(out.read_text())["config"]
    assert {key: echo[key] for key in expected} == expected
    assert ("rounds" in echo) == (mode == "self-refine")


def test_baseline_output_independent_of_parallelism(tmp_path, problem_file):
    for mode in ("pointwise", "self-refine"):
        config = write_config(
            tmp_path, f"{mode}.yaml",
            {"problem": str(problem_file), "mode": mode, "n": 8, "votes": 3, "rounds": 2, "seed": 8},
        )
        blobs = []
        for parallelism in ("1", "4"):
            out = tmp_path / f"{mode}-{parallelism}.json"
            assert run_cli("baseline", "--config", str(config), "--out", str(out), "--parallelism", parallelism)[0] == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


def test_baseline_samples_are_a_runs_generation_zero(tmp_path, problem_file):
    config = write_config(
        tmp_path, "base.yaml",
        {"problem": str(problem_file), "mode": "pointwise", "n": 8, "votes": 3, "seed": 13},
    )
    out = tmp_path / "pointwise.json"
    assert run_cli("baseline", "--config", str(config), "--out", str(out))[0] == 0
    selected = json.loads(out.read_text())["selected"]
    run_config = write_config(tmp_path, "run.yaml", small_run_config(problem_file))
    assert run_cli("run", "--config", str(run_config), "--out", str(tmp_path / "run"))[0] == 0
    generation_zero = replay(tmp_path / "run" / "problem.trace.jsonl").states[0].members
    assert {"id": selected["id"], "content": selected["content"]} in [
        {"id": member.id, "content": member.content} for member in generation_zero
    ]


def test_baseline_rejects_unknown_mode(tmp_path, problem_file):
    config = write_config(
        tmp_path, "base.yaml",
        {"problem": str(problem_file), "mode": "tournament"},
    )
    code, _, err = run_cli("baseline", "--config", str(config))
    assert code == 2
    assert "mode" in json.loads(err)["message"]


@pytest.mark.parametrize(
    ("change", "message"),
    [
        ({"n": 4.0}, "n must be an integer"),
        ({"rounds": 1.5}, "rounds must be an integer"),
        ({"votes": "3"}, "votes must be an integer"),
        ({"n": -2}, "n must be an integer of at least 1"),
        ({"votes": 0}, "votes must be an integer of at least 1"),
    ],
    ids=["float-n", "fractional-rounds", "string-votes", "negative-n", "zero-votes"],
)
def test_baseline_bad_count_is_a_config_error(tmp_path, problem_file, change, message):
    config = write_config(
        tmp_path, "base.yaml",
        {"problem": str(problem_file), "mode": "self-refine", "n": 4, "votes": 3, "rounds": 1, "seed": 8, **change},
    )
    out = tmp_path / "baseline.json"
    code, _, err = run_cli("baseline", "--config", str(config), "--out", str(out))
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "config"
    assert message in error["message"]
    assert not out.exists()


def test_exit_codes_and_single_line_errors(tmp_path, problem_file):
    code, _, err = run_cli("run", "--config", str(tmp_path / "missing.yaml"))
    assert code == 4
    assert json.loads(err)["error"] == "io"
    assert err.count("\n") == 1

    bad = tmp_path / "bad.yaml"
    bad.write_text("n: [unclosed", encoding="utf-8")
    code, _, err = run_cli("run", "--config", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == "config"
    assert err.count("\n") == 1

    unknown = write_config(tmp_path, "u.yaml", {"problem": str(problem_file), "bogus": 1})
    code, _, err = run_cli("run", "--config", str(unknown))
    assert code == 2
    assert "bogus" in json.loads(err)["message"]

    noprob = write_config(tmp_path, "np.yaml", {"problem": str(tmp_path / "nope.txt")})
    code, _, err = run_cli("run", "--config", str(noprob))
    assert code == 4

    badworld = write_config(
        tmp_path, "bw.yaml",
        dict(small_run_config(problem_file), backend={"kind": "synthetic", "world": {"judge_accuracy": 2.0}}),
    )
    code, _, err = run_cli("run", "--config", str(badworld))
    assert code == 2

    badkind = write_config(
        tmp_path, "bk.yaml", dict(small_run_config(problem_file), backend={"kind": "carrier-pigeon"})
    )
    code, _, err = run_cli("run", "--config", str(badkind))
    assert code == 2

    httpless = write_config(
        tmp_path, "hl.yaml", dict(small_run_config(problem_file), backend={"kind": "http"})
    )
    code, _, err = run_cli("run", "--config", str(httpless))
    assert code == 2
    assert "base_url" in json.loads(err)["message"]


def test_backend_failure_exit_code(tmp_path, problem_file):
    payload = dict(
        small_run_config(problem_file),
        backend={"kind": "http", "base_url": "http://127.0.0.1:9", "timeout": 0.2,
                 "transport_retries": 0, "backoff_seconds": 0.0},
    )
    config = write_config(tmp_path, "http.yaml", payload)
    code, _, err = run_cli("run", "--config", str(config), "--out", str(tmp_path / "o"))
    assert code == 3
    assert json.loads(err)["error"] == "backend"


@pytest.mark.parametrize("base_url", ["example.invalid/v1", "ftp://example.invalid/v1"])
def test_malformed_base_url_is_a_config_error(tmp_path, problem_file, base_url):
    payload = dict(small_run_config(problem_file), backend={"kind": "http", "base_url": base_url})
    config = write_config(tmp_path, "http.yaml", payload)
    code, _, err = run_cli("run", "--config", str(config), "--out", str(tmp_path / "o"))
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "config"
    assert "base_url" in error["message"]
    assert not (tmp_path / "o" / "problem.trace.jsonl").exists()


@pytest.mark.parametrize(
    "options",
    [{"timeout": "30"}, {"timeout": 0}, {"transport_retries": "2"}, {"backoff_seconds": -1.0}],
    ids=["string-timeout", "zero-timeout", "string-retries", "negative-backoff"],
)
def test_bad_http_transport_option_is_a_config_error(tmp_path, problem_file, options):
    (name,) = options
    payload = dict(small_run_config(problem_file), backend={"kind": "http", "base_url": "http://127.0.0.1:9", **options})
    config = write_config(tmp_path, "http.yaml", payload)
    code, _, err = run_cli("run", "--config", str(config), "--out", str(tmp_path / "o"))
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "config"
    assert error["message"].startswith(f"bad backend options: {name} must be")
    assert not (tmp_path / "o" / "problem.trace.jsonl").exists()


def test_empty_completion_exit_code(tmp_path, problem_file, monkeypatch):
    backend = EmptyReplyBackend(seed_words(13, 0, count=4)[3:])
    monkeypatch.setattr(cli, "make_backend", lambda kind, options: backend)
    monkeypatch.setattr(pipeline, "make_backend", lambda kind, options: backend)
    config = write_config(tmp_path, "run.yaml", small_run_config(problem_file))
    code, _, err = run_cli("run", "--config", str(config), "--out", str(tmp_path / "o"))
    assert code == 3
    assert json.loads(err) == {"error": "backend", "message": "sampling candidate 3: empty completion"}
    abort = json.loads((tmp_path / "o" / "problem.trace.jsonl").read_text().splitlines()[-1])
    assert abort["kind"] == "abort"
    assert abort["payload"]["type"] == "BackendError"


def test_empty_refined_candidate_exit_code(tmp_path, problem_file, monkeypatch):
    backend = EmptyReplyBackend([derive_seed(13, 1, 1, 2)])
    monkeypatch.setattr(cli, "make_backend", lambda kind, options: backend)
    payload = {"mode": "self-refine", "problem": str(problem_file), "n": 4, "votes": 2, "rounds": 2, "seed": 13}
    config = write_config(tmp_path, "refine.yaml", payload)
    out = tmp_path / "refine.json"
    code, _, err = run_cli("baseline", "--config", str(config), "--out", str(out))
    assert code == 3
    assert json.loads(err) == {"error": "backend", "message": "refine round 1, candidate g0-s002: empty completion"}
    assert not out.exists()


@pytest.mark.parametrize(
    ("change", "message"),
    [
        ({"n": 8.0}, "n must be an integer"),
        ({"generations": 1.5}, "generations must be an integer"),
        ({"parse_retries": 0.5}, "parse_retries must be an integer"),
        ({"final_k": True}, "final_k must be an integer"),
        ({"temperature_judge": "0"}, "temperature_judge must be a number"),
        ({"lambda": "0.01"}, "lam must be a number"),
        ({"lambda": float("nan")}, "lam must be positive"),
        ({"lambda": float("inf")}, "lam must be positive"),
        ({"k": "2"}, "k must be an integer"),
        ({"feedback_strategy": {"kind": "pairwise-K", "k": 2.5}}, "integer k"),
        ({"feedback_strategy": {"kind": "none", "k": "x"}}, "integer k"),
        ({"include_restart_license": "no"}, "include_restart_license"),
    ],
    ids=[
        "float-n",
        "fractional-generations",
        "fractional-parse-retries",
        "bool-final-k",
        "string-temperature",
        "string-lambda",
        "nan-lambda",
        "infinite-lambda",
        "string-k",
        "fractional-feedback-k",
        "string-k-of-another-strategy",
        "string-license",
    ],
)
def test_run_mistyped_value_is_a_config_error(tmp_path, problem_file, change, message):
    config = write_config(tmp_path, "run.yaml", {**small_run_config(problem_file), **change})
    out = tmp_path / "o"
    code, _, err = run_cli("run", "--config", str(config), "--out", str(out))
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "config"
    assert message in error["message"]
    assert not out.exists()


def test_json_config_accepted(tmp_path, problem_file):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(small_run_config(problem_file)), encoding="utf-8")
    code, _, _ = run_cli("run", "--config", str(config), "--out", str(tmp_path / "o"))
    assert code == 0


def test_feedback_strategy_shorthand_and_mapping(tmp_path, problem_file):
    payload = dict(small_run_config(problem_file), feedback_strategy="none")
    config = write_config(tmp_path, "fs.yaml", payload)
    out = tmp_path / "o1"
    assert run_cli("run", "--config", str(config), "--out", str(out))[0] == 0
    echo = json.loads((out / "problem.selection.json").read_text())["config"]
    assert echo["feedback_strategy"] == {"kind": "none", "k": None}

    payload = dict(small_run_config(problem_file), feedback_strategy={"kind": "pairwise-K", "k": 2})
    config = write_config(tmp_path, "fs2.yaml", payload)
    out = tmp_path / "o2"
    assert run_cli("run", "--config", str(config), "--out", str(out))[0] == 0
    echo = json.loads((out / "problem.selection.json").read_text())["config"]
    assert echo["feedback_strategy"] == {"kind": "pairwise-K", "k": 2}


def test_default_feedback_strategy_is_the_library_default(tmp_path, problem_file):
    # an unset strategy is pairwise-K with K = k, from the CLI and RunConfig alike
    config = write_config(tmp_path, "k6.yaml", dict(small_run_config(problem_file), k=6))
    out = tmp_path / "o"
    assert run_cli("run", "--config", str(config), "--out", str(out))[0] == 0
    echo = json.loads((out / "problem.selection.json").read_text())["config"]
    library = pipeline.RunConfig(problem="p", n=8, k=6, final_k=5).echo()
    assert echo["feedback_strategy"] == library["feedback_strategy"] == {"kind": "pairwise-K", "k": 6}


def _seed_case_config(tmp_path, problem_file, command):
    """A config that `command` runs to exit 0 on the synthetic backend, seed aside."""
    if command == "baseline":
        return {"problem": str(problem_file), "mode": "pointwise", "n": 4, "votes": 1}
    if command == "diagnose":
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(
            json.dumps({"problem": "p", "accepted": format_candidate(2.0), "rejected": format_candidate(0.0)}) + "\n",
            encoding="utf-8",
        )
        return {"pairs": str(pairs)}
    return {"pool_size": 12, "budgets": [18], "populations": [4], "trials": 2}


@pytest.mark.parametrize(
    ("command", "config_seed", "flag_seed"),
    [
        ("baseline", 1.5, None),
        ("baseline", None, "-1"),
        ("diagnose", -3, None),
        ("diagnose", "7", None),
        ("simulate", -1, None),
        ("simulate", 2.5, None),
    ],
    ids=[
        "baseline-fractional",
        "baseline-flag-negative",
        "diagnose-negative",
        "diagnose-string",
        "simulate-negative",
        "simulate-fractional",
    ],
)
def test_bad_seed_is_a_config_error(tmp_path, problem_file, command, config_seed, flag_seed):
    payload = _seed_case_config(tmp_path, problem_file, command)
    if config_seed is not None:
        payload["seed"] = config_seed
    config = write_config(tmp_path, "cfg.yaml", payload)
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out)]
    if flag_seed is not None:
        argv += ["--seed", flag_seed]
    code, _, err = run_cli(*argv)
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "config"
    assert "seed must be a non-negative integer" in error["message"]
    assert not out.exists()
    # the same config with a good seed runs
    payload["seed"] = 4
    write_config(tmp_path, "cfg.yaml", payload)
    assert run_cli(command, "--config", str(config), "--out", str(out))[0] == 0


@pytest.mark.parametrize("parallelism", ["1", "2"])
@pytest.mark.parametrize("command", ["run", "baseline", "diagnose"])
def test_commands_close_the_backend_they_build(tmp_path, problem_file, monkeypatch, command, parallelism):
    monkeypatch.setattr(ClosingBackend, "closed", 0)
    monkeypatch.setattr(cli, "make_backend", lambda kind, options: ClosingBackend())
    monkeypatch.setattr(pipeline, "make_backend", lambda kind, options: ClosingBackend())
    payload = small_run_config(problem_file) if command == "run" else _seed_case_config(tmp_path, problem_file, command)
    config = write_config(tmp_path, "cfg.yaml", payload)
    code, _, _ = run_cli(command, "--config", str(config), "--out", str(tmp_path / "out"), "--parallelism", parallelism)
    assert code == 0
    assert ClosingBackend.closed == 1


def test_batch_runs_on_one_backend(tmp_path, monkeypatch):
    built = []

    def build(kind, options):
        built.append(ClosingBackend())
        return built[-1]

    monkeypatch.setattr(ClosingBackend, "closed", 0)
    monkeypatch.setattr(cli, "make_backend", build)
    monkeypatch.setattr(pipeline, "make_backend", build)
    problems = tmp_path / "problems"
    problems.mkdir()
    (problems / "a.txt").write_text("problem a")
    (problems / "b.txt").write_text("problem b")
    payload = {"problem": str(problems), "n": 4, "k": 1, "generations": 1, "final_k": 1, "seed": 3}
    config = write_config(tmp_path, "run.yaml", payload)
    code, _, _ = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"), "--parallelism", "2")
    assert code == 0
    assert len(json.loads((tmp_path / "out" / "batch.json").read_text())["runs"]) == 2
    assert len(built) == 1
    assert ClosingBackend.closed == 1


@pytest.mark.parametrize("parallelism", ["0", "-3"])
@pytest.mark.parametrize("command", ["run", "baseline", "diagnose"])
def test_non_positive_parallelism_is_a_config_error(tmp_path, problem_file, command, parallelism):
    if command == "run":
        payload = small_run_config(problem_file)
    else:
        payload = _seed_case_config(tmp_path, problem_file, command)
    config = write_config(tmp_path, "cfg.yaml", payload)
    out = tmp_path / "out"
    code, _, err = run_cli(command, "--config", str(config), "--out", str(out), "--parallelism", parallelism)
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "config"
    assert "parallelism must be an integer of at least 1" in error["message"]
    # no output, and for run not even a trace file
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("side", ["accepted", "rejected"])
def test_diagnose_synthetic_needs_theta_markers(tmp_path, side):
    pairs = tmp_path / "pairs.jsonl"
    rows = [
        {"problem": f"p{i}", "accepted": format_candidate(2.0), "rejected": format_candidate(0.0)}
        for i in range(4)
    ]
    rows[2][side] = "THETA: 2.0"
    rows[3][side] = "no marker either"
    pairs.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    config = write_config(tmp_path, "diag.yaml", {"pairs": str(pairs), "seed": 1})
    out = tmp_path / "diag.json"
    code, _, err = run_cli("diagnose", "--config", str(config), "--out", str(out))
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "config"
    assert error["message"].startswith(f"pair 2 in {pairs}: {side} text has no theta= marker")
    assert not out.exists()


@pytest.mark.parametrize("flag", [("--backend", "http"), ("--parallelism", "2")], ids=["backend", "parallelism"])
@pytest.mark.parametrize("command", ["simulate", "elo"])
def test_commands_without_a_backend_refuse_backend_flags(tmp_path, capsys, command, flag):
    # simulate and elo call no backend, so they take neither flag
    if command == "simulate":
        payload = _seed_case_config(tmp_path, None, command)
    else:
        outcomes = tmp_path / "outcomes.csv"
        outcomes.write_text("problem_rating,solved\n3100,true\n3100,false\n", encoding="utf-8")
        payload = {"outcomes": str(outcomes), "resamples": 10}
    config = write_config(tmp_path, "cfg.yaml", payload)
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv + list(flag))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(*argv)[0] == 0


@pytest.mark.parametrize("trigger", ["nan-world", "parallelism-0"])
def test_refused_run_leaves_no_out_directory(tmp_path, problem_file, trigger):
    payload = small_run_config(problem_file)
    argv = []
    if trigger == "nan-world":
        payload["backend"] = {"kind": "synthetic", "world": {"theta_mean": float("nan")}}
    else:
        argv = ["--parallelism", "0"]
    config = write_config(tmp_path, "run.yaml", payload)
    out = tmp_path / "out"
    code, _, err = run_cli("run", "--config", str(config), "--out", str(out), *argv)
    assert code == 2
    assert json.loads(err)["error"] == "config"
    assert not out.exists()


def test_simulate_from_a_matrix_does_not_echo_the_world(tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(
        json.dumps({"pool_size": 3, "labels": [True, False, False], "outcomes": ["first-wins", "tie", "second-wins"]}),
        encoding="utf-8",
    )
    # a world the matrix file stands in for, which SyntheticWorldConfig would reject
    payload = {"matrix": str(matrix), "world": {"judge_accuracy": 0.1}, "budgets": [6], "populations": [2], "trials": 2}
    config = write_config(tmp_path, "sim.yaml", payload)
    out = tmp_path / "grid.csv"
    assert run_cli("simulate", "--config", str(config), "--out", str(out))[0] == 0
    echo = json.loads(out.read_text().splitlines()[0][len("# config: "):])
    assert "world" not in echo
    assert echo["matrix"] == str(matrix)


def test_pointwise_baseline_does_not_echo_rounds(tmp_path, problem_file):
    payload = {"problem": str(problem_file), "mode": "pointwise", "n": 4, "votes": 3, "rounds": 2}
    config = write_config(tmp_path, "base.yaml", payload)
    out = tmp_path / "baseline.json"
    assert run_cli("baseline", "--config", str(config), "--out", str(out))[0] == 0
    payload = json.loads(out.read_text())
    assert "rounds" not in payload["config"]
    assert payload["calls"] == 4 + 4 * 3


def test_pointwise_baseline_does_not_check_rounds(tmp_path, problem_file):
    payload = {"problem": str(problem_file), "mode": "pointwise", "n": 4, "votes": 3, "rounds": 1.5}
    config = write_config(tmp_path, "base.yaml", payload)
    out = tmp_path / "baseline.json"
    assert run_cli("baseline", "--config", str(config), "--out", str(out))[0] == 0
    assert "rounds" not in json.loads(out.read_text())["config"]


def _empty_directory(tmp_path):
    path = tmp_path / "problems"
    path.mkdir()
    return str(path)


def _malformed_pairs(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text('{"problem": "p", "accepted": "a"}\nnot json\n', encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    ("command", "payload", "message"),
    [
        ("run", lambda tmp, problem: ["not", "a", "mapping"], "must be a mapping"),
        ("run", lambda tmp, problem: {"problem": problem, "feedback_strategy": {"k": 2}}, "feedback_strategy.kind"),
        ("run", lambda tmp, problem: {"problem": problem, "feedback_strategy": 3}, "bad feedback_strategy: 3"),
        ("run", lambda tmp, problem: {"problem": problem, "backend": {"world": [1]}}, "backend.world must be a mapping"),
        ("run", lambda tmp, problem: {"n": 8}, "run config needs a problem path"),
        ("run", lambda tmp, problem: {"problem": _empty_directory(tmp)}, "is empty"),
        ("elo", lambda tmp, problem: {"resamples": 10}, "elo config needs an outcomes file"),
        ("diagnose", lambda tmp, problem: {"seed": 1}, "diagnose config needs a pairs file"),
        ("diagnose", lambda tmp, problem: {"pairs": _malformed_pairs(tmp)}, "no usable pairs"),
        ("baseline", lambda tmp, problem: {"mode": "pointwise"}, "baseline config needs a problem path"),
    ],
    ids=[
        "not-a-mapping",
        "strategy-kind-not-a-string",
        "strategy-not-a-kind-or-mapping",
        "world-not-a-mapping",
        "run-without-problem",
        "empty-problem-directory",
        "elo-without-outcomes",
        "diagnose-without-pairs",
        "no-usable-pairs",
        "baseline-without-problem",
    ],
)
def test_config_errors_exit_2(tmp_path, problem_file, command, payload, message):
    config = write_config(tmp_path, "cfg.yaml", payload(tmp_path, str(problem_file)))
    out = tmp_path / "out"
    code, _, err = run_cli(command, "--config", str(config), "--out", str(out))
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "config"
    assert message in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("value", [5, 0, True, None, ""], ids=["5", "0", "true", "null", "empty"])
@pytest.mark.parametrize(
    ("command", "key", "settings"),
    [
        ("run", "problem", {}),
        ("baseline", "problem", {"mode": "pointwise"}),
        ("diagnose", "pairs", {}),
        ("elo", "outcomes", {}),
        ("simulate", "matrix", {"budgets": [10], "populations": [2]}),
    ],
    ids=["run", "baseline", "diagnose", "elo", "simulate"],
)
def test_a_file_setting_that_is_not_a_path_exits_2(tmp_path, command, key, settings, value):
    # 0 and true would otherwise open stdin and stdout as files, and "" the current directory
    config = write_config(tmp_path, "cfg.yaml", {**settings, key: value})
    out = tmp_path / "out"
    code, _, err = run_cli(command, "--config", str(config), "--out", str(out))
    assert (code, json.loads(err)) == (2, {"error": "config", "message": f"{key} must be a file path, got {value!r}"})
    assert not out.exists()
    os.fstat(0)  # stdin is still open


def test_unexpected_error_exits_1_as_internal(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli.scaling, "sweep_grid", fail)
    config = write_config(tmp_path, "sim.yaml", _seed_case_config(tmp_path, None, "simulate"))
    code, _, err = run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "grid.csv"))
    assert code == 1
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "internal", "message": "unexpected"}


def _not_utf8(path):
    path.write_bytes(b"seed: 1\n# \xff\n")
    return path


@pytest.mark.parametrize("command", ["run", "simulate", "elo", "diagnose", "baseline"])
def test_config_that_is_not_utf8_exits_2(tmp_path, command):
    config = _not_utf8(tmp_path / "cfg.yaml")
    out = tmp_path / "out"
    code, _, err = run_cli(command, "--config", str(config), "--out", str(out))
    assert (code, json.loads(err)["error"]) == (2, "config")
    assert "can't decode byte 0xff" in json.loads(err)["message"]
    assert not out.exists()


@pytest.mark.parametrize(("command", "settings"), [("run", {}), ("baseline", {"mode": "pointwise"})])
def test_problem_that_is_not_utf8_exits_2(tmp_path, command, settings):
    problem = _not_utf8(tmp_path / "problem.txt")
    config = write_config(tmp_path, "cfg.yaml", {"problem": str(problem), **settings})
    out = tmp_path / "out"
    code, _, err = run_cli(command, "--config", str(config), "--out", str(out))
    assert (code, json.loads(err)["error"]) == (2, "config")
    assert not out.exists()


def test_pairs_file_that_is_not_utf8_exits_2(tmp_path):
    pairs = _not_utf8(tmp_path / "pairs.jsonl")
    config = write_config(tmp_path, "cfg.yaml", {"pairs": str(pairs)})
    out = tmp_path / "out"
    code, _, err = run_cli("diagnose", "--config", str(config), "--out", str(out))
    assert (code, json.loads(err)["error"]) == (2, "config")
    assert not out.exists()
