"""CLI tests: subcommand behavior, config echo, exit codes, overrides."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
import yaml

from btevolve import cli, pipeline
from btevolve.backends import format_candidate
from btevolve.cli import main
from btevolve.pipeline import derive_seed, replay
from conftest import EmptyReplyBackend


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


def test_empty_completion_exit_code(tmp_path, problem_file, monkeypatch):
    backend = EmptyReplyBackend([derive_seed(13, 0, 0, 3)])
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
        ({"k": "2"}, "k must be an integer"),
        ({"feedback_strategy": {"kind": "pairwise-K", "k": 2.5}}, "integer k"),
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
        "string-k",
        "fractional-feedback-k",
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
