"""CLI config tests: the library holds every default and every value check."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import yaml

from btevolve.cli import main
from btevolve.pipeline import RunConfig

PROBLEM = "Count the inversions in the array."


def run_cli(*argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def write_config(tmp_path, payload):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return str(path)


def run_echo(tmp_path, **settings):
    problem = tmp_path / "problem.txt"
    problem.write_text(PROBLEM, encoding="utf-8")
    out = tmp_path / "out"
    code, err = run_cli("run", "--config", write_config(tmp_path, {"problem": str(problem), **settings}), "--out", str(out))
    assert code == 0, err
    return json.loads((out / "problem.selection.json").read_text())["config"]


def test_problem_only_run_echoes_the_library_defaults(tmp_path):
    assert run_echo(tmp_path) == RunConfig(problem=PROBLEM).echo()


def test_lambda_is_read_as_lam(tmp_path):
    echo = run_echo(tmp_path, n=8, k=3, generations=1, final_k=5, **{"lambda": 0.05})
    assert echo["lam"] == 0.05
    assert echo == RunConfig(problem=PROBLEM, n=8, k=3, generations=1, final_k=5, lam=0.05).echo()


def test_bare_pairwise_k_is_the_unset_strategy(tmp_path):
    echo = run_echo(tmp_path, n=8, k=3, generations=1, final_k=5, feedback_strategy="pairwise-K")
    assert echo["feedback_strategy"] == {"kind": "pairwise-K", "k": 3}


def test_elo_value_errors_come_from_the_library_unwrapped(tmp_path):
    outcomes = tmp_path / "outcomes.csv"
    outcomes.write_text("problem_rating,solved\n3100,true\n3100,false\n", encoding="utf-8")
    config = write_config(tmp_path, {"outcomes": str(outcomes), "bounds": [5000.0, 1000.0]})
    code, err = run_cli("elo", "--config", config, "--out", str(tmp_path / "elo.json"))
    assert code == 2
    assert json.loads(err) == {
        "error": "config",
        "message": "bounds must be [low, high], two finite numbers with low < high, got [5000.0, 1000.0]",
    }


def test_elo_outcomes_are_read_before_the_values_are_checked(tmp_path):
    config = write_config(tmp_path, {"outcomes": str(tmp_path / "missing.csv"), "prior_std": "500"})
    code, err = run_cli("elo", "--config", config, "--out", str(tmp_path / "elo.json"))
    assert code == 4
    assert json.loads(err)["error"] == "io"
