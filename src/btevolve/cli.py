"""Command line interface.

Subcommands: run (full pipeline on a problem file or directory), simulate
(budget/population scaling grid), elo (rating MAP + bootstrap CI from an
outcomes file), diagnose (judge quality on labeled pairs), baseline
(pointwise or self-refine selection).  Config is one YAML/JSON file per
invocation; --seed and --out override it in every subcommand.  run,
diagnose and baseline, the subcommands that call a backend, also take
--backend (override the backend kind) and --parallelism (concurrent
backend calls); simulate and elo refuse both.  Every output artifact
embeds the config settings that acted, with their defaults, and the seed.

Exit codes: 0 success, 2 invalid config (or an input file that is not
UTF-8), 3 backend failure, 4 I/O failure, 1 anything else.  Failures print
a single JSON line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import baselines, elo, scaling
from .backends import SyntheticBackend, SyntheticWorldConfig, parse_theta
from .btrank import DEFAULT_LAM
from .errors import BackendError, ConfigError, check_count, is_int
from .pipeline import RunConfig, TaskPool, make_backend, run_pipeline, sample_candidates
from .population import STRATEGY_PAIRWISE_K, FeedbackStrategy
from .seeds import derive_seed

# a run file sets RunConfig's fields, `lambda` for `lam`, and its backend as one section
_RUN_KEYS = {field.name for field in fields(RunConfig)} - {"lam", "backend_options"} | {"lambda"}
_SIMULATE_KEYS = {
    "pool_size", "budgets", "populations", "trials", "lambda", "seed",
    "matrix", "world", "pairing",
}
_ELO_KEYS = {"outcomes", "prior_mean", "prior_std", "bounds", "resamples", "seed"}
_DIAGNOSE_KEYS = {"pairs", "seed", "backend"}
_BASELINE_KEYS = {"mode", "problem", "n", "votes", "rounds", "seed", "backend"}


def _load_config(path: str, allowed: set) -> dict:
    raw = Path(path).read_text(encoding="utf-8")
    try:
        config = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML/JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a mapping")
    unknown = set(config) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return config


def _path_of(config: dict, key: str) -> str:
    """The file path a config sets at `key`: a non-empty string, so that no
    number is read as a file descriptor and no empty path as the current
    directory."""
    value = config[key]
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key} must be a file path, got {value!r}")
    return value


def _strategy_from(value) -> FeedbackStrategy | None:
    """A file's feedback_strategy, a kind or a {kind, k} mapping; null or a
    bare "pairwise-K" leaves it unset, which RunConfig reads as K = k."""
    if value is None or value == STRATEGY_PAIRWISE_K:
        return None
    if isinstance(value, str):
        return FeedbackStrategy(value)
    if isinstance(value, dict):
        kind = value.get("kind")
        if not isinstance(kind, str):
            raise ConfigError("feedback_strategy.kind must be a string")
        return FeedbackStrategy(kind, value.get("k"))
    raise ConfigError(f"bad feedback_strategy: {value!r}")


def _backend_spec(section, override: str | None) -> tuple[str, dict]:
    section = dict(section or {})
    kind = override or section.pop("kind", "synthetic")
    if kind == "synthetic":
        options = section.get("world", {})
        if not isinstance(options, dict):
            raise ConfigError("backend.world must be a mapping")
        return "synthetic", options
    if kind == "http":
        section.pop("world", None)
        if "base_url" not in section:
            raise ConfigError("http backend needs base_url")
        return "http", section
    raise ConfigError(f"unknown backend kind {kind!r}")


def _seed_of(config: dict, args) -> int:
    """--seed, else the config's seed (default 0); a non-negative integer."""
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    if not is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _run_config(config: dict, problem_text: str, seed: int, args) -> RunConfig:
    """The RunConfig of a run file: only the keys it sets, `lambda` as `lam`,
    so every default is RunConfig's own."""
    backend_kind, backend_options = _backend_spec(config.get("backend"), args.backend)
    settings = {"lam" if key == "lambda" else key: value for key, value in config.items()}
    settings.update(problem=problem_text, seed=seed, backend=backend_kind, backend_options=backend_options)
    if "feedback_strategy" in settings:
        settings["feedback_strategy"] = _strategy_from(settings["feedback_strategy"])
    return RunConfig(**settings)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _cmd_run(args) -> int:
    config = _load_config(args.config, _RUN_KEYS)
    if "problem" not in config:
        raise ConfigError("run config needs a problem path")
    problem_path = Path(_path_of(config, "problem"))
    out_dir = Path(args.out or "runs")
    if problem_path.is_dir():
        problems = sorted(p for p in problem_path.iterdir() if p.is_file())
        if not problems:
            raise ConfigError(f"problem directory {problem_path} is empty")
    else:
        problems = [problem_path]

    base_seed = _seed_of(config, args)
    backend = make_backend(*_backend_spec(config.get("backend"), args.backend))
    results = []
    with closing(backend), TaskPool(args.parallelism) as pool:
        for index, path in enumerate(problems):
            run_config = _run_config(config, path.read_text(encoding="utf-8"), base_seed, args)
            if len(problems) > 1:
                # isolated per-problem stream derived from the batch seed
                run_config = replace(run_config, seed=derive_seed(base_seed, index))
            trace_path = out_dir / f"{path.stem}.trace.jsonl"
            selected, trace = run_pipeline(run_config, backend, pool, trace_path)
            summary = trace.records_of_kind("summary")[0]["payload"]
            selection = {
                "problem": str(path),
                "selected": {
                    "id": selected.id,
                    "content": selected.content,
                    "generation": selected.generation,
                    "origin": selected.origin,
                },
                "primary_calls": summary["primary_calls"],
                "retry_calls": summary["retry_calls"],
                "trace": str(trace_path),
                "seed": run_config.seed,
                "config": run_config.echo(),
            }
            _write_json(out_dir / f"{path.stem}.selection.json", selection)
            results.append(selection)
            print(f"{path.name}: selected {selected.id} ({summary['primary_calls']} primary calls)")
    if len(results) > 1:
        _write_json(out_dir / "batch.json", {"seed": base_seed, "runs": results})
    return 0


def _cmd_simulate(args) -> int:
    config = _load_config(args.config, _SIMULATE_KEYS)
    seed = _seed_of(config, args)
    trials = config.get("trials", 500)
    lam = config.get("lambda", DEFAULT_LAM)
    pairing = config.get("pairing", scaling.PAIRING_RANDOM)
    budgets = config.get("budgets")
    populations = config.get("populations")
    if not (isinstance(budgets, list) and budgets and isinstance(populations, list) and populations):
        raise ConfigError("simulate config needs budgets and populations lists")
    if "matrix" in config:
        matrix_path = _path_of(config, "matrix")
        try:
            matrix = scaling.load_matrix(matrix_path)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad matrix file: {exc}") from exc
    else:
        try:
            world = SyntheticWorldConfig(**config.get("world", {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad world options: {exc}") from exc
        matrix = scaling.generate_matrix(config.get("pool_size", 40), world, seed)

    cells = scaling.sweep_grid(matrix, budgets, populations, trials, seed, lam=lam, pairing=pairing)
    echo = {**config, "seed": seed, "trials": trials, "lambda": lam, "pairing": pairing, "pool_size": matrix.pool_size}
    # echo only the settings that acted: a matrix file stands in for the world
    echo.pop("world" if "matrix" in config else "matrix", None)
    out_path = Path(args.out or "grid.csv")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    scaling.write_grid_csv(cells, out_path, config_echo=echo)
    for point in scaling.optimal_frontier(cells):
        print(f"budget {point.budget}: best n={point.n}, m={point.m} (top1 {point.top1_accuracy:.3f})")
    print(f"wrote {out_path}")
    return 0


def _cmd_elo(args) -> int:
    config = _load_config(args.config, _ELO_KEYS)
    if "outcomes" not in config:
        raise ConfigError("elo config needs an outcomes file")
    seed = _seed_of(config, args)
    settings = {key: value for key, value in config.items() if key not in ("outcomes", "seed")}
    try:
        outcomes = elo.load_outcomes(_path_of(config, "outcomes"))
        result = elo.estimate(outcomes, seed=seed, **settings)
    except ConfigError:
        raise
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad outcomes data: {exc}") from exc
    out_path = Path(args.out or "elo.json")
    _write_json(out_path, {**result.to_dict(), "config": {**config, "seed": seed}})
    print(f"rating {result.rating:.1f} (95% CI {result.ci_low:.1f}..{result.ci_high:.1f}); wrote {out_path}")
    return 0


def _cmd_diagnose(args) -> int:
    config = _load_config(args.config, _DIAGNOSE_KEYS)
    if "pairs" not in config:
        raise ConfigError("diagnose config needs a pairs file")
    seed = _seed_of(config, args)
    pairs = baselines.load_pairs(_path_of(config, "pairs"))
    if not pairs:
        raise ConfigError(f"no usable pairs in {config['pairs']}")
    backend = make_backend(*_backend_spec(config.get("backend"), args.backend))
    if isinstance(backend, SyntheticBackend):
        # the synthetic judge reads each text's latent quality from its theta= marker
        for p, pair in enumerate(pairs):
            for side in ("accepted", "rejected"):
                try:
                    parse_theta(getattr(pair, side))
                except ValueError:
                    raise ConfigError(
                        f"pair {p} in {config['pairs']}: {side} text has no theta= marker, "
                        "which the synthetic backend needs"
                    ) from None
    with closing(backend):
        report = baselines.judge_diagnostic(pairs, backend, seed=seed, parallelism=args.parallelism)
    out_path = Path(args.out or "diagnostic.json")
    _write_json(out_path, {**report.to_dict(), "config": {**config, "seed": seed}})
    print(
        f"pairwise {report.pairwise_accuracy:.3f}, pointwise joint {report.pointwise_joint:.3f} "
        f"over {report.pair_count} pairs; wrote {out_path}"
    )
    return 0


def _cmd_baseline(args) -> int:
    config = _load_config(args.config, _BASELINE_KEYS)
    mode = config.get("mode")
    if mode not in ("pointwise", "self-refine"):
        raise ConfigError("baseline mode must be pointwise or self-refine")
    if "problem" not in config:
        raise ConfigError("baseline config needs a problem path")
    problem = Path(_path_of(config, "problem")).read_text(encoding="utf-8")
    seed = _seed_of(config, args)
    n = config.get("n", 20)
    votes = config.get("votes", 14 if mode == "pointwise" else 8)
    rounds = config.get("rounds", 6) if mode == "self-refine" else 0  # pointwise mode runs no refine rounds
    # checked here too, so a bad value fails before any backend call
    for name, value, low in (("n", n, 1), ("votes", votes, 1), ("rounds", rounds, 0)):
        check_count(name, value, low)
    backend = make_backend(*_backend_spec(config.get("backend"), args.backend))

    with closing(backend), TaskPool(args.parallelism) as pool:
        candidates = sample_candidates(backend, problem, n, seed, parallelism=pool)
        calls = n
        if mode == "self-refine":
            candidates = baselines.self_refine(candidates, rounds, problem, backend, seed=seed, parallelism=pool)
            calls += n * rounds
        verdicts = [
            baselines.pointwise_score(c, problem, votes, backend, seed=derive_seed(seed, 9, i), parallelism=pool)
            for i, c in enumerate(candidates)
        ]
    calls += n * votes
    # the settings this mode used, defaults included
    resolved = {**config, "seed": seed, "n": n, "votes": votes, "rounds": rounds}
    if mode == "pointwise":
        del resolved["rounds"]
    top = max(v.yes_votes for v in verdicts)
    tied = [i for i, v in enumerate(verdicts) if v.yes_votes == top]
    pick = tied[int(np.random.default_rng(derive_seed(seed, 10, 0)).integers(0, len(tied)))]
    payload = {
        "mode": mode,
        "calls": calls,
        "selected": {"id": candidates[pick].id, "content": candidates[pick].content},
        "verdicts": [asdict(v) for v in verdicts],
        "seed": seed,
        "config": resolved,
    }
    if isinstance(backend, SyntheticBackend):
        accepted = {
            c.id: parse_theta(c.content) >= backend.world.acceptance_threshold for c in candidates
        }
        payload["expected_top1_accuracy"] = baselines.pointwise_top1_expected_accuracy(verdicts, accepted)
        payload["accepted"] = accepted
    out_path = Path(args.out or "baseline.json")
    _write_json(out_path, payload)
    print(f"{mode}: selected {candidates[pick].id} after {calls} calls; wrote {out_path}")
    return 0


def _fail(code: int, category: str, exc: Exception) -> int:
    print(json.dumps({"error": category, "message": str(exc)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="btevolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("run", _cmd_run),
        ("simulate", _cmd_simulate),
        ("elo", _cmd_elo),
        ("diagnose", _cmd_diagnose),
        ("baseline", _cmd_baseline),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML or JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output file or directory")
        if name in ("run", "diagnose", "baseline"):  # the subcommands that call a backend
            p.add_argument("--backend", choices=["synthetic", "http"], default=None, help="override the backend kind")
            p.add_argument("--parallelism", type=int, default=1, help="parallel backend calls")
        p.set_defaults(func=func)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(2, "config", exc)
    except UnicodeDecodeError as exc:  # a config, problem or pairs file that is not UTF-8 text
        return _fail(2, "config", exc)
    except BackendError as exc:
        return _fail(3, "backend", exc)
    except OSError as exc:
        return _fail(4, "io", exc)
    except Exception as exc:  # noqa: BLE001 - last-resort guard for a clean exit line
        return _fail(1, "internal", exc)


if __name__ == "__main__":
    sys.exit(main())
