"""Benchmark for btevolve: one workload per invocation.

    python3 perfbench/run.py --workload {evolve,simulate,elo,http} --seed N --seconds S --trace {0,1}

Run from anywhere; btevolve is imported from the `src/` directory beside
this one, so the benchmark measures the sources it ships with.  A run
builds a fixed list of distinct ops from the seed, sized so that three
passes over it take about --seconds on the reference VM, does one untimed
warm-up op, then runs the three passes, timing each op and checking its
output outside the timed region.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 prints the end-to-end metrics.  Times are scaled to a nominal host
speed: an op's wall time is multiplied by calibration.NOMINAL_S over the
wall time of a fixed kernel (no btevolve code) timed right after it (see
calibration.py), so that the minutes-long slow and fast spells of a shared
host cancel out.
  ops_per_s    distinct ops / sum over ops of each op's median scaled time
  op_p50_ms    median over ops of each op's median scaled time
  peak_rss_mb  peak resident memory of this process after the timed passes
  setup_s      median over fresh processes of the time from process start
               to the end of the warm-up op (import, inputs, one op), scaled
               by the median kernel reading of the run; on http the
               stand-in server is already running
The line before the JSON gives the op figures and set-up time unscaled.
--trace 1 wraps btevolve's layer functions from outside the package, writes
the spans to perfbench/out/spans-<workload>-<seed>.jsonl and prints the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import spans

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_PROBES = 3
# the http workload is run by hand only (see README), so BENCHMARK.json does
# not list its transport figures; a traced http run prints them as well
HTTP_LAYER_UNITS = {
    "backends.http.complete.ms": "ms",
    "backends.http.connections": "count",
    "backends.http.busy_share": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("evolve", "simulate", "elo", "http"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="set up once, print the ready time and exit")
    parser.add_argument("--server-url", help="stand-in server for --probe on the http workload")
    return parser.parse_args(argv)


def import_btevolve() -> float:
    """Import btevolve (most of set-up) and return how long it took, in milliseconds."""
    start = time.perf_counter()
    import btevolve  # noqa: F401

    return (time.perf_counter() - start) * 1e3


def build(args, server_url):
    """Build the workload's inputs and run one untimed warm-up op."""
    import workloads

    extra = (server_url,) if args.workload == "http" else ()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, OUT_DIR, *extra)
    workload.run(workload.ops[0])
    workload.reset()
    return workload


def start_server():
    """Start the stand-in model server on the one CPU this process keeps.

    Client and server, with every thread and probe they start later, share
    one CPU.  Left free on a 2-vCPU VM they contended for both CPUs and the
    op time swung between ~0.9 s and ~1.4 s from run to run; on a CPU each,
    every request waited on the other vCPU waking up, which a busy host
    slows by up to 1.6x, and the calibration kernel could not track it.  On
    one CPU the op is plain CPU work on the CPU the kernel is timed on.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # the server inherits it
    server = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "server.py")], stdout=subprocess.PIPE, text=True
    )
    port = server.stdout.readline().strip()
    if not port.isdigit():
        stop(server)
        raise RuntimeError("stand-in server did not report its port")
    return server, f"http://127.0.0.1:{port}"


def stop(process) -> None:
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def setup_seconds(args, server_url, references: list[float]) -> tuple[float, float]:
    """Median set-up time over fresh processes, measured from their spawn:
    as measured, and scaled by the median of the run's kernel readings.  A probe runs on both
    CPUs in turn, so one kernel reading beside it (which reads 6 or 13 ms
    depending on the CPU it lands on) would scale it worse than none."""
    command = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed)]
    command += ["--seconds", str(args.seconds), "--probe"]
    if server_url:
        command += ["--server-url", server_url]
    samples = []
    for _ in range(SETUP_PROBES):
        references.append(calibration.seconds())
        spawned = time.monotonic()
        probe = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(probe.stdout.split()[-1]) - spawned)
    references.append(calibration.seconds())
    wall = statistics.median(samples)
    return wall, wall * calibration.NOMINAL_S / statistics.median(references)


def instrument(tracer: spans.Tracer) -> None:
    """Wrap the layer functions btevolve's modules call through their own globals."""
    from btevolve import elo, pipeline, scaling

    iterations = lambda fit: {"iterations": fit.iterations}  # noqa: E731
    tracer.patch(pipeline, "run_pipeline", "pipeline.run_pipeline")
    tracer.patch(pipeline, "replay", "pipeline.replay")
    tracer.patch(pipeline, "fit_bt", "btrank.fit_bt", iterations)
    tracer.patch(scaling, "fit_bt", "btrank.fit_bt", iterations)
    tracer.patch(pipeline, "sample_pairing", "pairing.sample_pairing")
    tracer.patch(pipeline, "render_comparison_prompt", "judging.render_comparison_prompt")
    tracer.patch(pipeline, "parse_judge_reply", "judging.parse_judge_reply")
    tracer.patch(pipeline, "aggregate_feedback", "population.aggregate_feedback")
    tracer.patch(pipeline, "render_mutation_prompt", "population.render_mutation_prompt")
    tracer.patch(pipeline, "derive_seed", "pipeline.derive_seed")
    tracer.patch(pipeline.RunTrace, "flush", "pipeline.trace_flush")
    tracer.patch(scaling, "generate_matrix", "scaling.generate_matrix")
    tracer.patch(scaling, "sweep_grid", "scaling.sweep_grid")
    tracer.patch(scaling, "simulate_cell", "scaling.simulate_cell")
    tracer.patch(elo, "estimate", "elo.estimate")
    tracer.patch(elo, "map_estimate", "elo.map_estimate")
    tracer.patch(elo, "bootstrap_ci", "elo.bootstrap_ci")


def layer_metrics(tracer, workload, import_ms: float, cpu_s: float, executions: int) -> dict:
    """Per-layer figures from the spans of the timed ops (set-up spans only for generate_matrix).

    Layers a workload does not reach read 0.
    """
    grouped = list(spans.by_op(tracer.spans).values())
    in_ops = [s for group in grouped for s in group]
    us, ms = 1e3, 1e6
    parallelism = getattr(workload, "parallelism", 1)
    counts = getattr(workload, "executions", [])

    def total_ns(group, *names):
        return sum(s["end"] - s["start"] for s in group if s["name"] in names)

    def per_op(value_of):
        return statistics.median(value_of(group) for group in grouped) if grouped else 0.0

    def count_per_op(name):
        return sum(s["name"] == name for s in in_ops) / max(executions, 1)

    def mean_count(key):
        return statistics.fmean(e.get(key, 0) for e in counts) if counts else 0.0

    def self_ms(group):
        # run_pipeline's wall time less the part covered by backend calls and fits
        run = next((s for s in group if s["name"] == "pipeline.run_pipeline"), None)
        if run is None:
            return 0.0
        inner = [(s["start"], s["end"]) for s in group if s["name"] in ("backend.complete", "btrank.fit_bt")]
        return (run["end"] - run["start"] - spans.covered_ns(inner, run["start"], run["end"])) / ms

    def busy_share(group):
        wall = total_ns(group, "pipeline.run_pipeline")
        return total_ns(group, "backend.complete") / (wall * parallelism) if wall else 0.0

    fits = [s for s in in_ops if s["name"] == "btrank.fit_bt"]
    op_ns = total_ns(in_ops, "op")
    boot = spans.durations_ns(in_ops, "elo.bootstrap_ci")
    complete_ns = spans.median_of(in_ops, "backend.complete", 1.0)
    http = workload.name == "http"
    return {
        "btrank.fit_bt.us": spans.median_of(in_ops, "btrank.fit_bt", us),
        "btrank.fit_bt.iterations": statistics.fmean(s["iterations"] for s in fits) if fits else 0.0,
        "btrank.fit_bt.calls": count_per_op("btrank.fit_bt"),
        "btrank.fit_bt.share": total_ns(fits, "btrank.fit_bt") / op_ns if op_ns else 0.0,
        "pairing.sample_pairing.us": spans.median_of(in_ops, "pairing.sample_pairing", us),
        "judging.render_comparison_prompt.us": spans.median_of(in_ops, "judging.render_comparison_prompt", us),
        "judging.parse_judge_reply.us": spans.median_of(in_ops, "judging.parse_judge_reply", us),
        "population.aggregate_feedback.us": spans.median_of(in_ops, "population.aggregate_feedback", us),
        "population.render_mutation_prompt.us": spans.median_of(in_ops, "population.render_mutation_prompt", us),
        "pipeline.derive_seed.calls": count_per_op("pipeline.derive_seed"),
        "pipeline.derive_seed.us": spans.median_of(in_ops, "pipeline.derive_seed", us),
        "pipeline.trace_flush.ms": per_op(lambda group: total_ns(group, "pipeline.trace_flush") / ms),
        "pipeline.trace_bytes": mean_count("trace_bytes"),
        "pipeline.replay.ms": per_op(lambda group: total_ns(group, "pipeline.replay") / ms),
        "pipeline.self_ms": per_op(self_ms),
        "backends.calls": mean_count("calls"),
        "backends.retry_calls": mean_count("retries"),
        "backends.synthetic.complete.us": 0.0 if http else complete_ns / us,
        "backends.http.complete.ms": complete_ns / ms if http else 0.0,
        "backends.http.connections": mean_count("connections"),
        "backends.http.busy_share": per_op(busy_share) if http else 0.0,
        "scaling.generate_matrix.ms": spans.median_of(tracer.spans, "scaling.generate_matrix", ms),
        "scaling.simulate_cell.ms": spans.median_of(in_ops, "scaling.simulate_cell", ms),
        "elo.map_estimate.us": spans.median_of(in_ops, "elo.map_estimate", us),
        "elo.bootstrap_ci.us_per_resample": statistics.median(boot) / us / workload.resamples if boot else 0.0,
        "process.import_ms": import_ms,
        "process.cpu_s_per_op": cpu_s / max(executions, 1),
    }


def measure(args, server_url) -> dict:
    tracer = spans.Tracer() if args.trace else None
    import_ms = import_btevolve()
    import workloads

    if tracer is not None:
        instrument(tracer)
    workload = build(args, server_url)
    if tracer is not None and hasattr(workload, "backend"):
        tracer.patch(workload.backend.inner, "complete", "backend.complete")
    scope = tracer.op_scope if tracer is not None else (lambda op: contextlib.nullcontext())

    attempted = failed = 0
    problems: list[str] = []
    times: list[list[float]] = [[] for _ in workload.ops]  # wall seconds
    scaled: list[list[float]] = [[] for _ in workload.ops]  # at the nominal host speed
    references: list[float] = []  # calibration kernel seconds, one beside each op
    cpu_s = 0.0
    # one pass when traced, as the spans of every pass would take too much memory
    passes = 1 if tracer is not None else workloads.PASSES
    for p in range(1, passes + 1):
        for i, op in enumerate(workload.ops):
            attempted += 1
            cpu = time.process_time()
            start = time.perf_counter()
            try:
                with scope((p - 1) * len(workload.ops) + i):
                    result = workload.run(op)
            except Exception:  # an op that raises counts as failed; the run goes on
                failed += 1
                traceback.print_exc(file=sys.stderr)
                workload.reset()
                continue
            wall = time.perf_counter() - start
            cpu_s += time.process_time() - cpu
            times[i].append(wall)
            references.append(calibration.seconds())
            scaled[i].append(wall * calibration.NOMINAL_S / references[-1])
            try:
                workload.check(i, op, result)
            except workloads.CheckFailed as exc:
                problems.append(f"op {i} pass {p}: {exc}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        workload.finish()
    except workloads.CheckFailed as exc:
        problems.append(str(exc))
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)

    medians = [statistics.median(t) for t in scaled if t]
    completed = attempted - failed
    report = {"correct": not problems, "attempted": attempted, "failed": failed}
    if not medians:
        report["correct"] = False
        report["metrics"] = {}
        return report
    # wall-time tails are reference only: per-run p90 and max are the least steady figures
    tails = sorted(t for ts in times for t in ts)
    p50, p90 = (tails[min(len(tails) - 1, int(q * len(tails)))] * 1e3 for q in (0.5, 0.9))
    wall_rate = len(medians) / sum(statistics.median(t) for t in times if t)
    line = (
        f"{args.workload}: {completed} ops timed; unscaled wall time: {wall_rate:.3f} ops/s,"
        f" op p50 {p50:.2f} ms, p90 {p90:.2f} ms, max {tails[-1] * 1e3:.2f} ms"
    )
    if tracer is None:
        setup_wall, setup_scaled = setup_seconds(args, server_url, references)
        print(f"{line}, set-up {setup_wall:.3f} s")
        metrics = {
            "ops_per_s": (len(medians) / sum(medians), "1/s"),
            "op_p50_ms": (statistics.median(medians) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_scaled, "s"),
        }
        report["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        print(line)
        tracer.unpatch()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        values = layer_metrics(tracer, workload, import_ms, cpu_s, completed)
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
        units = {m["name"]: m["unit"] for m in per_layer}
        if args.workload == "http":
            units.update(HTTP_LAYER_UNITS)
        report["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "btevolve" / "__init__.py").is_file():
        print(f"btevolve sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.probe:
        import_btevolve()
        build(args, args.server_url)
        print(time.monotonic())
        return 0
    server, server_url = start_server() if args.workload == "http" else (None, None)
    try:
        report = measure(args, server_url)
    finally:
        if server is not None:
            stop(server)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
