"""Run the full evolve-judge-select loop against the synthetic world.

The synthetic backend plays every role offline: it samples candidates with a
hidden quality value, judges pairs with a configurable error rate, and mutates
candidates by nudging that hidden value.  Because quality is recoverable from
the candidate text, we can watch the population actually improve, then replay
the whole run from its trace file alone.
"""

import statistics
import tempfile
from pathlib import Path

from btevolve import RunConfig, compute_budget, parse_theta, replay, run_pipeline

config = RunConfig(
    problem="Sort a linked list in O(n log n) without extra allocation.",
    n=12,
    k=4,
    generations=3,
    final_k=10,
    seed=7,
    backend_options={"feedback_bonus": 0.05},
)
print(f"planned budget: {compute_budget(config.n, config.k, config.generations, config.final_k)} calls")

with tempfile.TemporaryDirectory() as scratch:
    trace_path = Path(scratch) / "run.trace.jsonl"
    selected, trace = run_pipeline(config, trace_path=trace_path)

    summary = trace.records_of_kind("summary")[0]["payload"]
    print(f"actual: {summary['primary_calls']} primary + {summary['retry_calls']} retry calls, "
          f"{summary['barriers']} sequential barriers")
    print(f"selected: {selected.id} (origin {selected.origin})")
    print(f"selected hidden quality: {parse_theta(selected.content):+.3f}")
    print()

    # The trace alone is enough to reconstruct every generation.
    result = replay(trace_path)
    print("generation-by-generation hidden quality (replayed from disk):")
    for state in result.states:
        thetas = [parse_theta(c.content) for c in state.members]
        print(f"  gen {state.generation}: mean {statistics.mean(thetas):+.3f}  "
              f"best {max(thetas):+.3f}  judgments {len(state.judgments)}")
    print(f"replayed selection: {result.selected_id}")
    assert result.selected_id == selected.id
