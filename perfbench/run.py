"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `essmpc` from `src/`
there.  With `--trace 0` it measures the end-to-end metrics with no tracing;
with `--trace 1` it alternates untraced and traced commands and reports the
per-layer metrics.  It prints a table of every metric, a JSON run record
(also written to `.perfbench_out/`), and as its last line the result
object {"correct", "attempted", "failed", "metrics"}, whose metrics are the
ones BENCHMARK.json lists for the mode.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "essmpc" / "__init__.py").is_file():
        print(f"error: no essmpc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from essmpc.scenario import parse_scenario
    from perfbench import workloads as wls
    from perfbench.envinfo import environment
    from perfbench.trace import Recorder

    if args.workload not in wls.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wls.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = wls.WORKLOADS[args.workload]
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    out = work / f"{args.workload}_out"
    deadline = perf_counter() + args.seconds

    path = wls.scenario_file(wl, args.seed, work)
    scenario = parse_scenario(path)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "window_s": wl.window, "grid_buses": scenario.grid.n_buses,
              "horizon_steps": scenario.mpc.k_steps, "why": wl.why,
              "environment": environment(args.seed)}

    def more(done: list, cost: float) -> bool:
        return not done or perf_counter() + cost <= deadline

    if args.trace == 0:
        setups = [wls.probe_setup(wl, path, out) for _ in range(wls.SETUP_PROBES)]
        results: list = []
        while more(results, results[-1].wall_s if results else 0.0):
            results.append(wls.run_command(wl, scenario, path, out))
        setups += [r.log.setup_s for r in results]
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = wls.end_to_end(wl, scenario, [s for s in setups if s is not None],
                                 results, peak)
        problems = [p for r in results for p in r.problems]
        if any(s is None for s in setups):
            problems.append("a set-up probe never reached the controller")
        mode = "end_to_end"
        record["samples"] = {"setup_s": setups,
                             "total_s": [r.total_s for r in results]}
    else:
        rec = Recorder()
        untraced: list = []
        traced: list = []
        while more(traced, (untraced[-1].wall_s + traced[-1].wall_s) if traced else 0.0):
            untraced.append(wls.run_command(wl, scenario, path, out))
            traced.append(wls.run_command(wl, scenario, path, out, rec))
        results = untraced + traced
        metrics, record["layers"] = wls.per_layer(rec, traced, untraced)
        rec.write_jsonl(OUT / f"{args.workload}_seed{args.seed}_spans.jsonl")
        problems = [p for r in results for p in r.problems]
        mode = "per_layer"
        record["samples"] = {"total_s": [r.total_s for r in untraced],
                             "traced_total_s": [r.total_s for r in traced]}

    record["metrics"] = metrics
    record["problems"] = problems
    (OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commands {len(results)}")
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:26s} {value:>14s} {m['unit']:8s} n={m['n']}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps({"record": record}))
    failed = sum(bool(r.problems) for r in results)
    keys = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[mode]]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in keys},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
