"""Run workloads several times and summarise each metric.

    python3 perfbench/repeat.py                      # every workload, 10 seeds
    python3 perfbench/repeat.py --workloads paper --runs 5 --trace 1

Each run is `perfbench/run.py` in its own process, with seeds 0, 1, ... and
the run length from BENCHMARK.json. Runs go one at a time, so the benchmark
never competes with itself for the two cores it was tuned on. Each run's
wall time, set-up and checks included, is printed and kept with its result.

For every workload and metric the summary gives the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json. It also gives placements attempted and failed. The raw
results, with each run's thread settings and load, go to
perfbench/out/repeat-<workloads>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    record: dict = {"args": vars(args), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.runs):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
            wall_s = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            env = json.loads(lines[-2][len("env "):])
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "wall_s": wall_s, "env": env, "result": result})
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']} "
                  f"correct {result['correct']} load {env['loadavg_start'][0]:.2f} "
                  f"run {wall_s:.1f} s", flush=True)
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        names = list(runs[0]["result"]["metrics"])
        summary = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = summarise(values) | {
                "unit": runs[0]["result"]["metrics"][name]["unit"], "bound": bounds.get(name)
            }
        record["workloads"][workload] = {"runs": runs, "summary": summary,
                                         "attempted": attempted, "failed": failed}
        print(f"\n== {workload}: {len(runs)} runs, {attempted} placements attempted, {failed} failed, "
              f"all correct: {all(r['result']['correct'] for r in runs)}")
        print(f"{'metric':32} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for name, s in summary.items():
            bound = "" if s["bound"] is None else f"{s['bound']:.2f}"
            print(f"{name:32} {s['unit']:>6} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:7.3f} {bound:>6}")
        print(flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"repeat-{args.workloads.replace(',', '_')}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"raw results: {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
