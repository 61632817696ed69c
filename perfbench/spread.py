"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads gauss-d100,certify] [--trace 1]

For every workload and metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread (the
interquartile distance over the median) next to the metric's bound from
BENCHMARK.json.  Runs go one after another, never in parallel, and their
result lines are kept in ``perfbench/out/spread-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    (HERE / "out").mkdir(exist_ok=True)

    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
        out = HERE / "out" / f"spread-{workload}-trace{args.trace}.json"
        out.write_text(json.dumps(results, indent=1))
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':52s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            bound = bounds.get(name)
            print(f"  {name:52s} {med:12.5g} {q1:12.5g} {q3:12.5g} {(q3 - q1) / med:7.3f} "
                  f"{'' if bound is None else bound:>6}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  failed share: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
