"""The dynhmc benchmark: one workload at one seed, one JSON line of results.

    python3 perfbench/run.py --workload gauss-d100 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src/``, never from an installed copy.  Workloads:

* ``gauss-d100``, ``dense-d1000``: ``dynhmc sample`` for each kernel kind, in
  rounds until ``--seconds`` have passed (see ``sampling.py``);
* ``certify``: the certification checks, in rounds likewise (see
  ``certify.py``).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the same
rounds with every layer wrapped (see ``tracing.py``) and reports the
per-layer metrics instead.  Set-up time is measured in fresh processes, three
times, and reported as the median.  The other times are reported at a
reference CPU speed (see ``clock.py``); the raw ones go to the run's result
file.  The last line of standard output is the result; each run's outputs go
to ``perfbench/out/<workload>-seed<n>-trace<t>/``.  The exit code is 0 when
the run completed, whether or not its checks passed (``correct`` says that),
and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS threads are fixed before numpy loads (numpy is first imported inside
# main); one thread is steadier than two on a shared two-core machine
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("gauss-d100", "dense-d1000", "certify")
SETUP_REPEATS = 3
# a traced run stops at the first round boundary past this many spans (24
# bytes each in memory), which bounds its memory and its trace file
SPAN_LIMIT = 1_000_000

# everything certify loads before its first check
CERTIFY_SETUP = "import certify"


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def declared_units() -> dict[str, tuple[str, str]]:
    """metric name -> (unit, kind) from BENCHMARK.json, the single list of metrics."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    units = {m["name"]: (m["unit"], "end_to_end") for m in spec["end_to_end"]}
    units.update({m["name"]: (m["unit"], "per_layer") for m in spec["per_layer"]})
    return units


def setup_seconds(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code`` from the checkout.

    Raw, not at the reference CPU speed: the probe around a child process
    made the spread between runs worse (0.46 against 0.2 over five seeds).
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up run exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return statistics.median(times)


def more_rounds(rounds: int, deadline: float, tracer) -> bool:
    if rounds == 0:
        return True
    return time.perf_counter() < deadline and (tracer is None or len(tracer) < SPAN_LIMIT)


def run_sampling(name: str, seed: int, seconds: float, tracer, out: Path) -> dict:
    from sampling import SamplingRun

    run = SamplingRun(name, seed, out)
    if tracer is None:
        setup = setup_seconds(
            f"from dynhmc.cli import main; raise SystemExit(main({run.setup_command()!r}))"
        )
        run.remove_setup_output()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while more_rounds(rounds, deadline, tracer):
        run.run_round(rounds, tracer)
        rounds += 1
    run.remove_configs()
    failures = run.check()
    attempted = sum(r.transitions for r in run.results.values())
    failed = sum(r.diverged for r in run.results.values())
    if tracer is None:
        metrics = {"setup_s": setup, **run.end_to_end(), **run.ess_figures()}
    else:
        metrics, count_failures = run.per_layer(tracer.spans())
        failures += count_failures
    return dict(wrong=failures, messages=failures, attempted=attempted, failed=failed,
                metrics=metrics, raw=run.raw(), reference=run.end_to_end(), rounds=rounds)


def run_certify(seed: int, seconds: float, tracer) -> dict:
    from certify import OPS_PER_ROUND, CertifyRun

    if tracer is None:
        setup = setup_seconds(CERTIFY_SETUP)
    run = CertifyRun(seed, tracer)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while more_rounds(rounds, deadline, tracer):
        run.run_round(rounds)
        rounds += 1
    wrong = list(run.wrong)
    if tracer is None:
        metrics = {"setup_s": setup, **run.end_to_end()}
    else:
        metrics, count_failures = run.per_layer(tracer.spans(), rounds)
        wrong += count_failures
    # a check that does not pass is a failed operation, not a wrong output
    return dict(wrong=wrong, messages=run.failures + wrong,
                attempted=OPS_PER_ROUND * rounds, failed=run.failed_ops, metrics=metrics,
                raw=run.raw(), reference=run.end_to_end(), rounds=rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dynhmc" / "__init__.py").is_file():
        fail(f"no dynhmc sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import dynhmc

    if Path(dynhmc.__file__).resolve().parent != SRC / "dynhmc":
        fail(f"imported dynhmc from {dynhmc.__file__}, not from {SRC}")
    units = declared_units()
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    try:
        if args.workload == "certify":
            res = run_certify(args.seed, args.seconds, tracer)
        else:
            res = run_sampling(args.workload, args.seed, args.seconds, tracer, out)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        res["metrics"]["peak_rss_mb"] = peak_rss_mb
    else:
        tracer.save(out / "spans.npz")

    # every workload prints every metric of its kind that BENCHMARK.json
    # declares, and nothing else; figures that only some workloads have go to
    # the result file
    kind = "per_layer" if args.trace else "end_to_end"
    declared = [name for name, (_, k) in units.items() if k == kind]
    missing = [name for name in declared if name not in res["metrics"]]
    if missing:
        fail(f"{args.workload} did not measure {', '.join(missing)}")
    metrics = {name: {"value": res["metrics"][name], "unit": units[name][0]}
               for name in declared}
    unlisted = {name: v for name, v in res["metrics"].items() if name not in units}
    for msg in res["messages"]:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    (out / "result.json").write_text(
        json.dumps({**result, "rounds": res["rounds"], "raw": res["raw"],
                    "reference": res["reference"], "unlisted": unlisted,
                    "peak_rss_mb": peak_rss_mb}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
