"""Steadiness check: run every workload repeatedly, interleaved, and report
each end-to-end metric's median and quartiles against its bound.

    python3 perfbench/steady.py --runs 10 [--workloads slack jobs] [--seconds 20]

Runs are made one at a time in the order w1 w2 ... wN w1 w2 ..., each with
its own seed, so a slow host period lands on every workload alike.  A
metric is flagged when its interquartile distance, as a share of its
median, exceeds its bound in ``BENCHMARK.json``; modeled metrics must
read the same on every run.  The host noise context (the program's host
fingerprint, load average, stolen CPU time) is stamped on the result,
which is also written as JSON with ``--output``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.bench import HostContext  # noqa: E402
from perfbench.stats import spread  # noqa: E402

EXACT = ("modeled_speedup", "exec_err_pct")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--output", type=pathlib.Path)
    args = parser.parse_args(argv)

    host = HostContext()
    started = time.time()
    values = {w: {} for w in args.workloads}
    failures = {w: [0, 0] for w in args.workloads}
    for i in range(args.runs):
        for workload in args.workloads:
            seed = args.seed_base + i
            result = run_once(workload, seed, args.seconds)
            failures[workload][0] += result["attempted"]
            failures[workload][1] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"run {i + 1}/{args.runs} {workload} seed {seed}: "
                  f"{result['failed']}/{result['attempted']} failed, "
                  f"steal {result['detail']['host']['steal_ticks']} ticks", flush=True)

    flagged = []
    summary = {}
    for workload in args.workloads:
        attempted, failed = failures[workload]
        print(f"\n{workload}: {failed}/{attempted} operations failed")
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[workload].get(name, [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = spread(vals)
            flag = ""
            if name in EXACT and len(set(vals)) != 1:
                flag = "NOT EXACT"
            elif share > bound:
                flag = "OVER BOUND"
            elif share > bound / 3:
                flag = "over a third of bound"
            if flag and flag != "over a third of bound":
                flagged.append((workload, name, flag))
            summary[workload][name] = {"q1": q1, "median": med, "q3": q3,
                                       "spread": share, "bound": bound, "values": vals}
            print(f"  {name:<16} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {share:7.2%} / bound {bound:.0%}  {flag}")
    context = dict(host.stamp(), runs=args.runs, seconds=args.seconds,
                   wall_s=time.time() - started)
    print(f"\nhost: {json.dumps(context)}")
    if args.output:
        args.output.write_text(json.dumps({"host": context, "workloads": summary}, indent=2))
    for workload, name, flag in flagged:
        print(f"FLAGGED {workload} {name}: {flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
