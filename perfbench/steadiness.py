"""The benchmark's own steadiness check: two sets of runs of one commit.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]

Runs run.py --runs times per workload in each of two sets, each run with
its own seed, then prints per workload and end-to-end metric: each set's
median and spread (distance between the quartiles over the median), the
change of the second set's median against the first (positive in the
metric's worse direction), and each set's share of failed operations.  A
metric fails the check when either spread, or the size of the change in
either direction, exceeds the metric's bound in BENCHMARK.json, or when
the failed shares of the sets differ.  The report also goes to
.perfbench_out/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600).stdout
    return json.loads(out.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    results = {}  # workload -> list of sets -> list of results
    for set_no in range(2):
        for workload in args.workloads.split(","):
            runs = []
            for i in range(args.runs):
                seed = 1000 * (set_no + 1) + i
                res = one_run(workload, seed, args.seconds)
                runs.append(res)
                print(f"# set {set_no + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
            results.setdefault(workload, []).append(runs)

    ok = True
    report = {}
    print(f"\n{'workload':10s} {'metric':12s} {'bound':>6s} "
          + " ".join(f"{'median' + str(s + 1):>11s} {'spread' + str(s + 1):>8s}" for s in range(2))
          + f" {'change':>8s}  verdict")
    for workload, sets in results.items():
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        same_share = len(set(shares)) == 1
        ok &= correct and same_share
        report[workload] = {"failed_share": shares, "correct": correct, "metrics": {}}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (medians[1] - medians[0]) / medians[0]
            good = abs(change) <= bound and max(spreads) <= bound
            ok &= good
            report[workload]["metrics"][name] = {
                "medians": medians, "spreads": spreads, "change": change, "bound": bound, "ok": good,
            }
            print(f"{workload:10s} {name:12s} {bound:6.3f} "
                  + " ".join(f"{m:11.5g} {s:8.4f}" for m, s in zip(medians, spreads))
                  + f" {change:+8.4f}  {'ok' if good else 'FAIL'}")
        print(f"{workload:10s} failed share per set: {shares}; all correct: {correct}")
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump({"runs": args.runs, "seconds": args.seconds, "workloads": report}, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
