#!/usr/bin/env python3
"""Steadiness tool: runs workloads repeatedly as two interleaved sets and
prints each end-to-end metric's median and quartiles per set.

    python3 pipebench/steady.py --runs 10 --seconds 10
    python3 pipebench/steady.py --runs 5 --workloads query_fleet --trace 1

Run i uses seed (base + i) and belongs to set A when i is even, set B when
odd, so both sets see fresh seeds and the same drift of a shared machine.
For every metric it prints, per set, the median, the first and third
quartile (statistics.quantiles(values, n=4)) and the spread — the quartile
distance as a share of the median — plus the shift of set B's median
against set A's, and the share of the machine's cpu time the host stole
while the workload ran (on a virtual machine; 0 elsewhere). The bounds in BENCHMARK.json are derived from these
figures (see pipebench/README.md). Results also go to
.bench_build/steady-<workloads>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["ingest_fanin", "query_fleet", "fattree_live"]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def cpu_jiffies():
    """(steal, total) jiffies of the whole machine, from /proc/stat; on a
    virtual machine steal is the time its vCPUs waited for the host."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf"), "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=100, help="first seed")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        steal0, total0 = cpu_jiffies()
        for i in range(2 * args.runs):
            result = run_once(workload, args.seed + i, args.seconds, args.trace)
            sets["A" if i % 2 == 0 else "B"].append(result)
            print(f"{workload} run {i + 1}/{2 * args.runs}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}", file=sys.stderr)
        rows = {}
        names = list(sets["A"][0]["metrics"])
        for name in names:
            row = {}
            for label, results in sets.items():
                row[label] = summary([r["metrics"][name]["value"] for r in results])
            row["unit"] = sets["A"][0]["metrics"][name]["unit"]
            row["all"] = summary([r["metrics"][name]["value"]
                                  for results in sets.values() for r in results])
            row["shift"] = row["B"]["median"] / row["A"]["median"] - 1 if row["A"]["median"] else 0
            rows[name] = row
        failed = {label: sorted({r["failed"] / r["attempted"] for r in results})
                  for label, results in sets.items()}
        steal1, total1 = cpu_jiffies()
        steal = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
        report[workload] = {"metrics": rows, "failed_share": failed, "steal_share": steal}

        print(f"\n== {workload} ({args.runs} runs per set, {args.seconds}s, trace {args.trace})")
        print(f"{'metric':40s} {'A median':>11s} {'A q1':>11s} {'A q3':>11s} {'A spr':>6s} "
              f"{'B median':>11s} {'B q1':>11s} {'B q3':>11s} {'B spr':>6s} {'shift':>7s} "
              f"{'all spr':>7s}")
        for name, row in rows.items():
            a, b = row["A"], row["B"]
            print(f"{name:40s} {a['median']:11.5g} {a['q1']:11.5g} {a['q3']:11.5g} "
                  f"{a['spread']:6.3f} {b['median']:11.5g} {b['q1']:11.5g} {b['q3']:11.5g} "
                  f"{b['spread']:6.3f} {row['shift']:+7.3f} {row['all']['spread']:7.3f}")
        print(f"failed share per set: {failed}; machine cpu time stolen by the host: "
              f"{100 * steal:.1f}%")

    os.makedirs(".bench_build", exist_ok=True)
    out = os.path.join(".bench_build", f"steady-{args.workloads.replace(',', '-')}"
                       f"-t{args.trace}.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
