#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload paper_light --seeds 1-10 \
        [--seconds 20] [--trace 0] [--out perfbench/ledger/<file>.json]

Run from the repository root. For every metric, and for the raw host
figures on the benchmark's `host` line, it prints the median over the
seeds, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median. With
--out it also writes every run (fingerprint, simulation digest, metrics)
and the summary as JSON, so a run can be committed to the perf ledger and
compared later on the same machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    record = {"seed": seed, "elapsed_s": round(elapsed, 2), "result": result}
    for line in lines:
        if line.startswith("fingerprint "):
            record["fingerprint"] = json.loads(line[len("fingerprint "):])
        elif line.startswith("sim_digest "):
            record["sim_digest"] = line.split()[-1]
        elif line.startswith("host "):
            record["host"] = {k: float(v) for k, v in
                              (kv.split("=") for kv in line.split()[1:])}
    return record


def summary(records):
    names = list(records[0]["result"]["metrics"])
    table = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in records]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        table[name] = {
            "unit": records[0]["result"]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    # The raw host figures behind the normalised end-to-end times.
    for key in records[0].get("host", {}):
        values = [r["host"][key] for r in records]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        table["host." + key] = {"unit": "raw", "median": med, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / med if med else 0.0}
    return table


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    a = ap.parse_args()
    records = []
    for seed in seeds(a.seeds):
        rec = run_once(a.workload, seed, a.seconds, a.trace)
        records.append(rec)
        print(f"seed {seed}: {rec['elapsed_s']} s, digest {rec.get('sim_digest')}", flush=True)
    table = summary(records)
    for name, s in table.items():
        print(f"{name:40s} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
              f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f} {s['unit']}")
    if a.out:
        doc = {"workload": a.workload, "seconds": a.seconds, "trace": a.trace,
               "runs": records, "summary": table}
        os.makedirs(os.path.dirname(os.path.abspath(a.out)), exist_ok=True)
        with open(a.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
