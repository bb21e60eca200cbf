"""Steadiness of the benchmark, and the BENCH_<label>.json results file.

    python3 perfbench/steady.py [--first-seed 1] [--label NAME]

Runs every workload of BENCHMARK.json RUNS times with tracing off, for its
run_seconds each, run i with seed --first-seed + i, alternating the order of
the workloads from one repetition to the next; then one traced run of each.
Each run is its own process (perfbench/run.py). Prints the median and
quartiles of every end-to-end metric and their spread, (q3 - q1) / median,
which is what the bounds in BENCHMARK.json are set against. Writes
everything, with the operations attempted and failed by kind, to
perfbench/results/BENCH_<label>.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_LOG = HERE / "out" / "runs.jsonl"
RUNS = 10


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    with open(RUNS_LOG, encoding="utf-8") as f:
        record = json.loads(f.readlines()[-1])
    record["process_s"] = took
    return json.loads(lines[-1]), record


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values), "n": len(values)}


def summarise(results):
    """workload -> metric -> stats over the runs."""
    out = {}
    for workload, runs in results.items():
        names = runs[0]["metrics"].keys()
        out[workload] = {m: {**stats([r["metrics"][m]["value"] for r in runs]),
                             "unit": runs[0]["metrics"][m]["unit"]} for m in names}
    return out


def operations(records):
    """Operations by kind summed over runs, with exit codes."""
    total = {}
    for rec in records:
        for kind, e in rec["ops"].items():
            t = total.setdefault(kind, {"attempted": 0, "failed": 0, "exit_codes": {}})
            t["attempted"] += e["attempted"]
            t["failed"] += e["failed"]
            for code, n in e["exit_codes"].items():
                t["exit_codes"][code] = t["exit_codes"].get(code, 0) + n
    return total


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "platform": platform.platform(),
            "cpus": os.cpu_count(), "cpu": model}


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="local")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    plain = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    records = {w: [] for w in workloads}
    for i in range(RUNS):
        for w in (workloads if i % 2 == 0 else workloads[::-1]):
            result, record = one_run(w, args.first_seed + i, seconds, 0)
            plain[w].append(result)
            records[w].append(record)
            print(f"{w:14s} seed {args.first_seed + i:3d} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                  + f"  ({record['process_s']:.1f} s)", flush=True)
    for w in workloads:
        result, record = one_run(w, args.first_seed, seconds, 1)
        traced[w].append(result)
        records[w].append(record)
        print(f"{w:14s} traced seed {args.first_seed} "
              f"overhead {result['metrics']['trace.overhead_s']['value']:.4g} s"
              f"  ({record['process_s']:.1f} s)", flush=True)

    untraced = summarise(plain)
    print(f"\n{'workload':14s} {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound/3':>8s}")
    for w, metrics in untraced.items():
        for m, s in metrics.items():
            flag = "" if s["spread"] < bounds[m] / 3 else "  WIDE"
            print(f"{w:14s} {m:16s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                  f"{s['spread']:8.2%} {bounds[m] / 3:8.2%}{flag}")
        shares = {r["failed"] / r["attempted"] for r in plain[w]}
        print(f"{w:14s} failed share {sorted(shares)}")

    out = {
        "label": args.label,
        "machine": machine(),
        "run_seconds": seconds,
        "seeds": [args.first_seed + i for i in range(RUNS)],
        "untraced": untraced,
        "traced": summarise(traced),
        "operations": {w: {"attempted": sum(r["attempted"] for r in plain[w] + traced[w]),
                           "failed": sum(r["failed"] for r in plain[w] + traced[w]),
                           "by_kind": operations(records[w])} for w in workloads},
        "process_s": {w: [r["process_s"] for r in records[w]] for w in workloads},
    }
    (HERE / "results").mkdir(exist_ok=True)
    path = HERE / "results" / f"BENCH_{args.label}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
    print(f"\nwrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
