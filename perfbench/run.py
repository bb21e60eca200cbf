"""Benchmark of ratwp: one workload, one process, one caller in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; ratwp is imported from ./src. The run sets
the workload up SETUPS times (a fresh import of ratwp each time, then the
input files and the automata it only queries) and reports the median as
setup_s. It then repeats whole rounds of the workload until S seconds have
passed, at least one round, and reports the median round as wall_s.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics. With --trace 1 the rounds alternate between untraced
and traced, every public function of ratwp being wrapped in a span during
traced rounds and set-ups, and the metrics are the per-layer ones: what one
set-up plus one round spends in each layer, and the tracing overhead.

Every run is appended to perfbench/out/runs.jsonl with its operations by
kind and exit code; a traced run also writes its spans to
perfbench/out/spans-<workload>.jsonl.
"""

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS, Ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 17
# This machine's speed drifts by up to 1.7x within minutes (other tenants),
# and ratwp's times drift with it. A fixed kernel timed right before and
# right after each set-up and each round measures the speed at that moment;
# each sample is divided by the mean of its two probes, and times are
# reported in reference seconds: as if the kernel took PROBE_REFERENCE_S.
PROBE_REFERENCE_S = 0.05


def units(kind):
    """Metric name -> unit, for the end_to_end or per_layer list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def machine_probe():
    """Seconds taken by a fixed dict/set/tuple kernel, the kind of work
    ratwp does; independent of ratwp. Its few thousand keys keep it out of
    peak_rss_mb."""
    gc.collect()
    start = perf_counter()
    counts = {}
    for i in range(90000):
        key = (i % 97, (i * 7) % 101, ())
        counts[key] = counts.get(key, 0) + 1
    seen = {(k, v) for k, v in counts.items()}
    if len(seen) != len(counts):
        raise AssertionError("probe kernel")
    return perf_counter() - start


def reference_seconds(samples, probes):
    """Median of the samples, each scaled by the probes around it."""
    return statistics.median(PROBE_REFERENCE_S * t / ((a + b) / 2)
                             for t, (a, b) in zip(samples, probes))


def fresh_import():
    """Import ratwp anew, so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "ratwp" or n.startswith("ratwp.")]:
        del sys.modules[name]
    ratwp = importlib.import_module("ratwp")
    importlib.import_module("ratwp.cli")
    return ratwp


def mean_of(summaries, part):
    total = {}
    for s in summaries:
        for key, value in s[part].items():
            total[key] = total.get(key, 0) + value
    return {key: value / len(summaries) for key, value in total.items()}


def layer_values(setups, rounds, counts, traced_s, untraced_s):
    """Per-layer metrics: mean per traced set-up plus mean per traced round."""
    def part(name):
        a, b = mean_of(setups, name), mean_of(rounds, name)
        return {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}

    inclusive, calls, self_time = part("inclusive"), part("calls"), part("self")
    sizes, cons_s = part("sizes"), part("construction_s")
    m = {}
    for metric, unit in units("per_layer").items():
        layer, rest = metric.split(".", 1)
        if metric == "oracle.words":
            value = (sizes.get(("oracle.build_oracle", "words"), 0)
                     + sizes.get(("oracle.table_oracle", "words"), 0))
        elif metric == "fileio.bytes_out":
            value = sizes.get(("fileio.dumps_fsa", "bytes"), 0)
        elif metric == "oracle.verify.self_s":
            value = self_time.get("oracle.verify", 0.0)
        elif metric == "automata.accepts.s":
            value = inclusive.get("automata.accepts_two_tape", 0.0)
        elif metric == "automata.accepts.calls":
            value = calls.get("automata.accepts_two_tape", 0)
        elif metric == "trace.overhead_s":
            value = statistics.median(traced_s) - statistics.median(untraced_s)
        elif metric == "trace.spans":
            value = statistics.mean(r["spans"] for r in rounds)
        elif rest == "self_s":
            value = sum(v for k, v in self_time.items() if k.startswith(layer + "."))
        elif layer == "constructions":
            name, what = rest.rsplit(".", 1)
            built = counts["constructions"].get(name, [0, 0, 0, 0])
            value = {"s": cons_s.get(name, 0.0), "states": built[0],
                     "transitions": built[1],
                     "useful_ratio": built[2] / built[3] if built[3] else 0.0}[what]
        elif rest.endswith(".calls"):
            value = calls.get(metric[:-len(".calls")], 0)
        else:
            value = inclusive.get(metric[:-len(".s")], 0.0)
        m[metric] = {"value": value, "unit": unit}
    return m


def measure(workload, seed, seconds, trace, work):
    tracer = Tracer() if trace else None
    no_label = lambda label: nullcontext()
    setup_s, setup_summaries, probe_s = [], [], []
    for i in range(SETUPS):
        where = work / f"setup{i}"
        where.mkdir(parents=True)
        before = machine_probe()
        start = perf_counter()
        ratwp = fresh_import()
        if tracer:
            tracer.attach()
            mark = tracer.mark()
        state = workload.setup(ratwp, seed, where)
        setup_s.append(perf_counter() - start)
        probe_s.append((before, machine_probe()))
        if tracer:
            tracer.detach()
            setup_summaries.append(tracer.summary(mark))

    ops = Ops()
    untraced_s, traced_s, round_summaries, round_probe_s = [], [], [], []
    deadline = perf_counter() + seconds
    r = 0
    while r == 0 or perf_counter() < deadline or (trace and r < 2):
        traced = trace and r % 2 == 1
        batch = workload.prepare(state, r)
        before = machine_probe()
        if traced:
            tracer.attach()
            mark = tracer.mark()
        start = perf_counter()
        raw = workload.execute(state, batch, tracer.flow if traced else no_label)
        elapsed = perf_counter() - start
        probes = (before, machine_probe())
        if traced:
            tracer.detach()
            round_summaries.append(tracer.summary(mark))
            traced_s.append(elapsed)
        else:
            untraced_s.append(elapsed)
            round_probe_s.append(probes)
        counts = workload.check(state, batch, raw, ops)
        r += 1
    workload.final_check(state, ops)

    if trace:
        metrics = layer_values(setup_summaries, round_summaries, counts, traced_s, untraced_s)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"setup_s": reference_seconds(setup_s, probe_s),
                  "wall_s": reference_seconds(untraced_s, round_probe_s),
                  "peak_rss_mb": rss_mb, "states_out": counts["states_out"],
                  "transitions_out": counts["transitions_out"]}
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in units("end_to_end").items()}
    detail = {"rounds": r, "round_s": untraced_s, "traced_round_s": traced_s,
              "setup_s": setup_s, "setup_probe_s": probe_s, "round_probe_s": round_probe_s,
              "ops": ops.kinds, "errors": ops.errors}
    if trace:
        detail["functions"] = {part: mean_of(round_summaries, part)
                               for part in ("calls", "inclusive", "self")}
    return ops, metrics, detail, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ratwp" / "__init__.py").is_file():
        print(f"error: no ratwp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ops, metrics, detail, tracer = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not ops.errors
    result = {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **result, **detail}
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    if tracer:
        with open(OUT / f"spans-{args.workload}.jsonl", "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    for error in ops.errors:
        print(f"incorrect: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
