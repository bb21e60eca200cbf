"""Recompute the reference figures quoted in perfbench/README.md.

    python3 perfbench/figures.py

Prints markdown tables, from the current code and the workloads' own
inputs: each construction's size before and after `ratwp trim`, the pairs
each verified automaton accepts, each oracle's word count and slack, and
the cost of one accepts() query on each automaton of the membership
workload. Takes about half a minute.
"""

import random
import shutil
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ratwp  # noqa: E402
import ratwp.cli  # noqa: E402

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 1


def table(header, rows):
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for row in rows:
        print("| " + " | ".join(str(x) for x in row) + " |")
    print()


def constructions(work):
    construct = wl.Construct()
    state = construct.setup(ratwp, SEED, work)
    construct.execute(state, None, lambda label: nullcontext())
    rows = []
    for flow in state["flows"]:
        if flow.kind != "trim":
            continue
        made = flow.source
        before, after = ref.fsa_header(made.output), ref.fsa_header(flow.output)
        what = " ".join(Path(a).name if "/" in a else a for a in made.argv[:-2])
        rows.append((f"`{what}`", *before, *after))
    # |I| = 4 is left out of the workload's rounds (see README.md); its size
    # is still a reference figure.
    inputs.write(work / "ideal4.tbl", inputs.left_zero_ideal_tbl(4))
    big, trimmed = str(work / "ie4.fsa"), str(work / "ie4.trim.fsa")
    ratwp.cli.main(["construct", "ideal-ext", str(work / "fig3.fsa"), str(work / "ideal4.tbl"),
                    "-o", big])
    ratwp.cli.main(["trim", big, "-o", trimmed])
    rows.append(("`construct ideal-ext fig3.fsa ideal4.tbl` (not timed)",
                 *ref.fsa_header(big), *ref.fsa_header(trimmed)))
    print("Constructions of the construct workload, before and after `ratwp trim`:\n")
    table(("command", "states", "transitions", "trimmed states", "trimmed transitions"), rows)


def verified(work):
    inputs.write(work / "t3.tbl", inputs.t3_tbl())
    inputs.write(work / "mutant.fsa", inputs.fig3_mutant_fsa(random.Random(SEED)))
    t3 = ratwp.cayley_wp_sync(ratwp.load_tbl(str(work / "t3.tbl")), ref.T3_GENERATORS)
    cases = [("fig1", ratwp.builtin("fig1"), wl.FIG_BOUND["fig1"]),
             ("fig2", ratwp.builtin("fig2"), wl.FIG_BOUND["fig2"]),
             ("T3 Cayley", t3, wl.T3_BOUND),
             ("fig3", ratwp.builtin("fig3"), wl.FIG3_BOUND),
             ("fig3", ratwp.builtin("fig3"), wl.PUMP_BOUND),
             ("fig3 mutant", ratwp.load_fsa(str(work / "mutant.fsa")), wl.PUMP_BOUND)]
    rows = []
    for name, aut, bound in cases:
        start = perf_counter()
        pairs = len(ratwp.enumerate_accepted(aut, bound))
        rows.append((name, bound, pairs, f"{perf_counter() - start:.3f}"))
    print("Accepted pairs of the verified and pumped automata:\n")
    table(("automaton", "bound", "accepted pairs", "enumerate_accepted s"), rows)

    rows = []
    for fig in ("fig1", "fig2", "fig3"):
        inputs.write(work / f"{fig}.sgp", inputs.FIG_SGP[fig])
        bounds = [wl.FIG_BOUND[fig]] if fig in wl.FIG_BOUND else [wl.FIG3_BOUND, wl.PUMP_BOUND]
        for bound in bounds:
            start = perf_counter()
            oracle = ratwp.build_oracle(ratwp.load_sgp(str(work / f"{fig}.sgp")), bound)
            rows.append((fig, bound, len(oracle.class_of), oracle.slack,
                         f"{perf_counter() - start:.3f}"))
    oracle = ratwp.table_oracle(ratwp.load_tbl(str(work / "t3.tbl")), ref.T3_GENERATORS,
                                wl.T3_BOUND)
    rows.append(("T3 table", wl.T3_BOUND, len(oracle.class_of), oracle.slack, "-"))
    print("Oracles (words in the closure, slack chosen by the search):\n")
    table(("oracle", "bound", "words", "slack", "build s"), rows)


def queries(work):
    membership = wl.Membership()
    state = membership.setup(ratwp, SEED, work)
    batch = membership.prepare(state, 0)
    rows = []
    for name, aut in state["automata"].items():
        mine = [(v, w) for n, _, v, w in batch if n == name]
        start = perf_counter()
        for v, w in mine:
            aut.accepts(v, w)
        per = (perf_counter() - start) / len(mine)
        silent = any(t.left is None and t.right is None for t in aut.transitions)
        rows.append((name, aut.n_states, len(aut.transitions), "yes" if silent else "no",
                     len(mine), f"{per * 1e3:.3f}"))
    print(f"Membership queries of round 0, seed {SEED}:\n")
    table(("automaton", "states", "transitions", "silent steps", "queries per round",
           "ms per query"), rows)


def main():
    work = HERE / "out" / "figures-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        constructions(work)
        verified(work)
        queries(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
