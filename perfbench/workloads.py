"""The four workloads: what each sets up, runs in a round, and checks.

A round is a fixed list of operations; every round of a workload attempts
the same operations, so failures are the same share of attempts in any run.
Shell flows run in process through ratwp.cli.main(argv): argument parsing
and file I/O are measured, interpreter start-up is not.
"""

import ast
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import inputs
import reference as ref

FIG_BOUND = {"fig1": 9, "fig2": 9}       # verify-sparse
T3_BOUND, FIG3_BOUND, PUMP_BOUND = 5, 8, 7  # verify-dense
# construct; |I| = 4 is left out, see README.md
IDEAL_SIZES = (1, 2, 3)


@dataclass
class Flow:
    """One `ratwp` command line and what a correct run of it looks like."""

    kind: str                    # construct, trim, verify, pump-refute, ...
    argv: list
    label: str = None            # construction name, for per-layer metrics
    output: str = None           # file the command writes
    expect: object = None        # (code, stdout) -> error text or None
    source: "Flow" = None        # for trim: the construction it trims
    reference: tuple = None      # (normal form, alphabet, bound) of the output


@dataclass
class Ops:
    """Operations attempted and failed, by kind, with their exit codes."""

    kinds: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def add(self, kind, code):
        entry = self.kinds.setdefault(
            kind, {"attempted": 0, "failed": 0, "exit_codes": {}})
        entry["attempted"] += 1
        # A raised exception or an input error (exit 2) is a failed
        # operation; a wrong verdict is an error in the output.
        if not isinstance(code, int) or code == 2:
            entry["failed"] += 1
        codes = entry["exit_codes"]
        codes[str(code)] = codes.get(str(code), 0) + 1

    def error(self, text):
        if len(self.errors) < 20:
            self.errors.append(text)

    @property
    def attempted(self):
        return sum(e["attempted"] for e in self.kinds.values())

    @property
    def failed(self):
        return sum(e["failed"] for e in self.kinds.values())


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue() + err.getvalue()


def expect_code(code):
    return lambda c, out: None if c == code else f"exit {c!r}: {out[-300:]}"


def expect_verified(c, out):
    if c == 0 and out.strip() == "OK (0 disagreements)":
        return None
    return f"verify exit {c!r}: {out[:300]}"


def expect_not_refuted(c, out):
    if c == 0 and out.strip() == "pump_refute: not-refuted":
        return None
    return f"pump-refute exit {c!r}: {out[:300]}"


def expect_refuted_by(nf):
    """Refuted, and the reference shows every witness pair unequal."""
    def check(c, out):
        lines = out.strip().splitlines()
        if c != 1 or not lines or lines[0] != "pump_refute: refuted" or len(lines) < 2:
            return f"pump-refute exit {c!r}: {out[:300]}"
        for line in lines[1:]:
            (_, _), _, (pv, pw) = ast.literal_eval(line.strip())
            if nf(pv) == nf(pw):
                return f"witness {line.strip()} is an equal pair"
        return None
    return check


class CliWorkload:
    """A workload whose round is a list of `ratwp` command lines."""

    def flows(self, work, rng):
        raise NotImplementedError

    def write_inputs(self, work, rng):
        raise NotImplementedError

    def setup(self, ratwp, seed, work):
        rng = random.Random(f"{self.name}/{seed}")
        self.write_inputs(work, rng)
        return {"cli": ratwp.cli, "ratwp": ratwp, "work": work,
                "flows": self.flows(work, rng)}

    def prepare(self, state, r):
        return None

    def execute(self, state, batch, flow_label):
        cli = state["cli"]
        results = []
        for flow in state["flows"]:
            with flow_label(flow.label):
                results.append(run_cli(cli, flow.argv))
        return results

    def check(self, state, batch, results, ops):
        built = {}   # label -> [states, transitions, trimmed, built when trimmed]
        states_out = transitions_out = 0
        for flow, (code, out) in zip(state["flows"], results):
            ops.add(flow.kind, code)
            problem = flow.expect(code, out) if flow.expect else None
            if problem:
                ops.error(f"{' '.join(flow.argv[:2])}: {problem}")
                continue
            if flow.kind in ("construct", "compose"):
                n, t = ref.fsa_header(flow.output)
                states_out += n
                transitions_out += t
                entry = built.setdefault(flow.label, [0, 0, 0, 0])
                entry[0] += n
                entry[1] += t
            elif flow.kind == "trim":
                before = ref.fsa_header(flow.source.output)[0]
                after = ref.fsa_header(flow.output)[0]
                if after > before:
                    ops.error(f"trim of {flow.source.output} grew {before} -> {after}")
                entry = built.setdefault(flow.source.label, [0, 0, 0, 0])
                entry[2] += after
                entry[3] += before
        return {"states_out": states_out, "transitions_out": transitions_out,
                "constructions": built}

    def final_check(self, state, ops):
        for flow in state["flows"]:
            if flow.kind != "trim" or flow.source.reference is None:
                continue
            nf, alphabet, bound = flow.source.reference
            got = ref.accepted_pairs(flow.output, bound)
            want = ref.equal_pairs(nf, alphabet, bound)
            if got != want:
                ops.error(f"{flow.output}: {len(got ^ want)} pairs up to "
                          f"length {bound} disagree with the reference")


class VerifySparse(CliWorkload):
    """fig1 and fig2 verified at bound 10: thin relations, so verify's
    all-pairs comparison dominates and enumeration is cheap."""

    name = "verify-sparse"

    def write_inputs(self, work, rng):
        for fig in FIG_BOUND:
            inputs.write(work / f"{fig}.sgp", inputs.FIG_SGP[fig])

    def flows(self, work, rng):
        groups = []
        for fig, bound in FIG_BOUND.items():
            fsa, sgp = str(work / f"{fig}.fsa"), str(work / f"{fig}.sgp")
            groups.append([
                Flow("construct", ["construct", "from-builtin", fig, "-o", fsa],
                     label="builtin", output=fsa, expect=expect_code(0)),
                Flow("verify", ["verify", fsa, sgp, "--bound", str(bound)],
                     expect=expect_verified)])
        rng.shuffle(groups)
        return [f for g in groups for f in g]

    def final_check(self, state, ops):
        ratwp, work = state["ratwp"], state["work"]
        for fig, nf in (("fig1", ref.fig1_nf), ("fig2", ref.fig2_nf)):
            bound = FIG_BOUND[fig]
            oracle = ratwp.build_oracle(ratwp.load_sgp(str(work / f"{fig}.sgp")), bound)
            if not ref.partition_matches(oracle.class_of, nf, "ab", bound):
                ops.error(f"{fig} oracle classes differ from the normal forms")


class VerifyDense(CliWorkload):
    """T3's Cayley automaton and fig3 verified, and fig3 and its mutant
    pumped: large classes, so enumerate_accepted and analysis dominate."""

    name = "verify-dense"

    def write_inputs(self, work, rng):
        # Not seeded: the element order of T3 sets the order in which
        # enumerate_accepted walks the Cayley automaton, and with it the
        # peak memory of the run (58.8 MB for one order, 67.9 MB for another).
        inputs.write(work / "t3.tbl", inputs.t3_tbl())
        inputs.write(work / "fig3.sgp", inputs.FIG_SGP["fig3"])
        inputs.write(work / "mutant.fsa", inputs.fig3_mutant_fsa(rng))

    def flows(self, work, rng):
        t3_tbl, t3_fsa = str(work / "t3.tbl"), str(work / "t3.fsa")
        sgp, fig3, mutant = (str(work / n) for n in ("fig3.sgp", "fig3.fsa", "mutant.fsa"))
        groups = [
            [Flow("construct", ["construct", "cayley", t3_tbl, "--gens", inputs.T3_GENS,
                                "-o", t3_fsa],
                  label="cayley_wp_sync", output=t3_fsa, expect=expect_code(0)),
             Flow("verify", ["verify", t3_fsa, t3_tbl, "--gens", inputs.T3_GENS,
                             "--bound", str(T3_BOUND)], expect=expect_verified)],
            [Flow("construct", ["construct", "from-builtin", "fig3", "-o", fig3],
                  label="builtin", output=fig3, expect=expect_code(0)),
             Flow("verify", ["verify", fig3, sgp, "--bound", str(FIG3_BOUND)],
                  expect=expect_verified),
             Flow("pump-refute", ["pump-refute", fig3, sgp, "--bound", str(PUMP_BOUND)],
                  expect=expect_not_refuted)],
            [Flow("pump-refute", ["pump-refute", mutant, sgp, "--bound", str(PUMP_BOUND)],
                  expect=expect_refuted_by(ref.fig3_nf))],
        ]
        rng.shuffle(groups)
        return [f for g in groups for f in g]

    def final_check(self, state, ops):
        ratwp, work = state["ratwp"], state["work"]
        table = ratwp.load_tbl(str(work / "t3.tbl"))
        oracle = ratwp.table_oracle(table, ref.T3_GENERATORS, T3_BOUND)
        if not ref.partition_matches(oracle.class_of, ref.t3_value,
                                     ref.T3_GENERATORS, T3_BOUND):
            ops.error("T3 table oracle classes differ from the T3 values")
        sgp = ratwp.load_sgp(str(work / "fig3.sgp"))
        for bound in (FIG3_BOUND, PUMP_BOUND):
            oracle = ratwp.build_oracle(sgp, bound)
            if not ref.partition_matches(oracle.class_of, ref.fig3_nf, "ab", bound):
                ops.error(f"fig3 oracle classes at bound {bound} differ from a^d b^k")


class Construct(CliWorkload):
    """Every construction written with `ratwp construct` (or `compose`) and
    trimmed with `ratwp trim`: the write side, where constructions, trim
    and the .fsa reader and writer dominate."""

    name = "construct"

    def write_inputs(self, work, rng):
        inputs.write(work / "t3.tbl", inputs.t3_tbl(rng))
        inputs.write(work / "c2.tbl", inputs.C2_TBL)
        for k in IDEAL_SIZES:
            inputs.write(work / f"ideal{k}.tbl", inputs.left_zero_ideal_tbl(k))

    def flows(self, work, rng):
        p = lambda name: str(work / name)
        fig3_ref = (ref.fig3_nf, "ab", 5)
        c2_ref = (ref.c2_value, "g", 6)
        specs = [
            ("builtin", ["construct", "from-builtin", "fig3"], "fig3.fsa", fig3_ref),
            ("cayley_wp_sync", ["construct", "cayley", p("t3.tbl"), "--gens", inputs.T3_GENS],
             "t3.fsa", (ref.t3_value, ref.T3_GENERATORS, 4)),
            ("cayley_wp_sync", ["construct", "cayley", p("c2.tbl"), "--gens", "g"],
             "c2.fsa", c2_ref),
            ("product_with_finite", ["construct", "product-finite", p("fig3.fsa"), p("t3.tbl"),
                                     "--pairs", inputs.PRODUCT_PAIRS_ARG],
             "pf.fsa", (ref.product_nf(inputs.PRODUCT_PAIRS), tuple(inputs.PRODUCT_PAIRS), 4)),
        ]
        for k in IDEAL_SIZES:
            specs.append(("ideal_extension",
                          ["construct", "ideal-ext", p("fig3.fsa"), p(f"ideal{k}.tbl")],
                          f"ie{k}.fsa",
                          (ref.left_zero_ideal_nf(k), ("a", "b") + ref.ideal_symbols(k),
                           4 if k < 3 else 3)))
        previous = "fig3.fsa"
        for length in range(2, 7):
            specs.append(("compose", ["compose", p(previous), p("fig3.fsa")],
                          f"chain{length}.fsa", fig3_ref))
            previous = f"chain{length}.fsa"
        fig3z = ref.adjoin_zero_nf(ref.fig3_nf, "z")
        specs += [
            ("adjoin_zero", ["construct", "adjoin-zero", p("fig3.fsa"), "--symbol", "z"],
             "fig3z.fsa", (fig3z, "abz", 4)),
            ("adjoin_zero", ["construct", "adjoin-zero", p("c2.fsa"), "--symbol", "z"],
             "c2z.fsa", (ref.adjoin_zero_nf(ref.c2_value, "z"), "gz", 5)),
            ("zero_union", ["construct", "zero-union", p("fig3z.fsa"), p("c2z.fsa"),
                            "--symbol", "z"],
             "zu.fsa", (ref.zero_union_nf(ref.fig3_nf, "ab", ref.c2_value, "g", "z"),
                        "abzg", 3)),
            ("free_product", ["construct", "free-product", p("fig3.fsa"), p("c2.fsa")],
             "fp.fsa", (ref.free_product_nf([("ab", ref.fig3_nf), ("g", ref.c2_value)]),
                        "abg", 4)),
        ]
        flows = []
        for label, argv, out, reference in specs:
            made = Flow(argv[0], argv + ["-o", p(out)], label=label, output=p(out),
                        expect=expect_code(0), reference=reference)
            trimmed = p(out[:-4] + ".trim.fsa")
            flows += [made, Flow("trim", ["trim", p(out), "-o", trimmed], output=trimmed,
                                 expect=expect_code(0), source=made)]
        return flows


class Membership:
    """A seeded stream of single accepts() calls through the library, about
    half of them on pairs equal by construction: the read side."""

    name = "membership"
    # automaton -> queries per round, longest word
    MIX = {"crit7": (700, 8), "compose4": (300, 8), "adjoin_zero": (250, 8),
           "fig2": (125, 8), "fig3": (124, 8), "ideal3": (1, 5)}

    def setup(self, ratwp, seed, work):
        inputs.write(work / "ideal3.tbl", inputs.left_zero_ideal_tbl(3))
        ab = ratwp.Alphabet(("a", "b"))
        fig3, fig2 = ratwp.builtin("fig3"), ratwp.builtin("fig2")
        a_plus = ratwp.OneTapeAutomaton(
            2, ab, 0, frozenset({1}),
            tuple(ratwp.NfaTransition(q, s, 1) for q in (0, 1) for s in "ab"))
        mwp = ratwp.monoid_from_semigroup_wp(ratwp.free_wp(ab))
        compose4 = fig3
        for _ in range(3):
            compose4 = ratwp.compose(compose4, fig3)
        automata = {
            "crit7": ratwp.intersect_rectangle(mwp, a_plus, a_plus),
            "compose4": compose4,
            "adjoin_zero": ratwp.adjoin_zero(fig3, "z"),
            "fig2": fig2,
            "fig3": fig3,
            "ideal3": ratwp.ideal_extension(
                fig3, ratwp.load_ideal(str(work / "ideal3.tbl"))),
        }
        return {"seed": seed, "automata": automata}

    # Normal form and equal-by-construction variant of each automaton's words.
    @staticmethod
    def _fig3_variant(rng, v):
        first = v[0]
        rest = ["b"] * (v.count("b") - (first == "b")) + ["a"] * rng.randint(0, 3)
        rng.shuffle(rest)
        return (first,) + tuple(rest)

    @staticmethod
    def _fig2_variant(rng, v):
        out, i = [], 0
        while i < len(v):
            j = i
            while j < len(v) and v[j] == "b":
                j += 1
            if j == i:
                out.append(v[i])
                i += 1
                continue
            internal = i > 0 and j < len(v)
            out += ["b"] * (rng.randint(1, 3) if internal else j - i)
            i = j
        return tuple(out)

    def _variant(self, name, rng, v):
        if name == "crit7":
            return v
        if name == "fig2":
            return self._fig2_variant(rng, v)
        if name == "adjoin_zero" and "z" in v:
            w = list(self._word(rng, "ab", 5, min_len=0))
            w.insert(rng.randint(0, len(w)), "z")
            return tuple(w)
        if name == "ideal3":
            value = ref.left_zero_ideal_nf(3)(v)
            if value[0] == "I":
                prefix = self._word(rng, "ab", 3, min_len=0)
                first = (value[1] - prefix.count("b")) % 3
                return prefix + (f"u{first}",) + self._word(rng, ("a", "b", "u0", "u1", "u2"),
                                                            2, min_len=0)
        return self._fig3_variant(rng, v)

    NF = {"crit7": ref.fig1_nf, "compose4": ref.fig3_nf,
          "adjoin_zero": ref.adjoin_zero_nf(ref.fig3_nf, "z"),
          "fig2": ref.fig2_nf, "fig3": ref.fig3_nf, "ideal3": ref.left_zero_ideal_nf(3)}

    @staticmethod
    def _word(rng, alphabet, max_len, min_len=1):
        return tuple(rng.choice(alphabet) for _ in range(rng.randint(min_len, max_len)))

    def prepare(self, state, r):
        rng = random.Random(f"{self.name}/{state['seed']}/{r}")
        batch = []
        for name, (count, max_len) in self.MIX.items():
            aut = state["automata"][name]
            alphabet = aut.left.symbols
            for _ in range(count):
                v = self._word(rng, alphabet, max_len)
                if rng.random() < 0.5:
                    w = self._variant(name, rng, v)
                else:
                    w = self._word(rng, alphabet, max_len)
                batch.append((name, v, w))
        rng.shuffle(batch)
        return [(name, state["automata"][name], v, w) for name, v, w in batch]

    def execute(self, state, batch, flow_label):
        answers = []
        for _, aut, v, w in batch:
            try:
                answers.append(aut.accepts(v, w))
            except Exception as exc:
                answers.append(f"{type(exc).__name__}: {exc}")
        return answers

    def check(self, state, batch, answers, ops):
        for (name, _, v, w), answer in zip(batch, answers):
            ops.add(f"accepts.{name}", 0 if isinstance(answer, bool) else answer)
            nf = self.NF[name]
            if not isinstance(answer, bool):
                ops.error(f"{name}.accepts({''.join(v)}, {''.join(w)}) raised {answer}")
            elif answer != (nf(v) == nf(w)):
                ops.error(f"{name}.accepts({''.join(v)}, {''.join(w)}) = {answer}")
        automata = state["automata"].values()
        return {"states_out": sum(a.n_states for a in automata),
                "transitions_out": sum(len(a.transitions) for a in automata),
                "constructions": {}}

    def final_check(self, state, ops):
        pass


WORKLOADS = {w.name: w for w in (VerifySparse(), VerifyDense(), Membership(), Construct())}
