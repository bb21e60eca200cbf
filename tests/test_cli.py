import argparse

import pytest

from ratwp import (
    ProductGenerators,
    builtin,
    cross_section,
    dumps_fsa,
    free_wp,
    loads_fsa,
    product_with_finite,
    save_fsa,
)
from ratwp.automata import Alphabet
import ratwp.cli
from ratwp.cli import main

FIG3_SGP = "kind: semigroup\ngens: a b\nrel: a a = a\nrel: b a = b\n"
C2_TBL = "elements: 1 g\nrow: 1 g\nrow: g 1\n"


@pytest.fixture
def workdir(tmp_path):
    save_fsa(builtin("fig2"), tmp_path / "fig2.fsa")
    save_fsa(builtin("fig3"), tmp_path / "fig3.fsa")
    save_fsa(free_wp(Alphabet(("a", "b"))), tmp_path / "free.fsa")
    (tmp_path / "fig3.sgp").write_text(FIG3_SGP)
    (tmp_path / "c2.tbl").write_text(C2_TBL)
    return tmp_path


def write_fsa(path, n_states, finals, transitions):
    """An async .fsa over {a, b} on both tapes, initial state 0."""
    path.write_text(
        f"type: async\nleft: a b\nright: a b\nstates: {n_states}\n"
        f"initial: 0\nfinal: {' '.join(map(str, sorted(finals)))}\n"
        + "".join(f"trans: {t}\n" for t in transitions))
    return path


def run(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAccept:
    def test_accept(self, workdir, capsys):
        code, out, _ = run(["accept", workdir / "fig2.fsa", "abba", "aba"],
                           capsys)
        assert (code, out.strip()) == (0, "ACCEPT")

    def test_reject(self, workdir, capsys):
        code, out, _ = run(["accept", workdir / "free.fsa", "a", "b"], capsys)
        assert (code, out.strip()) == (1, "REJECT")

    def test_tokens_flag(self, workdir, capsys):
        code, out, _ = run(["--tokens", "accept", workdir / "fig3.fsa",
                            "b a", "b"], capsys)
        assert (code, out.strip()) == (0, "ACCEPT")

    def test_unknown_symbol_is_input_error(self, workdir, capsys):
        code, _, err = run(["accept", workdir / "fig3.fsa", "z", "z"], capsys)
        assert code == 2
        assert "error" in err


class TestVerify:
    def test_ok(self, workdir, capsys):
        code, out, _ = run(["verify", workdir / "fig3.fsa",
                            workdir / "fig3.sgp", "--bound", "5"], capsys)
        assert code == 0
        assert out.strip() == "OK (0 disagreements)"

    def test_disagreements(self, workdir, capsys):
        # free automaton under-accepts relative to fig3's presentation
        code, out, _ = run(["verify", workdir / "free.fsa",
                            workdir / "fig3.sgp", "--bound", "4"], capsys)
        assert code == 1
        assert out.startswith("FAIL")

    def test_table_oracle(self, workdir, capsys):
        code, _, _ = run(["construct", "cayley", workdir / "c2.tbl",
                          "--gens", "g", "-o", workdir / "c2wp.fsa"], capsys)
        assert code == 0
        code, out, _ = run(["verify", workdir / "c2wp.fsa",
                            workdir / "c2.tbl", "--gens", "g",
                            "--bound", "5"], capsys)
        assert (code, out.strip()) == (0, "OK (0 disagreements)")


class TestAlgebraVerbs:
    def test_compose_to_stdout(self, workdir, capsys):
        code, out, _ = run(["compose", workdir / "fig3.fsa",
                            workdir / "fig3.fsa"], capsys)
        assert code == 0
        assert loads_fsa(out).accepts(("b", "a"), ("b",))

    def test_fix_tape(self, workdir, capsys):
        code, out, _ = run(["fix-tape", workdir / "fig3.fsa", "b"], capsys)
        assert code == 0
        assert "type: nfa" in out

    def test_trim(self, workdir, capsys):
        code, out, _ = run(["trim", workdir / "fig3.fsa"], capsys)
        assert code == 0
        assert loads_fsa(out).n_states == 2

    def test_construct_free(self, workdir, capsys):
        code, out, _ = run(["construct", "free", "--alphabet", "a b"],
                           capsys)
        assert code == 0
        assert loads_fsa(out).accepts(("a",), ("a",))

    def test_construct_rejects_pad_inside_a_symbol(self, workdir, capsys):
        # '#' starts a comment in a file, so a header line "left: a#b c"
        # would read back as "left: a": refused when written, not when read
        out = workdir / "x.fsa"
        code, _, err = run(["construct", "free", "--alphabet", "a#b c",
                            "-o", out], capsys)
        assert code == 2
        assert "'a#b'" in err and not out.exists()

    def test_construct_from_builtin(self, workdir, capsys):
        code, out, _ = run(["construct", "from-builtin", "fig2"], capsys)
        assert code == 0
        assert loads_fsa(out).accepts(tuple("abba"), tuple("aba"))

    def test_builtin_without_automaton(self, workdir, capsys):
        code, _, err = run(["construct", "from-builtin", "bicyclic"], capsys)
        assert code == 2
        assert "no deciding automaton" in err

    def test_construct_product_finite(self, workdir, capsys, c2_table):
        code, out, err = run(["construct", "product-finite",
                              workdir / "fig3.fsa", workdir / "c2.tbl",
                              "--pairs", "x=g:a,y=g:b"], capsys)
        assert (code, err) == (0, "")
        gens = ProductGenerators((("x", "g", "a"), ("y", "g", "b")))
        assert out == dumps_fsa(product_with_finite(c2_table, builtin("fig3"),
                                                    gens))

    @pytest.mark.parametrize("args", [
        ["construct", "cayley", "c2.tbl", "--gens", "z"],
        ["construct", "product-finite", "fig3.fsa", "c2.tbl",
         "--pairs", "x=z:a"],
    ])
    def test_unknown_element(self, args, workdir, capsys):
        args = [workdir / a if a.endswith((".fsa", ".tbl")) else a
                for a in args]
        code, out, err = run(args, capsys)
        assert (code, out) == (2, "")
        assert err == "error: unknown element 'z'\n"


class TestAnalysisVerbs:
    def test_pump(self, workdir, capsys):
        code, out, _ = run(["pump", workdir / "fig3.fsa", "baaa", "b"],
                           capsys)
        assert code == 0
        assert "loop (a, -)" in out
        assert "pump_check: pass" in out

    @pytest.mark.parametrize("args", (
        ["pump", "fig3.fsa", "abbb", "abbba", "--imax", "-1"],
        ["pump-refute", "fig3.fsa", "fig3.sgp", "--imax", "-2"]))
    def test_negative_imax(self, workdir, capsys, args):
        # a negative --imax used to check nothing and exit 0
        args = [workdir / a if a.endswith((".fsa", ".sgp")) else a
                for a in args]
        assert run(args, capsys) == (2, "", "error: i_max must be >= 0\n")

    @pytest.mark.parametrize("args", (
        ["verify", "c2wp.fsa", "c2.tbl", "--gens", "g"],
        ["pump-refute", "c2wp.fsa", "c2.tbl", "--gens", "g"],
        ["cross-section", "c2wp.fsa", "--oracle", "c2.tbl", "--gens", "g"]))
    def test_table_oracle_bound_zero(self, workdir, capsys, args):
        # a .tbl oracle rejects bound 0 as a .sgp oracle does, instead of
        # passing after checking nothing
        code, _, _ = run(["construct", "cayley", workdir / "c2.tbl",
                          "--gens", "g", "-o", workdir / "c2wp.fsa"], capsys)
        assert code == 0
        args = [workdir / a if a.endswith((".fsa", ".tbl")) else a
                for a in args]
        assert (run(args + ["--bound", "0"], capsys)
                == (2, "", "error: bound must be >= 1\n"))

    def test_pump_too_short(self, workdir, capsys):
        code, _, err = run(["pump", workdir / "fig3.fsa", "a", "a"], capsys)
        assert code == 2
        assert "too short" in err

    def test_check_equiv_and_congruence(self, workdir, capsys):
        for prop in ("equiv", "congruence"):
            code, out, _ = run(["check", prop, workdir / "fig3.fsa",
                                "--bound", "4"], capsys)
            assert code == 0
            assert "pass" in out

    def test_check_kind_monoid(self, workdir, capsys):
        # free.fsa is the free semigroup's word problem: as a monoid
        # relation it misses (eps, eps)
        code, out, _ = run(["check", "equiv", workdir / "free.fsa",
                            "--bound", "4", "--kind", "monoid"], capsys)
        assert code == 1
        assert "('reflexivity', ())" in out
        code, _, _ = run(["check", "equiv", workdir / "free.fsa",
                          "--bound", "4"], capsys)
        assert code == 0

    def test_pump_refute_clean(self, workdir, capsys):
        code, out, _ = run(["pump-refute", workdir / "fig3.fsa",
                            workdir / "fig3.sgp", "--bound", "6"], capsys)
        assert code == 0
        assert "not-refuted" in out

    def test_pump_refute_mutant_output(self, workdir, capsys):
        # fig3 plus (b, eps) at state 1, the mutant of the benchmark's
        # verify-dense workload: it accepts (ab, a^k), and pumping the
        # (eps, a) loop zero times gives (ab, a^(k-1)), which fig3's
        # presentation does not equate; the output is kept byte for byte
        mutant = workdir / "mutant.fsa"
        mutant.write_text(
            "type: async\nleft: a b\nright: a b\nstates: 2\ninitial: 0\n"
            "final: 1\n" + "".join(
                f"trans: {t}\n" for t in ("0 a a 1", "0 b b 1", "1 b b 1",
                                          "1 a - 1", "1 - a 1", "1 b - 1")))
        code, out, _ = run(["pump-refute", mutant, workdir / "fig3.sgp",
                            "--bound", "7"], capsys)
        assert code == 1
        assert out == (
            "pump_refute: refuted\n"
            "  ((('a', 'b'), ('a', 'a', 'a')), 0, (('a', 'b'), ('a', 'a')))\n"
            "  ((('a', 'b'), ('a', 'a', 'a', 'a')), 0,"
            " (('a', 'b'), ('a', 'a', 'a')))\n"
            "  ((('a', 'b'), ('a', 'a', 'a', 'a', 'a')), 0,"
            " (('a', 'b'), ('a', 'a', 'a', 'a')))\n"
            "  ((('a', 'b'), ('a', 'a', 'a', 'a', 'a', 'a')), 0,"
            " (('a', 'b'), ('a', 'a', 'a', 'a', 'a')))\n"
            "  ((('a', 'b'), ('a', 'a', 'a', 'a', 'a', 'a', 'a')), 0,"
            " (('a', 'b'), ('a', 'a', 'a', 'a', 'a', 'a')))\n")

    def test_cross_section_validated(self, workdir, capsys):
        code, out, _ = run(["cross-section", workdir / "fig3.fsa",
                            "--oracle", workdir / "fig3.sgp",
                            "--bound", "6"], capsys)
        assert code == 0
        assert "pass" in out

    def test_check_equiv_failure_output(self, workdir, capsys):
        # equality plus a~b and a~aa but not b~aa: not transitive
        aut = write_fsa(workdir / "nontrans.fsa", 5, {1, 2}, (
            "0 a a 1", "0 b b 1", "1 a a 1", "1 b b 1", "0 a b 2",
            "0 b a 2", "0 a a 3", "3 - a 2", "0 a a 4", "4 a - 2"))
        code, out, _ = run(["check", "equiv", aut, "--bound", "3"], capsys)
        assert code == 1
        assert out == ("equivalence_check: fail\n"
                       "  ('transitivity', ('b',), ('a', 'a'))\n")

    @pytest.mark.parametrize("prop", ["equiv", "congruence"])
    def test_check_semigroup_bound_0(self, workdir, capsys, prop):
        # a semigroup has no word up to bound 0: an error, not a pass
        code, out, err = run(["check", prop, workdir / "fig3.fsa",
                              "--bound", "0"], capsys)
        assert (code, out) == (2, "")
        assert "bound must be >= 1" in err
        # a monoid still checks (eps, eps), which fig3 does not accept
        code, out, _ = run(["check", prop, workdir / "fig3.fsa",
                            "--bound", "0", "--kind", "monoid"], capsys)
        assert (code, out) == ((1, "equivalence_check: fail\n"
                                   "  ('reflexivity', ())\n")
                               if prop == "equiv" else
                               (0, "congruence_check: pass\n"))

    def test_check_congruence_failure_output(self, workdir, capsys):
        # equality plus the class {a, b}, then equality: (a, b) is
        # accepted, (aa, ab) is not
        aut = write_fsa(workdir / "ab.fsa", 2, {1}, (
            "0 a a 1", "0 b b 1", "1 a a 1", "1 b b 1", "0 a b 1",
            "0 b a 1"))
        code, out, _ = run(["check", "congruence", aut, "--bound", "3"],
                           capsys)
        assert code == 1
        assert out == ("congruence_check: fail\n"
                       "  ('context', (('a',), ('b',)), (('a',), ()))\n")

    def test_cross_section_failure_output(self, workdir, capsys):
        # D = b (a|b)*: it misses fig3's classes a+ and a b+, and meets
        # each class b^n a* more often as the bound grows
        aut = write_fsa(workdir / "bfree.fsa", 2, {1},
                        ("0 b b 1", "1 a a 1", "1 b b 1"))
        code, out, _ = run(["cross-section", aut, "--oracle",
                            workdir / "fig3.sgp", "--bound", "3"], capsys)
        assert code == 1
        assert out == ("validate_cross_section: fail\n"
                       "  ('missing', ('a',))\n"
                       "  ('growing', ('b',), 2, 3)\n"
                       "  ('missing', ('a', 'b'))\n"
                       "  ('growing', ('b', 'b'), 1, 3)\n"
                       "  ('missing', ('a', 'b', 'b'))\n")

    def test_cross_section_negative_bound(self, workdir, capsys,
                                          time_limit):
        # the bound is rejected, not run forever; the table oracle, built
        # before D is enumerated, rejects it first
        code, _, _ = run(["construct", "cayley", workdir / "c2.tbl",
                          "--gens", "g", "-o", workdir / "c2wp.fsa"], capsys)
        assert code == 0
        code, out, err = run(["cross-section", workdir / "c2wp.fsa",
                              "--oracle", workdir / "c2.tbl",
                              "--bound", "-1"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: bound must be >= 1\n"

    def test_dot(self, workdir, capsys):
        code, out, _ = run(["dot", workdir / "fig3.fsa"], capsys)
        assert code == 0
        assert out.startswith("digraph")
        assert "ε" in out

    @pytest.mark.parametrize("header, transitions, edges", [
        # a sync automaton: a pad is drawn as a box
        ("type: sync\nleft: a b\nright: a b\n",
         ("0 a a 1", "1 b # 1", "1 a # 1"),
         ['0 -> 1 [label="(a,a)"]', '1 -> 1 [label="(b,□), (a,□)"]']),
        # a one-tape automaton: one label per transition
        ("type: nfa\nalphabet: a b\n", ("0 a 1", "1 - 0", "1 b 1"),
         ['0 -> 1 [label="a"]', '1 -> 0 [label="ε"]',
          '1 -> 1 [label="b"]']),
    ])
    def test_dot_labels(self, header, transitions, edges, workdir, capsys):
        path = workdir / "small.fsa"
        path.write_text(header + "states: 2\ninitial: 0\nfinal: 1\n"
                        + "".join(f"trans: {t}\n" for t in transitions))
        code, out, _ = run(["dot", path], capsys)
        assert code == 0
        assert out == "".join(f"{line}\n" for line in [
            "digraph automaton {", "  rankdir=LR;",
            '  __init [shape=point, label=""];',
            '  0 [label="q0", shape=circle];',
            '  1 [label="q1", shape=doublecircle];', "  __init -> 0;",
            *(f"  {edge};" for edge in edges), "}"])


class TestErrors:
    def test_missing_file(self, workdir, capsys):
        code, _, err = run(["accept", workdir / "nope.fsa", "a", "a"],
                           capsys)
        assert code == 2
        assert "error" in err

    def test_malformed_file(self, workdir, capsys):
        bad = workdir / "bad.fsa"
        bad.write_text("type: async\nstates: zero\n")
        code, _, err = run(["accept", bad, "a", "a"], capsys)
        assert code == 2

    def test_unknown_verb(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def test_parser_reused_across_calls(workdir, capsys):
    # main builds its parser once; each call must still parse as if fresh,
    # so --tokens on one call does not carry over to the next
    calls = [
        ["--tokens", "accept", workdir / "fig3.fsa", "b a", "b"],
        ["accept", workdir / "fig3.fsa", "b a", "b"],
        ["verify", workdir / "fig3.fsa", workdir / "fig3.sgp", "--bound", "3"],
        ["check", "equiv", workdir / "fig3.fsa", "--bound", "3"],
        ["--tokens", "accept", workdir / "fig3.fsa", "b a", "b"],
    ]
    fresh = []
    for args in calls:
        ratwp.cli._parser.cache_clear()
        fresh.append(run(args, capsys))
    reused = [run(args, capsys) for args in calls]
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 0]


# Each construct kind with one input short: its last positional input left
# out, or for free its one required flag.
ONE_INPUT_SHORT = {
    "cayley": [],
    "free": [],
    "from-builtin": [],
    "add-gen": ["--symbol", "c", "--rep", "ab"],
    "remove-gen": ["--symbol", "a"],
    "adjoin-one": ["--symbol", "e"],
    "adjoin-zero": ["--symbol", "z"],
    "ideal-ext": ["fig3.fsa"],
    "product-finite": ["fig3.fsa", "--pairs", "x=1:a"],
    "free-product": ["fig3.fsa"],
    "zero-union": ["fig3.fsa", "--symbol", "z"],
}


def test_every_construct_kind_has_a_short_case():
    assert set(ONE_INPUT_SHORT) == {
        name.removeprefix("construct ") for name in ratwp.cli._COMMANDS
        if name.startswith("construct ")}


# Every parser's declared arguments: per argument its option strings,
# dest, default, choices, required, type and help; a sub-parser group's
# choices are its (name, help line) pairs. Written out as data rather than
# as help texts, so that argparse's help layout, which differs between
# Python versions, is not pinned.
DECLARED_ARGUMENTS = {
    "": [
        (("--tokens",), "tokens", False, None, False, None,
         "read words as whitespace-separated tokens"),
        ((), "command", None,
         (("accept", "test a word pair"),
          ("verify", "compare against a bounded oracle"),
          ("compose", "relational composition"),
          ("fix-tape", "slice a relation at a fixed word"),
          ("cross", "cross product of two languages"),
          ("intersect", "intersect with a rectangle L x K"),
          ("construct", "build a word-problem automaton"),
          ("trim", "keep useful states only"),
          ("pump", "decompose and pump an accepted pair"),
          ("pump-refute", "search for a pumping counterexample"),
          ("check", "relation property checks"),
          ("cross-section", "loop-removal cross-section"),
          ("dot", "graph description to stdout")),
         True, None, None),
    ],
    "accept": [
        ((), "automaton", None, None, True, None, None),
        ((), "left", None, None, True, None, None),
        ((), "right", None, None, True, None, None),
    ],
    "check": [
        ((), "property", None, ("equiv", "congruence"), True, None, None),
        ((), "automaton", None, None, True, None, None),
        (("--bound",), "bound", 5, None, False, "int", None),
        (("--kind",), "kind", "semigroup", ("semigroup", "monoid"), False,
         None, "monoid: include the empty word"),
    ],
    "compose": [
        ((), "first", None, None, True, None, None),
        ((), "second", None, None, True, None, None),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "construct": [
        ((), "what", None,
         (("cayley", None), ("free", None), ("from-builtin", None),
          ("add-gen", None), ("remove-gen", None), ("adjoin-one", None),
          ("adjoin-zero", None), ("ideal-ext", None), ("product-finite", None),
          ("free-product", None), ("zero-union", None)),
         True, None, None),
    ],
    "construct add-gen": [
        ((), "automaton", None, None, True, None, None),
        (("--symbol",), "symbol", None, None, True, None, None),
        (("--rep",), "rep", None, None, True, None, None),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "construct adjoin-one": [
        ((), "automaton", None, None, True, None, None),
        (("--symbol",), "symbol", None, None, True, None, None),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "construct adjoin-zero": [
        ((), "automaton", None, None, True, None, None),
        (("--symbol",), "symbol", None, None, True, None, None),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "construct cayley": [
        ((), "table", None, None, True, None, None),
        (("--gens",), "gens", None, None, False, None, None),
        (("--kind",), "kind", "semigroup", ("semigroup", "monoid"), False,
         None, None),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "construct free": [
        (("--alphabet",), "alphabet", None, None, True, None, None),
        (("--kind",), "kind", "semigroup", ("semigroup", "monoid"), False,
         None, None),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "construct free-product": [
        ((), "first", None, None, True, None, None),
        ((), "second", None, None, True, None, None),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "construct from-builtin": [
        ((), "name", None, None, True, None, None),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "construct ideal-ext": [
        ((), "automaton", None, None, True, None, None),
        ((), "ideal", None, None, True, None, None),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "construct product-finite": [
        ((), "automaton", None, None, True, None, None),
        ((), "table", None, None, True, None, None),
        (("--pairs",), "pairs", None, None, True, None,
         "sym=element:symbol,..."),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "construct remove-gen": [
        ((), "automaton", None, None, True, None, None),
        (("--symbol",), "symbol", None, None, True, None, None),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "construct zero-union": [
        ((), "first", None, None, True, None, None),
        ((), "second", None, None, True, None, None),
        (("--symbol",), "symbol", None, None, True, None, None),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "cross": [
        ((), "first", None, None, True, None, None),
        ((), "second", None, None, True, None, None),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "cross-section": [
        ((), "automaton", None, None, True, None, None),
        (("--oracle",), "oracle", None, None, False, None,
         "validate against this .sgp/.tbl oracle"),
        (("--bound",), "bound", None, None, False, "int", None),
        (("--kind",), "kind", None, ("semigroup", "monoid"), False, None,
         "for .tbl oracles (default: semigroup)"),
        (("--gens",), "gens", None, None, False, None,
         "comma-separated generators for .tbl oracles"),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "dot": [
        ((), "automaton", None, None, True, None, None),
    ],
    "fix-tape": [
        ((), "automaton", None, None, True, None, None),
        ((), "word", None, None, True, None, None),
        (("--side",), "side", "left", ("left", "right"), False, None, None),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "intersect": [
        ((), "automaton", None, None, True, None, None),
        ((), "left_lang", None, None, True, None, None),
        ((), "right_lang", None, None, True, None, None),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "pump": [
        ((), "automaton", None, None, True, None, None),
        ((), "left", None, None, True, None, None),
        ((), "right", None, None, True, None, None),
        (("--imax",), "imax", 5, None, False, "int", None),
    ],
    "pump-refute": [
        ((), "automaton", None, None, True, None, None),
        ((), "oracle", None, None, True, None, None),
        (("--imax",), "imax", 5, None, False, "int", None),
        (("--bound",), "bound", 5, None, False, "int", None),
        (("--kind",), "kind", None, ("semigroup", "monoid"), False, None,
         "for .tbl oracles (default: semigroup)"),
        (("--gens",), "gens", None, None, False, None,
         "comma-separated generators for .tbl oracles"),
    ],
    "trim": [
        ((), "automaton", None, None, True, None, None),
        (("-o", "--output"), "output", None, None, False, None, None),
    ],
    "verify": [
        ((), "automaton", None, None, True, None, None),
        ((), "oracle", None, None, True, None,
         ".sgp presentation or .tbl table"),
        (("--bound",), "bound", 5, None, False, "int", None),
        (("--kind",), "kind", None, ("semigroup", "monoid"), False, None,
         "for .tbl oracles (default: semigroup)"),
        (("--gens",), "gens", None, None, False, None,
         "comma-separated generators for .tbl oracles"),
    ],
}


def declared_arguments(parser, path=(), found=None):
    """Parser path -> the declared arguments of that parser and of each
    sub-parser under it, in the form of DECLARED_ARGUMENTS."""
    found = {} if found is None else found
    rows = found[" ".join(path)] = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            lines = {c.dest: c.help for c in action._choices_actions}
            choices = tuple((name, lines.get(name)) for name in choices)
            for name, sub in action.choices.items():
                declared_arguments(sub, path + (name,), found)
        elif choices is not None:
            choices = tuple(choices)
        rows.append((tuple(action.option_strings), action.dest,
                     action.default, choices, action.required,
                     getattr(action.type, "__name__", None), action.help))
    return found


def test_declared_arguments():
    assert declared_arguments(ratwp.cli.build_parser()) == DECLARED_ARGUMENTS


class TestConstructArguments:
    def usage_error(self, args, workdir, capsys):
        args = [workdir / a if a.endswith((".fsa", ".tbl")) else a
                for a in args]
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in args])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("kind", sorted(ONE_INPUT_SHORT))
    def test_one_input_short(self, kind, workdir, capsys):
        self.usage_error(["construct", kind, *ONE_INPUT_SHORT[kind]],
                         workdir, capsys)

    def test_extra_positional(self, workdir, capsys):
        self.usage_error(["construct", "remove-gen", "fig3.fsa", "fig3.fsa",
                          "--symbol", "a"], workdir, capsys)

    def test_undeclared_flag(self, workdir, capsys):
        self.usage_error(["construct", "cayley", "c2.tbl", "--rep", "x"],
                         workdir, capsys)

    def test_malformed_pairs(self, workdir, capsys):
        code, out, err = run(["construct", "product-finite",
                              workdir / "fig3.fsa", workdir / "c2.tbl",
                              "--pairs", "x:1=a"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: bad pair spec 'x:1=a';"
                       " expected sym=element:symbol\n")


def test_cross_section_alphabet_mismatch(workdir, capsys):
    # as verify and pump-refute do, not a "missing" line per class
    code, out, err = run(["cross-section", workdir / "fig3.fsa",
                          "--oracle", workdir / "c2.tbl", "--bound", "3"],
                         capsys)
    assert (code, out) == (2, "")
    assert err == "error: automaton and oracle alphabets differ\n"


@pytest.mark.parametrize("command, flags", [
    ("verify", ["--kind", "monoid"]),
    ("verify", ["--gens", "a"]),
    ("pump-refute", ["--kind", "semigroup"]),
    ("pump-refute", ["--gens", "a,b"]),
    ("cross-section", ["--kind", "monoid"]),
    ("cross-section", ["--gens", "a"]),
])
def test_sgp_oracle_rejects_kind_and_gens(command, flags, workdir, capsys):
    # a .sgp presentation names its own kind and generators
    oracle = [workdir / "fig3.sgp"]
    if command == "cross-section":
        oracle.insert(0, "--oracle")
    args = [command, workdir / "fig3.fsa"] + oracle
    code, out, err = run(args + ["--bound", "4"] + flags, capsys)
    assert (code, out) == (2, "")
    assert err == "error: --kind and --gens apply to .tbl oracles only\n"


def test_table_oracle_kind_flag(workdir, capsys):
    code, _, _ = run(["construct", "cayley", workdir / "c2.tbl", "--gens",
                      "g", "--kind", "monoid", "-o", workdir / "c2m.fsa"],
                     capsys)
    assert code == 0
    code, out, _ = run(["verify", workdir / "c2m.fsa", workdir / "c2.tbl",
                        "--gens", "g", "--kind", "monoid", "--bound", "4"],
                       capsys)
    assert (code, out) == (0, "OK (0 disagreements)\n")


@pytest.mark.parametrize("flags", [
    ["--bound", "3"], ["--kind", "monoid"], ["--gens", "zz"],
    ["--bound", "3", "--kind", "monoid", "--gens", "zz"],
])
def test_cross_section_oracle_flags_need_oracle(flags, workdir, capsys):
    code, out, err = run(["cross-section", workdir / "fig3.fsa"] + flags,
                         capsys)
    assert (code, out) == (2, "")
    assert err == "error: --bound, --kind and --gens need --oracle\n"


def test_cross_section_writes_its_output(workdir, capsys):
    # with --oracle the report goes to stdout and D to the -o file
    path = workdir / "d.fsa"
    code, out, _ = run(["cross-section", workdir / "fig3.fsa", "--oracle",
                        workdir / "fig3.sgp", "-o", path], capsys)
    assert (code, out) == (0, "validate_cross_section: pass\n")
    assert path.read_text() == dumps_fsa(cross_section(builtin("fig3")))


def test_cross_section_without_oracle(workdir, capsys):
    code, out, _ = run(["cross-section", workdir / "fig3.fsa"], capsys)
    assert code == 0
    assert out.startswith("type: nfa\n")
