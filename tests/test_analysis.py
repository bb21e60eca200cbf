from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratwp import (
    Alphabet,
    InputError,
    PAD,
    Presentation,
    PumpDecomposition,
    Transition,
    TwoTapeAutomaton,
    build_oracle,
    builtin,
    builtin_presentation,
    congruence_check,
    cross_product,
    cross_section,
    enumerate_accepted,
    enumerate_language,
    equivalence_check,
    export_dot,
    free_wp,
    pump_check,
    pump_decompose,
    pump_refute,
    pumping_constant,
    remove_generator,
    swap_tapes,
    sync_to_async,
    trim,
    union,
    validate_cross_section,
)
import ratwp.analysis
from ratwp.analysis import _eps_right_cycle_edges
from ratwp.automata import NfaTransition, OneTapeAutomaton
from ratwp.oracle import _comparison
from random_automata import (
    behind_chains,
    congruence_check_all_contexts,
    eps_right_cycle_edges_by_closure,
    equivalence_check_by_words,
    one_tape_automata,
    presentations,
    pump_refute_per_pair,
    sync_automata,
    two_tape_automata,
    validate_cross_section_by_words,
)

AB = Alphabet(("a", "b"))
A = Alphabet(("a",))
XYZ = Alphabet(("x", "y", "z"))


def with_extra_transition(aut, extra):
    return TwoTapeAutomaton(
        aut.n_states, aut.left, aut.right, aut.initial, aut.finals,
        aut.transitions + (Transition(*extra),))


class TestPumpDecompose:
    def test_fig1_loop(self):
        aut = builtin("fig1")
        dec = pump_decompose(aut, (("a",) * 5, ("a",) * 5))
        assert dec.loop == (("a",), ("a",))
        v, u = dec.pumped(1)
        assert (v, u) == (("a",) * 5, ("a",) * 5)

    def test_fig3_one_sided_loop(self):
        aut = builtin("fig3")
        dec = pump_decompose(aut, (("b", "a", "a", "a"), ("b",)))
        assert dec.loop == (("a",), ())
        assert dec.pumped(1) == (("b", "a", "a", "a"), ("b",))

    def test_rejected_pair(self):
        with pytest.raises(InputError):
            pump_decompose(builtin("fig1"), (("a",) * 5, ("b",) * 5))

    def test_too_short(self):
        with pytest.raises(InputError):
            pump_decompose(builtin("fig1"), (("a",), ("a",)))

    def test_symbol_outside_alphabet_is_not_accepted(self):
        # the run search matches a step by its digit; a symbol outside the
        # alphabet has none, so no step reads it
        with pytest.raises(InputError, match="pair is not accepted"):
            pump_decompose(builtin("fig1"), (("a",) * 5, ("a",) * 4 + ("c",)))

    def test_prefix_plus_loop_within_constant(self):
        aut = builtin("fig2")
        n0 = pumping_constant(aut)
        pair = (tuple("abbbbbba"), tuple("abbbbba"))
        dec = pump_decompose(aut, pair)
        consumed = sum(len(p) for p in dec.prefix + dec.loop)
        assert 1 <= sum(len(p) for p in dec.loop)
        assert consumed <= n0


@settings(max_examples=100, deadline=None)
@given(sync_automata())
# w a nonempty prefix of v, the right tape padded in state 2
@example(TwoTapeAutomaton(
    3, AB, AB, 0, frozenset({1, 2}),
    tuple((q, x, x, 1) for q in (0, 1) for x in "ab")
    + tuple((q, x, PAD, 2) for q in (1, 2) for x in "ab"), mode="sync"))
def test_sync_pumping_matches_async_view(aut):
    # a sync automaton read as it is, a pad reading nothing, has the
    # pumping constant and the decompositions of its async view
    view = sync_to_async(aut)
    n0 = pumping_constant(aut)
    assert pumping_constant(view) == n0
    for pair in enumerate_accepted(aut, 5):
        if len(pair[0]) + len(pair[1]) > n0:
            assert pump_decompose(aut, pair) == pump_decompose(view, pair)


class TestPumpCheck:
    def test_decompositions_pump(self):
        for name, pair in (
            ("fig1", (("a", "b") * 3, ("a", "b") * 3)),
            ("fig2", (tuple("abbbbbba"), tuple("aba"))),
            ("fig3", (("b",) + ("a",) * 5, ("b",))),
        ):
            aut = builtin(name)
            dec = pump_decompose(aut, pair)
            assert pump_check(aut, dec, 5).verdict == "pass"

    def test_wrong_decomposition_fails(self):
        aut = builtin("fig1")
        bad = PumpDecomposition(
            prefix=(("a",), ("a",)),
            loop=(("a",), ()),  # not a cycle of fig1
            suffix=(("a",), ("a",)))
        report = pump_check(aut, bad, 3)
        assert report.verdict == "fail"
        assert report.witnesses

    def test_negative_i_max(self):
        # i in range(0) would check nothing and pass
        aut = builtin("fig3")
        dec = pump_decompose(aut, (("b",) + ("a",) * 5, ("b",)))
        with pytest.raises(InputError, match="i_max must be >= 0"):
            pump_check(aut, dec, -1)


class TestPumpRefute:
    def test_correct_automata_not_refuted(self):
        for name in ("fig1", "fig2", "fig3"):
            aut = builtin(name)
            oracle = build_oracle(builtin_presentation(name), 8)
            assert pump_refute(aut, oracle, 6).verdict == "not-refuted"

    def test_over_accepting_mutant_refuted(self):
        mutant = with_extra_transition(builtin("fig3"), (1, "b", None, 1))
        oracle = build_oracle(builtin_presentation("fig3"), 8)
        report = pump_refute(mutant, oracle, 6)
        assert report.verdict == "refuted"
        (original, i, pumped) = report.witnesses[0]
        assert not oracle.equal(*pumped)

    def test_bicyclic_candidate_refuted(self):
        # accepts (b^i c^j, eps): pumping makes i or j drift, which the
        # bicyclic oracle rejects
        bc = Alphabet(("b", "c"))
        candidate = TwoTapeAutomaton(
            2, bc, bc, 0, frozenset({0, 1}),
            ((0, "b", None, 0), (0, "c", None, 1), (1, "c", None, 1)))
        oracle = build_oracle(builtin_presentation("bicyclic"), 8)
        assert pump_refute(candidate, oracle, 6).verdict == "refuted"

    def test_pairs_with_an_empty_side_count_in_a_monoid_only(self):
        # fig3 plus a path from state 0 through state 2 accepting (a^n, eps)
        fig3 = builtin("fig3")
        aut = TwoTapeAutomaton(
            3, AB, AB, 0, frozenset({1, 2}), fig3.transitions
            + ((0, "a", None, 2), (2, "a", None, 2)))
        # a semigroup has no empty word: those pairs are skipped
        oracle = build_oracle(builtin_presentation("fig3"), 8)
        assert pump_refute(aut, oracle, 8).verdict == "not-refuted"
        # in the monoid of fig3's relations a^n is not the empty word
        monoid = replace(builtin_presentation("fig3"), kind="monoid")
        report = pump_refute(aut, build_oracle(monoid, 8), 8)
        assert report.verdict == "refuted"
        for (v, w), i, pumped in report.witnesses:
            assert w == () and set(v) == {"a"}
            assert pump_decompose(aut, (v, w)).pumped(i) == pumped

    @pytest.mark.parametrize("aut, name, oracle_bound, bound, masks, verdict", [
        # lim^2 <= 64 sum |class|^2 at the oracle's bound + slack: masks
        (builtin("fig3"), "fig3", 7, 7, True, "not-refuted"),
        (builtin("fig2"), "fig2", 9, 8, False, "not-refuted"),
        # fig1 accepts (u a^k, u) once an (a, eps) loop is added
        (with_extra_transition(builtin("fig1"), (1, "a", None, 1)), "fig1",
         5, 5, False, "refuted"),
    ])
    def test_both_sides_of_the_rule(self, aut, name, oracle_bound, bound,
                                    masks, verdict):
        oracle = build_oracle(builtin_presentation(name), oracle_bound)
        assert _comparison(oracle, oracle.bound + oracle.slack)[3] == masks
        report = pump_refute(aut, oracle, bound)
        assert report.verdict == verdict
        if bound <= 5:
            assert report == pump_refute_per_pair(aut, oracle, bound)

    def test_negative_bound(self):
        oracle = build_oracle(builtin_presentation("fig3"), 4)
        with pytest.raises(InputError, match="bound must be >= 0"):
            pump_refute(builtin("fig3"), oracle, -1)

    def test_negative_i_max(self):
        mutant = with_extra_transition(builtin("fig3"), (1, "b", None, 1))
        oracle = build_oracle(builtin_presentation("fig3"), 8)
        with pytest.raises(InputError, match="i_max must be >= 0"):
            pump_refute(mutant, oracle, 6, i_max=-2)

    def test_max_witnesses_below_1(self):
        # no witness asked for is not an answer: the mutant is refuted
        # with one witness, and 0 or fewer is an error
        mutant = with_extra_transition(builtin("fig3"), (1, "b", None, 1))
        oracle = build_oracle(builtin_presentation("fig3"), 7)
        assert pump_refute(mutant, oracle, 7, max_witnesses=1).verdict == (
            "refuted")
        for max_witnesses in (0, -1):
            with pytest.raises(InputError,
                               match="max_witnesses must be >= 1"):
                pump_refute(mutant, oracle, 7, max_witnesses=max_witnesses)


@settings(max_examples=400, deadline=None)
# one-symbol and three-symbol alphabets, k = 1 and k = 3 in the coding:
# (a^i, a^j) for i, j >= 1 pumped against a a = a (never refuted), and the
# equal pairs over {x, y, z} with extra z on the left, against z z = z
@example(TwoTapeAutomaton(2, A, A, 0, frozenset({1}), (
             (0, "a", "a", 1), (1, "a", None, 1), (1, None, "a", 1))),
         Presentation("semigroup", A, ((("a", "a"), ("a",)),)),
         4, 5, 5, 5)
@example(with_extra_transition(free_wp(A, kind="monoid"), (1, None, "a", 0)),
         Presentation("monoid", A, ((("a", "a"), ()),)), 4, 5, 3, 2)
@example(with_extra_transition(free_wp(XYZ), (1, "z", None, 1)),
         Presentation("semigroup", XYZ, ((("z", "z"), ("z",)),)),
         4, 4, 5, 5)
@example(with_extra_transition(free_wp(XYZ), (1, "y", None, 1)),
         Presentation("semigroup", XYZ, ((("z", "z"), ("z",)),)),
         3, 4, 2, 1)
# the benchmark's mutant: every witness has |v| = 2, and with one or two
# witnesses the search stops inside that row; at bound 2 its two states
# leave no long pair (|v| + |w| <= 2n)
@example(with_extra_transition(builtin("fig3"), (1, "b", None, 1)),
         builtin_presentation("fig3"), 7, 7, 5, 1)
@example(with_extra_transition(builtin("fig3"), (1, "b", None, 1)),
         builtin_presentation("fig3"), 7, 7, 5, 2)
@example(with_extra_transition(builtin("fig3"), (1, "b", None, 1)),
         builtin_presentation("fig3"), 4, 2, 5, 5)
@example(with_extra_transition(builtin("fig3"), (1, "b", None, 1)),
         builtin_presentation("fig3"), 4, 5, 5, 5)
# fig3's two states: runs of up to 12 steps, 10 of them past depth n
@example(builtin("fig3"), builtin_presentation("fig3"), 4, 6, 5, 5)
# (aa, aa) is read by runs of two, three and four steps, so the run that
# is cut is not the only one; a^i = a^j only for i = j in the free
# semigroup
@example(TwoTapeAutomaton(1, AB, AB, 0, frozenset({0}), (
             (0, "a", None, 0), (0, None, "a", 0), (0, "a", "a", 0))),
         Presentation("semigroup", AB), 4, 2, 5, 5)
@given(st.one_of(two_tape_automata(), sync_automata(),
                 # final states behind a chain: the distance prune fires
                 behind_chains(two_tape_automata()),
                 behind_chains(sync_automata())),
       presentations(), st.integers(1, 4), st.integers(0, 5),
       st.integers(0, 5), st.integers(1, 5))
def test_pump_refute_agrees_with_per_pair_reference(
        aut, presentation, oracle_bound, bound, i_max, max_witnesses):
    oracle = build_oracle(presentation, oracle_bound)
    report = pump_refute(aut, oracle, bound, i_max, max_witnesses)
    assert report == pump_refute_per_pair(aut, oracle, bound, i_max,
                                          max_witnesses)
    for pair, i, pumped in report.witnesses:
        assert pump_decompose(aut, pair).pumped(i) == pumped


class TestEquivalenceCheck:
    def test_builtins_pass(self):
        for name in ("fig1", "fig2", "fig3"):
            assert equivalence_check(builtin(name), 5).verdict == "pass"

    def test_non_reflexive_fails(self):
        a_star = OneTapeAutomaton(1, AB, 0, frozenset({0}), ((0, "a", 0),))
        b_star = OneTapeAutomaton(1, AB, 0, frozenset({0}), ((0, "b", 0),))
        report = equivalence_check(cross_product(a_star, b_star), 3)
        assert report.verdict == "fail"
        assert report.witnesses[0][0] == "reflexivity"

    def test_non_transitive_fails(self):
        # equality plus a~b and a~aa but not b~aa
        trans = (
            (0, "a", "a", 1), (0, "b", "b", 1),
            (1, "a", "a", 1), (1, "b", "b", 1),
            (0, "a", "b", 2), (0, "b", "a", 2),
            (0, "a", "a", 3), (3, None, "a", 2),
            (0, "a", "a", 4), (4, "a", None, 2),
        )
        patched = TwoTapeAutomaton(5, AB, AB, 0, frozenset({1, 2}), trans)
        report = equivalence_check(patched, 3)
        assert report.verdict == "fail"
        assert report.witnesses == (("transitivity", ("b",), ("a", "a")),)

    def test_monoid_kind_checks_the_empty_word(self):
        # the free monoid's word problem with its initial state made
        # non-final rejects (eps, eps): not reflexive as a monoid relation
        aut = replace(free_wp(AB, kind="monoid"), finals=frozenset({1}))
        report = equivalence_check(aut, 4, kind="monoid")
        assert report.witnesses == (("reflexivity", ()),)
        assert equivalence_check(aut, 4).verdict == "pass"
        assert equivalence_check(free_wp(AB, kind="monoid"), 4,
                                 kind="monoid").verdict == "pass"

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            equivalence_check(builtin("fig1"), 3, kind="group")

    def test_semigroup_bound_0_is_an_error(self):
        # a semigroup has no word up to bound 0, so the checks would pass
        # having looked at nothing; a monoid still checks (eps, eps)
        aut = free_wp(AB, kind="monoid")
        for check in (equivalence_check, congruence_check):
            for bound in (0, -1):
                with pytest.raises(InputError, match="bound must be >= 1"):
                    check(aut, bound)
            assert check(aut, 0, kind="monoid").verdict == "pass"
        no_empty = replace(aut, finals=frozenset({1}))
        assert equivalence_check(no_empty, 0, kind="monoid").witnesses == (
            ("reflexivity", ()),)

    def test_symmetry_witness_is_the_first_in_shortlex_order(self):
        # (ab, a) and every longer (a b^i, a) are accepted, not their mirrors
        aut = with_extra_transition(builtin("fig1"), (1, "b", None, 1))
        report = equivalence_check(aut, 4)
        assert report.witnesses == (("symmetry", ("a", "b"), ("a",)),)


class TestCongruenceCheck:
    def test_builtins_pass(self):
        assert congruence_check(builtin("fig2"), 6).verdict == "pass"
        assert congruence_check(builtin("fig3"), 5).verdict == "pass"

    def test_equivalence_but_not_congruence(self):
        # equality plus the single class {a, b}: fails under contexts,
        # e.g. (aa, ab) is not accepted
        aut = builtin("fig1")
        extra = (Transition(0, "a", "b", 1), Transition(0, "b", "a", 1))
        patched = TwoTapeAutomaton(
            2, AB, AB, 0, frozenset({1}), aut.transitions + extra)
        assert equivalence_check(patched, 3).verdict == "pass"
        report = congruence_check(patched, 3)
        assert report.verdict == "fail"
        assert report.witnesses

    def test_monoid_kind_checks_empty_sides(self):
        # the free monoid plus the single pair (eps, a): the context
        # (eps, a) gives (a, aa), which is not accepted
        free = free_wp(AB, kind="monoid")
        aut = TwoTapeAutomaton(
            3, AB, AB, 0, free.finals | {2},
            free.transitions + (Transition(0, None, "a", 2),))
        report = congruence_check(aut, 3, kind="monoid")
        assert report.witnesses == (("context", ((), ("a",)), ((), ("a",))),)
        assert congruence_check(aut, 3).verdict == "pass"


@settings(max_examples=200, deadline=None)
@given(st.one_of(
           two_tape_automata(),
           two_tape_automata().map(lambda aut: union(aut, builtin("fig1")))),
       st.sampled_from(("semigroup", "monoid")), st.integers(0, 4))
def test_congruence_check_agrees_with_all_contexts(aut, kind, bound):
    if kind == "semigroup" and bound == 0:
        # no nonempty word to check: an error, not a vacuous pass
        with pytest.raises(InputError, match="bound must be >= 1"):
            congruence_check(aut, bound, kind=kind)
        return
    assert (congruence_check(aut, bound, kind=kind).verdict
            == congruence_check_all_contexts(aut, bound, kind=kind).verdict)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
           two_tape_automata(),
           two_tape_automata().map(lambda aut: union(aut, builtin("fig1"))),
           two_tape_automata().map(lambda aut: union(
               union(aut, swap_tapes(aut)), builtin("fig1")))),
       st.sampled_from(("semigroup", "monoid")), st.integers(0, 4))
def test_equivalence_check_matches_word_reference(aut, kind, bound):
    # the union with fig1 makes most relations reflexive, the union with
    # the swapped relation also symmetric, so every part of the check runs
    if kind == "semigroup" and bound == 0:
        # no nonempty word to check: an error, not a vacuous pass
        with pytest.raises(InputError, match="bound must be >= 1"):
            equivalence_check(aut, bound, kind=kind)
        return
    assert (equivalence_check(aut, bound, kind=kind)
            == equivalence_check_by_words(aut, bound, kind=kind))


class TestCrossSection:
    def test_fig3_removes_pumping(self):
        d = cross_section(builtin("fig3"))
        lang = enumerate_language(d, 4)
        assert ("b", "a") not in lang  # the (a,eps) loop is gone
        assert ("a", "b", "b") in lang
        oracle = build_oracle(builtin_presentation("fig3"), 6)
        assert validate_cross_section(d, oracle, 6).verdict == "pass"

    def test_fig1_nothing_removed(self):
        d = cross_section(builtin("fig1"))
        assert enumerate_language(d, 3) == set(AB.words(3))

    def test_fig2_q3_loop_removed(self):
        d = cross_section(builtin("fig2"))
        # q3's (b,eps) self-loop must not survive as a b-labelled self-loop
        assert not any(
            t.src == t.dst and t.label == "b" and t.src == 3
            for t in d.transitions)

    def test_subset_of_domain(self):
        aut = builtin("fig3")
        domain = {v for v, _ in enumerate_accepted(aut, 6)}
        assert enumerate_language(cross_section(aut), 6) <= domain


@settings(max_examples=150, deadline=None)
@given(two_tape_automata(max_states=6, max_transitions=12))
def test_eps_right_cycle_edges_match_closure_reference(aut):
    assert _eps_right_cycle_edges(aut) == eps_right_cycle_edges_by_closure(aut)


@settings(max_examples=150, deadline=None)
@given(sync_automata())
# the right tape padded in a loop: that loop is cut, and its left labels
# stay
@example(TwoTapeAutomaton(
    2, AB, AB, 0, frozenset({1}),
    ((0, "a", "a", 1), (1, "a", PAD, 1), (1, "b", PAD, 1)), mode="sync"))
def test_sync_cross_section_matches_async_view(aut):
    # a sync automaton is read as it is, a pad reading nothing as epsilon
    # does, both where loops are cut and in the projected labels
    assert cross_section(aut) == cross_section(sync_to_async(aut))


class TestValidateCrossSection:
    def test_empty_language_fails(self):
        empty = OneTapeAutomaton(1, AB, 0, frozenset(), ())
        oracle = build_oracle(builtin_presentation("fig3"), 5)
        report = validate_cross_section(empty, oracle, 5)
        assert report.verdict == "fail"
        assert any(kind == "missing" for kind, *_ in report.witnesses)

    def test_bound_0(self):
        # a semigroup oracle has no word up to bound 0, so an empty D
        # would pass there; a monoid oracle's class of the empty word is
        # missing from it
        empty = OneTapeAutomaton(1, AB, 0, frozenset(), ())
        oracle = build_oracle(builtin_presentation("fig3"), 5)
        with pytest.raises(InputError, match="bound must be >= 1"):
            validate_cross_section(empty, oracle, 0)
        monoid = build_oracle(Presentation("monoid", AB), 3)
        assert validate_cross_section(empty, monoid, 0).witnesses == (
            ("missing", ()),)

    @pytest.mark.parametrize("alphabet, bound, error", [
        (XYZ, 3, "alphabets differ"),
        (AB, 18, "beyond the oracle's bound"),
    ])
    def test_refused_before_enumerating(self, monkeypatch, alphabet, bound,
                                        error):
        # a query the oracle cannot answer costs no enumeration of D
        def enumerated(*args):
            raise AssertionError("D was enumerated")

        monkeypatch.setattr(ratwp.analysis, "_accepted_codes", enumerated)
        every_word = OneTapeAutomaton(1, alphabet, 0, frozenset({0}), tuple(
            NfaTransition(0, s, 0) for s in alphabet))
        oracle = build_oracle(builtin_presentation("fig3"), 3)
        with pytest.raises(InputError, match=error):
            validate_cross_section(every_word, oracle, bound)

    def test_infinite_class_fails_finiteness_proxy(self):
        # D = A+ hits the infinite class of b (= b a*) at growing counts
        a_plus = OneTapeAutomaton(
            2, AB, 0, frozenset({1}),
            tuple(NfaTransition(q, s, 1) for q in (0, 1) for s in AB))
        oracle = build_oracle(builtin_presentation("fig3"), 6)
        report = validate_cross_section(a_plus, oracle, 6)
        assert report.verdict == "fail"
        assert any(kind == "growing" for kind, *_ in report.witnesses)


@settings(max_examples=150, deadline=None)
@given(one_tape_automata(), presentations(), st.integers(0, 3))
@example(cross_section(builtin("fig3")), builtin_presentation("fig3"), 3)
def test_validate_cross_section_matches_word_reference(d, presentation,
                                                       bound):
    oracle = build_oracle(presentation, 3)
    if bound == 0 and not oracle.includes_empty:
        with pytest.raises(InputError, match="bound must be >= 1"):
            validate_cross_section(d, oracle, bound)
        return
    assert (validate_cross_section(d, oracle, bound)
            == validate_cross_section_by_words(d, oracle, bound))


class TestExportDot:
    def test_deterministic(self):
        assert export_dot(builtin("fig2")) == export_dot(builtin("fig2"))

    def test_fig1_two_nodes_two_edges(self):
        text = export_dot(builtin("fig1"))
        assert text.count("shape=circle") + text.count("doublecircle") == 2
        assert text.count(" -> ") == 3  # init edge + 2 merged edges

    def test_epsilon_rendering(self):
        assert "ε" in export_dot(builtin("fig3"))

    def test_nodes_labelled_by_number_after_trim(self):
        aut = trim(remove_generator(builtin("fig2"), "a"))
        assert aut.n_states < builtin("fig2").n_states
        text = export_dot(aut)
        for q in range(aut.n_states):
            assert f"  {q} [label=\"q{q}\"" in text

    def test_empty_automaton(self):
        aut = TwoTapeAutomaton(1, AB, AB, 0, frozenset(), ())
        text = export_dot(aut)
        assert text.startswith("digraph")
        assert text.count(" -> ") == 1  # only the init marker


UNEQUAL_TAPES = TwoTapeAutomaton(1, AB, Alphabet(("a",)), 0, frozenset(), ())


@pytest.mark.parametrize("call, message", [
    (lambda: PumpDecomposition((("a",), ()), ((), ()), ((), ("a",))),
     "pump loop must consume at least one symbol"),
    (lambda: equivalence_check(UNEQUAL_TAPES, 2),
     "equivalence check needs equal tape alphabets"),
    (lambda: congruence_check(UNEQUAL_TAPES, 2),
     "congruence check needs equal tape alphabets"),
])
def test_bad_arguments_are_named(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message
