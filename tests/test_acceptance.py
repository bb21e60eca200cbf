"""Acceptance criteria, one test per criterion.

A summary with one pass/fail line per criterion is printed at the end of
the pytest run (see conftest.py).
"""

import pytest

from ratwp import (
    Alphabet,
    IdealData,
    MultiplicationTable,
    Presentation,
    ProductGenerators,
    Transition,
    TwoTapeAutomaton,
    add_generator,
    adjoin_identity,
    adjoin_zero,
    build_oracle,
    builtin,
    builtin_presentation,
    cayley_wp_sync,
    compose,
    congruence_check,
    cross_section,
    determinize,
    eliminate_silent_steps,
    enumerate_accepted,
    equivalence_check,
    free_product,
    free_wp,
    ideal_extension,
    intersect_rectangle,
    monoid_from_semigroup_wp,
    product_with_finite,
    pump_check,
    pump_decompose,
    pump_refute,
    pumping_constant,
    swap_tapes,
    sync_to_async,
    table_oracle,
    trim,
    validate_cross_section,
    validate_sync,
    verify,
    zero_union,
)
from ratwp.automata import (
    NfaTransition,
    OneTapeAutomaton,
    accepts_one_tape,
)
from random_automata import oracle_from_words

A = Alphabet(("a",))
AB = Alphabet(("a", "b"))


def a_plus(alphabet):
    return OneTapeAutomaton(
        2, alphabet, 0, frozenset({1}),
        tuple(NfaTransition(q, s, 1) for q in (0, 1) for s in alphabet))


def wp_trivial_a():
    return TwoTapeAutomaton(
        2, A, A, 0, frozenset({1}),
        ((0, "a", "a", 1), (1, "a", "a", 1),
         (1, "a", None, 1), (1, None, "a", 1)))


def fig3_extension_presentation(symbol, absorbing=False):
    """Fig. 3 presentation with one extra symbol acting as identity or
    zero."""
    e = symbol
    extra = [((s, e), (e,) if absorbing else (s,)) for s in ("a", "b")]
    extra += [((e, s), (e,) if absorbing else (s,)) for s in ("a", "b")]
    extra.append(((e, e), (e,)))
    return Presentation(
        "semigroup", Alphabet(("a", "b", e)),
        ((("a", "a"), ("a",)), (("b", "a"), ("b",))) + tuple(extra))


def test_criterion_1():
    """Fig. 1: free_wp on {a,b} equals string equality up to length 8."""
    wp = free_wp(AB)
    oracle = build_oracle(builtin_presentation("fig1"), 8)
    assert verify(wp, oracle, 8) == []


def test_criterion_2():
    """Fig. 2 vs the schema oracle (a b^n a = a b a, n <= 10), bound 8."""
    wp = builtin("fig2")
    oracle = build_oracle(builtin_presentation("fig2"), 8)
    assert verify(wp, oracle, 8) == []
    assert wp.accepts(tuple("abba"), tuple("aba"))
    assert wp.accepts(tuple("abbba"), tuple("aba"))
    assert not wp.accepts(tuple("ab"), tuple("ba"))


def test_criterion_3():
    """Fig. 3 vs the congruence oracle of <a,b | aa=a, ba=b>, bound 6;
    class representatives are the normal forms a^d b^k."""
    wp = builtin("fig3")
    oracle = build_oracle(builtin_presentation("fig3"), 6)
    assert verify(wp, oracle, 6) == []
    reps = {min(m, key=oracle.alphabet.word_key)
            for m in oracle.classes().values()}
    expected = {("a",) * d + ("b",) * k
                for d in (0, 1) for k in range(7)}
    expected = {w for w in expected if 1 <= len(w) <= 6}
    assert reps == expected


def test_criterion_4(c2_table, left_zero_table):
    """Cayley automata for C2 and the left-zero semigroup match their
    table oracles at bound 6 and obey the padding discipline."""
    for table, gens in ((c2_table, ("g",)), (left_zero_table, ("l", "r"))):
        wp = cayley_wp_sync(table, gens)
        validate_sync(wp)
        oracle = table_oracle(table, gens, bound=6)
        assert verify(wp, oracle, 6) == []


def test_criterion_5():
    """Change of generators: over A={a}, adding b = aa via
    R . WP . R^r equals oracle equality over {a,b} at bound 5."""
    wp = add_generator(free_wp(A), "b", ("a", "a"))
    oracle = build_oracle(
        Presentation("semigroup", AB, relations=((("b",), ("a", "a")),)), 5)
    assert verify(wp, oracle, 5) == []


def _ideal_two_data():
    return IdealData(
        elements=("u", "v"), base_symbols=("a",),
        left_action={("a", "u"): "u", ("a", "v"): "v"},
        right_action={("u", "a"): "u", ("v", "a"): "v"},
        internal={("u", "u"): "u", ("u", "v"): "u",
                  ("v", "u"): "v", ("v", "v"): "v"})


def _zero_union_parts():
    ts = MultiplicationTable(("a", "z"), ((0, 1), (1, 1)))
    tt = MultiplicationTable(("b", "z"), ((0, 1), (1, 1)))
    wp = zero_union(cayley_wp_sync(ts, ("a", "z")),
                    cayley_wp_sync(tt, ("b", "z")), "z")
    oracle = build_oracle(
        Presentation("semigroup", Alphabet(("a", "z", "b")), relations=(
            (("a", "a"), ("a",)), (("b", "b"), ("b",)),
            (("a", "z"), ("z",)), (("z", "a"), ("z",)),
            (("b", "z"), ("z",)), (("z", "b"), ("z",)),
            (("z", "z"), ("z",)),
            (("a", "b"), ("z",)), (("b", "a"), ("z",)))), 4)
    return wp, oracle


def _product_parts(c2_table):
    gens = ProductGenerators((("x", "g", "a"), ("y", "g", "b")))
    wp = product_with_finite(c2_table, builtin("fig3"), gens)
    t_oracle = build_oracle(builtin_presentation("fig3"), 5)
    alphabet = gens.alphabet()
    s_map = {c: c2_table.index(e) for c, e in gens.pi_s().items()}
    pi_t = gens.pi_t()
    class_of = {
        w: (c2_table.fold(w, s_map),
            t_oracle.class_of[tuple(pi_t[s] for s in w)])
        for w in alphabet.words(5)
    }
    oracle = oracle_from_words(alphabet, "semigroup", 5, 0, class_of)
    return wp, oracle


def test_criterion_6(c2_table):
    """Every combination construction verifies against its combined or
    componentwise oracle with zero disagreements."""
    fig3 = builtin("fig3")

    wp = adjoin_identity(fig3, "e")
    oracle = build_oracle(fig3_extension_presentation("e"), 4)
    assert verify(wp, oracle, 4) == []

    wp = adjoin_zero(fig3, "z")
    oracle = build_oracle(fig3_extension_presentation("z", absorbing=True), 4)
    assert verify(wp, oracle, 4) == []

    # ideal extension, |I| = 1 (same as adjoin_zero) and |I| = 2
    wp = ideal_extension(wp_trivial_a(), IdealData(
        elements=("z",), base_symbols=("a",),
        left_action={("a", "z"): "z"}, right_action={("z", "a"): "z"},
        internal={("z", "z"): "z"}))
    oracle = build_oracle(
        Presentation("semigroup", Alphabet(("a", "z")), relations=(
            (("a", "a"), ("a",)),
            (("a", "z"), ("z",)), (("z", "a"), ("z",)),
            (("z", "z"), ("z",)))), 5)
    assert verify(wp, oracle, 5) == []

    wp = ideal_extension(wp_trivial_a(), _ideal_two_data())
    oracle = build_oracle(
        Presentation("semigroup", Alphabet(("a", "u", "v")), relations=(
            (("a", "a"), ("a",)),
            (("a", "u"), ("u",)), (("u", "a"), ("u",)),
            (("a", "v"), ("v",)), (("v", "a"), ("v",)),
            (("u", "u"), ("u",)), (("u", "v"), ("u",)),
            (("v", "u"), ("v",)), (("v", "v"), ("v",)))), 4)
    assert verify(wp, oracle, 4) == []

    wp = free_product(fig3, free_wp(Alphabet(("c",))))
    oracle = build_oracle(
        Presentation("semigroup", Alphabet(("a", "b", "c")), relations=(
            (("a", "a"), ("a",)), (("b", "a"), ("b",)))), 4)
    assert verify(wp, oracle, 4) == []

    wp, oracle = _zero_union_parts()
    assert verify(wp, oracle, 4) == []

    wp, oracle = _product_parts(c2_table)
    assert verify(wp, oracle, 5) == []


def test_criterion_7():
    """MWP built from SWP, intersected with A+ x A+, reproduces the SWP
    membership at bound 5."""
    swp = free_wp(AB)
    mwp = monoid_from_semigroup_wp(swp)
    assert mwp.accepts((), ())
    restricted = intersect_rectangle(mwp, a_plus(AB), a_plus(AB))
    assert enumerate_accepted(restricted, 5) == enumerate_accepted(swp, 5)
    words = [()] + list(AB.words(5))
    for v in words:
        for u in words:
            assert restricted.accepts(v, u) == swp.accepts(v, u)


def test_criterion_8():
    """Pumping suite: decompose/check on 100 long accepted pairs of the
    builtins; refutations for an over-accepting Fig. 3 mutant and a
    bicyclic candidate."""
    checked = 0
    for name, bound in (("fig1", 5), ("fig2", 6), ("fig3", 6)):
        aut = builtin(name)
        n0 = pumping_constant(aut)
        pairs = sorted(enumerate_accepted(aut, bound))
        for pair in pairs:
            if len(pair[0]) + len(pair[1]) <= n0:
                continue
            dec = pump_decompose(aut, pair)
            assert dec.pumped(1) == pair
            assert pump_check(aut, dec, 5).verdict == "pass"
            checked += 1
            if checked >= 100:
                break
        if checked >= 100:
            break
    assert checked >= 100

    fig3 = builtin("fig3")
    mutant = TwoTapeAutomaton(
        fig3.n_states, fig3.left, fig3.right, fig3.initial, fig3.finals,
        fig3.transitions + (Transition(1, "b", None, 1),))
    oracle = build_oracle(builtin_presentation("fig3"), 8)
    report = pump_refute(mutant, oracle, 6)
    assert report.verdict == "refuted" and report.witnesses

    bc = Alphabet(("b", "c"))
    candidate = TwoTapeAutomaton(
        2, bc, bc, 0, frozenset({0, 1}),
        ((0, "b", None, 0), (0, "c", None, 1), (1, "c", None, 1)))
    bicyclic = build_oracle(builtin_presentation("bicyclic"), 8)
    report = pump_refute(candidate, bicyclic, 6)
    assert report.verdict == "refuted" and report.witnesses


def test_criterion_9(c2_table, left_zero_table):
    """Property suite over the word-problem automata of criteria 1-7, plus
    algebra and normalization laws."""
    zoo = [
        free_wp(AB),
        builtin("fig2"),
        builtin("fig3"),
        sync_to_async(cayley_wp_sync(c2_table, ("g",))),
        sync_to_async(cayley_wp_sync(left_zero_table, ("l", "r"))),
        add_generator(free_wp(A), "b", ("a", "a")),
        adjoin_identity(builtin("fig3"), "e"),
        adjoin_zero(builtin("fig3"), "z"),
        ideal_extension(wp_trivial_a(), _ideal_two_data()),
        free_product(builtin("fig3"), free_wp(Alphabet(("c",)))),
        _zero_union_parts()[0],
        _product_parts(c2_table)[0],
        monoid_from_semigroup_wp(free_wp(AB)),
    ]
    for wp in zoo:
        bound = 5 if len(wp.left) <= 2 else 4
        assert equivalence_check(wp, bound).verdict == "pass"
        assert congruence_check(wp, bound).verdict == "pass"

    # composition laws at bound 3
    r, s, t = builtin("fig1"), builtin("fig3"), swap_tapes(builtin("fig3"))
    ident = free_wp(AB, kind="monoid")
    assoc_l = compose(compose(r, s), t)
    assoc_r = compose(r, compose(s, t))
    left_id = compose(ident, s)
    right_id = compose(s, ident)
    pairs = [(v, u) for v in [()] + list(AB.words(3))
             for u in [()] + list(AB.words(3))]
    for v, u in pairs:
        assert assoc_l.accepts(v, u) == assoc_r.accepts(v, u)
        assert left_id.accepts(v, u) == s.accepts(v, u)
        assert right_id.accepts(v, u) == s.accepts(v, u)

    # trim and silent elimination preserve the accepted set
    fp = free_product(builtin("fig3"), free_wp(Alphabet(("c",))))
    for transform in (trim, eliminate_silent_steps):
        assert (enumerate_accepted(transform(fp), 3)
                == enumerate_accepted(fp, 3))

    # determinize preserves the language
    nfa = OneTapeAutomaton(
        3, AB, 0, frozenset({2}),
        ((0, None, 1), (0, "a", 2), (1, "a", 1), (1, "b", 2)))
    dfa = determinize(nfa)
    for v in [()] + list(AB.words(4)):
        assert accepts_one_tape(nfa, v) == accepts_one_tape(dfa, v)


def test_criterion_10():
    """Cross-section of Fig. 3: every oracle class at bound 6 is
    represented in D and per-class counts are stable from bound 5 to 6."""
    d = cross_section(builtin("fig3"))
    oracle = build_oracle(builtin_presentation("fig3"), 6)
    report = validate_cross_section(d, oracle, 6)
    assert report.verdict == "pass", report.witnesses
