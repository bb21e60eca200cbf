from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ratwp.oracle
from ratwp import (
    EPSILON,
    PAD,
    Alphabet,
    InputError,
    MultiplicationTable,
    Presentation,
    Transition,
    TwoTapeAutomaton,
    build_oracle,
    builtin,
    builtin_presentation,
    cayley_wp_sync,
    enumerate_accepted,
    free_wp,
    loads_sgp,
    table_oracle,
    union,
    verify,
)
from ratwp.automata import _code_limit
from ratwp.oracle import (
    _UnionFind,
    _cell_disagreements,
    _equal_pairs,
    _over_accepted,
    _set_disagreements,
)

from random_automata import (
    behind_chains,
    closure_oracle_by_words,
    presentations,
    sync_automata,
    transformation_tables,
    two_tape_automata,
    verify_all_pairs,
)

AB = Alphabet(("a", "b"))
A = Alphabet(("a",))
XYZ = Alphabet(("x", "y", "z"))
ABC = Alphabet(("a", "b", "c"))


def all_pairs_plus(alphabet):
    """Accepts every pair of two nonempty words over the alphabet."""
    trans = [(0, s, s2, 1) for s in alphabet for s2 in alphabet]
    trans += [(1, s, EPSILON, 1) for s in alphabet]
    trans += [(1, EPSILON, s, 1) for s in alphabet]
    return TwoTapeAutomaton(2, alphabet, alphabet, 0, frozenset({1}),
                            tuple(trans))


def free_monoid_with_eps_a():
    """The free monoid's word problem plus a fresh final state reached by
    (epsilon, a): it wrongly equates the empty word with a."""
    aut = free_wp(AB, kind="monoid")
    return TwoTapeAutomaton(
        aut.n_states + 1, AB, AB, aut.initial, aut.finals | {aut.n_states},
        aut.transitions + (Transition(aut.initial, EPSILON, "a",
                                      aut.n_states),))


def by_sets_and_by_cells(aut, oracle, bound):
    """verify's list by each of its two comparisons, the set comparison
    first: each sorted and decoded as verify does."""
    first = 0 if oracle.includes_empty else 1
    lim = _code_limit(len(oracle.alphabet), bound)
    n_equal = _equal_pairs(oracle.class_by_code, first, lim)
    return tuple(
        [decode(p) for p in sorted(codes)] for codes, decode in (
            _set_disagreements(aut, oracle, bound, first, lim, n_equal),
            _cell_disagreements(aut, oracle, bound, first, lim)))


def assert_both_comparisons(aut, oracle, bound, expected):
    """verify, and each of its two comparisons, gives the expected list."""
    assert verify(aut, oracle, bound) == expected
    assert by_sets_and_by_cells(aut, oracle, bound) == (expected, expected)


class TestBuildOracle:
    def test_free_presentation_all_singletons(self):
        oracle = build_oracle(Presentation("semigroup", AB), 4)
        classes = oracle.classes()
        assert all(len(members) == 1 for members in classes.values())

    def test_fig3_normal_forms(self):
        # classes of <a,b | aa=a, ba=b> are represented by a^d b^k
        oracle = build_oracle(builtin_presentation("fig3"), 4)
        reps = {min(m, key=oracle.alphabet.word_key)
                for m in oracle.classes().values()}
        expected = set()
        for d in (0, 1):
            for k in range(5):
                word = ("a",) * d + ("b",) * k
                if 1 <= len(word) <= 4:
                    expected.add(word)
        assert reps == expected

    def test_fig2_schema_relation(self):
        oracle = build_oracle(builtin_presentation("fig2"), 6)
        assert oracle.equal(tuple("abba"), tuple("aba"))
        assert not oracle.equal(tuple("ab"), tuple("ba"))

    def test_monoid_includes_empty_word(self):
        oracle = build_oracle(builtin_presentation("bicyclic"), 4)
        assert oracle.equal(("b", "c"), ())
        assert not oracle.equal(("c", "b"), ())

    def test_word_cap(self):
        with pytest.raises(InputError):
            build_oracle(Presentation("semigroup", AB), 8, slack=0,
                         word_cap=10)

    def test_bad_bound(self):
        with pytest.raises(InputError):
            build_oracle(Presentation("semigroup", AB), 0)


class TestOracleQueries:
    def test_reflexive(self):
        oracle = build_oracle(builtin_presentation("fig3"), 4)
        for v in AB.words(4):
            assert oracle.equal(v, v)

    def test_paper_equalities(self):
        oracle = build_oracle(builtin_presentation("fig3"), 4)
        assert oracle.equal(("b", "a"), ("b",))
        assert oracle.equal(("a", "a"), ("a",))
        assert not oracle.equal(("a",), ("b",))

    def test_semigroup_rejects_empty(self):
        oracle = build_oracle(builtin_presentation("fig3"), 4)
        with pytest.raises(InputError):
            oracle.equal((), ("a",))

    def test_over_length_query(self):
        oracle = build_oracle(builtin_presentation("fig3"), 3, slack=0)
        with pytest.raises(InputError):
            oracle.equal(("a",) * 9, ("a",))

    def test_unknown_symbol(self, c2_table):
        for oracle in (build_oracle(builtin_presentation("fig3"), 3),
                       table_oracle(c2_table, ("g",), bound=3)):
            with pytest.raises(InputError, match="symbol 'z' not in"):
                oracle.equal(("z",), (oracle.alphabet.symbols[0],))

    def test_one_stored_partition(self):
        # the class table is the only partition stored; class_of is a
        # read-only view derived from it
        oracle = build_oracle(builtin_presentation("fig3"), 2, slack=0)
        assert [f.name for f in fields(oracle)] == [
            "alphabet", "kind", "bound", "slack", "class_by_code"]
        assert oracle.class_by_code == (None, 0, 1, 0, 2, 1, 3)
        assert oracle.class_of[("b", "a")] == 1
        with pytest.raises(TypeError):
            oracle.class_of[("b", "a")] = 0


class TestTableOracle:
    def test_c2_folding(self, c2_table):
        oracle = table_oracle(c2_table, ("g",), bound=6)
        assert oracle.equal(("g", "g"), ("g",) * 4)
        assert not oracle.equal(("g",), ("g", "g"))

    def test_non_generating_set(self, c2_table):
        with pytest.raises(InputError):
            table_oracle(c2_table, ("1",))

    def test_unknown_kind(self, c2_table):
        with pytest.raises(InputError, match="unknown kind 'group'"):
            table_oracle(c2_table, ("g",), kind="group")

    @pytest.mark.parametrize("kind", ("semigroup", "monoid"))
    @pytest.mark.parametrize("bound", (0, -1))
    def test_bad_bound(self, c2_table, kind, bound):
        # as build_oracle: a bound below 1 would check nothing
        with pytest.raises(InputError, match="bound must be >= 1"):
            table_oracle(c2_table, ("g",), bound=bound, kind=kind)

    def test_agrees_with_presentation_oracle(self, c2_table):
        # C2 as a table and as <g | g^3 = g> (semigroup of g, g^2=1)
        table = table_oracle(c2_table, ("g",), bound=5)
        pres = build_oracle(
            Presentation("semigroup", Alphabet(("g",)),
                         relations=((("g", "g", "g"), ("g",)),)), 5)
        for v in table.words():
            for u in table.words():
                assert table.equal(v, u) == pres.equal(v, u)

    def test_left_zero_agreement(self, left_zero_table):
        table = table_oracle(left_zero_table, ("l", "r"), bound=5)
        pres = build_oracle(
            Presentation("semigroup", Alphabet(("l", "r")), relations=(
                (("l", "l"), ("l",)), (("l", "r"), ("l",)),
                (("r", "l"), ("r",)), (("r", "r"), ("r",)))), 5)
        for v in table.words():
            for u in table.words():
                assert table.equal(v, u) == pres.equal(v, u)


class TestVerify:
    def test_fig1_verified(self):
        oracle = build_oracle(builtin_presentation("fig1"), 6)
        assert verify(builtin("fig1"), oracle, 6) == []

    def test_fig3_verified(self):
        oracle = build_oracle(builtin_presentation("fig3"), 5)
        assert verify(builtin("fig3"), oracle, 5) == []

    def test_mutant_detected(self):
        # fig3 without the (b,b) self-loop at q1 misses b-heavy pairs
        aut = builtin("fig3")
        broken = TwoTapeAutomaton(
            aut.n_states, aut.left, aut.right, aut.initial, aut.finals,
            tuple(t for t in aut.transitions
                  if t != Transition(1, "b", "b", 1)))
        oracle = build_oracle(builtin_presentation("fig3"), 4)
        bad = verify(broken, oracle, 4)
        assert bad
        assert (("b", "b"), ("b", "b")) in bad

    def test_disagreements_sorted_and_symmetric(self):
        aut = builtin("fig1")  # under-accepts relative to fig3's oracle
        oracle = build_oracle(builtin_presentation("fig3"), 4)
        bad = verify(aut, oracle, 4)
        assert bad == sorted(
            bad, key=lambda p: (oracle.alphabet.word_key(p[0]),
                                oracle.alphabet.word_key(p[1])))
        pairs = set(bad)
        assert all((u, v) in pairs for v, u in pairs)

    def test_monoid_empty_word_checked(self):
        oracle = build_oracle(Presentation("monoid", AB), 4)
        assert verify(free_wp(AB, kind="monoid"), oracle, 4) == []

    @pytest.mark.parametrize("kind, expected", [
        ("semigroup", []),
        ("monoid", [((), ("a",))]),
    ])
    def test_empty_side_pairs_follow_oracle_kind(self, kind, expected):
        # a semigroup oracle has no empty word, so accepted pairs with an
        # empty side are ignored; a monoid oracle reports them
        oracle = build_oracle(Presentation(kind, AB), 4)
        assert verify(free_monoid_with_eps_a(), oracle, 4) == expected

    def test_over_acceptance_reported(self):
        # fig3 plus (a, b) out of the initial state accepts a ~ b
        aut = builtin("fig3")
        mutant = TwoTapeAutomaton(
            aut.n_states, AB, AB, aut.initial, aut.finals,
            aut.transitions + (Transition(0, "a", "b", 1),))
        oracle = build_oracle(builtin_presentation("fig3"), 2)
        assert_both_comparisons(mutant, oracle, 2, [
            (("a",), ("b",)), (("a",), ("b", "a")), (("a", "a"), ("b",)),
            (("a", "a"), ("b", "a")), (("a", "b"), ("b", "b"))])

    def test_under_acceptance_reported(self):
        # fig1 without its final state drops every equal pair
        aut = builtin("fig1")
        mutant = TwoTapeAutomaton(aut.n_states, AB, AB, aut.initial,
                                  frozenset(), aut.transitions)
        oracle = build_oracle(builtin_presentation("fig1"), 2)
        assert_both_comparisons(mutant, oracle, 2, [
            (w, w) for w in (("a",), ("b",), ("a", "a"), ("a", "b"),
                             ("b", "a"), ("b", "b"))])

    def test_bound_0(self):
        # a semigroup oracle has no word up to bound 0, so an automaton
        # accepting nothing would verify there; a monoid oracle compares
        # (ε, ε)
        nothing = TwoTapeAutomaton(1, AB, AB, 0, frozenset(), ())
        oracle = build_oracle(builtin_presentation("fig3"), 5)
        with pytest.raises(InputError, match="bound must be >= 1"):
            verify(nothing, oracle, 0)
        monoid = build_oracle(Presentation("monoid", AB), 3)
        assert verify(nothing, monoid, 0) == [((), ())]

    def test_alphabet_mismatch(self):
        oracle = build_oracle(
            Presentation("semigroup", Alphabet(("a",))), 4)
        with pytest.raises(InputError):
            verify(builtin("fig1"), oracle, 4)

    def test_bound_above_oracle(self):
        oracle = build_oracle(builtin_presentation("fig1"), 3, slack=0)
        with pytest.raises(InputError):
            verify(builtin("fig1"), oracle, 5)


@settings(max_examples=300, deadline=None)
# one-symbol and three-symbol alphabets, k = 1 and k = 3 in the coding
@example(all_pairs_plus(A),
         Presentation("semigroup", A, ((("a", "a", "a"), ("a",)),)), 4)
@example(free_wp(A, kind="monoid"),
         Presentation("monoid", A, ((("a", "a"), ()),)), 4)
@example(all_pairs_plus(XYZ),
         Presentation("semigroup", XYZ, ((("x", "y"), ("z",)),)), 3)
@example(free_wp(XYZ, kind="monoid"),
         Presentation("monoid", XYZ, ((("x", "y"), ("y", "x")),
                                      (("z",), ()))), 3)
@given(st.one_of(
           two_tape_automata(),
           sync_automata(),
           # final states behind a chain: the distance prune fires
           behind_chains(two_tape_automata()),
           behind_chains(sync_automata()),
           # accepts every equal pair of the free monoid, and more
           two_tape_automata().map(
               lambda aut: union(free_wp(AB, kind="monoid"), aut))),
       presentations(), st.integers(1, 4))
def test_verify_agrees_with_all_pairs(aut, presentation, bound):
    oracle = build_oracle(presentation, bound, slack=1)
    assert_both_comparisons(aut, oracle, bound,
                            verify_all_pairs(aut, oracle, bound))


@settings(max_examples=100, deadline=None)
@given(st.one_of(two_tape_automata(), sync_automata()), presentations(),
       st.integers(1, 3))
def test_over_accepted_is_an_accepted_disagreement(aut, presentation,
                                                   oracle_bound):
    # asked as pump_refute asks it, at the oracle's bound + slack, of each
    # comparison whichever the rule picks: 0 bits per member takes the
    # sets, 2^64 the masks
    oracle = build_oracle(presentation, oracle_bound, slack=1)
    bound = oracle.bound + oracle.slack
    accepted = enumerate_accepted(aut, bound)
    expected = any(pair in accepted
                   for pair in verify_all_pairs(aut, oracle, bound))
    for bits in (0, 1 << 64):
        with mock.patch.object(ratwp.oracle, "_SET_BITS_PER_MEMBER", bits):
            assert _over_accepted(aut, oracle, bound) is expected


@st.composite
def cayley_faults(draw):
    """(automaton, oracle, bound): the Cayley automaton of a random
    transformation semigroup, of a kind its table has, with one transition
    dropped or redirected, one final state removed or as it is, and the
    table oracle of that kind at bound 1 to 4."""
    table, gens = draw(transformation_tables(max_elements=12))
    kinds = ["semigroup"]
    if table.identity_index() is not None:
        kinds.append("monoid")
    kind = draw(st.sampled_from(kinds))
    aut = cayley_wp_sync(table, gens, kind=kind)
    trans, finals = list(aut.transitions), sorted(aut.finals)
    fault = draw(st.sampled_from(("drop", "redirect", "unfinal", "none")))
    if fault == "drop" and trans:
        del trans[draw(st.integers(0, len(trans) - 1))]
    elif fault == "redirect" and trans:
        i = draw(st.integers(0, len(trans) - 1))
        t = trans[i]
        # into a state entered with the same pads: the padding holds
        same_pads = [u.dst for u in trans if (u.left == PAD) == (t.left == PAD)
                     and (u.right == PAD) == (t.right == PAD)]
        trans[i] = t._replace(dst=draw(st.sampled_from(same_pads)))
    elif fault == "unfinal" and finals:
        finals.remove(draw(st.sampled_from(finals)))
    bound = draw(st.integers(1, 4))
    return (TwoTapeAutomaton(aut.n_states, aut.left, aut.right, aut.initial,
                             frozenset(finals), tuple(trans), mode="sync"),
            table_oracle(table, gens, bound, kind), bound)


@settings(max_examples=100, deadline=None)
@given(cayley_faults())
def test_both_comparisons_agree_on_cayley_faults(case):
    aut, oracle, bound = case
    assert_both_comparisons(aut, oracle, bound,
                            verify_all_pairs(aut, oracle, bound))


class TestComparisonChoice:
    """verify takes the cell comparison when lim^2 <= 64 sum |class|^2,
    the set comparison otherwise."""

    @pytest.fixture
    def taken(self, monkeypatch):
        """The names of the comparisons verify calls, in order."""
        calls = []
        for name in ("_set_disagreements", "_cell_disagreements"):
            def record(*args, _name=name,
                       _compare=getattr(ratwp.oracle, name)):
                calls.append(_name)
                return _compare(*args)
            monkeypatch.setattr(ratwp.oracle, name, record)
        return calls

    def test_t3_is_dense(self, t3_table, taken):
        # lim^2 / sum |class|^2 = 16
        gens = ("102", "120", "002")
        oracle = table_oracle(t3_table, gens, 5)
        assert verify(cayley_wp_sync(t3_table, gens), oracle, 5) == []
        assert taken == ["_cell_disagreements"]

    @pytest.mark.parametrize("name, bound, compare", [
        ("fig3", 8, "_cell_disagreements"),  # ratio 10
        ("fig1", 9, "_set_disagreements"),   # ratio 1024
        ("fig2", 9, "_set_disagreements"),   # ratio 305
    ])
    def test_figures(self, name, bound, compare, taken):
        oracle = build_oracle(builtin_presentation(name), bound)
        assert verify(builtin(name), oracle, bound) == []
        assert taken == [compare]


class TestComparisonEdges:
    def test_monoid_bound_0_is_one_cell(self):
        # the one pair (ε, ε), bit 0 of cell (0, 0)
        oracle = build_oracle(Presentation("monoid", AB), 2)
        nothing = TwoTapeAutomaton(1, AB, AB, 0, frozenset(), ())
        assert_both_comparisons(nothing, oracle, 0, [((), ())])
        assert_both_comparisons(free_wp(AB, kind="monoid"), oracle, 0, [])

    def test_one_letter(self):
        # k = 1: every cell is one bit and every step shifts by 0; aaa = a
        # splits the words into odd and even lengths
        oracle = build_oracle(
            Presentation("semigroup", A, ((("a", "a", "a"), ("a",)),)), 4)
        expected = [(("a",) * i, ("a",) * j) for i in range(1, 5)
                    for j in range(1, 5) if (i - j) % 2]
        assert verify_all_pairs(all_pairs_plus(A), oracle, 4) == expected
        assert_both_comparisons(all_pairs_plus(A), oracle, 4, expected)

    def test_sync_with_pads(self, c2_table):
        # C2's Cayley automaton reads pads; against C3 it equates 1 and gg
        c3 = MultiplicationTable(("1", "g", "h"),
                                 ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        aut = cayley_wp_sync(c2_table, ("1", "g"))
        oracle = table_oracle(c3, ("1", "g"), 3)
        expected = verify_all_pairs(aut, oracle, 3)
        assert len(expected) == 42
        assert expected[0] == (("1",), ("g", "g"))
        assert_both_comparisons(aut, oracle, 3, expected)


def code_of(word, alphabet):
    """A word's bijective base-k code, computed digit by digit."""
    code = 0
    for sym in word:
        code = code * len(alphabet) + alphabet.index(sym) + 1
    return code


def assert_class_by_code_agrees(oracle, class_of):
    """class_by_code holds class_of(word) at every word's code, and None
    at the empty word's for a semigroup oracle; the class_of view,
    classes() and equal answer as class_of does."""
    words = list(oracle.alphabet.words(oracle.bound + oracle.slack,
                                       min_len=0))
    table = oracle.class_by_code
    assert len(table) == len(words)
    for word in words:
        expected = (class_of(word) if word or oracle.includes_empty
                    else None)
        assert table[code_of(word, oracle.alphabet)] == expected
    words = [w for w in words if w or oracle.includes_empty]
    assert oracle.class_of == {w: class_of(w) for w in words}
    classes = {}
    for w in words[:len(oracle.words())]:
        classes.setdefault(class_of(w), []).append(w)
    assert oracle.classes() == classes
    for v in words[:20]:
        for w in words[:20]:
            assert oracle.equal(v, w) == (class_of(v) == class_of(w))


@settings(max_examples=100, deadline=None)
@given(presentations(), st.integers(1, 4), st.integers(0, 2),
       st.sampled_from((("c2", ("g",), "semigroup"), ("c2", ("g",), "monoid"),
                        ("c2", ("g", "1"), "monoid"),
                        ("left_zero", ("l", "r"), "semigroup"))))
def test_class_by_code_agrees_with_class_of(c2_table, left_zero_table,
                                           presentation, bound, slack,
                                           table_case):
    reference = closure_oracle_by_words(presentation, bound, slack=slack)
    assert_class_by_code_agrees(build_oracle(presentation, bound, slack=slack),
                                reference.class_of.__getitem__)
    # a table oracle's classes are the words' values, folded one by one
    name, gens, kind = table_case
    table = c2_table if name == "c2" else left_zero_table
    gen_map = {g: table.index(g) for g in gens}
    assert_class_by_code_agrees(
        table_oracle(table, gens, bound, kind=kind),
        lambda w: table.fold(w, gen_map) if w else table.identity_index())


@settings(max_examples=100, deadline=None)
@given(presentations(), st.integers(1, 3), st.sampled_from((None, 0, 1)))
def test_class_ids_are_shortlex_ranks_of_least_members(presentation, bound,
                                                       slack):
    oracle = build_oracle(presentation, bound, slack=slack)
    key = oracle.alphabet.word_key
    classes = oracle.classes(oracle.bound + oracle.slack)
    for members in classes.values():
        assert members == sorted(members, key=key)
    least = sorted((members[0] for members in classes.values()), key=key)
    assert [oracle.class_of[w] for w in least] == list(range(len(least)))


def built_or_error(build, presentation, bound, slack, word_cap):
    """(slack, class_of, class_by_code) of the oracle, or the message of
    the InputError raised instead."""
    try:
        oracle = build(presentation, bound, slack=slack, word_cap=word_cap)
    except InputError as exc:
        return str(exc)
    return oracle.slack, oracle.class_of, oracle.class_by_code


def assert_closure_agrees(presentation, bound, slack=None,
                          word_cap=2_000_000):
    assert (built_or_error(build_oracle, presentation, bound, slack, word_cap)
            == built_or_error(closure_oracle_by_words, presentation, bound,
                              slack, word_cap))


@settings(max_examples=200, deadline=None)
@given(presentations(), st.integers(1, 4), st.sampled_from((None, 0, 2)),
       st.sampled_from((2_000_000, 100)))
def test_build_oracle_agrees_with_word_closure(presentation, bound, slack,
                                               word_cap):
    assert_closure_agrees(presentation, bound, slack, word_cap)


@pytest.mark.parametrize("presentation", [
    # a = bbb = c: the slack search settles on different slacks by bound
    Presentation("semigroup", ABC, ((("a",), ("b",) * 3),
                                    (("c",), ("b",) * 3))),
    # multi-character tokens
    Presentation("monoid", Alphabet(("x1", "y22", "z")),
                 ((("x1", "y22"), ("y22", "x1")), (("z", "z"), ()),
                  (("x1", "x1", "x1"), ("z",)))),
    # a schema side with a non-generator rewrites nothing, and a schema
    # may give a semigroup relation an empty side: the empty word, not a
    # word of a semigroup, must not join ab and ba
    loads_sgp("kind: semigroup\ngens: a b\nschema: q a^n = b ; n = 1..2\n"
              "schema: a^n = b a ; n = 0..1\nschema: b^n = a b ; n = 0..0\n"),
], ids=["a=bbb=c", "tokens", "schemas"])
@pytest.mark.parametrize("bound", [1, 2, 3, 4])
@pytest.mark.parametrize("slack", [None, 0, 2])
def test_build_oracle_fixed_cases_agree_with_word_closure(presentation,
                                                          bound, slack):
    assert_closure_agrees(presentation, bound, slack)


@st.composite
def union_runs(draw):
    """A code count n <= 60, unions over its codes, and 0 <= first <=
    shorter <= end <= n."""
    n = draw(st.integers(1, 60))
    code = st.integers(0, n - 1)
    unions = draw(st.lists(st.tuples(code, code), max_size=80))
    end = draw(st.integers(0, n))
    shorter = draw(st.integers(0, end))
    return n, unions, draw(st.integers(0, shorter)), shorter, end


@settings(max_examples=200, deadline=None)
@given(union_runs())
# parents 3 -> 2 -> 1 -> 0 and 4 -> 0: ids must shorten the paths of the
# codes below first too
@example((5, [(2, 3), (1, 2), (0, 1), (0, 4)], 3, 4, 5))
def test_union_find_keeps_least_roots(run):
    n, unions, first, shorter, end = run
    uf = _UnionFind(n)
    for a, b in unions:
        uf.union(a, b)
        assert all(p <= x for x, p in enumerate(uf.parent))
    parent = uf.parent

    def root(c):  # no path compression: ids must do without it
        while parent[c] != c:
            c = parent[c]
        return c

    roots = [root(c) for c in range(n)]
    assert all(roots[r] == r and r <= c for c, r in enumerate(roots))
    # ids number the roots by first appearance over [first, end)
    number = {}
    expected = [number.setdefault(roots[c], len(number))
                for c in range(first, end)]
    ids = uf.ids(first, end)
    assert ids == expected
    assert all(p <= x for x, p in enumerate(uf.parent))
    assert uf.ids(first, shorter) == ids[:shorter - first]


# a = bb = c, b = ccc = d, e = dddd and a = dddd = ddddd = b: at bound 1
# the letters' classes change at every slack from 1 to 4, so the search
# stops at its last slack
SLACK_4 = loads_sgp(
    "kind: semigroup\ngens: a b c d e\nrel: a = b b\nrel: c = b b\n"
    "rel: b = c c c\nrel: d = c c c\nrel: e = d d d d\n"
    "rel: a = d d d d\nrel: a = d d d d d\nrel: b = d d d d d\n")


def test_slack_search_runs_to_its_last_slack():
    letters = [build_oracle(SLACK_4, 1, slack=s).class_by_code[:6]
               for s in range(5)]
    assert all(x != y for x, y in zip(letters, letters[1:]))
    assert build_oracle(SLACK_4, 1).slack == 4
    for slack in (None, 0, 1, 2, 3, 4):
        assert_closure_agrees(SLACK_4, 1, slack)


def test_words_past_bound_and_slack_are_refused():
    oracle = build_oracle(builtin_presentation("fig3"), 2, slack=1)
    assert len(oracle.words(3)) == 14
    with pytest.raises(InputError) as exc:
        oracle.words(4)
    assert str(exc.value) == "query beyond the oracle's bound"
