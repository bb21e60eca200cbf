import gc
import weakref
from dataclasses import replace
from functools import cached_property, partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratwp import (
    EPSILON,
    PAD,
    Alphabet,
    InputError,
    NfaTransition,
    OneTapeAutomaton,
    Transition,
    TwoTapeAutomaton,
    accepts_one_tape,
    as_word,
    build_oracle,
    builtin,
    builtin_presentation,
    cayley_wp_sync,
    determinize,
    eliminate_silent_steps,
    enumerate_accepted,
    enumerate_language,
    pump_check,
    pump_decompose,
    pump_refute,
    pumping_constant,
    swap_tapes,
    sync_to_async,
    table_oracle,
    trim,
    union,
    validate_sync,
)
import ratwp.automata
from ratwp.automata import (
    _accepting_run, _as_async, _pair_coding, _search_form,
)
from ratwp.fileio import dumps_fsa, load_fsa, loads_fsa
from random_automata import (
    accepted_pairs,
    accepting_run_per_step,
    all_reachable,
    any_sync_automata,
    behind_chains,
    one_tape_automata,
    padding_fault_by_search,
    sync_automata,
    sync_fields,
    transitions_by_items,
    trim_by_fixpoint,
    two_tape_automata,
    two_tape_automata_any_alphabets,
    union_of_two,
    useful_states,
)

AB = Alphabet(("a", "b"))


def w(text):
    return as_word(text)


def all_pairs(alphabet, bound):
    words = [()] + list(alphabet.words(bound))
    return [(v, u) for v in words for u in words]


class TestAlphabet:
    def test_rejects_reserved_tokens(self):
        with pytest.raises(InputError):
            Alphabet(("a", "-"))
        with pytest.raises(InputError):
            Alphabet((PAD,))
        # the pad starts a comment in a file, inside a token too
        with pytest.raises(InputError, match="'a#b' is reserved"):
            Alphabet(("a#b", "c"))

    def test_rejects_duplicates_and_whitespace(self):
        with pytest.raises(InputError):
            Alphabet(("a", "a"))
        with pytest.raises(InputError):
            Alphabet(("a b",))

    def test_words_shortlex(self):
        words = list(AB.words(2))
        assert words == [w("a"), w("b"), w("aa"), w("ab"), w("ba"), w("bb")]


class TestValidation:
    def test_out_of_range_states(self):
        with pytest.raises(InputError):
            TwoTapeAutomaton(1, AB, AB, 0, frozenset({2}), ())
        with pytest.raises(InputError):
            TwoTapeAutomaton(1, AB, AB, 0, frozenset(), ((0, "a", "a", 5),))

    def test_unknown_symbol(self):
        with pytest.raises(InputError):
            TwoTapeAutomaton(1, AB, AB, 0, frozenset(), ((0, "c", "a", 0),))

    def test_sync_rejects_epsilon(self):
        with pytest.raises(InputError):
            TwoTapeAutomaton(1, AB, AB, 0, frozenset(),
                             ((0, EPSILON, "a", 0),), mode="sync")

    @pytest.mark.parametrize("mode, transitions, message", [
        ("async", ((0, "a", "a", 0), (0, "c", "a", 0)), "unknown symbol 'c'"),
        ("async", ((0, ["a"], "a", 0),), "unknown symbol ['a']"),
        ("async", ((0, "a", PAD, 0),), "unknown symbol '#'"),
        ("async", ((0, "a", "a", 1.0),),
         "transition target 1.0 out of range for 2 states"),
        ("async", ((-1, "a", "a", 0),),
         "transition source -1 out of range for 2 states"),
        ("async", (([0], "a", "a", 0),),
         "transition source [0] out of range for 2 states"),
        # the first bad transition is named, its fields in order
        ("async", ((0, "a", "c", 0), (5, "a", "a", 0)), "unknown symbol 'c'"),
        ("async", ((0, "c", "a", 5),),
         "transition target 5 out of range for 2 states"),
        ("sync", ((0, "a", EPSILON, 0),),
         "sync automaton may not have epsilon labels"),
        ("sync", ((0, PAD, "c", 0),), "unknown symbol 'c'"),
        ("x", (), "unknown mode 'x'"),
    ])
    def test_error_names_the_first_bad_field(self, mode, transitions,
                                             message):
        with pytest.raises(InputError) as exc:
            TwoTapeAutomaton(2, AB, AB, 0, frozenset(), transitions,
                             mode=mode)
        assert str(exc.value) == message

    def test_transitions_kept(self):
        # records are kept as they are when every transition is one; a mix
        # is converted whole, a record to an equal record
        t = Transition(0, "a", EPSILON, 0)
        aut = TwoTapeAutomaton(1, AB, AB, 0, frozenset(), (t,))
        assert aut.transitions[0] is t
        aut = TwoTapeAutomaton(1, AB, AB, 0, frozenset(), (t, (0, "b", "b", 0)))
        assert aut.transitions == (t, Transition(0, "b", "b", 0))
        assert list(map(type, aut.transitions)) == [Transition] * 2
        t = NfaTransition(0, "a", 0)
        nfa = OneTapeAutomaton(1, AB, 0, frozenset(), (t,))
        assert nfa.transitions[0] is t
        nfa = OneTapeAutomaton(1, AB, 0, frozenset(), (t, (0, EPSILON, 0)))
        assert nfa.transitions == (t, NfaTransition(0, EPSILON, 0))
        assert list(map(type, nfa.transitions)) == [NfaTransition] * 2


    @pytest.mark.parametrize("cls, transitions, message", [
        (TwoTapeAutomaton, ((0, "a", "a"),),
         "transition (0, 'a', 'a') needs 4 fields"),
        (TwoTapeAutomaton, ((0, "a", "a", 0), (0, "a", "a", 0, 1)),
         "transition (0, 'a', 'a', 0, 1) needs 4 fields"),
        (TwoTapeAutomaton, (7,), "transition 7 needs 4 fields"),
        (OneTapeAutomaton, ((0, "a"),), "transition (0, 'a') needs 3 fields"),
        (OneTapeAutomaton, (Transition(0, "a", "a", 0),),
         "transition Transition(src=0, left='a', right='a', dst=0) "
         "needs 3 fields"),
    ])
    def test_wrong_field_count_is_named(self, cls, transitions, message):
        tapes = (AB, AB) if cls is TwoTapeAutomaton else (AB,)
        with pytest.raises(InputError) as exc:
            cls(2, *tapes, 0, frozenset(), transitions)
        assert str(exc.value) == message

    def test_state_count_must_be_an_int(self):
        with pytest.raises(InputError) as exc:
            TwoTapeAutomaton(2.0, AB, AB, 0, frozenset(), ())
        assert str(exc.value) == "state count 2.0 is not an integer"
        with pytest.raises(InputError) as exc:
            OneTapeAutomaton(2.0, AB, 0, frozenset(), ((0, "a", 1),))
        assert str(exc.value) == "state count 2.0 is not an integer"


@st.composite
def faulty_transitions(draw):
    """(mode, n_states, tapes, transitions): the transitions of an async,
    sync or one-tape automaton (mode None) from the strategies, with 0-2
    fields replaced by a fault, each transition passed as a record or as a
    plain tuple. A state fault is negative, a float, out of range or
    unhashable; a label fault is unknown, unhashable, a pad or epsilon
    (a fault in an async automaton, in a sync one respectively; in a sync
    one a pad may break the padding discipline)."""
    aut = draw(st.one_of(two_tape_automata(), sync_automata(),
                         one_tape_automata()))
    if isinstance(aut, OneTapeAutomaton):
        mode, tapes = None, (aut.alphabet,)
    else:
        mode, tapes = aut.mode, (aut.left, aut.right)
    trans = [list(t) for t in aut.transitions]
    for _ in range(draw(st.integers(0, 2)) if trans else 0):
        i = draw(st.integers(0, len(trans) - 1))
        t, q = trans[i], aut.transitions[i]
        field = draw(st.integers(0, len(t) - 1))
        if field in (0, len(t) - 1):
            faults = (-1, float(q[field]), aut.n_states, [q[field]])
        else:
            faults = ("c", ["a"], PAD, EPSILON)
        t[field] = draw(st.sampled_from(faults))
    record = type(aut.transitions[0]) if trans else tuple
    as_record = draw(st.lists(st.booleans(), min_size=len(trans),
                              max_size=len(trans)))
    return mode, aut.n_states, tapes, tuple(
        record(*t) if keep else tuple(t) for t, keep in zip(trans, as_record))


@settings(max_examples=300, deadline=None)
@given(faulty_transitions())
def test_bulk_check_matches_the_per_item_check(case):
    mode, n, tapes, transitions = case
    try:
        expected = transitions_by_items(n, tapes, transitions, mode)
    except InputError as exc:
        expected = str(exc)
    try:
        if mode is None:
            aut = OneTapeAutomaton(n, *tapes, 0, frozenset(), transitions)
        else:
            aut = TwoTapeAutomaton(n, *tapes, 0, frozenset(), transitions,
                                   mode=mode)
    except InputError as exc:
        assert str(exc) == expected
    else:
        assert aut.transitions == expected
        assert list(map(type, aut.transitions)) == list(map(type, expected))


class TestAcceptance:
    def test_fig1_equality(self):
        aut = builtin("fig1")
        assert aut.accepts(w("ab"), w("ab"))
        assert not aut.accepts(w("a"), w("b"))
        assert not aut.accepts((), ())

    @pytest.mark.parametrize("query, message", [
        (lambda a: a.accepts(w("acd"), w("a")),
         "symbol 'c' not in left alphabet"),
        (lambda a: a.accepts(w("ab"), ("a", ["b"], "c")),
         "symbol ['b'] not in right alphabet"),
        (lambda a: a.accepts(w("ac"), w("ad")),
         "symbol 'c' not in left alphabet"),
        # None marks the end of a word in the run search: in a query word
        # it is a symbol outside the alphabet, never the end of the word
        (lambda a: a.accepts(("a", None, "b"), w("a")),
         "symbol None not in left alphabet"),
        (lambda a: a.accepts(w("ab"), ("a", None)),
         "symbol None not in right alphabet"),
        (lambda a: a.accepts(("b", ["a"]), ("c",)),
         "symbol ['a'] not in left alphabet"),
        (lambda a: accepts_one_tape(
            OneTapeAutomaton(1, AB, 0, frozenset(), ()), w("bbz")),
         "symbol 'z' not in alphabet"),
        (lambda a: accepts_one_tape(
            OneTapeAutomaton(1, AB, 0, frozenset(), ()), ("a", None)),
         "symbol None not in alphabet"),
        (lambda a: as_word("a b c", AB, tokens=True),
         "symbol 'c' not in alphabet"),
    ])
    def test_query_names_its_first_bad_symbol(self, query, message):
        with pytest.raises(InputError) as exc:
            query(builtin("fig3"))
        assert str(exc.value) == message

    def test_fig2_paper_pairs(self):
        aut = builtin("fig2")
        assert aut.accepts(w("abba"), w("aba"))
        assert aut.accepts(w("abbba"), w("aba"))
        assert not aut.accepts(w("ab"), w("ba"))

    def test_fig3_paper_pairs(self):
        aut = builtin("fig3")
        assert aut.accepts(w("baaa"), w("b"))
        assert aut.accepts(w("ba"), w("b"))
        assert not aut.accepts(w("a"), w("b"))

    def test_rejects_unknown_symbols(self):
        with pytest.raises(InputError):
            builtin("fig1").accepts(w("c"), w("c"))


class TestSilentElimination:
    def build_with_silent(self):
        # 0 --(eps,eps)--> 1 --(a,a)--> 2(final)
        return TwoTapeAutomaton(
            3, AB, AB, 0, frozenset({2}),
            ((0, EPSILON, EPSILON, 1), (1, "a", "a", 2)))

    def test_preserves_language(self):
        aut = self.build_with_silent()
        out = eliminate_silent_steps(aut)
        assert not any(
            t.left is EPSILON and t.right is EPSILON for t in out.transitions)
        for v, u in all_pairs(AB, 3):
            assert aut.accepts(v, u) == out.accepts(v, u)

    def test_finals_extended_through_silent_paths(self):
        aut = TwoTapeAutomaton(
            2, AB, AB, 0, frozenset({1}), ((0, EPSILON, EPSILON, 1),))
        out = eliminate_silent_steps(aut)
        assert 0 in out.finals
        assert out.accepts((), ())

    def test_noop_without_silent_steps(self):
        aut = builtin("fig3")
        assert eliminate_silent_steps(aut) is aut


class TestTrim:
    def test_drops_useless_states(self):
        aut = TwoTapeAutomaton(
            4, AB, AB, 0, frozenset({1}),
            ((0, "a", "a", 1), (0, "b", "b", 2), (3, "a", "a", 1)))
        out = trim(aut)
        assert out.n_states == 2
        for v, u in all_pairs(AB, 3):
            assert aut.accepts(v, u) == out.accepts(v, u)

    def test_empty_language(self):
        aut = TwoTapeAutomaton(2, AB, AB, 0, frozenset(), ((0, "a", "a", 1),))
        out = trim(aut)
        assert out.n_states == 1
        assert not out.finals
        # the empty language's one-state form is already trim
        assert trim(out) is out


class TestDeterminize:
    def test_preserves_language(self):
        nfa = OneTapeAutomaton(
            3, AB, 0, frozenset({2}),
            ((0, EPSILON, 1), (0, "a", 2), (1, "a", 1), (1, "b", 2)))
        dfa = determinize(nfa)
        seen = set()
        for t in dfa.transitions:
            assert t.label is not EPSILON
            assert (t.src, t.label) not in seen
            seen.add((t.src, t.label))
        for v in [()] + list(AB.words(4)):
            assert accepts_one_tape(nfa, v) == accepts_one_tape(dfa, v)


class TestSwapAndUnion:
    def test_swap_is_involution_on_membership(self):
        aut = builtin("fig3")
        swapped = swap_tapes(aut)
        for v, u in all_pairs(AB, 3):
            assert aut.accepts(v, u) == swapped.accepts(u, v)

    def test_union_membership(self):
        f1 = builtin("fig1")
        f3 = builtin("fig3")
        both = union(f1, f3)
        for v, u in all_pairs(AB, 3):
            assert both.accepts(v, u) == (f1.accepts(v, u) or f3.accepts(v, u))

    def test_union_needs_identical_alphabets(self):
        a_only = TwoTapeAutomaton(1, AB, Alphabet(("a",)), 0, frozenset(), ())
        with pytest.raises(InputError) as exc:
            union(builtin("fig3"), a_only)
        assert str(exc.value) == (
            "union requires identical alphabets on every tape")


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.tuples(*[st.one_of(two_tape_automata(), sync_automata())] * 2),
    st.tuples(one_tape_automata(), one_tape_automata())))
def test_union_of_two_is_the_reference(parts):
    assert dumps_fsa(union(*parts)) == dumps_fsa(union_of_two(*parts))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(two_tape_automata(), sync_automata()),
                min_size=3, max_size=3))
def test_union_of_three_accepts_what_its_parts_do(parts):
    assert accepted_pairs(union(*parts), 3) == set().union(
        *(accepted_pairs(p, 3) for p in parts))


class TestSync:
    def sync_equality(self):
        # sync version of fig1 with explicit padding states
        return TwoTapeAutomaton(
            4, AB, AB, 0, frozenset({1}),
            tuple((0, x, x, 1) for x in "ab")
            + tuple((1, x, x, 1) for x in "ab"),
            mode="sync")

    def test_validate_sync_accepts_disciplined(self):
        validate_sync(self.sync_equality())

    def test_validate_sync_rejects_double_pad(self):
        with pytest.raises(InputError):
            validate_sync(TwoTapeAutomaton(
                1, AB, AB, 0, frozenset({0}), ((0, PAD, PAD, 0),),
                mode="sync"))

    def test_validate_sync_rejects_symbol_after_pad(self):
        with pytest.raises(InputError):
            validate_sync(TwoTapeAutomaton(
                2, AB, AB, 0, frozenset({1}),
                ((0, PAD, "a", 1), (1, "a", "a", 1)), mode="sync"))

    def test_construction_refuses_sync_that_breaks_padding(self):
        # no sync automaton that breaks the padding discipline is built, so
        # no query reads one: a symbol after a pad is refused by the
        # constructor, and by loads_fsa, which builds one from text
        with pytest.raises(InputError, match="after padding"):
            TwoTapeAutomaton(
                2, AB, AB, 0, frozenset({1}),
                ((0, PAD, "a", 1), (1, "a", "a", 1)), mode="sync")
        with pytest.raises(InputError, match="after padding"):
            loads_fsa("type: sync\nleft: a b\nright: a b\nstates: 2\n"
                      "initial: 0\nfinal: 1\ntrans: 0 # a 1\n"
                      "trans: 1 a a 1\n")

    @pytest.mark.parametrize("use", [validate_sync, sync_to_async])
    def test_async_automaton_is_not_sync(self, use):
        with pytest.raises(InputError) as exc:
            use(builtin("fig3"))
        assert str(exc.value) == "not a sync automaton"

    def test_sync_to_async_preserves_pairs(self):
        # accepts (v, w) with w a nonempty prefix of v: equal symbols in
        # state 1, right-tape padding in state 2
        sync = TwoTapeAutomaton(
            3, AB, AB, 0, frozenset({1, 2}),
            tuple((q, x, x, 1) for q in (0, 1) for x in "ab")
            + tuple((q, x, PAD, 2) for q in (1, 2) for x in "ab"),
            mode="sync")
        as_async = sync_to_async(sync)
        for v, u in all_pairs(AB, 3):
            assert sync.accepts(v, u) == as_async.accepts(v, u)


class TestEnumeration:
    def test_enumerate_accepted_fig1(self):
        pairs = enumerate_accepted(builtin("fig1"), 3)
        assert pairs == {(v, v) for v in AB.words(3)}

    def test_enumerate_language(self):
        aut = OneTapeAutomaton(
            2, AB, 0, frozenset({1}), ((0, "a", 1), (1, "b", 1)))
        assert enumerate_language(aut, 3) == {
            w("a"), w("ab"), w("abb")}

    def test_enumerate_language_negative_bound(self, time_limit):
        # must raise at once: a search that stops at words of length
        # bound never stops when the bound is negative
        a_plus = OneTapeAutomaton(
            2, AB, 0, frozenset({1}),
            tuple((q, s, 1) for q in (0, 1) for s in AB))
        with pytest.raises(InputError, match="bound must be >= 0"):
            enumerate_language(a_plus, -1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from("ab"), max_size=5),
       st.lists(st.sampled_from("ab"), max_size=5))
def test_fig1_accepts_iff_equal(left, right):
    aut = builtin("fig1")
    expected = left == right and len(left) > 0
    assert aut.accepts(tuple(left), tuple(right)) == expected


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from("ab"), min_size=1, max_size=6))
def test_fig3_class_of_word_contains_it(word):
    # reflexivity of the decided congruence
    aut = builtin("fig3")
    assert aut.accepts(tuple(word), tuple(word))


@settings(max_examples=60, deadline=None)
@given(two_tape_automata())
def test_accepts_agrees_with_enumerate_accepted(aut):
    accepted = enumerate_accepted(aut, 3)
    assert accepted == accepted_pairs(aut, 3)
    for v, u in all_pairs(AB, 3):
        assert aut.accepts(v, u) == ((v, u) in accepted)


A1 = Alphabet(("a",))
XYZ = Alphabet(("x", "y", "z"))
# one-symbol tapes: a step that reads multiplies a code by 1, as one that
# does not; only its digit tells them apart
ONE_SYMBOL = TwoTapeAutomaton(
    2, A1, A1, 0, frozenset({1}),
    ((0, "a", EPSILON, 0), (0, EPSILON, "a", 1), (1, "a", "a", 1)))
# tapes of 2 and 3 symbols, with steps that read both
UNEQUAL_TAPES = TwoTapeAutomaton(
    2, AB, XYZ, 0, frozenset({0, 1}),
    ((0, "a", "x", 0), (0, "b", "z", 1), (1, "a", EPSILON, 1),
     (1, EPSILON, "y", 0), (1, "b", "y", 0)))
# sync: w a nonempty prefix of v, the right tape padded in state 2
PADS_RIGHT = TwoTapeAutomaton(
    3, AB, AB, 0, frozenset({1, 2}),
    tuple((q, x, x, 1) for q in (0, 1) for x in "ab")
    + tuple((q, x, PAD, 2) for q in (1, 2) for x in "ab"),
    mode="sync")


@settings(max_examples=300, deadline=None)
@given(st.one_of(two_tape_automata_any_alphabets(),
                 # final states behind a chain: the distance prune fires
                 behind_chains(two_tape_automata_any_alphabets()),
                 behind_chains(sync_automata())),
       st.integers(0, 4))
@example(ONE_SYMBOL, 4)
@example(swap_tapes(ONE_SYMBOL), 3)
@example(UNEQUAL_TAPES, 4)
@example(swap_tapes(UNEQUAL_TAPES), 4)
@example(UNEQUAL_TAPES, 0)
@example(ONE_SYMBOL, 0)
@example(PADS_RIGHT, 4)
@example(swap_tapes(PADS_RIGHT), 3)
def test_enumerate_accepted_matches_reference(aut, bound):
    # over one symbol a word's code is its length; over two or three
    # symbols codes interleave the symbols, on each tape separately
    assert enumerate_accepted(aut, bound) == accepted_pairs(aut, bound)


@settings(max_examples=60, deadline=None)
@given(st.one_of(two_tape_automata(), sync_automata()))
def test_accepts_same_before_and_after_caching(aut):
    # accepts() keeps the step tables of the form it walks after its first
    # call: on a sync automaton itself, on an async one's silent-free form;
    # the automaton keeps the record the search reads, which shares the
    # form's table; a fresh copy has none
    for table in ("_code_steps", "_read_steps", "_silent_free_form",
                  "_acceptor"):
        assert table not in vars(aut)
    pairs = all_pairs(AB, 2)
    cold = [replace(aut).accepts(v, u) for v, u in pairs]
    first = [aut.accepts(v, u) for v, u in pairs]
    form = _search_form(aut)
    assert "_code_steps" in vars(form) and "_read_steps" in vars(form)
    assert "_read_steps" not in vars(replace(form))
    assert "_acceptor" not in vars(replace(aut))
    assert aut._acceptor[0] is form._read_steps
    assert aut._acceptor[1:] == (form.initial, form.finals)
    again = [aut.accepts(v, u) for v, u in pairs]
    assert cold == first == again
    # a row is keyed by the next two symbols (x, y), None past the end of
    # a word; a step that reads nothing on a tape fits every key there,
    # so a row holds each step at most k + 1 times
    left, right = (None, *form.left), (None, *form.right)
    k = max(len(form.left), len(form.right))
    for steps, row in zip(form._code_steps, form._read_steps):
        assert all(x in left and y in right for x, y in row)
        assert len(row) <= sum(map(len, row.values())) <= len(steps) * (k + 1)
        for (x, y), fit in row.items():
            assert fit == tuple(
                (dl > 0, dr > 0, dst) for _, dl, _, dr, dst in steps
                if (not dl or left[dl] == x) and (not dr or right[dr] == y))


def _tape_words(data, alphabet):
    """A word of at most 4 symbols over the alphabet and 'c', a symbol in
    no alphabet of the automata drawn here."""
    return tuple(data.draw(st.lists(
        st.sampled_from(alphabet.symbols + ("c",)), max_size=4)))


@settings(max_examples=100, deadline=None)
@given(st.one_of(two_tape_automata(), two_tape_automata_any_alphabets(),
                 sync_automata(),
                 one_tape_automata().map(lambda a: a.relation_view)),
       st.data())
def test_run_search_is_the_per_step_search(aut, data):
    # _accepting_run takes the steps of _read_steps keyed by a node's next
    # two symbols; the reference tests the digits of every step of the
    # node's state. Both push the same children in the same order, so the
    # runs are identical. 'c' keys no step, as pump_decompose passes it.
    # accepts() runs the same search, stopping at the goal node: a pair is
    # accepted iff it has a run, and a word with 'c' raises the InputError
    # that names it, the left tape first
    form = _search_form(aut)
    accepted = sorted(enumerate_accepted(form, 4))
    pairs = [(_tape_words(data, form.left), _tape_words(data, form.right))
             for _ in range(6)]
    if accepted:  # pairs that have a run, which most drawn pairs lack
        pairs += [data.draw(st.sampled_from(accepted)) for _ in range(6)]
    for v, u in pairs:
        run = _accepting_run(form, (*v, None), (*u, None))
        assert run == accepting_run_per_step(form, v, u)
        tape = "left " if "c" in v else "right " if "c" in u else None
        if tape is None:
            assert aut.accepts(v, u) == (run is not None)
            continue
        with pytest.raises(InputError) as raised:
            aut.accepts(v, u)
        assert str(raised.value) == f"symbol 'c' not in {tape}alphabet"


def test_sync_enumeration_checks_padding_once(monkeypatch):
    # enumerate_accepted walks a sync automaton itself, a pad reading
    # nothing: its padding is checked when it is built, not by a call,
    # and no async view is built and no silent steps are eliminated
    padding, eliminated = [], []
    check = ratwp.automata._check_padding
    eliminate = ratwp.automata.eliminate_silent_steps
    monkeypatch.setattr(ratwp.automata, "_check_padding",
                        lambda a: padding.append(a) or check(a))
    monkeypatch.setattr(ratwp.automata, "eliminate_silent_steps",
                        lambda a: eliminated.append(a) or eliminate(a))
    aut = TestSync().sync_equality()
    first = enumerate_accepted(aut, 3)
    assert enumerate_accepted(aut, 3) == first == accepted_pairs(aut, 3)
    assert len(padding) == 1 and eliminated == []


def test_sync_queries_build_no_async_view(monkeypatch, c2_table):
    # accepts() and the pumping form read a sync automaton as it is, a pad
    # reading nothing: no async view is built, and the padding is checked
    # once per automaton built, by no query
    padding, converted = [], []
    check = ratwp.automata._check_padding
    convert = ratwp.automata.sync_to_async
    monkeypatch.setattr(ratwp.automata, "_check_padding",
                        lambda a: padding.append(a) or check(a))
    monkeypatch.setattr(ratwp.automata, "sync_to_async",
                        lambda a: converted.append(a) or convert(a))
    aut = TestSync().sync_equality()
    assert padding == [aut]
    assert aut.accepts(w("ab"), w("ab")) and not aut.accepts(w("ab"), w("b"))
    assert padding == [aut]
    # the pumping form is the trimmed form, a sync automaton too; states 2
    # and 3 lie on no initial-to-final path, so pump_decompose builds the
    # trimmed form as a new automaton, whose padding is checked then
    dec = pump_decompose(aut, (w("abbab"), w("abbab")))
    assert dec.loop == (w("b"), w("b"))
    assert pump_check(aut, dec).verdict == "pass"
    assert enumerate_accepted(aut, 2) == accepted_pairs(aut, 2)
    assert padding == [aut, aut.trimmed] and aut.trimmed is not aut
    assert converted == []
    # pump_refute walks the trimmed form kept on the automaton
    oracle = build_oracle(builtin_presentation("fig1"), 4)
    assert pump_refute(aut, oracle, 4).verdict == "not-refuted"
    assert padding == [aut, aut.trimmed] and converted == []
    # C2's Cayley automaton is built trim, so its pumping form is the
    # automaton itself and its padding is checked once, when it is built
    padding.clear()
    aut = cayley_wp_sync(c2_table, ("g",))
    oracle = table_oracle(c2_table, ("g",), bound=6)
    assert pump_refute(aut, oracle, 6).verdict == "not-refuted"
    assert padding == [aut] and converted == []


def test_async_view_is_for_sync_automata_only():
    # an async automaton is its own view
    aut = builtin("fig3")
    assert _as_async(aut) is aut


def test_enumeration_leaves_no_reference_cycle():
    # an automaton kept on itself, as its own silent-free form, would
    # outlive its last user until the cyclic collector runs
    # as would an automaton that kept the record accepts() reads on
    # itself, or one that kept its relation view's
    cases = [(partial(OneTapeAutomaton, 2, AB, 0, frozenset({1}), trans),
              lambda a: a.accepts(("a", "b")))
             for trans in (((0, "a", 1), (1, "b", 1)),
                           ((0, "a", 1), (1, None, 0)))]
    for make, pair in ((lambda: builtin("fig3"), (w("baaaaaa"), w("b"))),
                       (TestSync().sync_equality, (w("abbab"), w("abbab")))):
        cases += [(make, use) for use in (
            lambda a: enumerate_accepted(a, 3),
            lambda a: a.accepts(("a", "b"), ("a", "b")),
            pumping_constant,
            lambda a, pair=pair: pump_decompose(a, pair))]
    gc.disable()
    try:
        for make, use in cases:
            aut = make()
            alive = weakref.ref(aut)
            use(aut)
            del aut
            assert alive() is None
    finally:
        gc.enable()


def test_silent_free_form_computed_once(monkeypatch):
    # enumerate_accepted reads the silent-free form kept on an async
    # automaton, so a second call on the same automaton eliminates no
    # silent steps
    calls = []
    eliminate = ratwp.automata.eliminate_silent_steps
    monkeypatch.setattr(ratwp.automata, "eliminate_silent_steps",
                        lambda a: calls.append(a) or eliminate(a))
    fig3 = builtin("fig3")
    for aut in (union(fig3, fig3), fig3):
        calls.clear()
        first = enumerate_accepted(aut, 3)
        assert len(calls) == 1
        assert enumerate_accepted(aut, 3) == first
        assert len(calls) == 1


def _count_builds(monkeypatch, name):
    """The automata whose derived value `name` is built, in build order,
    as a list that grows while the patch holds."""
    built = []
    build = getattr(TwoTapeAutomaton, name).func
    counted = cached_property(lambda a: built.append(a) or build(a))
    counted.__set_name__(TwoTapeAutomaton, name)
    monkeypatch.setattr(TwoTapeAutomaton, name, counted)
    return built


def test_pump_form_trimmed_once(monkeypatch):
    # the pumping form is the trimmed silent-free form, kept on the
    # silent-free form: union(fig3, fig3)'s has 5 states, 3 of them
    # useful, so its trimmed form is a new automaton, and it and its step
    # tables are built on the first call only
    trims = []
    trim_ = ratwp.automata.trim
    monkeypatch.setattr(ratwp.automata, "trim",
                        lambda a: trims.append(a) or trim_(a))
    tables, read_tables = (_count_builds(monkeypatch, name)
                           for name in ("_code_steps", "_read_steps"))
    fig3 = builtin("fig3")
    aut = union(fig3, fig3)
    pair = (w("baaaaaa"), w("b"))
    first = pump_decompose(aut, pair)
    for _ in range(3):
        assert pump_decompose(aut, pair) == first
        assert pumping_constant(aut) == 6
    assert len(trims) == 1 and len(tables) == 1 and len(read_tables) == 1
    assert tables[0].n_states == 3 and tables[0] is aut.silent_free.trimmed
    assert read_tables[0] is tables[0]
    # a form that is already trim is its own trimmed form, kept as None
    assert fig3.trimmed is fig3 and vars(fig3)["_trimmed_form"] is None


def test_read_table_built_once_per_form(monkeypatch):
    # accepts() builds _read_steps on the form it walks, and the record it
    # reads (_acceptor) on the automaton, on the first call only; a
    # one-tape automaton keeps both on its relation view and its form
    built, records = (_count_builds(monkeypatch, name)
                      for name in ("_read_steps", "_acceptor"))
    fig3 = builtin("fig3")
    nfa = OneTapeAutomaton(2, AB, 0, frozenset({1}),
                           ((0, "a", 1), (1, None, 0)))
    for aut in (union(fig3, fig3), fig3, TestSync().sync_equality(), nfa):
        built.clear()
        records.clear()
        for v, u in all_pairs(AB, 2):
            if isinstance(aut, OneTapeAutomaton):
                aut.accepts(v)
            else:
                aut.accepts(v, u)
        view = getattr(aut, "relation_view", aut)
        form = _search_form(view)
        assert built == [form] and records == [view]
        assert view._acceptor[0] is form._read_steps


def test_step_table_computed_once():
    # only the code limit of _pair_coding depends on the bound; its step
    # table is kept on the form it walks, so later calls reuse it
    fig3 = builtin("fig3")
    for aut in (union(fig3, fig3), fig3, TestSync().sync_equality()):
        form, _, steps, _ = _pair_coding(aut, 3)
        assert "_code_steps" in vars(form)
        for bound in (3, 0, 5):
            again, _, same_steps, _ = _pair_coding(aut, bound)
            assert again is form and same_steps is steps
        assert enumerate_accepted(aut, 3) == accepted_pairs(aut, 3)


def test_reads_to_final():
    # fig2: states 1, 2 and 4 are final; 0 and 3 reach state 1 by (a, a)
    assert builtin("fig2")._reads_to_final == (
        [1, 0, 0, 1, 0], [1, 0, 0, 1, 0], [2, 0, 0, 2, 0])
    # state 0 reaches the final state 1 by (a, eps) or by (eps, b)(eps, b),
    # each measure on its own best path; state 2 reaches no final state
    aut = TwoTapeAutomaton(4, AB, AB, 0, frozenset({1}), (
        (0, "a", EPSILON, 1), (0, EPSILON, "b", 3), (3, EPSILON, "b", 1),
        (0, "a", "a", 2), (2, "b", "b", 2)))
    assert aut._reads_to_final == (
        [0, 0, None, 0], [0, 0, None, 1], [1, 0, None, 1])
    # a pad reads nothing
    sync = TwoTapeAutomaton(3, AB, AB, 0, frozenset({2}), (
        (0, "a", "b", 1), (1, "a", PAD, 2)), mode="sync")
    assert sync._reads_to_final == ([2, 1, 0], [1, 0, 0], [3, 1, 0])


def test_padding_checked_once(monkeypatch, tmp_path):
    # a sync automaton's padding is checked once, when it is built:
    # load_fsa builds one, and enumerate_accepted, which walks the
    # automaton itself, and validate_sync do not check it again
    path = tmp_path / "sync.fsa"
    path.write_text(dumps_fsa(TestSync().sync_equality()))
    calls = []
    check = ratwp.automata._check_padding
    monkeypatch.setattr(ratwp.automata, "_check_padding",
                        lambda a: calls.append(a) or check(a))
    aut = load_fsa(path)
    assert calls == [aut]
    enumerate_accepted(aut, 3)
    validate_sync(aut)
    assert calls == [aut]
    # a failed construction keeps nothing: each one checks and raises
    for _ in range(2):
        with pytest.raises(InputError, match="padded on both tapes"):
            TwoTapeAutomaton(1, AB, AB, 0, frozenset(), ((0, PAD, PAD, 0),),
                             mode="sync")
    assert len(calls) == 3


@settings(max_examples=300, deadline=None)
@given(st.one_of(any_sync_automata(), sync_automata().map(sync_fields),
                 behind_chains(sync_automata()).map(sync_fields)))
def test_padding_check_agrees_with_search(fields):
    # the constructor's check, decided on state sets, raises what the node
    # search finds first, and passes where it finds nothing
    n, initial, finals, transitions = fields
    try:
        TwoTapeAutomaton(n, AB, AB, initial, finals, transitions, mode="sync")
        message = None
    except InputError as exc:
        message = str(exc)
    assert message == padding_fault_by_search(initial, transitions)


@settings(max_examples=60, deadline=None)
@given(two_tape_automata())
def test_trim_and_silent_elimination_keep_accepted_set(aut):
    expected = accepted_pairs(aut, 3)
    silent_free = eliminate_silent_steps(aut)
    assert not any(t.left is EPSILON and t.right is EPSILON
                   for t in silent_free.transitions)
    assert accepted_pairs(silent_free, 3) == expected
    assert accepted_pairs(trim(aut), 3) == expected


@settings(max_examples=200, deadline=None)
@given(st.one_of(two_tape_automata(), sync_automata(),
                 behind_chains(two_tape_automata()),
                 behind_chains(sync_automata()), one_tape_automata()))
@example(TwoTapeAutomaton(1, AB, AB, 0, frozenset(), ()))
@example(OneTapeAutomaton(2, AB, 0, frozenset({1}), ((1, "a", 1),)))
def test_trim_matches_reference(aut):
    out = trim(aut)
    assert out == trim_by_fixpoint(aut)
    # the automaton itself when trim would change nothing: when every
    # state is useful, or when it is the empty language's one-state form
    every_useful = len(useful_states(aut)) == aut.n_states
    empty_form = aut.n_states == 1 and not aut.transitions and not aut.finals
    assert (out is aut) == (every_useful or empty_form)
    assert trim(out) is out


@settings(max_examples=60, deadline=None)
@given(sync_automata())
def test_sync_to_async_keeps_accepted_set(aut):
    validate_sync(aut)
    expected = {(v, u) for v, u in all_pairs(AB, 3) if aut.accepts(v, u)}
    assert accepted_pairs(sync_to_async(aut), 3) == expected


@settings(max_examples=60, deadline=None)
@given(one_tape_automata())
def test_one_tape_trim_and_determinize_keep_language(aut):
    expected = {v for v in [()] + list(AB.words(4))
                if accepts_one_tape(aut, v)}
    assert enumerate_language(aut, 4) == expected
    assert enumerate_language(trim(aut), 4) == expected
    dfa = determinize(aut)
    assert all_reachable(dfa)
    assert enumerate_language(dfa, 4) == expected
