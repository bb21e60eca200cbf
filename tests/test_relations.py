import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratwp import (
    EPSILON,
    Alphabet,
    InputError,
    NfaTransition,
    OneTapeAutomaton,
    builtin,
    compose,
    cross_product,
    dumps_fsa,
    enumerate_accepted,
    fix_tape,
    free_wp,
    intersect_rectangle,
    substitution_relation,
    swap_tapes,
)
from random_automata import (
    all_reachable,
    compose_with_silent_loops,
    fix_tape_by_line,
    one_tape_automata,
    sync_automata,
    two_tape_automata,
)

AB = Alphabet(("a", "b"))
A = Alphabet(("a",))


def all_pairs(alphabet, bound):
    words = [()] + list(alphabet.words(bound))
    return [(v, u) for v in words for u in words]


def word_automaton(alphabet, word):
    """Line automaton of a single word."""
    trans = tuple(
        NfaTransition(i, sym, i + 1) for i, sym in enumerate(word))
    return OneTapeAutomaton(
        len(word) + 1, alphabet, 0, frozenset({len(word)}), trans)


def sigma_star(alphabet):
    return OneTapeAutomaton(
        1, alphabet, 0, frozenset({0}),
        tuple(NfaTransition(0, s, 0) for s in alphabet))


def sigma_plus(alphabet):
    return OneTapeAutomaton(
        2, alphabet, 0, frozenset({1}),
        tuple(NfaTransition(q, s, 1) for q in (0, 1) for s in alphabet))


class TestCompose:
    def test_identity_law(self):
        ident = free_wp(AB, kind="monoid")
        r = builtin("fig3")
        left = compose(ident, r)
        for v, u in all_pairs(AB, 4):
            assert left.accepts(v, u) == r.accepts(v, u)

    def test_associativity(self):
        r = builtin("fig1")
        s = builtin("fig3")
        t = swap_tapes(builtin("fig3"))
        one = compose(compose(r, s), t)
        two = compose(r, compose(s, t))
        for v, u in all_pairs(AB, 3):
            assert one.accepts(v, u) == two.accepts(v, u)

    def test_substitution_with_reverse_gives_identity(self):
        subst = substitution_relation(A, "b", ("a", "a"))
        round_trip = compose(subst, swap_tapes(subst))
        extended = Alphabet(("a", "b"))
        for v in [()] + list(extended.words(4)):
            assert round_trip.accepts(v, v)

    def test_alphabet_mismatch(self):
        with pytest.raises(InputError):
            compose(builtin("fig1"), free_wp(A))


class TestCrossProduct:
    def test_point_times_point(self):
        point = word_automaton(AB, ())
        r = cross_product(point, point)
        assert r.accepts((), ())
        assert not r.accepts(("a",), ())

    def test_membership_is_conjunction(self):
        l1 = sigma_plus(AB)
        l2 = word_automaton(AB, ("b",))
        r = cross_product(l1, l2)
        for v, u in all_pairs(AB, 3):
            expected = l1.accepts(v) and l2.accepts(u)
            assert r.accepts(v, u) == expected

    def test_a_star_times_b_star(self):
        astar = sigma_star(A)
        bstar = OneTapeAutomaton(
            1, AB, 0, frozenset({0}), ((0, "b", 0),))
        wide_astar = OneTapeAutomaton(
            1, AB, 0, frozenset({0}), ((0, "a", 0),))
        r = cross_product(wide_astar, bstar)
        assert r.accepts(("a", "a"), ("b",))
        assert not r.accepts(("b",), ("a",))


class TestFixTape:
    def test_equality_relation_slice(self):
        lang = fix_tape(builtin("fig1"), ("a", "b"), side="left")
        assert lang.accepts(("a", "b"))
        assert not lang.accepts(("a",))

    def test_fig3_class_of_b(self):
        # class of b in <a,b | aa=a, ba=b> is b a*
        lang = fix_tape(builtin("fig3"), ("b",), side="left")
        hits = {v for v in AB.words(6) if lang.accepts(v)}
        assert hits == {("b",) + ("a",) * k for k in range(6)}

    def test_agrees_with_two_tape_acceptance(self):
        r = builtin("fig3")
        for v in list(AB.words(3)):
            lang = fix_tape(r, v, side="left")
            for u in [()] + list(AB.words(3)):
                assert lang.accepts(u) == r.accepts(v, u)

    def test_right_side(self):
        r = builtin("fig3")
        lang = fix_tape(r, ("b",), side="right")
        assert lang.accepts(("b", "a", "a"))
        assert not lang.accepts(("a",))

    def test_bad_symbol(self):
        with pytest.raises(InputError):
            fix_tape(builtin("fig1"), ("z",))


class TestIntersectRectangle:
    def test_full_rectangle_is_identity(self):
        r = builtin("fig3")
        out = intersect_rectangle(r, sigma_star(AB), sigma_star(AB))
        for v, u in all_pairs(AB, 3):
            assert out.accepts(v, u) == r.accepts(v, u)

    def test_empty_rectangle(self):
        empty = OneTapeAutomaton(1, AB, 0, frozenset(), ())
        out = intersect_rectangle(builtin("fig1"), empty, sigma_star(AB))
        assert enumerate_accepted(out, 3) == set()

    def test_restricts_both_tapes(self):
        r = builtin("fig1")
        out = intersect_rectangle(r, word_automaton(AB, ("a",)),
                                  sigma_star(AB))
        assert out.accepts(("a",), ("a",))
        assert not out.accepts(("b",), ("b",))


class TestSubstitution:
    def test_substitution_images(self):
        subst = substitution_relation(A, "b", ("a", "a"))
        assert subst.accepts(("b",), ("a", "a"))
        assert subst.accepts(("a", "b"), ("a", "a", "a"))
        assert not subst.accepts(("b",), ("a",))

    def test_substitution_validation(self):
        with pytest.raises(InputError):
            substitution_relation(A, "a", ("a",))
        with pytest.raises(InputError):
            substitution_relation(A, "b", ())


@settings(max_examples=60, deadline=None)
@given(two_tape_automata(), two_tape_automata())
def test_compose_contains_bounded_composition(r, s):
    out = compose(r, s)
    assert all_reachable(out)
    second = enumerate_accepted(s, 3)
    expected = {(u, w) for u, x in enumerate_accepted(r, 3)
                for y, w in second if x == y}
    assert expected <= enumerate_accepted(out, 3)


@settings(max_examples=60, deadline=None)
@given(two_tape_automata(), two_tape_automata())
def test_compose_drops_silent_self_loops(r, s):
    out = compose(r, s)
    assert not [t for t in out.transitions
                if t.src == t.dst and t.left is t.right is EPSILON]
    reference = compose_with_silent_loops(r, s)
    assert enumerate_accepted(out, 4) == enumerate_accepted(reference, 4)


def test_fig3_chain_has_no_silent_self_loops():
    # each fig3 o fig3 join reads (-, a) against (a, -) from state (1, 1)
    # to itself, a step that does nothing
    fig3 = builtin("fig3")
    chain = fig3
    for _ in range(5):
        chain = compose(chain, fig3)
        assert (chain.n_states, len(chain.transitions)) == (2, 5)


@settings(max_examples=60, deadline=None)
@given(two_tape_automata(),
       st.lists(st.sampled_from("ab"), max_size=2).map(tuple),
       st.sampled_from(("left", "right")))
def test_fix_tape_is_the_slice(r, v, side):
    lang = fix_tape(r, v, side=side)
    assert all_reachable(lang)
    for u in [()] + list(AB.words(3)):
        pair = (v, u) if side == "left" else (u, v)
        assert lang.accepts(u) == r.accepts(*pair)


@settings(max_examples=200, deadline=None)
@given(st.one_of(two_tape_automata(), sync_automata()),
       st.lists(st.sampled_from("ab"), max_size=3),
       st.sampled_from(("left", "right")))
def test_fix_tape_is_the_line_product(r, v, side):
    # fix_tape reads the free tape of intersect_rectangle with {v} x A*:
    # the line automaton and A*'s one state come out of determinize as they
    # went in, A*'s tracker follows every step and r's steps are walked in
    # the same order, so the text is the line product's, byte for byte
    assert (dumps_fsa(fix_tape(r, v, side))
            == dumps_fsa(fix_tape_by_line(r, v, side)))


@settings(max_examples=60, deadline=None)
@given(two_tape_automata(), one_tape_automata(), one_tape_automata())
def test_intersect_rectangle_is_the_restriction(r, l, k):
    out = intersect_rectangle(r, l, k)
    assert all_reachable(out)
    expected = {(v, u) for v, u in enumerate_accepted(r, 3)
                if l.accepts(v) and k.accepts(u)}
    assert enumerate_accepted(out, 3) == expected


@pytest.mark.parametrize("call, message", [
    (lambda: fix_tape(builtin("fig1"), ("a",), side="x"),
     "side must be 'left' or 'right', not 'x'"),
    (lambda: intersect_rectangle(builtin("fig1"), sigma_star(A),
                                 sigma_star(AB)),
     "L must be over the relation's left alphabet"),
    (lambda: intersect_rectangle(builtin("fig1"), sigma_star(AB),
                                 sigma_star(A)),
     "K must be over the relation's right alphabet"),
    (lambda: substitution_relation(A, "b", ("c",)),
     "symbol 'c' not in the alphabet"),
])
def test_bad_arguments_are_named(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message
