import hashlib

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ratwp import (
    EPSILON,
    Alphabet,
    IdealData,
    InputError,
    MultiplicationTable,
    Presentation,
    ProductGenerators,
    TwoTapeAutomaton,
    add_generator,
    adjoin_identity,
    adjoin_zero,
    build_oracle,
    builtin,
    builtin_presentation,
    cayley_wp_sync,
    compose,
    cross_section,
    dumps_fsa,
    enumerate_accepted,
    fix_tape,
    free_product,
    free_wp,
    ideal_extension,
    intersect_rectangle,
    load_ideal,
    monoid_from_semigroup_wp,
    product_with_finite,
    remove_generator,
    sync_to_async,
    table_oracle,
    trim,
    union,
    verify,
    zero_union,
)
from ratwp.automata import NfaTransition, OneTapeAutomaton, _accepted_codes
from ratwp.constructions import _kernel_blocks
from random_automata import (
    all_reachable,
    cayley_by_pairs,
    ideal_extension_all_trackers,
    ideal_extension_by_branch,
    left_zero_ideals,
    monoid_by_nested_unions,
    moore_block_count,
    moore_pair_blocks,
    oracle_from_words,
    permuted_table,
    product_by_folds,
    rectangular_band_ideals,
    sync_automata,
    table_ideals,
    transformation_tables,
    two_tape_automata,
    zero_union_by_flags,
)

A = Alphabet(("a",))
AB = Alphabet(("a", "b"))
AZ, BZ = Alphabet(("a", "z")), Alphabet(("b", "z"))
# a transposition, a 3-cycle and a map of rank 2: they generate t3_table
T3_GENS = ("102", "120", "001")


def fig3_semigroup_presentation(extra_symbols=(), extra_relations=()):
    gens = Alphabet(("a", "b") + tuple(extra_symbols))
    relations = ((("a", "a"), ("a",)), (("b", "a"), ("b",)))
    return Presentation("semigroup", gens, relations + tuple(extra_relations))


def wp_trivial_a():
    """Automaton for <a | aa = a>: all nonempty words over {a} are equal."""
    return TwoTapeAutomaton(
        2, A, A, 0, frozenset({1}),
        ((0, "a", "a", 1), (1, "a", "a", 1),
         (1, "a", None, 1), (1, None, "a", 1)))


def with_zero(table, prefix=""):
    """S^0's table: S's elements renamed prefix + name, then a zero z that
    any product with is z."""
    z = len(table)
    return MultiplicationTable(
        (*(prefix + x for x in table.elements), "z"),
        (*((*row, z) for row in table.product), (z,) * (z + 1)))


def word_for(table, gens, x):
    """A shortest word over gens whose value in the table is x."""
    index = table.generator_indices(gens, "semigroup")
    todo, word_of = [((g,), index[g]) for g in gens], {}
    for w, y in todo:
        if y not in word_of:
            word_of[y] = w
            todo += [(w + (g,), table.product[y][index[g]]) for g in gens]
    return word_of[x]


class TestCayley:
    def test_c2_against_table_oracle(self, c2_table):
        wp = cayley_wp_sync(c2_table, ("g",))
        assert wp.mode == "sync"
        oracle = table_oracle(c2_table, ("g",), bound=6)
        assert verify(wp, oracle, 6) == []

    def test_left_zero_against_table_oracle(self, left_zero_table):
        wp = cayley_wp_sync(left_zero_table, ("l", "r"))
        assert wp.mode == "sync"
        oracle = table_oracle(left_zero_table, ("l", "r"), bound=6)
        assert verify(wp, oracle, 6) == []

    def test_monoid_kind(self, c2_table):
        wp = cayley_wp_sync(c2_table, ("g",), kind="monoid")
        as_async = sync_to_async(wp)
        assert as_async.accepts((), ())
        assert as_async.accepts(("g", "g"), ())
        assert not as_async.accepts(("g",), ())

    def test_monoid_kind_needs_identity(self, left_zero_table):
        with pytest.raises(InputError):
            cayley_wp_sync(left_zero_table, ("l", "r"), kind="monoid")

    def test_empty_table(self):
        # the initial state's kernel is empty, and it is built all the same
        empty = MultiplicationTable((), ())
        wp = cayley_wp_sync(empty, ())
        assert dumps_fsa(wp) == ("type: sync\nleft: \nright: \nstates: 1\n"
                                 "initial: 0\nfinal: \n")
        with pytest.raises(InputError, match="requires a table with an "
                                             "identity"):
            cayley_wp_sync(empty, (), kind="monoid")

    def test_non_generating_set(self, c2_table):
        with pytest.raises(InputError):
            cayley_wp_sync(c2_table, ("1",))

    @pytest.mark.parametrize("name, gens, kinds", [
        ("c2_table", ("g",), ("semigroup", "monoid")),
        ("left_zero_table", ("l", "r"), ("semigroup",)),
        ("t3_table", T3_GENS, ("semigroup", "monoid")),
    ])
    def test_every_state_useful(self, request, name, gens, kinds):
        # only states on an initial-to-final path are built, so trim keeps
        # every one, and the automaton still decides the table's word
        # problem
        table = request.getfixturevalue(name)
        for kind in kinds:
            wp = cayley_wp_sync(table, gens, kind=kind)
            assert trim(wp) is wp
            oracle = table_oracle(table, gens, bound=4, kind=kind)
            assert verify(wp, oracle, 4) == []

    def test_t3_state_counts(self, t3_table):
        # the useful states of every element pair are the initial state,
        # the 729 neutral states and 333 of each padding kind, 1,396 with
        # 9,990 transitions; merging those that accept the same pairs
        # leaves 229 (in the monoid the initial state also merges with the
        # neutral state of the identity pair)
        wp = cayley_wp_sync(t3_table, T3_GENS)
        assert (wp.n_states, len(wp.transitions)) == (229, 1587)
        wp = cayley_wp_sync(t3_table, T3_GENS, kind="monoid")
        assert (wp.n_states, len(wp.transitions)) == (228, 1578)


class TestCayleyText:
    # the .fsa text of the minimal automaton, byte for byte: C2 and the
    # left-zero semigroup in full, T3 by the sha256 of its text
    C2 = ("type: sync\nleft: g\nright: g\nstates: 6\ninitial: 0\n"
          "final: 1 4 5\ntrans: 0 g g 1\ntrans: 1 g g 1\ntrans: 1 g # 2\n"
          "trans: 1 # g 3\ntrans: 2 g # 4\ntrans: 3 # g 5\n"
          "trans: 4 g # 2\ntrans: 5 # g 3\n")
    C2_MONOID = ("type: sync\nleft: g\nright: g\nstates: 5\ninitial: 0\n"
                 "final: 0 3 4\ntrans: 0 g g 0\ntrans: 0 g # 1\n"
                 "trans: 0 # g 2\ntrans: 1 g # 3\ntrans: 2 # g 4\n"
                 "trans: 3 g # 1\ntrans: 4 # g 2\n")
    LEFT_ZERO = ("type: sync\nleft: l r\nright: l r\nstates: 4\n"
                 "initial: 0\nfinal: 1 2 3\ntrans: 0 l l 1\n"
                 "trans: 0 r r 1\ntrans: 1 l l 1\ntrans: 1 l r 1\n"
                 "trans: 1 r l 1\ntrans: 1 r r 1\ntrans: 1 l # 2\n"
                 "trans: 1 r # 2\ntrans: 1 # l 3\ntrans: 1 # r 3\n"
                 "trans: 2 l # 2\ntrans: 2 r # 2\ntrans: 3 # l 3\n"
                 "trans: 3 # r 3\n")
    T3_SHA256 = {
        "semigroup":
            "74905d223dc6769079e9ca01fcec30a400fdf0c221607058e3dfb8a1940eeb9e",
        "monoid":
            "aed8b2c0a6c749d6e954d8ead223625eb60c791408ebefa7805415679cdee5cf",
    }

    def test_c2(self, c2_table):
        assert dumps_fsa(cayley_wp_sync(c2_table, ("g",))) == self.C2
        assert dumps_fsa(cayley_wp_sync(c2_table, ("g",), kind="monoid")) \
            == self.C2_MONOID

    def test_left_zero(self, left_zero_table):
        # the pairs (l, r) and (r, l) never become equal: no move enters them
        wp = cayley_wp_sync(left_zero_table, ("l", "r"))
        assert dumps_fsa(wp) == self.LEFT_ZERO

    @pytest.mark.parametrize("kind", ["semigroup", "monoid"])
    def test_t3(self, t3_table, kind):
        text = dumps_fsa(cayley_wp_sync(t3_table, T3_GENS, kind=kind))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.T3_SHA256[kind]


@settings(max_examples=30, deadline=None)
@given(transformation_tables(), st.data())
def test_cayley_is_the_minimal_reference(table_gens, data):
    # the automaton accepts the pairs of the one with a state per useful
    # element pair, is deterministic and trim, has as many states as that
    # one has classes of states accepting the same pairs, and does not
    # depend on the order of the elements
    table, gens = table_gens
    order = data.draw(st.permutations(range(len(table))))
    kinds = ["semigroup"]
    if table.identity_index() is not None:
        kinds.append("monoid")
    for kind in kinds:
        wp = cayley_wp_sync(table, gens, kind=kind)
        reference = cayley_by_pairs(table, gens, kind=kind)
        assert enumerate_accepted(wp, 4) == enumerate_accepted(reference, 4)
        moves = {(t.src, t.left, t.right) for t in wp.transitions}
        assert len(moves) == len(wp.transitions)
        assert wp.mode == "sync"
        assert trim(wp) is wp
        assert moore_block_count(reference) == wp.n_states
        permuted = cayley_wp_sync(permuted_table(table, order), gens,
                                  kind=kind)
        assert dumps_fsa(permuted) == dumps_fsa(wp)


@settings(max_examples=100, deadline=None)
@given(transformation_tables(), st.data())
def test_kernel_blocks_are_moore_blocks(table_gens, data):
    # keyed by their kernels, the pairs of S^1 fall into the blocks of
    # Moore's refinement, and the empty kernel is the sink's block
    table, _ = table_gens
    xs = data.draw(st.lists(st.sampled_from(range(len(table))), max_size=3))
    block, _, _ = _kernel_blocks(table.product, sorted(table.closure_of(xs)))
    moore, sink = moore_pair_blocks(table, xs)
    kernel = {p: block(*p) for p in moore}

    def parts(blocks):
        members = {}
        for p, b in blocks.items():
            members.setdefault(b, set()).add(p)
        return {frozenset(ps) for ps in members.values()}

    assert parts(kernel) == parts(moore)
    assert {p for p, b in kernel.items() if b == 0} == {
        p for p, b in moore.items() if b == sink}


class TestFreeWp:
    def test_semigroup_is_equality_without_empty(self):
        wp = free_wp(AB)
        assert wp.accepts(("a",), ("a",))
        assert wp.accepts(("a", "b"), ("a", "b"))
        assert not wp.accepts(("a",), ("a", "a"))
        assert not wp.accepts((), ())

    def test_monoid_includes_empty(self):
        assert free_wp(AB, kind="monoid").accepts((), ())


class TestAddRemoveGenerator:
    def test_add_generator_lemma(self):
        # over A={a}, add b represented by aa; compare to <a,b | b=aa>
        wp = add_generator(free_wp(A), "b", ("a", "a"))
        oracle = build_oracle(
            Presentation("semigroup", AB,
                         relations=(((("b"),), ("a", "a")),)), 5)
        assert verify(wp, oracle, 5) == []

    def test_remove_generator_round_trip(self):
        wp = add_generator(free_wp(A), "b", ("a", "a"))
        back = remove_generator(wp, "b")
        free = free_wp(A)
        for n in range(5):
            for m in range(5):
                v, u = ("a",) * n, ("a",) * m
                assert back.accepts(v, u) == free.accepts(v, u)

    def test_remove_unknown_symbol(self):
        with pytest.raises(InputError):
            remove_generator(free_wp(A), "z")


class TestAdjoin:
    def test_adjoin_identity(self):
        wp = adjoin_identity(builtin("fig3"), "e")
        oracle = build_oracle(fig3_semigroup_presentation(
            ("e",), (
                (("a", "e"), ("a",)), (("e", "a"), ("a",)),
                (("b", "e"), ("b",)), (("e", "b"), ("b",)),
                (("e", "e"), ("e",)))), 4)
        assert verify(wp, oracle, 4) == []

    def test_adjoin_identity_pure_identity_words(self):
        wp = adjoin_identity(builtin("fig3"), "e")
        assert wp.accepts(("e",), ("e", "e"))
        assert wp.accepts(("e", "a"), ("a", "e"))

    # adjoin_zero's text: with one ideal element every pair of trackers is
    # useful, so none is left out. fig3's in full, fig2's and C2's Cayley
    # automaton's by the sha256 of their text
    FIG3_ZERO = ("type: async\nleft: a b z\nright: a b z\nstates: 5\n"
                 "initial: 0\nfinal: 2 4\ntrans: 0 - - 1\ntrans: 0 - - 3\n"
                 "trans: 1 a a 2\ntrans: 1 b b 2\ntrans: 2 b b 2\n"
                 "trans: 2 a - 2\ntrans: 2 - a 2\ntrans: 3 a - 3\n"
                 "trans: 3 - a 3\ntrans: 3 b - 3\ntrans: 3 - b 3\n"
                 "trans: 3 z z 4\ntrans: 4 a - 4\ntrans: 4 - a 4\n"
                 "trans: 4 b - 4\ntrans: 4 - b 4\ntrans: 4 z - 4\n"
                 "trans: 4 - z 4\n")
    ZERO_SHA256 = {
        "fig2":
            "03f3e96ac4b6005569081e07f20332166bed4f8a535ced76699141d77ba48972",
        "c2":
            "6ef963ca7ccc585af6cfa0c5ed994a8397dce846efa65e7ce42fe1dc5f241b66",
    }

    def test_adjoin_zero_text(self, c2_table):
        assert dumps_fsa(adjoin_zero(builtin("fig3"), "z")) == self.FIG3_ZERO
        for name, wp in (("fig2", builtin("fig2")),
                         ("c2", cayley_wp_sync(c2_table, ("g",)))):
            text = dumps_fsa(adjoin_zero(wp, "z"))
            assert (hashlib.sha256(text.encode()).hexdigest()
                    == self.ZERO_SHA256[name])

    def test_adjoin_zero(self):
        wp = adjoin_zero(builtin("fig3"), "z")
        oracle = build_oracle(fig3_semigroup_presentation(
            ("z",), (
                (("a", "z"), ("z",)), (("z", "a"), ("z",)),
                (("b", "z"), ("z",)), (("z", "b"), ("z",)),
                (("z", "z"), ("z",)))), 4)
        assert verify(wp, oracle, 4) == []

    @settings(max_examples=100, deadline=None)
    @given(transformation_tables())
    def test_adjoin_zero_to_cayley(self, table_gens):
        table, gens = table_gens
        wp = adjoin_zero(cayley_wp_sync(table, gens), "z")
        oracle = table_oracle(with_zero(table), (*gens, "z"), 3)
        assert verify(wp, oracle, 3) == []

    @settings(max_examples=100, deadline=None)
    @given(transformation_tables())
    def test_adjoin_identity_to_cayley(self, table_gens):
        # S^1's table: S's products, and e is the identity on both sides
        table, gens = table_gens
        e = len(table)
        with_one = MultiplicationTable(
            (*table.elements, "e"),
            (*((*row, i) for i, row in enumerate(table.product)),
             tuple(range(e + 1))))
        wp = adjoin_identity(cayley_wp_sync(table, gens), "e")
        oracle = table_oracle(with_one, (*gens, "e"), 3)
        assert verify(wp, oracle, 3) == []

    def test_symbol_clash(self):
        with pytest.raises(InputError):
            adjoin_identity(builtin("fig3"), "a")


class TestIdealExtension:
    def ideal_two(self):
        # I = {u, v} left-zero, the base letter acting as identity on I
        return IdealData(
            elements=("u", "v"), base_symbols=("a",),
            left_action={("a", "u"): "u", ("a", "v"): "v"},
            right_action={("u", "a"): "u", ("v", "a"): "v"},
            internal={("u", "u"): "u", ("u", "v"): "u",
                      ("v", "u"): "v", ("v", "v"): "v"})

    def test_two_element_ideal(self):
        wp = ideal_extension(wp_trivial_a(), self.ideal_two())
        assert all_reachable(wp)
        oracle = build_oracle(
            Presentation("semigroup", Alphabet(("a", "u", "v")), relations=(
                (("a", "a"), ("a",)),
                (("a", "u"), ("u",)), (("u", "a"), ("u",)),
                (("a", "v"), ("v",)), (("v", "a"), ("v",)),
                (("u", "u"), ("u",)), (("u", "v"), ("u",)),
                (("v", "u"), ("v",)), (("v", "v"), ("v",)))), 4)
        assert verify(wp, oracle, 4) == []

    def test_alphabet_mismatch(self):
        with pytest.raises(InputError):
            ideal_extension(builtin("fig3"), self.ideal_two())

    @settings(max_examples=25, deadline=None)
    @given(two_tape_automata(), left_zero_ideals())
    def test_is_the_reference(self, wp, data):
        got, ref = ideal_extension(wp, data), ideal_extension_by_branch(wp, data)
        # pair codes, not decoded pairs: equal alphabets code pairs alike,
        # and decoding the tens of thousands of pairs costs most of the time
        assert _accepted_codes(got, 4)[0] == _accepted_codes(ref, 4)[0]
        # the S part is trim(WP_S), the reference copies S's reachable part
        assert got.n_states <= ref.n_states
        assert len(got.transitions) <= len(ref.transitions)

    @settings(max_examples=100, deadline=None)
    @given(two_tape_automata(),
           st.one_of(left_zero_ideals(max_elements=3), rectangular_band_ideals(),
                     table_ideals()))
    def test_is_the_trimmed_reference(self, wp, data):
        got = ideal_extension(wp, data)
        ref = trim(ideal_extension_all_trackers(wp, data))
        if trim(wp).finals:
            assert dumps_fsa(got) == dumps_fsa(ref)
        else:  # trim(WP_S) is one state that reaches no final one
            assert dumps_fsa(trim(got)) == dumps_fsa(ref)

    @pytest.mark.parametrize("k, size", [(3, (15, 100)), (8, (75, 935))])
    def test_left_zero_ideal_over_fig3_is_trim(self, tmp_path, k, size):
        # a acts on I from the left as the identity, b as the shift u_i ->
        # u_(i+1 mod k); u x = u for every letter x: only (u, u) is useful
        els = [f"u{i}" for i in range(k)]
        lines = ["[ideal]", "elements: " + " ".join(els), "base: a b",
                 "left: a " + " ".join(els),
                 "left: b " + " ".join(els[1:] + els[:1]),
                 "right: a " + " ".join(els), "right: b " + " ".join(els)]
        lines += [f"prod: {u} " + " ".join([u] * k) for u in els]
        path = tmp_path / "ideal.tbl"
        path.write_text("\n".join(lines) + "\n")
        wp = ideal_extension(builtin("fig3"), load_ideal(path))
        assert (wp.n_states, len(wp.transitions)) == size
        assert trim(wp) is wp


class TestFreeProduct:
    def test_fig3_with_free_factor(self):
        wp = free_product(builtin("fig3"), free_wp(Alphabet(("c",))))
        oracle = build_oracle(fig3_semigroup_presentation(("c",)), 4)
        assert verify(wp, oracle, 4) == []

    def test_disjointness_required(self):
        with pytest.raises(InputError):
            free_product(builtin("fig3"), free_wp(AB))


class TestZeroUnion:
    def factors(self):
        ts = MultiplicationTable(("a", "z"), ((0, 1), (1, 1)))
        tt = MultiplicationTable(("b", "z"), ((0, 1), (1, 1)))
        return (cayley_wp_sync(ts, ("a", "z")),
                cayley_wp_sync(tt, ("b", "z")))

    def test_against_combined_oracle(self):
        wp_s, wp_t = self.factors()
        wp = zero_union(wp_s, wp_t, "z")
        oracle = build_oracle(
            Presentation("semigroup", Alphabet(("a", "z", "b")), relations=(
                (("a", "a"), ("a",)), (("b", "b"), ("b",)),
                (("a", "z"), ("z",)), (("z", "a"), ("z",)),
                (("b", "z"), ("z",)), (("z", "b"), ("z",)),
                (("z", "z"), ("z",)),
                (("a", "b"), ("z",)), (("b", "a"), ("z",)))), 4)
        assert verify(wp, oracle, 4) == []

    def test_zero_must_be_shared(self):
        wp_s, wp_t = self.factors()
        with pytest.raises(InputError):
            zero_union(wp_s, wp_t, "a")

    @settings(max_examples=40, deadline=None)
    @given(two_tape_automata(left=AZ, right=AZ),
           two_tape_automata(left=BZ, right=BZ))
    def test_is_the_reference(self, wp_s, wp_t):
        got, ref = zero_union(wp_s, wp_t, "z"), zero_union_by_flags(wp_s, wp_t, "z")
        assert enumerate_accepted(got, 4) == enumerate_accepted(ref, 4)
        # one union of three parts in place of two nested two-part ones,
        # both in the relation and in Z, which Z x Z holds twice
        assert got.n_states == ref.n_states - 3
        assert len(got.transitions) == len(ref.transitions) - 3

    @settings(max_examples=100, deadline=None)
    @given(transformation_tables(), transformation_tables())
    def test_zero_union_of_cayley(self, s_gens, t_gens):
        # S u0 T's table lists S, z, then T: a product across S and T is z
        (s, gs), (t, gt) = s_gens, t_gens
        s0, t0 = with_zero(s, "s"), with_zero(t, "t")
        z = len(s)

        def mul(i, j):
            if i < z and j < z:
                return s.product[i][j]
            if i > z and j > z:
                return z + 1 + t.product[i - z - 1][j - z - 1]
            return z

        n = z + 1 + len(t)
        table = MultiplicationTable(
            (*s0.elements, *t0.elements[:-1]),
            tuple(tuple(mul(i, j) for j in range(n)) for i in range(n)))
        gens_s = (*("s" + g for g in gs), "z")
        gens_t = tuple("t" + g for g in gt)
        wp = zero_union(cayley_wp_sync(s0, gens_s),
                        cayley_wp_sync(t0, (*gens_t, "z")), "z")
        oracle = table_oracle(table, (*gens_s, *gens_t), 3)
        assert verify(wp, oracle, 3) == []


class TestProductWithFinite:
    def test_c2_times_fig3(self, c2_table):
        gens = ProductGenerators((("x", "g", "a"), ("y", "g", "b")))
        wp = product_with_finite(c2_table, builtin("fig3"), gens)
        assert all_reachable(wp)
        oracle = componentwise_oracle(c2_table, gens, 5)
        assert verify(wp, oracle, 5) == []

    def test_c2_times_fig3_sizes(self, c2_table):
        # three states, all over fig3's final state but the initial one:
        # the pair of adjoined identities, the equal pairs of C2 and the
        # unequal ones
        gens = ProductGenerators((("x", "g", "a"), ("y", "g", "b")))
        wp = product_with_finite(c2_table, builtin("fig3"), gens)
        assert (wp.n_states, len(wp.transitions)) == (3, 8)
        assert trim(wp) is wp

    def test_t3_times_fig3_sizes(self, t3_table):
        gens = ProductGenerators(tuple(zip("xyz", T3_GENS, "aba")))
        wp = product_with_finite(t3_table, builtin("fig3"), gens)
        assert (wp.n_states, len(wp.transitions)) == (103, 515)
        assert trim(wp) is wp

    def test_adjoined_identity_pair_is_not_final(self):
        # in {s, a, z} with aa = a and every other product z, the pair
        # (s, s) and the pair of adjoined identities accept the same pairs
        # but (-, -), which only (s, s) accepts: they must not merge
        table = MultiplicationTable(("s", "a", "z"), ((2, 2, 2), (2, 1, 2),
                                                      (2, 2, 2)))
        wp_t = TwoTapeAutomaton(1, AB, AB, 0, frozenset({0}),
                                ((0, "a", "a", 0),))
        gens = ProductGenerators((("y", "a", "a"),))
        wp = product_with_finite(table, wp_t, gens)
        assert enumerate_accepted(wp, 3) == enumerate_accepted(
            product_by_folds(table, wp_t, gens), 3)
        assert not wp.accepts((), ())

    def test_dead_pairs_are_left_out(self, left_zero_table):
        # in the left-zero semigroup the pairs (l, r) and (r, l) never fold
        # to equal ones: no state is built for them
        gens = ProductGenerators((("x", "l", "a"), ("y", "r", "a")))
        wp = product_with_finite(left_zero_table, builtin("fig3"), gens)
        assert (wp.n_states, len(wp.transitions)) == (2, 6)
        assert trim(wp) is wp
        assert enumerate_accepted(wp, 4) == enumerate_accepted(
            product_by_folds(left_zero_table, builtin("fig3"), gens), 4)

    def test_dead_through_t_is_left_out(self, c2_table):
        # T's automaton is trim, and the pair (g, 1) could still become
        # equal, but reading (x, y) takes T to its final state, which has
        # no move left to make it so: nothing is accepted, and trim leaves
        # the initial state alone
        gens = ProductGenerators((("x", "g", "a"), ("y", "1", "b")))
        wp_t = TwoTapeAutomaton(2, AB, AB, 0, frozenset({1}),
                                ((0, "a", "b", 1),))
        wp = product_with_finite(c2_table, wp_t, gens)
        assert (wp.n_states, wp.finals, wp.transitions) == (
            1, frozenset(), ())

    def test_unknown_projection(self, c2_table):
        gens = ProductGenerators((("x", "g", "c"),))
        with pytest.raises(InputError):
            product_with_finite(c2_table, builtin("fig3"), gens)


@settings(max_examples=100, deadline=None)
@given(transformation_tables(), st.data())
def test_product_merges_the_reference(table_gens, data):
    # the product accepts the pairs of the one with a state per (s, t, q),
    # has no more states than it, and does not depend on the order of the
    # elements
    table, _ = table_gens
    wp_t = data.draw(st.one_of(st.just(builtin("fig3")), two_tape_automata()))
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(table.elements), st.sampled_from("ab")),
        min_size=1, max_size=3))
    gens = ProductGenerators(tuple((c, e, x) for c, (e, x) in zip("xyz", pairs)))
    order = data.draw(st.permutations(range(len(table))))
    wp = product_with_finite(table, wp_t, gens)
    reference = product_by_folds(table, wp_t, gens)
    assert enumerate_accepted(wp, 4) == enumerate_accepted(reference, 4)
    assert wp.n_states <= reference.n_states
    assert trim(wp) is wp
    permuted = product_with_finite(permuted_table(table, order), wp_t, gens)
    assert dumps_fsa(permuted) == dumps_fsa(wp)


# T accepts every pair, so a product state reaches a final state iff its
# pair of S-values can still fold to equal ones
EVERY_PAIR = TwoTapeAutomaton(1, AB, AB, 0, frozenset({0}), (
    (0, "a", None, 0), (0, None, "a", 0),
    (0, "b", None, 0), (0, None, "b", 0)))
LEFT_ZERO = MultiplicationTable(("l", "r"), ((0, 0), (1, 1)))


@settings(max_examples=100, deadline=None)
@given(transformation_tables(), st.lists(
    st.tuples(st.integers(0, 29), st.sampled_from("ab")),
    min_size=1, max_size=3))
@example((LEFT_ZERO, ("l", "r")), [(0, "a"), (1, "a")])
def test_product_is_trim(table_gens, pairs):
    table, _ = table_gens
    gens = ProductGenerators(tuple(
        (c, table.elements[i % len(table)], x)
        for c, (i, x) in zip("xyz", pairs)))
    wp = product_with_finite(table, EVERY_PAIR, gens)
    assert trim(wp) is wp


def componentwise_oracle(table, gens, bound):
    """Equality in S x T componentwise: fold the S-projection in the table
    and look the T-projection up in the fig3 presentation oracle."""
    t_oracle = build_oracle(builtin_presentation("fig3"), bound)
    alphabet = gens.alphabet()
    pi_s, pi_t = gens.pi_s(), gens.pi_t()
    s_map = {c: table.index(e) for c, e in pi_s.items()}
    class_of = {}
    for w in alphabet.words(bound):
        t_word = tuple(pi_t[s] for s in w)
        class_of[w] = (table.fold(w, s_map), t_oracle.class_of[t_word])
    return oracle_from_words(alphabet, "semigroup", bound, 0, class_of)


class TestMonoidSemigroupChange:
    def test_round_trip(self):
        swp = free_wp(AB)
        mwp = monoid_from_semigroup_wp(swp)
        assert mwp.accepts((), ())
        a_plus = OneTapeAutomaton(
            2, AB, 0, frozenset({1}),
            tuple(NfaTransition(q, s, 1) for q in (0, 1) for s in AB))
        back = intersect_rectangle(mwp, a_plus, a_plus)
        assert enumerate_accepted(back, 5) == enumerate_accepted(swp, 5)

    def test_identity_witness(self):
        # <a | aa = a>: a is an identity of the trivial semigroup
        mwp = monoid_from_semigroup_wp(wp_trivial_a(), ("a",))
        assert mwp.accepts(("a",), ())
        assert mwp.accepts((), ("a", "a"))
        assert mwp.accepts((), ())

    @settings(max_examples=60, deadline=None)
    @given(two_tape_automata(),
           st.none() | st.lists(st.sampled_from("ab"), min_size=1, max_size=2))
    def test_is_the_reference(self, wp, witness):
        got = monoid_from_semigroup_wp(wp, witness)
        ref = monoid_by_nested_unions(wp, witness)
        assert enumerate_accepted(got, 4) == enumerate_accepted(ref, 4)
        # one union of four parts in place of three nested two-part ones
        assert got.n_states == ref.n_states - 2
        assert len(got.transitions) == len(ref.transitions) - 2

    @settings(max_examples=100, deadline=None)
    @given(transformation_tables())
    def test_monoid_of_cayley(self, table_gens):
        table, gens = table_gens
        e = table.identity_index()
        assume(e is not None)
        wp = monoid_from_semigroup_wp(cayley_wp_sync(table, gens),
                                      word_for(table, gens, e))
        oracle = table_oracle(table, gens, 3, kind="monoid")
        assert verify(wp, oracle, 3) == []


class TestBuiltins:
    def test_names(self):
        for name in ("fig1", "fig2", "fig3"):
            assert isinstance(builtin(name), TwoTapeAutomaton)
        assert isinstance(builtin("bicyclic"), Presentation)
        with pytest.raises(InputError):
            builtin("fig9")


@pytest.mark.parametrize("call, message", [
    (lambda: adjoin_identity(
        TwoTapeAutomaton(1, AB, A, 0, frozenset(), ()), "e"),
     "adjoin_identity needs equal tape alphabets"),
    (lambda: free_wp(AB, kind="x"), "unknown kind 'x'"),
    (lambda: free_wp(Alphabet(())), "empty alphabet"),
    (lambda: adjoin_zero(builtin("fig3"), "a"),
     "symbol 'a' already in the alphabet"),
    (lambda: zero_union(free_wp(Alphabet(("a", "z"))),
                        free_wp(Alphabet(("a", "z"))), "z"),
     "factor alphabets may share exactly the zero symbol"),
    (lambda: monoid_from_semigroup_wp(builtin("fig3"), ()),
     "identity witness must be a nonempty word"),
    (lambda: builtin_presentation("x"),
     "unknown builtin 'x'; known: fig1, fig2, fig3, bicyclic"),
])
def test_bad_arguments_are_named(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


FIG2 = builtin("fig2")
B_A_STAR = OneTapeAutomaton(2, AB, 0, frozenset({1}),
                            ((0, "b", 1), (1, "a", 1)))
C2 = MultiplicationTable(("1", "g"), ((0, 1), (1, 0)))
# every operation that takes a two-tape automaton, applied to one over
# {a, b}
SYNC_INPUT_OPERATIONS = {
    "compose, left": lambda a: compose(a, FIG2),
    "compose, right": lambda a: compose(FIG2, a),
    "fix_tape, left": lambda a: fix_tape(a, ("a", "b")),
    "fix_tape, right": lambda a: fix_tape(a, ("b",), side="right"),
    "intersect_rectangle": lambda a: intersect_rectangle(a, B_A_STAR,
                                                         B_A_STAR),
    "union, first": lambda a: union(a, FIG2),
    "union, second": lambda a: union(FIG2, a),
    "adjoin_zero": lambda a: adjoin_zero(a, "z"),
    "adjoin_identity": lambda a: adjoin_identity(a, "e"),
    "remove_generator": lambda a: remove_generator(a, "a"),
    "add_generator": lambda a: add_generator(a, "c", ("a", "b")),
    "free_product": lambda a: free_product(a, free_wp(Alphabet(("c",)))),
    "zero_union": lambda a: zero_union(a, free_wp(Alphabet(("c", "b"))),
                                       "b"),
    "product_with_finite": lambda a: product_with_finite(
        C2, a, ProductGenerators((("x", "g", "a"), ("y", "1", "b")))),
    "monoid_from_semigroup_wp": monoid_from_semigroup_wp,
    "monoid_from_semigroup_wp, witness":
        lambda a: monoid_from_semigroup_wp(a, ("a",)),
    "cross_section": cross_section,
}


@settings(max_examples=100, deadline=None)
@given(sync_automata())
# the right tape padded in a loop: cross_section cuts that loop and keeps
# its left labels
@example(TwoTapeAutomaton(
    2, AB, AB, 0, frozenset({1}),
    ((0, "a", "a", 1), (1, "a", EPSILON, 1), (1, "b", EPSILON, 1)),
    mode="sync"))
def test_operations_read_a_sync_automaton_as_its_async_view(aut):
    # a pad is epsilon, so each operation reads a sync automaton as it is:
    # it writes the text it writes for the automaton made async first
    view = sync_to_async(aut)
    assert view.transitions == aut.transitions and view.mode == "async"
    for name, operation in SYNC_INPUT_OPERATIONS.items():
        assert dumps_fsa(operation(aut)) == dumps_fsa(operation(view)), name
