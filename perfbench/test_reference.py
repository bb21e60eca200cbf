"""Tests of the benchmark's own references, against the normal forms the
source paper states. Run with: python3 -m pytest perfbench/test_reference.py
"""

import random

import inputs
import reference as ref

AB = ("a", "b")


def rewrites(w, relations):
    """Every word one application of a relation (either way) away from w."""
    for lhs, rhs in relations:
        for a, b in ((lhs, rhs), (rhs, lhs)):
            for i in range(len(w) - len(a) + 1):
                if w[i:i + len(a)] == a:
                    yield w[:i] + b + w[i + len(a):]


def assert_invariant(nf, alphabet, relations, max_len):
    for w in ref.words(alphabet, max_len):
        for other in rewrites(w, relations):
            if other:
                assert nf(other) == nf(w), (w, other)


def test_fig3_classes_are_a_d_b_k():
    """fig3 = <a, b | aa = a, ba = b>: the classes are a^d b^k with d in
    {0, 1}, d + k >= 1, and each such word is its own class's member."""
    n = 6
    classes = {}
    for w in ref.words(AB, n):
        classes.setdefault(ref.fig3_nf(w), set()).add(w)
    canonical = [("a",) * d + ("b",) * k for d in (0, 1) for k in range(n + 1)
                 if 1 <= d + k <= n]
    assert len(classes) == len(canonical)
    for c in canonical:
        assert c in classes[ref.fig3_nf(c)]
    assert_invariant(ref.fig3_nf, AB, [(("a", "a"), ("a",)), (("b", "a"), ("b",))], n)


def test_fig2_normal_forms_are_irreducible():
    """fig2 = <a, b | a b^n a = a b a, n >= 2>: a normal form contains no
    a b^n a with n >= 2, and rewriting never changes it."""
    relations = [(("a",) + ("b",) * n + ("a",), ("a", "b", "a")) for n in range(2, 8)]
    assert_invariant(ref.fig2_nf, AB, relations, 8)
    for w in ref.words(AB, 8):
        nf = ref.fig2_nf(w)
        assert ref.fig2_nf(nf) == nf
        assert not any(nf[i:i + len(lhs)] == lhs for lhs, _ in relations
                       for i in range(len(nf)))
    assert ref.fig2_nf(tuple("abbbab")) == tuple("abab")
    assert ref.fig2_nf(tuple("bbabb")) == tuple("bbabb")


def test_t3_is_the_full_transformation_monoid():
    elements = ref.t3_elements()
    assert len(elements) == 27 and len(set(elements.values())) == 27
    reached = {ref.T3_GENERATOR_MAPS[g] for g in ref.T3_GENERATORS}
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for g in ref.T3_GENERATORS:
            y = ref.t3_mul(x, ref.T3_GENERATOR_MAPS[g])
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    assert reached == set(elements)
    identity = (0, 1, 2)
    assert ref.t3_value(tuple("tt")) == identity
    assert ref.t3_value(tuple("ccc")) == identity
    assert ref.t3_value(tuple("rr")) == ref.T3_GENERATOR_MAPS["r"]
    # x then y: 0 -t-> 1 -c-> 2
    assert ref.t3_value(tuple("tc"))[0] == 2


def test_t3_table_is_associative_and_seeded():
    text = inputs.t3_tbl(random.Random(1))
    rows = [line.split()[1:] for line in text.splitlines()]
    names = rows[0]
    index = {n: i for i, n in enumerate(names)}
    table = [[index[x] for x in row] for row in rows[1:]]
    n = len(names)
    assert n == 27
    assert all(table[table[i][j]][k] == table[i][table[j][k]]
               for i in range(n) for j in range(n) for k in range(n))
    assert inputs.t3_tbl(random.Random(1)) == text != inputs.t3_tbl(random.Random(2))


def test_left_zero_ideal_extension():
    """Relations of fig3 extended by the left-zero ideal: u x = u for every
    letter x, a u = u, b u_i = u_(i+1 mod k)."""
    for k in (1, 2, 3):
        ideal = ref.ideal_symbols(k)
        alphabet = AB + ideal
        relations = [(("a", "a"), ("a",)), (("b", "a"), ("b",))]
        relations += [((u, x), (u,)) for u in ideal for x in alphabet]
        relations += [(("a", u), (u,)) for u in ideal]
        relations += [(("b", u), (ideal[(i + 1) % k],)) for i, u in enumerate(ideal)]
        nf = ref.left_zero_ideal_nf(k)
        assert_invariant(nf, alphabet, relations, 4)
        values = {nf(w) for w in ref.words(alphabet, 4)}
        assert values == {nf(w) for w in ref.words(AB, 4)} | {("I", i) for i in range(k)}


def test_adjoin_zero():
    nf = ref.adjoin_zero_nf(ref.fig3_nf, "z")
    assert nf(tuple("abz")) == nf(tuple("z")) != nf(tuple("ab"))
    assert nf(tuple("aab")) == nf(tuple("ab"))


def test_free_product_and_zero_union():
    fp = ref.free_product_nf([("ab", ref.fig3_nf), ("g", ref.c2_value)])
    assert fp(tuple("aagggb")) == fp(tuple("agb"))
    assert fp(tuple("agb")) != fp(tuple("ab"))
    zu = ref.zero_union_nf(ref.fig3_nf, "ab", ref.c2_value, "g", "z")
    assert zu(tuple("ag")) == zu(tuple("z")) != zu(tuple("gg"))
    assert zu(tuple("ggg")) == zu(tuple("g"))


def test_accepted_pairs_async_and_sync(tmp_path):
    fig3 = tmp_path / "fig3.fsa"
    fig3.write_text("type: async\nleft: a b\nright: a b\nstates: 2\ninitial: 0\n"
                    "final: 1\ntrans: 0 a a 1\ntrans: 0 b b 1\ntrans: 1 b b 1\n"
                    "trans: 1 a - 1\ntrans: 1 - a 1\n")
    assert ref.accepted_pairs(fig3, 4) == ref.equal_pairs(ref.fig3_nf, AB, 4)
    # (a a, a) is accepted with one pad; a letter after the pad is not.
    sync = tmp_path / "sync.fsa"
    sync.write_text("type: sync\nleft: a\nright: a\nstates: 3\ninitial: 0\nfinal: 2\n"
                    "trans: 0 a a 1\ntrans: 1 a # 2\ntrans: 2 a a 2\n")
    assert ref.accepted_pairs(sync, 3) == {(("a", "a"), ("a",))}
    assert ref.fsa_header(sync) == (3, 3)


def test_mutant_over_accepts(tmp_path):
    """The mutant accepts (ab, aaa), which fig3 does not equate."""
    mutant = tmp_path / "mutant.fsa"
    mutant.write_text(inputs.fig3_mutant_fsa(random.Random(1)))
    pair = (tuple("ab"), tuple("aaa"))
    assert pair in ref.accepted_pairs(mutant, 3)
    assert ref.fig3_nf(pair[0]) != ref.fig3_nf(pair[1])
