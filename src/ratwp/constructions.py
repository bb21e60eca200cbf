"""Word-problem automaton constructions: from finite semigroups, free
semigroups, and combinations of smaller word-problem automata."""

from __future__ import annotations

from dataclasses import replace
from itertools import product as iproduct
from operator import itemgetter

from .automata import (
    EPSILON,
    PAD,
    Alphabet,
    InputError,
    NfaTransition,
    OneTapeAutomaton,
    Transition,
    TwoTapeAutomaton,
    _as_async,
    _explore,
    _reachable,
    swap_tapes,
    trim,
    union,
)
from .presentations import IdealData, Presentation, RelationSchema
from .relations import (
    compose,
    cross_product,
    fix_tape,
    identity_relation,
    substitution_relation,
)


def _require_square(wp, what):
    if wp.left != wp.right:
        raise InputError(f"{what} needs equal tape alphabets")


def _refine(block, rows, states):
    """Moore's partition refinement, in place: each round every q of states
    moves to a block per (block[q], the blocks of the targets rows[q]),
    until no block splits. Every other state keeps its block. The table
    constructions add a non-final sink whose row points only to itself: on
    total rows, the states that reach no final state share the sink's
    block, and each construction leaves out every move into that block."""
    signatures = [itemgetter(q, *rows[q]) for q in states]
    count = len({block[q] for q in states})
    while True:
        ids = {}
        new = [ids.setdefault(sig(block), len(ids)) for sig in signatures]
        for q, b in zip(states, new):
            block[q] = b
        if len(ids) == count:
            return
        count = len(ids)


def cayley_wp_sync(table, gens, kind="semigroup"):
    """Minimal synchronous word-problem automaton of a finite semigroup.

    It is built from an initial state plus three copies (neutral,
    right-padding, left-padding) of the pairs (s, t) of semigroup
    elements; each copy tracks right multiplication of both tapes' values,
    and the padding copies enforce that a pad is only ever followed by
    pads on its tape.

    Each state has one row of targets, one per label in a fixed order (the
    k^2 pairs (x, y), then (x, #), then (#, y)). A move that does not
    exist goes to a non-final sink, and so does a padding move into a
    state that reaches no final state: a right-padding state (s, t)
    reaches one iff t is in s S^1, a left-padding one iff s is in t S^1.
    Moore's partition refinement on these rows merges the states that
    accept the same pairs, the dead neutral pairs joining the sink's
    block, and the other blocks reachable from the initial one, numbered
    in breadth-first discovery order, are the states of the result: the
    minimal deterministic automaton, whose text does not depend on the
    order of the table's elements.
    """
    gens = tuple(gens)
    gen_idx = table.generator_indices(gens, kind)
    e = table.identity_index()
    n, k = len(table), len(gens)
    nn, elems = n * n, range(n)
    mul = [[table.mul(s, gen_idx[g]) for g in gens] for s in elems]
    ideal = [_reachable((s,), mul) for s in elems]  # s S^1
    # The pair (s, t) is p = s n + t: its neutral state is p, its
    # right-padding state nn + p and its left-padding state 2 nn + p. The
    # initial state is 3 nn and the sink 3 nn + 1. A row lists a state's
    # targets by label: the k^2 pairs (x, y), then the k moves (x, #),
    # then the k moves (#, y).
    start, sink = 3 * nn, 3 * nn + 1
    rows = [None] * start
    for s, t in iproduct(elems, repeat=2):
        p = s * n + t
        pad_right = [nn + a * n + t if t in ideal[a] else sink for a in mul[s]]
        pad_left = [2 * nn + s * n + b if s in ideal[b] else sink
                    for b in mul[t]]
        rows[p] = ([a * n + b for a in mul[s] for b in mul[t]]
                   + pad_right + pad_left)
        rows[nn + p] = [sink] * k * k + pad_right + [sink] * k
        rows[2 * nn + p] = [sink] * (k * k + k) + pad_left
    g = [gen_idx[x] for x in gens]
    # a monoid's initial state moves as the neutral state of (e, e) does
    rows.append(rows[e * n + e] if kind == "monoid" else
                [a * n + b for a in g for b in g] + [sink] * 2 * k)
    rows.append([sink] * (k * k + 2 * k))
    final = bytearray(sink + 1)
    for p in range(0, nn, n + 1):  # the pairs (s, s)
        final[p] = final[nn + p] = final[2 * nn + p] = 1
    final[start] = kind == "monoid"
    # the padding states refined are those that a neutral state moves to
    states = list({start, sink, *range(nn)}.union(
        *(rows[p][k * k:] for p in range(nn))))
    block = list(final)
    _refine(block, rows, states)
    member = {block[q]: q for q in states}
    dead = block[sink]
    labels = [*iproduct(gens, repeat=2), *((x, PAD) for x in gens),
              *((PAD, y) for y in gens)]

    def successors(b):
        for (x, y), dst in zip(labels, rows[member[b]]):
            if block[dst] != dead:
                yield x, y, block[dst]

    alphabet = Alphabet(gens)
    n_states, finals, trans = _explore(block[start], successors,
                                       lambda b: final[member[b]])
    return TwoTapeAutomaton(n_states, alphabet, alphabet, 0, finals, trans,
                            mode="sync")


def free_wp(alphabet, kind="semigroup"):
    """Word problem of the free semigroup (or monoid) on an alphabet:
    pairs of equal strings."""
    if kind not in ("semigroup", "monoid"):
        raise InputError(f"unknown kind {kind!r}")
    return identity_relation(alphabet, include_empty=(kind == "monoid"))


def add_generator(wp, b, rep):
    """Extend a word-problem automaton over A to one over A + b, where the
    fresh generator b is represented by the nonempty word rep over A.

    Realized as substitution composed with the word problem composed with
    the reversed substitution.
    """
    wp = _as_async(wp)
    _require_square(wp, "add_generator")
    subst = substitution_relation(wp.left, b, rep)
    return compose(subst, compose(wp, swap_tapes(subst)))


def remove_generator(wp, c):
    """Restrict to the subsemigroup generated without c: delete every
    transition whose either label is c and shrink the alphabets."""
    wp = _as_async(wp)
    if c not in wp.left and c not in wp.right:
        raise InputError(f"symbol {c!r} not in the alphabets")
    new_left = Alphabet(tuple(s for s in wp.left if s != c))
    new_right = Alphabet(tuple(s for s in wp.right if s != c))
    trans = tuple(t for t in wp.transitions if t.left != c and t.right != c)
    return replace(wp, left=new_left, right=new_right, transitions=trans)


def adjoin_identity(wp, one):
    """Word problem of S^1 over A + one.

    Silent-identity loops are added at every state; a fresh final initial
    state handles pairs whose words consist of the identity symbol only.
    """
    wp = _as_async(wp)
    _require_square(wp, "adjoin_identity")
    if one in wp.left:
        raise InputError(f"symbol {one!r} already in the alphabet")
    alphabet = Alphabet(wp.left.symbols + (one,))
    fresh = wp.n_states
    trans = list(wp.transitions)
    trans.append(Transition(fresh, EPSILON, EPSILON, wp.initial))
    for q in range(wp.n_states + 1):
        trans.append(Transition(q, EPSILON, one, q))
        trans.append(Transition(q, one, EPSILON, q))
    return TwoTapeAutomaton(
        n_states=wp.n_states + 1,
        left=alphabet,
        right=alphabet,
        initial=fresh,
        finals=frozenset(wp.finals | {fresh}),
        transitions=tuple(trans),
        mode="async",
    )


def adjoin_zero(wp, zero):
    """Word problem of S^0: the one-element special case of the finite
    ideal extension."""
    wp = _as_async(wp)
    _require_square(wp, "adjoin_zero")
    if zero in wp.left:
        raise InputError(f"symbol {zero!r} already in the alphabet")
    base = wp.left.symbols
    data = IdealData(
        elements=(zero,),
        base_symbols=base,
        left_action={(b, zero): zero for b in base},
        right_action={(zero, b): zero for b in base},
        internal={(zero, zero): zero},
    )
    return ideal_extension(wp, data)


def ideal_extension(wp, data):
    """Word problem of T = S u I for a finite ideal I, given a word-problem
    automaton for S over B and the action data of I.

    The automaton branches silently either into the S automaton or into a
    pair of transformation trackers; the trackers record the accumulated
    left action of the B-prefix on I, switch to a pair of ideal elements at
    the first I-letter of each tape, and track right actions thereafter.
    Only reachable states are built, so the trackers range over the
    transformations generated by the left actions, not all k^k of them.
    """
    wp = _as_async(wp)
    _require_square(wp, "ideal_extension")
    if tuple(data.base_symbols) != wp.left.symbols:
        raise InputError("ideal data is over a different base alphabet")
    elements = data.elements
    pos = {e: i for i, e in enumerate(elements)}
    alphabet = Alphabet(wp.left.symbols + elements)
    identity = tuple(range(len(elements)))
    l_of = {b: data.left_transformation(b) for b in data.base_symbols}
    by_src = wp.by_src

    # States: ("start",), ("S", q) in the S automaton, ("T", alpha, beta)
    # for the left actions accumulated on each tape, ("I", i, j) for the
    # ideal elements reached on each tape.
    def successors(state):
        kind = state[0]
        if kind == "start":
            yield EPSILON, EPSILON, ("S", wp.initial)
            yield EPSILON, EPSILON, ("T", identity, identity)
        elif kind == "S":
            for t in by_src.get(state[1], ()):
                yield t.left, t.right, ("S", t.dst)
        elif kind == "T":
            _, alpha, beta = state
            for b in data.base_symbols:
                lb = l_of[b]
                yield b, EPSILON, ("T", tuple(alpha[p] for p in lb), beta)
                yield EPSILON, b, ("T", alpha, tuple(beta[p] for p in lb))
            for a, b in iproduct(elements, repeat=2):
                yield a, b, ("I", alpha[pos[a]], beta[pos[b]])
        else:
            _, i, j = state
            for a in alphabet:
                action = data.internal if a in pos else data.right_action
                yield a, EPSILON, ("I", pos[action[elements[i], a]], j)
                yield EPSILON, a, ("I", i, pos[action[elements[j], a]])

    def is_final(state):
        if state[0] == "S":
            return state[1] in wp.finals
        return state[0] == "I" and state[1] == state[2]

    n, finals, trans = _explore(("start",), successors, is_final)
    return TwoTapeAutomaton(n, alphabet, alphabet, 0, finals, trans)


def product_with_finite(table, wp_t, gens):
    """Word problem of S x T for finite S, given T's word-problem automaton
    and a named generating set of pairs.

    A state is a T-state and a block of the pairs (s, t) of S^1 that fold
    the S-projections of the two tapes' words; each T-transition is lifted
    to the product alphabet. The blocks are the coarsest, by Moore's
    refinement, that the steps (s x, t) and (s, t x) respect and that part
    the final pairs (s = t in S proper) from the rest; a state accepts
    when its pair and its T-state do. A sink pair, whose steps all lead
    to itself, is refined with them; its block holds the pairs that never
    fold to equal ones, and no move goes into it. A pair that could still
    become equal can yet meet a T-state with no moves left to make it so,
    so the result is trimmed (an already-trim product comes back as it is).
    """
    wp_t = _as_async(wp_t)
    _require_square(wp_t, "product_with_finite")
    xs = [table.index(e) for e in gens.pi_s().values()]
    pi_t = gens.pi_t()
    for c in pi_t.values():
        if c not in wp_t.left:
            raise InputError(f"projection {c!r} not in the T automaton's alphabet")
    alphabet = gens.alphabet()
    n, k = len(table), len(xs)  # n is the adjoined identity of S^1
    m = n + 1
    # the pair (s, t) is p = s m + t; its row is k left, then k right steps
    mul = [*table.product, range(n)]
    rows = [[mul[s][x] * m + t for x in xs] + [s * m + mul[t][x] for x in xs]
            for s in range(m) for t in range(m)]
    rows.append([m * m] * 2 * k)  # the sink pair m^2
    block = [int(s == t != n) for s in range(m) for t in range(m)] + [0]
    _refine(block, rows, range(m * m + 1))
    dead = block[m * m]
    first = {}
    rep = [first.setdefault(b, p) for p, b in enumerate(block)]
    lifts = {EPSILON: [(EPSILON, None)]}  # T label -> (product label, column)
    for i, c in enumerate(alphabet):
        lifts.setdefault(pi_t[c], []).append((c, i))
    by_src = wp_t.by_src

    def successors(state):
        p, q = state  # p is the first pair of its block
        for g in by_src.get(q, ()):
            for c, i in lifts.get(g.left, ()):
                pc = p if i is None else rows[p][i]
                for d, j in lifts.get(g.right, ()):
                    pd = pc if j is None else rows[pc][k + j]
                    if block[pd] != dead:
                        yield c, d, (rep[pd], g.dst)

    n_states, finals, trans = _explore(
        (rep[n * m + n], wp_t.initial), successors,
        lambda state: (state[0] // m == state[0] % m != n
                       and state[1] in wp_t.finals))
    return trim(TwoTapeAutomaton(n_states, alphabet, alphabet, 0, finals,
                                 trans))


def free_product(wp_s, wp_t):
    """Word problem of the semigroup free product: a fresh non-final
    initial state with silent edges into both automata and silent edges
    from their finals back."""
    wp_s, wp_t = _as_async(wp_s), _as_async(wp_t)
    _require_square(wp_s, "free_product")
    _require_square(wp_t, "free_product")
    if set(wp_s.left) & set(wp_t.left):
        raise InputError("free product factors must have disjoint alphabets")
    alphabet = Alphabet(wp_s.left.symbols + wp_t.left.symbols)
    both = union(replace(wp_s, left=alphabet, right=alphabet),
                 replace(wp_t, left=alphabet, right=alphabet))
    back = tuple(Transition(f, EPSILON, EPSILON, 0) for f in both.finals)
    return replace(both, transitions=both.transitions + back)


def zero_union(wp_s, wp_t, zero):
    """Word problem of the zero union S u0 T over the joint alphabet.

    Union of the two factor word problems with Z x Z, where Z is the class
    of zero: zero-words of S, zero-words of T, and all mixed words (any
    product across the factors is zero).
    """
    wp_s, wp_t = _as_async(wp_s), _as_async(wp_t)
    _require_square(wp_s, "zero_union")
    _require_square(wp_t, "zero_union")
    a_syms, b_syms = set(wp_s.left), set(wp_t.left)
    if zero not in a_syms or zero not in b_syms:
        raise InputError(f"zero symbol {zero!r} must be in both alphabets")
    if a_syms & b_syms != {zero}:
        raise InputError("factor alphabets may share exactly the zero symbol")
    alphabet = Alphabet(
        wp_s.left.symbols
        + tuple(s for s in wp_t.left.symbols if s != zero)
    )
    z_s = replace(fix_tape(wp_s, (zero,), side="right"), alphabet=alphabet)
    z_t = replace(fix_tape(wp_t, (zero,), side="right"), alphabet=alphabet)
    # words containing letters from both factors; encoded flags (seen S, seen T)
    mixed_trans = []
    for fa in (0, 1):
        for fb in (0, 1):
            src = fa * 2 + fb
            for sym in alphabet:
                if sym == zero:
                    nfa, nfb = fa, fb
                elif sym in a_syms:
                    nfa, nfb = 1, fb
                else:
                    nfa, nfb = fa, 1
                mixed_trans.append(NfaTransition(src, sym, nfa * 2 + nfb))
    mixed = OneTapeAutomaton(4, alphabet, 0, frozenset({3}), tuple(mixed_trans))
    z = union(union(z_s, z_t), mixed)
    return union(
        union(replace(wp_s, left=alphabet, right=alphabet),
              replace(wp_t, left=alphabet, right=alphabet)),
        cross_product(z, z),
    )


def monoid_from_semigroup_wp(wp, identity_witness=None):
    """Monoid word problem from a semigroup one: adds the empty word to the
    picture, equating it with the class of the identity witness (if any)."""
    wp = _as_async(wp)
    _require_square(wp, "monoid_from_semigroup_wp")
    alphabet = wp.left
    eps_lang = OneTapeAutomaton(1, alphabet, 0, frozenset({0}), ())
    if identity_witness is not None:
        witness = tuple(identity_witness)
        if not witness:
            raise InputError("identity witness must be a nonempty word")
        e_class = fix_tape(wp, witness, side="right")
    else:
        e_class = OneTapeAutomaton(1, alphabet, 0, frozenset(), ())
    eps_pair = TwoTapeAutomaton(1, alphabet, alphabet, 0, frozenset({0}), ())
    out = union(wp, cross_product(e_class, eps_lang))
    out = union(out, cross_product(eps_lang, e_class))
    return union(out, eps_pair)


def _fig2_automaton():
    a_b = Alphabet(("a", "b"))
    t = [
        (0, "a", "a", 1),
        (0, "b", "b", 4),
        (1, "a", "a", 1),
        (1, "b", "b", 2),
        (2, "b", "b", 2),
        (2, "b", EPSILON, 3),
        (2, EPSILON, "b", 3),
        (2, "a", "a", 1),
        (3, "b", EPSILON, 3),
        (3, EPSILON, "b", 3),
        (3, "a", "a", 1),
        (4, "b", "b", 4),
        (4, "a", "a", 1),
    ]
    return TwoTapeAutomaton(
        n_states=5, left=a_b, right=a_b, initial=0,
        finals=frozenset({1, 2, 4}), transitions=tuple(t),
    )


def _fig3_automaton():
    a_b = Alphabet(("a", "b"))
    t = [
        (0, "a", "a", 1),
        (0, "b", "b", 1),
        (1, "b", "b", 1),
        (1, "a", EPSILON, 1),
        (1, EPSILON, "a", 1),
    ]
    return TwoTapeAutomaton(
        n_states=2, left=a_b, right=a_b, initial=0,
        finals=frozenset({1}), transitions=tuple(t),
    )


_BUILTIN_NAMES = ("fig1", "fig2", "fig3", "bicyclic")


def builtin(name):
    """Hardcoded example automata and presentations.

    fig1: equality automaton of the free semigroup on {a, b}.
    fig2: automaton of the infinitely presented semigroup
          <a, b | a b^n a = a b a, n >= 2>.
    fig3: automaton of <a, b | aa = a, ba = b>.
    bicyclic: presentation of <b, c | bc = 1> (no deciding automaton
          exists, so only the presentation is available).
    """
    if name == "fig1":
        return free_wp(Alphabet(("a", "b")))
    if name == "fig2":
        return _fig2_automaton()
    if name == "fig3":
        return _fig3_automaton()
    if name == "bicyclic":
        return builtin_presentation("bicyclic")
    raise InputError(f"unknown builtin {name!r}; known: {', '.join(_BUILTIN_NAMES)}")


def builtin_presentation(name):
    if name == "fig1":
        return Presentation("semigroup", Alphabet(("a", "b")))
    if name == "fig2":
        schema = RelationSchema(
            lhs=(("a", 1), ("b", "n"), ("a", 1)),
            rhs=(("a", 1), ("b", 1), ("a", 1)),
            var="n", lo=2, hi=10,
        )
        return Presentation("semigroup", Alphabet(("a", "b")), schemas=(schema,))
    if name == "fig3":
        return Presentation(
            "semigroup", Alphabet(("a", "b")),
            relations=((("a", "a"), ("a",)), (("b", "a"), ("b",))),
        )
    if name == "bicyclic":
        return Presentation(
            "monoid", Alphabet(("b", "c")),
            relations=((("b", "c"), ()),),
        )
    raise InputError(f"unknown builtin {name!r}; known: {', '.join(_BUILTIN_NAMES)}")
