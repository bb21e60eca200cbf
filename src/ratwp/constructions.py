"""Word-problem automaton constructions: from finite semigroups, free
semigroups, and combinations of smaller word-problem automata."""

from __future__ import annotations

from dataclasses import replace
from itertools import product as iproduct

from .automata import (
    EPSILON,
    PAD,
    Alphabet,
    InputError,
    OneTapeAutomaton,
    Transition,
    TwoTapeAutomaton,
    _as_async,
    _explore,
    swap_tapes,
    trim,
    union,
)
from .presentations import IdealData, Presentation, RelationSchema
from .relations import (
    compose,
    cross_product,
    fix_tape,
    substitution_relation,
)


def _require_square(wp, what):
    if wp.left != wp.right:
        raise InputError(f"{what} needs equal tape alphabets")


def _kernel_blocks(product, vs):
    """Blocks of the pairs (s, t) of S^1, keyed by their kernels.

    product lists the rows of S, whose adjoined identity 1 is n =
    len(product), and vs the subsemigroup V that the generators make. The
    kernel K(s, t) = {(a, b) in V^1 x V^1 : s a = t b != 1} holds the
    values of the word pairs that take (s, t) to an equal pair other than
    (1, 1); every element of V^1 is the value of a word, so two pairs
    accept the same word pairs iff their kernels are equal. A key lists,
    for each a in V^1 (V, then 1), the id of the fiber {b in V^1 : t b =
    s a != 1}; the fibers are built once per t, the empty one's id is 0.

    Returns (block, rep). block(s, t) is the id of K(s, t)'s key, and
    block(s, t, "a") and block(s, t, "b") those of its parts in V^1 x {1}
    and {1} x V^1; the empty kernel's id is 0. rep maps each id to the
    arguments that first gave it.
    """
    n = len(product)
    v1 = [*vs, n]
    rows = [[*row, s] for s, row in enumerate(product)] + [range(n + 1)]
    times = [[row[a] for a in v1] for row in rows]  # times[s]: the s a
    ids = {frozenset(): 0}
    fibers = []  # fibers[t][c]: the id of {b in V^1 : t b = c != 1}
    for row in rows:
        by_value = {}
        for b in v1:
            by_value.setdefault(row[b], []).append(b)
        by_value.pop(n, None)  # t b = 1 only for t = b = 1
        fiber = [0] * (n + 1)
        for c, bs in by_value.items():
            fiber[c] = ids.setdefault(frozenset(bs), len(ids))
        fibers.append(fiber)
    # in V^1 x {1} the fiber of a is {1} when s a = t != 1: ones[t][s a]
    one = ids.setdefault(frozenset((n,)), len(ids))
    ones = [[one * (c == t != n) for c in range(n + 1)] for t in range(n + 1)]
    zeros = (0,) * len(vs)
    keys, rep, cache = {(0,) * len(v1): 0}, {}, {}

    def block(s, t, part=None):
        b = cache.get((s, t, part))
        if b is None:
            if part is None:
                key = tuple(map(fibers[t].__getitem__, times[s]))
            elif part == "a":
                key = tuple(map(ones[t].__getitem__, times[s]))
            else:
                key = (*zeros, fibers[t][s])
            b = cache[s, t, part] = keys.setdefault(key, len(keys))
            rep.setdefault(b, (s, t, part))
        return b

    return block, rep


def cayley_wp_sync(table, gens, kind="semigroup"):
    """Minimal synchronous word-problem automaton of a finite semigroup.

    A neutral state is a pair (s, t) of S^1 that moves by (x, y) to
    (s x, t y), by (x, #) to the right-padding state (s x, t) and by
    (#, y) to the left-padding state (s, t y); a padding state moves on
    its own tape only. The labels are ordered the k^2 pairs (x, y), then
    (x, #), then (#, y). A state accepts when s = t != 1. The initial
    state is the neutral (1, 1), whose kernel is the diagonal of S, or
    for a monoid the neutral (e, e), e being the identity.

    The states are merged by _kernel_blocks, with no transition built: a
    neutral state (s, t) accepts the word pairs whose values lie in
    K(s, t), a right-padding one those in K(s, t) within S^1 x {1}, a
    left-padding one those in {1} x S^1. States with equal keys merge, and
    no move goes into the empty kernel, which reaches no final state. The
    blocks reachable from the initial one, numbered in breadth-first
    discovery order, make the minimal deterministic automaton, whose text
    does not depend on the order of the table's elements.
    """
    gens = tuple(gens)
    gen_idx = table.generator_indices(gens, kind)
    g = [gen_idx[x] for x in gens]
    n = len(table)
    mul = [[row[x] for x in g] for row in table.product] + [g]  # s x in S^1
    block, rep = _kernel_blocks(table.product, range(n))
    right, left = [(x, PAD) for x in gens], [(PAD, y) for y in gens]
    labels = {None: [*iproduct(gens, repeat=2), *right, *left],
              "a": right, "b": left}

    def successors(b):
        s, t, part = rep[b]
        targets = []
        if part is None:
            targets += [block(a, c) for a in mul[s] for c in mul[t]]
        if part != "b":
            targets += [block(a, t, "a") for a in mul[s]]
        if part != "a":
            targets += [block(s, c, "b") for c in mul[t]]
        return [(x, y, d) for (x, y), d in zip(labels[part], targets) if d]

    # the initial state is built even when its kernel is empty (no elements)
    e = table.identity_index() if kind == "monoid" else n
    alphabet = Alphabet(gens)
    n_states, finals, trans = _explore(
        block(e, e), successors, lambda b: rep[b][0] == rep[b][1] != n)
    return TwoTapeAutomaton(n_states, alphabet, alphabet, 0, finals, trans,
                            mode="sync")


def free_wp(alphabet, kind="semigroup"):
    """Word problem of the free semigroup (or monoid) on an alphabet:
    pairs of equal strings, read by two states; the initial one is final
    only for a monoid, which also accepts the empty pair."""
    if kind not in ("semigroup", "monoid"):
        raise InputError(f"unknown kind {kind!r}")
    if len(alphabet) == 0:
        raise InputError("empty alphabet")
    trans = [(q, a, a, 1) for q in (0, 1) for a in alphabet]
    finals = {0, 1} if kind == "monoid" else {1}
    return TwoTapeAutomaton(2, alphabet, alphabet, 0, frozenset(finals),
                            tuple(trans))


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

    The union of the trimmed S automaton, read over B + I, with a pair of
    transformation trackers: they record the accumulated left action of
    the B-prefix on I, switch to a pair of ideal elements at the first
    I-letter of each tape, and track right actions thereafter. Only
    reachable tracker states are built, so they range over the
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

    # States: ("T", x, y) for the left actions x, y accumulated on the two
    # tapes, ("I", x, y) for the positions of the ideal elements reached.
    def successors(state):
        kind, x, y = state
        if kind == "T":
            for b in data.base_symbols:
                lb = l_of[b]
                yield b, EPSILON, ("T", tuple(x[p] for p in lb), y)
                yield EPSILON, b, ("T", x, tuple(y[p] for p in lb))
            for a, b in iproduct(elements, repeat=2):
                yield a, b, ("I", x[pos[a]], y[pos[b]])
        else:
            for a in alphabet:
                action = data.internal if a in pos else data.right_action
                yield a, EPSILON, ("I", pos[action[elements[x], a]], y)
                yield EPSILON, a, ("I", x, pos[action[elements[y], a]])

    def is_final(state):
        return state[0] == "I" and state[1] == state[2]

    n, finals, trans = _explore(("T", identity, identity), successors,
                                is_final)
    trackers = TwoTapeAutomaton(n, alphabet, alphabet, 0, finals, trans)
    return union(trim(replace(wp, left=alphabet, right=alphabet)), trackers)


def product_with_finite(table, wp_t, gens):
    """Word problem of S x T for finite S, given T's word-problem automaton
    and a named generating set of pairs.

    A state is a T-state and a block of _kernel_blocks, V being made by
    the generators' S-projections: a pair (s, t) of S^1 folds the
    projections of the two tapes' words, stepping to (s x, t) on the left
    tape and to (s, t x) on the right one. T's transitions are lifted to
    the product alphabet, and a state accepts when its pair (s = t in S
    proper) and its T-state do. No move goes into the empty kernel, but a
    pair that could still become equal can yet meet a T-state with no
    moves left to make it so: the result is trimmed (an already-trim
    product comes back as it is).
    """
    wp_t = _as_async(wp_t)
    _require_square(wp_t, "product_with_finite")
    xs = [table.index(e) for e in gens.pi_s().values()]
    pi_t = gens.pi_t()
    for c in pi_t.values():
        if c not in wp_t.left:
            raise InputError(f"projection {c!r} not in the T automaton's alphabet")
    alphabet = gens.alphabet()
    n = len(table)  # the adjoined identity of S^1
    mul = [[row[x] for x in xs] for row in table.product] + [xs]  # s x in S^1
    block, rep = _kernel_blocks(table.product, sorted(table.closure_of(xs)))
    lifts = {EPSILON: [(EPSILON, None)]}  # T label -> (product label, x index)
    for i, c in enumerate(alphabet):
        lifts.setdefault(pi_t[c], []).append((c, i))
    by_src = wp_t.by_src

    def successors(state):
        s, t, _ = rep[state[0]]
        for g in by_src.get(state[1], ()):
            for c, i in lifts.get(g.left, ()):
                sc = s if i is None else mul[s][i]
                for d, j in lifts.get(g.right, ()):
                    b = block(sc, t if j is None else mul[t][j])
                    if b:
                        yield c, d, (b, g.dst)

    def is_final(state):
        s, t, _ = rep[state[0]]
        return s == t != n and state[1] in wp_t.finals

    n_states, finals, trans = _explore((block(n, n), wp_t.initial),
                                       successors, is_final)
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
    # words with letters of both factors, by the set of factors seen so far
    factor = {sym: frozenset({i}) for i, syms in enumerate((a_syms, b_syms))
              for sym in syms - {zero}}
    factor[zero] = frozenset()
    n, finals, trans = _explore(
        frozenset(), lambda seen: [(s, seen | factor[s]) for s in alphabet],
        lambda seen: len(seen) == 2)
    z = union(z_s, z_t, OneTapeAutomaton(n, alphabet, 0, finals, trans))
    return union(replace(wp_s, left=alphabet, right=alphabet),
                 replace(wp_t, left=alphabet, right=alphabet),
                 cross_product(z, z))


def monoid_from_semigroup_wp(wp, identity_witness=None):
    """Monoid word problem from a semigroup one: adds the empty word to the
    picture, equating it with the class E of the identity witness (empty
    if there is none). The union of the semigroup one, E x {()},
    {()} x E and the empty pair."""
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
    return union(wp, cross_product(e_class, eps_lang),
                 cross_product(eps_lang, e_class), eps_pair)


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
