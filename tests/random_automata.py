"""Hypothesis strategies for small random automata, over {a, b} unless
told otherwise, and the reference implementations the differential tests
compare ratwp with."""

from dataclasses import replace
from itertools import product as iproduct

from hypothesis import strategies as st

from ratwp import (
    EPSILON,
    Alphabet,
    IdealData,
    InputError,
    MultiplicationTable,
    NfaTransition,
    OneTapeAutomaton,
    Oracle,
    Presentation,
    Report,
    Transition,
    TwoTapeAutomaton,
    cross_product,
    enumerate_accepted,
    fix_tape,
    pump_decompose,
    pumping_constant,
    swap_tapes,
    sync_to_async,
    trim,
    union,
)
from ratwp.automata import _explore, _reachable
from ratwp.oracle import DEFAULT_SLACK_SEARCH, DEFAULT_WORD_CAP

def as_async(aut):
    """A sync automaton as async (sync_to_async), any other automaton as
    it is: the references convert their inputs first."""
    return sync_to_async(aut) if getattr(aut, "mode", None) == "sync" else aut


AB = Alphabet(("a", "b"))
LABELS = st.sampled_from(("a", "b", EPSILON))
# Tape alphabets of one, two and three symbols.
ALPHABETS = st.sampled_from((Alphabet(("a",)), AB, Alphabet(("x", "y", "z"))))


@st.composite
def two_tape_automata(draw, max_states=4, max_transitions=8, left=AB,
                      right=AB):
    """Async automata, epsilon labels (silent steps included) allowed."""
    n = draw(st.integers(1, max_states))
    state = st.integers(0, n - 1)
    left_labels = st.sampled_from(left.symbols + (EPSILON,))
    right_labels = st.sampled_from(right.symbols + (EPSILON,))
    trans = draw(st.lists(st.tuples(state, left_labels, right_labels, state),
                          max_size=max_transitions))
    return TwoTapeAutomaton(n, left, right, draw(state),
                            draw(st.frozensets(state)), tuple(trans))


@st.composite
def two_tape_automata_any_alphabets(draw):
    """Async automata whose tape alphabets are drawn from ALPHABETS, the
    left and the right one independently."""
    return draw(two_tape_automata(left=draw(ALPHABETS),
                                  right=draw(ALPHABETS)))


@st.composite
def one_tape_automata(draw, max_states=4, max_transitions=8):
    n = draw(st.integers(1, max_states))
    state = st.integers(0, n - 1)
    trans = draw(st.lists(st.tuples(state, LABELS, state),
                          max_size=max_transitions))
    return OneTapeAutomaton(n, AB, draw(state), draw(st.frozensets(state)),
                            tuple(trans))


@st.composite
def presentations(draw, max_relations=3, max_len=3):
    """Semigroup or monoid presentations over {a, b} with short relations;
    monoid relations may have an empty side."""
    kind = draw(st.sampled_from(("semigroup", "monoid")))
    min_len = 0 if kind == "monoid" else 1
    side = st.lists(st.sampled_from("ab"), min_size=min_len,
                    max_size=max_len).map(tuple)
    relations = draw(st.lists(st.tuples(side, side), max_size=max_relations))
    return Presentation(kind, AB, relations=tuple(relations))


@st.composite
def sync_automata(draw, max_states=4, max_transitions=8):
    """Sync automata that keep the padding discipline: each state is
    unpadded, left-padded or right-padded, transitions into a padded state
    read a pad (epsilon) on that tape, and no transition leaves a padded
    region."""
    n = draw(st.integers(1, max_states))
    state = st.integers(0, n - 1)
    region = draw(st.lists(st.sampled_from("NLR"), min_size=n, max_size=n))
    trans = []
    for src, x, y, dst in draw(st.lists(
            st.tuples(state, st.sampled_from("ab"), st.sampled_from("ab"),
                      state),
            max_size=max_transitions)):
        if region[src] != "N" and region[dst] != region[src]:
            continue
        if region[dst] == "L":
            x = EPSILON
        elif region[dst] == "R":
            y = EPSILON
        trans.append((src, x, y, dst))
    return TwoTapeAutomaton(n, AB, AB, draw(state), draw(st.frozensets(state)),
                            tuple(trans), mode="sync")


@st.composite
def any_sync_automata(draw, max_states=4, max_transitions=8):
    """The fields (n_states, initial, finals, transitions) of sync
    automata over {a, b} with any labels from {a, b, ε} on either tape:
    most break the padding discipline somewhere, some off every path from
    the initial state, so most are fields no sync automaton is built
    from."""
    n = draw(st.integers(1, max_states))
    state = st.integers(0, n - 1)
    label = st.sampled_from(("a", "b", EPSILON))
    trans = draw(st.lists(st.tuples(state, label, label, state),
                          max_size=max_transitions))
    return n, draw(state), draw(st.frozensets(state)), tuple(trans)


def sync_fields(aut):
    """The fields of a sync automaton over {a, b}, as any_sync_automata
    draws them."""
    return aut.n_states, aut.initial, aut.finals, aut.transitions


def padding_fault_by_search(initial, transitions):
    """Reference for the padding check of a sync automaton's constructor:
    the message of the first break of the padding discipline, or None.
    Checks every transition for pads on both tapes, then searches the
    (state, left padded, right padded) nodes from the initial one, depth
    first, each state's transitions in order. A pad is epsilon."""
    if any(left is EPSILON and right is EPSILON
           for _, left, right, _ in transitions):
        return "transition padded on both tapes"
    seen = {(initial, False, False)}
    stack = [(initial, False, False)]
    while stack:
        q, lpad, rpad = stack.pop()
        for src, left, right, dst in transitions:
            if src != q:
                continue
            if lpad and left is not EPSILON:
                return f"non-pad left label after padding at state {q}"
            if rpad and right is not EPSILON:
                return f"non-pad right label after padding at state {q}"
            node = (dst, lpad or left is EPSILON, rpad or right is EPSILON)
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return None


@st.composite
def behind_chains(draw, automata):
    """Automata from the given strategy whose final states lie behind a
    chain of 1-4 reading transitions: each final state of the drawn
    automaton becomes non-final and starts a chain of fresh states, the
    last one final, so a pair is accepted only after the chain's reads
    and the enumerations' distance prune fires at small bounds. A sync
    chain reads a pad on each tape its start state was entered by reading
    one, so the padding discipline still holds (in sync_automata a pad
    is read only on entering a padded state)."""
    aut = draw(automata)
    silent = (EPSILON,) * 2
    if aut.mode == "sync":
        left, right = aut.left.symbols, aut.right.symbols
    else:
        left = aut.left.symbols + (EPSILON,)
        right = aut.right.symbols + (EPSILON,)
    labels = st.tuples(st.sampled_from(left), st.sampled_from(right)).filter(
        lambda pair: pair != silent)
    length = draw(st.integers(1, 4))
    n, trans, finals = aut.n_states, list(aut.transitions), set()
    for f in sorted(aut.finals):
        pads = [any(t.dst == f and t[tape] is EPSILON
                    for t in aut.transitions) for tape in (1, 2)]
        q = f
        for _ in range(length):
            x, y = draw(labels)
            trans.append((q, EPSILON if pads[0] else x,
                          EPSILON if pads[1] else y, n))
            q, n = n, n + 1
        finals.add(q)
    return TwoTapeAutomaton(n, aut.left, aut.right, aut.initial,
                            frozenset(finals), tuple(trans), mode=aut.mode)


@st.composite
def transformation_tables(draw, max_points=4, max_elements=30):
    """(table, gens): the transformation semigroup generated by 1-3
    random maps on at most max_points points, its table worked out here,
    without ratwp. A map is named by its images ("102" sends 0 to 1, 1 to
    0 and 2 to 2), and x y applies x first. The maps join the generators
    in turn, each only if the closure stays within max_elements: the first
    always does, since one map on 4 points generates at most 4 elements."""
    m = draw(st.integers(1, max_points))
    point = st.integers(0, m - 1)
    maps = draw(st.lists(st.tuples(*[point] * m), min_size=1, max_size=3,
                         unique=True))

    def then(x, y):
        return tuple(y[p] for p in x)

    gens, elements = [], set()
    for f in maps:
        closure = set(gens + [f])
        todo = list(closure)
        while todo and len(closure) <= max_elements:
            x = todo.pop()
            for z in (then(x, y) for y in [*gens, f]):
                if z not in closure:
                    closure.add(z)
                    todo.append(z)
        if len(closure) <= max_elements:
            gens.append(f)
            elements = closure
    elements = sorted(elements)
    index = {x: i for i, x in enumerate(elements)}
    table = MultiplicationTable(
        tuple("".join(map(str, x)) for x in elements),
        tuple(tuple(index[then(x, y)] for y in elements) for x in elements))
    return table, tuple("".join(map(str, f)) for f in gens)


@st.composite
def left_zero_ideals(draw, max_elements=2):
    """Ideal data over {a, b} for a left-zero ideal I = {u0, u1, ...}: u v
    = u and u b = u, and each base letter acts on the left by a random
    map of I, which any map keeps compatible with the products."""
    k = draw(st.integers(1, max_elements))
    elements = tuple(f"u{i}" for i in range(k))
    left = {}
    for b in AB:
        images = draw(st.lists(st.sampled_from(elements), min_size=k,
                               max_size=k))
        left.update({(b, u): v for u, v in zip(elements, images)})
    return IdealData(elements, AB.symbols, left,
                     {(u, b): u for u in elements for b in AB},
                     {(u, v): u for u in elements for v in elements})


@st.composite
def rectangular_band_ideals(draw, max_side=2):
    """Ideal data over {a, b} for a rectangular band I = L x R, (l, r)
    (l', r') = (l, r'), each base letter acting on L from the left and on R
    from the right by random maps, which any maps keep compatible with the
    products. The right orbit of (l, r) is {l} x R, so a pair of elements
    is useful iff their first parts are equal, off the diagonal too."""
    side = st.integers(1, max_side)
    n_left, n_right = draw(side), draw(side)
    cells = list(iproduct(range(n_left), range(n_right)))
    name = {(l, r): f"e{l}{r}" for l, r in cells}

    def random_map(n):
        return draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))

    left, right = {}, {}
    for b in AB:
        f, g = random_map(n_left), random_map(n_right)
        left.update({(b, name[l, r]): name[f[l], r] for l, r in cells})
        right.update({(name[l, r], b): name[l, g[r]] for l, r in cells})
    return IdealData(tuple(name.values()), AB.symbols, left, right,
                     {(name[c], name[d]): name[c[0], d[1]]
                      for c in cells for d in cells})


@st.composite
def table_ideals(draw, max_elements=6):
    """Ideal data over {a, b} for I the opposite of a random transformation
    semigroup (x y applies y first), each base letter multiplying I by an
    element of I^1 on the left and by one on the right, which associativity
    keeps compatible with the products. Constant maps are left zeros of I,
    so right orbits need not meet, and a useful pair of ideal elements can
    move to a useless one."""
    table, _ = draw(transformation_tables(max_points=3,
                                          max_elements=max_elements))
    els, n = table.elements, len(table)
    one = st.integers(0, n)  # n is the identity of I^1

    def times(s, t):
        return t if s == n else s if t == n else table.product[t][s]

    left, right = {}, {}
    for b in AB:
        s, t = draw(one), draw(one)
        left.update({(b, els[i]): els[times(s, i)] for i in range(n)})
        right.update({(els[i], b): els[times(i, t)] for i in range(n)})
    return IdealData(els, AB.symbols, left, right,
                     {(els[i], els[j]): els[times(i, j)]
                      for i in range(n) for j in range(n)})


def permuted_table(table, order):
    """The same semigroup with its elements listed in another order: the
    i-th element of the result is element order[i] of the table."""
    position = {old: new for new, old in enumerate(order)}
    return MultiplicationTable(
        tuple(table.elements[i] for i in order),
        tuple(tuple(position[table.product[i][j]] for j in order)
              for i in order))


def cayley_by_pairs(table, gens, kind="semigroup"):
    """Reference for cayley_wp_sync: one state per useful pair of elements,
    without merging. States are an initial state plus three copies
    (left-padding, neutral, right-padding) of pairs of semigroup elements;
    each copy tracks right multiplication of both tapes' values, and the
    padding copies enforce that a pad is only ever followed by pads on its
    tape. Only the states on a path from the initial state to a final one
    are built, numbered in breadth-first discovery order: a right-padding
    state (s, t) reaches a final state iff t is in s S^1, a left-padding
    one iff s is in t S^1, and a neutral one iff s = t or one of its
    successors does."""
    gens = tuple(gens)
    gen_idx = table.generator_indices(gens, kind)
    e = table.identity_index()
    alphabet = Alphabet(gens)
    n = len(table)
    pairs = list(iproduct(gens, repeat=2))
    times = [{g: table.product[s][gen_idx[g]] for g in gens} for s in range(n)]
    right_mul = {s: times[s].values() for s in range(n)}
    ideal = [_reachable((s,), right_mul) for s in range(n)]  # s S^1
    before = {pair: [] for pair in iproduct(range(n), repeat=2)}
    seeds = []
    for s, t in iproduct(range(n), repeat=2):
        for x, y in pairs:
            before[times[s][x], times[t][y]].append((s, t))
        if (s == t or any(t in ideal[times[s][x]] for x in gens)
                or any(s in ideal[times[t][y]] for y in gens)):
            seeds.append((s, t))
    useful = {(s, t, "N") for s, t in _reachable(seeds, before)}
    for s, t in iproduct(range(n), repeat=2):
        if t in ideal[s]:
            useful.add((s, t, "R"))
        if s in ideal[t]:
            useful.add((s, t, "L"))

    def moves(state):
        # the initial state is None
        if state is None:
            for x, y in pairs:
                yield (x, y), (gen_idx[x], gen_idx[y], "N")
            if kind == "monoid":
                for x in gens:
                    yield (x, EPSILON), (gen_idx[x], e, "R")
                for y in gens:
                    yield (EPSILON, y), (e, gen_idx[y], "L")
            return
        s, t, copy = state
        if copy == "N":
            for x, y in pairs:
                yield (x, y), (times[s][x], times[t][y], "N")
        if copy != "L":
            for x in gens:
                yield (x, EPSILON), (times[s][x], t, "R")
        if copy != "R":
            for y in gens:
                yield (EPSILON, y), (s, times[t][y], "L")

    def successors(state):
        return [move for move in moves(state) if move[-1] in useful]

    def is_final(state):
        return kind == "monoid" if state is None else state[0] == state[1]

    n_states, finals, trans = _explore(None, successors, is_final)
    return TwoTapeAutomaton(n_states, alphabet, alphabet, 0, finals, trans,
                            mode="sync")


def product_by_folds(table, wp_t, gens):
    """Reference for product_with_finite, without merging: one state per
    reachable (s, t, q), s and t folding the S-projections of the two
    tapes' words in S with an adjoined identity and q a state of T's
    automaton, whose transitions are lifted to the product alphabet. A
    state accepts when s = t in S proper and q accepts."""
    wp_t = as_async(wp_t)
    pi_s, pi_t = gens.pi_s(), gens.pi_t()
    alphabet = gens.alphabet()
    one = len(table)  # the adjoined identity of S^1

    def mul1(i, j):
        if i == one:
            return j
        if j == one:
            return i
        return table.product[i][j]

    s_of = {c: table.index(pi_s[c]) for c in alphabet}
    lifts = {EPSILON: [EPSILON]}  # T label -> product labels projecting to it
    for c in alphabet:
        lifts.setdefault(pi_t[c], []).append(c)
    by_src = wp_t.by_src

    def successors(state):
        s, t, q = state
        for g in by_src.get(q, ()):
            for c in lifts.get(g.left, ()):
                ns = s if c is EPSILON else mul1(s, s_of[c])
                for d in lifts.get(g.right, ()):
                    nt = t if d is EPSILON else mul1(t, s_of[d])
                    yield (c, d), (ns, nt, g.dst)

    n, finals, trans = _explore(
        (one, one, wp_t.initial), successors,
        lambda state: (state[0] == state[1] != one
                       and state[2] in wp_t.finals))
    return TwoTapeAutomaton(n, alphabet, alphabet, 0, finals, trans)


def compose_with_silent_loops(r, s):
    """Reference for compose: the product on the reachable state pairs
    with every step, silent steps from a pair to itself included. An
    r-step writing nothing on the middle tape fires alone, an s-step
    reading nothing from it fires alone, and steps agreeing on a middle
    symbol fire jointly."""
    r, s = as_async(r), as_async(s)

    def successors(state):
        i, j = state
        for t in r.by_src.get(i, ()):
            if t.right is EPSILON:
                yield (t.left, EPSILON), (t.dst, j)
                continue
            for u in s.by_src.get(j, ()):
                if u.left == t.right:
                    yield (t.left, u.right), (t.dst, u.dst)
        for u in s.by_src.get(j, ()):
            if u.left is EPSILON:
                yield (EPSILON, u.right), (i, u.dst)

    n, finals, trans = _explore(
        (r.initial, s.initial), successors,
        lambda state: state[0] in r.finals and state[1] in s.finals)
    return TwoTapeAutomaton(n, r.left, s.right, 0, finals, trans)


def fix_tape_by_line(r, v, side="left"):
    """Reference for fix_tape: the reachable product of r with the line
    automaton of v on the fixed tape, its states (state of r, |v| read),
    each step's symbol on the free tape kept."""
    r = as_async(r)
    if side == "right":
        r = swap_tapes(r)
    v = tuple(v)
    k = len(v)

    def successors(state):
        q, i = state
        for t in r.by_src.get(q, ()):
            if t.left is EPSILON:
                yield (t.right,), (t.dst, i)
            elif i < k and v[i] == t.left:
                yield (t.right,), (t.dst, i + 1)

    n, finals, trans = _explore(
        (r.initial, 0), successors,
        lambda state: state[0] in r.finals and state[1] == k)
    return OneTapeAutomaton(n, r.right, 0, finals, trans)


def union_of_two(r, s):
    """Reference for union of two parts: a fresh initial state 0 has
    silent branches into r, whose states are shifted by 1, and into s,
    whose states follow r's."""
    r, s = as_async(r), as_async(s)
    off_r, off_s = 1, 1 + r.n_states
    silent = (EPSILON,) * (1 if isinstance(r, OneTapeAutomaton) else 2)
    trans = [(0, *silent, r.initial + off_r), (0, *silent, s.initial + off_s)]
    for aut, off in ((r, off_r), (s, off_s)):
        trans += ((t[0] + off, *t[1:-1], t[-1] + off)
                  for t in aut.transitions)
    finals = frozenset(
        {f + off_r for f in r.finals} | {f + off_s for f in s.finals}
    )
    return replace(r, n_states=off_s + s.n_states, initial=0, finals=finals,
                   transitions=tuple(trans))


def zero_union_by_flags(wp_s, wp_t, zero):
    """Reference for zero_union: two-part unions nested, (WP_S u WP_T) u
    (Z x Z) with Z = (Z_S u Z_T) u mixed, where the mixed words are read
    by four states numbered 2 (seen an S letter) + (seen a T letter)."""
    wp_s, wp_t = as_async(wp_s), as_async(wp_t)
    a_syms = set(wp_s.left)
    alphabet = Alphabet(
        wp_s.left.symbols + tuple(s for s in wp_t.left.symbols if s != zero))
    z_s = replace(fix_tape(wp_s, (zero,), side="right"), alphabet=alphabet)
    z_t = replace(fix_tape(wp_t, (zero,), side="right"), alphabet=alphabet)
    mixed_trans = []
    for fa, fb in iproduct((0, 1), repeat=2):
        for sym in alphabet:
            if sym == zero:
                nfa, nfb = fa, fb
            elif sym in a_syms:
                nfa, nfb = 1, fb
            else:
                nfa, nfb = fa, 1
            mixed_trans.append((fa * 2 + fb, sym, nfa * 2 + nfb))
    mixed = OneTapeAutomaton(4, alphabet, 0, frozenset({3}),
                             tuple(mixed_trans))
    z = union_of_two(union_of_two(z_s, z_t), mixed)
    return union_of_two(
        union_of_two(replace(wp_s, left=alphabet, right=alphabet),
                     replace(wp_t, left=alphabet, right=alphabet)),
        cross_product(z, z))


def monoid_by_nested_unions(wp, identity_witness=None):
    """Reference for monoid_from_semigroup_wp: two-part unions nested,
    ((WP u E x {()}) u {()} x E) u {((), ())}, E being the class of the
    identity witness (empty if there is none)."""
    wp = as_async(wp)
    alphabet = wp.left
    eps_lang = OneTapeAutomaton(1, alphabet, 0, frozenset({0}), ())
    if identity_witness is not None:
        e_class = fix_tape(wp, tuple(identity_witness), side="right")
    else:
        e_class = OneTapeAutomaton(1, alphabet, 0, frozenset(), ())
    eps_pair = TwoTapeAutomaton(1, alphabet, alphabet, 0, frozenset({0}), ())
    out = union_of_two(wp, cross_product(e_class, eps_lang))
    out = union_of_two(out, cross_product(eps_lang, e_class))
    return union_of_two(out, eps_pair)


def all_trackers(data, alphabet):
    """The start state and the successors of the trackers ("T", alpha,
    beta) of the left actions on I, which switch to ("I", i, j) at the
    first I-letter of each tape: every state reachable, useful or not."""
    elements = data.elements
    pos = {e: i for i, e in enumerate(elements)}
    identity = tuple(range(len(elements)))
    l_of = {b: data.left_transformation(b) for b in data.base_symbols}

    def successors(state):
        kind, x, y = state
        if kind == "T":
            for b in data.base_symbols:
                lb = l_of[b]
                yield (b, EPSILON), ("T", tuple(x[p] for p in lb), y)
                yield (EPSILON, b), ("T", x, tuple(y[p] for p in lb))
            for a, b in iproduct(elements, repeat=2):
                yield (a, b), ("I", x[pos[a]], y[pos[b]])
        else:
            for a in alphabet:
                action = data.internal if a in pos else data.right_action
                yield (a, EPSILON), ("I", pos[action[elements[x], a]], y)
                yield (EPSILON, a), ("I", x, pos[action[elements[y], a]])

    return ("T", identity, identity), successors


def _tracker_is_final(state):
    return state[0] == "I" and state[1] == state[2]


def ideal_extension_by_branch(wp, data):
    """Reference for ideal_extension: one search from a start state that
    branches silently into ("S", q), the reachable states of the S
    automaton copied one by one, and into all_trackers."""
    wp = as_async(wp)
    alphabet = Alphabet(wp.left.symbols + data.elements)
    start, trackers = all_trackers(data, alphabet)

    def successors(state):
        if state[0] == "start":
            yield (EPSILON, EPSILON), ("S", wp.initial)
            yield (EPSILON, EPSILON), start
        elif state[0] == "S":
            for t in wp.by_src.get(state[1], ()):
                yield (t.left, t.right), ("S", t.dst)
        else:
            yield from trackers(state)

    def is_final(state):
        if state[0] == "S":
            return state[1] in wp.finals
        return _tracker_is_final(state)

    n, finals, trans = _explore(("start",), successors, is_final)
    return TwoTapeAutomaton(n, alphabet, alphabet, 0, finals, trans)


def ideal_extension_all_trackers(wp, data):
    """ideal_extension as the union of trim(WP_S) with all_trackers, useful
    or not: trimming it gives ideal_extension's text whenever trim(WP_S)
    has a final state."""
    wp = as_async(wp)
    alphabet = Alphabet(wp.left.symbols + data.elements)
    n, finals, trans = _explore(*all_trackers(data, alphabet),
                                _tracker_is_final)
    trackers = TwoTapeAutomaton(n, alphabet, alphabet, 0, finals, trans)
    return union(trim(replace(wp, left=alphabet, right=alphabet)), trackers)


def transitions_by_items(n_states, tapes, transitions, mode=None):
    """Reference for the transition check of TwoTapeAutomaton (mode
    "async" or "sync") and OneTapeAutomaton (mode None), one transition at
    a time: each one not yet a record is made one, then every record's
    source, target and labels are checked in that order, and then a sync
    automaton's padding discipline from initial state 0
    (padding_fault_by_search). Returns the records, or raises the
    InputError that names the first fault."""
    record = NfaTransition if mode is None else Transition
    allowed = [{EPSILON, *tape} for tape in tapes]
    records = tuple(t if type(t) is record else record(*t)
                    for t in transitions)
    for src, *labels, dst in records:
        for q, what in ((src, "source"), (dst, "target")):
            if not (isinstance(q, int) and 0 <= q < n_states):
                raise InputError(f"transition {what} {q} out of range for "
                                 f"{n_states} states")
        for lab, known in zip(labels, allowed):
            try:
                if lab in known:
                    continue
            except TypeError:
                pass
            raise InputError(f"unknown symbol {lab!r}")
    fault = mode == "sync" and padding_fault_by_search(0, records)
    if fault:
        raise InputError(fault)
    return records


def first_non_associative(product):
    """Reference for MultiplicationTable's associativity check: the first
    triple (i, j, k) in lexicographic order with (i j) k != i (j k), or
    None if there is none."""
    n = len(product)
    for i, j, k in iproduct(range(n), repeat=3):
        if product[product[i][j]][k] != product[i][product[j][k]]:
            return i, j, k
    return None


def moore_block_count(aut):
    """The number of classes of states that accept the same pairs, in a
    two-tape automaton with at most one transition per state and label
    pair: blocks split, from final against non-final, by the blocks each
    label pair leads to, until no block splits."""
    block = {q: q in aut.finals for q in range(aut.n_states)}
    count = len(set(block.values()))
    while True:
        out = {q: set() for q in range(aut.n_states)}
        for t in aut.transitions:
            out[t.src].add((t.left, t.right, block[t.dst]))
        signature = {q: (block[q], frozenset(out[q])) for q in block}
        ids = {}
        block = {q: ids.setdefault(sig, len(ids))
                 for q, sig in signature.items()}
        if len(ids) == count:
            return count
        count = len(ids)


def moore_pair_blocks(table, xs):
    """Reference for constructions._kernel_blocks: Moore's partition
    refinement of the pairs (s, t) of S^1, S with an adjoined identity 1,
    under the steps (s x, t) and (s, t x) for x in xs. Blocks split, from
    final (s = t != 1) against non-final, by the blocks the steps lead to,
    until no block splits. A non-final sink, whose steps all lead to
    itself, is refined with the pairs: its block holds the pairs that
    never step to a final one. Returns (blocks of the pairs, the sink's
    block)."""
    one = len(table)

    def mul1(s, x):
        return x if s == one else table.product[s][x]

    rows = {(s, t): [(mul1(s, x), t) for x in xs]
            + [(s, mul1(t, x)) for x in xs]
            for s, t in iproduct(range(one + 1), repeat=2)}
    rows["sink"] = ["sink"] * 2 * len(xs)
    block = {p: p != "sink" and p[0] == p[1] != one for p in rows}
    count = len(set(block.values()))
    while True:
        ids = {}
        block = {p: ids.setdefault((block[p], *(block[q] for q in row)),
                                   len(ids))
                 for p, row in rows.items()}
        if len(ids) == count:
            return block, block.pop("sink")
        count = len(ids)


def eps_right_cycle_edges_by_closure(aut):
    """Reference for analysis._eps_right_cycle_edges: the transitions u ->
    v reading nothing on the right with (v, u) in the reflexive and
    transitive closure of such edges, the closure grown by joining two of
    its pairs until it no longer changes."""
    eps = [t for t in aut.transitions if t.right is EPSILON]
    closure = {(q, q) for q in range(aut.n_states)}
    closure |= {(t.src, t.dst) for t in eps}
    while True:
        joined = {(a, d) for a, b in closure for c, d in closure if b == c}
        if joined <= closure:
            return {t for t in eps if (t.dst, t.src) in closure}
        closure |= joined


def all_reachable(aut):
    """Is every state reachable from the initial state?"""
    succ = {}
    for t in aut.transitions:
        succ.setdefault(t.src, set()).add(t.dst)
    seen = {aut.initial}
    todo = [aut.initial]
    while todo:
        for q in succ.get(todo.pop(), ()):
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return len(seen) == aut.n_states


def useful_states(aut):
    """Reference for the states trim keeps: those reachable from the
    initial state and reaching a final state, each set grown over the
    transitions until it no longer changes."""
    reach, coreach = {aut.initial}, set(aut.finals)
    changed = True
    while changed:
        changed = False
        for t in aut.transitions:
            if t[0] in reach and t[-1] not in reach:
                reach.add(t[-1])
                changed = True
            if t[-1] in coreach and t[0] not in coreach:
                coreach.add(t[0])
                changed = True
    return reach & coreach


def trim_by_fixpoint(aut):
    """Reference for trim, without words: the useful states
    (useful_states) renumbered in their old order, and the transitions
    between them in their old order; the one-state automaton without
    final states or transitions if the initial state is not useful."""
    useful = sorted(useful_states(aut))
    if aut.initial not in useful:
        return replace(aut, n_states=1, initial=0, finals=frozenset(),
                       transitions=())
    new = {old: i for i, old in enumerate(useful)}
    return replace(
        aut, n_states=len(useful), initial=new[aut.initial],
        finals=frozenset(new[f] for f in aut.finals if f in new),
        transitions=tuple((new[t[0]], *t[1:-1], new[t[-1]])
                          for t in aut.transitions
                          if t[0] in new and t[-1] in new))


def _label_token(lab, sync=False):
    if lab is EPSILON:
        return "#" if sync else "-"
    return lab


def dumps_fsa_per_transition(aut):
    """Reference for dumps_fsa: each transition's line written on its
    own, a label through _label_token, which writes a sync automaton's
    epsilon as the pad '#'."""
    sync = getattr(aut, "mode", None) == "sync"
    lines = []
    if isinstance(aut, OneTapeAutomaton):
        lines.append("type: nfa")
        lines.append("alphabet: " + " ".join(aut.alphabet.symbols))
    else:
        lines.append(f"type: {aut.mode}")
        lines.append("left: " + " ".join(aut.left.symbols))
        lines.append("right: " + " ".join(aut.right.symbols))
    lines.append(f"states: {aut.n_states}")
    lines.append(f"initial: {aut.initial}")
    lines.append("final: " + " ".join(str(f) for f in sorted(aut.finals)))
    for t in aut.transitions:
        if isinstance(t, NfaTransition):
            lines.append(f"trans: {t.src} {_label_token(t.label)} {t.dst}")
        else:
            lines.append(
                f"trans: {t.src} {_label_token(t.left, sync)}"
                f" {_label_token(t.right, sync)} {t.dst}"
            )
    return "\n".join(lines) + "\n"


def accepted_pairs(aut, bound):
    """Reference for the accepted pairs of an automaton with both words of
    length <= bound: a search over (state, left word, right word) that
    follows silent transitions as they are, without eliminating them. For
    a sync automaton, which keeps the padding discipline, every run reads
    its pair with the shorter word padded, each pad an epsilon."""
    start = (aut.initial, (), ())
    seen = {start}
    todo = [start]
    accepted = set()
    while todo:
        q, v, w = todo.pop()
        if q in aut.finals:
            accepted.add((v, w))
        for t in aut.transitions:
            if t.src != q:
                continue
            nv = v if t.left is EPSILON else v + (t.left,)
            nw = w if t.right is EPSILON else w + (t.right,)
            node = (t.dst, nv, nw)
            if len(nv) <= bound and len(nw) <= bound and node not in seen:
                seen.add(node)
                todo.append(node)
    return accepted


def accepting_run_per_step(form, v, w):
    """Reference for automata._accepting_run on the pair (v, w) of a form
    of _search_form: the same breadth-first search, each node walking all
    of its state's steps of _code_steps in order and testing both digits
    of each against the next symbols (None past the end of a word and at
    a symbol outside the alphabet, which no step reads)."""
    steps = form._code_steps
    dv = [*map(form.left._digits.get, v), None]
    dw = [*map(form.right._digits.get, w), None]
    start = (form.initial, 0, 0)
    parent = {start: None}
    queue = [start]
    for node in queue:  # the list grows while it is walked
        q, i, j = node
        if i == len(v) and j == len(w) and q in form.finals:
            run = []
            while node is not None:
                run.append(node)
                node = parent[node]
            return run[::-1]
        for dl, dr, dst in steps[q]:
            if dl and dl != dv[i] or dr and dr != dw[j]:
                continue
            nxt = (dst, i + (dl > 0), j + (dr > 0))
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return None


def verify_all_pairs(aut, oracle, bound):
    """Reference for verify: every pair of the oracle's words up to the
    bound, tested for acceptance and for oracle equality."""
    accepted = enumerate_accepted(aut, bound)
    words = oracle.words(bound)
    class_of = oracle.class_of
    disagreements = []
    for v in words:
        cv = class_of[v]
        for w in words:
            if ((v, w) in accepted) != (cv == class_of[w]):
                disagreements.append((v, w))
    key = oracle.alphabet.word_key
    disagreements.sort(key=lambda p: (key(p[0]), key(p[1])))
    return disagreements


def pump_refute_per_pair(aut, oracle, bound, i_max=5, max_witnesses=5):
    """Reference for pump_refute: the long accepted pairs in shortlex
    order, each decomposed by its own run search (pump_decompose), each
    pumped pair compared through Oracle.equal."""
    n0 = pumping_constant(aut)
    max_len = oracle.bound + oracle.slack
    left, right = aut.left.word_key, aut.right.word_key
    witnesses = []
    for v, w in sorted(enumerate_accepted(aut, bound),
                       key=lambda p: (left(p[0]), right(p[1]))):
        if len(v) + len(w) <= n0:
            continue
        if not oracle.includes_empty and (not v or not w):
            continue
        dec = pump_decompose(aut, (v, w))
        for i in range(i_max + 1):
            pv, pw = dec.pumped(i)
            if len(pv) > max_len or len(pw) > max_len:
                continue
            if not oracle.includes_empty and (not pv or not pw):
                continue
            if not oracle.equal(pv, pw):
                witnesses.append(((v, w), i, (pv, pw)))
                break
        if len(witnesses) >= max_witnesses:
            break
    verdict = "refuted" if witnesses else "not-refuted"
    return Report("pump_refute", verdict, tuple(witnesses))


def congruence_check_all_contexts(aut, bound, kind="semigroup"):
    """Reference for congruence_check: every accepted pair in shortlex
    order under every two-sided context (x, y) that fits the bound, the
    contexts by |x|, then x, then |y|, then y, all in shortlex order. For
    kind "semigroup" only pairs of nonempty words are accepted."""
    accepted = enumerate_accepted(aut, bound)
    if kind == "semigroup":
        accepted = {(v, w) for v, w in accepted if v and w}
    key = aut.left.word_key
    words_of_len = {}
    for w in aut.left.words(bound, min_len=0):
        words_of_len.setdefault(len(w), []).append(w)
    for v, w in sorted(accepted, key=lambda p: (key(p[0]), key(p[1]))):
        budget = bound - max(len(v), len(w))
        for lx in range(budget + 1):
            for x in words_of_len.get(lx, ()):
                for ly in range(budget - lx + 1):
                    for y in words_of_len.get(ly, ()):
                        if not x and not y:
                            continue
                        if (x + v + y, x + w + y) not in accepted:
                            return Report(
                                "congruence_check", "fail",
                                (("context", (v, w), (x, y)),))
    return Report("congruence_check", "pass")


def equivalence_check_by_words(aut, bound, kind="semigroup"):
    """Reference for equivalence_check, on words: reflexivity over the
    words up to the bound in shortlex order, then symmetry over the
    accepted pairs in shortlex order, then transitivity: the first pair
    missing inside a connected component of the accepted pairs, the
    components in order of least member, each walked row by row. For kind
    "semigroup" only nonempty words count."""
    min_len = 0 if kind == "monoid" else 1
    words = list(aut.left.words(bound, min_len=min_len))
    key = aut.left.word_key
    accepted = sorted(((v, w) for v, w in enumerate_accepted(aut, bound)
                       if len(v) >= min_len and len(w) >= min_len),
                      key=lambda p: (key(p[0]), key(p[1])))
    related = set(accepted)
    for v in words:
        if (v, v) not in related:
            return Report("equivalence_check", "fail", (("reflexivity", v),))
    for v, w in accepted:
        if (w, v) not in related:
            return Report("equivalence_check", "fail",
                          (("symmetry", v, w),))
    linked = {}
    for v, w in accepted:
        linked.setdefault(v, set()).add(w)
    done = set()
    for u in words:
        if u in done:
            continue
        component, todo = {u}, [u]
        while todo:
            for x in linked.get(todo.pop(), ()):
                if x not in component:
                    component.add(x)
                    todo.append(x)
        done |= component
        members = sorted(component, key=key)
        for v in members:
            for w in members:
                if (v, w) not in related:
                    return Report("equivalence_check", "fail",
                                  (("transitivity", v, w),))
    return Report("equivalence_check", "pass")


def validate_cross_section_by_words(d, oracle, bound):
    """Reference for validate_cross_section: each oracle class up to the
    bound, by class id, must meet D, and meet it as often as its part up
    to bound - 1 does, membership tested by d.accepts word by word."""
    prev_classes = oracle.classes(bound - 1) if bound > 0 else {}
    witnesses = []
    for cid, members in sorted(oracle.classes(bound).items()):
        hits = sum(1 for w in members if d.accepts(w))
        if not hits:
            witnesses.append(("missing", members[0]))
        elif cid in prev_classes:
            prev_hits = sum(1 for w in prev_classes[cid] if d.accepts(w))
            if prev_hits != hits:
                witnesses.append(("growing", members[0], prev_hits, hits))
    verdict = "pass" if not witnesses else "fail"
    return Report("validate_cross_section", verdict, tuple(witnesses))


def closure_oracle_by_words(presentation, bound, slack=None,
                            word_cap=DEFAULT_WORD_CAP):
    """Reference for build_oracle, on words: at slack s, every word up to
    bound + s is scanned for each side of each relation, and each single
    rewrite to a word up to bound + s joins two classes. With slack=None,
    s grows from 0 until the classes of the words up to the bound stop
    changing, up to DEFAULT_SLACK_SEARCH. Classes are numbered in order of
    first appearance over the words in shortlex order."""
    if bound < 1:
        raise InputError("bound must be >= 1")
    alphabet = presentation.generators
    min_len = 0 if presentation.kind == "monoid" else 1
    rules = [rule for lhs, rhs in presentation.expanded_relations()
             for rule in ((lhs, rhs), (rhs, lhs))]

    def class_of(s):
        n_words = sum(len(alphabet) ** n
                      for n in range(min_len, bound + s + 1))
        if n_words > word_cap:
            raise InputError(
                f"word count {n_words} at slack {s} exceeds the cap {word_cap}"
            )
        words = list(alphabet.words(bound + s, min_len=min_len))
        root = {w: w for w in words}

        def find(w):
            while root[w] != w:
                w = root[w]
            return w

        for w in words:
            for lhs, rhs in rules:
                for start in range(len(w) - len(lhs) + 1):
                    if w[start:start + len(lhs)] == lhs:
                        other = w[:start] + rhs + w[start + len(lhs):]
                        if other in root:
                            root[find(other)] = find(w)
        ids = {}
        return {w: ids.setdefault(find(w), len(ids)) for w in words}

    converged = None
    if slack is None:
        prev = None
        for slack in range(DEFAULT_SLACK_SEARCH + 1):
            classes = class_of(slack)
            head = [classes[w]
                    for w in alphabet.words(bound, min_len=min_len)]
            converged = head == prev
            if converged:
                break
            prev = head
    else:
        classes = class_of(slack)
    return oracle_from_words(alphabet, presentation.kind, bound, slack,
                             classes, converged)


def oracle_from_words(alphabet, kind, bound, slack, class_of,
                      converged=None):
    """The Oracle of class_of, a dict from each word up to bound + slack
    (the empty word too for kind "monoid") to its class id: its class
    table lists the ids in shortlex order of the words, after None for the
    empty word of a semigroup."""
    min_len = 0 if kind == "monoid" else 1
    words = alphabet.words(bound + slack, min_len=min_len)
    return Oracle(alphabet, kind, bound, slack,
                  (None,) * min_len + tuple(class_of[w] for w in words),
                  converged)
