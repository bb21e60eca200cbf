"""Closure operations on rational relations and regular languages."""

from __future__ import annotations

from dataclasses import replace

from .automata import (
    EPSILON,
    Alphabet,
    InputError,
    OneTapeAutomaton,
    TwoTapeAutomaton,
    _as_async,
    _explore,
    determinize,
    swap_tapes,
)


def compose(r, s):
    """Relational composition: (u, w) accepted iff some middle word x has
    (u, x) in r and (x, w) in s.

    Product construction on the reachable state pairs. An r-transition
    writing epsilon on the middle tape fires alone, an s-transition reading
    epsilon from the middle tape fires alone, and transitions agreeing on a
    middle symbol fire jointly.
    """
    r, s = _as_async(r), _as_async(s)
    if r.right != s.left:
        raise InputError("compose: r's right alphabet must equal s's left alphabet")
    r_by, s_by = r.by_src, s.by_src

    def successors(state):
        i, j = state
        for t in r_by.get(i, ()):
            if t.right is EPSILON:
                yield t.left, EPSILON, (t.dst, j)
                continue
            for u in s_by.get(j, ()):
                if u.left == t.right:
                    yield t.left, u.right, (t.dst, u.dst)
        for u in s_by.get(j, ()):
            if u.left is EPSILON:
                yield EPSILON, u.right, (i, u.dst)

    n, finals, trans = _explore(
        (r.initial, s.initial), successors,
        lambda state: state[0] in r.finals and state[1] in s.finals)
    # a silent step from a state to itself does nothing
    trans = tuple(t for t in trans
                  if t[0] != t[-1] or t[1:3] != (EPSILON, EPSILON))
    return TwoTapeAutomaton(n, r.left, s.right, 0, finals, trans)


def cross_product(l1, l2):
    """The rectangle L1 x L2 as a relation: read v on the left tape, then
    w on the right tape."""
    off = l1.n_states
    trans = [(src, lab, EPSILON, dst) for src, lab, dst in l1.transitions]
    for f in l1.finals:
        trans.append((f, EPSILON, EPSILON, l2.initial + off))
    for src, lab, dst in l2.transitions:
        trans.append((src + off, EPSILON, lab, dst + off))
    return TwoTapeAutomaton(
        n_states=l1.n_states + l2.n_states,
        left=l1.alphabet,
        right=l2.alphabet,
        initial=l1.initial,
        finals=frozenset(f + off for f in l2.finals),
        transitions=tuple(trans),
        mode="async",
    )


def fix_tape(r, v, side="left"):
    """Slice a relation at a fixed word.

    side="left" gives the language { w | (v, w) in r }, side="right" gives
    { w | (w, v) in r }: the free tape of r intersected with the rectangle
    {v} x A*.
    """
    r = _as_async(r)
    if side not in ("left", "right"):
        raise InputError(f"side must be 'left' or 'right', not {side!r}")
    if side == "right":
        r = swap_tapes(r)
    v = tuple(v)
    for sym in v:
        if sym not in r.left:
            raise InputError(f"symbol {sym!r} not in the fixed tape's alphabet")
    line = OneTapeAutomaton(len(v) + 1, r.left, 0, {len(v)},
                            [(i, sym, i + 1) for i, sym in enumerate(v)])
    anything = OneTapeAutomaton(1, r.right, 0, {0},
                                [(0, sym, 0) for sym in r.right])
    rect = intersect_rectangle(r, line, anything)
    return OneTapeAutomaton(rect.n_states, r.right, 0, rect.finals, tuple(
        (t.src, t.right, t.dst) for t in rect.transitions))


def intersect_rectangle(r, l, k):
    """Intersect a relation with the rectangle L x K of regular languages.

    L and K are determinized first so the tracking components stay
    silent-free; only the reachable product states are built.
    """
    r = _as_async(r)
    if l.alphabet != r.left:
        raise InputError("L must be over the relation's left alphabet")
    if k.alphabet != r.right:
        raise InputError("K must be over the relation's right alphabet")
    dl, dk = determinize(l), determinize(k)
    step_l = {(t.src, t.label): t.dst for t in dl.transitions}
    step_k = {(t.src, t.label): t.dst for t in dk.transitions}
    by_src = r.by_src

    def successors(state):
        q, i, j = state
        for t in by_src.get(q, ()):
            ni = i if t.left is EPSILON else step_l.get((i, t.left))
            nj = j if t.right is EPSILON else step_k.get((j, t.right))
            if ni is not None and nj is not None:
                yield t.left, t.right, (t.dst, ni, nj)

    n, finals, trans = _explore(
        (r.initial, dl.initial, dk.initial), successors,
        lambda state: (state[0] in r.finals and state[1] in dl.finals
                       and state[2] in dk.finals))
    return TwoTapeAutomaton(n, r.left, r.right, 0, finals, trans)


def _image_alphabet(alphabet, mapping):
    out = []
    for sym in alphabet:
        if sym not in mapping:
            raise InputError(f"relabel map is not total: missing {sym!r}")
        if mapping[sym] not in out:
            out.append(mapping[sym])
    return Alphabet(tuple(out))


def relabel(r, f_left, f_right):
    """Rewrite every transition label componentwise (epsilon maps to
    epsilon); accepts exactly the image relation."""
    r = _as_async(r)
    new_left = _image_alphabet(r.left, f_left)
    new_right = _image_alphabet(r.right, f_right)
    trans = tuple(
        (src, EPSILON if left is EPSILON else f_left[left],
         EPSILON if right is EPSILON else f_right[right], dst)
        for src, left, right, dst in r.transitions)
    return replace(r, left=new_left, right=new_right, transitions=trans)


def substitution_relation(alphabet, b, w):
    """Graph of the morphism that replaces every occurrence of the fresh
    symbol b by the word w and fixes all other symbols.

    Accepts exactly the pairs (v, v with b replaced by w) for v over
    alphabet + b.
    """
    if b in alphabet:
        raise InputError(f"symbol {b!r} already in the alphabet")
    w = tuple(w)
    if not w:
        raise InputError("replacement word must be nonempty")
    for sym in w:
        if sym not in alphabet:
            raise InputError(f"symbol {sym!r} not in the alphabet")
    n = len(w)
    extended = Alphabet(alphabet.symbols + (b,))
    trans = [(0, a, a, 0) for a in alphabet]
    for i, sym in enumerate(w):
        trans.append((i, EPSILON, sym, i + 1))
    trans.append((n, b, EPSILON, 0))
    return TwoTapeAutomaton(
        n_states=n + 1,
        left=extended,
        right=alphabet,
        initial=0,
        finals=frozenset({0}),
        transitions=tuple(trans),
        mode="async",
    )
