"""Core value types for one- and two-tape finite state automata.

Two-tape automata come in two flavours sharing one carrier type: ``async``
automata read at most one symbol per tape per step (epsilon labels allowed),
``sync`` automata read exactly one symbol per tape per step, with a reserved
padding token standing in for the exhausted shorter tape; a sync automaton
is checked for the padding discipline when it is built.

All values are immutable after construction; every operation is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product, repeat
from typing import NamedTuple, Optional

EPSILON = None          # tape label meaning "read nothing"
EPSILON_TOKEN = "-"     # how epsilon is written in .fsa files
PAD = "#"               # padding token used by sync automata

Label = Optional[str]
Word = tuple  # tuple of symbol tokens


class InputError(ValueError):
    """Malformed input: bad file, unknown symbol, invalid argument."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered, finite set of symbol tokens."""

    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        seen = set()
        for s in self.symbols:
            if not isinstance(s, str) or not s or any(c.isspace() for c in s):
                raise InputError(f"bad symbol token {s!r}")
            if s == EPSILON_TOKEN or PAD in s:  # '#' starts a file comment
                raise InputError(f"symbol token {s!r} is reserved")
            if s in seen:
                raise InputError(f"duplicate symbol {s!r}")
            seen.add(s)

    def __contains__(self, sym):
        return sym in self.symbols

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def index(self, sym):
        return self.symbols.index(sym)

    @cached_property
    def _digits(self):
        """Symbol -> index + 1, its digit in _pair_coding's word codes."""
        return {s: d for d, s in enumerate(self.symbols, 1)}

    @cached_property
    def _symbol_set(self):
        """The symbols as a frozenset, for the set test of accepts()."""
        return frozenset(self.symbols)

    def word_key(self, w):
        """Sort key: length first, then position in the alphabet."""
        return (len(w), tuple(self.symbols.index(s) for s in w))

    def words(self, max_len, min_len=1):
        """All words with min_len <= length <= max_len, shortlex order."""
        for n in range(min_len, max_len + 1):
            for w in product(self.symbols, repeat=n):
                yield w


class Transition(NamedTuple):
    src: int
    left: Label
    right: Label
    dst: int


class NfaTransition(NamedTuple):
    src: int
    label: Label
    dst: int


def _check_state(i, n, what):
    if not (isinstance(i, int) and 0 <= i < n):
        raise InputError(f"{what} {i} out of range for {n} states")


def _check_label(lab, allowed):
    """Raise InputError unless lab is in allowed, its tape's labels."""
    try:
        if lab in allowed:
            return
    except TypeError:  # an unhashable label
        pass
    if lab is EPSILON:
        raise InputError("sync automaton may not have epsilon labels")
    raise InputError(f"unknown symbol {lab!r}")


def _checked_transitions(aut, record, labels):
    """The automaton's transitions as records of type record, after its
    states are checked and every transition is: a state below n_states,
    then one label per tape from that tape's set in labels, then a state.

    Transitions that are all records are kept as they are; otherwise all
    are converted in bulk, a record to an equal record.
    Validity is decided on whole columns: the type of every state (1.0
    and 1 are one set element), the range of the distinct states and each
    tape's set of labels. Only when that check fails (an unhashable field
    fails it too) are the transitions walked one by one, to raise the
    InputError that names the first bad field.
    """
    n = aut.n_states
    if not isinstance(n, int):
        raise InputError(f"state count {n!r} is not an integer")
    _check_state(aut.initial, n, "initial state")
    for f in aut.finals:
        _check_state(f, n, "final state")
    trans = tuple(aut.transitions)
    if not trans:
        return trans
    if set(map(type, trans)) != {record}:
        width = len(record._fields)
        try:
            fits = set(map(len, trans)) == {width}
        except TypeError:  # a transition without a length
            fits = False
        if not fits:
            bad = next(t for t in trans
                       if not hasattr(t, "__len__") or len(t) != width)
            raise InputError(f"transition {bad!r} needs {width} fields")
        trans = tuple(map(tuple.__new__, repeat(record), trans))
    src, *labs, dst = zip(*trans)
    try:
        states = {*src, *dst}
        valid = ({*map(type, src), *map(type, dst)} == {int}
                 and min(states) >= 0 and max(states) < n
                 and all(set(col) <= tape for col, tape in zip(labs, labels)))
    except TypeError:  # an unhashable field
        valid = False
    if not valid:
        for src, *labs, dst in trans:
            _check_state(src, n, "transition source")
            _check_state(dst, n, "transition target")
            for lab, tape in zip(labs, labels):
                _check_label(lab, tape)
    return trans


@dataclass(frozen=True)
class TwoTapeAutomaton:
    """Asynchronous or synchronous two-tape automaton."""

    n_states: int
    left: Alphabet
    right: Alphabet
    initial: int
    finals: frozenset
    transitions: tuple
    mode: str = "async"

    def __post_init__(self):
        object.__setattr__(self, "finals", frozenset(self.finals))
        if self.mode not in ("async", "sync"):
            raise InputError(f"unknown mode {self.mode!r}")
        # a tape's labels: its symbols, and epsilon (async) or pad (sync)
        extra = EPSILON if self.mode == "async" else PAD
        object.__setattr__(self, "transitions", _checked_transitions(
            self, Transition, ({extra, *self.left}, {extra, *self.right})))
        if self.mode == "sync":
            _check_padding(self)

    def accepts(self, left_word, right_word):
        return accepts_two_tape(self, left_word, right_word)

    # Derived values, computed on first use and kept with the frozen value.
    # Callers must not mutate them.

    @cached_property
    def by_src(self):
        """State -> tuple of the transitions leaving it."""
        by_src = {}
        for t in self.transitions:
            by_src.setdefault(t.src, []).append(t)
        return {q: tuple(ts) for q, ts in by_src.items()}

    @cached_property
    def _code_steps(self):
        """The per-state step table of _pair_coding and _read_steps, for
        a form of _search_form: it does not depend on the bound. Epsilon
        and a pad read nothing: multiplier 1, digit 0."""
        k_left, k_right = len(self.left), len(self.right)
        digit_left, digit_right = self.left._digits, self.right._digits
        steps = [[] for _ in range(self.n_states)]
        for t in self.transitions:
            dl = digit_left.get(t.left, 0)
            dr = digit_right.get(t.right, 0)
            steps[t.src].append((k_left if dl else 1, dl,
                                 k_right if dr else 1, dr, t.dst))
        return steps

    @cached_property
    def _read_steps(self):
        """The per-state step table of _search, read off _code_steps: a
        dict keyed by the next left and right symbol (x, y), None past the
        end of a word, of the steps that fit them as (reads left, reads
        right, target), in _code_steps order. A step that reads nothing on
        a tape fits every key there, None included."""
        left, right = (None, *self.left), (None, *self.right)
        table = []
        for out in self._code_steps:
            row = {}
            for _, dl, _, dr, dst in out:
                step = (dl > 0, dr > 0, dst)
                for x in (left[dl],) if dl else left:
                    for y in (right[dr],) if dr else right:
                        row.setdefault((x, y), []).append(step)
            table.append({key: tuple(fit) for key, fit in row.items()})
        return table

    @cached_property
    def _acceptor(self):
        """The search form's _read_steps, initial state and finals, as
        _search reads them; not the form: a sync automaton is its own
        form, and keeping it on itself would be a reference cycle."""
        form = _search_form(self)
        return form._read_steps, form.initial, form.finals

    @cached_property
    def _reads_to_final(self):
        """Per state, the fewest left reads, the fewest right reads and the
        fewest reads in all on a path to a final state, as three lists
        (None where no final state is reachable), read off _code_steps:
        for a form that _pair_coding walks, where every step reads on one
        tape or on both. It does not depend on the bound."""
        # the sources of the steps into each state, by the tapes they read
        left_only, right_only, both = into = [
            [[] for _ in range(self.n_states)] for _ in range(3)]
        for src, out in enumerate(self._code_steps):
            for _, dl, _, dr, dst in out:
                into[2 if dl and dr else 0 if dl else 1][dst].append(src)
        return (
            _fewest_reads(self.finals,
                          ((1, left_only), (0, right_only), (1, both))),
            _fewest_reads(self.finals,
                          ((0, left_only), (1, right_only), (1, both))),
            _fewest_reads(self.finals,
                          ((1, left_only), (1, right_only), (2, both))))

    @property
    def silent_free(self):
        """eliminate_silent_steps(self), computed once."""
        form = self._silent_free_form
        return self if form is None else form

    @cached_property
    def _silent_free_form(self):
        """eliminate_silent_steps(self), or None when that is the automaton
        itself: an automaton kept on itself would be a reference cycle."""
        form = eliminate_silent_steps(self)
        return None if form is self else form

    @property
    def trimmed(self):
        """trim(self), computed once."""
        form = self._trimmed_form
        return self if form is None else form

    @cached_property
    def _trimmed_form(self):
        """trim(self), or None when that is the automaton itself."""
        form = trim(self)
        return None if form is self else form


@dataclass(frozen=True)
class OneTapeAutomaton:
    """NFA with silent transitions."""

    n_states: int
    alphabet: Alphabet
    initial: int
    finals: frozenset
    transitions: tuple

    def __post_init__(self):
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "transitions", _checked_transitions(
            self, NfaTransition, ({EPSILON, *self.alphabet},)))

    def accepts(self, word):
        return accepts_one_tape(self, word)

    @cached_property
    def relation_view(self):
        """The language L as the relation L x {ε}: a two-tape automaton
        with an empty right alphabet, each transition reading nothing on
        the right. Kept with the frozen value; callers must not mutate it."""
        return TwoTapeAutomaton(
            self.n_states, self.alphabet, Alphabet(()), self.initial,
            self.finals, tuple((t.src, t.label, EPSILON, t.dst)
                               for t in self.transitions))


def as_word(text_or_tokens, alphabet=None, tokens=False):
    """Turn a string or iterable of tokens into a word (tuple of tokens).

    By default a plain string is read character by character; with
    tokens=True it is split on whitespace.
    """
    if isinstance(text_or_tokens, str):
        w = tuple(text_or_tokens.split()) if tokens else tuple(text_or_tokens)
    else:
        w = tuple(text_or_tokens)
    if alphabet is not None:
        _check_word(w, alphabet)
    return w


def _check_word(word, alphabet, tape=""):
    """Raise InputError naming the first symbol of word outside alphabet."""
    for s in word:
        if s not in alphabet:
            raise InputError(f"symbol {s!r} not in {tape}alphabet")


def accepts_two_tape(aut, left_word, right_word):
    """Does an accepting computation project to the given pair? Each word
    is checked by one set test against its tape's symbols; only a failed
    test (or an unhashable symbol) walks the words, left before right, to
    raise the InputError that names the first symbol outside its tape."""
    v, w = tuple(left_word), tuple(right_word)
    try:
        known = (aut.left._symbol_set.issuperset(v)
                 and aut.right._symbol_set.issuperset(w))
    except TypeError:  # an unhashable symbol
        known = False
    if not known:
        _check_word(v, aut.left, "left ")
        _check_word(w, aut.right, "right ")
    return _search(aut._acceptor, (*v, None), (*w, None)) is not None


def _search(acceptor, v, w):
    """The run search of the form whose _acceptor is given, on the pair
    (v, w), each a tuple of the word's symbols and then None, the end
    marker: the first accepting node (state, |v| read, |w| read) with the
    parent map back to the start, or None. Breadth-first over the nodes;
    a node takes the steps of _read_steps keyed by its next two symbols,
    in _code_steps order. A symbol outside the alphabet keys none, so no
    run reads past it. Every step reads a symbol, so the search is finite.
    """
    steps, initial, finals = acceptor
    nv, nw = len(v) - 1, len(w) - 1
    start = (initial, 0, 0)
    parent = {start: None}
    queue = [start]
    for node in queue:  # the list grows while it is walked
        q, i, j = node
        if i == nv and j == nw and q in finals:
            return node, parent
        for reads_left, reads_right, dst in steps[q].get((v[i], w[j]), ()):
            nxt = (dst, i + reads_left, j + reads_right)
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return None


def _accepting_run(form, v, w):
    """A shortest accepting run of a form of _search_form on the words v
    and w, each ending in None (see _search), as its nodes, or None."""
    found = _search(form._acceptor, v, w)
    if found is None:
        return None
    node, parent = found
    run = []
    while node is not None:
        run.append(node)
        node = parent[node]
    return run[::-1]


def accepts_one_tape(aut, word):
    """Is the word accepted? A run search on (word, ε) in the relation
    view, after the set test of accepts_two_tape on the word."""
    v = tuple(word)
    try:
        known = aut.alphabet._symbol_set.issuperset(v)
    except TypeError:  # an unhashable symbol
        known = False
    if not known:
        _check_word(v, aut.alphabet)
    found = _search(aut.relation_view._acceptor, (*v, None), (None,))
    return found is not None


def _is_silent(t):
    """Does a transition of either kind read nothing on every tape? Its
    labels are the fields between src and dst, and states are never None."""
    return t.count(EPSILON) == len(t) - 2


def _reachable(seeds, adj):
    """The nodes reachable from the seeds (included) along adj, which
    gives the successors of every node it reaches: a list indexed by
    state, or a dict."""
    reach = set(seeds)
    todo = list(reach)
    while todo:
        for r in adj[todo.pop()]:
            if r not in reach:
                reach.add(r)
                todo.append(r)
    return reach


def _silent_closure(aut):
    """Per state, the states reachable from it by silent transitions."""
    eps = [set() for _ in range(aut.n_states)]
    for t in aut.transitions:
        if _is_silent(t):
            eps[t.src].add(t.dst)
    return [frozenset(_reachable((q,), eps)) for q in range(aut.n_states)]


def eliminate_silent_steps(aut):
    """Remove (epsilon, epsilon) transitions without changing the language.

    States with a silent path to a final state become final themselves;
    non-silent transitions are pulled back through silent closures.
    """
    if not any(_is_silent(t) for t in aut.transitions):
        return aut
    closure = _silent_closure(aut)
    by_src = aut.by_src
    new_trans = []
    seen = set()
    for q in range(aut.n_states):
        for r in closure[q]:
            for t in by_src.get(r, ()):
                if _is_silent(t):
                    continue
                key = (q, t.left, t.right, t.dst)
                if key not in seen:
                    seen.add(key)
                    new_trans.append(key)
    new_finals = frozenset(
        q for q in range(aut.n_states) if closure[q] & aut.finals
    )
    return replace(aut, finals=new_finals, transitions=tuple(new_trans))


def trim(aut):
    """Keep exactly the states lying on some initial-to-final path, for
    one- and two-tape automata alike; an automaton that is already trim
    is returned as it is.

    If the language is empty only the initial state survives, with no
    final states.
    """
    n = aut.n_states
    succ, pred = [[] for _ in range(n)], [[] for _ in range(n)]
    for t in aut.transitions:
        src, dst = t.src, t.dst
        succ[src].append(dst)
        pred[dst].append(src)
    useful = _reachable((aut.initial,), succ) & _reachable(aut.finals, pred)
    if len(useful) == n or (n == 1 and not aut.transitions):
        return aut  # every state useful, or the empty language's one state
    if aut.initial not in useful:
        return replace(aut, n_states=1, initial=0, finals=frozenset(),
                       transitions=())
    remap = {old: new for new, old in enumerate(sorted(useful))}
    trans = tuple((remap[t[0]], *t[1:-1], remap[t[-1]])
                  for t in aut.transitions if t[0] in remap and t[-1] in remap)
    return replace(aut, n_states=len(remap), initial=remap[aut.initial],
                   finals=frozenset(remap[f] for f in aut.finals
                                    if f in remap), transitions=trans)


def _explore(start, successors, is_final):
    """Breadth-first construction of the part of an automaton reachable
    from `start`.

    States are any hashable values; successors(state) yields the labels of
    a transition followed by its target state, and is_final(state) says
    whether a state accepts. States are numbered in discovery order, the
    start state being 0, so the same inputs always give the same numbering.
    Returns (state count, finals, transitions as (src, *labels, dst)).
    """
    index = {start: 0}
    order = [start]
    trans = []
    for src, state in enumerate(order):
        for *labels, nxt in successors(state):
            dst = index.get(nxt)
            if dst is None:
                dst = index[nxt] = len(order)
                order.append(nxt)
            trans.append((src, *labels, dst))
    finals = frozenset(i for i, state in enumerate(order) if is_final(state))
    return len(order), finals, tuple(trans)


def determinize(aut):
    """Powerset construction; the result is silent-free and has at most one
    transition per (state, symbol)."""
    closure = _silent_closure(aut)
    by_src = {}
    for t in aut.transitions:
        if t.label is not EPSILON:
            by_src.setdefault(t.src, []).append(t)

    def successors(subset):
        targets = {}
        for q in subset:
            for t in by_src.get(q, ()):
                targets.setdefault(t.label, set()).update(closure[t.dst])
        for sym in sorted(targets, key=aut.alphabet.index):
            yield sym, frozenset(targets[sym])

    n, finals, trans = _explore(closure[aut.initial], successors,
                                lambda subset: subset & aut.finals)
    return OneTapeAutomaton(n, aut.alphabet, 0, finals, trans)


def swap_tapes(aut):
    """Reverse the relation: (v, w) accepted iff (w, v) was."""
    return replace(aut, left=aut.right, right=aut.left, transitions=tuple(
        (src, right, left, dst) for src, left, right, dst in aut.transitions))


def union(first, *rest):
    """Accept the union of the parts' languages, for one or more one-tape
    or two-tape automata over the same tapes.

    A fresh initial state 0 has a silent branch into each part; the parts'
    states follow it in order, each part's shifted past those before. The
    branches come first among the transitions, then each part's own. Sync
    automata are viewed as async.
    """
    parts = [_as_async(p) for p in (first, *rest)]
    tapes = _tapes(parts[0])
    if any(_tapes(p) != tapes for p in parts[1:]):
        raise InputError("union requires identical alphabets on every tape")
    silent = (EPSILON,) * len(tapes)
    branches, trans, finals, off = [], [], set(), 1
    for aut in parts:
        branches.append((0, *silent, aut.initial + off))
        trans += ((t[0] + off, *t[1:-1], t[-1] + off)
                  for t in aut.transitions)
        finals.update(f + off for f in aut.finals)
        off += aut.n_states
    return replace(parts[0], n_states=off, initial=0,
                   finals=frozenset(finals),
                   transitions=tuple(branches + trans))


def _tapes(aut):
    """The alphabets of an automaton's tapes, in tape order."""
    if isinstance(aut, OneTapeAutomaton):
        return (aut.alphabet,)
    return (aut.left, aut.right)


def enumerate_accepted(aut, len_bound):
    """All accepted pairs with both words of length <= len_bound, as a set."""
    codes, decode = _accepted_codes(aut, len_bound)
    return {decode(c) for c in codes}


def _accepted_codes(aut, len_bound):
    """The accepted pairs with both words of length <= len_bound, as a set
    of integer codes, and the function that decodes one code to its pair.

    A layered search: the (state, v, w) that runs reach are grouped by
    (state, |v|, |w|), each group a set of pair codes. Every step of the
    form _pair_coding reads a symbol, so a group only grows from groups
    of smaller |v| + |w|; the groups are expanded in order of |v| + |w|,
    each complete when it is expanded and dropped after. A step is applied
    to a whole group at once, mapping p = code(v) R + code(w) to a p + b
    (p mod R) + c, and only where it can still reach a final state within
    the bound (_node_limits).
    """
    aut, lim_right, steps, decode = _pair_coding(aut, len_bound)
    limits = _node_limits(aut, len_bound)
    moves = [[(dl > 0, dr > 0, ml, mr - ml, dl * lim_right + dr, dst)
              + limits[dst] for ml, dl, mr, dr, dst in out if limits[dst]]
             for out in steps]
    finals = aut.finals
    layers = [{} for _ in range(2 * len_bound + 1)]
    layers[0][aut.initial, 0, 0] = {0}
    accepted = set()
    for total in range(2 * len_bound + 1):
        # taken out of the list, so a step that read nothing would fail
        layer, layers[total] = layers[total], None
        while layer:
            (q, i, j), codes = layer.popitem()
            if q in finals:
                accepted |= codes
            for (reads_left, reads_right, a, b, c, dst,
                 max_i, max_j, max_total) in moves[q]:
                ni, nj = i + reads_left, j + reads_right
                if ni > max_i or nj > max_j or ni + nj > max_total:
                    continue
                if b:
                    new = {a * p + b * (p % lim_right) + c for p in codes}
                else:
                    new = {a * p + c for p in codes}
                group = layers[ni + nj].setdefault((dst, ni, nj), new)
                if group is not new:
                    group |= new
    return accepted, decode


def _accepted_cells(aut, len_bound):
    """The accepted pairs with both words of length <= len_bound as bit
    masks, one per cell (|v|, |w|) that holds one: (cells, stride, decode),
    decode as in _pair_coding.

    Inside a cell a word is coded by its place among the words of its
    length, with its first symbol as the least significant digit: the word
    of digits d_0 ... d_(n-1) (index + 1) is at sum (d_t - 1) k^t, so
    appending digit d to a word of length n adds (d - 1) k^n. The pair
    (v, w) is bit v S + w of its cell's mask, S the stride.
    A step of a group (state, |v|, |w|) out of cell (i, j) then moves every
    pair of the group by one shift, (d - 1) k^i S for a left digit d plus
    (d - 1) k^j for a right digit d: the search is _accepted_codes' with
    one mask per group in place of a set of codes, and a cell's mask is the
    union of its final groups.
    """
    aut, _, steps, decode = _pair_coding(aut, len_bound)
    # the words of length len_bound on the right, rounded up to whole
    # bytes: a row of a cell is a whole number of bytes
    stride = -(-len(aut.right) ** len_bound // 8) * 8
    # what a read adds to the shift, per length before it
    left_unit = [len(aut.left) ** i * stride for i in range(len_bound + 1)]
    right_unit = [len(aut.right) ** j for j in range(len_bound + 1)]
    limits = _node_limits(aut, len_bound)
    moves = [[(dl > 0, dr > 0, dl and dl - 1, dr and dr - 1, dst)
              + limits[dst] for _, dl, _, dr, dst in out if limits[dst]]
             for out in steps]
    finals = aut.finals
    layers = [{} for _ in range(2 * len_bound + 1)]
    layers[0][aut.initial, 0, 0] = 1
    cells = {}
    for total in range(2 * len_bound + 1):
        # taken out of the list, so a step that read nothing would fail
        layer, layers[total] = layers[total], None
        while layer:
            (q, i, j), mask = layer.popitem()
            if q in finals:
                cells[i, j] = cells.get((i, j), 0) | mask
            unit_i, unit_j = left_unit[i], right_unit[j]
            for (reads_left, reads_right, xl, xr, dst,
                 max_i, max_j, max_total) in moves[q]:
                ni, nj = i + reads_left, j + reads_right
                if ni > max_i or nj > max_j or ni + nj > max_total:
                    continue
                shift = xl * unit_i + xr * unit_j
                target, key = layers[ni + nj], (dst, ni, nj)
                target[key] = target.get(key, 0) | mask << shift
    return cells, stride, decode


def _cell_codes(k, len_bound):
    """Per length n <= len_bound, the shortlex codes (_pair_coding) of the
    words of length n over k symbols, by their place in a cell
    (_accepted_cells): the word u s of length n + 1 is at place(u) + (d -
    1) k^n with code(u) k + d, d = index(s) + 1."""
    codes = [[0]]
    for _ in range(len_bound):
        shorter = codes[-1]
        codes.append([c * k + d for d in range(1, k + 1) for c in shorter])
    return codes


def _node_limits(aut, len_bound):
    """Per state q of a form of _search_form, the limits of a node (q, v,
    w) that can still reach a final state within the bound: (max |v|, max
    |w|, max |v| + |w|), the bound (twice it for the sum) less the fewest
    reads from q to a final state (_reads_to_final); None where q reaches
    none. Steps into such a state are dropped: a node over a limit, and
    every node it leads to, cannot reach a final state within the bound."""
    return [None if total is None
            else (len_bound - left, len_bound - right, 2 * len_bound - total)
            for left, right, total in zip(*aut._reads_to_final)]


def _pair_coding(aut, len_bound):
    """The integer coding of the pair searches, _accepted_codes and
    _accepted_cells.

    A word over k symbols is coded in bijective base k: the empty word is
    0 and code(w s) = code(w) k + index(s) + 1, so codes count the words
    in shortlex order and a word is within the bound iff its code is below
    the number of such words (_code_limit). The pair (v, w) is code(v) R +
    code(w), R being that number for the right tape, so pair codes sort
    like (word_key(v), word_key(w)).

    Returns (form, lim_right, steps, decode): form is _search_form(aut),
    lim_right the code limit of the right tape, steps[q] the transitions
    out of q as (multiplier, digit) per tape and the target (reading s
    multiplies by k and adds index(s) + 1; epsilon and a pad multiply by 1
    and add 0; only the digit tells whether a step reads, since k may be
    1), in transition order and kept on the form (_code_steps), and
    decode(code) the pair of a pair code.
    """
    if len_bound < 0:
        raise InputError("bound must be >= 0")
    aut = _search_form(aut)
    lim_right = _code_limit(len(aut.right), len_bound)
    decode_left = _word_decoder(aut.left)
    decode_right = _word_decoder(aut.right)

    def decode(code):
        v, w = divmod(code, lim_right)
        return decode_left(v), decode_right(w)

    return aut, lim_right, aut._code_steps, decode


def _search_form(aut):
    """The form the run and pair searches walk, every step reading a
    symbol: a sync automaton itself, else the silent-free form (see
    silent_free)."""
    return aut if aut.mode == "sync" else aut.silent_free


def _fewest_reads(finals, into):
    """Per state, the fewest symbols read on a path to a final state, or
    None where there is none: Dial's algorithm, a bucket per distance,
    run backwards from the finals. into is a sequence of (reads, sources),
    sources[q] listing the sources of steps into q that read that many
    symbols."""
    dist = [None] * len(into[0][1])
    buckets = [list(finals)]
    for d, bucket in enumerate(buckets):  # both lists grow while walked
        for q in bucket:
            if dist[q] is not None:
                continue
            dist[q] = d
            for reads, sources in into:
                if sources[q]:
                    while len(buckets) <= d + reads:
                        buckets.append([])
                    buckets[d + reads] += sources[q]
    return dist


def _code_limit(k, len_bound):
    """The number of words of length <= len_bound over k symbols: the
    bijective base-k codes of those words are exactly the ints below it."""
    return sum(k ** i for i in range(len_bound + 1))


def _word_decoder(alphabet):
    """The word of a bijective base-k code (see _pair_coding), with a
    memo shared by every call of the returned function."""
    symbols, k = alphabet.symbols, len(alphabet)
    memo = {0: ()}

    def decode(code):
        word = memo.get(code)
        if word is None:
            prefix, digit = divmod(code - 1, k)
            word = memo[code] = decode(prefix) + (symbols[digit],)
        return word

    return decode


def enumerate_language(aut, len_bound):
    """All accepted words of length <= len_bound of a one-tape automaton:
    the left words of the pairs its relation view accepts."""
    return {v for v, _ in enumerate_accepted(aut.relation_view, len_bound)}


def validate_sync(aut):
    """aut, which must be a sync automaton. Its padding discipline was
    checked when it was built (_check_padding)."""
    if aut.mode != "sync":
        raise InputError("not a sync automaton")
    return aut


def _check_padding(aut):
    """The check every sync automaton passes when it is built: raise
    InputError at the first break of the padding discipline. Along any
    path from the initial state, once a pad is read on a tape, only pads
    may follow on that tape; pads on both tapes at once are never allowed.

    Decided in bulk on state sets: if no state that a transition enters
    by a pad on a tape leaves by a symbol on that tape, every state reached
    after a pad there is such a state, so the discipline holds. Otherwise
    the (state, left padded, right padded) search names the first break,
    or passes if no break lies on a path from the initial state."""
    trans = aut.transitions
    if any(t.left == PAD and t.right == PAD for t in trans):
        raise InputError("transition padded on both tapes")
    for tape in (1, 2):  # the label fields of a Transition
        entered = {t.dst for t in trans if t[tape] == PAD}
        if not entered.isdisjoint([t.src for t in trans if t[tape] != PAD]):
            _first_padding_fault(aut)
            return


def _first_padding_fault(aut):
    """Raise InputError at the first break of the padding discipline that
    a search over (state, left padded, right padded) nodes reaches."""
    by_src = aut.by_src
    seen = {(aut.initial, False, False)}
    stack = [(aut.initial, False, False)]
    while stack:
        q, lpad, rpad = stack.pop()
        for t in by_src.get(q, ()):
            if lpad and t.left != PAD:
                raise InputError(
                    f"non-pad left label after padding at state {t.src}"
                )
            if rpad and t.right != PAD:
                raise InputError(
                    f"non-pad right label after padding at state {t.src}"
                )
            node = (t.dst, lpad or t.left == PAD, rpad or t.right == PAD)
            if node not in seen:
                seen.add(node)
                stack.append(node)


def sync_to_async(aut):
    """View a sync automaton as an async one: pad labels become epsilon."""
    validate_sync(aut)
    trans = tuple(
        (src, EPSILON if left == PAD else left,
         EPSILON if right == PAD else right, dst)
        for src, left, right, dst in aut.transitions)
    return replace(aut, transitions=trans, mode="async")


def _as_async(aut):
    """A sync automaton viewed as async, for the operations that build an
    async automaton from it; any other automaton unchanged."""
    return sync_to_async(aut) if getattr(aut, "mode", None) == "sync" else aut
