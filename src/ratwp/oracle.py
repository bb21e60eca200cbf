"""Ground-truth word equality at bounded length.

For presentations this is a congruence closure over the codes of all words
up to bound + slack: two words are merged whenever one rewrites to the
other by a single application of a defining relation within that set,
each found by code arithmetic, not by scanning words.
Merges only ever apply defining relations, so equality claims are sound;
completeness is handled by growing the slack until a step joins no two
classes of words of the queried lengths. The union-find keeps every root
the least code of its class, so that is a comparison of two roots with
the queried lengths' code limit, and the classes are numbered in one
forward pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from types import MappingProxyType

from .automata import (
    Alphabet,
    InputError,
    _accepted_cells,
    _accepted_codes,
    _cell_codes,
    _code_limit,
    as_word,
)

DEFAULT_WORD_CAP = 2_000_000
DEFAULT_SLACK_SEARCH = 4
# the fewest bits a member of a set of ints costs, against one bit per pair
# in a mask: verify's rule for which comparison runs
_SET_BITS_PER_MEMBER = 64


class _UnionFind:
    """Union-find over the ints below n whose every root is the least code
    of its class, so parent[x] <= x for every x."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:  # path halving
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def ids(self, first, end):
        """The class ids of the codes in [first, end), numbered in order of
        first appearance, in one forward pass: once every code below c is
        passed, parent[parent[c]] is c's root, since parent[c] <= c."""
        parent = self.parent
        for c in range(first):
            parent[c] = parent[parent[c]]
        ids, n = [-1] * end, 0  # id by code, -1 until numbered
        for c in range(first, end):
            root = parent[c] = parent[parent[c]]
            i = ids[root]
            if i < 0:
                i = ids[root] = n
                n += 1
            ids[c] = i
        return ids[first:]


@dataclass(frozen=True)
class Oracle:
    """Frozen partition of bounded words into equality classes."""

    alphabet: Alphabet
    kind: str
    bound: int
    slack: int
    # class id by bijective shortlex word code (automata._pair_coding), for
    # the words up to bound + slack; None at 0, the empty word, if excluded
    class_by_code: tuple
    # did the slack search settle? True when a growth step left the words
    # up to the bound as they were (or for a table, which is exact), False
    # when it stopped at DEFAULT_SLACK_SEARCH, None for a given slack
    converged: bool | None = None

    @property
    def includes_empty(self):
        return self.kind == "monoid"

    @cached_property
    def class_of(self):
        """Read-only word -> class id view of class_by_code."""
        first = 0 if self.includes_empty else 1
        return MappingProxyType(dict(zip(self.words(self.bound + self.slack),
                                         self.class_by_code[first:])))

    def words(self, max_len=None):
        max_len = self.bound if max_len is None else max_len
        if max_len > self.bound + self.slack:
            raise InputError("query beyond the oracle's bound")
        min_len = 0 if self.includes_empty else 1
        return list(self.alphabet.words(max_len, min_len=min_len))

    def equal(self, v, w):
        ids = []
        for word in (tuple(v), tuple(w)):
            if len(word) > self.bound + self.slack:
                raise InputError(f"word of length {len(word)} exceeds oracle bound")
            if not word and not self.includes_empty:
                raise InputError("semigroup oracle does not accept the empty word")
            ids.append(self.class_by_code[_code(word, self.alphabet)])
        return ids[0] == ids[1]

    def classes(self, max_len=None):
        """Class id -> members of length <= max_len (default: bound), in
        shortlex order."""
        first = 0 if self.includes_empty else 1
        out = {}
        for w, c in zip(self.words(max_len), self.class_by_code[first:]):
            out.setdefault(c, []).append(w)
        return out


def _code(word, alphabet):
    """A word's bijective base-k code (see automata._pair_coding), by
    Horner's rule over its digits. Only a symbol outside the alphabet (or
    an unhashable one) is looked for again, by as_word, to name it."""
    digits = alphabet._digits
    k, code = len(digits), 0
    try:
        for d in map(digits.__getitem__, word):
            code = code * k + d
    except (KeyError, TypeError):
        as_word(word, alphabet)
        raise
    return code


def _relation_pairs(presentation):
    """(max(|l|, |r|), |l|, code(l), |r|, code(r)) of each relation pair
    {l, r}, l != r, once; a pair with a non-generator rewrites nothing."""
    alphabet = presentation.generators
    return [(max(len(l), len(r)), len(l), _code(l, alphabet), len(r),
             _code(r, alphabet))
            for l, r in {tuple(sorted(rel))
                         for rel in presentation.expanded_relations()
                         if rel[0] != rel[1]
                         and set(rel[0] + rel[1]) <= set(alphabet)}]


def _add_length(uf, pairs, k, n, first, end):
    """Union x l y with x r y for each pair {l, r} and |x| + |y| + max(|l|,
    |r|) = n, by code(x l y) = (code(x) k^|l| + code(l)) k^|y| + code(y),
    leaving out an edge from a code below `first`, not a word. True if some
    union joined two classes with roots below `end`: classes that hold a
    word of code below `end`, as every root is its class's least code."""
    parent = uf.parent
    starts = [0]  # the codes of length i are [starts[i], starts[i + 1])
    for i in range(n + 1):
        starts.append(starts[-1] + k ** i)
    merged = False
    for m, len_l, code_l, len_r, code_r in pairs:
        t = n - m  # |x| + |y|
        if t < 0 or (t == 0 and min(code_l, code_r) < first):
            continue
        shift_l, shift_r = k ** len_l, k ** len_r
        for i in range(t + 1):  # |x| = i, |y| = j
            j = t - i
            ys = range(starts[j], starts[j + 1])
            scale = k ** j
            for x in range(starts[i], starts[i + 1]):
                a = (x * shift_l + code_l) * scale
                b = (x * shift_r + code_r) * scale
                for y in ys:
                    # find both roots by path halving, then link the larger
                    # under the smaller
                    u, v = a + y, b + y
                    while parent[u] != u:
                        parent[u] = u = parent[parent[u]]
                    while parent[v] != v:
                        parent[v] = v = parent[parent[v]]
                    if u < v:
                        parent[v] = u
                        if v < end:
                            merged = True
                    elif v < u:
                        parent[u] = v
                        if u < end:
                            merged = True
    return merged


def build_oracle(presentation, bound, slack=None, word_cap=DEFAULT_WORD_CAP):
    """Congruence-closure oracle for a presentation.

    With slack=None the slack is grown until a growth step joins no two
    classes of words up to the bound, so that partition did not change, or
    up to DEFAULT_SLACK_SEARCH. One union-find is grown a length at a time
    (_add_length), so the search costs as much as its final slack. Every
    root of the union-find is its class's least code, so a class holds a
    word up to the bound exactly when its root is below that bound's code
    limit, and a growth step changes the partition of those words exactly
    when it joins two such roots.

    Classes are numbered in order of first appearance over the words in
    shortlex order, in one pass (_UnionFind.ids), so a class's id is the
    shortlex rank of its least member among the least members of all
    classes, and the ids of the words up to the bound are a prefix of the
    ids of all words.
    """
    if bound < 1:
        raise InputError("bound must be >= 1")
    alphabet = presentation.generators
    pairs = _relation_pairs(presentation)
    first = 0 if presentation.kind == "monoid" else 1  # the least word code
    k = len(alphabet)
    end = _code_limit(k, bound)
    uf = _UnionFind(1)  # the empty word's code, 0
    max_len = 0

    def grow(s):
        """Grow the closure to the words up to bound + s; True if that
        joined two classes of words up to the bound."""
        nonlocal max_len
        n_words = _code_limit(k, bound + s) - first
        if n_words > word_cap:
            raise InputError(
                f"word count {n_words} at slack {s} exceeds the cap {word_cap}"
            )
        merged = False
        while max_len < bound + s:
            max_len += 1
            uf.parent.extend(range(len(uf.parent), _code_limit(k, max_len)))
            merged = _add_length(uf, pairs, k, max_len, first, end) or merged
        return merged

    converged = None
    if slack is None:
        grow(0)
        for slack in range(1, DEFAULT_SLACK_SEARCH + 1):
            converged = not grow(slack)
            if converged:
                break
    else:
        grow(slack)
    return Oracle(alphabet, presentation.kind, bound, slack,
                  (None,) * first + tuple(uf.ids(first, len(uf.parent))),
                  converged)


def table_oracle(table, gens, bound=8, kind="semigroup"):
    """Oracle for an explicit finite semigroup: a word's class is its value
    in the table, one product per word code, by code(u s) = code(u) k +
    index(s) + 1. More words up to the bound than DEFAULT_WORD_CAP,
    counted as build_oracle counts them, are refused before any is
    coded."""
    if bound < 1:
        raise InputError("bound must be >= 1")
    gens = tuple(gens)
    gen_map = table.generator_indices(gens, kind)
    values = [gen_map[g] for g in gens]
    product = table.product
    k = len(gens)
    lim = _code_limit(k, bound)
    n_words = lim if kind == "monoid" else lim - 1  # the empty word's code 0
    if n_words > DEFAULT_WORD_CAP:
        raise InputError(
            f"word count {n_words} exceeds the cap {DEFAULT_WORD_CAP}")
    ids = [table.identity_index() if kind == "monoid" else None]
    for code in range(1, lim):
        prefix, d = divmod(code - 1, k)
        ids.append(product[ids[prefix]][values[d]] if prefix else values[d])
    return Oracle(Alphabet(gens), kind, bound, 0, tuple(ids), True)


def verify(aut, oracle, bound):
    """All pairs of the oracle's words up to the bound where automaton
    acceptance and oracle equality disagree, sorted by word_key; empty
    means verified at this bound.

    The oracle's kind fixes the words compared: a monoid oracle's words
    include the empty word, so an accepted pair with an empty side is
    reported when the oracle calls it unequal; a semigroup oracle has no
    empty word, and accepted pairs with an empty side are ignored. A
    semigroup oracle has no word up to bound 0, so that bound is an error.

    Two comparisons give the same list, the masks of _cell_disagreements
    and the sets of _set_disagreements; the input picks one (_comparison).
    Both work on pair codes (automata._pair_coding), and only the reported
    pairs are decoded to words.
    """
    if bound < 1 and not oracle.includes_empty:
        raise InputError("bound must be >= 1")
    if bound > oracle.bound + oracle.slack:
        raise InputError("verification bound exceeds the oracle bound")
    _check_alphabets(oracle, aut.left, aut.right)
    first, lim, n_equal, masks = _comparison(oracle, bound)
    if masks:
        codes, decode = _cell_disagreements(aut, oracle, bound, first, lim)
    else:
        codes, decode = _set_disagreements(aut, oracle, bound, first, lim,
                                           n_equal)
    # pair codes sort like (word_key(v), word_key(w))
    return [decode(p) for p in sorted(codes)]


def _comparison(oracle, bound):
    """(first, lim, n_equal, masks) of the oracle's words up to the bound:
    their codes are those in [first, lim), n_equal of their lim^2 pairs
    are equal (sum |class|^2), and masks says whether the bit masks of
    _accepted_cells are compared rather than the set of _accepted_codes.

    A mask spends one bit per pair, a set at least 64 bits per member, so
    the masks are taken when lim^2 <= 64 n_equal (a dense relation: T3 at
    bound 5 has lim^2 / n_equal = 16, fig3 at bound 8 has 10), the sets
    otherwise (fig1 and fig2 at bound 9 have 1024 and 305, where masks
    measured 2.7 and 1.3 times slower)."""
    lim = _code_limit(len(oracle.alphabet), bound)
    first = 0 if oracle.includes_empty else 1  # the first word code compared
    n_equal = _equal_pairs(oracle.class_by_code, first, lim)
    return first, lim, n_equal, lim * lim <= _SET_BITS_PER_MEMBER * n_equal


def _over_accepted(aut, oracle, bound):
    """Whether the automaton accepts a pair of the oracle's words up to the
    bound that the oracle calls unequal, that is whether verify would
    report an accepted pair, on verify's comparison: the masks stop at the
    first cell that holds one, the sets make their one pass. Nothing is
    decoded."""
    first, lim, _, masks = _comparison(oracle, bound)
    if masks:
        cells, stride, _ = _accepted_cells(aut, bound)
        equal = _equal_masks(oracle.class_by_code,
                             _cell_codes(len(oracle.alphabet), bound), stride)
        return any(mask & ~equal(i, j) for (i, j), mask in cells.items()
                   if i >= first and j >= first)
    accepted, _ = _accepted_codes(aut, bound)
    return bool(_split_accepted(accepted, oracle.class_by_code, first,
                                lim)[0])


def _split_accepted(accepted, class_by_code, first, lim):
    """(unequal, n_related) over the pair codes p = v lim + w of `accepted`
    with v and w in [first, lim): unequal lists those whose words' classes
    differ, n_related counts the others. One comprehension over all of
    `accepted`: an excluded empty word's class is None, unequal to every
    class, so a pair with one empty side lands in it and is filtered out
    after, and (e, e), with two, is counted out."""
    differ = [p for p in accepted
              if class_by_code[p // lim] != class_by_code[p % lim]]
    unequal = [p for p in differ if p // lim >= first and p % lim >= first]
    return unequal, len(accepted) - len(differ) - (first and 0 in accepted)


def _set_disagreements(aut, oracle, bound, first, lim, n_equal):
    """verify's disagreements as pair codes, and their decoder, from the
    set of _accepted_codes and the oracle's class_by_code. Costs one pass
    over the accepted pairs plus, only when some of the n_equal equal
    pairs is not accepted, the sum of |class|^2."""
    accepted, decode = _accepted_codes(aut, bound)
    class_by_code = oracle.class_by_code
    disagreements, n_related = _split_accepted(accepted, class_by_code,
                                               first, lim)
    disagreements += _missing_pairs(class_by_code, first, lim, accepted,
                                    n_related, n_equal)
    return disagreements, decode


def _cell_disagreements(aut, oracle, bound, first, lim):
    """verify's disagreements as pair codes, and their decoder, cell by
    cell (|v|, |w|) on the bit masks of _accepted_cells: where a cell's
    accepted and equal masks (_equal_masks) differ, the set bits of their
    XOR are the disagreements, mapped back to pair codes through
    _cell_codes."""
    cells, stride, decode = _accepted_cells(aut, bound)
    codes = _cell_codes(len(oracle.alphabet), bound)
    equal = _equal_masks(oracle.class_by_code, codes, stride)
    disagreements = []
    for i in range(first, bound + 1):
        for j in range(first, bound + 1):
            differ = cells.get((i, j), 0) ^ equal(i, j)
            if differ:
                left, right = codes[i], codes[j]
                for bit in _set_bits(differ):
                    v, w = divmod(bit, stride)
                    disagreements.append(left[v] * lim + right[w])
    return disagreements, decode


def _equal_masks(class_by_code, codes, stride):
    """equal(i, j), the mask of the equal pairs of cell (i, j) in the
    layout of _accepted_cells, codes being _cell_codes' and stride the
    cells' stride.

    The mask is built row by row: each word of length i contributes the
    row of the words of length j in its class, one bytes value per
    (length, class). Only the cells some class spans at both lengths have
    equal pairs."""
    row_bytes = stride // 8
    classes, columns = [], []  # per length: class by place, class -> row
    for by_place in codes:
        ids = [class_by_code[c] for c in by_place]
        rows = {}
        for place, c in enumerate(ids):
            rows.setdefault(c, bytearray(row_bytes))[place >> 3] |= (
                1 << (place & 7))
        classes.append(ids)
        columns.append({c: bytes(row) for c, row in rows.items()})
    empty_row = bytes(row_bytes)

    def equal(i, j):
        column = columns[j]
        if column.keys().isdisjoint(columns[i]):
            return 0
        return int.from_bytes(
            b"".join([column.get(c, empty_row) for c in classes[i]]),
            "little")

    return equal


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _set_bits(mask):
    """The indices of the set bits of a positive int, ascending."""
    return compress(count(), f"{mask:b}"[::-1].encode().translate(_BIT_VALUES))


def _check_alphabets(oracle, *alphabets):
    """Raise unless each alphabet is the oracle's, in the same order."""
    if any(alphabet != oracle.alphabet for alphabet in alphabets):
        raise InputError("automaton and oracle alphabets differ")


def _equal_pairs(class_ids, first, lim):
    """The number of pairs of codes in [first, lim) with equal class_ids:
    the sum of |class|^2."""
    return sum(size * size for size in Counter(class_ids[first:lim]).values())


def _missing_pairs(class_ids, first, lim, related, n_related, n_equal):
    """Yield the pair codes v lim + w not in `related` of the word codes v
    and w in [first, lim) with equal class_ids, class by class in order of
    least member, each class row by row. n_related counts the pairs of
    `related` inside a class and n_equal all pairs inside a class
    (_equal_pairs): when they are equal, every such pair is related and no
    class is walked."""
    if n_related == n_equal:
        return
    for members in _class_members(class_ids, first, lim).values():
        for v in members:
            row = v * lim
            for w in members:
                if row + w not in related:
                    yield row + w



def _class_members(class_ids, first, lim):
    """Class id -> its codes in [first, lim), ascending."""
    classes = {}
    for code in range(first, lim):
        classes.setdefault(class_ids[code], []).append(code)
    return classes
