"""Word equality and automaton acceptance computed without ratwp.

Every check the benchmark makes compares what ratwp produced with these
functions. Nothing here imports ratwp: a fault in the package cannot hide
itself by also sitting in its reference.

A normal-form function maps a word (a tuple of symbols) to a hashable value;
two words are equal in the semigroup exactly when their values are equal.
"""

from itertools import product

# --- fig1, fig2, fig3 ------------------------------------------------------


def fig1_nf(w):
    """Free semigroup on {a, b}: a word is its own normal form."""
    return tuple(w)


def fig2_nf(w):
    """<a, b | a b^n a = a b a, n >= 2>: every run of b's that lies between
    two a's collapses to a single b; runs at either end stay as they are."""
    out = []
    i, n = 0, len(w)
    while i < n:
        if w[i] != "b":
            out.append(w[i])
            i += 1
            continue
        j = i
        while j < n and w[j] == "b":
            j += 1
        internal = i > 0 and j < n
        out.extend(("b",) if internal else w[i:j])
        i = j
    return tuple(out)


def fig3_nf(w):
    """<a, b | aa = a, ba = b>: the classes are a^d b^k with d in {0, 1}, so
    a word is fixed by whether it starts with a and by its number of b's."""
    return (w[0] == "a", sum(1 for s in w if s == "b"))


# --- extensions of fig3 ----------------------------------------------------


def adjoin_zero_nf(base_nf, zero):
    """S with a zero adjoined: any word containing the zero is the zero."""
    def nf(w):
        return ("0",) if zero in w else ("S", base_nf(w))
    return nf


def ideal_symbols(k):
    return tuple(f"u{i}" for i in range(k))


def left_zero_ideal_nf(k):
    """fig3 extended by the left-zero ideal {u0, ..., u(k-1)}.

    In I every product x*y is x, I*a = I*b is the identity on I, a acts on
    I from the left as the identity and b as the shift u_i -> u_(i+1 mod k).
    A word whose first ideal letter is u_i, preceded by a prefix with m b's,
    therefore has the value u_((i + m) mod k); a word without ideal letters
    has its fig3 value.
    """
    ideal = {s: i for i, s in enumerate(ideal_symbols(k))}

    def nf(w):
        for pos, s in enumerate(w):
            if s in ideal:
                shift = sum(1 for x in w[:pos] if x == "b")
                return ("I", (ideal[s] + shift) % k)
        return ("S", fig3_nf(w))
    return nf


# --- finite semigroups -----------------------------------------------------

T3_GENERATORS = ("t", "c", "r")
T3_GENERATOR_MAPS = {
    "t": (1, 0, 2),   # transposition (0 1)
    "c": (1, 2, 0),   # 3-cycle 0 -> 1 -> 2 -> 0
    "r": (0, 0, 2),   # rank-2 idempotent, 1 -> 0
}


def t3_elements():
    """The 27 maps {0,1,2} -> {0,1,2}, named: e for the identity, the
    generator letters for the generators, m<images> for the rest."""
    names = {(0, 1, 2): "e"}
    names.update({m: g for g, m in T3_GENERATOR_MAPS.items()})
    maps = list(product(range(3), repeat=3))
    return {m: names.get(m, "m" + "".join(map(str, m))) for m in maps}


def t3_mul(x, y):
    """x then y: the product convention of the .tbl files (row * column)."""
    return tuple(y[x[i]] for i in range(3))


def t3_value(w):
    """Value in T3 of a nonempty word over the generator letters."""
    acc = T3_GENERATOR_MAPS[w[0]]
    for s in w[1:]:
        acc = t3_mul(acc, T3_GENERATOR_MAPS[s])
    return acc


def c2_value(w):
    """C2 = {1, g} generated by g: the parity of the word's length."""
    return len(w) % 2


def product_nf(pairs):
    """T3 x fig3 on named generator pairs {symbol: (T3 generator, fig3
    letter)}: both projections must agree."""
    def nf(w):
        left = tuple(pairs[s][0] for s in w)
        right = tuple(pairs[s][1] for s in w)
        return (t3_value(left), fig3_nf(right))
    return nf


def zero_union_nf(s_nf, s_letters, t_nf, t_letters, zero):
    """S u0 T: a word containing the zero, or letters of both factors, is
    the zero; any other word keeps its value in its own factor."""
    s_letters, t_letters = set(s_letters), set(t_letters)

    def nf(w):
        letters = set(w)
        if zero in letters or (letters & s_letters and letters & t_letters):
            return ("0",)
        if letters <= s_letters:
            return ("S", s_nf(w))
        return ("T", t_nf(w))
    return nf


def free_product_nf(factors):
    """Semigroup free product: the sequence of maximal one-factor blocks,
    each reduced in its own factor. `factors` is a list of (letters, nf)."""
    owner = {}
    for idx, (letters, _) in enumerate(factors):
        for s in letters:
            owner[s] = idx

    def nf(w):
        blocks = []
        start = 0
        for i in range(1, len(w) + 1):
            if i == len(w) or owner[w[i]] != owner[w[start]]:
                idx = owner[w[start]]
                blocks.append((idx, factors[idx][1](w[start:i])))
                start = i
        return tuple(blocks)
    return nf


# --- words and relations -----------------------------------------------------


def words(alphabet, max_len, min_len=1):
    for n in range(min_len, max_len + 1):
        yield from product(alphabet, repeat=n)


def equal_pairs(nf, alphabet, max_len):
    """All pairs of nonempty words up to max_len with equal normal forms."""
    classes = {}
    for w in words(alphabet, max_len):
        classes.setdefault(nf(w), []).append(w)
    return {(v, w) for members in classes.values()
            for v in members for w in members}


def partition_matches(class_of, nf, alphabet, max_len):
    """Does the map word -> class id induce the same partition as nf on the
    nonempty words up to max_len?"""
    by_class, by_nf = {}, {}
    for w in words(alphabet, max_len):
        c, v = class_of[w], nf(w)
        if by_class.setdefault(c, v) != v or by_nf.setdefault(v, c) != c:
            return False
    return True


# --- .fsa files ---------------------------------------------------------------

EPSILON_TOKEN = "-"
PAD_TOKEN = "#"


def fsa_header(path):
    """(states, transitions) of an .fsa file, counted from its text."""
    states = transitions = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("trans:"):
                transitions += 1
            elif line.startswith("states:"):
                states = int(line.split(":", 1)[1].split("#")[0])
    return states, transitions


def read_two_tape_fsa(path):
    """Parse a two-tape .fsa file: (mode, left, right, initial, finals,
    transitions), labels None for the silent token."""
    mode = left = right = None
    initial, finals, trans = 0, frozenset(), []
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, rest = line.split(":", 1)
            if name == "trans":
                src, a, b, dst = rest.split()[:4]
                label = [None if x == EPSILON_TOKEN else x for x in (a, b)]
                trans.append((int(src), label[0], label[1], int(dst)))
                continue
            rest = rest.split("#", 1)[0].strip()
            if name == "type":
                mode = rest
            elif name == "left":
                left = tuple(rest.split())
            elif name == "right":
                right = tuple(rest.split())
            elif name == "initial":
                initial = int(rest)
            elif name == "final":
                finals = frozenset(int(x) for x in rest.split())
    if mode not in ("async", "sync"):
        raise ValueError(f"{path}: not a two-tape automaton")
    return mode, left, right, initial, finals, trans


def accepted_pairs(path, max_len):
    """Pairs of words up to max_len that the automaton in an .fsa file
    accepts, by a search over (state, left word, right word, padded tapes).

    In a synchronous automaton the padding token ends its tape: it reads
    nothing, and only padding may follow it on that tape.
    """
    mode, _, _, initial, finals, trans = read_two_tape_fsa(path)
    sync = mode == "sync"
    by_src = {}
    for src, a, b, dst in trans:
        by_src.setdefault(src, []).append((a, b, dst))
    start = (initial, (), (), False, False)
    seen = {start}
    stack = [start]
    out = set()
    while stack:
        q, v, w, v_end, w_end = stack.pop()
        if q in finals:
            out.add((v, w))
        for a, b, dst in by_src.get(q, ()):
            nv, nw, nv_end, nw_end = v, w, v_end, w_end
            if sync and a == PAD_TOKEN:
                nv_end = True
            elif a is not None:
                if v_end:
                    continue
                nv = v + (a,)
            if sync and b == PAD_TOKEN:
                nw_end = True
            elif b is not None:
                if w_end:
                    continue
                nw = w + (b,)
            if len(nv) > max_len or len(nw) > max_len:
                continue
            node = (dst, nv, nw, nv_end, nw_end)
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return out
