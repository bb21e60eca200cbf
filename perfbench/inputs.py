"""Input files of the workloads, written as text without ratwp.

A seed only reorders what does not change the work: the rows of the T3
table (construct) and the transition lines of the mutant automaton.
"""

from reference import T3_GENERATORS, ideal_symbols, t3_elements, t3_mul

FIG_SGP = {
    "fig1": "kind: semigroup\ngens: a b\n",
    "fig2": "kind: semigroup\ngens: a b\nschema: a b^n a = a b a ; n = 2..10\n",
    "fig3": "kind: semigroup\ngens: a b\nrel: a a = a\nrel: b a = b\n",
}

C2_TBL = "elements: 1 g\nrow: 1 g\nrow: g 1\n"

T3_GENS = ",".join(T3_GENERATORS)

# Named generators of T3 x fig3: symbol -> (T3 generator, fig3 letter).
PRODUCT_PAIRS = {"x": ("t", "a"), "y": ("c", "b"), "z": ("r", "a")}
PRODUCT_PAIRS_ARG = ",".join(f"{s}={g}:{l}" for s, (g, l) in PRODUCT_PAIRS.items())

# fig3 plus one transition reading b on the left alone: it accepts (ab, aaa),
# so it over-accepts and pump_refute must refute it (acceptance criterion 8).
_MUTANT_TRANS = ("0 a a 1", "0 b b 1", "1 b b 1", "1 a - 1", "1 - a 1", "1 b - 1")


def t3_tbl(rng=None):
    """Multiplication table of the full transformation monoid on 3 points,
    rows and columns in a seeded order, or in lexicographic order of the
    maps without a generator."""
    names = t3_elements()
    order = sorted(names)
    if rng is not None:
        rng.shuffle(order)
    lines = ["elements: " + " ".join(names[m] for m in order)]
    for x in order:
        lines.append("row: " + " ".join(names[t3_mul(x, y)] for y in order))
    return "\n".join(lines) + "\n"


def left_zero_ideal_tbl(k):
    """[ideal] section of the left-zero ideal of size k over fig3 (see
    reference.left_zero_ideal_nf): a acts as the identity, b as a shift."""
    els = ideal_symbols(k)
    shifted = els[1:] + els[:1]
    lines = ["[ideal]", "elements: " + " ".join(els), "base: a b",
             "left: a " + " ".join(els), "left: b " + " ".join(shifted),
             "right: a " + " ".join(els), "right: b " + " ".join(els)]
    lines += [f"prod: {e} " + " ".join([e] * k) for e in els]
    return "\n".join(lines) + "\n"


def fig3_mutant_fsa(rng):
    trans = list(_MUTANT_TRANS)
    rng.shuffle(trans)
    head = ["type: async", "left: a b", "right: a b", "states: 2",
            "initial: 0", "final: 1"]
    return "\n".join(head + ["trans: " + t for t in trans]) + "\n"


def write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
