"""Finite descriptions of semigroups: presentations, multiplication tables,
and ideal data for the finite-ideal extension."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from operator import itemgetter

from .automata import Alphabet, InputError, _reachable


@dataclass(frozen=True)
class RelationSchema:
    """Parametric relation family, e.g. a b^n a = a b a for n in 2..10.

    Each side is a tuple of atoms; an atom is (symbol, power) where power
    is an int or the variable name.
    """

    lhs: tuple
    rhs: tuple
    var: str
    lo: int
    hi: int

    def expand(self):
        return [(self._side(self.lhs, n), self._side(self.rhs, n))
                for n in range(self.lo, self.hi + 1)]

    def _side(self, atoms, n):
        word = []
        for sym, power in atoms:
            k = n if power == self.var else power
            word.extend([sym] * k)
        return tuple(word)


@dataclass(frozen=True)
class Presentation:
    """Generators and defining relations of a semigroup or monoid."""

    kind: str
    generators: Alphabet
    relations: tuple = ()
    schemas: tuple = ()

    def __post_init__(self):
        if self.kind not in ("semigroup", "monoid"):
            raise InputError(f"unknown presentation kind {self.kind!r}")
        object.__setattr__(
            self, "relations",
            tuple((tuple(l), tuple(r)) for l, r in self.relations),
        )
        object.__setattr__(self, "schemas", tuple(self.schemas))
        for lhs, rhs in self.relations:
            for w in (lhs, rhs):
                if self.kind == "semigroup" and not w:
                    raise InputError("semigroup relations may not have empty sides")
                for sym in w:
                    if sym not in self.generators:
                        raise InputError(f"relation symbol {sym!r} not a generator")

    def expanded_relations(self):
        return [*self.relations, *(rel for schema in self.schemas
                                   for rel in schema.expand())]


@dataclass(frozen=True)
class MultiplicationTable:
    """Explicit finite semigroup: ordered element names and a total product."""

    elements: tuple
    product: tuple  # product[i][j] = index of elements[i] * elements[j]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(
            self, "product", tuple(tuple(row) for row in self.product)
        )
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise InputError("duplicate element names")
        if len(self.product) != n or any(len(row) != n for row in self.product):
            raise InputError("product table must be square")
        prod = self.product
        # the entries as one set, once every one is an int (a float equal
        # to an index would pass the set test)
        if not (all(issubclass(t, int)
                    for t in set(map(type, chain.from_iterable(prod))))
                and set().union(*prod) <= set(range(n))):
            raise InputError("product entry out of range")
        # Light's test: (x a) y = x (a y) for all x, y and each a of a set
        # whose left-normed products reach every element; times(x) is the
        # row x (a y), a tuple from two elements on (one is associative)
        if n < 2 or all(prod[row[a]] == times(row)
                        for a in _left_normed_basis(prod)
                        for times in (itemgetter(*prod[a]),) for row in prod):
            return
        for i, row_i in enumerate(prod):  # name the first (i j) k != i (j k)
            for j, ij in enumerate(row_i):
                left, right = prod[ij], tuple(row_i[jk] for jk in prod[j])
                if left != right:
                    k = next(k for k in range(n) if left[k] != right[k])
                    raise InputError(
                        "product is not associative at "
                        f"({self.elements[i]}, {self.elements[j]}, "
                        f"{self.elements[k]})"
                    )

    def __len__(self):
        return len(self.elements)

    def index(self, name):
        try:
            return self.elements.index(name)
        except ValueError:
            raise InputError(f"unknown element {name!r}") from None

    def identity_index(self):
        n = len(self.elements)
        for e in range(n):
            if all(self.product[e][i] == i == self.product[i][e] for i in range(n)):
                return e
        return None

    def fold(self, word, gen_map):
        """Value of a nonempty word under symbol -> element index gen_map."""
        word = tuple(word)
        if not word:
            raise InputError("cannot fold the empty word in a semigroup")
        acc = gen_map[word[0]]
        for sym in word[1:]:
            acc = self.product[acc][gen_map[sym]]
        return acc

    def generator_indices(self, gens, kind):
        """The element index of each generator, after checking that the
        generators generate the table and that kind is "semigroup", or
        "monoid" on a table with an identity."""
        gen_map = {g: self.index(g) for g in gens}
        reached = self.closure_of(gen_map.values())
        for i, name in enumerate(self.elements):
            if i not in reached:
                raise InputError(f"generators do not generate: {name!r} unreached")
        if kind == "monoid":
            if self.identity_index() is None:
                raise InputError("monoid kind requires a table with an identity")
        elif kind != "semigroup":
            raise InputError(f"unknown kind {kind!r}")
        return gen_map

    def closure_of(self, indices):
        """Subsemigroup generated by the given element indices: a product
        g1 ... gk is reached from g1 by right multiplications by them."""
        gens = set(indices)
        return _reachable(gens, {i: [row[g] for g in gens]
                                 for i, row in enumerate(self.product)})


def _left_normed_basis(product):
    """A set of elements whose left-normed products (g1 g2) ... gk, read
    off the table, reach every element: each element in turn joins the set
    unless the products of the set so far reach it. Light's test needs
    only these: if (x a) y = x (a y) for all x, y and a in {g, h}, the same
    holds for a = g h, so it holds for every element they reach."""
    basis, reached = [], set()
    for g in range(len(product)):
        if g in reached:
            continue
        basis.append(g)
        todo = [g, *(product[r][g] for r in reached)]
        while todo:
            x = todo.pop()
            if x not in reached:
                reached.add(x)
                todo += map(product[x].__getitem__, basis)
    return basis


@dataclass(frozen=True)
class IdealData:
    """A finite ideal I of T = S u I, described by the left action of S's
    generators on I, the right action of I by those generators, and the
    internal product of I."""

    elements: tuple                 # ideal element names
    base_symbols: tuple             # generating symbols of S
    left_action: dict               # (b, i) -> i'   meaning b * i
    right_action: dict              # (i, b) -> i'   meaning i * b
    internal: dict                  # (i, j) -> k    meaning i * j

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "base_symbols", tuple(self.base_symbols))
        if set(self.elements) & set(self.base_symbols):
            raise InputError("ideal elements must be fresh symbols")
        for b in self.base_symbols:
            for i in self.elements:
                if (b, i) not in self.left_action:
                    raise InputError(f"left action missing for ({b}, {i})")
                if (i, b) not in self.right_action:
                    raise InputError(f"right action missing for ({i}, {b})")
        for i in self.elements:
            for j in self.elements:
                if (i, j) not in self.internal:
                    raise InputError(f"internal product missing for ({i}, {j})")
        for m in (self.left_action, self.right_action, self.internal):
            for v in m.values():
                if v not in self.elements:
                    raise InputError(f"product {v!r} escapes the ideal")
        self._check_associativity()

    def _check_associativity(self):
        la, ra, pr = self.left_action, self.right_action, self.internal
        for i, j, k in product(self.elements, repeat=3):
            if pr[pr[i, j], k] != pr[i, pr[j, k]]:
                raise InputError(f"internal product not associative at ({i},{j},{k})")
        for b in self.base_symbols:
            for i, j in product(self.elements, repeat=2):
                if la[b, pr[i, j]] != pr[la[b, i], j]:
                    raise InputError(f"left action incompatible at ({b},{i},{j})")
                if ra[pr[i, j], b] != pr[i, ra[j, b]]:
                    raise InputError(f"right action incompatible at ({i},{j},{b})")
            for c in self.base_symbols:
                for i in self.elements:
                    if ra[la[b, i], c] != la[b, ra[i, c]]:
                        raise InputError(f"actions incompatible at ({b},{i},{c})")

    def left_transformation(self, b):
        """b's left multiplication as a tuple over element positions."""
        pos = {e: k for k, e in enumerate(self.elements)}
        return tuple(pos[self.left_action[b, i]] for i in self.elements)


@dataclass(frozen=True)
class ProductGenerators:
    """Named generating set C of a direct product S x T: each generator is
    a fresh symbol with projections to an S element and a T symbol."""

    pairs: tuple  # (symbol, s_element_name, t_symbol)

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        names = [p[0] for p in self.pairs]
        if len(set(names)) != len(names):
            raise InputError("duplicate product generator names")

    def alphabet(self):
        return Alphabet(tuple(p[0] for p in self.pairs))

    def pi_s(self):
        return {p[0]: p[1] for p in self.pairs}

    def pi_t(self):
        return {p[0]: p[2] for p in self.pairs}
