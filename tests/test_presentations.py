import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratwp import (
    Alphabet,
    IdealData,
    InputError,
    MultiplicationTable,
    Presentation,
    ProductGenerators,
    RelationSchema,
)
from random_automata import first_non_associative, transformation_tables


class TestRelationSchema:
    def test_expansion(self):
        schema = RelationSchema(
            lhs=(("a", 1), ("b", "n"), ("a", 1)),
            rhs=(("a", 1), ("b", 1), ("a", 1)),
            var="n", lo=2, hi=3)
        assert schema.expand() == [
            (("a", "b", "b", "a"), ("a", "b", "a")),
            (("a", "b", "b", "b", "a"), ("a", "b", "a")),
        ]


class TestPresentation:
    def test_semigroup_rejects_empty_side(self):
        with pytest.raises(InputError):
            Presentation("semigroup", Alphabet(("a",)),
                         relations=((("a",), ()),))

    def test_monoid_allows_empty_side(self):
        p = Presentation("monoid", Alphabet(("b", "c")),
                         relations=((("b", "c"), ()),))
        assert p.expanded_relations() == [(("b", "c"), ())]

    def test_unknown_symbol(self):
        with pytest.raises(InputError):
            Presentation("semigroup", Alphabet(("a",)),
                         relations=((("a",), ("z",)),))

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            Presentation("group", Alphabet(("a",)))


class TestMultiplicationTable:
    def test_identity_and_zero_detection(self):
        c2 = MultiplicationTable(("1", "g"), ((0, 1), (1, 0)))
        assert c2.identity_index() == 0
        with_zero = MultiplicationTable(("a", "z"), ((0, 1), (1, 1)))
        assert with_zero.identity_index() == 0
        left_zero = MultiplicationTable(("l", "r"), ((0, 0), (1, 1)))
        assert left_zero.identity_index() is None

    def test_rejects_non_associative(self):
        with pytest.raises(InputError):
            MultiplicationTable(("a", "b"), ((1, 0), (0, 0)))

    def test_names_the_first_non_associative_triple(self, t3_table):
        # one wrong entry, 012 021 = 022 instead of 021: the first triple
        # (i, j, k) in table order with (i j) k != i (j k) is named
        product = [list(row) for row in t3_table.product]
        i, j = t3_table.index("012"), t3_table.index("021")
        product[i][j] = t3_table.index("022")
        with pytest.raises(InputError) as err:
            MultiplicationTable(t3_table.elements, product)
        assert str(err.value) == ("product is not associative at "
                                  "(002, 012, 021)")

    def test_rejects_bad_shape(self):
        with pytest.raises(InputError):
            MultiplicationTable(("a", "b"), ((0, 1),))
        with pytest.raises(InputError):
            MultiplicationTable(("a",), ((3,),))

    @pytest.mark.parametrize("entry", [1.0, "1", None, [1]])
    def test_rejects_entries_that_are_not_indices(self, entry):
        for product in (((0, entry), (1, 0)), ((0, 1), (entry, 0))):
            with pytest.raises(InputError) as err:
                MultiplicationTable(("a", "b"), product)
            assert str(err.value) == "product entry out of range"

    def test_left_zero_band(self):
        # x y = x: no element is a product of others, so Light's test
        # takes every element as a generator
        n = 27
        names = tuple(f"e{i}" for i in range(n))
        band = [[i] * n for i in range(n)]
        MultiplicationTable(names, band)
        band[20][3] = 5  # (e20 e0) e3 = e5, e20 (e0 e3) = e20
        with pytest.raises(InputError) as err:
            MultiplicationTable(names, band)
        assert first_non_associative(band) == (20, 0, 3)
        assert str(err.value) == ("product is not associative at "
                                  "(e20, e0, e3)")

    def test_fold(self):
        c2 = MultiplicationTable(("1", "g"), ((0, 1), (1, 0)))
        assert c2.fold(("g", "g"), {"g": 1}) == 0
        assert c2.fold(("g", "g", "g"), {"g": 1}) == 1
        with pytest.raises(InputError):
            c2.fold((), {"g": 1})

    def test_closure(self):
        c2 = MultiplicationTable(("1", "g"), ((0, 1), (1, 0)))
        assert c2.closure_of({1}) == {0, 1}


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(0, 26), max_size=3))
def test_closure_of_is_the_generated_subsemigroup(t3_table, indices):
    # reference: multiply every pair both ways until nothing new appears
    reached = set(indices)
    while True:
        products = {t3_table.product[i][j] for i in reached for j in reached}
        if products <= reached:
            break
        reached |= products
    assert t3_table.closure_of(indices) == reached


class TestIdealData:
    def good(self):
        return IdealData(
            elements=("u", "v"), base_symbols=("a",),
            left_action={("a", "u"): "u", ("a", "v"): "v"},
            right_action={("u", "a"): "u", ("v", "a"): "v"},
            internal={("u", "u"): "u", ("u", "v"): "u",
                      ("v", "u"): "v", ("v", "v"): "v"})

    def test_valid(self):
        data = self.good()
        assert data.left_transformation("a") == (0, 1)

    def test_missing_action(self):
        with pytest.raises(InputError):
            IdealData(
                elements=("u",), base_symbols=("a",),
                left_action={}, right_action={("u", "a"): "u"},
                internal={("u", "u"): "u"})

    @pytest.mark.parametrize("drop, message", [
        ("left_action", "left action missing for (a, u)"),
        ("right_action", "right action missing for (u, a)"),
        ("internal", "internal product missing for (u, u)"),
    ])
    def test_missing_entry_is_named(self, drop, message):
        # the one check of a missing entry, for direct callers and for
        # load_ideal alike
        fields = dict(elements=("u",), base_symbols=("a",),
                      left_action={("a", "u"): "u"},
                      right_action={("u", "a"): "u"},
                      internal={("u", "u"): "u"})
        fields[drop] = {}
        with pytest.raises(InputError) as exc:
            IdealData(**fields)
        assert str(exc.value) == message

    def test_escaping_product(self):
        with pytest.raises(InputError):
            IdealData(
                elements=("u",), base_symbols=("a",),
                left_action={("a", "u"): "a"},
                right_action={("u", "a"): "u"},
                internal={("u", "u"): "u"})

    def test_fresh_symbols_required(self):
        with pytest.raises(InputError):
            IdealData(
                elements=("a",), base_symbols=("a",),
                left_action={("a", "a"): "a"},
                right_action={("a", "a"): "a"},
                internal={("a", "a"): "a"})


class TestProductGenerators:
    def test_projections(self):
        gens = ProductGenerators((("x", "g", "a"), ("y", "g", "b")))
        assert gens.alphabet().symbols == ("x", "y")
        assert gens.pi_s() == {"x": "g", "y": "g"}
        assert gens.pi_t() == {"x": "a", "y": "b"}

    def test_duplicate_names(self):
        with pytest.raises(InputError):
            ProductGenerators((("x", "g", "a"), ("x", "1", "b")))


@st.composite
def small_products(draw, max_elements=4):
    """Random square tables on 1-4 elements, most not associative."""
    n = draw(st.integers(1, max_elements))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@st.composite
def changed_transformation_products(draw):
    """A transformation semigroup's table, with one entry changed or
    not."""
    table, _ = draw(transformation_tables())
    product = [list(row) for row in table.product]
    n = len(product)
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    product[i][j] = k
    return product


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_products(), changed_transformation_products(),
                 transformation_tables().map(lambda tg: tg[0].product)))
# (x 0) y = x (0 y) for all x, y, and right multiplications by any
# elements reach every element from 0: a basis grown by products with
# elements outside it would hold 0 alone, and pass
@example(((0, 0, 2), (1, 1, 1), (2, 2, 1)))
@example(((0, 1, 2), (1, 1, 0), (2, 0, 2)))
def test_light_test_matches_the_full_scan(product):
    names = tuple(f"e{i}" for i in range(len(product)))
    triple = first_non_associative(product)
    if triple is None:
        assert MultiplicationTable(names, product).product == tuple(
            map(tuple, product))
        return
    with pytest.raises(InputError) as err:
        MultiplicationTable(names, product)
    i, j, k = triple
    assert str(err.value) == ("product is not associative at "
                              f"(e{i}, e{j}, e{k})")
