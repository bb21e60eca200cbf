import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratwp import (
    EPSILON,
    InputError,
    OneTapeAutomaton,
    TwoTapeAutomaton,
    builtin,
    dumps_fsa,
    load_fsa,
    load_ideal,
    load_sgp,
    load_tbl,
    loads_fsa,
    loads_sgp,
    save_fsa,
)
from ratwp.fileio import _fsa_sections
from random_automata import (
    dumps_fsa_per_transition,
    one_tape_automata,
    sync_automata,
    two_tape_automata,
    two_tape_automata_any_alphabets,
)

FIG3_TEXT = """\
type: async
left: a b
right: a b
states: 2
initial: 0
final: 1
trans: 0 a a 1
trans: 0 b b 1
trans: 1 b b 1
trans: 1 a - 1
trans: 1 - a 1
"""


class TestFsaRoundTrip:
    def test_canonical_round_trip_is_byte_identical(self):
        assert dumps_fsa(loads_fsa(FIG3_TEXT)) == FIG3_TEXT

    def test_all_builtins_round_trip(self):
        for name in ("fig1", "fig2", "fig3"):
            aut = builtin(name)
            text = dumps_fsa(aut)
            again = loads_fsa(text)
            assert dumps_fsa(again) == text
            for v, u in [(("a",), ("a",)), (("a", "b"), ("a", "b"))]:
                assert again.accepts(v, u) == aut.accepts(v, u)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "fig3.fsa"
        save_fsa(builtin("fig3"), path)
        assert dumps_fsa(load_fsa(path)) == path.read_text()

    def test_nfa_round_trip(self):
        aut = OneTapeAutomaton(
            2, builtin("fig1").left, 0, frozenset({1}),
            ((0, "a", 1), (1, EPSILON, 0)))
        text = dumps_fsa(aut)
        assert "type: nfa" in text
        assert dumps_fsa(loads_fsa(text)) == text


@settings(max_examples=100, deadline=None)
@given(st.one_of(two_tape_automata(), two_tape_automata_any_alphabets(),
                 sync_automata(), one_tape_automata()))
def test_random_fsa_round_trip(aut):
    text = dumps_fsa(aut)
    assert text == dumps_fsa_per_transition(aut)
    assert loads_fsa(text) == aut


class TestFsaParsing:
    def test_comments_stripped(self):
        text = FIG3_TEXT.replace("states: 2", "states: 2   # two states")
        assert loads_fsa(text).n_states == 2

    def test_trans_comment_after_fields(self):
        text = FIG3_TEXT.replace("trans: 0 a a 1",
                                 "trans: 0 a a 1 # into q1")
        assert loads_fsa(text).accepts(("a",), ("a",))

    def test_pad_token_in_sync_trans(self):
        text = (
            "type: sync\nleft: a\nright: a\nstates: 2\ninitial: 0\n"
            "final: 1\ntrans: 0 a a 1\ntrans: 1 a # 1\n"
        )
        aut = loads_fsa(text)
        assert aut.mode == "sync"
        assert aut.accepts(("a", "a"), ("a",))

    def test_duplicate_directive(self):
        with pytest.raises(InputError):
            loads_fsa(FIG3_TEXT + "states: 2\n")

    def test_out_of_range_state(self):
        with pytest.raises(InputError):
            loads_fsa(FIG3_TEXT.replace("final: 1", "final: 7"))

    def test_unknown_symbol(self):
        with pytest.raises(InputError):
            loads_fsa(FIG3_TEXT.replace("trans: 0 a a 1", "trans: 0 z a 1"))

    def test_missing_directive(self):
        with pytest.raises(InputError):
            loads_fsa("type: async\nstates: 1\ninitial: 0\nfinal: 0\n")

    def test_unknown_directive(self):
        with pytest.raises(InputError):
            loads_fsa(FIG3_TEXT + "colour: blue\n")

    def test_pad_rejected_in_async(self):
        with pytest.raises(InputError):
            loads_fsa(FIG3_TEXT + "trans: 1 a # 1\n")

    def test_epsilon_rejected_in_sync(self):
        text = (
            "type: sync\nleft: a\nright: a\nstates: 2\ninitial: 0\n"
            "final: 1\ntrans: 0 a - 1\n"
        )
        with pytest.raises(InputError):
            loads_fsa(text)


TRANS_LINES = [line for line in FIG3_TEXT.splitlines()
               if line.startswith("trans:")]
AT = {"first": 0, "middle": 2, "last": 4}  # positions among TRANS_LINES


def _with_line(line, at):
    """FIG3_TEXT with its trans line at the position `at` replaced."""
    return FIG3_TEXT.replace(TRANS_LINES[AT[at]] + "\n", line + "\n")


@pytest.mark.parametrize("at", AT)
@pytest.mark.parametrize("sep", [" ", "   ", "\t"])
@pytest.mark.parametrize("variant", [
    "trans:  {}  ",              # extra spaces
    "trans: {} # a comment",     # a trailing comment
    "\t trans: {}",              # whitespace before trans
    " trans :{} #",              # around the colon, an empty comment
])
def test_non_canonical_trans_line_among_canonical_ones(at, sep, variant):
    fields = TRANS_LINES[AT[at]].split(":", 1)[1].strip()
    text = _with_line(variant.format(fields.replace(" ", sep)), at)
    assert text != FIG3_TEXT
    assert loads_fsa(text) == loads_fsa(FIG3_TEXT)


@pytest.mark.parametrize("at", AT)
@pytest.mark.parametrize("line, message", [
    ("trans: 0 z a 1", "unknown symbol 'z'"),
    ("trans: 0 a a", "trans line needs 4 fields: '0 a a'"),
    ("trans: 0  a a", "trans line needs 4 fields: '0  a a'"),
    ("trans: 0 a a 1 junk", "trailing junk in trans line: '0 a a 1 junk'"),
    ("trans: 0 a a 9", "state 9 out of range for 2 states"),
    ("trans: 0 a a x", "bad state number 'x'"),
    ("trans: 1 a # 1", "pad token '#' only allowed in sync automata"),
])
def test_malformed_trans_line_message(at, line, message):
    with pytest.raises(InputError) as exc:
        loads_fsa(_with_line(line, at))
    assert str(exc.value) == message


def sections_by_lines(text):
    """Reference for _fsa_sections: each line sorted on its own."""
    header, trans_lines = [], []
    for raw in text.splitlines():
        name, colon, rest = raw.partition(":")
        if colon and name.strip() == "trans":
            trans_lines.append(rest.strip())
        else:
            header.append(raw)
    return header, trans_lines


FSA_LINES = st.sampled_from([
    "type: async", "final: 1", "# trans: 0 a a 1", "", "  ",
    "trans: 0 a a 1", "trans: 1 b - 0", "trans:  1 a a 1 ", "trans:",
    " trans: 0 a a 1", "trans :0 b b 1", "trans: 0 a a 1 # trans: x",
    "xtrans: 0", "trans: 1\r- a 1", "trans: 0 b\x0bb 1"])


@settings(max_examples=300, deadline=None)
@given(st.lists(FSA_LINES, max_size=8),
       st.lists(st.sampled_from(["\n", "\r\n", "\r", "\x85"]),
                min_size=8, max_size=8),
       st.booleans())
def test_fsa_sections_agree_with_per_line_sort(lines, ends, last_end):
    text = "".join(line + end for line, end in zip(lines, ends))
    if not last_end and text:
        text = text[:-len(ends[len(lines) - 1])]
    assert _fsa_sections(text) == sections_by_lines(text)


def test_header_line_after_trans_lines():
    # a directive after the trans lines sends them through the per-line
    # sort: the automaton is the same
    lines = FIG3_TEXT.splitlines()
    text = "\n".join(lines[:5] + lines[6:] + lines[5:6]) + "\n"
    assert loads_fsa(text) == loads_fsa(FIG3_TEXT)


SYNC_HEADER = ("type: sync\nleft: a b\nright: a b\nstates: 2\ninitial: 0\n"
               "final: 1\n")


@pytest.mark.parametrize("text, message", [
    (FIG3_TEXT.replace("final: 1", "final 1"),
     "not a directive: 'final 1'"),
    (FIG3_TEXT.replace("type: async", "type: ssync"),
     "unknown automaton type 'ssync'"),
    (FIG3_TEXT.replace("states: 2", "states: two"),
     "states directive must be an integer"),
    # a sync automaton is checked for the padding discipline when built
    (SYNC_HEADER + "trans: 0 # a 1\ntrans: 1 a a 1\n",
     "non-pad left label after padding at state 1"),
    (SYNC_HEADER + "trans: 0 a # 1\ntrans: 1 a b 1\n",
     "non-pad right label after padding at state 1"),
    (SYNC_HEADER + "trans: 0 # # 1\n", "transition padded on both tapes"),
])
def test_fsa_reader_error(text, message):
    with pytest.raises(InputError) as exc:
        loads_fsa(text)
    assert str(exc.value) == message


SGP_HEADER = "kind: semigroup\ngens: a b\n"


@pytest.mark.parametrize("line, message", [
    ("schema: a ^n a = a ; n = 1..2", "bad atom '^n'"),
    ("schema: a b^n a = a b a",
     "schema needs '; var = lo..hi' after the relation"),
    ("schema: a b^n a ; n = 2..3", "schema relation needs '=': 'a b^n a'"),
    ("schema: a b^n a = a b a ; n 2..3", "bad schema range 'n 2..3'"),
    ("schema: a b^n a = a b a ; n = 2-3", "bad schema range '2-3'"),
    ("schema: a b^n a = a b a ; n = 2..x", "bad schema range '2..x'"),
    ("rel: a a a", "relation needs '=': 'a a a'"),
])
def test_sgp_reader_error(line, message):
    with pytest.raises(InputError) as exc:
        loads_sgp(SGP_HEADER + line + "\n")
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    ("elements: 1 g\nrow: 1 g\nrow: g\n",
     "row length does not match the element count"),
    ("elements: 1 1\nrow: 1 1\nrow: 1 1\n", "duplicate element names"),
    ("[ideal]\nelements: u\nbase: a\n", "no table section in {path}"),
])
def test_tbl_reader_error(text, message, tmp_path):
    path = tmp_path / "bad.tbl"
    path.write_text(text)
    with pytest.raises(InputError) as exc:
        load_tbl(path)
    assert str(exc.value) == message.format(path=path)


IDEAL_HEADER = "[ideal]\nelements: u v\n"


@pytest.mark.parametrize("lines, message", [
    ("base: a\nleft:\nleft: a u v\nright: a u v\nprod: u u u\n"
     "prod: v v v", "empty 'left' line"),
    ("base: a\nleft: a u v\nleft: a v u\nright: a u v\nprod: u u u\n"
     "prod: v v v", "duplicate 'left' line for 'a'"),
    # a missing line is named by IdealData, as for a direct caller
    ("base: a\nleft: a u v\nright: a u v\nprod: u u u",
     "internal product missing for (v, u)"),
    ("base: a b\nleft: a u v\nright: a u v\nright: b u v\nprod: u u u\n"
     "prod: v v v", "left action missing for (b, u)"),
    ("base: a\nleft: a u v\nright: a u\nprod: u u u\nprod: v v v",
     "right line for 'a' needs 2 images"),
    # u u = u, u v = u, v u = v, v v = u: (v u) v = v v = u, v (u v) = v u
    ("base: a\nleft: a u u\nright: a u u\nprod: u u u\nprod: v v u",
     "internal product not associative at (v,u,v)"),
    # every product is u, so a (u u) = a u must be (a u) u = u
    ("base: a\nleft: a v u\nright: a u u\nprod: u u u\nprod: v u u",
     "left action incompatible at (a,u,u)"),
    ("base: a\nleft: a u u\nright: a v u\nprod: u u u\nprod: v u u",
     "right action incompatible at (u,u,a)"),
    # (a u) b = u b = v, but a (u b) = a v = u
    ("base: a b\nleft: a u u\nleft: b u u\nright: a u u\nright: b v u\n"
     "prod: u u u\nprod: v u u", "actions incompatible at (a,u,b)"),
])
def test_ideal_reader_error(lines, message, tmp_path):
    path = tmp_path / "bad.tbl"
    path.write_text(IDEAL_HEADER + lines + "\n")
    with pytest.raises(InputError) as exc:
        load_ideal(path)
    assert str(exc.value) == message


def test_ideal_lines_for_other_keys_are_not_read(tmp_path):
    # a line for a key outside base and elements is not checked or used
    path = tmp_path / "other.tbl"
    path.write_text(IDEAL_HEADER + "base: a\nleft: a u v\nleft: c u\n"
                    "right: a u v\nprod: u u u\nprod: v v v\nprod: w w\n")
    ideal = load_ideal(path)
    assert ideal.left_action == {("a", "u"): "u", ("a", "v"): "v"}
    assert set(ideal.internal) == {("u", "u"), ("u", "v"), ("v", "u"),
                                   ("v", "v")}


class TestSgp:
    def test_basic(self):
        p = loads_sgp(
            "kind: semigroup\ngens: a b\nrel: a a = a\nrel: b a = b\n")
        assert p.kind == "semigroup"
        assert p.relations == ((("a", "a"), ("a",)), (("b", "a"), ("b",)))

    def test_schema(self):
        p = loads_sgp(
            "kind: semigroup\ngens: a b\n"
            "schema: a b^n a = a b a ; n = 2..10\n")
        rels = p.expanded_relations()
        assert (("a", "b", "b", "a"), ("a", "b", "a")) in rels

    def test_monoid_empty_side(self):
        p = loads_sgp("kind: monoid\ngens: b c\nrel: b c =\n")
        assert p.relations == ((("b", "c"), ()),)

    def test_semigroup_rejects_empty_side(self):
        with pytest.raises(InputError):
            loads_sgp("kind: semigroup\ngens: b c\nrel: b c =\n")

    def test_file_loader(self, tmp_path):
        path = tmp_path / "p.sgp"
        path.write_text("kind: semigroup\ngens: a\n# free\n")
        assert load_sgp(path).generators.symbols == ("a",)


class TestTbl:
    C2 = "elements: 1 g\nrow: 1 g\nrow: g 1\n"

    def test_table(self, tmp_path):
        path = tmp_path / "c2.tbl"
        path.write_text(self.C2)
        table = load_tbl(path)
        assert table.elements == ("1", "g")
        assert table.mul(1, 1) == 0

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("elements: 1 g\nrow: 1 g\n")
        with pytest.raises(InputError):
            load_tbl(path)

    def test_unknown_element(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("elements: 1 g\nrow: 1 g\nrow: g z\n")
        with pytest.raises(InputError):
            load_tbl(path)

    def test_ideal_section(self, tmp_path):
        path = tmp_path / "ideal.tbl"
        path.write_text(
            "[ideal]\n"
            "elements: u v\n"
            "base: a\n"
            "left: a u v\n"
            "right: a u v\n"
            "prod: u u u\n"
            "prod: v v v\n")
        data = load_ideal(path)
        assert data.elements == ("u", "v")
        assert data.left_action[("a", "u")] == "u"
        assert data.internal[("v", "u")] == "v"

    IDEAL = ("[ideal]\nelements: u v\nbase: a\nleft: a u v\nright: a u v\n"
             "prod: u u u\nprod: v v v\n")

    def test_duplicate_ideal_elements(self, tmp_path):
        # a second elements: line is an error, not the one that counts
        path = tmp_path / "ideal.tbl"
        path.write_text(self.IDEAL.replace("base:", "elements: u\nbase:"))
        with pytest.raises(InputError,
                           match="duplicate directive 'elements'"):
            load_ideal(path)

    def test_second_ideal_section(self, tmp_path):
        # the lines of two [ideal] sections are not merged into one
        path = tmp_path / "ideal.tbl"
        first, second = self.IDEAL.split("left:", 1)
        path.write_text(self.C2 + first + "# more\n[ideal]\nleft:" + second)
        with pytest.raises(InputError,
                           match=r"second \[ideal\] section at line 8"):
            load_ideal(path)
        with pytest.raises(InputError, match="second"):
            load_tbl(path)

    def test_missing_ideal_base(self, tmp_path):
        path = tmp_path / "ideal.tbl"
        path.write_text(self.IDEAL.replace("base: a\n", ""))
        with pytest.raises(InputError, match="missing directive 'base'"):
            load_ideal(path)

    def test_unknown_table_directive(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text(self.C2 + "colour: blue\n")
        with pytest.raises(InputError, match="unknown directive 'colour'"):
            load_tbl(path)

    def test_missing_ideal_section(self, tmp_path):
        path = tmp_path / "c2.tbl"
        path.write_text(self.C2)
        with pytest.raises(InputError):
            load_ideal(path)
