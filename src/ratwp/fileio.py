"""Text formats: .fsa automata, .sgp presentations, .tbl tables and ideals.

The .fsa format is one directive per line; '#'-comments are stripped before
tokenizing everywhere except inside the label fields of a trans line, where
'#' is the pad, the token for epsilon in sync automata ('-' in the others).
"""

from __future__ import annotations

from itertools import repeat

from .automata import (
    EPSILON,
    EPSILON_TOKEN,
    PAD,
    Alphabet,
    InputError,
    OneTapeAutomaton,
    TwoTapeAutomaton,
)
from .presentations import (
    IdealData,
    MultiplicationTable,
    Presentation,
    RelationSchema,
)


def _strip_comment(line):
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _content_lines(lines):
    """The lines with '#'-comments and surrounding blanks stripped, empty
    ones dropped."""
    return [line for line in (_strip_comment(raw).strip() for raw in lines)
            if line]


def _directives(lines, repeated=()):
    """Read 'name: value' lines: a dict of the single directives, which
    may each appear once, and a dict of the value lists of the repeated
    ones."""
    single, lists = {}, {name: [] for name in repeated}
    for line in lines:
        name, colon, value = line.partition(":")
        if not colon:
            raise InputError(f"not a directive: {line!r}")
        name, value = name.strip(), value.strip()
        if name in lists:
            lists[name].append(value)
        elif name in single:
            raise InputError(f"duplicate directive {name!r}")
        else:
            single[name] = value
    return single, lists


def _take(single, name):
    """Remove and return the value of a required single directive."""
    if name not in single:
        raise InputError(f"missing directive {name!r}")
    return single.pop(name)


def _no_other(single):
    """Raise on a single directive left over after the known ones were
    taken."""
    if single:
        raise InputError(f"unknown directive {sorted(single)[0]!r}")


def _label_table(alphabet, sync):
    """Token -> label on one tape: its symbols, and for epsilon '#' (the
    pad) in a sync automaton, '-' otherwise."""
    table = {s: s for s in alphabet}
    table[PAD if sync else EPSILON_TOKEN] = EPSILON
    return table


def _parse_label(token, table):
    try:
        return table[token]
    except KeyError:
        if token == PAD:
            raise InputError(
                "pad token '#' only allowed in sync automata") from None
        if token == EPSILON_TOKEN:
            raise InputError(
                "sync automaton may not have epsilon labels") from None
        raise InputError(f"unknown symbol {token!r}") from None


def _parse_state(token, n_states):
    try:
        q = int(token)
    except ValueError:
        raise InputError(f"bad state number {token!r}") from None
    if not 0 <= q < n_states:
        raise InputError(f"state {q} out of range for {n_states} states")
    return q


def loads_fsa(text):
    """Parse .fsa text into a TwoTapeAutomaton or OneTapeAutomaton."""
    header, trans_lines = _fsa_sections(text)
    single, _ = _directives(_content_lines(header))
    kind = _take(single, "type")
    if kind not in ("async", "sync", "nfa"):
        raise InputError(f"unknown automaton type {kind!r}")
    if kind == "nfa":
        tapes = (Alphabet(tuple(_take(single, "alphabet").split())),)
    else:
        tapes = (Alphabet(tuple(_take(single, "left").split())),
                 Alphabet(tuple(_take(single, "right").split())))
    try:
        n_states = int(_take(single, "states"))
    except ValueError:
        raise InputError("states directive must be an integer") from None
    initial = _parse_state(_take(single, "initial"), n_states)
    finals = frozenset(_parse_state(t, n_states)
                       for t in _take(single, "final").split())
    _no_other(single)

    labels = [_label_table(tape, kind == "sync") for tape in tapes]
    trans = _read_trans(trans_lines, labels, n_states)
    if kind == "nfa":
        return OneTapeAutomaton(n_states, *tapes, initial, finals, trans)
    return TwoTapeAutomaton(n_states, *tapes, initial, finals, trans,
                            mode=kind)


def _fsa_sections(text):
    """The header lines of .fsa text and the stripped fields of its trans
    lines. A trans line keeps its '#' tokens (pads); the header loses
    comments later. When every line from the first 'trans:' line on is a
    trans line, as dumps_fsa writes them, those lines are split off in
    one pass; the lines before go through the per-line sort."""
    # the first line that starts with 'trans:', or the end
    at = (0 if text.startswith("trans:")
          else text.find("\ntrans:") + 1 or len(text))
    tail = text[at:]
    fields = tail[6:].split("\ntrans:")
    if len(fields) != len(tail.splitlines()):  # some line is not a trans line
        at, fields = len(text), []
    header, trans_lines = [], []
    for raw in text[:at].splitlines():
        name, colon, rest = raw.partition(":")
        if colon and name.strip() == "trans":
            trans_lines.append(rest.strip())
        else:
            header.append(raw)
    return header, trans_lines + list(map(str.strip, fields))


def _read_trans(lines, labels, n_states):
    """The fields of the trans lines. Canonical lines, their fields split
    by single spaces, are split in one pass and read a column at a time,
    each token looked up in its column's table; if any line does not fit,
    every line goes through _parse_trans for its fields or its error
    message."""
    states = {str(q): q for q in range(n_states)}
    columns = [states, *labels, states]
    width = len(columns)
    # with width - 1 spaces on every line, line i has tokens i*width onwards
    if set(map(str.count, lines, repeat(" "))) <= {width - 1}:
        tokens = " ".join(lines).split(" ")
        try:
            return list(zip(*(map(table.__getitem__, tokens[k::width])
                              for k, table in enumerate(columns))))
        except KeyError:  # a token outside its column's table
            pass
    return [_parse_trans(rest, labels, n_states) for rest in lines]


def _parse_trans(rest, labels, n_states):
    """The fields of the trans line `rest`, or the InputError that says
    what is wrong with it."""
    tokens = rest.split()
    n_fields = len(labels) + 2
    if len(tokens) < n_fields:
        raise InputError(f"trans line needs {n_fields} fields: {rest!r}")
    if len(tokens) > n_fields and not tokens[n_fields].startswith("#"):
        raise InputError(f"trailing junk in trans line: {rest!r}")
    src = _parse_state(tokens[0], n_states)
    dst = _parse_state(tokens[n_fields - 1], n_states)
    fields = list(zip(tokens[1:], labels))
    for tok, table in fields:  # unknown symbols are named before a sync '-'
        if tok != EPSILON_TOKEN:
            _parse_label(tok, table)
    return (src, *(_parse_label(tok, table) for tok, table in fields), dst)


def dumps_fsa(aut):
    """Canonical .fsa text; loads_fsa(dumps_fsa(a)) reproduces a and
    dumps_fsa(loads_fsa(text)) is byte-identical for canonical text."""
    def tokens(tape, sync):
        """Label -> token: the reader's table turned round."""
        return {lab: tok for tok, lab in _label_table(tape, sync).items()}

    if isinstance(aut, OneTapeAutomaton):
        lines = ["type: nfa", "alphabet: " + " ".join(aut.alphabet.symbols)]
        token = tokens(aut.alphabet, False)
        trans = [f"trans: {src} {token[lab]} {dst}"
                 for src, lab, dst in aut.transitions]
    else:
        lines = [f"type: {aut.mode}", "left: " + " ".join(aut.left.symbols),
                 "right: " + " ".join(aut.right.symbols)]
        sync = aut.mode == "sync"
        token_l, token_r = tokens(aut.left, sync), tokens(aut.right, sync)
        trans = [f"trans: {src} {token_l[lab_l]} {token_r[lab_r]} {dst}"
                 for src, lab_l, lab_r, dst in aut.transitions]
    lines += [f"states: {aut.n_states}", f"initial: {aut.initial}",
              "final: " + " ".join(str(f) for f in sorted(aut.finals))]
    return "\n".join(lines + trans) + "\n"


def load_fsa(path):
    with open(path, encoding="utf-8") as f:
        return loads_fsa(f.read())


def save_fsa(aut, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_fsa(aut))


def _parse_atom(token):
    if "^" in token:
        sym, power = token.split("^", 1)
        if not sym:
            raise InputError(f"bad atom {token!r}")
        try:
            return (sym, int(power))
        except ValueError:
            return (sym, power)  # schema variable
    return (token, 1)


def _parse_schema(rest):
    if ";" not in rest:
        raise InputError("schema needs '; var = lo..hi' after the relation")
    # a message quotes the text at fault without its blanks
    body, var_part = (part.strip() for part in rest.rsplit(";", 1))
    if "=" not in body:
        raise InputError(f"schema relation needs '=': {body!r}")
    lhs, rhs = body.split("=", 1)
    if "=" not in var_part:
        raise InputError(f"bad schema range {var_part!r}")
    var, rng = (part.strip() for part in var_part.split("=", 1))
    if ".." not in rng:
        raise InputError(f"bad schema range {rng!r}")
    lo, hi = rng.split("..", 1)
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise InputError(f"bad schema range {rng!r}") from None
    return RelationSchema(
        lhs=tuple(_parse_atom(t) for t in lhs.split()),
        rhs=tuple(_parse_atom(t) for t in rhs.split()),
        var=var, lo=lo, hi=hi,
    )


def loads_sgp(text):
    """Parse .sgp text into a Presentation."""
    single, lists = _directives(_content_lines(text.splitlines()),
                                ("rel", "schema"))
    kind = _take(single, "kind")
    gens = Alphabet(tuple(_take(single, "gens").split()))
    _no_other(single)
    relations = []
    for rest in lists["rel"]:
        if "=" not in rest:
            raise InputError(f"relation needs '=': {rest!r}")
        lhs, rhs = rest.split("=", 1)
        relations.append((tuple(lhs.split()), tuple(rhs.split())))
    schemas = tuple(_parse_schema(rest) for rest in lists["schema"])
    return Presentation(kind, gens, tuple(relations), schemas)


def load_sgp(path):
    with open(path, encoding="utf-8") as f:
        return loads_sgp(f.read())


def _split_sections(text):
    """The content lines of the main and the [ideal] section."""
    lines = text.splitlines()
    marks = [i for i, line in enumerate(lines)
             if _strip_comment(line).strip() == "[ideal]"]
    if len(marks) > 1:
        raise InputError(f"second [ideal] section at line {marks[1] + 1}")
    if not marks:
        return _content_lines(lines), []
    at = marks[0]
    return _content_lines(lines[:at]), _content_lines(lines[at + 1:])


def _table_from_lines(lines):
    single, lists = _directives(lines, ("row",))
    elements = tuple(_take(single, "elements").split())
    _no_other(single)
    rows = [tuple(rest.split()) for rest in lists["row"]]
    if len(rows) != len(elements):
        raise InputError(
            f"expected {len(elements)} rows, found {len(rows)}"
        )
    index = {e: i for i, e in enumerate(elements)}
    product = []
    for row in rows:
        if len(row) != len(elements):
            raise InputError("row length does not match the element count")
        for name in row:
            if name not in index:
                raise InputError(f"unknown element {name!r} in a row")
        product.append(tuple(index[name] for name in row))
    return MultiplicationTable(elements, tuple(product))


def _ideal_from_lines(lines):
    single, lists = _directives(lines, ("left", "right", "prod"))
    elements = tuple(_take(single, "elements").split())
    base = tuple(_take(single, "base").split())
    _no_other(single)
    keyed = {}  # directive -> first token -> the other tokens
    for name, values in lists.items():
        keyed[name] = {}
        for rest in values:
            tokens = rest.split()
            if not tokens:
                raise InputError(f"empty {name!r} line")
            if tokens[0] in keyed[name]:
                raise InputError(
                    f"duplicate {name!r} line for {tokens[0]!r}")
            keyed[name][tokens[0]] = tuple(tokens[1:])
    k = len(elements)

    def rows(name, keys):
        """key -> its images, for each key of `keys` with a line; IdealData
        names a missing one."""
        out = {key: keyed[name][key] for key in keys if key in keyed[name]}
        for key, row in out.items():
            if len(row) != k:
                raise InputError(f"{name} line for {key!r} needs {k} images")
        return out

    left, right = rows("left", base), rows("right", base)
    prod = rows("prod", elements)
    return IdealData(
        elements=elements,
        base_symbols=base,
        left_action={(b, e): x for b, row in left.items()
                     for e, x in zip(elements, row)},
        right_action={(e, b): x for b, row in right.items()
                      for e, x in zip(elements, row)},
        internal={(e, f): x for e, row in prod.items()
                  for f, x in zip(elements, row)},
    )


def load_tbl(path):
    """MultiplicationTable from the main section of a .tbl file."""
    with open(path, encoding="utf-8") as f:
        main, _ = _split_sections(f.read())
    if not main:
        raise InputError(f"no table section in {path}")
    return _table_from_lines(main)


def load_ideal(path):
    """IdealData from the [ideal] section of a .tbl file."""
    with open(path, encoding="utf-8") as f:
        _, ideal = _split_sections(f.read())
    if not ideal:
        raise InputError(f"no [ideal] section in {path}")
    return _ideal_from_lines(ideal)
