"""Command-line front end.

Exit codes: 0 = success / property verified, 1 = property violated or
disagreements found, 2 = input error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .automata import (
    Alphabet,
    InputError,
    OneTapeAutomaton,
    TwoTapeAutomaton,
    as_word,
    trim,
)
from .analysis import (
    congruence_check,
    cross_section,
    equivalence_check,
    export_dot,
    pump_check,
    pump_decompose,
    pump_refute,
    validate_cross_section,
)
from .constructions import (
    add_generator,
    adjoin_identity,
    adjoin_zero,
    builtin,
    cayley_wp_sync,
    free_product,
    free_wp,
    ideal_extension,
    product_with_finite,
    remove_generator,
    zero_union,
)
from .fileio import dumps_fsa, load_fsa, load_ideal, load_sgp, load_tbl, save_fsa
from .oracle import build_oracle, table_oracle, verify
from .presentations import ProductGenerators
from .relations import compose, cross_product, fix_tape, intersect_rectangle


def _word(arg, args, alphabet=None):
    return as_word(arg, alphabet=alphabet, tokens=args.tokens)


def _emit(aut, args):
    text = dumps_fsa(aut)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _require(value, cls, error):
    """value, which must be an instance of cls, else InputError(error)."""
    if not isinstance(value, cls):
        raise InputError(error)
    return value


def _load(path, cls=TwoTapeAutomaton):
    """The automaton of class cls in the .fsa file at path."""
    tapes = "two" if cls is TwoTapeAutomaton else "one"
    return _require(load_fsa(path), cls,
                    f"{path} is not a {tapes}-tape automaton")


_ORACLE_BOUND = 5  # the default --bound with an oracle


def _generators(args, table):
    return args.gens.split(",") if args.gens else list(table.elements)


def _load_oracle(args, bound):
    """The oracle of args.oracle: --kind and --gens apply to a .tbl table
    only, a .sgp presentation names its own."""
    path = args.oracle
    if path.endswith(".tbl"):
        table = load_tbl(path)
        return table_oracle(table, _generators(args, table), bound=bound,
                            kind=args.kind or "semigroup")
    if args.kind is not None or args.gens is not None:
        raise InputError("--kind and --gens apply to .tbl oracles only")
    return build_oracle(load_sgp(path), bound)


def _verdict(report):
    """Print a Report; a fail or refuted verdict exits 1."""
    print(report)
    return 1 if report.verdict in ("fail", "refuted") else 0


def cmd_accept(args):
    aut = _load(args.automaton)
    v = _word(args.left, args, aut.left)
    w = _word(args.right, args, aut.right)
    if aut.accepts(v, w):
        print("ACCEPT")
        return 0
    print("REJECT")
    return 1


def cmd_verify(args):
    aut = _load(args.automaton)
    oracle = _load_oracle(args, args.bound)
    disagreements = verify(aut, oracle, args.bound)
    if not disagreements:
        print("OK (0 disagreements)")
        return 0
    print(f"FAIL ({len(disagreements)} disagreements)")
    for v, w in disagreements:
        print(f"  {''.join(v) or '-'} {''.join(w) or '-'}")
    return 1


def cmd_pump(args):
    aut = _load(args.automaton)
    pair = (_word(args.left, args, aut.left), _word(args.right, args, aut.right))
    dec = pump_decompose(aut, pair)
    report = pump_check(aut, dec, args.imax)

    def fmt(p):
        return f"({''.join(p[0]) or '-'}, {''.join(p[1]) or '-'})"

    print(f"prefix {fmt(dec.prefix)} loop {fmt(dec.loop)} suffix {fmt(dec.suffix)}")
    return _verdict(report)


def cmd_check(args):
    check = equivalence_check if args.property == "equiv" else congruence_check
    return _verdict(check(_load(args.automaton), args.bound, kind=args.kind))


def cmd_cross_section(args):
    d = cross_section(_load(args.automaton))
    if not args.oracle:
        if (args.bound, args.kind, args.gens) != (None, None, None):
            raise InputError("--bound, --kind and --gens need --oracle")
        return d
    bound = _ORACLE_BOUND if args.bound is None else args.bound
    report = validate_cross_section(d, _load_oracle(args, bound), bound)
    code = _verdict(report)
    if args.output:
        save_fsa(d, args.output)
    return code


def cmd_dot(args):
    sys.stdout.write(export_dot(load_fsa(args.automaton)))
    return 0


def _parse_pairs(text):
    pairs = []
    for chunk in text.split(","):
        sym, eq, rest = chunk.partition("=")
        s_elem, colon, t_sym = rest.partition(":")
        if not (eq and colon):
            raise InputError(f"bad pair spec {chunk.strip()!r};"
                             " expected sym=element:symbol")
        pairs.append((sym.strip(), s_elem.strip(), t_sym.strip()))
    return ProductGenerators(tuple(pairs))


def _arg(*names, **options):
    """One add_argument call, as data. In a _COMMANDS row a bare string
    stands for _arg(string), a positional argument."""
    return names, options


_OUTPUT = _arg("-o", "--output")
_KINDS = ("semigroup", "monoid")
_CONSTRUCT_KIND = _arg("--kind", choices=_KINDS, default="semigroup")
_IMAX = _arg("--imax", type=int, default=5)


def _oracle_flags(bound=_ORACLE_BOUND):
    return (_arg("--bound", type=int, default=bound),
            _arg("--kind", choices=_KINDS, default=None,
                 help="for .tbl oracles (default: semigroup)"),
            _arg("--gens", default=None,
                 help="comma-separated generators for .tbl oracles"))


def _required(*flags):
    return tuple(_arg(flag, required=True) for flag in flags)


# name -> (help, arguments, run). A row "construct KIND" is a kind of
# construct; kinds show no help line. The construct row has no run: it
# holds the kinds. A run returns an exit code, or an automaton to write.
# Each run looks library functions up by their module-level name when it
# runs, so a replaced module attribute takes effect.
_COMMANDS = {
    "accept": ("test a word pair", ("automaton", "left", "right"),
               cmd_accept),
    "verify": ("compare against a bounded oracle",
               ("automaton",
                _arg("oracle", help=".sgp presentation or .tbl table"),
                *_oracle_flags()),
               cmd_verify),
    "compose": ("relational composition", ("first", "second", _OUTPUT),
                lambda a: compose(_load(a.first), _load(a.second))),
    "fix-tape": ("slice a relation at a fixed word",
                 ("automaton", "word",
                  _arg("--side", choices=("left", "right"), default="left"),
                  _OUTPUT),
                 lambda a: fix_tape(r := _load(a.automaton),
                                    _word(a.word, a, getattr(r, a.side)),
                                    a.side)),
    "cross": ("cross product of two languages", ("first", "second", _OUTPUT),
              lambda a: cross_product(_load(a.first, OneTapeAutomaton),
                                      _load(a.second, OneTapeAutomaton))),
    "intersect": ("intersect with a rectangle L x K",
                  ("automaton", "left_lang", "right_lang", _OUTPUT),
                  lambda a: intersect_rectangle(
                      _load(a.automaton), _load(a.left_lang, OneTapeAutomaton),
                      _load(a.right_lang, OneTapeAutomaton))),
    "construct": ("build a word-problem automaton", (), None),
    "construct cayley": (
        None, ("table", _arg("--gens"), _CONSTRUCT_KIND, _OUTPUT),
        lambda a: cayley_wp_sync(table := load_tbl(a.table),
                                 _generators(a, table), kind=a.kind)),
    "construct free": (
        None, (*_required("--alphabet"), _CONSTRUCT_KIND, _OUTPUT),
        lambda a: free_wp(Alphabet(tuple(a.alphabet.split())), kind=a.kind)),
    "construct from-builtin": (
        None, ("name", _OUTPUT),
        lambda a: _require(builtin(a.name), TwoTapeAutomaton,
                           f"builtin {a.name!r} has no deciding automaton")),
    "construct add-gen": (
        None, ("automaton", *_required("--symbol", "--rep"), _OUTPUT),
        lambda a: add_generator(wp := _load(a.automaton), a.symbol,
                                _word(a.rep, a, wp.left))),
    "construct remove-gen": (
        None, ("automaton", *_required("--symbol"), _OUTPUT),
        lambda a: remove_generator(_load(a.automaton), a.symbol)),
    "construct adjoin-one": (
        None, ("automaton", *_required("--symbol"), _OUTPUT),
        lambda a: adjoin_identity(_load(a.automaton), a.symbol)),
    "construct adjoin-zero": (
        None, ("automaton", *_required("--symbol"), _OUTPUT),
        lambda a: adjoin_zero(_load(a.automaton), a.symbol)),
    "construct ideal-ext": (
        None, ("automaton", "ideal", _OUTPUT),
        lambda a: ideal_extension(_load(a.automaton), load_ideal(a.ideal))),
    # by keyword, so that the automaton is loaded before the table
    "construct product-finite": (
        None, ("automaton", "table",
               _arg("--pairs", required=True, help="sym=element:symbol,..."),
               _OUTPUT),
        lambda a: product_with_finite(wp_t=_load(a.automaton),
                                      table=load_tbl(a.table),
                                      gens=_parse_pairs(a.pairs))),
    "construct free-product": (
        None, ("first", "second", _OUTPUT),
        lambda a: free_product(_load(a.first), _load(a.second))),
    "construct zero-union": (
        None, ("first", "second", *_required("--symbol"), _OUTPUT),
        lambda a: zero_union(_load(a.first), _load(a.second), a.symbol)),
    "trim": ("keep useful states only", ("automaton", _OUTPUT),
             lambda a: trim(load_fsa(a.automaton))),
    "pump": ("decompose and pump an accepted pair",
             ("automaton", "left", "right", _IMAX), cmd_pump),
    "pump-refute": ("search for a pumping counterexample",
                    ("automaton", "oracle", _IMAX, *_oracle_flags()),
                    lambda a: _verdict(pump_refute(
                        _load(a.automaton), _load_oracle(a, a.bound), a.bound,
                        i_max=a.imax))),
    "check": ("relation property checks",
              (_arg("property", choices=("equiv", "congruence")), "automaton",
               _arg("--bound", type=int, default=5),
               _arg("--kind", choices=_KINDS, default="semigroup",
                    help="monoid: include the empty word")),
              cmd_check),
    "cross-section": ("loop-removal cross-section",
                      ("automaton",
                       _arg("--oracle", default=None,
                            help="validate against this .sgp/.tbl oracle"),
                       # a given --bound needs --oracle
                       *_oracle_flags(bound=None),
                       _OUTPUT),
                      cmd_cross_section),
    "dot": ("graph description to stdout", ("automaton",), cmd_dot),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ratwp",
        description="Two-tape automata for semigroup and monoid word problems",
    )
    parser.add_argument("--tokens", action="store_true",
                        help="read words as whitespace-separated tokens")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (summary, arguments, run) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        p = groups[group].add_parser(
            leaf, **({} if summary is None else {"help": summary}))
        for argument in arguments:
            if isinstance(argument, str):
                argument = _arg(argument)
            p.add_argument(*argument[0], **argument[1])
        if run is None:
            groups[name] = p.add_subparsers(dest="what", required=True)
        else:
            p.set_defaults(run=run)
    return parser


@functools.cache
def _parser():
    """build_parser(), built on the first call only: parse_args keeps no
    state between calls."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        result = args.run(args)
        if isinstance(result, int):
            return result
        _emit(result, args)
        return 0
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
