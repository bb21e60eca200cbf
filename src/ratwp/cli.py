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
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _automaton(args, name="automaton"):
    """The two-tape automaton in the .fsa file args.<name>."""
    path = getattr(args, name)
    aut = load_fsa(path)
    if not isinstance(aut, TwoTapeAutomaton):
        raise InputError(f"{path} is not a two-tape automaton")
    return aut


def _language(args, name):
    """The one-tape automaton in the .fsa file args.<name>."""
    path = getattr(args, name)
    aut = load_fsa(path)
    if not isinstance(aut, OneTapeAutomaton):
        raise InputError(f"{path} is not a one-tape automaton")
    return aut


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


def cmd_accept(args):
    aut = _automaton(args)
    v = _word(args.left, args, aut.left)
    w = _word(args.right, args, aut.right)
    if aut.accepts(v, w):
        print("ACCEPT")
        return 0
    print("REJECT")
    return 1


def cmd_verify(args):
    aut = _automaton(args)
    oracle = _load_oracle(args, args.bound)
    disagreements = verify(aut, oracle, args.bound)
    if not disagreements:
        print("OK (0 disagreements)")
        return 0
    print(f"FAIL ({len(disagreements)} disagreements)")
    for v, w in disagreements:
        print(f"  {''.join(v) or '-'} {''.join(w) or '-'}")
    return 1


def cmd_compose(args):
    return _emit(compose(_automaton(args, "first"),
                         _automaton(args, "second")), args)


def cmd_fix_tape(args):
    r = _automaton(args)
    fixed = r.left if args.side == "left" else r.right
    return _emit(fix_tape(r, _word(args.word, args, fixed), args.side), args)


def cmd_cross(args):
    return _emit(cross_product(_language(args, "first"),
                               _language(args, "second")), args)


def cmd_intersect(args):
    return _emit(intersect_rectangle(_automaton(args),
                                     _language(args, "left_lang"),
                                     _language(args, "right_lang")), args)


def cmd_trim(args):
    return _emit(trim(load_fsa(args.automaton)), args)


def cmd_pump(args):
    aut = _automaton(args)
    pair = (_word(args.left, args, aut.left), _word(args.right, args, aut.right))
    dec = pump_decompose(aut, pair)
    report = pump_check(aut, dec, args.imax)

    def fmt(p):
        return f"({''.join(p[0]) or '-'}, {''.join(p[1]) or '-'})"

    print(f"prefix {fmt(dec.prefix)} loop {fmt(dec.loop)} suffix {fmt(dec.suffix)}")
    print(report)
    return 0 if report.verdict == "pass" else 1


def cmd_pump_refute(args):
    aut = _automaton(args)
    oracle = _load_oracle(args, args.bound)
    report = pump_refute(aut, oracle, args.bound, i_max=args.imax)
    print(report)
    return 1 if report.verdict == "refuted" else 0


def cmd_check(args):
    aut = _automaton(args)
    check = equivalence_check if args.property == "equiv" else congruence_check
    report = check(aut, args.bound, kind=args.kind)
    print(report)
    return 0 if report.verdict == "pass" else 1


def cmd_cross_section(args):
    d = cross_section(_automaton(args))
    if not args.oracle:
        if (args.bound, args.kind, args.gens) != (None, None, None):
            raise InputError("--bound, --kind and --gens need --oracle")
        return _emit(d, args)
    bound = _ORACLE_BOUND if args.bound is None else args.bound
    report = validate_cross_section(d, _load_oracle(args, bound), bound)
    print(report)
    if args.output:
        save_fsa(d, args.output)
    return 0 if report.verdict == "pass" else 1


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


def _build_cayley(args):
    table = load_tbl(args.table)
    return cayley_wp_sync(table, _generators(args, table), kind=args.kind)


def _build_free(args):
    return free_wp(Alphabet(tuple(args.alphabet.split())), kind=args.kind)


def _build_builtin(args):
    value = builtin(args.name)
    if not isinstance(value, TwoTapeAutomaton):
        raise InputError(f"builtin {args.name!r} has no deciding automaton")
    return value


def _build_add_gen(args):
    wp = _automaton(args)
    return add_generator(wp, args.symbol, _word(args.rep, args, wp.left))


def _build_product_finite(args):
    wp = _automaton(args)
    table = load_tbl(args.table)
    return product_with_finite(table, wp, _parse_pairs(args.pairs))


# kind -> (positional inputs, required flags, optional flags, build). A
# build looks each construction up by its module-level name when it runs,
# as main does for cmd_*, so a replaced module attribute takes effect.
_CONSTRUCTIONS = {
    "cayley": (("table",), (), ("--gens", "--kind"), _build_cayley),
    "free": ((), ("--alphabet",), ("--kind",), _build_free),
    "from-builtin": (("name",), (), (), _build_builtin),
    "add-gen": (("automaton",), ("--symbol", "--rep"), (), _build_add_gen),
    "remove-gen": (("automaton",), ("--symbol",), (),
                   lambda args: remove_generator(_automaton(args),
                                                 args.symbol)),
    "adjoin-one": (("automaton",), ("--symbol",), (),
                   lambda args: adjoin_identity(_automaton(args),
                                                args.symbol)),
    "adjoin-zero": (("automaton",), ("--symbol",), (),
                    lambda args: adjoin_zero(_automaton(args), args.symbol)),
    "ideal-ext": (("automaton", "ideal"), (), (),
                  lambda args: ideal_extension(_automaton(args),
                                               load_ideal(args.ideal))),
    "product-finite": (("automaton", "table"), ("--pairs",), (),
                       _build_product_finite),
    "free-product": (("first", "second"), (), (),
                     lambda args: free_product(_automaton(args, "first"),
                                               _automaton(args, "second"))),
    "zero-union": (("first", "second"), ("--symbol",), (),
                   lambda args: zero_union(_automaton(args, "first"),
                                           _automaton(args, "second"),
                                           args.symbol)),
}

_CONSTRUCT_FLAGS = {
    "--gens": {},
    "--kind": {"choices": ("semigroup", "monoid"), "default": "semigroup"},
    "--alphabet": {},
    "--symbol": {},
    "--rep": {},
    "--pairs": {"help": "sym=element:symbol,..."},
}


def cmd_construct(args):
    return _emit(args.build(args), args)


def _add_oracle_flags(p, bound=_ORACLE_BOUND):
    p.add_argument("--bound", type=int, default=bound)
    p.add_argument("--kind", choices=("semigroup", "monoid"), default=None,
                   help="for .tbl oracles (default: semigroup)")
    p.add_argument("--gens", default=None,
                   help="comma-separated generators for .tbl oracles")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ratwp",
        description="Two-tape automata for semigroup and monoid word problems",
    )
    parser.add_argument("--tokens", action="store_true",
                        help="read words as whitespace-separated tokens")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("accept", help="test a word pair")
    p.add_argument("automaton")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("verify", help="compare against a bounded oracle")
    p.add_argument("automaton")
    p.add_argument("oracle", help=".sgp presentation or .tbl table")
    _add_oracle_flags(p)

    p = sub.add_parser("compose", help="relational composition")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output")

    p = sub.add_parser("fix-tape", help="slice a relation at a fixed word")
    p.add_argument("automaton")
    p.add_argument("word")
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("-o", "--output")

    p = sub.add_parser("cross", help="cross product of two languages")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output")

    p = sub.add_parser("intersect", help="intersect with a rectangle L x K")
    p.add_argument("automaton")
    p.add_argument("left_lang")
    p.add_argument("right_lang")
    p.add_argument("-o", "--output")

    p = sub.add_parser("construct", help="build a word-problem automaton")
    kinds = p.add_subparsers(dest="what", required=True)
    for what, (inputs, required, optional, build) in _CONSTRUCTIONS.items():
        k = kinds.add_parser(what)
        for name in inputs:
            k.add_argument(name)
        for flag in required:
            k.add_argument(flag, required=True, **_CONSTRUCT_FLAGS[flag])
        for flag in optional:
            k.add_argument(flag, **_CONSTRUCT_FLAGS[flag])
        k.add_argument("-o", "--output")
        k.set_defaults(build=build)

    p = sub.add_parser("trim", help="keep useful states only")
    p.add_argument("automaton")
    p.add_argument("-o", "--output")

    p = sub.add_parser("pump", help="decompose and pump an accepted pair")
    p.add_argument("automaton")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--imax", type=int, default=5)

    p = sub.add_parser("pump-refute",
                       help="search for a pumping counterexample")
    p.add_argument("automaton")
    p.add_argument("oracle")
    p.add_argument("--imax", type=int, default=5)
    _add_oracle_flags(p)

    p = sub.add_parser("check", help="relation property checks")
    p.add_argument("property", choices=("equiv", "congruence"))
    p.add_argument("automaton")
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--kind", choices=("semigroup", "monoid"),
                   default="semigroup",
                   help="monoid: include the empty word")

    p = sub.add_parser("cross-section", help="loop-removal cross-section")
    p.add_argument("automaton")
    p.add_argument("--oracle", default=None,
                   help="validate against this .sgp/.tbl oracle")
    _add_oracle_flags(p, bound=None)  # a given --bound needs --oracle
    p.add_argument("-o", "--output")

    p = sub.add_parser("dot", help="graph description to stdout")
    p.add_argument("automaton")

    return parser


@functools.cache
def _parser():
    """build_parser(), built on the first call only: parse_args keeps no
    state between calls."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    # Each command runs cmd_<command>, looked up at call time rather than
    # kept in the cached parser, so a replaced cmd_* function takes effect.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
