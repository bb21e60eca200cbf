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


def _two_tape(aut, path):
    if not isinstance(aut, TwoTapeAutomaton):
        raise InputError(f"{path} is not a two-tape automaton")
    return aut


def _one_tape(aut, path):
    if not isinstance(aut, OneTapeAutomaton):
        raise InputError(f"{path} is not a one-tape automaton")
    return aut


def _load_oracle(path, args):
    if path.endswith(".tbl"):
        table = load_tbl(path)
        gens = args.gens.split(",") if args.gens else list(table.elements)
        return table_oracle(table, gens, bound=args.bound, kind=args.kind)
    presentation = load_sgp(path)
    return build_oracle(presentation, args.bound,
                        schema_bound=args.schema_bound)


def cmd_accept(args):
    aut = _two_tape(load_fsa(args.automaton), args.automaton)
    v = _word(args.left, args, aut.left)
    w = _word(args.right, args, aut.right)
    if aut.accepts(v, w):
        print("ACCEPT")
        return 0
    print("REJECT")
    return 1


def cmd_verify(args):
    aut = _two_tape(load_fsa(args.automaton), args.automaton)
    oracle = _load_oracle(args.oracle, args)
    disagreements = verify(aut, oracle, args.bound)
    if not disagreements:
        print("OK (0 disagreements)")
        return 0
    print(f"FAIL ({len(disagreements)} disagreements)")
    for v, w in disagreements:
        print(f"  {''.join(v) or '-'} {''.join(w) or '-'}")
    return 1


def cmd_compose(args):
    r = _two_tape(load_fsa(args.first), args.first)
    s = _two_tape(load_fsa(args.second), args.second)
    return _emit(compose(r, s), args)


def cmd_fix_tape(args):
    r = _two_tape(load_fsa(args.automaton), args.automaton)
    fixed = r.left if args.side == "left" else r.right
    return _emit(fix_tape(r, _word(args.word, args, fixed), args.side), args)


def cmd_cross(args):
    l1 = _one_tape(load_fsa(args.first), args.first)
    l2 = _one_tape(load_fsa(args.second), args.second)
    return _emit(cross_product(l1, l2), args)


def cmd_intersect(args):
    r = _two_tape(load_fsa(args.automaton), args.automaton)
    l = _one_tape(load_fsa(args.left_lang), args.left_lang)
    k = _one_tape(load_fsa(args.right_lang), args.right_lang)
    return _emit(intersect_rectangle(r, l, k), args)


def cmd_trim(args):
    return _emit(trim(load_fsa(args.automaton)), args)


def cmd_pump(args):
    aut = _two_tape(load_fsa(args.automaton), args.automaton)
    pair = (_word(args.left, args, aut.left), _word(args.right, args, aut.right))
    dec = pump_decompose(aut, pair)

    def fmt(p):
        return f"({''.join(p[0]) or '-'}, {''.join(p[1]) or '-'})"

    print(f"prefix {fmt(dec.prefix)} loop {fmt(dec.loop)} suffix {fmt(dec.suffix)}")
    report = pump_check(aut, dec, args.imax)
    print(report)
    return 0 if report.verdict == "pass" else 1


def cmd_pump_refute(args):
    aut = _two_tape(load_fsa(args.automaton), args.automaton)
    oracle = _load_oracle(args.oracle, args)
    report = pump_refute(aut, oracle, args.bound, i_max=args.imax)
    print(report)
    return 1 if report.verdict == "refuted" else 0


def cmd_check(args):
    aut = _two_tape(load_fsa(args.automaton), args.automaton)
    check = equivalence_check if args.property == "equiv" else congruence_check
    report = check(aut, args.bound, kind=args.kind)
    print(report)
    return 0 if report.verdict == "pass" else 1


def cmd_cross_section(args):
    aut = _two_tape(load_fsa(args.automaton), args.automaton)
    d = cross_section(aut)
    if args.oracle:
        oracle = _load_oracle(args.oracle, args)
        report = validate_cross_section(d, oracle, args.bound)
        print(report)
        if args.output:
            save_fsa(d, args.output)
        return 0 if report.verdict == "pass" else 1
    return _emit(d, args)


def cmd_dot(args):
    sys.stdout.write(export_dot(load_fsa(args.automaton)))
    return 0


def _parse_pairs(text):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "=" not in chunk or ":" not in chunk:
            raise InputError(
                f"bad pair spec {chunk!r}; expected sym=element:symbol")
        sym, rest = chunk.split("=", 1)
        s_elem, t_sym = rest.split(":", 1)
        pairs.append((sym.strip(), s_elem.strip(), t_sym.strip()))
    return ProductGenerators(tuple(pairs))


def cmd_construct(args):
    what = args.what
    if what == "cayley":
        table = load_tbl(args.inputs[0])
        gens = args.gens.split(",") if args.gens else list(table.elements)
        return _emit(cayley_wp_sync(table, gens, kind=args.kind), args)
    if what == "free":
        if not args.alphabet:
            raise InputError("construct free needs --alphabet")
        return _emit(free_wp(Alphabet(tuple(args.alphabet.split())),
                             kind=args.kind), args)
    if what == "from-builtin":
        value = builtin(args.inputs[0])
        if not isinstance(value, TwoTapeAutomaton):
            raise InputError(
                f"builtin {args.inputs[0]!r} has no deciding automaton")
        return _emit(value, args)
    wp = _two_tape(load_fsa(args.inputs[0]), args.inputs[0])
    if what == "add-gen":
        if not args.symbol or not args.rep:
            raise InputError("construct add-gen needs --symbol and --rep")
        return _emit(add_generator(wp, args.symbol,
                                   _word(args.rep, args, wp.left)), args)
    if what == "remove-gen":
        if not args.symbol:
            raise InputError("construct remove-gen needs --symbol")
        return _emit(remove_generator(wp, args.symbol), args)
    if what == "adjoin-one":
        if not args.symbol:
            raise InputError("construct adjoin-one needs --symbol")
        return _emit(adjoin_identity(wp, args.symbol), args)
    if what == "adjoin-zero":
        if not args.symbol:
            raise InputError("construct adjoin-zero needs --symbol")
        return _emit(adjoin_zero(wp, args.symbol), args)
    if what == "ideal-ext":
        return _emit(ideal_extension(wp, load_ideal(args.inputs[1])), args)
    if what == "product-finite":
        if not args.pairs:
            raise InputError("construct product-finite needs --pairs")
        table = load_tbl(args.inputs[1])
        return _emit(product_with_finite(table, wp, _parse_pairs(args.pairs)),
                     args)
    if what == "free-product":
        other = _two_tape(load_fsa(args.inputs[1]), args.inputs[1])
        return _emit(free_product(wp, other), args)
    if what == "zero-union":
        if not args.symbol:
            raise InputError("construct zero-union needs --symbol (the zero)")
        other = _two_tape(load_fsa(args.inputs[1]), args.inputs[1])
        return _emit(zero_union(wp, other, args.symbol), args)
    raise InputError(f"unknown construction {what!r}")


def _add_oracle_flags(p):
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--schema-bound", type=int, default=None)
    p.add_argument("--kind", choices=("semigroup", "monoid"),
                   default="semigroup")
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
    p.add_argument("what", choices=(
        "cayley", "free", "add-gen", "remove-gen", "adjoin-one",
        "adjoin-zero", "ideal-ext", "product-finite", "free-product",
        "zero-union", "from-builtin"))
    p.add_argument("inputs", nargs="*")
    p.add_argument("--kind", choices=("semigroup", "monoid"),
                   default="semigroup")
    p.add_argument("--gens", default=None)
    p.add_argument("--alphabet", default=None)
    p.add_argument("--symbol", default=None)
    p.add_argument("--rep", default=None)
    p.add_argument("--pairs", default=None,
                   help="sym=element:symbol,... for product-finite")
    p.add_argument("-o", "--output")

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
    _add_oracle_flags(p)
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
