"""Pumping-lemma machinery, relation-property checks, and the loop-removal
cross-section transformation."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .automata import (
    EPSILON,
    PAD,
    InputError,
    OneTapeAutomaton,
    NfaTransition,
    _accepted_codes,
    _accepting_run,
    _code_limit,
    _pair_coding,
    _pair_moves,
    _reachable,
    _search_form,
)
from .oracle import (
    _UnionFind,
    _check_alphabets,
    _class_members,
    _equal_pairs,
    _missing_pairs,
)


@dataclass(frozen=True)
class Report:
    name: str
    verdict: str          # "pass" / "fail" / "refuted" / "not-refuted"
    witnesses: tuple = ()

    def __str__(self):
        lines = [f"{self.name}: {self.verdict}"]
        for w in self.witnesses:
            lines.append(f"  {w}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PumpDecomposition:
    """Split of an accepted pair into prefix, loop, and suffix pairs such
    that repeating the loop any number of times stays accepted."""

    prefix: tuple   # (x1, x2)
    loop: tuple     # (u1, u2)
    suffix: tuple   # (y1, y2)

    def __post_init__(self):
        if len(self.loop[0]) + len(self.loop[1]) < 1:
            raise InputError("pump loop must consume at least one symbol")

    def pumped(self, i):
        x, u, y = self.prefix, self.loop, self.suffix
        return (x[0] + u[0] * i + y[0], x[1] + u[1] * i + y[1])


def _pump_form(aut):
    """The trimmed search form, kept on the search form (see trimmed)."""
    return _search_form(aut).trimmed


def pumping_constant(aut):
    """Pumping bound: a pair with combined length above it is guaranteed a
    decomposition.

    Twice the silent-free state count: a step may consume two symbols, so
    a combined length above 2|Q| forces more than |Q| steps and hence a
    repeated state within the first |Q| steps, consuming at most 2|Q|
    symbols.
    """
    return 2 * _pump_form(aut).n_states


def pump_decompose(aut, pair):
    """Decomposition of an accepted pair around the first repeated state of
    an accepting run."""
    form = _pump_form(aut)
    v, w = tuple(pair[0]), tuple(pair[1])
    n0 = 2 * form.n_states
    if len(v) + len(w) <= n0:
        raise InputError(
            f"pair too short: combined length must exceed {n0}"
        )
    run = _accepting_run(form, v, w)
    if run is None:
        raise InputError("pair is not accepted")
    start, stop = _first_repeat([q for q, _, _ in run])
    (_, i, j), (_, k, m) = run[start], run[stop]
    return _cut(v, w, (v[:i], w[:j]), (v[:k], w[:m]))


def _first_repeat(states):
    """(i, j) for the first j such that states[j] occurs earlier, at i."""
    first_seen = {}
    for j, q in enumerate(states):
        i = first_seen.setdefault(q, j)
        if i != j:
            return i, j
    raise AssertionError("run longer than the state count must repeat")


def _cut(v, w, x, z):
    """The decomposition of (v, w) whose prefix is the pair x and whose
    prefix and loop together are the pair z, both pairs of prefixes of v
    and w."""
    return PumpDecomposition(
        prefix=x,
        loop=(z[0][len(x[0]):], z[1][len(x[1]):]),
        suffix=(v[len(z[0]):], w[len(z[1]):]),
    )


def pump_check(aut, decomposition, i_max=5):
    """Assert acceptance of every pumped pair for i = 0..i_max."""
    if i_max < 0:
        raise InputError("i_max must be >= 0")
    for i in range(i_max + 1):
        pv, pw = decomposition.pumped(i)
        if not aut.accepts(pv, pw):
            return Report("pump_check", "fail", ((i, pv, pw),))
    return Report("pump_check", "pass")


def pump_refute(aut, oracle, bound, i_max=5, max_witnesses=5):
    """Look for an accepted pair whose pumped variants the oracle rejects;
    any hit proves the automaton does not decide the oracle's word problem.

    Pairs are tried in shortlex order, each decomposed as pump_decompose
    does, and the search stops after the row of |v| that fills the
    witnesses (_cut_rows). A pair is pumped on integer codes, a group of
    one cell (|v|, |w|) and one cut at a time: per tape, a pumped word's
    code is the word's code plus a constant of the group and i, and its
    length alone says whether it is empty or beyond the oracle's table.
    Only a witness is built as words.
    """
    if i_max < 0:
        raise InputError("i_max must be >= 0")
    if max_witnesses < 1:
        raise InputError("max_witnesses must be >= 1")
    _check_alphabets(oracle, aut.left, aut.right)
    form = _pump_form(aut)
    k = len(oracle.alphabet)
    skip_empty = not oracle.includes_empty
    table = oracle.class_by_code
    max_len = oracle.bound + oracle.slack
    _, lim, _, decode = _pair_coding(form, bound)
    # the codes of the words of length m + 1 start at starts[m]
    starts = [_code_limit(k, m) for m in range(bound + 1)]

    def tape(x, z, length):
        """For one tape's prefix x, z = x u and word z y of that length:
        e = (code(z) - code(x)) k^|y|, k^|u| and |u|. code(x u^i y) is
        code(z y) + c_i, c_0 = -e, c_(i+1) = (c_i + e) k^|u| (_cut_rows)."""
        lx, lz = bisect_right(starts, x), bisect_right(starts, z)
        return (z - x) * k ** (length - lz), k ** (lz - lx), lz - lx

    witnesses = []
    for lv, row in _cut_rows(form, bound):
        found = []
        for lw, (x, z), todo in row:
            if skip_empty and not (lv and lw):
                continue
            (ev, mv, luv), (ew, mw, luw) = (
                tape(*ends) for ends in zip(divmod(x, lim), divmod(z, lim),
                                            (lv, lw)))
            cv, cw = -ev, -ew
            for i in range(i_max + 1):
                # Oracle.equal's checks on |x u^i y| = |v| + (i - 1) |u|: both
                # words in the table (lengths grow with i), none empty in a
                # semigroup
                len_v, len_w = lv + (i - 1) * luv, lw + (i - 1) * luw
                if len_v > max_len or len_w > max_len:
                    break
                if len_v and len_w or not skip_empty:
                    bad = {p for p in todo
                           if table[p // lim + cv] != table[p % lim + cw]}
                    if bad:
                        found += [(p, i, x, z) for p in bad]
                        todo = todo - bad
                        if not todo:
                            break
                cv, cw = (cv + ev) * mv, (cw + ew) * mw
        found.sort()
        for p, i, x, z in found[:max_witnesses - len(witnesses)]:
            pair = decode(p)
            pumped = _cut(*pair, decode(x), decode(z)).pumped(i)
            witnesses.append((pair, i, pumped))
        if len(witnesses) >= max_witnesses:
            break
    verdict = "refuted" if witnesses else "not-refuted"
    return Report("pump_refute", verdict, tuple(witnesses))


def _cut_rows(form, bound):
    """The long accepted pairs of a pumping form up to the bound, |v| + |w|
    above twice its n states, with the cuts pump_decompose makes. Yields
    (|v|, row) for |v| = 0 to the bound, row listing (|w|, (x, z), codes):
    a set of pair codes (_pair_coding), and the pair codes of the run's
    prefixes where its loop starts and stops.

    pump_decompose cuts the run that a first-in first-out search over the
    nodes (state, v, w) reaches first at its first repeated state, which
    a long pair's run has within n steps. That search reaches the nodes
    of one depth in the order of their runs' step indices, an order that
    cutting runs after their first repeat keeps. So a node's key (depth,
    run up to its first repeat, cut once there is one) is the least of
    the keys one step on of the nodes it is reached from, and a pair's is
    the least of its accepting nodes'. Every step reads a symbol, so keys
    are filled in cell by cell over (|v|, |w|), in row order, on groups
    of codes as in _accepted_codes; a key without a cut is one node's.
    """
    form, lim, moves, _ = _pair_moves(form, bound)
    n = form.n_states
    if bound <= n:
        return  # |v| + |w| <= 2n for every pair
    cells = [[{} for _ in range(bound + 1)] for _ in range(bound + 1)]
    # a run is a tuple of nodes (step index, state, pair code)
    cells[0][0][form.initial] = {(0, ((0, form.initial, 0),), None): {0}}
    for i, row in enumerate(cells):
        out = []
        for j, cell in enumerate(row):
            row[j] = None
            accepted = {}
            for q, keyed in cell.items():
                seen = set()
                for key in sorted(keyed):  # each code keeps its least key
                    codes = keyed[key] = keyed[key] - seen
                    seen |= codes
                if q in form.finals and i + j > 2 * n:
                    for key, codes in keyed.items():
                        accepted.setdefault(key, set()).update(codes)
                for step, (rl, rr, a, b, c, dst, max_i, max_j,
                           max_total) in enumerate(moves[q]):
                    ni, nj = i + rl, j + rr
                    if ni > max_i or nj > max_j or ni + nj > max_total:
                        continue
                    target = cells[ni][nj].setdefault(dst, {})
                    for (depth, run, cut), codes in keyed.items():
                        if not codes:
                            continue
                        if b:
                            new = {a * p + b * (p % lim) + c for p in codes}
                        else:
                            new = {a * p + c for p in codes}
                        if cut is None:
                            (p,) = new
                            states = [s for _, s, _ in run]
                            run += ((step, dst, p),)
                            if dst in states:
                                cut = (run[states.index(dst)][2], p)
                        group = target.setdefault((depth + 1, run, cut), new)
                        if group is not new:
                            group |= new
            by_cut, seen = {}, set()
            for key in sorted(accepted):
                codes = accepted[key] - seen
                seen |= codes
                by_cut.setdefault(key[2], set()).update(codes)
            out += [(j, cut, codes) for cut, codes in by_cut.items() if codes]
        yield i, out


def _checked_codes(aut, bound, kind):
    """The accepted pairs up to the bound that the relation checks range
    over, as pair codes (see automata._pair_coding): all of them for kind
    "monoid", those of two nonempty words for kind "semigroup". Returns
    (codes, decode, first, lim): first is the least word code checked,
    lim the code limit of both tapes. A semigroup has no word up to bound
    0 to check, so that bound is an error, as it is for an oracle."""
    if kind not in ("semigroup", "monoid"):
        raise InputError(f"kind must be 'semigroup' or 'monoid', not {kind!r}")
    if kind == "semigroup" and bound < 1:
        raise InputError("bound must be >= 1")
    accepted, decode = _accepted_codes(aut, bound)
    lim = _code_limit(len(aut.left), bound)
    if kind == "semigroup":
        return {p for p in accepted if p >= lim and p % lim}, decode, 1, lim
    return accepted, decode, 0, lim


def equivalence_check(aut, bound, kind="semigroup"):
    """Reflexivity, symmetry, and transitivity over all words up to the
    bound: nonempty words for kind "semigroup", the empty word too for
    kind "monoid".

    Works on pair codes, p = code(v) R + code(w); each check reports its
    first failure in shortlex order and decodes only that witness."""
    if aut.left != aut.right:
        raise InputError("equivalence check needs equal tape alphabets")
    accepted, decode, first, lim = _checked_codes(aut, bound, kind)
    for c in range(first, lim):
        if c * lim + c not in accepted:
            return Report("equivalence_check", "fail",
                          (("reflexivity", decode(c * lim + c)[0]),))
    asymmetric = min((p for p in accepted
                      if (p % lim) * lim + p // lim not in accepted),
                     default=None)
    if asymmetric is not None:
        return Report("equivalence_check", "fail",
                      (("symmetry",) + decode(asymmetric),))
    # Transitivity via connected components: the relation is transitive
    # (given reflexive + symmetric) iff it equals the union of the squared
    # components.
    comp = _UnionFind(lim)
    for p in accepted:
        comp.union(*divmod(p, lim))
    ids = comp.ids(0, lim)
    missing = next(_missing_pairs(ids, first, lim, accepted, len(accepted),
                                  _equal_pairs(ids, first, lim)), None)
    if missing is not None:
        # some u links v and w but (v, w) is missing
        return Report("equivalence_check", "fail",
                      (("transitivity",) + decode(missing),))
    return Report("equivalence_check", "pass")


def congruence_check(aut, bound, kind="semigroup"):
    """Closure of the accepted relation under two-sided contexts within the
    bound; kind chooses the words as in equivalence_check.

    Only one-letter contexts are tried, right ones before left ones: if
    every accepted pair stays accepted with one more letter on either side
    wherever that fits the bound, every longer context follows one letter
    at a time, each intermediate pair being within the bound. A context is
    code arithmetic: with d the letter's index + 1, code(u a) = code(u) k
    + d and code(a u) = d k^|u| + code(u)."""
    if aut.left != aut.right:
        raise InputError("congruence check needs equal tape alphabets")
    accepted, decode, _, lim = _checked_codes(aut, bound, kind)
    letters = tuple(enumerate(aut.left, 1))
    k = len(letters)
    # the codes of the words of length m + 1 start at starts[m]; the
    # words shorter than the bound are the codes below short
    starts = [_code_limit(k, m) for m in range(bound)]
    short = _code_limit(k, bound - 1)
    for p in sorted(accepted):
        v, w = divmod(p, lim)
        if v >= short or w >= short:
            continue
        for d, a in letters:
            if (v * k + d) * lim + w * k + d not in accepted:
                return Report("congruence_check", "fail",
                              (("context", decode(p), ((), (a,))),))
        shift_v = k ** bisect_right(starts, v)
        shift_w = k ** bisect_right(starts, w)
        for d, a in letters:
            if (d * shift_v + v) * lim + d * shift_w + w not in accepted:
                return Report("congruence_check", "fail",
                              (("context", decode(p), ((a,), ())),))
    return Report("congruence_check", "pass")


def _eps_right_cycle_edges(aut):
    """Transitions lying on a cycle whose right labels all read nothing,
    epsilon or a pad: such an edge u -> v is on one iff u is reachable
    from v along such edges."""
    eps_edges = [t for t in aut.transitions if t.right in (EPSILON, PAD)]
    adj = [[] for _ in range(aut.n_states)]
    for t in eps_edges:
        adj[t.src].append(t.dst)
    reach = {v: _reachable((v,), adj) for v in {t.dst for t in eps_edges}}
    return {t for t in eps_edges if t.src in reach[t.dst]}


def cross_section(aut):
    """Candidate regular cross-section: delete every transition on a cycle
    with only-epsilon right labels, then project to the left tape. A sync
    automaton is read as it is, a pad reading nothing as epsilon does."""
    form = _pump_form(aut)
    removed = _eps_right_cycle_edges(form)
    trans = tuple(
        NfaTransition(t.src, EPSILON if t.left == PAD else t.left, t.dst)
        for t in form.transitions
        if t not in removed
    )
    return OneTapeAutomaton(
        n_states=form.n_states,
        alphabet=form.left,
        initial=form.initial,
        finals=form.finals,
        transitions=trans,
    )


def validate_cross_section(d, oracle, bound):
    """Check that every oracle class with a short representative meets D,
    and that per-class membership counts are stable from bound-1 to bound
    (the desk-scale finiteness proxy).

    Works on word codes: D is enumerated once, at the bound, through its
    relation view, whose right code limit is 1, so a pair code is a word
    code. Classes come from the oracle's table in class id order, and only
    a witness is decoded. A semigroup oracle has no word up to bound 0, so
    that bound is an error."""
    if bound < 1 and not oracle.includes_empty:
        raise InputError("bound must be >= 1")
    _check_alphabets(oracle, d.alphabet)
    if bound > oracle.bound + oracle.slack:
        raise InputError("query beyond the oracle's bound")
    lang, decode = _accepted_codes(d.relation_view, bound)
    k = len(oracle.alphabet)
    short = _code_limit(k, bound - 1)  # the words shorter than the bound
    classes = _class_members(oracle.class_by_code,
                             0 if oracle.includes_empty else 1,
                             _code_limit(k, bound))
    witnesses = []
    for _, members in sorted(classes.items()):
        hits = [c for c in members if c in lang]
        if not hits:
            witnesses.append(("missing", decode(members[0])[0]))
        elif members[0] < short:
            prev_hits = sum(1 for c in hits if c < short)
            if prev_hits != len(hits):
                witnesses.append(("growing", decode(members[0])[0],
                                  prev_hits, len(hits)))
    verdict = "pass" if not witnesses else "fail"
    return Report("validate_cross_section", verdict, tuple(witnesses))


def _label_str(lab):
    if lab is EPSILON:
        return "ε"
    if lab == PAD:
        return "□"
    return lab


def export_dot(aut):
    """Deterministic DOT text of a graph named automaton; parallel
    transitions are merged into one labelled edge."""
    lines = ["digraph automaton {", "  rankdir=LR;",
             "  __init [shape=point, label=\"\"];"]
    for q in range(aut.n_states):
        shape = "doublecircle" if q in aut.finals else "circle"
        lines.append(f"  {q} [label=\"q{q}\", shape={shape}];")
    lines.append(f"  __init -> {aut.initial};")
    edges = {}
    for t in aut.transitions:
        if isinstance(t, NfaTransition):
            lab = _label_str(t.label)
        else:
            lab = f"({_label_str(t.left)},{_label_str(t.right)})"
        edges.setdefault((t.src, t.dst), [])
        if lab not in edges[(t.src, t.dst)]:
            edges[(t.src, t.dst)].append(lab)
    for (src, dst), labels in sorted(edges.items()):
        label = ", ".join(labels)
        lines.append(f"  {src} -> {dst} [label=\"{label}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
