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
    _accepted_cells,
    _accepted_codes,
    _accepting_run,
    _cell_codes,
    _code_limit,
    _reachable,
    _search_form,
)
from .oracle import (
    _UnionFind,
    _check_alphabets,
    _class_members,
    _equal_pairs,
    _missing_pairs,
    _over_accepted,
    _set_bits,
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
        raise InputError(f"pair too short: combined length must exceed {n0}")
    # a symbol outside the alphabet keys no step of the run search
    run = _accepting_run(form, (*v, None), (*w, None))
    if run is None:
        raise InputError("pair is not accepted")
    # a run of more than n steps repeats a state within its first n + 1
    first_seen = {}
    for stop, (q, k, m) in enumerate(run):
        if first_seen.setdefault(q, stop) != stop:
            break
    _, i, j = run[first_seen[q]]
    return PumpDecomposition(prefix=(v[:i], w[:j]), loop=(v[i:k], w[j:m]),
                             suffix=(v[k:], w[m:]))


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

    Every pumped pair compared is accepted, as it pumps a loop of an
    accepting run, and has both words within the oracle's bound + slack,
    so a witness is an accepted pair up to that length that the oracle
    calls unequal. Where there is none (oracle._over_accepted), the answer
    is "not-refuted" without a walk. Otherwise the long accepted pairs are
    walked in shortlex order (_long_pairs), each decomposed by
    pump_decompose and pumped for i = 0..i_max, until max_witnesses are
    found.
    """
    if bound < 0:
        raise InputError("bound must be >= 0")
    if i_max < 0:
        raise InputError("i_max must be >= 0")
    if max_witnesses < 1:
        raise InputError("max_witnesses must be >= 1")
    _check_alphabets(oracle, aut.left, aut.right)
    max_len = oracle.bound + oracle.slack
    witnesses = []
    if _over_accepted(aut, oracle, max_len):
        first = 0 if oracle.includes_empty else 1
        for pair in _long_pairs(_pump_form(aut), bound, first):
            dec = pump_decompose(aut, pair)
            for i in range(i_max + 1):
                # lengths grow with i; a semigroup has no empty word
                pv, pw = pumped = dec.pumped(i)
                if len(pv) > max_len or len(pw) > max_len:
                    break
                if (pv and pw or first == 0) and not oracle.equal(pv, pw):
                    witnesses.append((pair, i, pumped))
                    break
            if len(witnesses) == max_witnesses:
                break
    verdict = "refuted" if witnesses else "not-refuted"
    return Report("pump_refute", verdict, tuple(witnesses))


def _long_pairs(form, bound, first):
    """The accepted pairs of a pumping form up to the bound with |v| + |w|
    above twice its n states and neither word shorter than `first`, in
    shortlex order: row |v| by row, each row's pair codes sorted and
    decoded, read off the cells of _accepted_cells."""
    cells, stride, decode = _accepted_cells(form, bound)
    lim = _code_limit(len(form.right), bound)
    left = _cell_codes(len(form.left), bound)
    right = _cell_codes(len(form.right), bound)
    for i in range(first, bound + 1):
        row = []
        for j in range(max(first, 2 * form.n_states + 1 - i), bound + 1):
            if (i, j) in cells:
                row += [left[i][v] * lim + right[j][w] for v, w in (
                    divmod(bit, stride) for bit in _set_bits(cells[i, j]))]
        yield from map(decode, sorted(row))


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
