"""Shared test utilities: independent oracles and small generators.

The oracles and generators are deliberately written from scratch against
the definitions rather than by calling the code under test, so the tests
that use them are actual cross-checks.  `force_per_binder` is the one
exception: it is the earlier form of `envmachine.force`, which named each
binder by walking the forced body, kept as the oracle of the one-pass
form.  The last two sections drive the code under test: `read_back` runs
the engines' readback driver, and the fingerprints digest what the
engines return.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from functools import lru_cache

from headlab.control import CApp, Case, CCommand, CoVar, CPush, CStuckCo, Mu
from headlab.engines import _machine_readback
from headlab.envmachine import Binding, Closure, ForceBudgetExceeded, _chain_of, env_lookup
from headlab.headsimple import HStuck
from headlab.pretty import print_term
from headlab.projection import TopTerm
from headlab.syntax import App, Index, Lam, Proj, Term, Var, all_names, fresh, subst
from headlab.weakhead import PCommand, PPush

# ---------------------------------------------------------------------------
# Nameless-term oracle for alpha-equivalence and substitution.
#
# Representation: ("bound", k) counts binders outward from the use site,
# ("free", name) is a named free variable, plus ("lam", body) and
# ("app", f, a).  Because free variables stay named, substituting one
# term for a free name needs no index shifting: bound indices never
# escape their own skeleton.


def to_db(t: Term, env: tuple[str, ...] = ()):
    if isinstance(t, Var):
        for k, name in enumerate(reversed(env)):
            if name == t.name:
                return ("bound", k)
        return ("free", t.name)
    if isinstance(t, App):
        return ("app", to_db(t.fun, env), to_db(t.arg, env))
    if isinstance(t, Lam):
        return ("lam", to_db(t.body, env + (t.binder,)))
    raise TypeError(t)


def db_subst(skel, name: str, replacement):
    """Substitute a nameless skeleton for a free name in another."""
    tag = skel[0]
    if tag == "free":
        return replacement if skel[1] == name else skel
    if tag == "bound":
        return skel
    if tag == "app":
        return ("app", db_subst(skel[1], name, replacement), db_subst(skel[2], name, replacement))
    if tag == "lam":
        return ("lam", db_subst(skel[1], name, replacement))
    raise TypeError(skel)


def db_free_names(skel) -> set[str]:
    tag = skel[0]
    if tag == "free":
        return {skel[1]}
    if tag == "bound":
        return set()
    if tag == "app":
        return db_free_names(skel[1]) | db_free_names(skel[2])
    return db_free_names(skel[1])


# ---------------------------------------------------------------------------
# Reference measures: node count, height and free variables by a plain
# recursive walk, with none of the fields that term nodes cache.


def ref_measures(t: Term, out: list | None = None) -> tuple[int, int, frozenset[str]]:
    """(size, height, free names) of t.  When `out` is given, every node
    of t is appended to it in post-order as (node, size, height, free)."""
    if isinstance(t, Var):
        size, height, free = 1, 1, frozenset((t.name,))
    elif isinstance(t, (Proj, Index)):
        size, height, free = 1, 1, frozenset()
    elif isinstance(t, App):
        f_size, f_height, f_free = ref_measures(t.fun, out)
        a_size, a_height, a_free = ref_measures(t.arg, out)
        size, height, free = 1 + f_size + a_size, 1 + max(f_height, a_height), f_free | a_free
    elif isinstance(t, Lam):
        b_size, b_height, b_free = ref_measures(t.body, out)
        size, height, free = 1 + b_size, 1 + b_height, b_free - {t.binder}
    else:
        raise TypeError(t)
    if out is not None:
        out.append((t, size, height, free))
    return size, height, free


def plugged_measures(state) -> tuple[int, int]:
    """(size, height) of the term a substitution-machine state (or a
    TopTerm, or a term) plugs back to, by building that term and walking
    it with ref_measures: the stacked arguments are folded back on and the
    binders passed wrap the result.  The reference for the `size` and
    `height` that states report without a walk."""
    binders = 0
    if isinstance(state, TopTerm):
        t, binders = state.body, state.binders
    elif isinstance(state, PCommand):
        t, coterm = state.term, state.coterm
        while isinstance(coterm, PPush):
            t, coterm = App(t, coterm.arg), coterm.rest
        binders = len(coterm.binders) if isinstance(coterm, HStuck) else coterm.depth
    else:
        t = state
    for _ in range(binders):
        t = Lam("_", t)
    size, height, _ = ref_measures(t)
    return size, height


def ref_control_measures(node, memo: dict | None = None) -> tuple[int, frozenset[str], frozenset[str]]:
    """(size, free term variables, free co-variables) of a control term,
    co-term or command.  A command counts its term and co-term, every other
    node counts one plus its children.  When `memo` is given it maps the id
    of every node visited to (node, size, term variables, co-variables),
    and a node already in it is not walked again."""
    if memo is not None and id(node) in memo:
        return memo[id(node)][1:]
    if isinstance(node, Var):
        size, fv, fc = 1, frozenset((node.name,)), frozenset()
    elif isinstance(node, CoVar):
        size, fv, fc = 1, frozenset(), frozenset((node.name,))
    elif isinstance(node, (Proj, CStuckCo)):
        size, fv, fc = 1, frozenset(), frozenset()
    elif isinstance(node, (CApp, CPush, CCommand)):
        if isinstance(node, CApp):
            parts, own = (node.fun, node.arg), 1
        elif isinstance(node, CPush):
            parts, own = (node.arg, node.rest), 1
        else:
            parts, own = (node.term, node.coterm), 0
        (s1, fv1, fc1), (s2, fv2, fc2) = (ref_control_measures(part, memo) for part in parts)
        size, fv, fc = own + s1 + s2, fv1 | fv2, fc1 | fc2
    elif isinstance(node, Mu):
        b_size, fv, b_fc = ref_control_measures(node.body, memo)
        size, fc = 1 + b_size, b_fc - {node.covar}
    elif isinstance(node, Case):
        b_size, b_fv, b_fc = ref_control_measures(node.body, memo)
        size, fv, fc = 1 + b_size, b_fv - {node.binder}, b_fc - {node.cobinder}
    else:
        raise TypeError(node)
    if memo is not None:
        memo[id(node)] = (node, size, fv, fc)
    return size, fv, fc


# ---------------------------------------------------------------------------
# Open-term material: peeling leading binders off a closed term exposes
# its binder names as free variables, which gives realistic open terms
# with capture opportunities.


def peel(t: Term, rng: random.Random) -> tuple[Term, list[str]]:
    names = []
    while isinstance(t, Lam) and rng.random() < 0.8:
        names.append(t.binder)
        t = t.body
    return t, names


# ---------------------------------------------------------------------------
# Every closed term up to a size, for exhaustive checks.


@lru_cache(maxsize=None)
def closed_terms(size: int, binders: tuple[str, ...] = ("x", "y"), scope: frozenset = frozenset()) -> tuple:
    """Every term of exactly `size` nodes whose binders are drawn from
    `binders` and whose variables are all in `scope` or bound."""
    out: list[Term] = [Var(name) for name in sorted(scope)] if size == 1 else []
    if size >= 2:
        for b in binders:
            out += [Lam(b, body) for body in closed_terms(size - 1, binders, scope | {b})]
    for left in range(1, size - 1):
        for fun in closed_terms(left, binders, scope):
            out += [App(fun, arg) for arg in closed_terms(size - 1 - left, binders, scope)]
    return tuple(out)


# ---------------------------------------------------------------------------
# The earlier `envmachine.force`, the oracle of the one-pass form: each
# binder is named by walking its forced body (`all_names`), and its marker
# is substituted away at once (`subst`).


def force_per_binder(closure: Closure, max_nodes: int | None = None) -> Term:
    markers = itertools.count()
    produced = [0]

    def note(nodes: int = 1) -> None:
        produced[0] += nodes
        if max_nodes is not None and produced[0] > max_nodes:
            raise ForceBudgetExceeded()

    def go(t: Term, env) -> Term:
        note()
        match t:
            case Var(name):
                found = env_lookup(env, name)
                if found is None:
                    return t
                hops, end = _chain_of(found)
                note(hops)
                return go(end.term, end.env)
            case App(fun, arg):
                return App(go(fun, env), go(arg, env))
            case Lam(binder, body):
                marker = f"%{next(markers)}"
                shadowed = Binding(binder, Closure(Var(marker), None), env)
                forced = go(body, shadowed)
                name = fresh(all_names(forced) - {marker}, binder)
                return Lam(name, subst(forced, marker, Var(name)))
            case _:
                return t

    return go(closure.term, closure.env)


# ---------------------------------------------------------------------------
# Random legal index-form top terms.


def gen_top_term(rng: random.Random, binders: int, size: int) -> TopTerm:
    pool = [f"v{i}" for i in range(3)]

    def go(scope: tuple[str, ...], budget: int) -> Term:
        atoms: list[Term] = [Var(n) for n in scope]
        atoms.extend(Index(i) for i in range(binders))
        if budget <= 1 or rng.random() < 0.25:
            if atoms and rng.random() < 0.8:
                return atoms[rng.randrange(len(atoms))]
            name = pool[rng.randrange(len(pool))]
            return Lam(name, Var(name))
        if rng.random() < 0.45:
            name = pool[rng.randrange(len(pool))]
            return Lam(name, go(scope + (name,), budget - 1))
        split = rng.randint(1, budget - 1)
        return App(go(scope, split), go(scope, budget - split))

    return TopTerm(binders, go((), size))


# ---------------------------------------------------------------------------
# The corpus terms (of the first 100) that every stepping engine runs to a
# guard, env-krivine and env-head through lookup chains, and the smallest
# term that does so.

GUARD_INDICES = (1, 6, 22, 76, 81)
GUARD_TERM = r"(\x.x x) (\x.x x) (\x y.x)"


# ---------------------------------------------------------------------------
# Readback of a single machine state, through the driver every engine uses.


def read_back(step_fn, state) -> Term:
    """Apply a readback step function to `state` until it is done, with the
    engines' one readback driver, and return the term it reads back."""
    return _machine_readback(step_fn, state, lambda rule, s: None, None)


# ---------------------------------------------------------------------------
# Outcome fingerprint: what the growth guard decided on a corpus, in a form
# small enough to commit.  `tests/golden_outcomes.json` holds the
# fingerprint of every engine over the 1000-term corpus, plus a digest of
# its traces on the first TRACE_TERMS corpus terms at TRACE_FUEL.

TRACE_TERMS = 40
TRACE_FUEL = 200


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def outcome_key(outcome) -> tuple[str, str, int | None]:
    """(kind, reason, betas) of an Outcome; Stuck carries no beta count."""
    kind = type(outcome).__name__
    reason = getattr(outcome, "reason", "")
    return kind, reason, getattr(outcome, "betas", None)


def outcome_record(outcome) -> tuple:
    """(kind, printed result or last_state, steps, betas, reason) of an
    Outcome: everything it says, with None where its kind has no field."""
    kind = type(outcome).__name__
    shown = print_term(outcome.result) if kind == "Normal" else outcome.last_state
    return kind, shown, getattr(outcome, "steps", None), getattr(outcome, "betas", None), getattr(outcome, "reason", "")


def outcome_fingerprint(outcomes) -> dict:
    keys = [outcome_key(o) for o in outcomes]
    counts: dict[str, int] = {}
    for kind, reason, _ in keys:
        label = f"{kind}/{reason}"
        counts[label] = counts.get(label, 0) + 1
    return {
        "counts": dict(sorted(counts.items())),
        "betas": sum(b for _, _, b in keys if b is not None),
        "sha256": _sha256(keys),
        "outcomes_sha256": _sha256([outcome_record(o) for o in outcomes]),
    }


def trace_digest(traces) -> str:
    """sha256 of every event (step, phase, rule, state) of each trace."""
    return _sha256([[(e.step, e.phase, e.rule, e.state) for e in tr.events] for tr in traces])


def golden_entry(outcomes, traces) -> dict:
    """One engine's entry of tests/golden_outcomes.json."""
    return {**outcome_fingerprint(outcomes), "trace_sha256": trace_digest(traces)}
