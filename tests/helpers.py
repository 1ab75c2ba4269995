"""Shared test utilities: independent oracles and small generators.

Everything here is deliberately written from scratch against the
definitions rather than by calling the code under test, so the tests
that use these functions are actual cross-checks.
"""

from __future__ import annotations

import hashlib
import json
import random

from headlab.control import CApp, CarS, Case, CCommand, CoVar, CPush, CStuckCo, CVar, Mu
from headlab.projection import TopTerm
from headlab.syntax import App, Index, Lam, Proj, Term, Var

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


def ref_control_measures(node, memo: dict | None = None) -> tuple[int, frozenset[str], frozenset[str]]:
    """(size, free term variables, free co-variables) of a control term,
    co-term or command.  A command counts its term and co-term, every other
    node counts one plus its children.  When `memo` is given it maps the id
    of every node visited to (node, size, term variables, co-variables),
    and a node already in it is not walked again."""
    if memo is not None and id(node) in memo:
        return memo[id(node)][1:]
    if isinstance(node, CVar):
        size, fv, fc = 1, frozenset((node.name,)), frozenset()
    elif isinstance(node, CoVar):
        size, fv, fc = 1, frozenset(), frozenset((node.name,))
    elif isinstance(node, (CarS, CStuckCo)):
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
# Outcome fingerprint: what the growth guard decided on a corpus, in a form
# small enough to commit.  `tests/golden_outcomes.json` holds the
# fingerprint of every weak-head and head engine over the 1000-term corpus.


def outcome_key(outcome) -> tuple[str, str, int | None]:
    """(kind, reason, betas) of an Outcome; Stuck carries no beta count."""
    kind = type(outcome).__name__
    reason = getattr(outcome, "reason", "")
    return kind, reason, getattr(outcome, "betas", None)


def outcome_fingerprint(outcomes) -> dict:
    keys = [outcome_key(o) for o in outcomes]
    counts: dict[str, int] = {}
    for kind, reason, _ in keys:
        label = f"{kind}/{reason}"
        counts[label] = counts.get(label, 0) + 1
    digest = hashlib.sha256(json.dumps(keys).encode("utf-8")).hexdigest()
    return {
        "counts": dict(sorted(counts.items())),
        "betas": sum(b for _, _, b in keys if b is not None),
        "sha256": digest,
    }
