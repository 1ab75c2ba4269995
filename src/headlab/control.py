"""Stack machines for the lambda calculus with first-class contexts.

Terms here can name their evaluation context (Mu) or pattern-match on it
(Case); a lambda embeds as a Case that rebinds its argument and passes
the remaining context on.  The control syntax is the term syntax's
leaves, syntax.Var and syntax.Proj, plus CApp, Mu, Case and the
co-terms, and pretty prints both syntaxes with one printer.  Two
machines share the syntax: the plain one halts when a Case faces
something that is not a call stack, while the projection variant splits
a stuck co-term into its head projection (a Proj, as head-proj's
`project` makes) and tail and keeps running.  Legality ties the
projections appearing in terms to the depth of the stuck co-term they
will be resolved against.

Substitution deserves a note: the machine rules substitute a term and a
co-term simultaneously, and either payload may carry the other sort of
free name into scope, so a single parallel substitution with renaming at
both binder kinds is the only correct shape.  It is one walk over terms,
co-terms and commands alike, dispatching on the node's class, as
free_names is.

Every node carries its node count (`size`), set when it is built, so the
growth guard reads one field of a command instead of walking it.  The
compound nodes (CApp, Mu, Case, CPush, CCommand) also keep a memo of their
free names that free_names fills on first use; like the memo of
syntax.App it is an idempotent cache.  With it, substitution returns a
subterm in which no key is free unchanged instead of copying it, as long
as no payload has a free name (which could make a binder rename).  None
of these fields takes part in `==`, `hash`, `repr` or pattern matching:
as in syntax, they are slots outside each node's `__match_args__`, and
each class's `_derived` gives the formula its constructor sets them with.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from .syntax import App, Lam, Node, Proj, Term, Var, atoms, fresh, split_stack
from .weakhead import PCommand, PCoTerm, PPush, PStuck

__all__ = [
    "CApp",
    "Mu",
    "Case",
    "CTerm",
    "CoVar",
    "CPush",
    "CStuckCo",
    "CCoTerm",
    "CCommand",
    "free_names",
    "subst_command",
    "control_load",
    "control_step",
    "control_proj_step",
    "control_halt",
    "is_legal_command",
    "legality_status",
    "embed_term",
    "unembed_term",
    "as_projection_command",
]


# The free names of a control term, co-term or command: (term variables,
# co-variables).
Names = tuple[frozenset[str], frozenset[str]]

_NO_NAMES: Names = (frozenset(), frozenset())


class CApp(Node):
    __match_args__ = ("fun", "arg")
    __slots__ = ("fun", "arg", "size", "_fn")
    _derived = {"size": "fun.size + arg.size + 1", "_fn": "None"}


class Mu(Node):
    """Capture the current co-term under a name and run the body."""

    __match_args__ = ("covar", "body")
    __slots__ = ("covar", "body", "size", "_fn")
    _derived = {"size": "body.size + 1", "_fn": "None"}


class Case(Node):
    """Pattern-match on the co-term: bind its head argument and its tail."""

    __match_args__ = ("binder", "cobinder", "body")
    __slots__ = ("binder", "cobinder", "body", "size", "_fn")
    _derived = {"size": "body.size + 1", "_fn": "None"}


CTerm = Union[Var, CApp, Mu, Case, Proj]


class CoVar(Node):
    __slots__ = __match_args__ = ("name",)
    size = 1


class CPush(Node):
    __match_args__ = ("arg", "rest")
    __slots__ = ("arg", "rest", "size", "_fn")
    _derived = {"size": "arg.size + rest.size + 1", "_fn": "None"}


class CStuckCo(Node):
    """The top level with `depth` frames dropped; 0 is the top itself."""

    __slots__ = __match_args__ = ("depth",)
    size = 1


CCoTerm = Union[CoVar, CPush, CStuckCo]


class CCommand(Node):
    __match_args__ = ("term", "coterm")
    __slots__ = ("term", "coterm", "size", "_fn")
    _derived = {"size": "term.size + coterm.size", "_fn": "None"}
    # The growth guard caps a control machine by size only.
    height = 1


def free_names(n: Union[CTerm, CCoTerm, CCommand]) -> Names:
    """(free term variables, free co-variables) of a term, co-term or
    command."""
    cls = type(n)
    if cls is Var:
        return frozenset((n.name,)), frozenset()
    if cls is CoVar:
        return frozenset(), frozenset((n.name,))
    if cls is Proj or cls is CStuckCo:
        return _NO_NAMES
    names = n._fn
    if names is None:
        if cls is Mu:
            fv, fc = free_names(n.body)
            names = fv, fc - {n.covar}
        elif cls is Case:
            fv, fc = free_names(n.body)
            names = fv - {n.binder}, fc - {n.cobinder}
        else:
            if cls is CApp:
                (fv, fc), (fv2, fc2) = free_names(n.fun), free_names(n.arg)
            elif cls is CPush:
                (fv, fc), (fv2, fc2) = free_names(n.arg), free_names(n.rest)
            else:
                (fv, fc), (fv2, fc2) = free_names(n.term), free_names(n.coterm)
            names = fv | fv2, fc | fc2
        cls._fn.__set__(n, names)
    return names


def subst_command(c: CCommand, tmap: dict[str, CTerm], cmap: dict[str, CCoTerm]) -> CCommand:
    """Simultaneous capture-avoiding substitution over a command.

    Subterms the substitution would only copy are shared with c instead.
    """
    avoid_v: frozenset[str] = frozenset()
    avoid_c: frozenset[str] = frozenset()
    for payload in (*tmap.values(), *cmap.values()):
        fv, fc = free_names(payload)
        avoid_v |= fv
        avoid_c |= fc
    return _sub(c, tmap, cmap, avoid_v, avoid_c)


def _sub(n, tmap, cmap, avoid_v, avoid_c):
    cls = type(n)
    if cls is Var:
        return tmap.get(n.name, n)
    if cls is CoVar:
        return cmap.get(n.name, n)
    if cls is Proj or cls is CStuckCo:
        return n
    # Substituting gives an equal copy of n when no key is free in it and
    # no payload carries a free name one of its binders would be renamed
    # away from; share n instead.
    if not (avoid_v or avoid_c):
        fv, fc = free_names(n)
        if fv.isdisjoint(tmap) and fc.isdisjoint(cmap):
            return n
    match n:
        case Mu(covar, body):
            cmap2 = {k: v for k, v in cmap.items() if k != covar}
            if not tmap and not cmap2:
                return n
            if covar in avoid_c:
                _, fc = free_names(body)
                renamed = fresh(avoid_c | fc | set(cmap2), covar)
                cmap2[covar] = CoVar(renamed)
                covar = renamed
                # The rename is itself a payload now, so deeper binders
                # spelled the same way must keep out of its way too.
                avoid_c = avoid_c | {renamed}
            return Mu(covar, _sub(body, tmap, cmap2, avoid_v, avoid_c))
        case Case(binder, cobinder, body):
            tmap2 = {k: v for k, v in tmap.items() if k != binder}
            cmap2 = {k: v for k, v in cmap.items() if k != cobinder}
            if not tmap2 and not cmap2:
                return n
            if binder in avoid_v:
                fv, _ = free_names(body)
                renamed = fresh(avoid_v | fv | set(tmap2), binder)
                tmap2[binder] = Var(renamed)
                binder = renamed
                avoid_v = avoid_v | {renamed}
            if cobinder in avoid_c:
                _, fc = free_names(body)
                renamed = fresh(avoid_c | fc | set(cmap2), cobinder)
                cmap2[cobinder] = CoVar(renamed)
                cobinder = renamed
                avoid_c = avoid_c | {renamed}
            return Case(binder, cobinder, _sub(body, tmap2, cmap2, avoid_v, avoid_c))
    # CApp, CPush and CCommand: rebuild from both substituted fields.
    first, second = cls.__match_args__
    return cls(
        _sub(getattr(n, first), tmap, cmap, avoid_v, avoid_c),
        _sub(getattr(n, second), tmap, cmap, avoid_v, avoid_c),
    )


def control_load(t: CTerm) -> CCommand:
    return CCommand(t, CStuckCo(0))


def control_step(c: CCommand) -> Optional[tuple[str, CCommand]]:
    """One transition of the plain machine: push an argument, let Mu
    capture its co-term, or pattern-match a Case against a call stack."""
    match c.term:
        case CApp(fun, arg):
            return "push", CCommand(fun, CPush(arg, c.coterm))
        case Mu(covar, body):
            return "mu", subst_command(body, {}, {covar: c.coterm})
        case Case(binder, cobinder, body) if isinstance(c.coterm, CPush):
            payload = {binder: c.coterm.arg}
            copayload = {cobinder: c.coterm.rest}
            return "beta", subst_command(body, payload, copayload)
        case _:
            return None


def control_proj_step(c: CCommand) -> Optional[tuple[str, CCommand]]:
    """The projection variant: everything the plain machine does, plus a
    Case facing a stuck co-term splits it eagerly into projections."""
    plain = control_step(c)
    if plain is not None:
        return plain
    match c.term:
        case Case(binder, cobinder, body) if isinstance(c.coterm, CStuckCo):
            depth = c.coterm.depth
            payload = {binder: Proj(depth)}
            copayload = {cobinder: CStuckCo(depth + 1)}
            return "split", subst_command(body, payload, copayload)
        case _:
            return None


def control_halt(c: CCommand, projective: bool) -> tuple[str, str]:
    """Classify a state no rule applies to: ("normal" | "stuck", reason)."""
    match c.term:
        case Var():
            return "normal", ""
        case Proj() if projective:
            return "normal", ""
        case Case():
            if isinstance(c.coterm, CoVar):
                return "stuck", f"pattern-match on free co-variable {c.coterm.name!r}"
            return "stuck", "pattern-match on the empty top-level context"
        case _:
            return "stuck", "no transition applies"


def is_legal_command(c: CCommand) -> bool:
    """Every projection in the focused term or a stacked argument must be
    strictly shallower than the terminating stuck co-term.  A command
    ending in a co-variable has nothing to check and passes vacuously."""
    e = split_stack(c.coterm, CPush)[1]
    return isinstance(e, CoVar) or all(p.depth < e.depth for p in atoms(c, Proj))


def legality_status(c: CCommand) -> str:
    if isinstance(split_stack(c.coterm, CPush)[1], CoVar):
        return "not-applicable"
    return "legal" if is_legal_command(c) else "illegal"


def embed_term(t: Term) -> CTerm:
    """Render a pure lambda term in the control syntax: a lambda becomes a
    Case whose body immediately hands the result to the captured context."""
    counter = itertools.count()

    def go(t: Term) -> CTerm:
        match t:
            case Var():
                return t
            case App(fun, arg):
                return CApp(go(fun), go(arg))
            case Lam(binder, body):
                covar = f"k{next(counter)}"
                return Case(binder, covar, CCommand(go(body), CoVar(covar)))
            case _:
                raise ValueError(f"only pure terms embed: {t!r}")

    return go(t)


def unembed_term(t: CTerm) -> Term:
    """Invert the embedding; a Proj, which control_proj_step makes, stays.
    Raises ValueError for terms outside the image (a Mu, or a Case whose
    body is not just a hand-off to its co-binder)."""
    match t:
        case Var() | Proj():
            return t
        case CApp(fun, arg):
            return App(unembed_term(fun), unembed_term(arg))
        case Case(binder, cobinder, CCommand(body_term, CoVar(name))) if name == cobinder:
            _, free_covars = free_names(body_term)
            if cobinder in free_covars:
                raise ValueError("co-binder recaptured in the body")
            return Lam(binder, unembed_term(body_term))
        case _:
            raise ValueError(f"not an embedded term: {t!r}")


def as_projection_command(c: CCommand) -> PCommand:
    """View a state of either machine over pure code as a state of the
    control-free machine it simulates (a plain-machine state is a Krivine
    state, whose co-term ends at the top level)."""
    args, e = split_stack(c.coterm, CPush)
    if not isinstance(e, CStuckCo):
        raise ValueError("open co-term")
    coterm: PCoTerm = PStuck(e.depth)
    for arg in reversed(args):
        coterm = PPush(unembed_term(arg), coterm)
    return PCommand(unembed_term(c.term), coterm)
