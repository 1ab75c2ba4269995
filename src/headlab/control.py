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
both binder kinds is the only correct shape.

Every node carries its node count (`size`), set when it is built, so the
growth guard reads one field of a command instead of walking it.  The
compound nodes (CApp, Mu, Case, CPush, CCommand) also keep a memo of their
free names that free_names_term, free_names_coterm and free_names_command
fill on first use; like the memo of syntax.App it is an idempotent cache.
With it, substitution returns a subterm in which no key is free unchanged
instead of copying it, as long as no payload has a free name (which could
make a binder rename).  None of these fields takes part in `==`, `hash`,
`repr` or pattern matching: as in syntax, they are slots outside each
node's `__match_args__`.
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
    "free_names_term",
    "free_names_coterm",
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

    def __init__(self, fun: "CTerm", arg: "CTerm") -> None:
        _capp_fun(self, fun)
        _capp_arg(self, arg)
        _capp_size(self, fun.size + arg.size + 1)
        _capp_fn(self, None)


class Mu(Node):
    """Capture the current co-term under a name and run the body."""

    __match_args__ = ("covar", "body")
    __slots__ = ("covar", "body", "size", "_fn")

    def __init__(self, covar: str, body: "CCommand") -> None:
        _mu_covar(self, covar)
        _mu_body(self, body)
        _mu_size(self, body.size + 1)
        _mu_fn(self, None)


class Case(Node):
    """Pattern-match on the co-term: bind its head argument and its tail."""

    __match_args__ = ("binder", "cobinder", "body")
    __slots__ = ("binder", "cobinder", "body", "size", "_fn")

    def __init__(self, binder: str, cobinder: str, body: "CCommand") -> None:
        _case_binder(self, binder)
        _case_cobinder(self, cobinder)
        _case_body(self, body)
        _case_size(self, body.size + 1)
        _case_fn(self, None)


CTerm = Union[Var, CApp, Mu, Case, Proj]


class CoVar(Node):
    __slots__ = __match_args__ = ("name",)
    size = 1

    def __init__(self, name: str) -> None:
        _covar_name(self, name)


class CPush(Node):
    __match_args__ = ("arg", "rest")
    __slots__ = ("arg", "rest", "size", "_fn")

    def __init__(self, arg: CTerm, rest: "CCoTerm") -> None:
        _cpush_arg(self, arg)
        _cpush_rest(self, rest)
        _cpush_size(self, arg.size + rest.size + 1)
        _cpush_fn(self, None)


class CStuckCo(Node):
    """The top level with `depth` frames dropped; 0 is the top itself."""

    __slots__ = __match_args__ = ("depth",)
    size = 1

    def __init__(self, depth: int) -> None:
        _cstuckco_depth(self, depth)


CCoTerm = Union[CoVar, CPush, CStuckCo]


class CCommand(Node):
    __match_args__ = ("term", "coterm")
    __slots__ = ("term", "coterm", "size", "_fn")
    # The growth guard caps a control machine by size only.
    height = 1

    def __init__(self, term: CTerm, coterm: CCoTerm) -> None:
        _ccommand_term(self, term)
        _ccommand_coterm(self, coterm)
        _ccommand_size(self, term.size + coterm.size)
        _ccommand_fn(self, None)


# The slot setters of the control nodes, which write through the slot
# descriptors as syntax.App and syntax.Lam do.
_covar_name, _cstuckco_depth = CoVar.name.__set__, CStuckCo.depth.__set__
_capp_fun, _capp_arg, _capp_size, _capp_fn = (
    getattr(CApp, name).__set__ for name in ("fun", "arg", "size", "_fn")
)
_mu_covar, _mu_body, _mu_size, _mu_fn = (
    getattr(Mu, name).__set__ for name in ("covar", "body", "size", "_fn")
)
_case_binder, _case_cobinder, _case_body, _case_size, _case_fn = (
    getattr(Case, name).__set__ for name in ("binder", "cobinder", "body", "size", "_fn")
)
_cpush_arg, _cpush_rest, _cpush_size, _cpush_fn = (
    getattr(CPush, name).__set__ for name in ("arg", "rest", "size", "_fn")
)
_ccommand_term, _ccommand_coterm, _ccommand_size, _ccommand_fn = (
    getattr(CCommand, name).__set__ for name in ("term", "coterm", "size", "_fn")
)


def _union(a: Names, b: Names) -> Names:
    return a[0] | b[0], a[1] | b[1]


def free_names_term(t: CTerm) -> Names:
    """(free term variables, free co-variables) of a term."""
    match t:
        case Var(name):
            return frozenset((name,)), frozenset()
        case CApp(fun, arg):
            names = t._fn
            if names is None:
                names = _union(free_names_term(fun), free_names_term(arg))
                _capp_fn(t, names)
            return names
        case Mu(covar, body):
            names = t._fn
            if names is None:
                fv, fc = free_names_command(body)
                names = fv, fc - {covar}
                _mu_fn(t, names)
            return names
        case Case(binder, cobinder, body):
            names = t._fn
            if names is None:
                fv, fc = free_names_command(body)
                names = fv - {binder}, fc - {cobinder}
                _case_fn(t, names)
            return names
        case _:
            return _NO_NAMES


def free_names_coterm(e: CCoTerm) -> Names:
    match e:
        case CoVar(name):
            return frozenset(), frozenset((name,))
        case CPush(arg, rest):
            names = e._fn
            if names is None:
                names = _union(free_names_term(arg), free_names_coterm(rest))
                _cpush_fn(e, names)
            return names
        case _:
            return _NO_NAMES


def free_names_command(c: CCommand) -> Names:
    names = c._fn
    if names is None:
        names = _union(free_names_term(c.term), free_names_coterm(c.coterm))
        _ccommand_fn(c, names)
    return names


def _payload_names(tmap: dict[str, CTerm], cmap: dict[str, CCoTerm]):
    avoid_v: set[str] = set()
    avoid_c: set[str] = set()
    for payload in tmap.values():
        fv, fc = free_names_term(payload)
        avoid_v |= fv
        avoid_c |= fc
    for copayload in cmap.values():
        fv, fc = free_names_coterm(copayload)
        avoid_v |= fv
        avoid_c |= fc
    return frozenset(avoid_v), frozenset(avoid_c)


def subst_command(c: CCommand, tmap: dict[str, CTerm], cmap: dict[str, CCoTerm]) -> CCommand:
    """Simultaneous capture-avoiding substitution over a command.

    Subterms the substitution would only copy are shared with c instead.
    """
    avoid_v, avoid_c = _payload_names(tmap, cmap)
    return _sub_command(c, tmap, cmap, avoid_v, avoid_c)


def _untouched(names: Names, tmap, cmap, avoid_v, avoid_c) -> bool:
    """Substituting into a subterm with these free names gives an equal
    copy of it: no key is free in it, and no payload carries a free name
    that one of its binders would be renamed away from."""
    return not (avoid_v or avoid_c) and names[0].isdisjoint(tmap) and names[1].isdisjoint(cmap)


def _sub_command(c, tmap, cmap, avoid_v, avoid_c) -> CCommand:
    if _untouched(free_names_command(c), tmap, cmap, avoid_v, avoid_c):
        return c
    return CCommand(
        _sub_term(c.term, tmap, cmap, avoid_v, avoid_c),
        _sub_coterm(c.coterm, tmap, cmap, avoid_v, avoid_c),
    )


def _sub_coterm(e, tmap, cmap, avoid_v, avoid_c) -> CCoTerm:
    match e:
        case CoVar(name):
            return cmap.get(name, e)
        case CPush(arg, rest):
            if _untouched(free_names_coterm(e), tmap, cmap, avoid_v, avoid_c):
                return e
            return CPush(
                _sub_term(arg, tmap, cmap, avoid_v, avoid_c),
                _sub_coterm(rest, tmap, cmap, avoid_v, avoid_c),
            )
        case _:
            return e


def _sub_term(t, tmap, cmap, avoid_v, avoid_c) -> CTerm:
    match t:
        case Var(name):
            return tmap.get(name, t)
        case Proj():
            return t
    if _untouched(free_names_term(t), tmap, cmap, avoid_v, avoid_c):
        return t
    match t:
        case CApp(fun, arg):
            return CApp(
                _sub_term(fun, tmap, cmap, avoid_v, avoid_c),
                _sub_term(arg, tmap, cmap, avoid_v, avoid_c),
            )
        case Mu(covar, body):
            cmap2 = {k: v for k, v in cmap.items() if k != covar}
            if not tmap and not cmap2:
                return t
            if covar in avoid_c:
                _, fc = free_names_command(body)
                renamed = fresh(avoid_c | fc | set(cmap2), covar)
                cmap2[covar] = CoVar(renamed)
                covar = renamed
                # The rename is itself a payload now, so deeper binders
                # spelled the same way must keep out of its way too.
                avoid_c = avoid_c | {renamed}
            return Mu(covar, _sub_command(body, tmap, cmap2, avoid_v, avoid_c))
        case Case(binder, cobinder, body):
            tmap2 = {k: v for k, v in tmap.items() if k != binder}
            cmap2 = {k: v for k, v in cmap.items() if k != cobinder}
            if not tmap2 and not cmap2:
                return t
            if binder in avoid_v:
                fv, _ = free_names_command(body)
                renamed = fresh(avoid_v | fv | set(tmap2), binder)
                tmap2[binder] = Var(renamed)
                binder = renamed
                avoid_v = avoid_v | {renamed}
            if cobinder in avoid_c:
                _, fc = free_names_command(body)
                renamed = fresh(avoid_c | fc | set(cmap2), cobinder)
                cmap2[cobinder] = CoVar(renamed)
                cobinder = renamed
                avoid_c = avoid_c | {renamed}
            return Case(binder, cobinder, _sub_command(body, tmap2, cmap2, avoid_v, avoid_c))


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


def unembed_term(t: CTerm, allow_proj: bool = False) -> Term:
    """Invert the embedding.  Raises ValueError for terms outside the image
    (a Mu, or a Case whose body is not just a hand-off to its co-binder)."""
    match t:
        case Var():
            return t
        case Proj() if allow_proj:
            return t
        case CApp(fun, arg):
            return App(unembed_term(fun, allow_proj), unembed_term(arg, allow_proj))
        case Case(binder, cobinder, CCommand(body_term, CoVar(name))) if name == cobinder:
            _, free_covars = free_names_term(body_term)
            if cobinder in free_covars:
                raise ValueError("co-binder recaptured in the body")
            return Lam(binder, unembed_term(body_term, allow_proj))
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
        coterm = PPush(unembed_term(arg, allow_proj=True), coterm)
    return PCommand(unembed_term(c.term, allow_proj=True), coterm)
