"""Environment (closure) machines.

Variables are resolved through persistent environments instead of by
substitution: pushing an argument captures the current environment in a
closure, and binding extends the environment without mutating anything a
previously built closure might share.  The head variant is the Krivine
variant's rules (lookup, push, bind) plus the projection machine's
`project`, which binds the variable of a lambda facing a stuck co-term to
a projection closure.  Both load the same state.  Results are recovered
by forcing: recursively substituting environment bindings back into the
term, which gives a projection-machine state.

A variable can be bound to a closure whose term is again a variable, and
such renaming chains grow by a link per beta on some diverging terms, so a
run can spend nearly all its transitions on `lookup`.  Each `Closure` keeps
a memo, `_chain`: how many lookups a command focused on it makes, and the
closure it then focuses.  Closures and environments are immutable, so the
pair depends only on the closure and filling it is an idempotent cache, as
the term nodes' free-variable memos are.  `env_lookups` takes a whole chain
in one jump for an untraced run, and `force` jumps it instead of recursing
once per link.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from .syntax import App, Lam, Node, Proj, Term, Var, all_names, fresh, split_stack, subst
from .weakhead import TOP, PCommand, PPush, PStuck, PCoTerm

__all__ = [
    "Closure",
    "Binding",
    "Env",
    "env_lookup",
    "env_lookups",
    "EPush",
    "ECoTerm",
    "ECommand",
    "ForceBudgetExceeded",
    "env_krivine_load",
    "env_krivine_step",
    "env_krivine_halt",
    "env_head_step",
    "env_head_halt",
    "force",
    "as_forced_command",
]


class Closure(Node):
    __match_args__ = ("term", "env")
    # _chain is (hops, end): a command focused on this closure makes `hops`
    # lookups and then focuses `end`, a non-variable or an unbound variable.
    # None until `_chain_of` fills it, for bound variables only; outside ==,
    # hash and repr.
    __slots__ = ("term", "env", "_chain")
    _derived = {"_chain": "None"}


# The writer of the chain memo, which `_chain_of` fills after construction.
_closure_chain = Closure._chain.__set__


class Binding(Node):
    __slots__ = __match_args__ = ("name", "value", "rest")


# Environments are shared-tail linked lists; None is the empty one.
Env = Union[Binding, None]


def env_lookup(env: Env, name: str) -> Optional[Closure]:
    while env is not None:
        if env.name == name:
            return env.value
        env = env.rest
    return None


class EPush(Node):
    __slots__ = __match_args__ = ("arg", "rest")


ECoTerm = Union[EPush, PStuck]


class ECommand(Node):
    __slots__ = __match_args__ = ("term", "env", "coterm")
    # Every state counts as one node, so only the growth guard's work cap
    # stops a diverging run, at engines.MAX_TOTAL_WORK transitions (55 and
    # 57 corpus runs of env-krivine and env-head end so); an untraced run
    # takes each lookup chain in one jump (env_lookups), so those runs cost
    # about their betas.  A shared measure is item 7 of ROADMAP.md.
    size = height = 1


def _chain_of(c: Closure) -> tuple[int, Closure]:
    """The (hops, end) of `c`: the lookups a command focused on it makes and
    the closure it then focuses.  A loop, so a chain of any length fits the
    stack; each bound-variable closure it passes keeps its own pair."""
    path = []
    while c._chain is None:
        term = c.term
        if not isinstance(term, Var):
            break
        found = env_lookup(c.env, term.name)
        if found is None:
            break
        path.append(c)
        c = found
    chain = c._chain or (0, c)
    for link in reversed(path):
        chain = (chain[0] + 1, chain[1])
        _closure_chain(link, chain)
    return chain


def env_lookups(c: ECommand, limit: int) -> tuple[int, ECommand]:
    """Take up to `limit` lookup transitions at once.

    Returns how many were taken and the state they reach, which is the state
    that many `lookup` steps of `env_krivine_step` reach, or (0, c) when the
    focus is not a bound variable.  Unless `limit` cuts it short, the run is
    the whole chain: 1 + the hops of the closure the first lookup finds.
    """
    term = c.term
    if not isinstance(term, Var):
        return 0, c
    found = env_lookup(c.env, term.name)
    if found is None:
        return 0, c
    hops, end = _chain_of(found)
    if hops < limit:
        return 1 + hops, ECommand(end.term, end.env, c.coterm)
    # The limit falls inside the chain: walk just that prefix.
    end = found
    for _ in range(limit - 1):
        end = env_lookup(end.env, end.term.name)
    return limit, ECommand(end.term, end.env, c.coterm)


class ForceBudgetExceeded(Exception):
    """Forcing was about to materialize more nodes than allowed."""


def env_krivine_load(t: Term) -> ECommand:
    return ECommand(t, None, TOP)


def env_krivine_step(c: ECommand) -> Optional[tuple[str, ECommand]]:
    # Lookups are nearly every transition, so their case is tried first.
    match c.term:
        case Var(name):
            found = env_lookup(c.env, name)
            if found is None:
                return None
            return "lookup", ECommand(found.term, found.env, c.coterm)
        case App(fun, arg):
            return "push", ECommand(fun, c.env, EPush(Closure(arg, c.env), c.coterm))
        case Lam(binder, body) if isinstance(c.coterm, EPush):
            extended = Binding(binder, c.coterm.arg, c.env)
            return "bind", ECommand(body, extended, c.coterm.rest)
        case _:
            return None


def env_krivine_halt(c: ECommand) -> tuple[str, str]:
    """Proper terminals are lambdas facing the bare top level; a variable
    with no binding means the program was open, which no rule covers but
    forcing can still read back."""
    match c.term:
        case Lam() if isinstance(c.coterm, PStuck):
            return "normal", ""
        case Var(name):
            return "open", f"unbound variable {name!r}"
        case _:
            return "stuck", "no transition applies"


def env_head_step(c: ECommand) -> Optional[tuple[str, ECommand]]:
    step = env_krivine_step(c)
    if step is not None:
        return step
    match c:
        case ECommand(Lam(binder, body), env, PStuck(n)):
            # The projection pairs up with the current environment
            # exactly as the rule is written, although nothing in a
            # projection ever needs looking up.
            bound = Binding(binder, Closure(Proj(n), env), env)
            return "project", ECommand(body, bound, PStuck(n + 1))
        case _:
            return None


def env_head_halt(c: ECommand) -> tuple[str, str]:
    match c.term:
        case Proj():
            return "normal", ""
        case Var(name):
            return "open", f"unbound variable {name!r}"
        case _:
            return "stuck", "no transition applies"


def force(closure: Closure, max_nodes: Optional[int] = None) -> Term:
    """Materialize a closure as a term with no environment-bound variables.

    Under a binder the bound name is mapped to a unique marker first, the
    body is forced, and then the marker is renamed to a binder that cannot
    capture anything the forcing introduced.  Cyclic environments cannot
    be built with these constructors, so forcing terminates; the optional
    budget guards against materializing enormous results.
    """
    markers = itertools.count()
    produced = [0]

    def note(nodes: int = 1) -> None:
        produced[0] += nodes
        if max_nodes is not None and produced[0] > max_nodes:
            raise ForceBudgetExceeded()

    def go(t: Term, env: Env) -> Term:
        note()
        match t:
            case Var(name):
                found = env_lookup(env, name)
                if found is None:
                    return t
                # Jump the lookup chain, charging each variable it skips as
                # one node, as stepping through them one call each would.
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


def as_forced_command(c: ECommand, max_nodes: Optional[int] = None) -> PCommand:
    """Force the focus and every stacked closure, yielding a state of the
    substitution-based head machine for readback and comparison."""
    args, stuck = split_stack(c.coterm, EPush)
    forced: PCoTerm = stuck
    for arg in reversed(args):
        forced = PPush(force(arg, max_nodes), forced)
    return PCommand(force(Closure(c.term, c.env), max_nodes), forced)
