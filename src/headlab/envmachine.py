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

Such a run does not repeat: each period adds a link to a chain.  But an
untraced run reads a chain only as (hops, end), so the periods repeat up to
their lookup counts.  `period_template` finds the renaming links one period
stacks on the state, and `FuelMeter.watch` skips whole periods by stacking
them k times at once.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from .fuel import repeat
from .syntax import App, Lam, Node, Proj, Term, Var, all_names, fresh, split_stack, subst
from .weakhead import TOP, PCommand, PPush, PStuck, PCoTerm

__all__ = [
    "Closure",
    "Binding",
    "Env",
    "env_lookup",
    "env_lookups",
    "period_template",
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
    # 57 corpus runs of env-krivine and env-head end so).  An untraced run
    # takes each lookup chain in one jump (env_lookups), and skips whole
    # periods of a run that grows a renaming chain (period_template), so
    # 37 of each row's runs cost a few periods and the rest about their
    # betas.  A shared measure is item 7 of ROADMAP.md.
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


def period_template(mark: ECommand, now: ECommand, nodes: int) -> tuple:
    """How `now`, a state some betas after `mark`, is `mark` grown by
    renaming links: the learner `FuelMeter.watch` calls for these machines.

    Call a closure whose term is a variable bound in its own environment
    transparent.  An untraced run reads one only through `_chain_of`, as
    (hops, end), so two states whose collapsed shapes (every transparent
    closure read as its chain end) are equal take the same rules in the
    same order, and only their lookup counts differ.  The walk compares
    the two states field by field and skips the subtrees they share.
    Where a closure of `now` differs from `mark`'s, `now`'s must reach
    `mark`'s through renaming links, each `Closure(x, Binding(x, ., None))`:
    a context that holds no env record off the hole's path and keeps the
    chain end.  Everything else must be equal, so the collapsed shapes are.

    The watch calls it only when both states focus the same term object.
    Returns (template, nodes visited).  The template is None when the
    states differ otherwise or when the walk would visit more than `nodes`
    nodes; `repeat` when they are equal; else a `stack(state, k)` that
    stacks each context k more times.
    """
    # Stacks of different depths are the commonest miss: find it before
    # the walk, which would first compare the closures pushed on them.
    a, b, visited = mark.coterm, now.coterm, 0
    while type(a) is EPush and type(b) is EPush and a is not b and visited < nodes:
        a, b, visited = a.rest, b.rest, visited + 1
    if type(a) is not type(b) or visited == nodes:
        return None, visited + 1
    grown = []  # (path to a closure, the terms of its new links, outermost first)
    todo = [(mark, now, None)]  # unshared pairs; paths are (parent path, field) pairs
    while todo:
        a, b, at = todo.pop()
        visited += 1
        cls = type(a)
        if visited > nodes or cls is not type(b):
            return None, visited
        if cls is Closure and type(b.term) is Var:
            depth = _chain_of(b)[0] - _chain_of(a)[0]
            if depth > 0:
                visited += depth
                if visited > nodes:
                    return None, visited
                links, c = [], b
                for _ in range(depth):
                    env = c.env
                    if env.name != c.term.name or env.rest is not None:
                        break
                    links.append(c.term)
                    c = env.value
                if c is a:
                    grown.append((at, links))
                    continue
        fields = getattr(cls, "__match_args__", None)
        if fields is None:
            if a != b:
                return None, visited
        else:
            for f in fields:
                x, y = getattr(a, f), getattr(b, f)
                if x is not y:
                    todo.append((x, y, (at, f)))
    if not grown:
        return repeat, visited
    places = []
    for at, links in grown:
        path = []
        while at is not None:
            at, field = at
            path.append(field)
        places.append((path[::-1], links))

    def stack(state: ECommand, k: int) -> ECommand:
        for path, links in places:
            spine = [state]
            for field in path:
                spine.append(getattr(spine[-1], field))
            node = spine.pop()
            for _ in range(k):
                for term in reversed(links):
                    node = Closure(term, Binding(term.name, node, None))
            # Rebuild the ancestors once, around the stacked closure.
            for field in reversed(path):
                parent = spine.pop()
                node = type(parent)(*[node if f == field else getattr(parent, f) for f in parent.__match_args__])
            state = node
        return state

    return stack, visited


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
