"""Projection-based head reduction.

Two artifacts: a stack machine that keeps evaluating a lambda with no
pending argument by substituting a projection into the call stack for its
variable, and the index-form small-step semantics obtained by treating
those projections as references to a prefix of anonymous top-level
binders.  The star/hash translations connect the index form to the plain
named small-step semantics and are property-tested as inverses.

The stack machine is the Krivine machine of `weakhead`, on its states,
plus one rule: `project`, for a lambda facing a stuck co-term.  Its
readback is the Krivine readback plus one move, `lambda`, which undoes a
`project`.

The paper's coalescing step, which replaces a chain of projections and a
prefix of binders with a count, needs no machine of its own: `PStuck`,
`Proj` and `TopTerm` already hold that count as one integer.  The
head-coalesced and head-debruijn engines are the head-proj and
head-os-derived rows with another `render`
(`pretty.print_state(..., coalesced=True)`).

Each artifact has a readback step that ends in ("done", term); the
engines' one driver (`engines._machine_readback`) runs it to the end and
checks that no projection or index is left.  The stack machine's step is
the readback of head-proj, head-coalesced, both environment machines
and both control machines.  Each step names one binder against every
name of the term it wraps, so stepping costs a walk of the term per
binder.  An untraced run takes the same moves in one pass instead
(`proj_readback`, `derived_readback`): every binder is named against one
name set and one walk (`syntax.bind_atoms`) binds every atom and finds
any that is left.  A traced run steps every move, since each is an
event.  `translate_star` runs the index form's readback on its own,
because it is the paper's translation.
"""

from __future__ import annotations

from typing import Optional, Union

from .syntax import (
    App,
    IllegalStateError,
    Index,
    Lam,
    Node,
    Proj,
    Term,
    Var,
    all_names,
    atoms,
    bind_atoms,
    canonical_binder,
    fresh,
    is_pure,
    replace_atom,
    split_stack,
    subst,
)
from .weakhead import PCommand, PPush, PStuck, decompose_wh, krivine_readback_step, krivine_step, plug

__all__ = [
    "proj_step",
    "proj_terminal",
    "proj_readback_step",
    "proj_readback",
    "is_legal_proj",
    "TopTerm",
    "derived_step",
    "derived_readback_step",
    "derived_readback",
    "is_legal_top",
    "translate_star",
    "translate_hash",
]


def proj_step(c: PCommand) -> Optional[tuple[str, PCommand]]:
    """One transition of the projection machine: a Krivine transition, or
    "project" when a lambda faces a stuck co-term.  The variable becomes a
    projection out of that co-term and evaluation continues under the (now
    implicit) binder."""
    step = krivine_step(c)
    if step is not None:
        return step
    match c:
        case PCommand(Lam(binder, body), PStuck(depth)):
            return "project", PCommand(subst(body, binder, Proj(depth)), PStuck(depth + 1))
        case _:
            return None


def proj_terminal(c: PCommand) -> bool:
    return isinstance(c.term, (Var, Proj))


def proj_readback_step(c: PCommand) -> tuple[str, Union[PCommand, Term]]:
    """One readback move: reverse one projection step by reintroducing a
    lambda whose binder replaces the deepest projection still in scope,
    or else a Krivine readback move."""
    match c.coterm:
        case PStuck(depth) if depth > 0:
            hint = canonical_binder(depth - 1)
            x = fresh(all_names(c.term), hint)
            body = replace_atom(c.term, Proj(depth - 1), x)
            return "lambda", PCommand(Lam(x, body), PStuck(depth - 1))
        case _:
            return krivine_readback_step(c)


def proj_readback(c: PCommand) -> tuple[Term, bool]:
    """Where `proj_readback_step`'s moves take `c`, in one pass: the pops
    plug the stacked arguments back on, then one `lambda` per dropped
    frame binds its projection.  Returns the term and whether it is pure."""
    args, stuck = split_stack(c.coterm, PPush)
    t = c.term
    for arg in args:
        t = App(t, arg)
    return bind_atoms(t, stuck.depth, Proj)


def is_legal_proj(c: PCommand) -> bool:
    """Every projection in the focused term or a stacked argument must
    reach strictly less deep than the terminating stuck co-term."""
    args, stuck = split_stack(c.coterm, PPush)
    return all(p.depth < stuck.depth for t in (c.term, *args) for p in atoms(t, Proj))


class TopTerm(Node):
    """A body under `binders` anonymous top-level lambdas.

    The body may mention Index(i) for i < binders; Index(0) is the
    outermost binder, absorbed first.  Its size and height are those of
    the term it stands for, the body under `binders` lambdas.
    """

    __slots__ = __match_args__ = ("binders", "body")
    size = property(lambda self: self.body.size + self.binders)
    height = property(lambda self: self.body.height + self.binders)


def derived_step(t: TopTerm) -> Optional[tuple[str, TopTerm]]:
    """Absorb a top-level lambda into the anonymous prefix, or contract
    the head redex inside the body; None when the body is neutral."""
    if isinstance(t.body, Lam):
        absorbed = subst(t.body.body, t.body.binder, Index(t.binders))
        return "absorb", TopTerm(t.binders + 1, absorbed)
    decomposition = decompose_wh(t.body)
    if decomposition is None:
        return None
    ctx, redex = decomposition
    lam = redex.fun
    assert isinstance(lam, Lam)
    contracted = plug(ctx, subst(lam.body, lam.binder, redex.arg))
    return "beta", TopTerm(t.binders, contracted)


def is_legal_top(t: TopTerm) -> bool:
    return all(i.value < t.binders for i in atoms(t.body, Index))


def derived_readback_step(t: TopTerm) -> tuple[str, Union[TopTerm, Term]]:
    """Name the innermost anonymous binder.  With k - 1 binders left, the
    freed index is k - 1 and the fresh name wraps the body; with none left
    the body is the result."""
    if t.binders == 0:
        return "done", t.body
    k = t.binders - 1
    x = fresh(all_names(t.body), canonical_binder(k))
    return "name", TopTerm(k, Lam(x, replace_atom(t.body, Index(k), x)))


def derived_readback(t: TopTerm) -> tuple[Term, bool]:
    """Where `derived_readback_step`'s moves take `t`, in one pass: one
    `name` per anonymous binder.  Returns the term and whether it is pure."""
    return bind_atoms(t.body, t.binders, Index)


def translate_star(t: TopTerm) -> Term:
    """Normal form of the readback relation: name every anonymous binder."""
    while True:
        rule, t = derived_readback_step(t)
        if rule == "done":
            if not is_pure(t):
                raise IllegalStateError(f"index survived readback: {t!r}")
            return t


def translate_hash(v: Term) -> TopTerm:
    """Normal form with respect to absorption: swallow the whole leading
    lambda prefix into the anonymous top level."""
    t = TopTerm(0, v)
    while isinstance(t.body, Lam):
        _, t = derived_step(t)
    return t
