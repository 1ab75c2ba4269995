"""Coalesced projections and the partial de Bruijn small-step semantics.

The coalesced machine is the projection machine with every chain of
projections fused into a single numeric offset, so stuck co-terms carry
one machine integer instead of a unary tower.  It reuses the projection
machine's state representation (an offset is an offset); only the
transition rules and the rendering differ, and the two are checked to
run in lockstep.  The companion small-step semantics counts the absorbed
top-level binders the same way.  Both readback steps end in
("done", term), for the engines' one readback driver to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .syntax import (
    App,
    Index,
    Lam,
    Proj,
    Term,
    Var,
    all_names,
    atoms,
    canonical_binder,
    fresh,
    replace_atom,
    subst,
)
from .projection import PCommand, PPush, PStuck

__all__ = [
    "QCommand",
    "coalesced_load",
    "coalesced_step",
    "coalesced_terminal",
    "coalesced_readback_step",
    "as_projection_command",
    "DTopTerm",
    "debruijn_load",
    "debruijn_step",
    "debruijn_readback_step",
    "is_legal_dtop",
]


class QCommand(PCommand):
    """Same state shape as the projection machine; offsets are rendered as
    pick/drop rather than expanded projection chains."""

    __slots__ = ()


def coalesced_load(t: Term) -> QCommand:
    return QCommand(t, PStuck(0))


def coalesced_step(c: QCommand) -> Optional[tuple[str, QCommand]]:
    match c.term:
        case App(fun, arg):
            return "push", QCommand(fun, PPush(arg, c.coterm))
        case Lam(binder, body):
            match c.coterm:
                case PPush(arg, rest):
                    return "beta", QCommand(subst(body, binder, arg), rest)
                case PStuck(n):
                    return "project", QCommand(subst(body, binder, Proj(n)), PStuck(n + 1))
        case _:
            return None
    return None


def coalesced_terminal(c: QCommand) -> bool:
    return isinstance(c.term, (Var, Proj))


def coalesced_readback_step(c: QCommand) -> tuple[str, Union[QCommand, Term]]:
    match c.coterm:
        case PPush(arg, rest):
            return "pop", QCommand(App(c.term, arg), rest)
        case PStuck(n) if n > 0:
            hint = canonical_binder(n - 1)
            x = fresh(all_names(c.term), hint)
            body = replace_atom(c.term, Proj(n - 1), x)
            return "lambda", QCommand(Lam(x, body), PStuck(n - 1))
        case _:
            return "done", c.term


def as_projection_command(c: QCommand) -> PCommand:
    """The macro view: a pick/drop state read as a projection-chain state."""
    return PCommand(c.term, c.coterm)


@dataclass(frozen=True, slots=True)
class DTopTerm:
    """A body under a counted prefix of anonymous binders; indices in the
    body refer to the prefix position at which each binder was absorbed."""

    prefix: int
    body: Term


def debruijn_load(t: Term) -> DTopTerm:
    return DTopTerm(0, t)


def _head_context(body: Term) -> Optional[tuple[list[Term], Lam, Term]]:
    """Find E with body = E[(lam) arg]; arguments returned outermost first."""
    outer: list[Term] = []
    head = body
    while isinstance(head, App):
        outer.append(head.arg)
        head = head.fun
    if isinstance(head, Lam) and outer:
        return outer[:-1], head, outer[-1]
    return None


def debruijn_step(t: DTopTerm) -> Optional[tuple[str, DTopTerm]]:
    if isinstance(t.body, Lam):
        absorbed = subst(t.body.body, t.body.binder, Index(t.prefix))
        return "absorb", DTopTerm(t.prefix + 1, absorbed)
    found = _head_context(t.body)
    if found is None:
        return None
    ctx, lam, arg = found
    result = subst(lam.body, lam.binder, arg)
    for pending in reversed(ctx):
        result = App(result, pending)
    return "beta", DTopTerm(t.prefix, result)


def is_legal_dtop(t: DTopTerm) -> bool:
    return all(i.value < t.prefix for i in atoms(t.body, Index))


def debruijn_readback_step(t: DTopTerm) -> tuple[str, Union[DTopTerm, Term]]:
    if t.prefix == 0:
        return "done", t.body
    k = t.prefix - 1
    x = fresh(all_names(t.body), canonical_binder(k))
    return "name", DTopTerm(k, Lam(x, replace_atom(t.body, Index(k), x)))
