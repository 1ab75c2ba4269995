"""Weak-head evaluation three ways.

A contextual small-step relation, the Krivine machine with its load and
readback rules, and a big-step evaluator.  The three are written as
independent artifacts on purpose: the harness property-tests that they
agree, which is only meaningful if none is defined in terms of another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .fuel import FuelMeter
from .syntax import (
    App,
    Lam,
    NormalFormClass,
    Term,
    Var,
    classify,
    subst,
    term_metrics,
)

__all__ = [
    "EvalContext",
    "plug",
    "decompose_wh",
    "step_wh_os",
    "KTop",
    "KPush",
    "KCommand",
    "TOP",
    "krivine_load",
    "krivine_step",
    "krivine_terminal",
    "krivine_readback_step",
    "bigstep_wh",
]

# An evaluation context is the argument spine around the hole, stored
# outermost application first; plugging folds them back on from the inside.
EvalContext = tuple[Term, ...]


def plug(ctx: EvalContext, t: Term) -> Term:
    for arg in reversed(ctx):
        t = App(t, arg)
    return t


def decompose_wh(t: Term) -> Union[tuple[EvalContext, App], NormalFormClass]:
    """Split t into context and weak-head redex, or classify it when stuck.

    The decomposition is unique: walk the application spine to its head;
    a lambda head applied to at least one argument forms the redex with
    its innermost argument.
    """
    outermost_first: list[Term] = []
    head = t
    while isinstance(head, App):
        outermost_first.append(head.arg)
        head = head.fun
    if isinstance(head, Lam) and outermost_first:
        redex = App(head, outermost_first[-1])
        return tuple(outermost_first[:-1]), redex
    return classify(t)


def step_wh_os(t: Term) -> Optional[Term]:
    """One weak-head beta step, or None when t is a weak-head normal form."""
    decomposition = decompose_wh(t)
    if isinstance(decomposition, NormalFormClass):
        return None
    ctx, redex = decomposition
    lam = redex.fun
    assert isinstance(lam, Lam)
    return plug(ctx, subst(lam.body, lam.binder, redex.arg))


@dataclass(frozen=True, slots=True)
class KTop:
    pass


@dataclass(frozen=True, slots=True)
class KPush:
    arg: Term
    rest: "KCoTerm"


KCoTerm = Union[KTop, KPush]
TOP = KTop()


@dataclass(frozen=True, slots=True)
class KCommand:
    term: Term
    stack: KCoTerm


def krivine_load(t: Term) -> KCommand:
    return KCommand(t, TOP)


def krivine_step(c: KCommand) -> Optional[tuple[str, KCommand]]:
    """Apply the one rule that matches, or None when the machine halts."""
    match c.term:
        case App(fun, arg):
            return "push", KCommand(fun, KPush(arg, c.stack))
        case Lam(binder, body) if isinstance(c.stack, KPush):
            return "beta", KCommand(subst(body, binder, c.stack.arg), c.stack.rest)
        case _:
            return None


def krivine_terminal(c: KCommand) -> bool:
    """Halting states: a variable under any stack, or a lambda on the
    empty stack.  Distinct from merely `krivine_step returned None` so the
    harness can tell a finished run from a wedged one."""
    if isinstance(c.term, Var):
        return True
    return isinstance(c.term, Lam) and isinstance(c.stack, KTop)


def krivine_readback_step(c: KCommand) -> tuple[str, Union[KCommand, Term]]:
    match c.stack:
        case KPush(arg, rest):
            return "pop", KCommand(App(c.term, arg), rest)
        case _:
            return "done", c.term


def bigstep_wh(t: Term, fuel: FuelMeter, log: Optional[list[Term]] = None) -> Term:
    """Big-step weak-head evaluation.

    Variables and lambdas evaluate to themselves.  An application first
    evaluates its function: a lambda result contracts and evaluation
    continues on the contractum; anything else leaves the argument in
    place untouched.  The continuation premise is run as a loop so the
    Python stack only grows with spine nesting, never with beta count.
    """
    while True:
        if not isinstance(t, App):
            return t
        fun = bigstep_wh(t.fun, fuel, log)
        if isinstance(fun, Lam):
            if log is not None:
                log.append(App(fun, t.arg))
            fuel.spend()
            t = subst(fun.body, fun.binder, t.arg)
            fuel.charge(term_metrics(t)[0])
        else:
            return App(fun, t.arg)
